//! Adaptive hybrid scheduling end to end: the feedback controller
//! picking the static/dynamic split from the measurements every run
//! already reports.
//!
//! Three acts, public API only:
//! 1. solo runs under an injected slow worker — watch the chosen
//!    `dratio` leave the topology seed as observations accumulate;
//! 2. the same `Solver` loop on a `SimulatedBackend` — an offline
//!    what-if sweep on a modelled 16-core NUMA Xeon;
//! 3. a `FactorService` whose completed jobs feed the controller, and
//!    `Solver::reconfigure` applying the adapted split to the next
//!    pool generation with zero dropped jobs.
//!
//! ```bash
//! cargo run --release --example adaptive
//! ```

use calu::sched::SchedulerKind;
use calu::sim::{MachineConfig, NoiseConfig};
use calu::{
    AdaptivePolicy, FaultPlan, JobClass, JobSpec, MatrixSource, QueueDiscipline, SimulatedBackend,
    Solver,
};

fn main() {
    // ---- 1. solo runs under adversity ---------------------------------
    // worker 1 at a third of its speed: idle shows up on the other
    // three workers, and the controller grows the dynamic share to
    // absorb it — without ever changing the factor bits
    let solver = Solver::new(MatrixSource::uniform(256, 42))
        .tile(32)
        .threads(4)
        .verify(false)
        .fault_plan(FaultPlan::off().with_seed(7).slow_worker(1, 3.0))
        .adaptive(AdaptivePolicy::new(7));
    println!("solo adaptive runs (worker 1 at 3x slowdown):");
    for run in 0..4 {
        let r = solver.run().expect("adaptive run");
        let a = r.adaptation.as_ref().expect("adaptive report");
        let SchedulerKind::Hybrid { dratio } = r.scheduler else {
            unreachable!("adaptive plans always run Hybrid");
        };
        println!(
            "  run {run}: seed dratio {:.3} -> chosen {:.3} (ran {:.3}, \
             {} observation(s), steal order {})",
            a.seed.dratio, a.chosen.dratio, dratio, a.observations, a.chosen.steal_order,
        );
    }
    let final_split = solver.adaptive_split().expect("planned at least once");
    println!(
        "  controller now recommends dratio {:.3}",
        final_split.dratio
    );

    // ---- 2. the same controller on the simulator ----------------------
    // seeds from the *modelled* machine (4 sockets x 4 cores), so the
    // sweep predicts the real machine instead of the host running it
    let machine = MachineConfig::intel_xeon_16(NoiseConfig::off());
    println!("simulated what-if on {}:", machine.name);
    let solver = Solver::new(MatrixSource::shape(4000, 4000))
        .tile(100)
        .queue_discipline(QueueDiscipline::Global)
        .backend(SimulatedBackend::new(machine))
        .adaptive(AdaptivePolicy::new(7));
    for run in 0..4 {
        let r = solver.run().expect("simulated adaptive run");
        let a = r.adaptation.as_ref().expect("adaptive report");
        println!("  sim run {run}: dratio {:.3}", a.chosen.dratio);
    }

    // ---- 3. a service that converges, and reconfigure applies it ------
    let solver = Solver::new(MatrixSource::shape(96, 96))
        .tile(16)
        .threads(4)
        .verify(false)
        .fault_plan(FaultPlan::off().with_seed(9).slow_worker(2, 4.0))
        .adaptive(AdaptivePolicy::new(9));
    let service = solver.serve().expect("spawn service");
    let before = service.current_split();
    for i in 0..6u64 {
        service
            .submit(JobSpec::uniform(96, 96, 100 + i), JobClass::Batch)
            .expect("submit")
            .wait()
            .expect("factor");
    }
    let adapted = solver.adaptive_split().expect("jobs fed the controller");
    println!(
        "service fed the controller: pool ran dratio {:.3}, controller now at {:.3}",
        before.dratio, adapted.dratio
    );
    let generation = solver.reconfigure(&service).expect("reconfigure");
    println!(
        "reconfigured to generation {generation}: pool now runs dratio {:.3}",
        service.current_split().dratio
    );
    service.drain();
    println!("OK");
}
