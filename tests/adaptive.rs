//! The adaptive-scheduling feedback loop, held to its contract: replay
//! canned observation traces (a healthy machine, one half-speed core, a
//! core lost mid-run, an all-small and an all-large batch mix) through
//! the controller and assert the chosen splits are **deterministic**,
//! **bounded** by the ranges the validated policy sets, and
//! **monotone** — more idle always buys a larger dynamic share. The
//! same controller then runs end-to-end on both backends: the threaded
//! facade and the simulator must seed identically-shaped controllers
//! and replay identically under identical traces.

use calu::sched::CpuTopology;
use calu::sim::{MachineConfig, NoiseConfig};
use calu::{
    AdaptiveController, AdaptivePolicy, FaultPlan, JobClass, JobSpec, MatrixSource, Observation,
    SimulatedBackend, Solver, SplitChoice,
};

const THREADS: usize = 8;

/// Low-gain policy so multi-step traces stay interior to the dratio
/// bounds (the clamps are exercised separately).
fn policy(seed: u64) -> AdaptivePolicy {
    AdaptivePolicy::new(seed).with_gain(0.2)
}

fn topo() -> CpuTopology {
    CpuTopology::uniform(2, 4)
}

fn controller(seed: u64) -> AdaptiveController {
    AdaptiveController::new(policy(seed), &topo(), THREADS)
}

/// A fully busy machine: idle under the tolerated target, nothing lost.
fn healthy_trace(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|_| Observation::new(THREADS, 1.0, 0.02 * THREADS as f64).with_dims(512, 512))
        .collect()
}

/// One core at half speed: the seven fast workers drain their static
/// queues and wait on the straggler's panels — idle ≈ 30% of the
/// makespan rectangle, with rescued tasks marking the degradation.
fn half_speed_trace(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|_| {
            Observation::new(THREADS, 2.0, 0.3 * 2.0 * THREADS as f64)
                .with_rescued(6)
                .with_dims(512, 512)
        })
        .collect()
}

/// A core lost mid-run: one worker retired, its static share rescued,
/// the survivors idling even harder at the tail.
fn lost_core_trace(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|_| {
            Observation::new(THREADS, 2.5, 0.4 * 2.5 * THREADS as f64)
                .with_lost(1)
                .with_rescued(20)
                .with_dims(512, 512)
        })
        .collect()
}

/// A batch of uniformly tiny items.
fn all_small_trace(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|_| Observation::new(THREADS, 0.1, 0.01).with_dims(64, 64))
        .collect()
}

/// A batch of uniformly large items.
fn all_large_trace(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|_| Observation::new(THREADS, 4.0, 0.4).with_dims(2000, 2000))
        .collect()
}

fn canned_traces() -> Vec<(&'static str, Vec<Observation>)> {
    vec![
        ("healthy", healthy_trace(5)),
        ("half-speed core", half_speed_trace(5)),
        ("lost core", lost_core_trace(5)),
        ("all-small batch", all_small_trace(5)),
        ("all-large batch", all_large_trace(5)),
    ]
}

/// Replay `trace` through a fresh controller and return every
/// post-observation choice.
fn replay(seed: u64, trace: &[Observation]) -> Vec<SplitChoice> {
    let mut ctl = controller(seed);
    trace
        .iter()
        .map(|obs| {
            ctl.observe(obs);
            ctl.choice()
        })
        .collect()
}

#[test]
fn every_canned_trace_replays_bitwise_deterministically() {
    for (name, trace) in canned_traces() {
        let a = replay(7, &trace);
        let b = replay(7, &trace);
        assert_eq!(a, b, "same seed + same trace must replay bitwise: {name}");
        // a different controller seed shifts the exploration dither —
        // the trajectories must not be bitwise identical
        let c = replay(8, &trace);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.dratio.to_bits() != y.dratio.to_bits()),
            "the dither must depend on the policy seed: {name}"
        );
    }
}

#[test]
fn every_chosen_split_stays_inside_the_validated_bounds() {
    let p = policy(3);
    for (name, trace) in canned_traces() {
        for (i, choice) in replay(3, &trace).into_iter().enumerate() {
            assert!(
                choice.dratio >= p.dratio_min && choice.dratio <= p.dratio_max,
                "{name} step {i}: dratio {} escaped [{}, {}]",
                choice.dratio,
                p.dratio_min,
                p.dratio_max
            );
            assert!(
                choice.batch_small_cutoff >= p.cutoff_min
                    && choice.batch_small_cutoff <= p.cutoff_max,
                "{name} step {i}: cutoff {} escaped [{}, {}]",
                choice.batch_small_cutoff,
                p.cutoff_min,
                p.cutoff_max
            );
            // the exact knobs the controller chose must pass the same
            // validation path every fixed configuration goes through
            p.validate().unwrap();
            calu::core::CaluConfig::new(64)
                .with_threads(4)
                .with_dratio(choice.dratio)
                .validate()
                .unwrap_or_else(|e| panic!("{name} step {i}: chosen split fails validate: {e}"));
        }
    }
}

#[test]
fn more_idle_always_buys_a_larger_dynamic_share() {
    // healthy < half-speed < lost core, strictly, after the same number
    // of observations — the controller's monotonicity contract
    let healthy = replay(5, &healthy_trace(3)).pop().unwrap().dratio;
    let degraded = replay(5, &half_speed_trace(3)).pop().unwrap().dratio;
    let lost = replay(5, &lost_core_trace(3)).pop().unwrap().dratio;
    assert!(
        healthy < degraded && degraded < lost,
        "dynamic share must grow with pressure: healthy {healthy}, \
         half-speed {degraded}, lost {lost}"
    );
    // and the healthy trace drifts *down* from the seed: tolerated idle
    // pulls back toward static locality
    let seed = controller(5).seed_choice().dratio;
    assert!(
        healthy < seed,
        "a healthy machine must relax toward the static split \
         (seed {seed}, settled {healthy})"
    );
}

#[test]
fn the_size_histogram_drives_the_batch_cutoffs() {
    let small = replay(11, &all_small_trace(5)).pop().unwrap();
    let large = replay(11, &all_large_trace(5)).pop().unwrap();
    assert!(
        small.batch_small_cutoff < large.batch_small_cutoff,
        "an all-small mix must choose a tighter cutoff ({} vs {})",
        small.batch_small_cutoff,
        large.batch_small_cutoff
    );
}

/// Every canned trace's replayed `(dratio bits, cutoff)` sequence at
/// seed 7, captured before the per-item group width, the
/// per-run mode and the cache file were deleted: removing them must not
/// move a single dither draw.
#[test]
fn every_canned_trace_replays_its_golden_split_sequence() {
    type Step = (u64, usize);
    let golden: [(&str, [Step; 5]); 5] = [
        (
            "healthy",
            [
                (0x3fc268c396d5d1db, 512),
                (0x3fc19fdbbe9c5f49, 512),
                (0x3fc0de1a2931a7d3, 512),
                (0x3fc0188a45044feb, 512),
                (0x3fbeb404cf40392d, 512),
            ],
        ),
        (
            "half-speed core",
            [
                (0x3fcadb73b79a6d81, 512),
                (0x3fd1429e0012cb4b, 512),
                (0x3fd51b1545bfbd63, 512),
                (0x3fd8f1a5640b5f42, 512),
                (0x3fdccbb985bb936b, 512),
            ],
        ),
        (
            "lost core",
            [
                (0x3fd04f0189e1b1a1, 512),
                (0x3fd7052d5c3bc10d, 512),
                (0x3fddbeec4ffd2e07, 512),
                (0x3fe23b620e2ea564, 512),
                (0x3fe5990ff610fce9, 512),
            ],
        ),
        (
            "all-small batch",
            [
                (0x3fc2379cad5cfcdd, 64),
                (0x3fc13d8debaab54d, 64),
                (0x3fc04aa56cc728d9, 64),
                (0x3fbea7dd3e41f7e6, 64),
                (0x3fbcc87fb087e741, 64),
            ],
        ),
        (
            "all-large batch",
            [
                (0x3fc2379cad5cfcdd, 768),
                (0x3fc13d8debaab54d, 768),
                (0x3fc04aa56cc728d9, 768),
                (0x3fbea7dd3e41f7e6, 768),
                (0x3fbcc87fb087e741, 768),
            ],
        ),
    ];
    for ((name, trace), (golden_name, expected)) in canned_traces().into_iter().zip(golden) {
        assert_eq!(name, golden_name);
        let replayed: Vec<_> = replay(7, &trace)
            .into_iter()
            .map(|c| (c.dratio.to_bits(), c.batch_small_cutoff))
            .collect();
        assert_eq!(replayed, expected, "{name}");
    }
}

// ---------------------------------------------------------------------
// End-to-end: the controller through the facade, on both backends.
// ---------------------------------------------------------------------

#[test]
fn the_first_adaptive_plan_is_the_topology_seed_on_both_backends() {
    // threaded: seeded from the detected host topology
    let threaded = Solver::new(MatrixSource::uniform(96, 7))
        .tile(16)
        .threads(4)
        .adaptive(policy(21));
    let plan = threaded.plan().unwrap();
    let a = plan.adaptation().expect("adaptive plans carry their split");
    assert_eq!(a.chosen, a.seed, "no observations yet: chosen == seed");
    assert_eq!(a.observations, 0);
    let reference = AdaptiveController::new(policy(21), &CpuTopology::detect(), 4);
    assert_eq!(a.seed, reference.seed_choice(), "threaded seed = detect()");

    // simulated: seeded from the modelled machine, not the host
    let machine = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let sim = Solver::new(MatrixSource::shape(1600, 1600))
        .backend(SimulatedBackend::new(machine.clone()))
        .adaptive(policy(21));
    let plan = sim.plan().unwrap();
    let a = plan.adaptation().unwrap();
    let reference = AdaptiveController::new(policy(21), &calu::sim::machine_topology(&machine), 16);
    assert_eq!(a.seed, reference.seed_choice(), "simulated seed = machine");
    assert_eq!(a.chosen, a.seed);
}

#[test]
fn simulated_end_to_end_adaptation_replays_bitwise() {
    let machine = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let trajectory = || {
        let s = Solver::new(MatrixSource::shape(3200, 3200))
            .backend(SimulatedBackend::new(machine.clone()))
            .adaptive(policy(42));
        (0..4)
            .map(|_| {
                let r = s.run().unwrap();
                let a = r.adaptation.expect("adaptive runs report their split");
                assert_eq!(a.steps.len(), a.observations, "trace grows with feedback");
                a.chosen.dratio.to_bits()
            })
            .collect::<Vec<_>>()
    };
    let a = trajectory();
    assert_eq!(a, trajectory(), "same seed, same machine: same trajectory");
    assert!(
        a.windows(2).any(|w| w[0] != w[1]),
        "feedback must actually move the split across runs: {a:?}"
    );
}

#[test]
fn threaded_adaptive_run_reports_its_split_and_keeps_adapting() {
    let s = Solver::new(MatrixSource::uniform(96, 7))
        .tile(16)
        .threads(4)
        .verify(false)
        .adaptive(policy(33));
    let first = s.run().unwrap();
    let a1 = first.adaptation.expect("adaptive runs report their split");
    assert_eq!(a1.observations, 0, "first run plans from the seed");
    assert!(!a1.adapted(), "nothing observed yet");
    let second = s.run().unwrap();
    let a2 = second.adaptation.unwrap();
    assert_eq!(a2.observations, 1, "the first run fed the controller");
    assert_eq!(a2.steps.len(), 1);
    assert_eq!(
        s.adaptive_split().unwrap().dratio,
        s.plan().unwrap().adaptation().unwrap().chosen.dratio,
        "the accessor and the next plan agree"
    );
    // the dratio the report's scheduler advertises is the chosen one
    match second.scheduler {
        calu::sched::SchedulerKind::Hybrid { dratio } => {
            assert_eq!(dratio.to_bits(), a2.chosen.dratio.to_bits())
        }
        other => panic!("adaptive runs execute Hybrid, got {other:?}"),
    }
}

#[test]
fn a_served_slow_worker_converges_the_controller_and_reconfigure_applies_it() {
    // a service under a persistently half-speed worker: completed jobs
    // feed the controller (idle + rescued pressure), so the solver's
    // next plan — and therefore a live reconfigure — runs more
    // dynamically than the seed split. The jobs run co-operatively
    // (cutoff 0): a co-scheduled job is a one-worker run, with no peer
    // to idle behind the slow worker and no static share to rescue
    let solver = Solver::new(MatrixSource::shape(96, 96))
        .tile(16)
        .threads(4)
        .verify(false)
        .batch_small_cutoff(0)
        .adaptive(policy(55))
        .fault_plan(FaultPlan::off().slow_worker(1, 8.0));
    let service = solver.serve().unwrap();
    let seed = solver.adaptive_split().unwrap();
    assert_eq!(
        service.current_split().dratio,
        seed.dratio,
        "generation 0 runs the seed split"
    );
    for i in 0..6 {
        let h = service
            .submit(JobSpec::uniform(96, 96, 100 + i), JobClass::Batch)
            .unwrap();
        h.wait().unwrap();
    }
    let adapted = solver.adaptive_split().unwrap();
    assert!(
        adapted.dratio > seed.dratio,
        "a slow worker's idle + rescues must grow the dynamic share \
         (seed {}, adapted {})",
        seed.dratio,
        adapted.dratio
    );
    // live reconfigure re-plans through the same solver: the new pool
    // generation picks up the adapted split, visibly
    let generation = solver.reconfigure(&service).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(
        service.current_split().dratio,
        solver.adaptive_split().unwrap().dratio,
        "the reconfigured pool runs the controller's current split"
    );
    service.drain();
}

#[test]
fn a_co_scheduled_batch_reports_one_thread_and_keeps_the_split_calm() {
    // eight 96² items on a 2-thread pool, every one co-scheduled: each
    // ran on one worker, so each reports one thread and no idle peer —
    // the feedback must not read a half-idle pool into the controller
    let solver = Solver::new(MatrixSource::shape(96, 96))
        .threads(2)
        .tile(32)
        .verify(false)
        .adaptive(AdaptivePolicy::new(7));
    let sources: Vec<MatrixSource> = (0..8).map(|s| MatrixSource::uniform(96, s)).collect();
    let batch = solver.batch(&sources).unwrap();
    assert_eq!(batch.co_scheduled, 8, "every item is under the cutoff");
    for (i, item) in batch.items.iter().enumerate() {
        assert_eq!(item.threads, 1, "item {i} ran on one worker");
    }
    let dratio = solver.adaptive_split().unwrap().dratio;
    assert!(
        dratio <= 0.5,
        "dratio {dratio} after a sweep of one-worker items"
    );
}
