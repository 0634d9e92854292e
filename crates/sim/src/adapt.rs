//! Simulated adaptive sweeps: the facade's feedback loop replayed
//! entirely in simulated time.
//!
//! The adaptive controller ([`calu_sched::adaptive`]) is backend-
//! agnostic — it consumes [`Observation`]s and recommends splits. This
//! module closes the same loop the real executor closes, but against
//! the discrete-event machine model: run a factorization under the
//! controller's current split, distill the [`SimResult`] into an
//! observation with the *same formulas* the facade uses on real thread
//! stats, feed it back, repeat. Because both the simulator and the
//! controller are deterministic, a whole convergence trajectory (does a
//! lost core push `dratio` up? where does it settle?) costs
//! milliseconds instead of a real-machine campaign — and the test
//! harness can assert the simulated controller and the threaded one
//! choose identical splits from identical traces.

use calu_dag::TaskGraph;
use calu_matrix::Layout;
use calu_sched::adaptive::{AdaptiveController, AdaptivePolicy, Observation, SplitChoice};
use calu_sched::{CpuTopology, QueueDiscipline, SchedulerKind};

use crate::engine::{run, SimConfig};
use crate::machine::MachineConfig;
use crate::result::SimResult;

/// Distill a simulated run into the controller's input, with the same
/// formulas the facade applies to real thread stats: idle = makespan −
/// busy per core, remote fraction = remote steals / total steals. The
/// simulator steals through the engine's queues, but one event at a
/// time: a sweep starts only while a dynamic task is queued and nothing
/// moves under it, so it never comes back empty and the contention
/// reading stays 0 — matching the facade's `failed_steals: 0` for
/// simulated reports.
pub fn observe_result(r: &SimResult, dims: (usize, usize)) -> Observation {
    let threads = r.cores.len().max(1);
    let total_idle: f64 = r
        .cores
        .iter()
        .map(|c| (r.makespan - (c.work + c.overhead + c.memory + c.noise)).max(0.0))
        .sum();
    let steals: u64 = r.cores.iter().map(|c| c.stolen_pops).sum();
    let remote: u64 = r.cores.iter().map(|c| c.remote_stolen_pops).sum();
    let remote_fraction = if steals == 0 {
        0.0
    } else {
        remote as f64 / steals as f64
    };
    Observation::new(threads, r.makespan, total_idle)
        .with_remote_fraction(remote_fraction)
        .with_lost(r.cores.iter().filter(|c| c.lost).count())
        .with_rescued(r.cores.iter().map(|c| c.rescued).sum())
        .with_dims(dims.0, dims.1)
}

/// The [`CpuTopology`] of a machine model — socket-major uniform, the
/// layout [`SimConfig`]'s policies already sweep by.
pub fn machine_topology(machine: &MachineConfig) -> CpuTopology {
    CpuTopology::uniform(machine.sockets, machine.cores_per_socket)
}

/// Run `runs` consecutive simulated factorizations of an `m×n` matrix
/// (tile size `b`, layout/queue as given) on `machine`, each under the
/// split the controller currently recommends, feeding every result
/// back. Returns each run's [`SplitChoice`] in order — the last entry
/// is the converged split. Deterministic: same inputs, same trajectory.
#[allow(clippy::too_many_arguments)]
pub fn simulate_adaptation(
    machine: &MachineConfig,
    layout: Layout,
    dims: (usize, usize),
    b: usize,
    queue: QueueDiscipline,
    policy: AdaptivePolicy,
    runs: usize,
) -> Vec<SplitChoice> {
    let topo = machine_topology(machine);
    let mut controller = AdaptiveController::new(policy, &topo, machine.cores());
    let g = TaskGraph::build(dims.0, dims.1, b);
    let mut choices = Vec::with_capacity(runs);
    for _ in 0..runs {
        let choice = controller.plan_choice();
        choices.push(choice);
        let cfg = SimConfig::new(
            machine.clone(),
            layout,
            SchedulerKind::Hybrid {
                dratio: choice.dratio,
            },
        )
        .with_queue(queue)
        .with_steal_order(choice.steal_order);
        let r = run(&g, &cfg);
        controller.observe(&observe_result(&r, dims));
    }
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::NoiseConfig;

    #[test]
    fn simulated_adaptation_is_deterministic() {
        let machine = MachineConfig::intel_xeon_16(NoiseConfig::off());
        let sweep = || {
            simulate_adaptation(
                &machine,
                Layout::BlockCyclic,
                (1600, 1600),
                100,
                QueueDiscipline::Global,
                AdaptivePolicy::new(42),
                4,
            )
        };
        let a = sweep();
        assert_eq!(a, sweep());
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn a_lost_core_drives_the_split_dynamic() {
        let healthy = MachineConfig::intel_xeon_16(NoiseConfig::off());
        let mut degraded = healthy.clone();
        degraded.lost_core = Some((0, 0)); // core 0 dies before its first task
        let run_on = |m: &MachineConfig| {
            simulate_adaptation(
                m,
                Layout::BlockCyclic,
                (4800, 4800),
                100,
                QueueDiscipline::Global,
                AdaptivePolicy::new(7),
                6,
            )
        };
        let h = run_on(&healthy);
        let d = run_on(&degraded);
        assert!(
            d.last().unwrap().dratio > h.last().unwrap().dratio,
            "losing a core must converge to a larger dynamic share \
             (healthy {}, degraded {})",
            h.last().unwrap().dratio,
            d.last().unwrap().dratio
        );
    }
}
