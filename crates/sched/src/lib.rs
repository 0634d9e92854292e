//! Scheduling policies for the CALU task graph (§3 of the paper).
//!
//! Four policies cover the paper's design space plus the related-work
//! baseline:
//!
//! * [`StaticPolicy`] — fully static: every task runs on the thread that
//!   owns its output tile under the 2D block-cyclic distribution; threads
//!   with empty queues idle (perfect locality, zero dequeue overhead, no
//!   load balancing).
//! * [`DynamicPolicy`] — fully dynamic: one shared global queue ordered
//!   left-to-right / top-to-bottom (the DFS order of Algorithm 2); any
//!   free thread takes the head (perfect load balance, pays dequeue
//!   contention and data migration).
//! * [`HybridPolicy`] — the paper's contribution: tasks writing the first
//!   `Nstatic` tile columns are scheduled statically, the rest feed the
//!   global queue, and a thread only turns to the global queue when its
//!   own queue is empty (Algorithm 1 + 2).
//! * [`WorkStealingPolicy`] — Cilk-style randomized work stealing, the
//!   §8 comparison point.
//!
//! Policies are *decision procedures*, not executors: both the
//! discrete-event simulator (`calu-sim`) and the real threaded executor
//! (`calu-core`) consult the same ownership map ([`OwnerMap`]) and
//! priority orders ([`priority`]).
//!
//! ## The `QueueDiscipline` matrix
//!
//! Orthogonal to the policy: the scheduler decides *which* tasks are
//! dynamic (the `dratio` split), the [`QueueDiscipline`] decides *how*
//! the dynamic ones are queued, dequeued and stolen. Three disciplines
//! ship; all three factor **bitwise-identically** (the DAG's
//! exclusive-writer rule totally orders every tile's writes, so queue
//! order changes only *when* tasks run, never what they compute — the
//! facade's backend-parity suite asserts it):
//!
//! | Discipline | Structure | Default for | Steal counters | Pick it when |
//! |---|---|---|---|---|
//! | [`QueueDiscipline::Global`] | one shared mutex'd priority heap in Algorithm 2's DFS order | the **simulator** (paper-verbatim, keeps the reproduced figures faithful) and any plan without a dynamic section | none (never steals) | reproducing the paper's numbers; low thread counts where one lock never contends |
//! | [`QueueDiscipline::Sharded`] | per-worker mutex'd priority shards; seeded randomized victim sweep ([`steal_order`]) | opt-in | `stolen_pops`, `failed_steals` | the **parity oracle**: simple invariants (each shard keeps DFS priority, steals take the victim's most critical task) for debugging the lock-free path against |
//! | [`QueueDiscipline::LockFree`] | per-worker Chase-Lev deques ([`Deque`], owner-LIFO / thief-FIFO) swept in the locality-tiered order of [`StealTiers`] (SMT sibling → same socket → remote) | the **threaded backend** whenever a dynamic section exists | `stolen_pops`, `failed_steals`, plus `remote_steal_pops` — the only discipline that classifies steal locality | production throughput, NUMA machines, high thread counts |
//!
//! Guarantees shared by the stealing disciplines: a steal sweep visits
//! every victim once, so work is found whenever any shard is non-empty;
//! a *wholly empty* sweep counts once into the contention statistics
//! regardless of victim count, so flat and tiered orders read on one
//! scale; and an explicit stealing discipline on a plan without a
//! dynamic section (`dratio = 0`) is a configuration error — there is
//! nothing to shard or steal.

pub mod adaptive;
pub mod config;
pub mod deque;
pub mod discipline;
pub mod lanes;
pub mod owner;
pub mod policy;
pub mod priority;
pub mod ready;
pub mod topology;

mod dynamic_policy;
mod hybrid;
mod static_policy;
mod work_stealing;

pub use adaptive::{
    AdaptationStep, AdaptiveController, AdaptiveMode, AdaptivePolicy, Observation, SplitChoice,
};
pub use config::{nstatic_for, SchedulerKind};
pub use deque::{Deque, Steal};
pub use discipline::{steal_order, QueueDiscipline, DEFAULT_STEAL_SEED};
pub use dynamic_policy::DynamicPolicy;
pub use hybrid::HybridPolicy;
pub use lanes::{ClassLanes, JobClass};
pub use owner::OwnerMap;
pub use policy::{Policy, Popped, QueueSource};
pub use ready::ReadyQueues;
pub use static_policy::StaticPolicy;
pub use topology::{CpuTopology, StealOrder, StealTier, StealTiers};
pub use work_stealing::WorkStealingPolicy;

use calu_dag::TaskGraph;
use calu_matrix::ProcessGrid;

/// Build the policy described by `kind` for graph `g` over `p` cores,
/// with the default [`QueueDiscipline::Global`] dynamic section.
pub fn make_policy(kind: SchedulerKind, g: &TaskGraph, grid: ProcessGrid) -> Box<dyn Policy> {
    make_policy_with(kind, QueueDiscipline::Global, g, grid)
}

/// Build the policy described by `kind` with an explicit dynamic-section
/// [`QueueDiscipline`]. The discipline applies wherever a dynamic
/// section exists: the hybrid policy's reservoir, or the whole queue
/// under fully dynamic scheduling (`Dynamic` + `Sharded` is the hybrid
/// machinery with `Nstatic = 0`). `Static` has no dynamic section and
/// `WorkStealing` is already sharded by construction, so the discipline
/// is a no-op there.
pub fn make_policy_with(
    kind: SchedulerKind,
    queue: QueueDiscipline,
    g: &TaskGraph,
    grid: ProcessGrid,
) -> Box<dyn Policy> {
    make_policy_on(kind, queue, &CpuTopology::flat(grid.size()), g, grid)
}

/// [`make_policy_with`] with an explicit CPU topology: the lock-free
/// discipline's tiered victim sweeps (SMT sibling → same socket →
/// remote) are computed from `topo`, so the simulator can pass its
/// machine model's socket layout and the real executor the detected
/// host topology — both then sweep victims in the same order.
pub fn make_policy_on(
    kind: SchedulerKind,
    queue: QueueDiscipline,
    topo: &CpuTopology,
    g: &TaskGraph,
    grid: ProcessGrid,
) -> Box<dyn Policy> {
    make_policy_ordered(kind, queue, StealOrder::default(), topo, g, grid)
}

/// [`make_policy_on`] with an explicit steal-sweep direction — the
/// adaptive controller's steal-tier knob. Only the lock-free
/// discipline's tiered sweep reads it; every other combination behaves
/// exactly as [`make_policy_on`].
pub fn make_policy_ordered(
    kind: SchedulerKind,
    queue: QueueDiscipline,
    order: StealOrder,
    topo: &CpuTopology,
    g: &TaskGraph,
    grid: ProcessGrid,
) -> Box<dyn Policy> {
    let nstatic = |dratio| nstatic_for(dratio, g.num_panels());
    match (kind, queue) {
        (SchedulerKind::Static, _) => Box::new(StaticPolicy::new(g, grid)),
        (SchedulerKind::Dynamic, QueueDiscipline::Global) => {
            Box::new(DynamicPolicy::new(g, grid.size()))
        }
        (SchedulerKind::Dynamic, q) => Box::new(HybridPolicy::with_nstatic_discipline_ordered(
            g, grid, 0, q, topo, order,
        )),
        (SchedulerKind::Hybrid { dratio }, q) => Box::new(
            HybridPolicy::with_nstatic_discipline_ordered(g, grid, nstatic(dratio), q, topo, order),
        ),
        (SchedulerKind::WorkStealing { seed }, _) => {
            Box::new(WorkStealingPolicy::new(g, grid.size(), seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_dag::TaskGraph;

    /// Drive any policy single-threaded through the whole DAG and return
    /// the execution order; panics if the policy loses tasks.
    pub(crate) fn drain(
        g: &TaskGraph,
        policy: &mut dyn Policy,
        cores: usize,
    ) -> Vec<calu_dag::TaskId> {
        let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
        for t in g.initial_ready() {
            policy.on_ready(t, None);
        }
        let mut order = Vec::with_capacity(g.len());
        let mut done = 0usize;
        while done < g.len() {
            let mut progressed = false;
            for core in 0..cores {
                if let Some(p) = policy.pop(core) {
                    order.push(p.task);
                    done += 1;
                    progressed = true;
                    for &s in g.successors(p.task) {
                        deps[s.idx()] -= 1;
                        if deps[s.idx()] == 0 {
                            policy.on_ready(s, Some(core));
                        }
                    }
                }
            }
            assert!(
                progressed,
                "policy starved with {done}/{} tasks done",
                g.len()
            );
        }
        order
    }

    #[test]
    fn all_policies_execute_every_task_exactly_once() {
        let g = TaskGraph::build(500, 500, 100);
        let grid = ProcessGrid::new(2, 2).unwrap();
        for kind in [
            SchedulerKind::Static,
            SchedulerKind::Dynamic,
            SchedulerKind::Hybrid { dratio: 0.3 },
            SchedulerKind::WorkStealing { seed: 7 },
        ] {
            for queue in [
                QueueDiscipline::Global,
                QueueDiscipline::sharded(),
                QueueDiscipline::lock_free(),
            ] {
                let mut p = make_policy_with(kind, queue, &g, grid);
                let order = drain(&g, p.as_mut(), grid.size());
                assert_eq!(order.len(), g.len(), "{kind:?} / {queue}");
                let mut seen = vec![false; g.len()];
                for t in &order {
                    assert!(!seen[t.idx()], "{kind:?} / {queue} ran {t:?} twice");
                    seen[t.idx()] = true;
                }
            }
        }
    }

    #[test]
    fn discipline_selects_the_sharded_dynamic_section() {
        let g = TaskGraph::build(500, 500, 100);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let kind = SchedulerKind::Hybrid { dratio: 0.5 };
        assert_eq!(make_policy(kind, &g, grid).name(), "hybrid");
        assert_eq!(
            make_policy_with(kind, QueueDiscipline::sharded(), &g, grid).name(),
            "hybrid (sharded)"
        );
        // fully dynamic + sharded is the hybrid machinery with Nstatic = 0
        assert_eq!(
            make_policy_with(SchedulerKind::Dynamic, QueueDiscipline::sharded(), &g, grid).name(),
            "hybrid (sharded)"
        );
        assert_eq!(
            make_policy_with(kind, QueueDiscipline::lock_free(), &g, grid).name(),
            "hybrid (lockfree)"
        );
        assert_eq!(
            make_policy_on(
                SchedulerKind::Dynamic,
                QueueDiscipline::lock_free(),
                &CpuTopology::uniform(2, 2),
                &g,
                grid
            )
            .name(),
            "hybrid (lockfree)"
        );
        // no dynamic section / already-sharded policies are unaffected
        assert_eq!(
            make_policy_with(SchedulerKind::Static, QueueDiscipline::sharded(), &g, grid).name(),
            "static"
        );
        assert_eq!(
            make_policy_with(
                SchedulerKind::WorkStealing { seed: 1 },
                QueueDiscipline::sharded(),
                &g,
                grid
            )
            .name(),
            "work-stealing"
        );
    }
}
