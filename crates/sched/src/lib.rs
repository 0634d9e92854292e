//! Scheduling policies for the CALU task graph (§3 of the paper).
//!
//! The paper's design space is **one policy with one parameter**:
//! `Nstatic = N·(1 − dratio)` (Algorithm 1). `HybridPolicy` schedules
//! the tasks writing the first `Nstatic` tile columns statically — each
//! on the thread that owns its output tile under the 2D block-cyclic
//! distribution — and feeds the rest to the dynamic section, which a
//! thread only turns to when its own queue is empty (Algorithm 1 + 2).
//! The two classical strategies are its ends, not separate types:
//!
//! * [`SchedulerKind::Static`] is `Nstatic = N`: perfect locality, zero
//!   dequeue overhead, no load balancing — threads with empty queues
//!   idle (until a lost core's backlog is [rescued](Policy::rescue));
//! * [`SchedulerKind::Dynamic`] is `Nstatic = 0`: every task rides the
//!   dynamic section in the left-to-right / top-to-bottom DFS order of
//!   Algorithm 2 — perfect load balance, paid for in dequeue contention
//!   and data migration.
//!
//! `WorkStealingPolicy` — Cilk-style randomized work stealing — is the
//! §8 comparison point and the only other [`Policy`].
//!
//! Policies are *decision procedures*, not executors — and the
//! discrete-event simulator (`calu-sim`) and the real threaded executor
//! (`calu-core`) decide with the same parts: the ownership map
//! ([`OwnerMap`]), the priority orders ([`priority`]) and **one
//! ready-queue set**, [`ReadyQueues`] — a static heap per worker plus
//! the dynamic section under its [`QueueDiscipline`], over real
//! Chase-Lev [`Deque`]s for the lock-free one. It has two drivers. The
//! engine's workers share a `ReadyQueues` value per run and call it
//! concurrently; `HybridPolicy` owns one and calls it one event at a
//! time, in the engine's protocol (publish a completion's successors as
//! one batch, pop own queues, else steal; rescue is the dying worker's
//! drain). What the simulator schedules is therefore what the threads
//! run: the same batch order on the deques, the same victim sweeps, the
//! same §4 grouping loop at the pop. And both account for it in one
//! record: [`schedule`]'s [`ThreadMetrics`] per worker, counted through
//! [`ThreadMetrics::count`] at every pop and gathered into a
//! [`ScheduleMetrics`] per run.
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
//! | [`QueueDiscipline::Sharded`] | per-worker mutex'd priority shards; seeded randomized victim sweep | opt-in | `stolen_pops`, `failed_steals` | the **parity oracle**: simple invariants (each shard keeps DFS priority, steals take the victim's most critical task) for debugging the lock-free path against |
//! | [`QueueDiscipline::LockFree`] | per-worker Chase-Lev deques ([`Deque`], owner-LIFO / thief-FIFO) swept in the locality-tiered order of `StealTiers` (SMT sibling → same socket → remote) | the **threaded backend** whenever a dynamic section exists | `stolen_pops`, `failed_steals`, plus `remote_steal_pops` — the only discipline that classifies steal locality | production throughput, NUMA machines, high thread counts |
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
pub mod schedule;
pub mod topology;

mod hybrid;
mod work_stealing;

pub use adaptive::{AdaptationStep, AdaptiveController, AdaptivePolicy, Observation, SplitChoice};
pub use config::{nstatic_for, SchedulerKind};
pub use deque::{Deque, Steal};
pub use discipline::QueueDiscipline;
pub use lanes::{ClassLanes, JobClass};
pub use owner::OwnerMap;
pub use policy::{Policy, Popped, QueueSource};
pub use ready::{Padded, ReadyQueues};
pub use schedule::{
    ContentionStats, QueueBreakdown, ScheduleMetrics, StealLocality, ThreadMetrics,
};
pub use topology::{CpuTopology, StealTier};

use calu_dag::TaskGraph;
use calu_matrix::ProcessGrid;

use hybrid::HybridPolicy;
use work_stealing::WorkStealingPolicy;

/// Build the policy described by `kind` with an explicit dynamic-section
/// [`QueueDiscipline`], on a flat (single-socket) topology — see
/// [`make_policy_on`].
pub fn make_policy_with(
    kind: SchedulerKind,
    queue: QueueDiscipline,
    g: &TaskGraph,
    grid: ProcessGrid,
) -> Box<dyn Policy> {
    let topo = CpuTopology::flat(grid.size());
    make_policy_on(kind, queue, &topo, g, grid)
}

/// Build the policy described by `kind`. `Static`, `Dynamic` and
/// `Hybrid` are one `HybridPolicy` at `Nstatic = N`, `0` and
/// [`nstatic_for`]`(dratio, N)`. The discipline applies wherever a
/// dynamic section exists; `Static` has none to organize (its rescue
/// reservoir is the paper's global queue) and `WorkStealing` is sharded
/// by construction, so it is a no-op there. The lock-free discipline's
/// tiered victim sweeps (SMT sibling → same socket → remote) are
/// computed from `topo` — the simulator passes its machine model's
/// socket layout; the other disciplines ignore it.
pub fn make_policy_on(
    kind: SchedulerKind,
    queue: QueueDiscipline,
    topo: &CpuTopology,
    g: &TaskGraph,
    grid: ProcessGrid,
) -> Box<dyn Policy> {
    let hybrid = |nstatic, queue| HybridPolicy::new(g, grid, nstatic, queue, topo);
    match (kind, queue) {
        (SchedulerKind::Static, _) => {
            Box::new(hybrid(g.num_panels(), QueueDiscipline::Global).named("static"))
        }
        (SchedulerKind::Dynamic, QueueDiscipline::Global) => {
            Box::new(hybrid(0, queue).named("dynamic"))
        }
        (SchedulerKind::Dynamic, _) => Box::new(hybrid(0, queue)),
        (SchedulerKind::Hybrid { dratio }, _) => {
            Box::new(hybrid(nstatic_for(dratio, g.num_panels()), queue))
        }
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
        assert_eq!(
            make_policy_with(kind, QueueDiscipline::Global, &g, grid).name(),
            "hybrid"
        );
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
