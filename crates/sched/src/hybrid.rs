//! The paper's hybrid static/dynamic policy (Algorithms 1 and 2).
//!
//! Tasks writing tile columns `< Nstatic` are distributed statically to
//! their block-cyclic owners; the rest form the dynamic section in DFS
//! column order. A core always prefers its own static queue ("each
//! thread executes in priority tasks from the static part, to ensure
//! progress in the critical path"); only when that is empty does it turn
//! to the dynamic section — so the dynamic section is exactly the
//! load-balancing reservoir that fills the static section's idle pockets.
//!
//! The dynamic section itself is organized by a [`QueueDiscipline`]:
//!
//! * [`QueueDiscipline::Global`] — one shared queue, the paper's
//!   Algorithm 2 verbatim;
//! * [`QueueDiscipline::Sharded`] — per-core priority shards with
//!   randomized stealing; each shard keeps the DFS order, so even a
//!   steal takes the victim's most critical task.
//! * [`QueueDiscipline::LockFree`] — per-core Chase-Lev-style deques
//!   (owner LIFO, thieves FIFO) with the locality-tiered victim sweep
//!   of [`StealTiers`]; this is the decision-procedure model of the
//!   real executor's lock-free deques, priced by the simulator with
//!   locality-dependent steal costs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use calu_dag::{TaskGraph, TaskId, TaskKind};
use calu_matrix::ProcessGrid;
use calu_rand::Rng;

use crate::discipline::{steal_order, QueueDiscipline};
use crate::owner::OwnerMap;
use crate::policy::{Policy, Popped, QueueSource};
use crate::priority::{dynamic_key, static_key};
use crate::topology::{CpuTopology, StealOrder, StealTier, StealTiers};

type Heap = BinaryHeap<Reverse<(u64, u32)>>;

/// The dynamic section's queue organization (see module docs).
enum DynSection {
    /// One shared DFS-ordered queue.
    Global(Heap),
    /// Per-core DFS-ordered shards; `rr` scatters initially ready tasks,
    /// `rng` drives victim selection for steals.
    Sharded {
        shards: Vec<Heap>,
        rng: Rng,
        rr: usize,
        seed: u64,
    },
    /// Per-core deques modelling the executor's Chase-Lev deques: the
    /// owner pops the back, thieves take the front in the
    /// locality-tiered sweep order. A push sinks toward the front past
    /// any more critical (smaller-key) back entries, so each deque
    /// stays priority-sorted with its most critical entry at the
    /// owner's end and its least critical at the thieves' end — the
    /// decision-procedure idealization of the executor's rule (the real
    /// deque sorts only within one completion's successor batch and is
    /// LIFO across batches).
    LockFree {
        deques: Vec<VecDeque<(u64, u32)>>,
        tiers: Vec<StealTiers>,
        order: StealOrder,
        rng: Rng,
        rr: usize,
        seed: u64,
    },
}

/// See module docs.
pub struct HybridPolicy {
    owners: OwnerMap,
    kinds: Vec<TaskKind>,
    static_keys: Vec<u64>,
    dynamic_keys: Vec<u64>,
    is_static: Vec<bool>,
    local: Vec<Heap>,
    dynamic: DynSection,
    nstatic: usize,
    queued: usize,
    /// Cores whose static queues were rescued ([`Policy::rescue`]):
    /// their future static publishes reroute to the dynamic section.
    lost: Vec<bool>,
    name: &'static str,
}

impl HybridPolicy {
    /// Build for graph `g` over `grid` with the first `nstatic` tile
    /// columns scheduled statically — the one constructor: `nstatic =
    /// g.num_panels()` is fully static scheduling, `nstatic = 0` fully
    /// dynamic (see [`crate::make_policy_ordered`]). `topo` and `order`
    /// shape the lock-free discipline's tiered victim sweeps; the other
    /// disciplines ignore them.
    pub fn new(
        g: &TaskGraph,
        grid: ProcessGrid,
        nstatic: usize,
        queue: QueueDiscipline,
        topo: &CpuTopology,
        order: StealOrder,
    ) -> Self {
        let owners = OwnerMap::new(g, grid);
        let kinds: Vec<TaskKind> = g.ids().map(|t| g.kind(t)).collect();
        let is_static = kinds.iter().map(|k| k.writes_col() < nstatic).collect();
        let cores = grid.size();
        let dynamic = match queue {
            QueueDiscipline::Global => DynSection::Global(BinaryHeap::new()),
            QueueDiscipline::Sharded { seed } => DynSection::Sharded {
                shards: (0..cores).map(|_| BinaryHeap::new()).collect(),
                rng: Rng::seed_from_u64(seed),
                rr: 0,
                seed,
            },
            QueueDiscipline::LockFree { seed } => DynSection::LockFree {
                deques: (0..cores).map(|_| VecDeque::new()).collect(),
                tiers: (0..cores)
                    .map(|me| StealTiers::for_worker(topo, me, cores))
                    .collect(),
                order,
                rng: Rng::seed_from_u64(seed),
                rr: 0,
                seed,
            },
        };
        Self {
            static_keys: kinds.iter().map(static_key).collect(),
            dynamic_keys: kinds.iter().map(dynamic_key).collect(),
            local: (0..grid.size()).map(|_| BinaryHeap::new()).collect(),
            dynamic,
            owners,
            kinds,
            is_static,
            nstatic,
            queued: 0,
            lost: vec![false; cores],
            name: match queue {
                QueueDiscipline::Global => "hybrid",
                QueueDiscipline::Sharded { .. } => "hybrid (sharded)",
                QueueDiscipline::LockFree { .. } => "hybrid (lockfree)",
            },
        }
    }

    /// Report under `name` — the [`SchedulerKind`](crate::SchedulerKind)
    /// the policy was built for, when that is one of the split's ends.
    pub(crate) fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The number of statically scheduled panels.
    pub fn nstatic(&self) -> usize {
        self.nstatic
    }

    /// The dynamic-section queue discipline this policy runs.
    pub fn discipline(&self) -> QueueDiscipline {
        match &self.dynamic {
            DynSection::Global(_) => QueueDiscipline::Global,
            DynSection::Sharded { seed, .. } => QueueDiscipline::Sharded { seed: *seed },
            DynSection::LockFree { seed, .. } => QueueDiscipline::LockFree { seed: *seed },
        }
    }

    /// Publish a task into the dynamic section under `key` (the shared
    /// path of `on_ready`'s dynamic arm and `rescue`'s republishing).
    fn push_dynamic(&mut self, key: u64, t: TaskId, completer: Option<usize>) {
        match &mut self.dynamic {
            DynSection::Global(q) => q.push(Reverse((key, t.0))),
            DynSection::Sharded { shards, rr, .. } => {
                // push to the enabling core's shard (locality);
                // scatter initially ready tasks round-robin
                let home = completer.unwrap_or_else(|| {
                    let c = *rr;
                    *rr = (*rr + 1) % shards.len();
                    c
                });
                shards[home].push(Reverse((key, t.0)));
            }
            DynSection::LockFree { deques, rr, .. } => {
                let home = completer.unwrap_or_else(|| {
                    let c = *rr;
                    *rr = (*rr + 1) % deques.len();
                    c
                });
                // sink toward the front past more critical
                // (smaller-key) back entries so the owner's end
                // stays the most critical (DynSection::LockFree docs)
                let dq = &mut deques[home];
                let mut at = dq.len();
                while at > 0 && dq[at - 1].0 < key {
                    at -= 1;
                }
                dq.insert(at, (key, t.0));
            }
        }
    }

    fn pop_local(&mut self, core: usize) -> Option<TaskId> {
        self.local[core].pop().map(|Reverse((_, t))| {
            self.queued -= 1;
            TaskId(t)
        })
    }

    /// Serve the dynamic section: the global queue, or (sharded) the
    /// core's own shard first and a seeded-random victim sweep after.
    fn pop_dynamic(&mut self, core: usize) -> Option<Popped> {
        let popped = match &mut self.dynamic {
            DynSection::Global(q) => q.pop().map(|Reverse((_, t))| Popped {
                task: TaskId(t),
                source: QueueSource::Global,
            }),
            DynSection::Sharded { shards, rng, .. } => {
                if let Some(Reverse((_, t))) = shards[core].pop() {
                    Some(Popped {
                        task: TaskId(t),
                        source: QueueSource::Shard,
                    })
                } else if shards.len() > 1 {
                    let mut found = None;
                    for victim in steal_order(rng, core, shards.len()) {
                        if let Some(Reverse((_, t))) = shards[victim].pop() {
                            found = Some(Popped {
                                task: TaskId(t),
                                source: QueueSource::Stolen,
                            });
                            break;
                        }
                    }
                    found
                } else {
                    None
                }
            }
            DynSection::LockFree {
                deques,
                tiers,
                order,
                rng,
                ..
            } => {
                if let Some((_, t)) = deques[core].pop_back() {
                    Some(Popped {
                        task: TaskId(t),
                        source: QueueSource::Shard,
                    })
                } else {
                    let mut found = None;
                    for (victim, tier) in tiers[core].sweep_ordered(*order, rng) {
                        if let Some((_, t)) = deques[victim].pop_front() {
                            found = Some(Popped {
                                task: TaskId(t),
                                source: match tier {
                                    StealTier::Remote => QueueSource::StolenRemote,
                                    _ => QueueSource::Stolen,
                                },
                            });
                            break;
                        }
                    }
                    found
                }
            }
        };
        if popped.is_some() {
            self.queued -= 1;
        }
        popped
    }
}

impl Policy for HybridPolicy {
    fn on_ready(&mut self, t: TaskId, completer: Option<usize>) {
        self.queued += 1;
        if self.is_static[t.idx()] {
            let owner = self.owners.owner(t);
            if !self.lost[owner] {
                self.local[owner].push(Reverse((self.static_keys[t.idx()], t.0)));
                return;
            }
            // the owner was rescued: its static share rides the dynamic
            // section under the DFS order, like every dynamic task
        }
        self.push_dynamic(self.dynamic_keys[t.idx()], t, completer);
    }

    fn rescue(&mut self, core: usize) -> usize {
        self.lost[core] = true;
        let drained: Vec<TaskId> = std::mem::take(&mut self.local[core])
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse((_, t))| TaskId(t))
            .collect();
        for &t in &drained {
            self.push_dynamic(self.dynamic_keys[t.idx()], t, None);
        }
        drained.len()
    }

    fn pop(&mut self, core: usize) -> Option<Popped> {
        if let Some(task) = self.pop_local(core) {
            return Some(Popped {
                task,
                source: QueueSource::Local,
            });
        }
        self.pop_dynamic(core)
    }

    fn pop_batch(&mut self, core: usize, max: usize) -> Vec<Popped> {
        let Some(first) = self.pop(core) else {
            return vec![];
        };
        let mut batch = vec![first];
        // a thief takes exactly one task — the rest of the victim's
        // shard keeps its locality
        if first.source.is_stolen() {
            return batch;
        }
        // group the head run of updates of one (k, j) column step, like
        // the paper's grouped BLAS-3 calls — always from the same queue
        // the first task came from
        let TaskKind::Update { k, j, .. } = self.kinds[first.task.idx()] else {
            return batch;
        };
        let same_step = |kinds: &[TaskKind], t: u32| {
            matches!(kinds[t as usize],
                TaskKind::Update { k: hk, j: hj, .. } if hk == k && hj == j)
        };
        while batch.len() < max {
            let kinds = &self.kinds;
            // the lock-free deque continues from the owner's (back) end;
            // every heap-backed queue continues from its head
            if let (QueueSource::Shard, DynSection::LockFree { deques, .. }) =
                (first.source, &mut self.dynamic)
            {
                let same = deques[core]
                    .back()
                    .is_some_and(|&(_, t)| same_step(kinds, t));
                if !same {
                    break;
                }
                let (_, t) = deques[core].pop_back().expect("peeked");
                self.queued -= 1;
                batch.push(Popped {
                    task: TaskId(t),
                    source: first.source,
                });
                continue;
            }
            let heap = match first.source {
                QueueSource::Local => &mut self.local[core],
                _ => match &mut self.dynamic {
                    DynSection::Global(q) => q,
                    DynSection::Sharded { shards, .. } => &mut shards[core],
                    DynSection::LockFree { .. } => unreachable!("handled above"),
                },
            };
            let same = heap
                .peek()
                .map(|Reverse((_, t))| same_step(kinds, *t))
                .unwrap_or(false);
            if !same {
                break;
            }
            let Reverse((_, t)) = heap.pop().expect("peeked");
            self.queued -= 1;
            batch.push(Popped {
                task: TaskId(t),
                source: first.source,
            });
        }
        batch
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn queued(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{nstatic_for, SchedulerKind};
    use crate::make_policy_ordered;

    fn graph() -> TaskGraph {
        TaskGraph::build(800, 800, 100) // 8x8 tiles
    }

    /// A `dratio` split under `queue` on a flat topology.
    fn with_discipline(
        g: &TaskGraph,
        grid: ProcessGrid,
        dratio: f64,
        queue: QueueDiscipline,
    ) -> HybridPolicy {
        HybridPolicy::new(
            g,
            grid,
            nstatic_for(dratio, g.num_panels()),
            queue,
            &CpuTopology::flat(grid.size()),
            StealOrder::default(),
        )
    }

    /// The paper's policy: one shared global dynamic queue.
    fn hybrid(g: &TaskGraph, grid: ProcessGrid, dratio: f64) -> HybridPolicy {
        with_discipline(g, grid, dratio, QueueDiscipline::Global)
    }

    #[test]
    fn split_follows_writes_col() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let p = hybrid(&g, grid, 0.25); // nstatic = 6
        assert_eq!(p.nstatic(), 6);
        for t in g.ids() {
            assert_eq!(p.is_static[t.idx()], g.kind(t).writes_col() < 6);
        }
    }

    #[test]
    fn local_preferred_over_global() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = hybrid(&g, grid, 0.5); // nstatic = 4
        let owners = OwnerMap::new(&g, grid);
        // a static task owned by core 0 and any dynamic task
        let stat = g
            .ids()
            .find(|&t| g.kind(t).writes_col() < 4 && owners.owner(t) == 0)
            .unwrap();
        let dynam = g.ids().find(|&t| g.kind(t).writes_col() >= 4).unwrap();
        p.on_ready(dynam, None);
        p.on_ready(stat, None);
        let first = p.pop(0).unwrap();
        assert_eq!(first.task, stat);
        assert_eq!(first.source, QueueSource::Local);
        let second = p.pop(0).unwrap();
        assert_eq!(second.task, dynam);
        assert_eq!(second.source, QueueSource::Global);
    }

    #[test]
    fn idle_threads_fall_through_to_dynamic_queue() {
        // core 3 owns none of the queued static tasks: it must get dynamic work
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = hybrid(&g, grid, 0.5);
        let owners = OwnerMap::new(&g, grid);
        let stat = g
            .ids()
            .find(|&t| g.kind(t).writes_col() < 4 && owners.owner(t) == 0)
            .unwrap();
        let dynam = g.ids().find(|&t| g.kind(t).writes_col() >= 4).unwrap();
        p.on_ready(stat, None);
        p.on_ready(dynam, None);
        let popped = p.pop(3).unwrap();
        assert_eq!(popped.task, dynam, "non-owner must take dynamic work");
        assert_eq!(popped.source, QueueSource::Global);
    }

    #[test]
    fn dratio_zero_is_all_static_dratio_one_all_dynamic() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let all_static = hybrid(&g, grid, 0.0);
        assert!(all_static.is_static.iter().all(|&s| s));
        let all_dynamic = hybrid(&g, grid, 1.0);
        assert!(all_dynamic.is_static.iter().all(|&s| !s));
    }

    #[test]
    fn drains_completely() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = hybrid(&g, grid, 0.2);
        let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        let mut done = 0;
        while done < g.len() {
            let mut progressed = false;
            for core in 0..4 {
                if let Some(popped) = p.pop(core) {
                    progressed = true;
                    done += 1;
                    for &s in g.successors(popped.task) {
                        deps[s.idx()] -= 1;
                        if deps[s.idx()] == 0 {
                            p.on_ready(s, Some(core));
                        }
                    }
                }
            }
            assert!(progressed);
        }
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn global_batch_groups_same_column_step_only() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = hybrid(&g, grid, 0.5);
        // two dynamic S tasks in column 5 and one in column 6, all panel 0
        let pick = |i: u32, j: u32| {
            g.ids()
                .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i, j })
                .unwrap()
        };
        for t in [pick(1, 5), pick(2, 5), pick(1, 6)] {
            assert!(!p.is_static[t.idx()]);
            p.on_ready(t, None);
        }
        let batch = p.pop_batch(0, 4);
        assert_eq!(batch.len(), 2, "column-5 updates group, column 6 does not");
        assert!(batch
            .iter()
            .all(|pp| matches!(g.kind(pp.task), TaskKind::Update { j: 5, .. })));
        let rest = p.pop_batch(0, 4);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn batch_never_mixes_local_and_global() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = hybrid(&g, grid, 0.5);
        let owners = OwnerMap::new(&g, grid);
        // one static update owned by core 0 and one dynamic update
        let stat = g
            .ids()
            .find(|&t| {
                matches!(g.kind(t), TaskKind::Update { .. })
                    && p.is_static[t.idx()]
                    && owners.owner(t) == 0
            })
            .unwrap();
        let dynam = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { .. }) && !p.is_static[t.idx()])
            .unwrap();
        p.on_ready(stat, None);
        p.on_ready(dynam, None);
        let batch = p.pop_batch(0, 4);
        assert_eq!(batch.len(), 1, "local batch must not absorb global tasks");
        assert_eq!(batch[0].source, QueueSource::Local);
    }

    #[test]
    fn rescue_moves_a_lost_cores_static_queue_into_the_dynamic_section() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = hybrid(&g, grid, 0.5); // nstatic = 4
        let owners = OwnerMap::new(&g, grid);
        let mine: Vec<TaskId> = g
            .ids()
            .filter(|&t| g.kind(t).writes_col() < 4 && owners.owner(t) == 0)
            .take(3)
            .collect();
        assert_eq!(mine.len(), 3);
        for &t in &mine {
            p.on_ready(t, None);
        }
        assert_eq!(p.rescue(0), 3, "every queued static task moves");
        assert_eq!(p.queued(), 3, "rescue relocates, it does not drop");
        // another core can now serve them from the dynamic section
        for _ in 0..3 {
            let popped = p.pop(3).unwrap();
            assert!(mine.contains(&popped.task));
            assert_eq!(popped.source, QueueSource::Global);
        }
        // future static publishes for the lost owner reroute too
        let later = g
            .ids()
            .find(|&t| g.kind(t).writes_col() < 4 && owners.owner(t) == 0 && !mine.contains(&t))
            .unwrap();
        p.on_ready(later, None);
        let popped = p.pop(1).unwrap();
        assert_eq!(popped.task, later);
        assert_eq!(popped.source, QueueSource::Global, "rerouted, not local");
    }

    #[test]
    fn rescue_is_a_noop_on_an_empty_queue_and_default_policies() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = hybrid(&g, grid, 0.5);
        assert_eq!(p.rescue(2), 0);
        // the trait default rescues nothing
        struct Nothing;
        impl Policy for Nothing {
            fn on_ready(&mut self, _t: TaskId, _c: Option<usize>) {}
            fn pop(&mut self, _core: usize) -> Option<Popped> {
                None
            }
            fn name(&self) -> &'static str {
                "nothing"
            }
            fn queued(&self) -> usize {
                0
            }
        }
        assert_eq!(Nothing.rescue(0), 0);
    }

    // ----- sharded discipline -----------------------------------------

    fn sharded(g: &TaskGraph, grid: ProcessGrid, dratio: f64) -> HybridPolicy {
        with_discipline(g, grid, dratio, QueueDiscipline::Sharded { seed: 42 })
    }

    #[test]
    fn sharded_pushes_to_the_enabling_core() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = sharded(&g, grid, 1.0); // everything dynamic
        let t = g.initial_ready()[0];
        p.on_ready(t, Some(2));
        // core 2 gets it from its own shard, tagged as a dynamic pop
        let popped = p.pop(2).unwrap();
        assert_eq!(popped.task, t);
        assert_eq!(popped.source, QueueSource::Shard, "own shard, no steal");
    }

    #[test]
    fn empty_shards_steal_and_tag() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = sharded(&g, grid, 1.0);
        let t = g.initial_ready()[0];
        p.on_ready(t, Some(0));
        let stolen = p.pop(3).unwrap();
        assert_eq!(stolen.task, t);
        assert_eq!(stolen.source, QueueSource::Stolen);
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn steals_take_the_victims_most_critical_task() {
        // unlike Cilk FIFO deques, the shard is a priority heap: a thief
        // gets the victim's *best* (DFS-first) task
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = sharded(&g, grid, 1.0);
        let late = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, i: 1, j: 7 }))
            .unwrap();
        let early = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, i: 1, j: 1 }))
            .unwrap();
        p.on_ready(late, Some(0));
        p.on_ready(early, Some(0));
        let stolen = p.pop(1).unwrap();
        assert_eq!(stolen.task, early, "steal follows the DFS column order");
    }

    #[test]
    fn sharded_drains_completely_and_deterministically() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let run = |seed: u64| {
            let mut p = with_discipline(&g, grid, 0.3, QueueDiscipline::Sharded { seed });
            let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
            for t in g.initial_ready() {
                p.on_ready(t, None);
            }
            let mut order = Vec::new();
            let mut done = 0;
            while done < g.len() {
                let mut progressed = false;
                for core in 0..4 {
                    if let Some(popped) = p.pop(core) {
                        progressed = true;
                        done += 1;
                        order.push(popped.task);
                        for &s in g.successors(popped.task) {
                            deps[s.idx()] -= 1;
                            if deps[s.idx()] == 0 {
                                p.on_ready(s, Some(core));
                            }
                        }
                    }
                }
                assert!(progressed, "sharded hybrid starved");
            }
            assert_eq!(p.queued(), 0);
            order
        };
        assert_eq!(run(7), run(7), "fixed seed, fixed schedule");
    }

    #[test]
    fn stolen_tasks_never_batch() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = sharded(&g, grid, 1.0);
        let pick = |i: u32| {
            g.ids()
                .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i, j: 5 })
                .unwrap()
        };
        // two batchable updates on core 0's shard
        p.on_ready(pick(1), Some(0));
        p.on_ready(pick(2), Some(0));
        let batch = p.pop_batch(3, 4);
        assert_eq!(batch.len(), 1, "a thief takes exactly one task");
        assert_eq!(batch[0].source, QueueSource::Stolen);
        // the owner still batches its own shard
        let own = p.pop_batch(0, 4);
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].source, QueueSource::Shard);
    }

    #[test]
    fn names_distinguish_disciplines() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        assert_eq!(hybrid(&g, grid, 0.1).name(), "hybrid");
        assert_eq!(sharded(&g, grid, 0.1).name(), "hybrid (sharded)");
        assert!(sharded(&g, grid, 0.1).discipline().is_sharded());
        assert_eq!(lockfree(&g, grid, 0.1).name(), "hybrid (lockfree)");
        assert!(lockfree(&g, grid, 0.1).discipline().is_lock_free());
    }

    // ----- lock-free discipline ---------------------------------------

    fn lockfree(g: &TaskGraph, grid: ProcessGrid, dratio: f64) -> HybridPolicy {
        with_discipline(g, grid, dratio, QueueDiscipline::LockFree { seed: 42 })
    }

    #[test]
    fn lockfree_owner_pops_its_own_deque_in_priority_order() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = lockfree(&g, grid, 1.0);
        let late = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, i: 1, j: 7 }))
            .unwrap();
        let early = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, i: 1, j: 1 }))
            .unwrap();
        // pushed least critical first: the sink keeps the owner's end
        // most critical either way
        p.on_ready(late, Some(2));
        p.on_ready(early, Some(2));
        let first = p.pop(2).unwrap();
        assert_eq!(first.task, early, "own pop serves the DFS order");
        assert_eq!(first.source, QueueSource::Shard);
        assert_eq!(p.pop(2).unwrap().task, late);
    }

    #[test]
    fn lockfree_steals_take_the_cold_end_and_tag_locality() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        // 2 sockets × 2 cores: cores {0,1} on socket 0, {2,3} on socket 1
        let topo = CpuTopology::uniform(2, 2);
        let nstatic = 0;
        let mut p = HybridPolicy::new(
            &g,
            grid,
            nstatic,
            QueueDiscipline::LockFree { seed: 7 },
            &topo,
            StealOrder::default(),
        );
        let late = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, i: 1, j: 7 }))
            .unwrap();
        let early = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, i: 1, j: 1 }))
            .unwrap();
        p.on_ready(early, Some(0));
        p.on_ready(late, Some(0));
        // same-socket thief: core 1 steals core 0's cold (least
        // critical) end, tagged as a near steal
        let near = p.pop(1).unwrap();
        assert_eq!(near.task, late, "steal takes the cold end");
        assert_eq!(near.source, QueueSource::Stolen);
        // remote thief: core 3 sits on the other socket
        let far = p.pop(3).unwrap();
        assert_eq!(far.task, early);
        assert_eq!(far.source, QueueSource::StolenRemote);
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn lockfree_drains_completely_and_deterministically() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let run = |seed: u64| {
            let mut p = with_discipline(&g, grid, 0.3, QueueDiscipline::LockFree { seed });
            let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
            for t in g.initial_ready() {
                p.on_ready(t, None);
            }
            let mut order = Vec::new();
            let mut done = 0;
            while done < g.len() {
                let mut progressed = false;
                for core in 0..4 {
                    if let Some(popped) = p.pop(core) {
                        progressed = true;
                        done += 1;
                        order.push(popped.task);
                        for &s in g.successors(popped.task) {
                            deps[s.idx()] -= 1;
                            if deps[s.idx()] == 0 {
                                p.on_ready(s, Some(core));
                            }
                        }
                    }
                }
                assert!(progressed, "lock-free hybrid starved");
            }
            assert_eq!(p.queued(), 0);
            order
        };
        assert_eq!(run(7), run(7), "fixed seed, fixed schedule");
    }

    #[test]
    fn lockfree_stolen_tasks_never_batch() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = lockfree(&g, grid, 1.0);
        let pick = |i: u32| {
            g.ids()
                .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i, j: 5 })
                .unwrap()
        };
        p.on_ready(pick(1), Some(0));
        p.on_ready(pick(2), Some(0));
        let batch = p.pop_batch(3, 4);
        assert_eq!(batch.len(), 1, "a thief takes exactly one task");
        assert!(batch[0].source.is_stolen());
        // the owner still batches the same-column run from its own end
        let own = p.pop_batch(0, 4);
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].source, QueueSource::Shard);
    }

    #[test]
    fn lockfree_owner_batches_same_column_updates() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = lockfree(&g, grid, 1.0);
        let pick = |i: u32, j: u32| {
            g.ids()
                .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i, j })
                .unwrap()
        };
        for t in [pick(1, 5), pick(2, 5), pick(1, 6)] {
            p.on_ready(t, Some(0));
        }
        let batch = p.pop_batch(0, 4);
        assert_eq!(batch.len(), 2, "column-5 updates group, column 6 does not");
        assert!(batch
            .iter()
            .all(|pp| matches!(g.kind(pp.task), TaskKind::Update { j: 5, .. })));
        assert_eq!(p.pop_batch(0, 4).len(), 1);
    }

    // ----- the split's two ends ---------------------------------------
    // (the cases of the former `static_policy.rs` / `dynamic_policy.rs`,
    // built the way the simulator builds them)

    fn end(kind: SchedulerKind, g: &TaskGraph, grid: ProcessGrid) -> Box<dyn Policy> {
        make_policy_ordered(
            kind,
            QueueDiscipline::Global,
            StealOrder::default(),
            &CpuTopology::flat(grid.size()),
            g,
            grid,
        )
    }

    fn setup() -> (TaskGraph, Box<dyn Policy>, ProcessGrid) {
        let g = TaskGraph::build(400, 400, 100);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let p = end(SchedulerKind::Static, &g, grid);
        (g, p, grid)
    }

    fn dynamic(g: &TaskGraph, cores: usize) -> Box<dyn Policy> {
        end(
            SchedulerKind::Dynamic,
            g,
            ProcessGrid::new(1, cores).unwrap(),
        )
    }

    #[test]
    fn tasks_only_run_on_their_owner() {
        let (g, mut p, grid) = setup();
        let owners = OwnerMap::new(&g, grid);
        let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        let mut done = 0;
        while done < g.len() {
            let mut progressed = false;
            for core in 0..grid.size() {
                while let Some(popped) = p.pop(core) {
                    assert_eq!(owners.owner(popped.task), core);
                    assert_eq!(popped.source, QueueSource::Local);
                    progressed = true;
                    done += 1;
                    for &s in g.successors(popped.task) {
                        deps[s.idx()] -= 1;
                        if deps[s.idx()] == 0 {
                            p.on_ready(s, Some(core));
                        }
                    }
                }
            }
            assert!(progressed, "static policy stuck at {done}/{}", g.len());
        }
    }

    #[test]
    fn panel_tasks_preempt_updates_in_queue_order() {
        let (g, mut p, grid) = setup();
        // core 3 owns (odd, odd) tiles on the 2x2 grid: it owns both
        // panel-0 updates like (1,1) and panel-1 leaves like (3,1)
        let owners = OwnerMap::new(&g, grid);
        let s_task = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, .. }) && owners.owner(t) == 3)
            .unwrap();
        let p_task = g
            .ids()
            .find(|&t| {
                matches!(g.kind(t), TaskKind::PanelLeaf { k: 1, .. }) && owners.owner(t) == 3
            })
            .unwrap();
        p.on_ready(s_task, None);
        p.on_ready(p_task, None);
        assert_eq!(p.pop(3).unwrap().task, p_task, "panel leaf must run first");
        assert_eq!(p.pop(3).unwrap().task, s_task);
    }

    #[test]
    fn batch_groups_same_panel_updates_only() {
        let (g, mut p, grid) = setup();
        let owners = OwnerMap::new(&g, grid);
        // queue several panel-0 updates owned by core 3 (owns 4 of them)
        let updates: Vec<TaskId> = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, .. }) && owners.owner(t) == 3)
            .collect();
        assert!(updates.len() >= 2);
        for &t in &updates {
            p.on_ready(t, None);
        }
        let batch = p.pop_batch(3, 3);
        assert!(batch.len() >= 2, "updates of one panel must group");
        assert!(batch.len() <= 3);
        for popped in &batch {
            assert!(matches!(g.kind(popped.task), TaskKind::Update { k: 0, .. }));
        }
    }

    #[test]
    fn empty_queue_returns_none() {
        let (_, mut p, _) = setup();
        assert!(p.pop(0).is_none());
        assert!(p.pop_batch(1, 4).is_empty());
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn any_core_can_pop() {
        let g = TaskGraph::build(300, 300, 100);
        let mut p = dynamic(&g, 4);
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        let a = p.pop(3).unwrap();
        let b = p.pop(0).unwrap();
        assert_ne!(a.task, b.task);
        assert_eq!(a.source, QueueSource::Global);
    }

    #[test]
    fn pops_in_dfs_column_order() {
        let g = TaskGraph::build(400, 400, 100);
        let mut p = dynamic(&g, 2);
        // insert one U of column 3 and one S of column 2 (both panel 0)
        let u3 = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::ComputeU { k: 0, j: 3 }))
            .unwrap();
        let s2 = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::Update { k: 0, i: 1, j: 2 }))
            .unwrap();
        p.on_ready(u3, None);
        p.on_ready(s2, None);
        assert_eq!(p.pop(0).unwrap().task, s2, "leftmost column first");
        assert_eq!(p.pop(0).unwrap().task, u3);
    }

    #[test]
    fn queue_size_tracks() {
        let g = TaskGraph::build(300, 300, 100);
        let mut p = dynamic(&g, 1);
        assert_eq!(p.queued(), 0);
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        assert_eq!(p.queued(), g.initial_ready().len());
        p.pop(0);
        assert_eq!(p.queued(), g.initial_ready().len() - 1);
    }
}
