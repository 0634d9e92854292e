//! The paper's hybrid static/dynamic policy (Algorithms 1 and 2), as
//! the simulator drives it.
//!
//! Tasks writing tile columns `< Nstatic` are distributed statically to
//! their block-cyclic owners; the rest form the dynamic section in DFS
//! column order. A core always prefers its own static queue ("each
//! thread executes in priority tasks from the static part, to ensure
//! progress in the critical path"); only when that is empty does it turn
//! to the dynamic section — so the dynamic section is exactly the
//! load-balancing reservoir that fills the static section's idle pockets.
//!
//! The queues themselves are one [`ReadyQueues`] value — the very
//! structure the threaded engine's workers share — so every
//! [`QueueDiscipline`] pushes, pops, groups, steals and rescues here by
//! the code that does so on real threads. [`HybridPolicy`] is its
//! sequential driver: it owns what the engine keeps per run or per
//! worker (the owner map, the priority keys, one seeded victim-selection
//! [`Rng`]) and turns the [`Policy`] calls into the engine's protocol.
//! The successors one completion enables are published as one batch
//! (they are collected until the next pop), a pop is
//! [`ReadyQueues::pop_own`] and then [`ReadyQueues::steal`], a rescue is
//! [`ReadyQueues::drain_static`]. Initially ready tasks, which no core
//! enabled, are dealt round-robin over the cores.

use calu_dag::{TaskGraph, TaskId, TaskKind};
use calu_matrix::ProcessGrid;
use calu_rand::Rng;

use crate::discipline::QueueDiscipline;
use crate::owner::OwnerMap;
use crate::policy::{Policy, Popped, QueueSource};
use crate::priority::{dynamic_key, static_key};
use crate::ready::ReadyQueues;
use crate::topology::CpuTopology;

/// See module docs.
pub(crate) struct HybridPolicy {
    owners: OwnerMap,
    kinds: Vec<TaskKind>,
    static_keys: Vec<u64>,
    dynamic_keys: Vec<u64>,
    is_static: Vec<bool>,
    queues: ReadyQueues,
    rng: Rng,
    /// Home of the next initially ready task.
    rr: usize,
    /// The batch being collected — tasks made ready since the last pop —
    /// and the core whose side of the dynamic section it lands on.
    pending: Vec<TaskId>,
    pending_home: usize,
    /// The tasks of the pop being served (scratch).
    group: Vec<u32>,
    queued: usize,
    name: &'static str,
}

impl HybridPolicy {
    /// Build for graph `g` over `grid` with the first `nstatic` tile
    /// columns scheduled statically — the one constructor: `nstatic =
    /// g.num_panels()` is fully static scheduling, `nstatic = 0` fully
    /// dynamic (see [`crate::make_policy_on`]). `topo` shapes the
    /// lock-free discipline's tiered victim sweeps; the other
    /// disciplines ignore it.
    pub(crate) fn new(
        g: &TaskGraph,
        grid: ProcessGrid,
        nstatic: usize,
        queue: QueueDiscipline,
        topo: &CpuTopology,
    ) -> Self {
        let kinds: Vec<TaskKind> = g.ids().map(|t| g.kind(t)).collect();
        Self {
            owners: OwnerMap::new(g, grid),
            static_keys: kinds.iter().map(static_key).collect(),
            dynamic_keys: kinds.iter().map(dynamic_key).collect(),
            is_static: kinds.iter().map(|k| k.writes_col() < nstatic).collect(),
            // any core's static share can be rescued at any time, so any
            // task can reach the dynamic section
            queues: ReadyQueues::new(grid.size(), g.len(), queue, topo),
            kinds,
            rng: Rng::seed_from_u64(queue.seed().unwrap_or_default()),
            rr: 0,
            pending: Vec::new(),
            pending_home: 0,
            group: Vec::new(),
            queued: 0,
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

    /// Publish the collected batch, the way an engine worker publishes
    /// what its completed group enabled.
    fn flush(&mut self) {
        let (owners, is_static) = (&self.owners, &self.is_static);
        let (static_keys, dynamic_keys) = (&self.static_keys, &self.dynamic_keys);
        self.queues.publish(
            &mut self.pending,
            self.pending_home,
            |t| dynamic_keys[t.idx()],
            |t| is_static[t.idx()].then(|| (owners.owner(t), static_keys[t.idx()])),
        );
        self.pending.clear();
    }

    /// Serve `core` into `self.group`: Algorithm 1's own-queue pop — up
    /// to `max` updates of one `(k, j)` column step from the queue that
    /// served the first, like the paper's grouped BLAS-3 calls — or else
    /// one stolen task.
    fn take(&mut self, core: usize, max: usize) -> Option<QueueSource> {
        self.flush();
        let kinds = &self.kinds;
        let same_step = |_, last: u32, next: u32| {
            matches!(
                (kinds[last as usize], kinds[next as usize]),
                (TaskKind::Update { k, j, .. }, TaskKind::Update { k: nk, j: nj, .. })
                    if k == nk && j == nj
            )
        };
        let source = match self.queues.pop_own(core, max, &mut self.group, same_step) {
            Some(source) => source,
            None => {
                // sequential, so a sweep never fails: it is tried only
                // while a dynamic task is queued, and nothing moves
                // between that check and the probes
                let (t, source) = self.queues.steal(core, &mut self.rng, &mut 0)?;
                self.group.push(t);
                source
            }
        };
        self.queued -= self.group.len();
        Some(source)
    }
}

impl Policy for HybridPolicy {
    fn on_ready(&mut self, t: TaskId, completer: Option<usize>) {
        let home = completer.unwrap_or_else(|| {
            let next = self.rr;
            self.rr = (next + 1) % self.owners.grid().size();
            next
        });
        if home != self.pending_home {
            self.flush();
            self.pending_home = home;
        }
        self.pending.push(t);
        self.queued += 1;
    }

    fn rescue(&mut self, core: usize) -> usize {
        self.flush();
        let keys = &self.dynamic_keys;
        self.queues.drain_static(core, |t| keys[t.idx()]) as usize
    }

    fn pop(&mut self, core: usize) -> Option<Popped> {
        let source = self.take(core, 1)?;
        Some(Popped {
            task: TaskId(self.group[0]),
            source,
        })
    }

    fn pop_batch(&mut self, core: usize, max: usize) -> Vec<Popped> {
        let Some(source) = self.take(core, max) else {
            return vec![];
        };
        let popped = |&t| Popped {
            task: TaskId(t),
            source,
        };
        self.group.iter().map(popped).collect()
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
    use crate::make_policy_on;

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

    // ----- one queue set, two drivers ------------------------------------

    /// Serialized drain through `pop_batch(core, max)`, cores in turn:
    /// the FNV-1a hash of every pop's (task id, source, core), in order.
    fn drain_fingerprint(p: &mut dyn Policy, g: &TaskGraph, max: usize) -> (usize, u64) {
        let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        let (mut done, mut hash) = (0usize, 0xcbf2_9ce4_8422_2325u64);
        while done < g.len() {
            let before = done;
            for core in 0..4 {
                for popped in p.pop_batch(core, max) {
                    for word in [popped.task.0 as u64, popped.source as u64, core as u64] {
                        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                    done += 1;
                    for &s in g.successors(popped.task) {
                        deps[s.idx()] -= 1;
                        if deps[s.idx()] == 0 {
                            p.on_ready(s, Some(core));
                        }
                    }
                }
            }
            assert!(done > before, "policy starved");
        }
        (done, hash)
    }

    #[test]
    fn global_drain_is_the_one_captured_before_the_queues_merged() {
        // fingerprints printed by this very loop on commit 38b40c2, when
        // the policy still queued through a dynamic section of its own:
        // the paper-default discipline must not have moved by a single pop
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let grouped = drain_fingerprint(&mut hybrid(&g, grid, 0.1), &g, 3);
        assert_eq!(grouped, (268, 0xaa9e_f661_9166_d201), "h10, group = 3");
        let columns = drain_fingerprint(&mut hybrid(&g, grid, 1.0), &g, usize::MAX);
        assert_eq!(columns, (268, 0xec37_26ba_acbf_6937), "dynamic, by column");
    }

    #[test]
    fn the_policy_and_a_bare_queue_set_driven_like_the_engine_agree() {
        // the engine's protocol, serialized: publish what a completion
        // enabled on the completer's side, `pop_own`, else `steal`
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let topo = CpuTopology::flat(4);
        for queue in [
            QueueDiscipline::Global,
            QueueDiscipline::Sharded { seed: 11 },
            QueueDiscipline::LockFree { seed: 11 },
        ] {
            let nstatic = nstatic_for(0.3, g.num_panels());
            let mut policy = with_discipline(&g, grid, 0.3, queue);
            let bare = ReadyQueues::new(4, g.len(), queue, &topo);
            let owners = OwnerMap::new(&g, grid);
            let publish = |ready: &mut [TaskId], home| {
                bare.publish(
                    ready,
                    home,
                    |t| dynamic_key(&g.kind(t)),
                    |t| {
                        (g.kind(t).writes_col() < nstatic)
                            .then(|| (owners.owner(t), static_key(&g.kind(t))))
                    },
                )
            };
            // nobody enabled the initially ready tasks: the policy deals
            // them round-robin, one batch each
            for (x, &t) in g.initial_ready().iter().enumerate() {
                policy.on_ready(t, None);
                publish(&mut [t], x % 4);
            }
            let mut rng = Rng::seed_from_u64(11);
            let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
            let (mut done, mut group, mut ready) = (0, Vec::new(), Vec::new());
            while done < g.len() {
                for core in 0..4 {
                    let direct = bare
                        .pop_own(core, 1, &mut group, |_, _, _| false)
                        .map(|source| (group[0], source))
                        .or_else(|| bare.steal(core, &mut rng, &mut 0));
                    let popped = policy.pop(core);
                    assert_eq!(
                        popped.map(|p| (p.task.0, p.source)),
                        direct,
                        "{queue}: pop {done} on core {core}"
                    );
                    let Some(popped) = popped else { continue };
                    done += 1;
                    ready.clear();
                    for &s in g.successors(popped.task) {
                        deps[s.idx()] -= 1;
                        if deps[s.idx()] == 0 {
                            policy.on_ready(s, Some(core));
                            ready.push(s);
                        }
                    }
                    publish(&mut ready, core);
                }
            }
            assert_eq!(policy.queued(), 0);
        }
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
        assert_eq!(lockfree(&g, grid, 0.1).name(), "hybrid (lockfree)");
    }

    // ----- lock-free discipline ---------------------------------------

    fn lockfree(g: &TaskGraph, grid: ProcessGrid, dratio: f64) -> HybridPolicy {
        with_discipline(g, grid, dratio, QueueDiscipline::LockFree { seed: 42 })
    }

    /// The `k = 0` update of tile `(1, j)`: the smaller `j`, the more
    /// critical under Algorithm 2's DFS column order.
    fn update_in_column(g: &TaskGraph, j: u32) -> TaskId {
        g.ids()
            .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i: 1, j })
            .unwrap()
    }

    #[test]
    fn lockfree_owner_pops_the_newest_batch_most_critical_first() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut p = lockfree(&g, grid, 1.0);
        let col = |j| update_in_column(&g, j);
        // an old batch {7, 1, 4}, a pop, then a newer batch {6, 2}
        p.on_ready(col(7), Some(2));
        p.on_ready(col(1), Some(2));
        p.on_ready(col(4), Some(2));
        let first = p.pop(2).unwrap();
        assert_eq!(first.task, col(1), "a batch is served in DFS order");
        assert_eq!(first.source, QueueSource::Shard);
        p.on_ready(col(6), Some(2));
        p.on_ready(col(2), Some(2));
        // the deque is LIFO across batches: the newer one goes first,
        // although the older one holds a more critical task than its 6
        let order: Vec<TaskId> = std::iter::from_fn(|| p.pop(2)).map(|pp| pp.task).collect();
        assert_eq!(order, [col(2), col(6), col(4), col(7)]);
    }

    #[test]
    fn lockfree_steals_take_the_oldest_batchs_least_critical_task_and_tag_locality() {
        let g = graph();
        let grid = ProcessGrid::new(2, 2).unwrap();
        // 2 sockets × 2 cores: cores {0,1} on socket 0, {2,3} on socket 1
        let topo = CpuTopology::uniform(2, 2);
        let mut p = HybridPolicy::new(&g, grid, 0, QueueDiscipline::LockFree { seed: 7 }, &topo);
        let col = |j| update_in_column(&g, j);
        // core 0 holds an old batch {3, 5} and, one pop later, a newer
        // and less critical one {6, 7}
        for j in [1, 3, 5] {
            p.on_ready(col(j), Some(0));
        }
        assert_eq!(p.pop(0).unwrap().task, col(1));
        p.on_ready(col(6), Some(0));
        p.on_ready(col(7), Some(0));
        // same-socket thief: core 1 steals the cold end — the old batch's
        // least critical task, not the deque's — tagged as a near steal
        let near = p.pop(1).unwrap();
        assert_eq!(near.task, col(5), "steal takes the cold end");
        assert_eq!(near.source, QueueSource::Stolen);
        // remote thief: core 3 sits on the other socket
        let far = p.pop(3).unwrap();
        assert_eq!(far.task, col(3));
        assert_eq!(far.source, QueueSource::StolenRemote);
        // the victim kept its newest, hottest batch
        assert_eq!(p.pop(0).unwrap().task, col(6));
        assert_eq!(p.queued(), 1);
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
        make_policy_on(
            kind,
            QueueDiscipline::Global,
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
