//! The ready-queue set of one factorization run — the one
//! implementation of the paper's Algorithms 1 and 2, driven by the
//! threaded engine's workers concurrently and by the simulator's
//! `HybridPolicy` one call at a time.
//!
//! A [`ReadyQueues`] value holds Algorithm 1's two halves for one task
//! graph: a **static heap per worker** (tasks whose output tile the
//! worker owns under the block-cyclic distribution, ordered by the
//! static priority key) and the **dynamic section**, organized by a
//! [`QueueDiscipline`]:
//!
//! * [`QueueDiscipline::Global`] — one shared mutex'd heap in
//!   Algorithm 2's DFS order (the paper's implementation);
//! * [`QueueDiscipline::Sharded`] — one mutex'd heap per worker, pushed
//!   by the worker that enabled the task, popped locally, stolen in a
//!   seeded-random victim order;
//! * [`QueueDiscipline::LockFree`] — one Chase-Lev [`Deque`] per worker
//!   (owner LIFO, thieves FIFO), stolen in the locality-tiered order of
//!   `StealTiers`.
//!
//! The queues schedule task ids with caller-supplied keys; they know
//! nothing about tiles or kernels. Everything a driver needs from them
//! is written here once: [`publish`] (one completion's successors, least
//! critical first, with the degraded-owner reroute), [`pop_own`] (which
//! also claims the paper's §4 *group* — the run of tasks at the worker's
//! end of the queue that served the first one, for as long as the caller
//! says they belong in one BLAS-3 call), [`steal`] and [`drain_static`]
//! (a lost worker's static-task rescue).
//!
//! Every word a worker writes per task — its heap's and shard's lock
//! words, its deque's ends, the queued-task counter — sits [`Padded`] on
//! cache lines of its own: two workers popping side by side otherwise
//! ping-pong one line between their cores on every task.
//!
//! ## Single-owner contract of the lock-free deques
//!
//! `home` in [`publish`] names the deque a dynamic task lands on. While
//! workers are running, worker `w` may only pass `home = w` (its own
//! deque; [`Deque::push`] is owner-only) — the engine's initially ready
//! tasks included, which the worker whose completion retires a run's
//! last FILL task pushes on its own side. Any `home` is allowed while no worker can
//! reach the queues yet, and always from a sequential driver.
//!
//! [`publish`]: ReadyQueues::publish
//! [`pop_own`]: ReadyQueues::pop_own
//! [`steal`]: ReadyQueues::steal
//! [`drain_static`]: ReadyQueues::drain_static

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use calu_dag::TaskId;
use calu_rand::Rng;

use crate::deque::{Deque, Steal};
use crate::discipline::{steal_order, QueueDiscipline};
use crate::policy::QueueSource;
use crate::topology::{CpuTopology, StealTier, StealTiers};

/// `T` alone on its cache lines: aligned to 128 bytes (a pair of
/// 64-byte lines, which the adjacent-line prefetcher moves together)
/// and therefore padded to a multiple of that, so neighbours in a `Vec`
/// never share a line and one worker's writes never invalidate what
/// another is reading.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Padded<T>(pub T);

impl<T> Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

const _: () = assert!(std::mem::align_of::<Padded<Heap>>() == 128);
const _: () = assert!(std::mem::size_of::<Padded<Heap>>().is_multiple_of(128));
const _: () = assert!(std::mem::size_of::<Padded<AtomicUsize>>() == 128);
const _: () = assert!(std::mem::align_of::<Deque>() == 128);
const _: () = assert!(std::mem::size_of::<Deque>().is_multiple_of(128));

type Keyed = BinaryHeap<Reverse<(u64, u32)>>;
type Heap = Mutex<Keyed>;

/// Lock a heap, ignoring poisoning: a heap is valid after every push
/// and pop, so a panicking holder leaves nothing half-updated.
fn lock(heap: &Heap) -> MutexGuard<'_, Keyed> {
    heap.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pop `q`'s head into `group` and go on claiming the new head for as
/// long as `joins(last claimed, head)` accepts it, up to `max` members;
/// false when `q` is empty.
fn claim_run(
    q: &mut Keyed,
    max: usize,
    group: &mut Vec<u32>,
    mut joins: impl FnMut(u32, u32) -> bool,
) -> bool {
    let Some(Reverse((_, mut last))) = q.pop() else {
        return false;
    };
    group.push(last);
    while group.len() < max {
        match q.peek() {
            Some(&Reverse((_, next))) if joins(last, next) => last = next,
            _ => break,
        }
        q.pop();
        group.push(last);
    }
    true
}

fn heaps(n: usize) -> Vec<Padded<Heap>> {
    (0..n).map(|_| Padded::default()).collect()
}

/// The dynamic section under each [`QueueDiscipline`].
enum Dynamic {
    Global(Padded<Heap>),
    Sharded(Vec<Padded<Heap>>),
    /// Each deque is sized for every dynamic task, so a push never
    /// fails.
    LockFree {
        deques: Vec<Deque>,
        tiers: Vec<StealTiers>,
    },
}

/// One steal sweep over `victims`, probing each with `probe` until one
/// yields a task. A *wholly empty* sweep counts as exactly one
/// contention failure — not one per probed victim — so
/// `ContentionStats::failure_rate` reads the same whether the sweep
/// visits p − 1 flat victims or the tiered order's fewer-per-tier ones.
fn steal_sweep<V, T>(
    victims: impl Iterator<Item = V>,
    mut probe: impl FnMut(&V) -> Option<T>,
    failed_sweeps: &mut u64,
) -> Option<(T, V)> {
    for v in victims {
        if let Some(t) = probe(&v) {
            return Some((t, v));
        }
    }
    *failed_sweeps += 1;
    None
}

/// See the module docs.
pub struct ReadyQueues {
    local: Vec<Padded<Heap>>,
    dynamic: Dynamic,
    /// Dynamic tasks currently queued (stealing disciplines only:
    /// incremented before push, decremented after pop), so idle workers
    /// can tell "nothing to steal anywhere" from "a victim I probed was
    /// empty" — only the latter is contention. Stays zero under the
    /// global discipline, which never reads it.
    dyn_queued: Padded<AtomicUsize>,
    /// Worker `w` no longer serves its static heap (dead, or flagged
    /// persistently slow): static tasks it owns reroute to the dynamic
    /// section. Read and written under the `local[w]` mutex, so a
    /// reroute can never race a drain and strand a task in a heap
    /// nobody serves.
    degraded: Vec<AtomicBool>,
    /// Static tasks owned by worker `w` that were republished into the
    /// dynamic section (by its own dying drain and by other workers'
    /// rerouted pushes).
    rescued: Vec<AtomicU64>,
}

impl ReadyQueues {
    /// Empty queues for `workers` workers. `dynamic_tasks` bounds how
    /// many tasks the dynamic section can hold at once (the lock-free
    /// deques are fixed-capacity); `topo` shapes the lock-free
    /// discipline's victim tiers. The other disciplines ignore both.
    pub fn new(
        workers: usize,
        dynamic_tasks: usize,
        queue: QueueDiscipline,
        topo: &CpuTopology,
    ) -> Self {
        Self {
            local: heaps(workers),
            dynamic: match queue {
                QueueDiscipline::Global => Dynamic::Global(Padded::default()),
                QueueDiscipline::Sharded { .. } => Dynamic::Sharded(heaps(workers)),
                QueueDiscipline::LockFree { .. } => Dynamic::LockFree {
                    deques: (0..workers)
                        .map(|_| Deque::with_capacity(dynamic_tasks))
                        .collect(),
                    tiers: (0..workers)
                        .map(|me| StealTiers::for_worker(topo, me, workers))
                        .collect(),
                },
            },
            dyn_queued: Padded::default(),
            degraded: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            rescued: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Queue the tasks one completion made ready (or a run's initially
    /// ready ones): a task `static_slot` places — `(owner, static key)` —
    /// on its owner's static heap, every other one in the dynamic
    /// section on worker `home`'s side, the worker that enabled it, so it
    /// tends to run where its inputs are warm (see the module docs for
    /// the lock-free single-owner contract). The batch goes in
    /// *descending* `dynamic_key` order (least critical first): the
    /// heaps don't care, and a lock-free owner's LIFO pop then serves the
    /// batch most-critical first while a FIFO thief takes its least
    /// critical leftover — the victim keeps its critical-path work.
    pub fn publish(
        &self,
        ready: &mut [TaskId],
        home: usize,
        dynamic_key: impl Fn(TaskId) -> u64,
        static_slot: impl Fn(TaskId) -> Option<(usize, u64)>,
    ) {
        if ready.len() > 1 {
            ready.sort_unstable_by_key(|&t| Reverse(dynamic_key(t)));
        }
        for &t in ready.iter() {
            match static_slot(t) {
                Some((owner, key)) => self.push_static(t.0, owner, key, dynamic_key(t), home),
                None => self.push_dynamic(t.0, dynamic_key(t), home),
            }
        }
    }

    /// Queue a ready static task on its owner's heap — or, when the
    /// owner is degraded, rescue it into the dynamic section instead
    /// (counted against the owner). The flag is checked under the
    /// owner's heap lock, the same lock `drain_static` holds while
    /// draining, so no task can slip into a heap nobody will serve.
    fn push_static(&self, task: u32, owner: usize, static_key: u64, dynamic_key: u64, home: usize) {
        let mut q = lock(&self.local[owner]);
        if self.degraded[owner].load(Ordering::Acquire) {
            drop(q);
            self.rescued[owner].fetch_add(1, Ordering::Relaxed);
            self.push_dynamic(task, dynamic_key, home);
            return;
        }
        q.push(Reverse((static_key, task)));
    }

    /// Queue a ready task into the dynamic section, on `home`'s
    /// shard/deque under the stealing disciplines.
    fn push_dynamic(&self, task: u32, dynamic_key: u64, home: usize) {
        match &self.dynamic {
            Dynamic::Global(q) => lock(q).push(Reverse((dynamic_key, task))),
            Dynamic::Sharded(shards) => {
                // counter first, push second: the count
                // over-approximates, so a successful pop's decrement can
                // never underflow
                self.dyn_queued.fetch_add(1, Ordering::AcqRel);
                lock(&shards[home % shards.len()]).push(Reverse((dynamic_key, task)));
            }
            Dynamic::LockFree { deques, .. } => {
                self.dyn_queued.fetch_add(1, Ordering::AcqRel);
                deques[home % deques.len()]
                    .push(task as u64)
                    .expect("deque sized for every dynamic task");
            }
        }
    }

    /// Algorithm 1's pop order without stealing: worker `me`'s static
    /// heap first, then its own share of the dynamic section (the
    /// shared queue under the global discipline, its own shard or deque
    /// otherwise; Algorithm 2's DFS order is baked into the keys).
    ///
    /// The tasks popped replace the contents of `group`, in pop order.
    /// Whichever queue served the first task, the pop stays on it — a
    /// heap under its lock, the deque at the owner's end — and goes on
    /// claiming its next task for as long as `joins(source, last
    /// claimed, candidate)` accepts it, up to `max` members: the caller's
    /// one BLAS-3 call over several tiles (§4). Only the owner pops its
    /// static heap, so a group from there costs no load balance; a group
    /// from the dynamic section takes work another worker could have
    /// run, which is the caller's trade to make through `joins`.
    pub fn pop_own(
        &self,
        me: usize,
        max: usize,
        group: &mut Vec<u32>,
        mut joins: impl FnMut(QueueSource, u32, u32) -> bool,
    ) -> Option<QueueSource> {
        group.clear();
        let mut from = |heap: &Heap, source| {
            claim_run(&mut lock(heap), max, group, |a, b| joins(source, a, b)).then_some(source)
        };
        if let Some(source) = from(&self.local[me], QueueSource::Local) {
            return Some(source);
        }
        let source = match &self.dynamic {
            Dynamic::Global(q) => return from(q, QueueSource::Global),
            Dynamic::Sharded(shards) => from(&shards[me], QueueSource::Shard)?,
            Dynamic::LockFree { deques, .. } => {
                let (mine, source) = (&deques[me], QueueSource::Shard);
                let mut last = mine.pop()? as u32;
                group.push(last);
                while group.len() < max
                    && mine
                        .peek()
                        .is_some_and(|next| joins(source, last, next as u32))
                {
                    // a thief may have won the peeked entry meanwhile
                    let Some(next) = mine.pop() else { break };
                    last = next as u32;
                    group.push(last);
                }
                source
            }
        };
        self.dyn_queued.fetch_sub(group.len(), Ordering::AcqRel);
        Some(source)
    }

    /// Steal from the other workers' dynamic shards/deques: seeded-
    /// random victims for the sharded discipline, the locality-tiered
    /// order for the lock-free one; the global discipline has nothing
    /// to steal. Attempted — and counted into `failed_sweeps` when
    /// wholly empty — only while dynamic tasks are actually queued
    /// somewhere, so idle spins on a drained DAG don't read as
    /// contention.
    pub fn steal(
        &self,
        me: usize,
        rng: &mut Rng,
        failed_sweeps: &mut u64,
    ) -> Option<(u32, QueueSource)> {
        // (always zero under the global discipline, which never counts)
        if self.dyn_queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let stolen = match &self.dynamic {
            Dynamic::Global(_) => None,
            Dynamic::Sharded(shards) => steal_sweep(
                steal_order(rng, me, shards.len()),
                |&victim| lock(&shards[victim]).pop().map(|Reverse((_, t))| t),
                failed_sweeps,
            )
            .map(|(t, _)| (t, QueueSource::Stolen)),
            Dynamic::LockFree { deques, tiers } => steal_sweep(
                tiers[me].sweep(rng),
                |&(victim, _)| loop {
                    match deques[victim].steal() {
                        Steal::Taken(v) => break Some(v as u32),
                        Steal::Empty => break None,
                        // a lost race means someone else made progress;
                        // re-probe the same victim
                        Steal::Retry => std::hint::spin_loop(),
                    }
                },
                failed_sweeps,
            )
            .map(|(t, (_, tier))| match tier {
                StealTier::Remote => (t, QueueSource::StolenRemote),
                _ => (t, QueueSource::Stolen),
            }),
        };
        if stolen.is_some() {
            self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
        }
        stolen
    }

    /// Static-task rescue, called by worker `me` when it stops serving
    /// its static heap (it is dying): flag it degraded and drain its
    /// heap *under the heap lock* (the lock a [`publish`](Self::publish)
    /// checks the flag under before it reroutes), then republish the
    /// backlog into the dynamic section for the survivors, keyed by
    /// `dynamic_key`. Returns how many tasks moved. The exclusive-writer
    /// DAG keeps the factors bitwise-identical no matter who ends up
    /// running them.
    pub fn drain_static(&self, me: usize, dynamic_key: impl Fn(TaskId) -> u64) -> u64 {
        let drained: Vec<u32> = {
            let mut q = lock(&self.local[me]);
            self.degraded[me].store(true, Ordering::Release);
            std::iter::from_fn(|| q.pop().map(|Reverse((_, t))| t)).collect()
        };
        self.rescued[me].fetch_add(drained.len() as u64, Ordering::Relaxed);
        for &t in &drained {
            self.push_dynamic(t, dynamic_key(TaskId(t)), me);
        }
        drained.len() as u64
    }

    /// Flag `worker` degraded without draining: every static task
    /// [`publish`](Self::publish)ed for it from now on reroutes. For queues
    /// nothing has been pushed into yet (a run published after the
    /// worker was lost, or a persistently slow worker).
    pub fn mark_degraded(&self, worker: usize) {
        let _q = lock(&self.local[worker]);
        self.degraded[worker].store(true, Ordering::Release);
    }

    /// Static tasks owned by `worker` that were rescued into the
    /// dynamic section so far.
    pub fn rescued(&self, worker: usize) -> u64 {
        self.rescued[worker].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(workers: usize, queue: QueueDiscipline) -> ReadyQueues {
        ReadyQueues::new(workers, 64, queue, &CpuTopology::flat(workers))
    }

    /// [`ReadyQueues::pop_own`] without grouping.
    fn pop_one(q: &ReadyQueues, me: usize) -> Option<(u32, QueueSource)> {
        let mut group = Vec::new();
        let source = q.pop_own(me, 1, &mut group, |_, _, _| unreachable!("max is 1"))?;
        assert_eq!(group.len(), 1);
        Some((group[0], source))
    }

    const ALL: [QueueDiscipline; 3] = [
        QueueDiscipline::Global,
        QueueDiscipline::Sharded { seed: 3 },
        QueueDiscipline::LockFree { seed: 3 },
    ];

    #[test]
    fn steal_sweep_counts_whole_sweeps_not_victims() {
        // the contention-thermometer regression: an empty sweep over
        // many victims is ONE failure, so failure_rate stays comparable
        // between the flat (p − 1 probes) and tiered victim orders
        let mut failed = 0u64;
        let all_empty = steal_sweep([0usize, 1, 2].into_iter(), |_| None::<u32>, &mut failed);
        assert!(all_empty.is_none());
        assert_eq!(failed, 1, "three empty victims, one failed sweep");

        // a sweep that succeeds late counts no failure at all
        let hit = steal_sweep(
            [0usize, 1, 2].into_iter(),
            |&v| (v == 2).then_some(7u32),
            &mut failed,
        );
        assert_eq!(hit, Some((7, 2)));
        assert_eq!(failed, 1, "successful sweep adds no failure");

        // pinned ratio: 1 steal + 1 failed sweep = 50% failure rate,
        // identical whether the sweep visited 3 victims or 30
        let mut failed_wide = 0u64;
        steal_sweep(0..30usize, |_| None::<u32>, &mut failed_wide);
        assert_eq!(failed_wide, 1);
        let rate = failed as f64 / (1 + failed) as f64;
        assert!((rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn own_static_heap_is_served_before_the_dynamic_section() {
        for queue in ALL {
            let q = queues(2, queue);
            q.push_dynamic(10, 1, 0);
            q.push_static(20, 0, 9, 9, 0);
            q.push_static(21, 0, 5, 5, 0);
            assert_eq!(pop_one(&q, 0), Some((21, QueueSource::Local)), "{queue}");
            assert_eq!(pop_one(&q, 0), Some((20, QueueSource::Local)), "{queue}");
            let (t, src) = pop_one(&q, 0).unwrap();
            assert_eq!(t, 10);
            assert_ne!(src, QueueSource::Local, "{queue}");
            assert_eq!(pop_one(&q, 0), None);
        }
    }

    #[test]
    fn a_pop_claims_the_run_that_joins_from_the_queue_that_served_the_first() {
        for queue in ALL {
            let q = queues(2, queue);
            // keys 1..=8 on worker 0's heap; a chain joins consecutive
            // ids only, so 3 (missing) breaks it and 5 → 7 does too
            for t in [1u32, 2, 4, 5, 7, 8] {
                q.push_static(t, 0, t as u64, t as u64, 0);
            }
            // pushed least critical first, as `publish` orders a batch:
            // every discipline then serves 9, 10, 11, 13 in this order
            for t in [13u32, 11, 10, 9] {
                q.push_dynamic(t, t as u64, 0);
            }
            let mut group = Vec::new();
            let mut pop = |max, static_only: bool| {
                let source = q.pop_own(0, max, &mut group, |source, last, next| {
                    (!static_only || source == QueueSource::Local) && next == last + 1
                });
                (group.clone(), source)
            };
            let local = Some(QueueSource::Local);
            assert_eq!(pop(3, true), (vec![1, 2], local), "{queue}");
            // the cap holds even when more would join; the rest waits
            assert_eq!(pop(1, true), (vec![4], local));
            assert_eq!(pop(3, true), (vec![5], local));
            // a static group never runs on into the dynamic section
            assert_eq!(pop(8, false), (vec![7, 8], local), "{queue}");
            // the engine's rule: a dynamic pop stays one task
            let (one, dynamic) = pop(8, true);
            assert_eq!(one, vec![9], "{queue}");
            assert_ne!(dynamic, local);
            // the simulator's: it groups like a static one
            assert_eq!(pop(2, false), (vec![10, 11], dynamic), "{queue}");
            assert_eq!(pop(8, false), (vec![13], dynamic));
            assert_eq!(pop(8, false), (vec![], None), "{queue}: drained");
            // the count the steal gate reads went down with every member
            assert_eq!(q.steal(1, &mut Rng::seed_from_u64(1), &mut 0), None);
        }
    }

    #[test]
    fn every_dynamic_task_is_reachable_by_every_worker() {
        // worker 1 never pushed anything: under Global it pops the
        // shared heap, under the stealing disciplines it steals
        for queue in ALL {
            let q = queues(2, queue);
            for t in 0..4u32 {
                q.push_dynamic(t, t as u64, 0);
            }
            let mut rng = Rng::seed_from_u64(1);
            let mut failed = 0u64;
            let mut got = Vec::new();
            while let Some((t, src)) = pop_one(&q, 1).or_else(|| q.steal(1, &mut rng, &mut failed))
            {
                assert_eq!(src.is_stolen(), queue.steals(), "{queue}");
                got.push(t);
            }
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3], "{queue}");
            // drained: no sweep is attempted, so none is counted failed
            assert_eq!(q.steal(1, &mut rng, &mut failed), None);
            assert_eq!(failed, 0, "{queue}");
        }
    }

    #[test]
    fn drained_and_rerouted_static_tasks_reach_the_survivor() {
        for queue in ALL {
            let q = queues(2, queue);
            q.push_static(1, 0, 1, 1, 0);
            q.push_static(2, 0, 2, 2, 0);
            assert_eq!(q.drain_static(0, |t| t.0 as u64), 2, "{queue}");
            // worker 0 is degraded now: a later static publish for it
            // is rescued at push time, by the pusher
            q.push_static(3, 0, 3, 3, 1);
            assert_eq!(q.rescued(0), 3, "{queue}");
            assert_eq!(q.rescued(1), 0);
            // nothing is left in the dead worker's static heap: what it
            // can still reach came back through the dynamic section
            let (_, src) = pop_one(&q, 0).expect("the drain republished its backlog");
            assert_ne!(src, QueueSource::Local, "{queue}");
            let mut rng = Rng::seed_from_u64(2);
            let mut failed = 0u64;
            let mut got = 1; // the pop above took one rescued task
            while pop_one(&q, 1)
                .or_else(|| q.steal(1, &mut rng, &mut failed))
                .is_some()
            {
                got += 1;
            }
            assert_eq!(got, 3, "{queue}: every rescued task was served");
        }
    }

    #[test]
    fn mark_degraded_reroutes_from_the_first_push() {
        let q = queues(2, QueueDiscipline::Global);
        q.mark_degraded(1);
        q.push_static(5, 1, 0, 0, 0);
        assert_eq!(q.rescued(1), 1);
        assert_eq!(pop_one(&q, 0), Some((5, QueueSource::Global)));
    }
}
