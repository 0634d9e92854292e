//! Queue discipline for the dynamic section — the strategy enum shared
//! by the discrete-event simulator and the real threaded executor.
//!
//! The paper's Algorithm 2 serves the dynamic section from **one shared
//! queue** in DFS column order; §1 warns that "the dequeue overhead to
//! pull a task from a work queue can become non-negligible", and at high
//! thread counts / small tiles the single queue's lock is exactly where
//! that overhead concentrates. [`QueueDiscipline::Sharded`] is the
//! standard cure from the work-stealing literature (Cilk, StarPU):
//! per-worker priority shards, pushed by the worker that enabled the
//! task, popped locally, stolen from a seeded-random victim only when a
//! worker's static and local dynamic queues are both empty.
//!
//! Both executors steal through the one `ReadyQueues`, so a steal
//! behaves identically whether the machine is modelled or real.

use std::fmt;

use calu_rand::Rng;

/// Default victim-selection seed, used by [`QueueDiscipline::sharded`].
const DEFAULT_STEAL_SEED: u64 = 0x5eed_ca1e;

/// How the dynamic-section ready queue is organized.
///
/// This is orthogonal to [`SchedulerKind`](crate::SchedulerKind): the
/// scheduler decides *which* tasks are dynamic (the `dratio` split of
/// Algorithm 1), the discipline decides *how* the dynamic ones are
/// queued and dequeued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum QueueDiscipline {
    /// One shared priority queue in Algorithm 2's DFS order — the
    /// paper's implementation. Every dequeue contends on one lock.
    #[default]
    Global,
    /// Per-worker priority shards with randomized work stealing: newly
    /// ready dynamic tasks go to the shard of the worker that enabled
    /// them, workers pop their own shard first and steal from a seeded
    /// random victim only when it is empty. Each shard keeps the DFS
    /// priority order, so steals still take the victim's most critical
    /// task — unlike plain Cilk deques, which §8 shows lose to the
    /// critical-path order.
    Sharded {
        /// Seed for the victim-selection RNG (per-worker streams are
        /// derived from it, so runs stay reproducible).
        seed: u64,
    },
    /// Per-worker lock-free Chase-Lev deques
    /// ([`crate::deque::Deque`]) with locality-tiered stealing: the
    /// owner pushes newly enabled successors in DAG-priority order and
    /// pops LIFO (cache-hot), thieves steal FIFO from the cold end,
    /// sweeping victims SMT sibling → same socket → remote sockets
    /// (`StealTiers`) instead of the flat randomized
    /// order. Removes even the per-shard mutex of
    /// [`QueueDiscipline::Sharded`], which stays as the parity oracle.
    LockFree {
        /// Seed for the victim-selection RNG (per-worker streams are
        /// derived from it, so runs stay reproducible).
        seed: u64,
    },
}

impl QueueDiscipline {
    /// Sharded with the default seed.
    pub fn sharded() -> Self {
        QueueDiscipline::Sharded {
            seed: DEFAULT_STEAL_SEED,
        }
    }

    /// Lock-free with the default seed.
    pub fn lock_free() -> Self {
        QueueDiscipline::LockFree {
            seed: DEFAULT_STEAL_SEED,
        }
    }

    /// Whether this discipline uses the mutex-sharded dynamic queue.
    pub fn is_sharded(&self) -> bool {
        matches!(self, QueueDiscipline::Sharded { .. })
    }

    /// Whether this discipline uses the lock-free Chase-Lev deques.
    pub fn is_lock_free(&self) -> bool {
        matches!(self, QueueDiscipline::LockFree { .. })
    }

    /// Whether the dynamic section is split into per-worker shards that
    /// workers steal from (true for both [`Sharded`] and [`LockFree`];
    /// both need a non-empty dynamic section to shard).
    ///
    /// [`Sharded`]: QueueDiscipline::Sharded
    /// [`LockFree`]: QueueDiscipline::LockFree
    pub fn steals(&self) -> bool {
        !matches!(self, QueueDiscipline::Global)
    }

    /// The steal seed, if this discipline steals.
    pub fn seed(&self) -> Option<u64> {
        match self {
            QueueDiscipline::Global => None,
            QueueDiscipline::Sharded { seed } | QueueDiscipline::LockFree { seed } => Some(*seed),
        }
    }
}

impl fmt::Display for QueueDiscipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueDiscipline::Global => write!(f, "global"),
            QueueDiscipline::Sharded { .. } => write!(f, "sharded"),
            QueueDiscipline::LockFree { .. } => write!(f, "lockfree"),
        }
    }
}

/// The randomized victim order every stealing executor uses: one RNG
/// draw picks a starting victim, then the sweep proceeds round-robin
/// over all workers, skipping the thief itself. Visiting *every* other
/// worker (rather than probing a bounded sample) guarantees a steal
/// succeeds whenever any shard is non-empty, so no worker parks while
/// work exists.
pub(crate) fn steal_order(rng: &mut Rng, me: usize, workers: usize) -> impl Iterator<Item = usize> {
    assert!(workers > 0, "steal_order needs at least one worker");
    let start = rng.gen_range(0..workers);
    (0..workers)
        .map(move |off| (start + off) % workers)
        .filter(move |&v| v != me)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_global() {
        assert_eq!(QueueDiscipline::default(), QueueDiscipline::Global);
        assert!(!QueueDiscipline::Global.is_sharded());
        assert!(QueueDiscipline::sharded().is_sharded());
        assert_eq!(
            QueueDiscipline::sharded().seed(),
            Some(DEFAULT_STEAL_SEED),
            "default-seeded shard"
        );
        assert_eq!(QueueDiscipline::Global.seed(), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(QueueDiscipline::Global.to_string(), "global");
        assert_eq!(QueueDiscipline::sharded().to_string(), "sharded");
        assert_eq!(QueueDiscipline::lock_free().to_string(), "lockfree");
    }

    #[test]
    fn lock_free_is_a_stealing_non_sharded_discipline() {
        let lf = QueueDiscipline::lock_free();
        assert!(lf.is_lock_free() && !lf.is_sharded());
        assert!(lf.steals() && QueueDiscipline::sharded().steals());
        assert!(!QueueDiscipline::Global.steals());
        assert_eq!(lf.seed(), Some(DEFAULT_STEAL_SEED));
    }

    #[test]
    fn steal_order_visits_every_other_worker_once() {
        let mut rng = Rng::seed_from_u64(1);
        for me in 0..4 {
            let mut victims: Vec<usize> = steal_order(&mut rng, me, 4).collect();
            assert_eq!(victims.len(), 3, "all other workers probed");
            assert!(!victims.contains(&me), "never steal from yourself");
            victims.sort_unstable();
            victims.dedup();
            assert_eq!(victims.len(), 3, "each victim probed exactly once");
        }
    }

    #[test]
    fn steal_order_single_worker_is_empty() {
        let mut rng = Rng::seed_from_u64(2);
        assert_eq!(steal_order(&mut rng, 0, 1).count(), 0);
    }

    #[test]
    fn steal_order_is_seed_deterministic() {
        let order = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..10)
                .flat_map(|_| steal_order(&mut rng, 0, 8).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8), "different seeds, different sweeps");
    }
}
