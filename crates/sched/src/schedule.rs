//! One schedule record for every executor: where each worker's time and
//! tasks went in one run.
//!
//! The threaded engine folds a [`ThreadMetrics`] per worker as its tasks
//! run, the discrete-event simulator fills one per simulated core, and
//! both count a pop through the same [`ThreadMetrics::count`] and settle
//! idle by the same rule ([`ScheduleMetrics::new`]) — so a threaded and
//! a simulated run of one workload compare field by field, and an
//! [`Observation`] built from either reads on one scale.
//!
//! ## Schedule metrics at a glance
//!
//! Per-thread ([`ThreadMetrics`]) and aggregate accessors on
//! [`ScheduleMetrics`]:
//!
//! | Metric | Per thread | Aggregate | Filled by |
//! |---|---|---|---|
//! | kernel work seconds | `work` | `utilization()` | both backends |
//! | idle seconds (the makespan less every busy second) | `idle` | `total_idle()`, `per_thread_idle()` | both |
//! | scheduler overhead / memory seconds | `overhead`, `memory` | `utilization()` | simulated only |
//! | noise seconds (modelled OS noise; on threads, fault-plan stalls) | `noise` | `utilization()`, `total_noise()` | both |
//! | tasks executed | `tasks` | `total_tasks()` | both |
//! | static-queue pops | `local_pops` | `queue_sources().local` | both |
//! | dynamic pops (shared queue or own shard/deque) | `global_pops` | `queue_sources().global` | both |
//! | own-shard pops (the subset of `global_pops` off the worker's own shard or deque) | `shard_pops` | — | both, stealing disciplines only |
//! | **steals** (tasks taken from another worker's shard or deque) | `stolen_pops` | `queue_sources().stolen`, `contention().steals`, `steal_locality().local` + `.remote` | both, stealing disciplines only |
//! | **remote steals** (the victim sat on another socket) | `remote_steal_pops` | `steal_locality().remote`, `steal_locality().remote_fraction()` | both, lock-free discipline's tiered sweep only |
//! | **failed steal sweeps** (every probed victim was empty) | `failed_steals` | `contention().failed_steals`, `contention().failure_rate()` | threaded backend, stealing disciplines only |
//! | **rescued static tasks** (republished into the dynamic queues off a lost/degraded worker) | `rescued` | `total_rescued()` | both, armed fault plans only |
//! | **lost worker** (retired by an injected fault) | `lost` | `lost_workers()` | both, armed fault plans only |
//! | NUMA / cache traffic | `remote_bytes`, `local_bytes`, `cache_*` | `remote_bytes()`, `cache_hit_rate()` | simulated only |
//!
//! Steal counters are identically zero under
//! [`QueueDiscipline::Global`](crate::QueueDiscipline), and
//! `remote_steal_pops` additionally under `QueueDiscipline::Sharded`,
//! whose flat sweep does not classify victims — the backend-parity
//! tests rely on both.

use crate::adaptive::Observation;
use crate::policy::QueueSource;

/// Per-thread (or per simulated core) schedule accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadMetrics {
    /// Seconds of useful kernel work.
    pub work: f64,
    /// Seconds idle (no ready task): what the makespan leaves after
    /// every busy second, set once by [`ScheduleMetrics::new`].
    pub idle: f64,
    /// Seconds of scheduler overhead (dequeues, steals) — simulated
    /// backends only; the real executor times task bodies alone, so its
    /// dequeue and steal time falls between them and reads as `idle`.
    pub overhead: f64,
    /// Seconds of memory stalls — simulated backends only.
    pub memory: f64,
    /// Seconds of injected noise: modelled OS noise on the simulator,
    /// fault-plan stalls while the job factored on real threads.
    pub noise: f64,
    /// Tasks executed by this thread: the sum of its pops.
    pub tasks: u64,
    /// Tasks popped from the thread's own static queue.
    pub local_pops: u64,
    /// Tasks popped from the dynamic section without stealing: the
    /// shared queue under [`QueueDiscipline::Global`], the worker's own
    /// shard under [`QueueDiscipline::Sharded`] and
    /// [`QueueDiscipline::LockFree`].
    ///
    /// [`QueueDiscipline::Global`]: crate::QueueDiscipline::Global
    /// [`QueueDiscipline::Sharded`]: crate::QueueDiscipline::Sharded
    /// [`QueueDiscipline::LockFree`]: crate::QueueDiscipline::LockFree
    pub global_pops: u64,
    /// The subset of `global_pops` that came off the worker's *own*
    /// shard or deque (stealing disciplines only; always zero under the
    /// global discipline, whose dynamic pops all hit the one shared
    /// queue).
    pub shard_pops: u64,
    /// Tasks stolen from another thread (stealing queue disciplines or
    /// the work-stealing policy).
    pub stolen_pops: u64,
    /// The subset of `stolen_pops` whose victim sat on a different
    /// socket — reported only by the lock-free discipline's
    /// locality-tiered sweep; the flat sharded sweep does not classify
    /// victims, so it stays zero there.
    pub remote_steal_pops: u64,
    /// Steal *sweeps* in which every probed victim was empty (threaded
    /// backend under the stealing disciplines) — the queue-contention
    /// signal: a high [`ContentionStats::failure_rate`] means workers
    /// sweep drained shards instead of computing. Counted per whole
    /// sweep, not per probed victim, so flat and tiered victim orders
    /// read on the same scale.
    pub failed_steals: u64,
    /// Static tasks this thread *owned* that were republished into the
    /// dynamic queues because the thread was lost or persistently slow
    /// (armed fault plans only; identically zero otherwise). Rescue
    /// preserves the factors bitwise — the DAG's exclusive-writer
    /// discipline makes them schedule-independent — so a nonzero count
    /// here marks a run that *degraded*, not one that diverged.
    pub rescued: u64,
    /// Whether this worker was lost to an injected fault and retired
    /// mid-run (its remaining static share shows up in `rescued`).
    pub lost: bool,
    /// Bytes pulled from a remote NUMA socket (simulated only).
    pub remote_bytes: f64,
    /// Bytes refilled locally (simulated only).
    pub local_bytes: f64,
    /// Tile-cache hits (simulated only).
    pub cache_hits: u64,
    /// Tile-cache misses (simulated only).
    pub cache_misses: u64,
}

impl ThreadMetrics {
    /// Seconds this thread was busy: work, overhead, memory and noise.
    fn busy(&self) -> f64 {
        self.work + self.overhead + self.memory + self.noise
    }

    /// Count one executed task against the queue it was popped from.
    pub fn count(&mut self, source: QueueSource) {
        self.tasks += 1;
        match source {
            QueueSource::Local => self.local_pops += 1,
            QueueSource::Global => self.global_pops += 1,
            QueueSource::Shard => {
                self.global_pops += 1;
                self.shard_pops += 1;
            }
            QueueSource::Stolen => self.stolen_pops += 1,
            QueueSource::StolenRemote => {
                self.stolen_pops += 1;
                self.remote_steal_pops += 1;
            }
        }
    }
}

/// Where executed tasks were dequeued from, summed over all threads —
/// the static/dynamic split of Algorithm 1 made observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueBreakdown {
    /// Tasks served from per-thread static queues.
    pub local: u64,
    /// Tasks served from the shared dynamic queue.
    pub global: u64,
    /// Tasks obtained by stealing.
    pub stolen: u64,
}

impl QueueBreakdown {
    /// Fraction of tasks that went through the dynamic/stolen paths.
    pub fn dynamic_fraction(&self) -> f64 {
        let total = self.local + self.global + self.stolen;
        if total == 0 {
            0.0
        } else {
            (self.global + self.stolen) as f64 / total as f64
        }
    }
}

/// Steal-path contention accounting, summed over threads (stealing
/// queue disciplines only; all zero under the global discipline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Successful steals: tasks taken from another worker's shard.
    pub steals: u64,
    /// Steal sweeps in which *every* probed victim was empty. One
    /// wholly-empty sweep counts once, regardless of how many victims
    /// it visited, so the flat randomized order and the locality-tiered
    /// one produce comparable readings.
    pub failed_steals: u64,
}

impl ContentionStats {
    /// Fraction of steal sweeps that came up empty (0 when none ran).
    /// This is the executor's contention thermometer: near 0 means
    /// sweeps usually find work, near 1 means workers burn their idle
    /// time sweeping drained shards.
    pub fn failure_rate(&self) -> f64 {
        let sweeps = self.steals + self.failed_steals;
        if sweeps == 0 {
            0.0
        } else {
            self.failed_steals as f64 / sweeps as f64
        }
    }
}

/// Where stolen tasks came from, summed over threads: the locality
/// split of the lock-free discipline's tiered steal sweep. Under the
/// flat sharded sweep every steal counts as `local` (victims are not
/// classified); under the global discipline both are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealLocality {
    /// Steals whose victim shared the thief's socket (or SMT core).
    pub local: u64,
    /// Steals whose victim sat on a different socket — each one dragged
    /// the task's working set across the NUMA interconnect.
    pub remote: u64,
}

impl StealLocality {
    /// Fraction of steals that crossed a socket boundary (0 when no
    /// steals happened). The tiered sweep exists to keep this low:
    /// rising values mean same-socket victims are usually drained and
    /// the work distribution, not the sweep order, is the problem.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local + self.remote;
        if total == 0 {
            0.0
        } else {
            self.remote as f64 / total as f64
        }
    }
}

/// Unified schedule metrics, identical in shape for every backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleMetrics {
    /// End-to-end schedule length in seconds (wall clock for the
    /// threaded backend, simulated time for the simulator).
    pub makespan: f64,
    /// One entry per thread/core.
    pub threads: Vec<ThreadMetrics>,
}

impl ScheduleMetrics {
    /// The record of a run of length `makespan` whose workers folded
    /// `threads`, with each worker's idle set by the one rule: the
    /// makespan less its busy seconds (`work + overhead + memory +
    /// noise`), floored at 0.
    pub fn new(makespan: f64, mut threads: Vec<ThreadMetrics>) -> Self {
        for t in &mut threads {
            t.idle = (makespan - t.busy()).max(0.0);
        }
        Self { makespan, threads }
    }

    /// Mean busy fraction of the `makespan × threads` rectangle.
    ///
    /// Deliberately unclamped: a value above 1 means the backend's
    /// accounting double-counted busy seconds, and the invariant tests
    /// rely on seeing that rather than a silently capped 100%.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.threads.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.threads.iter().map(ThreadMetrics::busy).sum();
        busy / (self.makespan * self.threads.len() as f64)
    }

    /// Total idle core-seconds.
    pub fn total_idle(&self) -> f64 {
        self.threads.iter().map(|t| t.idle).sum()
    }

    /// Per-thread idle seconds, indexed by thread id.
    pub fn per_thread_idle(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.idle).collect()
    }

    /// Total injected-noise core-seconds (on real threads, zero without
    /// an armed fault plan).
    pub fn total_noise(&self) -> f64 {
        self.threads.iter().map(|t| t.noise).sum()
    }

    /// Queue-source breakdown summed over threads.
    pub fn queue_sources(&self) -> QueueBreakdown {
        let mut q = QueueBreakdown::default();
        for t in &self.threads {
            q.local += t.local_pops;
            q.global += t.global_pops;
            q.stolen += t.stolen_pops;
        }
        q
    }

    /// Total tasks executed across threads.
    pub fn total_tasks(&self) -> u64 {
        self.threads.iter().map(|t| t.tasks).sum()
    }

    /// Steal-path contention summed over threads (stealing disciplines).
    pub fn contention(&self) -> ContentionStats {
        let mut c = ContentionStats::default();
        for t in &self.threads {
            c.steals += t.stolen_pops;
            c.failed_steals += t.failed_steals;
        }
        c
    }

    /// Static tasks rescued into the dynamic queues across all threads
    /// (nonzero only under an armed fault plan that lost or degraded a
    /// worker).
    pub fn total_rescued(&self) -> u64 {
        self.threads.iter().map(|t| t.rescued).sum()
    }

    /// Workers retired by injected faults during this run.
    pub fn lost_workers(&self) -> usize {
        self.threads.iter().filter(|t| t.lost).count()
    }

    /// Steal-locality split summed over threads: how many steals stayed
    /// on the thief's socket vs. crossed the interconnect (lock-free
    /// discipline's tiered sweep; see [`StealLocality`]).
    pub fn steal_locality(&self) -> StealLocality {
        let mut s = StealLocality::default();
        for t in &self.threads {
            s.local += t.stolen_pops - t.remote_steal_pops;
            s.remote += t.remote_steal_pops;
        }
        s
    }

    /// Total bytes moved across NUMA sockets (simulated backends).
    pub fn remote_bytes(&self) -> f64 {
        self.threads.iter().map(|t| t.remote_bytes).sum()
    }

    /// Overall tile-cache hit rate (simulated backends; 0 when unknown).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.threads.iter().map(|t| t.cache_hits).sum();
        let misses: u64 = self.threads.iter().map(|t| t.cache_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Distill these metrics into the adaptive controller's input — the
    /// feedback edge of the facade's adaptive solver. Uses exactly the
    /// aggregate accessors above ([`ContentionStats::failure_rate`],
    /// [`total_idle`], [`total_rescued`], [`lost_workers`]), so
    /// observations built from a threaded run, a simulated run and a
    /// service job all read on one scale.
    ///
    /// [`total_idle`]: ScheduleMetrics::total_idle
    /// [`total_rescued`]: ScheduleMetrics::total_rescued
    /// [`lost_workers`]: ScheduleMetrics::lost_workers
    pub fn observation(&self, dims: (usize, usize)) -> Observation {
        Observation::new(self.threads.len().max(1), self.makespan, self.total_idle())
            .with_contention(self.contention().failure_rate())
            .with_lost(self.lost_workers())
            .with_rescued(self.total_rescued())
            .with_dims(dims.0, dims.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ScheduleMetrics {
        ScheduleMetrics::new(
            2.0,
            vec![
                ThreadMetrics {
                    work: 1.5,
                    tasks: 6,
                    local_pops: 5,
                    global_pops: 1,
                    remote_bytes: 10.0,
                    cache_hits: 3,
                    cache_misses: 1,
                    ..Default::default()
                },
                ThreadMetrics {
                    work: 1.0,
                    noise: 0.5,
                    tasks: 4,
                    local_pops: 1,
                    global_pops: 1,
                    stolen_pops: 2,
                    remote_steal_pops: 1,
                    failed_steals: 3,
                    rescued: 4,
                    lost: true,
                    remote_bytes: 5.0,
                    cache_hits: 1,
                    cache_misses: 3,
                    ..Default::default()
                },
            ],
        )
    }

    #[test]
    fn aggregates_add_up() {
        let m = metrics();
        assert!((m.utilization() - 3.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.total_idle(), 1.0);
        assert_eq!(m.per_thread_idle(), vec![0.5, 0.5]);
        assert_eq!(m.total_tasks(), 10);
        let q = m.queue_sources();
        assert_eq!((q.local, q.global, q.stolen), (6, 2, 2));
        assert!((q.dynamic_fraction() - 0.4).abs() < 1e-12);
        let c = m.contention();
        assert_eq!((c.steals, c.failed_steals), (2, 3));
        assert!((c.failure_rate() - 0.6).abs() < 1e-12);
        let s = m.steal_locality();
        assert_eq!((s.local, s.remote), (1, 1));
        assert!((s.remote_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(StealLocality::default().remote_fraction(), 0.0);
        assert_eq!(m.total_rescued(), 4);
        assert_eq!(m.lost_workers(), 1);
        assert_eq!(m.remote_bytes(), 15.0);
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_is_the_makespan_less_every_busy_second() {
        let busy = ThreadMetrics {
            work: 1.0,
            overhead: 0.25,
            memory: 0.5,
            noise: 0.125,
            ..Default::default()
        };
        let over = ThreadMetrics {
            work: 3.0,
            ..Default::default()
        };
        let m = ScheduleMetrics::new(2.0, vec![busy, over]);
        assert_eq!(m.per_thread_idle(), vec![0.125, 0.0], "floored at 0");
    }

    #[test]
    fn count_attributes_each_source_once() {
        let mut t = ThreadMetrics::default();
        for source in [
            QueueSource::Local,
            QueueSource::Global,
            QueueSource::Shard,
            QueueSource::Stolen,
            QueueSource::StolenRemote,
        ] {
            t.count(source);
        }
        assert_eq!(t.tasks, 5);
        assert_eq!(t.tasks, t.local_pops + t.global_pops + t.stolen_pops);
        assert_eq!((t.local_pops, t.global_pops, t.shard_pops), (1, 2, 1));
        assert_eq!((t.stolen_pops, t.remote_steal_pops), (2, 1));
    }

    #[test]
    fn observation_mirrors_the_aggregate_accessors() {
        let m = metrics();
        let obs = m.observation((10, 20));
        assert!((obs.idle_fraction() - m.total_idle() / (2.0 * m.makespan)).abs() < 1e-12);
        assert!((obs.contention - m.contention().failure_rate()).abs() < 1e-12);
        assert_eq!(obs.lost_workers, 1);
        assert_eq!(obs.rescued, 4);
        assert_eq!(obs.dims, (10, 20));
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(QueueBreakdown::default().dynamic_fraction(), 0.0);
        assert_eq!(ScheduleMetrics::default().utilization(), 0.0);
        assert_eq!(ScheduleMetrics::default().cache_hit_rate(), 0.0);
        assert_eq!(ContentionStats::default().failure_rate(), 0.0);
    }
}
