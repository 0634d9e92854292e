//! The structured result of one [`crate::Solver`] run.
//!
//! Both execution backends fill the same [`Report`]: the real threaded
//! executor attaches the [`Factorization`] and numerical checks, the
//! discrete-event simulator attaches modelled memory/noise accounting —
//! and both produce identical *schedule* metrics (makespan, per-thread
//! idle time, queue-source breakdown), so a benchmark loop can compare
//! "same workload, N backends × M schedulers × K layouts" field by
//! field.
//!
//! ## Schedule metrics at a glance
//!
//! Per-thread ([`ThreadMetrics`]) and aggregate accessors on
//! [`ScheduleMetrics`]:
//!
//! | Metric | Per thread | Aggregate | Filled by |
//! |---|---|---|---|
//! | kernel work seconds | `work` | `utilization()` | both backends |
//! | idle seconds | `idle` | `total_idle()`, `per_thread_idle()` | both |
//! | scheduler overhead / memory seconds | `overhead`, `memory` | `utilization()` | simulated only |
//! | noise seconds (modelled OS noise; on threads, fault-plan stalls) | `noise` | `utilization()`, `total_noise()` | both |
//! | tasks executed | `tasks` | `total_tasks()` | both |
//! | static-queue pops | `local_pops` | `queue_sources().local` | both |
//! | dynamic pops (shared queue or own shard/deque) | `global_pops` | `queue_sources().global` | both |
//! | **steals** (tasks taken from another worker's shard or deque) | `stolen_pops` | `queue_sources().stolen`, `contention().steals`, `steal_locality().local` + `.remote` | both, stealing disciplines only |
//! | **remote steals** (the victim sat on another socket) | `remote_steal_pops` | `steal_locality().remote`, `steal_locality().remote_fraction()` | both, lock-free discipline's tiered sweep only |
//! | **failed steal sweeps** (every probed victim was empty) | `failed_steals` | `contention().failed_steals`, `contention().failure_rate()` | threaded backend, stealing disciplines only |
//! | **rescued static tasks** (republished into the dynamic queues off a lost/degraded worker) | `rescued` | `total_rescued()` | both, armed fault plans only |
//! | **lost worker** (retired by an injected fault) | `lost` | `lost_workers()` | both, armed fault plans only |
//! | NUMA / cache traffic | `remote_bytes`, `local_bytes`, `cache_*` | `Report::remote_bytes()`, `Report::cache_hit_rate()` | simulated only |
//!
//! Steal counters are identically zero under
//! [`QueueDiscipline::Global`](calu_sched::QueueDiscipline), and
//! `remote_steal_pops` additionally under
//! `QueueDiscipline::Sharded`, whose flat sweep does not classify
//! victims — the backend-parity tests rely on both.

use calu_core::Factorization;
use calu_matrix::Layout;
use calu_sched::{QueueDiscipline, SchedulerKind};
use calu_trace::Timeline;

use crate::solver::Algorithm;

/// Per-thread (or per simulated core) schedule accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadMetrics {
    /// Seconds of useful kernel work.
    pub work: f64,
    /// Seconds idle (no ready task).
    pub idle: f64,
    /// Seconds of scheduler overhead (dequeues, steals) — simulated
    /// backends only; the real executor folds this into `work`.
    pub overhead: f64,
    /// Seconds of memory stalls — simulated backends only.
    pub memory: f64,
    /// Seconds of injected noise: modelled OS noise on the simulator,
    /// fault-plan stalls while the job factored on real threads.
    pub noise: f64,
    /// Tasks executed by this thread.
    pub tasks: u64,
    /// Tasks popped from the thread's own static queue.
    pub local_pops: u64,
    /// Tasks popped from the dynamic section without stealing: the
    /// shared queue under [`QueueDiscipline::Global`], the worker's own
    /// shard under [`QueueDiscipline::Sharded`]
    /// (both of [`calu_sched::QueueDiscipline`]).
    pub global_pops: u64,
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
    /// (armed [`calu_core::FaultPlan`]s only; identically zero
    /// otherwise). Rescue preserves the factors bitwise — the DAG's
    /// exclusive-writer discipline makes them schedule-independent —
    /// so a nonzero count here marks a run that *degraded*, not one
    /// that diverged.
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
    /// Mean busy fraction of the `makespan × threads` rectangle.
    ///
    /// Deliberately unclamped: a value above 1 means the backend's
    /// accounting double-counted busy seconds, and the invariant tests
    /// rely on seeing that rather than a silently capped 100%.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.threads.is_empty() {
            return 0.0;
        }
        let busy: f64 = self
            .threads
            .iter()
            .map(|t| t.work + t.overhead + t.memory + t.noise)
            .sum();
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

    /// Distill these metrics into the adaptive controller's input — the
    /// feedback edge of [`crate::Solver::adaptive`]. Uses exactly the
    /// aggregate accessors above ([`ContentionStats::failure_rate`],
    /// [`StealLocality::remote_fraction`], [`total_idle`],
    /// [`total_rescued`], [`lost_workers`]), so observations built from
    /// a threaded report, a simulated report and a service
    /// engine `Outcome` all read on one scale.
    ///
    /// [`total_idle`]: ScheduleMetrics::total_idle
    /// [`total_rescued`]: ScheduleMetrics::total_rescued
    /// [`lost_workers`]: ScheduleMetrics::lost_workers
    pub(crate) fn observation(&self, dims: (usize, usize)) -> calu_sched::adaptive::Observation {
        calu_sched::adaptive::Observation::new(
            self.threads.len().max(1),
            self.makespan,
            self.total_idle(),
        )
        .with_contention(self.contention().failure_rate())
        .with_remote_fraction(self.steal_locality().remote_fraction())
        .with_lost(self.lost_workers())
        .with_rescued(self.total_rescued())
        .with_dims(dims.0, dims.1)
    }
}

/// How [`crate::Solver::adaptive`] resolved this run's split: the
/// topology-seeded starting point, the split the run actually used, and
/// the observation trace that led there. `chosen` is what the executor
/// ran — compare it with [`Report::scheduler`]'s configured value to
/// see the controller at work.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationReport {
    /// The split the controller started from (host/machine topology
    /// seed, before any observation).
    pub seed: calu_sched::adaptive::SplitChoice,
    /// The split this run executed under.
    pub chosen: calu_sched::adaptive::SplitChoice,
    /// Observations the controller had consumed when this run was
    /// planned.
    pub observations: usize,
    /// The adaptation trace up to this run: one step per observation.
    pub steps: Vec<calu_sched::adaptive::AdaptationStep>,
}

impl AdaptationReport {
    /// Whether feedback moved the split off its topology seed.
    pub fn adapted(&self) -> bool {
        self.chosen != self.seed
    }
}

/// The structured report returned by [`crate::Solver::run`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Name of the backend that produced this report.
    pub backend: String,
    /// Algorithm that was run.
    pub algorithm: Algorithm,
    /// Scheduling strategy.
    pub scheduler: SchedulerKind,
    /// Dynamic-section queue discipline the run used.
    pub queue_discipline: QueueDiscipline,
    /// Data layout.
    pub layout: Layout,
    /// Problem dimensions `(m, n)`.
    pub dims: (usize, usize),
    /// Tile size `b`.
    pub b: usize,
    /// Worker threads / simulated cores.
    pub threads: usize,
    /// DAG tasks executed (0 for drivers without a task graph).
    pub tasks: usize,
    /// Schedule length in seconds.
    pub makespan: f64,
    /// Nominal flop count — the numerator of every Gflop/s figure in
    /// the paper. See [`nominal_flops`] for the exact convention
    /// (`mn² − n³/3` for LU with `m ≥ n`, generalized for wide
    /// matrices; `n³/3` for Cholesky).
    pub nominal_flops: f64,
    /// The factors, when the backend computed them for real.
    pub factorization: Option<Factorization>,
    /// Relative factorization residual (real backends with data):
    /// `‖PA − LU‖/‖A‖` for the LU algorithms, `‖A − LLᵀ‖/‖A‖` for
    /// [`Algorithm::Cholesky`]. Exception: [`Algorithm::IncPiv`] keeps
    /// per-tile factors, so it reports a solve-based backward error
    /// `‖Ax − b‖/(‖A‖‖x‖)` for a seeded random rhs instead — the two
    /// metrics are close in magnitude but not the same quantity.
    pub residual: Option<f64>,
    /// Element growth factor `max|U|/max|A|` (real backends with data).
    /// A pivoting figure, so LU only — `None` for Cholesky.
    pub growth_factor: Option<f64>,
    /// Unified schedule metrics.
    pub schedule: ScheduleMetrics,
    /// Full per-task timeline when tracing was requested.
    pub timeline: Option<Timeline>,
    /// How the adaptive controller resolved this run's split — `None`
    /// unless the run came from a [`crate::Solver::adaptive`] solver.
    pub adaptation: Option<AdaptationReport>,
}

impl Report {
    /// Gflop/s by the paper's convention: nominal flops over makespan.
    pub fn gflops(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.nominal_flops / self.makespan / 1e9
    }

    /// Machine utilization (busy fraction; see
    /// [`ScheduleMetrics::utilization`]).
    pub fn utilization(&self) -> f64 {
        self.schedule.utilization()
    }

    /// Total bytes moved across NUMA sockets (simulated backends).
    pub fn remote_bytes(&self) -> f64 {
        self.schedule.threads.iter().map(|t| t.remote_bytes).sum()
    }

    /// Overall tile-cache hit rate (simulated backends; 0 when unknown).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.schedule.threads.iter().map(|t| t.cache_hits).sum();
        let misses: u64 = self.schedule.threads.iter().map(|t| t.cache_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// The structured result of one [`crate::Solver::batch`] sweep: every
/// item's full [`Report`] plus batch-level throughput.
///
/// Per-item makespans overlap when items are co-scheduled, so
/// batch-level rates are always computed against [`wall_secs`], the
/// end-to-end sweep time — never against the sum of item makespans.
///
/// [`wall_secs`]: BatchReport::wall_secs
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Name of the backend that ran the sweep.
    pub backend: String,
    /// Worker threads / simulated cores in the pool.
    pub threads: usize,
    /// Per-item reports, in input order.
    pub items: Vec<Report>,
    /// End-to-end sweep seconds (wall clock for the threaded backend,
    /// modelled batch time for the simulator).
    pub wall_secs: f64,
    /// Seconds until the last pool worker entered its work loop — paid
    /// once per batch instead of once per item. 0 where not modelled,
    /// and for a sweep on an already-warm
    /// [`crate::serve::FactorService`], whose spawn was paid when the
    /// service came up, not by this call.
    pub pool_spawn_secs: f64,
    /// Items that were co-scheduled (claimed whole by one pool worker)
    /// rather than run on the full hybrid schedule.
    pub co_scheduled: usize,
}

impl BatchReport {
    /// Number of items in the sweep.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the sweep held no items (never true for a report built
    /// by [`crate::Solver::batch`], which rejects empty batches).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Batch throughput in items per second.
    pub fn items_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.items.len() as f64 / self.wall_secs
        }
    }

    /// Aggregate Gflop/s: every item's nominal flops over the batch
    /// wall time (the paper's plotting convention, batch-wide).
    pub fn aggregate_gflops(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        let flops: f64 = self.items.iter().map(|r| r.nominal_flops).sum();
        flops / self.wall_secs / 1e9
    }

    /// Total DAG tasks executed across items.
    pub fn total_tasks(&self) -> usize {
        self.items.iter().map(|r| r.tasks).sum()
    }
}

/// Nominal flop count of one factorization — the paper's plotting
/// convention, delegated to `calu_sim::cost` so both backends share the
/// exact same Gflop/s denominator.
pub fn nominal_flops(algorithm: Algorithm, m: usize, n: usize) -> f64 {
    match algorithm {
        Algorithm::Calu | Algorithm::Gepp | Algorithm::IncPiv => {
            calu_sim::cost::lu_nominal_flops(m, n)
        }
        Algorithm::Cholesky => calu_sim::cost::cholesky_nominal_flops(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ScheduleMetrics {
        ScheduleMetrics {
            makespan: 2.0,
            threads: vec![
                ThreadMetrics {
                    work: 1.5,
                    idle: 0.5,
                    tasks: 6,
                    local_pops: 5,
                    global_pops: 1,
                    ..Default::default()
                },
                ThreadMetrics {
                    work: 1.0,
                    idle: 1.0,
                    noise: 0.5,
                    tasks: 4,
                    local_pops: 1,
                    global_pops: 1,
                    stolen_pops: 2,
                    remote_steal_pops: 1,
                    failed_steals: 3,
                    rescued: 4,
                    lost: true,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn aggregates_add_up() {
        let m = metrics();
        assert!((m.utilization() - 3.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.total_idle(), 1.5);
        assert_eq!(m.per_thread_idle(), vec![0.5, 1.0]);
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
    }

    #[test]
    fn nominal_flop_conventions() {
        let n = 100.0f64;
        assert!((nominal_flops(Algorithm::Calu, 100, 100) - (n * n * n * 2.0 / 3.0)).abs() < 1e-6);
        assert!((nominal_flops(Algorithm::Cholesky, 100, 100) - n * n * n / 3.0).abs() < 1e-6);
        assert!(
            nominal_flops(Algorithm::Calu, 32, 128) > 0.0,
            "wide matrices must not report negative flops"
        );
    }

    #[test]
    fn observation_mirrors_the_aggregate_accessors() {
        let m = metrics();
        let obs = m.observation((10, 20));
        assert!((obs.idle_fraction() - m.total_idle() / (2.0 * m.makespan)).abs() < 1e-12);
        assert!((obs.contention - m.contention().failure_rate()).abs() < 1e-12);
        assert!((obs.remote_fraction - m.steal_locality().remote_fraction()).abs() < 1e-12);
        assert_eq!(obs.lost_workers, 1);
        assert_eq!(obs.rescued, 4);
        assert_eq!(obs.dims, (10, 20));
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(QueueBreakdown::default().dynamic_fraction(), 0.0);
        assert_eq!(ScheduleMetrics::default().utilization(), 0.0);
        assert_eq!(ContentionStats::default().failure_rate(), 0.0);
    }

    #[test]
    fn batch_report_aggregates() {
        let item = |flops: f64, tasks: usize| Report {
            backend: "x".into(),
            algorithm: Algorithm::Calu,
            scheduler: SchedulerKind::Hybrid { dratio: 0.1 },
            queue_discipline: QueueDiscipline::Global,
            layout: Layout::BlockCyclic,
            dims: (10, 10),
            b: 5,
            threads: 2,
            tasks,
            makespan: 1.0,
            nominal_flops: flops,
            factorization: None,
            residual: None,
            growth_factor: None,
            schedule: ScheduleMetrics::default(),
            timeline: None,
            adaptation: None,
        };
        let b = BatchReport {
            backend: "x".into(),
            threads: 2,
            items: vec![item(2e9, 3), item(4e9, 5)],
            wall_secs: 2.0,
            pool_spawn_secs: 0.5e-3,
            co_scheduled: 1,
        };
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!((b.items_per_sec() - 1.0).abs() < 1e-12);
        assert!((b.aggregate_gflops() - 3.0).abs() < 1e-12);
        assert_eq!(b.total_tasks(), 8);
        let zero = BatchReport {
            wall_secs: 0.0,
            ..b.clone()
        };
        assert_eq!(zero.items_per_sec(), 0.0);
        assert_eq!(zero.aggregate_gflops(), 0.0);
    }
}
