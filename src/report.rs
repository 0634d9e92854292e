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
//! The per-thread record and its aggregates ([`ThreadMetrics`],
//! [`ScheduleMetrics`] and the breakdowns they fold into) live in
//! [`calu_sched::schedule`], where both executors fill them; its module
//! docs carry the *schedule metrics at a glance* table. They are
//! re-exported here and at the crate root.

use calu_core::Factorization;
use calu_matrix::Layout;
use calu_sched::{QueueDiscipline, SchedulerKind};
use calu_trace::Timeline;

pub use calu_sched::schedule::{
    ContentionStats, QueueBreakdown, ScheduleMetrics, StealLocality, ThreadMetrics,
};

use crate::solver::Algorithm;

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

    /// Take `schedule` as this run's, with the figures the header
    /// repeats from it: the makespan, the thread count (one record per
    /// worker) and the task count (every task is counted once, by the
    /// worker that ran it).
    pub(crate) fn set_schedule(&mut self, schedule: ScheduleMetrics) {
        self.makespan = schedule.makespan;
        self.threads = schedule.threads.len();
        self.tasks = schedule.total_tasks() as usize;
        self.schedule = schedule;
    }

    /// Machine utilization (busy fraction; see
    /// [`ScheduleMetrics::utilization`]).
    pub fn utilization(&self) -> f64 {
        self.schedule.utilization()
    }

    /// Total bytes moved across NUMA sockets (simulated backends; see
    /// [`ScheduleMetrics::remote_bytes`]).
    pub fn remote_bytes(&self) -> f64 {
        self.schedule.remote_bytes()
    }

    /// Overall tile-cache hit rate (simulated backends; 0 when unknown;
    /// see [`ScheduleMetrics::cache_hit_rate`]).
    pub fn cache_hit_rate(&self) -> f64 {
        self.schedule.cache_hit_rate()
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
    fn the_header_repeats_the_schedule() {
        let cfg = calu_core::CaluConfig::new(5);
        let scheduler = SchedulerKind::Hybrid { dratio: 0.1 };
        let mut r = crate::backend::blank_report("x", Algorithm::Calu, scheduler, &cfg, (10, 10));
        let pops = |tasks| ThreadMetrics {
            tasks,
            ..Default::default()
        };
        r.set_schedule(ScheduleMetrics::new(2.5, vec![pops(3), pops(4), pops(0)]));
        assert_eq!((r.makespan, r.threads, r.tasks), (2.5, 3, 7));
        assert_eq!(r.schedule.per_thread_idle(), vec![2.5; 3]);
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
