//! The unified `Solver` builder — one front door for every knob in the
//! paper's design space (Table 1), executed by any [`Backend`].
//!
//! The builder owns the *problem* (matrix source, tile size) and the
//! *strategy* (threads/grid, layout, scheduler, grouping, TSLU leaves,
//! tracing); the backend owns only the *execution substrate* (real
//! threads vs. a simulated machine). Validation happens exactly once,
//! in [`Solver::plan`], through [`CaluConfig::validate`] — the same
//! check the low-level drivers use — so an invalid configuration fails
//! identically no matter which entry point built it.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use calu_core::{CaluConfig, CaluError, FaultPlan, KernelSet, Source};
use calu_dag::{Algorithm, TaskGraph};
use calu_matrix::{DenseMatrix, Layout, ProcessGrid};
use calu_sched::adaptive::{AdaptiveController, AdaptivePolicy, SplitChoice};
use calu_sched::{QueueDiscipline, SchedulerKind};

use crate::backend::{Backend, ThreadedBackend};
use crate::error::Error;
use crate::report::{AdaptationReport, BatchReport, Report};

/// Where the input matrix comes from.
///
/// Real backends need element data ([`MatrixSource::Dense`] or a seeded
/// generator); the discrete-event simulator only needs the shape, so
/// [`MatrixSource::Shape`] lets sweeps over n = 10⁴-class problems skip
/// materialization entirely.
#[derive(Debug, Clone)]
pub enum MatrixSource {
    /// Explicit element data.
    Dense(DenseMatrix),
    /// Seeded uniform `[-1, 1]` entries, generated on demand.
    Uniform {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Seeded symmetric positive-definite matrix
    /// (`calu_matrix::gen::spd_uniform`), generated on demand — the
    /// seeded source [`Algorithm::Cholesky`] requires.
    SpdUniform {
        /// Order (the matrix is `n×n`).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Shape only — enough for simulation, rejected by real backends.
    Shape {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
    },
}

impl MatrixSource {
    /// Square seeded uniform matrix.
    pub fn uniform(n: usize, seed: u64) -> Self {
        MatrixSource::Uniform { m: n, n, seed }
    }

    /// Rectangular seeded uniform matrix.
    pub fn uniform_rect(m: usize, n: usize, seed: u64) -> Self {
        MatrixSource::Uniform { m, n, seed }
    }

    /// Seeded symmetric positive-definite matrix.
    pub fn spd_uniform(n: usize, seed: u64) -> Self {
        MatrixSource::SpdUniform { n, seed }
    }

    /// Shape-only source for simulated sweeps.
    pub fn shape(m: usize, n: usize) -> Self {
        MatrixSource::Shape { m, n }
    }

    /// Problem dimensions `(m, n)`.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            MatrixSource::Dense(a) => (a.rows(), a.cols()),
            MatrixSource::SpdUniform { n, .. } => (*n, *n),
            MatrixSource::Uniform { m, n, .. } | MatrixSource::Shape { m, n } => (*m, *n),
        }
    }

    /// The executor-engine job source for this matrix — the one place a
    /// facade source becomes a [`calu_core::Source`]: dense data is
    /// borrowed (never copied), seeded generators stay lazy. `None` for
    /// a shape-only source.
    pub(crate) fn job_source(&self) -> Option<Source<'_>> {
        match *self {
            MatrixSource::Dense(ref a) => Some(Source::Dense(a)),
            MatrixSource::Uniform { m, n, seed } => Some(Source::Uniform { m, n, seed }),
            MatrixSource::SpdUniform { n, seed } => Some(Source::SpdUniform { n, seed }),
            MatrixSource::Shape { .. } => None,
        }
    }

    /// Materialize element data, if this source has any. Dense sources
    /// are borrowed, not copied, so repeated `Solver::run` calls on one
    /// matrix pay no per-run memcpy.
    pub fn materialize(&self) -> Option<Cow<'_, DenseMatrix>> {
        self.job_source().map(Source::materialize)
    }
}

impl From<DenseMatrix> for MatrixSource {
    fn from(a: DenseMatrix) -> Self {
        MatrixSource::Dense(a)
    }
}

/// A fully validated execution plan, handed to [`Backend::execute`].
///
/// Backends never re-derive knobs: everything here has already passed
/// the single shared validation path.
#[derive(Debug, Clone)]
pub struct Plan<'a> {
    /// The input matrix source.
    pub source: &'a MatrixSource,
    /// 2D block-cyclic thread grid: a function of the thread count and
    /// of this source's tile shape ([`CaluConfig::grid_and_leaves`]) —
    /// square inputs get the near-square grid, tall-skinny ones a
    /// column of threads.
    pub grid: ProcessGrid,
    /// Scheduling strategy.
    pub scheduler: SchedulerKind,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Record a full per-task timeline.
    pub record_trace: bool,
    /// Compute residual/growth-factor checks on real backends.
    pub verify: bool,
    /// The validated driver config — the single source of truth for the
    /// knobs it owns, read through [`Plan::config`] so the public plan
    /// can never disagree with what the executor runs.
    cfg: CaluConfig,
    /// TSLU leaves per panel, derived with `grid` by the same rule.
    leaves: usize,
    /// How the adaptive controller resolved this plan's split, when the
    /// solver is adaptive (attached to the [`Report`] after execution).
    adaptation: Option<AdaptationReport>,
}

impl Plan<'_> {
    /// The validated config the executor runs: tile size, resolved
    /// thread count, dratio (`Static` → 0, `Dynamic`/`WorkStealing` →
    /// 1), layout, effective grouping width (1 when the layout cannot
    /// group), queue discipline and the batch and fault knobs.
    pub fn config(&self) -> &CaluConfig {
        &self.cfg
    }

    /// Data layout.
    pub fn layout(&self) -> Layout {
        self.cfg.layout
    }

    /// How the adaptive controller resolved this plan's split (`None`
    /// for non-adaptive solvers).
    pub fn adaptation(&self) -> Option<&AdaptationReport> {
        self.adaptation.as_ref()
    }

    /// TSLU leaves per panel (defaults to the row count of this
    /// plan's — this item's — grid).
    pub fn leaf_stride(&self) -> usize {
        self.leaves
    }

    /// Build the task DAG for this plan's algorithm and shape.
    pub fn build_graph(&self) -> TaskGraph {
        let (m, n) = self.source.dims();
        self.algorithm.build_graph(m, n, self.cfg.b, self.leaves)
    }

    /// An owned copy of [`Plan::config`].
    pub fn calu_config(&self) -> CaluConfig {
        self.cfg.clone()
    }
}

/// The unified solver builder. See the crate docs for a quickstart.
pub struct Solver {
    source: MatrixSource,
    /// The knobs as the setters left them; [`Solver::plan`] resolves
    /// threads, dratio, queue, group and cutoff into its own copy.
    cfg: CaluConfig,
    // unset, the backend may default them
    threads: Option<usize>,
    queue: Option<QueueDiscipline>,
    // set, they win over the layout rule and the adaptive controller
    group: Option<usize>,
    batch_small_cutoff: Option<usize>,
    scheduler: SchedulerKind,
    algorithm: Algorithm,
    trace: bool,
    verify: bool,
    adaptive: Option<AdaptiveState>,
    backend: Box<dyn Backend>,
}

/// The solver's adaptive-scheduling state: the validated policy plus
/// the feedback controller, created lazily at the first [`Solver::plan`]
/// (the thread count and backend topology are only resolved there).
/// Interior mutability because `plan` takes `&self`; the `Arc` lets a
/// spawned [`crate::serve::ReportService`] keep feeding the same
/// controller from its completion path. The mutex is uncontended in
/// normal use — it exists so a `Solver` shared across threads keeps one
/// coherent observation history.
pub(crate) struct AdaptiveState {
    policy: AdaptivePolicy,
    controller: Arc<Mutex<Option<AdaptiveController>>>,
}

impl AdaptiveState {
    /// Run `f` against the (lazily created) controller.
    fn with_controller<R>(
        &self,
        topo: impl FnOnce() -> calu_sched::CpuTopology,
        threads: usize,
        f: impl FnOnce(&mut AdaptiveController) -> R,
    ) -> R {
        let mut guard = self.controller.lock().unwrap();
        let ctl = guard
            .get_or_insert_with(|| AdaptiveController::new(self.policy.clone(), &topo(), threads));
        f(ctl)
    }
}

impl Solver {
    /// Start a solver for `source` with the paper's defaults: tile size
    /// 100, BCL layout, hybrid scheduling with a 10% dynamic share, the
    /// real threaded backend.
    pub fn new(source: impl Into<MatrixSource>) -> Self {
        Self {
            source: source.into(),
            cfg: CaluConfig::new(100),
            threads: None,
            queue: None,
            group: None,
            batch_small_cutoff: None,
            scheduler: SchedulerKind::Hybrid { dratio: 0.1 },
            algorithm: Algorithm::Calu,
            trace: false,
            verify: true,
            adaptive: None,
            backend: Box::new(ThreadedBackend),
        }
    }

    /// Set the tile size `b`.
    pub fn tile(mut self, b: usize) -> Self {
        self.cfg.b = b;
        self
    }

    /// Set the worker-thread / simulated-core count. Unset, the backend
    /// chooses (threaded: 1; simulated: the machine's core count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Set the data layout.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.cfg.layout = layout;
        self
    }

    /// Set the scheduling strategy.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Shorthand for `scheduler(SchedulerKind::Hybrid { dratio })`.
    pub fn dratio(self, dratio: f64) -> Self {
        self.scheduler(SchedulerKind::Hybrid { dratio })
    }

    /// Set the dynamic-section queue discipline explicitly. Unset, the
    /// backend chooses: the threaded backend defaults to
    /// [`QueueDiscipline::LockFree`] (per-worker Chase-Lev deques with
    /// locality-tiered stealing), the
    /// simulated backend to [`QueueDiscipline::Global`] (the paper's
    /// single shared queue, keeping the reproduced figures faithful);
    /// schedulers without a dynamic section always get `Global`.
    /// [`QueueDiscipline::Sharded`] (per-worker mutex'd priority shards)
    /// remains available as the parity oracle. An *explicit* stealing
    /// discipline requires a scheduler with a dynamic section (rejected
    /// with `Static`, where there is nothing to shard or steal).
    pub fn queue_discipline(mut self, queue: QueueDiscipline) -> Self {
        self.queue = Some(queue);
        self
    }

    /// Pin worker threads to CPUs by the detected host topology
    /// (threaded backend; default off). Pinning makes the lock-free
    /// discipline's "same socket" steal tier mean the same socket in
    /// silicon, at the price of fairness on oversubscribed machines —
    /// turn it on for dedicated-machine benchmark runs.
    pub fn pin_workers(mut self, pin: bool) -> Self {
        self.cfg.pin_workers = pin;
        self
    }

    /// Set the BLAS-3 grouping width `k` (default 3, the paper's): a
    /// worker that pops a static S task runs it together with up to
    /// `k − 1` further ready S tasks of the same panel and column whose
    /// tiles follow it in its BCL storage, as one taller GEMM — fewer
    /// dequeues, a better-filled kernel, the same bits (each element
    /// sums the same products in the same order). Under Cholesky the
    /// off-diagonal `A·Bᵀ` updates group; the diagonal SYRK runs alone.
    /// The simulator runs the same claiming loop
    /// (`ReadyQueues::pop_own`), joining by panel and column and from
    /// the dynamic section too. Conflicts with layouts that cannot
    /// group (checked at [`Solver::run`]).
    pub fn grouping(mut self, k: usize) -> Self {
        self.group = Some(k);
        self
    }

    /// Override the TSLU leaf stride (leaves per panel). Defaults to
    /// the row count of the *item's* thread grid, as in the paper: the
    /// grid follows each matrix's tile shape, so a tall-skinny input
    /// gets one leaf per thread and the items of a mixed-shape batch
    /// each get their own. An explicit value applies to every item.
    pub fn tslu_leaves(mut self, stride: usize) -> Self {
        self.cfg.leaf_stride = Some(stride);
        self
    }

    /// The co-scheduling knob of [`Solver::batch`] sweeps and served
    /// jobs: on more than one thread, an item whose larger dimension
    /// (in elements) is at most `cutoff` counts as *small* and is
    /// claimed whole by **one** worker; larger items run on the full
    /// hybrid schedule (default
    /// [`calu_core::DEFAULT_BATCH_SMALL_CUTOFF`]). `0` co-schedules
    /// nothing. The simulated backend models the same routing, one core
    /// per small item.
    ///
    /// [`calu_core::DEFAULT_BATCH_SMALL_CUTOFF`]: calu_core::DEFAULT_BATCH_SMALL_CUTOFF
    pub fn batch_small_cutoff(mut self, cutoff: usize) -> Self {
        self.batch_small_cutoff = Some(cutoff);
        self
    }

    /// Inject a deterministic [`FaultPlan`] into the real executor
    /// (default off). Per-worker slowdowns, one-shot stalls, worker
    /// loss and kernel panics fire on the actual worker threads, keyed
    /// off the plan's seed so a chaos run replays bitwise; the hybrid
    /// schedule *degrades* rather than fails — a lost or slow worker's
    /// static tasks are rescued into the dynamic queues and the factors
    /// stay bitwise-identical to a fault-free run (injected panics
    /// surface as typed [`calu_core::CaluError::TaskPanic`] instead).
    /// Validated against the thread count in [`Solver::plan`]; the
    /// simulated backend prices faults through its own machine knobs,
    /// and batch sweeps reject armed plans.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault = plan;
        self
    }

    /// Close the scheduling feedback loop: let an
    /// [`AdaptiveController`] pick the static/dynamic split and the
    /// batch co-scheduling cutoff from what the system already
    /// measures, instead of the fixed knobs above.
    ///
    /// The controller seeds its split from the backend's topology
    /// (detected host sockets for the threaded backend, the machine
    /// model for the simulator), then moves it after every completed
    /// [`Solver::run`] / [`Solver::batch`] item using the report's own
    /// schedule metrics — idle fraction, steal-sweep failure rate,
    /// lost workers, rescued tasks. The observations accumulate in the
    /// controller's memory for the life of this solver (and of any
    /// service it spawns); see [`calu_sched::adaptive`] for the update
    /// rules.
    ///
    /// Adaptation replaces the *configured* scheduler: every adaptive
    /// plan runs `Hybrid { dratio }` at the controller's current choice
    /// (bounded by the policy, which [`Solver::plan`] validates). It
    /// never changes a schedule mid-DAG — choices move between
    /// runs/items only — so the factors stay bitwise-identical to a
    /// fixed-knob run at the same chosen split. An explicit
    /// [`Solver::batch_small_cutoff`] still wins over the controller's
    /// cutoff choice.
    pub fn adaptive(mut self, policy: AdaptivePolicy) -> Self {
        self.adaptive = Some(AdaptiveState {
            policy,
            controller: Arc::new(Mutex::new(None)),
        });
        self
    }

    /// A shared handle on the adaptive controller, for the service
    /// layer's completion path (`None` for non-adaptive solvers).
    pub(crate) fn adaptive_controller(&self) -> Option<Arc<Mutex<Option<AdaptiveController>>>> {
        self.adaptive.as_ref().map(|s| Arc::clone(&s.controller))
    }

    /// The adaptive controller's current split — `None` until an
    /// adaptive solver has planned at least once.
    pub fn adaptive_split(&self) -> Option<SplitChoice> {
        let state = self.adaptive.as_ref()?;
        let guard = state.controller.lock().unwrap();
        guard.as_ref().map(|c| c.choice())
    }

    /// Select the algorithm (default [`Algorithm::Calu`]). CALU and
    /// Cholesky run for real on [`ThreadedBackend`], on the same hybrid
    /// static/dynamic engine; GEPP and incremental pivoting on
    /// sequential reference drivers; all four as a cost model on the
    /// simulated backend. Cholesky requires a square SPD source (use
    /// [`MatrixSource::SpdUniform`] for seeded inputs; a non-SPD dense
    /// input is flagged at run time via the report's `singular_at`).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Record a full per-task timeline in the report (default off).
    /// An untraced report carries the same schedule figures, folded by
    /// each worker as it runs; a trace adds only the spans
    /// ([`crate::Report::timeline`]), at 32 bytes a task — for solo
    /// runs, batches and served jobs alike.
    pub fn trace(mut self, record: bool) -> Self {
        self.trace = record;
        self
    }

    /// Compute residual and growth-factor checks after a real run
    /// (default on). The checks cost a sequential O(n³) reconstruction —
    /// turn them off in timing loops where only the schedule matters.
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Select the execution backend (default [`ThreadedBackend`]).
    pub fn backend(mut self, backend: impl Backend + 'static) -> Self {
        self.backend = Box::new(backend);
        self
    }

    /// Validate every knob once and produce the execution [`Plan`].
    ///
    /// All configuration errors of the workspace funnel through here:
    /// the algorithm against the source's shape (non-empty; Cholesky
    /// needs a square source and not the general `Uniform` generator),
    /// the adaptive policy, [`CaluConfig::validate`] on the resolved
    /// config (tile size, threads, dratio, grouping, TSLU leaves, the
    /// fault plan against the threads, a stealing queue with no dynamic
    /// section) and an explicit grouping on a layout that cannot group.
    /// What depends on the substrate stays with the backend: a
    /// shape-only source on a real backend, the simulated machine's
    /// core count, and the threaded backend's engine route (the
    /// work-stealing baseline and fault plans on the sequential
    /// reference drivers are refused there).
    pub fn plan(&self) -> Result<Plan<'_>, Error> {
        self.plan_for(&self.source)
    }

    /// [`Solver::plan`] against an arbitrary source: the same knobs and
    /// the same validation, applied to one item of a batched sweep.
    fn plan_for<'a>(&'a self, source: &'a MatrixSource) -> Result<Plan<'a>, Error> {
        let dims = source.dims();
        // the reference LU drivers take any non-empty shape, as the
        // engine's LU kernels do
        KernelSet::for_algorithm(self.algorithm)
            .unwrap_or(KernelSet::CaluLu)
            .check_shape(dims)
            .map_err(|e| match e {
                CaluError::InvalidConfig(msg) => {
                    Error::Config(format!("{msg}; use a square source or an LU algorithm"))
                }
                e => e.into(),
            })?;
        if self.algorithm == Algorithm::Cholesky && matches!(source, MatrixSource::Uniform { .. }) {
            return Err(Error::Config(
                "Cholesky requires a symmetric positive-definite input, but \
                 MatrixSource::Uniform generates a general matrix; use \
                 MatrixSource::SpdUniform (or pass SPD data as Dense)"
                    .into(),
            ));
        }
        let threads = self
            .threads
            .or_else(|| self.backend.preferred_threads())
            .unwrap_or(1);
        // an adaptive solver resolves its split through the feedback
        // controller (seeded lazily from the backend's topology at the
        // first plan) once its policy validates; plan_choice() is
        // idempotent within one batch, so every item of a sweep gets
        // the identical choice
        if let Some(state) = &self.adaptive {
            state.policy.validate().map_err(Error::Config)?;
        }
        let adaptation = self.adaptive.as_ref().map(|state| {
            state.with_controller(
                || self.backend.topology(),
                threads,
                |ctl| AdaptationReport {
                    seed: ctl.seed_choice(),
                    chosen: ctl.plan_choice(),
                    observations: ctl.observations(),
                    steps: ctl.trace().to_vec(),
                },
            )
        });
        let scheduler = match &adaptation {
            Some(a) => SchedulerKind::Hybrid {
                dratio: a.chosen.dratio,
            },
            None => self.scheduler,
        };
        let mut cfg = self.cfg.clone();
        cfg.threads = threads;
        cfg.dratio = match scheduler {
            SchedulerKind::Static => 0.0,
            SchedulerKind::Dynamic | SchedulerKind::WorkStealing { .. } => 1.0,
            SchedulerKind::Hybrid { dratio } => dratio,
        };
        // an explicit queue discipline always wins (and is validated as
        // given); otherwise the backend's preference applies wherever a
        // dynamic section exists, with the paper's global queue as the
        // universal fallback
        cfg.queue = match self.queue {
            Some(queue) => queue,
            None if cfg.dratio > 0.0 => self
                .backend
                .preferred_queue()
                .unwrap_or(QueueDiscipline::Global),
            None => QueueDiscipline::Global,
        };
        let chosen_cutoff = adaptation.as_ref().map(|a| a.chosen.batch_small_cutoff);
        if let Some(cutoff) = self.batch_small_cutoff.or(chosen_cutoff) {
            cfg.batch_small_cutoff = cutoff;
        }
        cfg.group = self.group.unwrap_or(cfg.group);
        cfg.validate()?;
        if self.group.is_some() && cfg.group > 1 && !cfg.layout.supports_grouping() {
            return Err(Error::Config(format!(
                "grouping k = {} requires a layout with thread-contiguous \
                 columns, but {} stores tiles separately; use \
                 Layout::BlockCyclic or drop .grouping()",
                cfg.group, cfg.layout
            )));
        }
        // resolve the derived knob in place: the stored config is the
        // single source of truth the plan and the executor read.
        // `leaf_stride` stays as the caller left it — the default
        // follows each item's grid, and the plans of one batch must
        // share one config whatever their shapes
        cfg.group = cfg.effective_group();
        // the rule the engine applies to the job it builds from this
        // plan, so the plan's grid, leaves and graph (and the
        // simulator, which runs on them) agree with the threads
        let (grid, leaves) = cfg.grid_and_leaves(dims, threads)?;
        Ok(Plan {
            source,
            grid,
            leaves,
            scheduler,
            algorithm: self.algorithm,
            record_trace: self.trace,
            verify: self.verify,
            cfg,
            adaptation,
        })
    }

    /// Validate, execute on the selected backend, and return the
    /// structured [`Report`].
    ///
    /// On an adaptive solver the completed run's schedule metrics are
    /// fed straight back into the controller, so the *next* `run` (or
    /// batch item, or service job) plans under an updated split; the
    /// report carries the [`AdaptationReport`] that produced this one.
    pub fn run(&self) -> Result<Report, Error> {
        let plan = self.plan()?;
        let mut report = self.backend.execute(&plan)?;
        report.adaptation = plan.adaptation().cloned();
        self.observe_report(&report);
        Ok(report)
    }

    /// Feed one completed report back into the adaptive controller
    /// (no-op for non-adaptive solvers).
    fn observe_report(&self, report: &Report) {
        if let Some(state) = &self.adaptive {
            state.with_controller(
                || self.backend.topology(),
                report.threads,
                |ctl| ctl.observe(&report.schedule.observation(report.dims)),
            );
        }
    }

    /// Factor every matrix in `sources` as one batched sweep and return
    /// the aggregate [`BatchReport`].
    ///
    /// Every item runs under this builder's knobs (tile size, threads,
    /// scheduler, queue discipline, …) — the builder's *own* source is
    /// not part of the batch, only `sources` are. On
    /// [`ThreadedBackend`] the sweep runs on one persistent worker pool
    /// (spawned once; per-worker scratch arenas and deques alive across
    /// items; small items co-scheduled whole-per-worker, large ones on
    /// the full hybrid static/dynamic schedule — see
    /// [`Solver::batch_small_cutoff`]); each item's factors are
    /// bitwise-identical to a solo [`Solver::run`] on that source.
    /// [`crate::SimulatedBackend`] models the same routing, one core
    /// per small item; other backends fall back to looping over
    /// [`Solver::run`]. An empty `sources` is a configuration error.
    pub fn batch(&self, sources: &[MatrixSource]) -> Result<BatchReport, Error> {
        let plans = sources
            .iter()
            .map(|s| self.plan_for(s))
            .collect::<Result<Vec<_>, _>>()?;
        let mut batch = self.backend.run_batch(&plans)?;
        // adaptive feedback: the whole sweep planned under one choice
        // (plan_choice is idempotent between observations), so items are
        // observed after the fact, in order — the next sweep adapts
        let adaptation = plans.first().and_then(|p| p.adaptation().cloned());
        for item in &mut batch.items {
            item.adaptation = adaptation.clone();
        }
        for item in &batch.items {
            self.observe_report(item);
        }
        Ok(batch)
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("source_dims", &self.source.dims())
            .field("b", &self.cfg.b)
            .field("threads", &self.threads)
            .field("layout", &self.cfg.layout)
            .field("scheduler", &self.scheduler)
            .field("queue", &self.queue)
            .field("algorithm", &self.algorithm)
            .field("backend", &self.backend.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_resolves_paper_defaults() {
        let s = Solver::new(MatrixSource::uniform(400, 1)).threads(4);
        let p = s.plan().unwrap();
        let cfg = p.config();
        assert_eq!(cfg.b, 100);
        assert_eq!(cfg.threads, 4);
        assert_eq!(p.grid.size(), 4);
        assert_eq!(p.layout(), Layout::BlockCyclic);
        assert_eq!(cfg.group, 3, "BCL groups by default");
        assert_eq!(p.leaf_stride(), p.grid.pr());
        assert!((cfg.dratio - 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_grid_follows_each_source_shape_and_the_config_does_not() {
        let knobs = |src| Solver::new(src).tile(32).threads(4);
        let (tall, square, wide) = (
            knobs(MatrixSource::shape(2048, 64)),
            knobs(MatrixSource::shape(256, 256)),
            knobs(MatrixSource::shape(64, 2048)),
        );
        let dims = |p: &Plan<'_>| (p.grid.pr(), p.grid.pc());
        let (pt, ps, pw) = (
            tall.plan().unwrap(),
            square.plan().unwrap(),
            wide.plan().unwrap(),
        );
        assert_eq!((dims(&pt), dims(&ps), dims(&pw)), ((4, 1), (2, 2), (1, 4)));
        // leaves — and the graph the simulator runs — follow the grid…
        assert_eq!(
            (pt.leaf_stride(), ps.leaf_stride(), pw.leaf_stride()),
            (4, 2, 1)
        );
        assert_eq!(pt.build_graph().leaf_stride(), 4);
        // …but are not written into the executor config, which one
        // batch shares across shapes
        assert_eq!(pt.calu_config().leaf_stride, None);
        assert_eq!(pt.calu_config(), pw.calu_config());
        // an explicit leaf count is the caller's, whatever the grid
        let pinned = knobs(MatrixSource::shape(2048, 64)).tslu_leaves(2);
        let p = pinned.plan().unwrap();
        assert_eq!((dims(&p), p.leaf_stride()), ((4, 1), 2));
        assert_eq!(p.calu_config().leaf_stride, Some(2));
    }

    #[test]
    fn the_plan_and_the_engine_derive_one_grid_and_leaf_count() {
        // `Solver::plan` and the engine's job build both derive the
        // grid and the default leaves by `CaluConfig::grid_and_leaves`:
        // the engine runs the plan's graph, and pinning the plan's leaf
        // count moves no bit
        let knobs = |src| Solver::new(src).tile(32).threads(4).verify(false);
        for (m, n, seed) in [(512, 64, 31), (192, 192, 32), (64, 512, 33)] {
            let source = MatrixSource::uniform_rect(m, n, seed);
            let solver = knobs(source.clone());
            let plan = solver.plan().unwrap();
            let report = solver.run().unwrap();
            assert_eq!(report.tasks, plan.build_graph().len(), "{m}x{n}");
            let pinned = knobs(source).tslu_leaves(plan.leaf_stride()).run().unwrap();
            let (f, fp) = (
                report.factorization.as_ref().unwrap(),
                pinned.factorization.as_ref().unwrap(),
            );
            assert_eq!(f.lu.as_slice(), fp.lu.as_slice(), "{m}x{n}");
            assert_eq!(f.perm.pivots(), fp.perm.pivots(), "{m}x{n}");
        }
    }

    #[test]
    fn a_batch_mixes_shapes_that_resolve_to_different_grids() {
        // tall and wide items run co-operatively on 4×1 and 1×4 grids,
        // the square one is co-scheduled on 2×2: one sweep, one config
        let sources = [
            MatrixSource::uniform_rect(2048, 64, 21),
            MatrixSource::uniform(256, 22),
            MatrixSource::uniform_rect(64, 2048, 23),
        ];
        let knobs = |src| Solver::new(src).tile(32).threads(4).trace(true);
        let batch = knobs(MatrixSource::shape(1, 1)).batch(&sources).unwrap();
        assert_eq!(batch.co_scheduled, 1);
        for (item, source) in batch.items.iter().zip(&sources) {
            let solo = knobs(source.clone()).run().unwrap();
            let (f, fs) = (
                item.factorization.as_ref().unwrap(),
                solo.factorization.as_ref().unwrap(),
            );
            let (m, n) = source.dims();
            assert_eq!(f.lu.as_slice(), fs.lu.as_slice(), "{m}x{n}");
            assert_eq!(f.perm.pivots(), fs.perm.pivots(), "{m}x{n}");
            assert!(item.residual.unwrap() < 1e-12, "{m}x{n}");
            // the item's TSLU leaves are its own grid's rows: per panel
            // that many leaves, one combine fewer and a finish
            let rows = ProcessGrid::for_shape(4, m.div_ceil(32), n.div_ceil(32))
                .unwrap()
                .pr();
            let g = TaskGraph::build_calu(m, n, 32, rows);
            assert_eq!(item.tasks, g.len(), "{m}x{n}");
            let panel_spans = item
                .timeline
                .as_ref()
                .unwrap()
                .spans()
                .iter()
                .filter(|s| s.kind == calu_trace::SpanKind::Panel)
                .count();
            let expected: usize = (0..g.num_panels())
                .map(|k| 2 * rows.min(g.tile_rows() - k))
                .sum();
            assert_eq!(panel_spans, expected, "{m}x{n}");
        }
    }

    #[test]
    fn scheduler_resolves_dratio() {
        let s = |k| {
            Solver::new(MatrixSource::shape(200, 200))
                .scheduler(k)
                .plan()
                .map(|p| p.config().dratio)
        };
        assert_eq!(s(SchedulerKind::Static).unwrap(), 0.0);
        assert_eq!(s(SchedulerKind::Dynamic).unwrap(), 1.0);
        assert_eq!(s(SchedulerKind::Hybrid { dratio: 0.3 }).unwrap(), 0.3);
    }

    #[test]
    fn cholesky_requires_square_source() {
        let err = Solver::new(MatrixSource::shape(4000, 2000))
            .algorithm(Algorithm::Cholesky)
            .plan()
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::Config(ref m) if m.contains("square")),
            "{err}"
        );
    }

    #[test]
    fn cholesky_rejects_non_spd_generator_source() {
        let err = Solver::new(MatrixSource::uniform(400, 1))
            .algorithm(Algorithm::Cholesky)
            .plan()
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::Config(ref m) if m.contains("SpdUniform")),
            "{err}"
        );
        // the SPD generator, dense data and shape-only sources all plan
        for src in [
            MatrixSource::spd_uniform(400, 1),
            MatrixSource::Dense(calu_matrix::gen::spd_uniform(100, 2)),
            MatrixSource::shape(400, 400),
        ] {
            assert!(Solver::new(src)
                .algorithm(Algorithm::Cholesky)
                .plan()
                .is_ok());
        }
    }

    #[test]
    fn spd_source_dims_and_materialization() {
        let s = MatrixSource::spd_uniform(32, 9);
        assert_eq!(s.dims(), (32, 32));
        let a = s.materialize().unwrap();
        assert!(a.approx_eq(&calu_matrix::gen::spd_uniform(32, 9), 0.0));
    }

    #[test]
    fn non_grouping_layout_gets_group_one() {
        let s = Solver::new(MatrixSource::shape(200, 200)).layout(Layout::TwoLevelBlock);
        let p = s.plan().unwrap();
        assert_eq!(p.config().group, 1);
    }

    #[test]
    fn queue_discipline_defaults_to_the_backend_preference() {
        // threaded backend (the default): lock-free deques whenever a
        // dynamic section exists …
        let s = Solver::new(MatrixSource::shape(200, 200));
        assert!(s.plan().unwrap().config().queue.is_lock_free());
        // … and the paper's global queue when there is nothing to steal
        let all_static =
            Solver::new(MatrixSource::shape(200, 200)).scheduler(SchedulerKind::Static);
        assert_eq!(
            all_static.plan().unwrap().config().queue,
            QueueDiscipline::Global
        );
        // explicit choices always win over the preference
        let sharded =
            Solver::new(MatrixSource::shape(200, 200)).queue_discipline(QueueDiscipline::sharded());
        assert!(sharded.plan().unwrap().config().queue.is_sharded());
        let global =
            Solver::new(MatrixSource::shape(200, 200)).queue_discipline(QueueDiscipline::Global);
        assert_eq!(
            global.plan().unwrap().config().queue,
            QueueDiscipline::Global
        );
    }

    #[test]
    fn every_builder_knob_reaches_the_executor_config() {
        // one row per knob: the builder call, and the config the plan
        // hands the executor must differ from the default's exactly so
        type Knob = (&'static str, fn(Solver) -> Solver, fn(&mut CaluConfig));
        let table: [Knob; 11] = [
            ("tile", |s| s.tile(64), |c| c.b = 64),
            ("threads", |s| s.threads(4), |c| c.threads = 4),
            (
                "layout",
                |s| s.layout(Layout::TwoLevelBlock),
                |c| (c.layout, c.group) = (Layout::TwoLevelBlock, 1),
            ),
            ("dratio", |s| s.dratio(0.3), |c| c.dratio = 0.3),
            (
                "scheduler",
                |s| s.scheduler(SchedulerKind::Static),
                |c| (c.dratio, c.queue) = (0.0, QueueDiscipline::Global),
            ),
            (
                "queue_discipline",
                |s| s.queue_discipline(QueueDiscipline::Global),
                |c| c.queue = QueueDiscipline::Global,
            ),
            ("grouping", |s| s.grouping(5), |c| c.group = 5),
            (
                "tslu_leaves",
                |s| s.tslu_leaves(3),
                |c| c.leaf_stride = Some(3),
            ),
            (
                "pin_workers",
                |s| s.pin_workers(true),
                |c| c.pin_workers = true,
            ),
            (
                "batch_small_cutoff",
                |s| s.batch_small_cutoff(7),
                |c| c.batch_small_cutoff = 7,
            ),
            (
                "fault_plan",
                |s| s.fault_plan(FaultPlan::off().slow_worker(1, 2.0)),
                |c| c.fault = FaultPlan::off().slow_worker(1, 2.0),
            ),
        ];
        let base = || Solver::new(MatrixSource::shape(200, 200)).threads(2);
        let default = base().plan().unwrap().calu_config();
        assert!(default.fault.is_off() && !default.pin_workers);
        for (knob, set, expect) in table {
            let mut want = default.clone();
            expect(&mut want);
            assert_eq!(set(base()).plan().unwrap().config(), &want, "{knob}");
        }
    }

    #[test]
    fn fault_plan_validates_against_threads() {
        // a fault on a worker the thread count doesn't have is a config
        // error, caught in plan() like every other knob
        let err = Solver::new(MatrixSource::shape(200, 200))
            .threads(1)
            .fault_plan(FaultPlan::off().slow_worker(1, 2.0))
            .plan()
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::Config(ref m) if m.contains("worker")),
            "{err}"
        );
    }

    #[test]
    fn plan_validates_the_adaptive_policy() {
        let solver = |p| Solver::new(MatrixSource::shape(200, 200)).adaptive(p);
        assert!(solver(AdaptivePolicy::new(7)).plan().is_ok());
        let err = solver(AdaptivePolicy::new(7).with_dratio_bounds(0.0, 0.5))
            .plan()
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::Config(ref m) if m.contains("adaptive")),
            "{err}"
        );
    }

    #[test]
    fn sharded_discipline_rejects_static_scheduler() {
        let err = Solver::new(MatrixSource::shape(200, 200))
            .scheduler(SchedulerKind::Static)
            .queue_discipline(QueueDiscipline::sharded())
            .plan()
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::Config(ref m) if m.contains("dynamic")),
            "{err}"
        );
    }
}
