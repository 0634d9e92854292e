//! Pluggable execution backends for the [`Solver`](crate::Solver).
//!
//! A [`Backend`] turns a validated [`Plan`] into a [`Report`]. Two
//! implementations ship with the crate:
//!
//! * [`ThreadedBackend`] — real execution: worker threads, real kernels,
//!   real pivoting, wall-clock schedule metrics (via `calu_core`'s
//!   one executor engine);
//! * [`SimulatedBackend`] — a discrete-event run of the same DAG under
//!   the same scheduling policies on a modelled machine (via
//!   `calu_sim::engine`), including NUMA costs and OS noise.
//!
//! Both fill the same [`Report`], so swapping one for the other inside
//! a benchmark loop is a one-line change. Future backends (sharded,
//! out-of-core, …) implement the same trait.

use std::time::Instant;

use calu_core::{
    factor_batch, factor_one, gepp_factor, incpiv_factor, BatchItem, CaluConfig, KernelSet, Outcome,
};
use calu_dag::Algorithm;
use calu_matrix::ProcessGrid;
use calu_sim::{MachineConfig, SimConfig, SimResult};

use crate::error::Error;
use crate::report::{nominal_flops, BatchReport, Report, ScheduleMetrics, ThreadMetrics};
use crate::solver::Plan;

/// An execution substrate for a validated [`Plan`].
pub trait Backend {
    /// Human-readable backend name, recorded in the [`Report`].
    fn name(&self) -> &str;

    /// Thread count to use when the caller leaves it unset.
    fn preferred_threads(&self) -> Option<usize> {
        None
    }

    /// Queue discipline to use when the caller leaves it unset *and*
    /// the plan has a dynamic section. `None` means the paper's shared
    /// global queue. The threaded backend prefers the lock-free deques;
    /// the simulator stays on the
    /// paper-verbatim global queue so the reproduced figures keep their
    /// meaning.
    fn preferred_queue(&self) -> Option<calu_sched::QueueDiscipline> {
        None
    }

    /// The CPU topology the adaptive controller seeds its split from:
    /// the detected host sockets by default; the simulator overrides
    /// this with its machine model so simulated adaptation seeds from
    /// the modelled machine, not the host running the model.
    fn topology(&self) -> calu_sched::CpuTopology {
        calu_sched::CpuTopology::detect()
    }

    /// Execute the plan.
    fn execute(&self, plan: &Plan<'_>) -> Result<Report, Error>;

    /// Execute a batched sweep: all `plans` share one configuration
    /// (they come from a single [`crate::Solver::batch`] call) and
    /// differ only in their matrix source. The default simply loops
    /// over [`Backend::execute`] — correct for every backend, with no
    /// amortization. [`ThreadedBackend`] overrides it with a persistent
    /// worker pool (spawned once, per-worker scratch and deques kept
    /// alive across items); [`SimulatedBackend`] models the same batch
    /// semantics on its machine model.
    fn run_batch(&self, plans: &[Plan<'_>]) -> Result<BatchReport, Error> {
        run_batch_loop(self, plans)
    }
}

/// The loop-over-`run` batch fallback: execute each plan on its own
/// (fresh thread pool per item on the threaded backend). This is both
/// the default [`Backend::run_batch`] and the baseline the pooled path
/// is measured against (`core.batch_over_loop` in `benchmark/`).
pub(crate) fn run_batch_loop<B: Backend + ?Sized>(
    backend: &B,
    plans: &[Plan<'_>],
) -> Result<BatchReport, Error> {
    non_empty(plans)?;
    let t0 = Instant::now();
    let items = plans
        .iter()
        .map(|p| backend.execute(p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BatchReport {
        backend: backend.name().into(),
        threads: plans[0].config().threads,
        items,
        wall_secs: t0.elapsed().as_secs_f64(),
        pool_spawn_secs: 0.0,
        co_scheduled: 0,
    })
}

/// `Backend::run_batch` is public, so an empty slice can reach it.
fn non_empty(plans: &[Plan<'_>]) -> Result<(), Error> {
    if plans.is_empty() {
        return Err(Error::Config(
            "a batch needs at least one matrix source".into(),
        ));
    }
    Ok(())
}

/// Check that every plan of a batch carries the same validated config
/// (the `Solver::batch` contract) and hand back that one config.
/// `Backend::run_batch` is public, so hand-assembled heterogeneous
/// plans must fail loudly here — the pooled executor and the
/// simulator's group model both run the *whole* batch under one
/// config, and silently using `plans[0]`'s knobs would misattribute
/// every other item's report.
fn batch_shared_config<'p>(plans: &'p [Plan<'_>]) -> Result<&'p CaluConfig, Error> {
    let cfg = plans[0].config();
    // (each plan's grid, and with it its default leaf count, follows
    // its own source's shape and is not part of the config)
    if plans.iter().any(|p| p.config() != cfg) {
        return Err(Error::Config(
            "batched plans must share one configuration (same tile size, \
             threads, layout, scheduler, queue discipline, batch knobs); \
             build them from a single Solver via Solver::batch"
                .into(),
        ));
    }
    Ok(cfg)
}

/// A report carrying a job's identity and nothing measured yet — the
/// header every backend fills in: tile size, layout, queue discipline
/// and thread count are `cfg`'s, the config the job runs under.
pub(crate) fn blank_report(
    backend: &str,
    algorithm: Algorithm,
    scheduler: calu_sched::SchedulerKind,
    cfg: &CaluConfig,
    dims: (usize, usize),
) -> Report {
    Report {
        backend: backend.into(),
        algorithm,
        scheduler,
        queue_discipline: cfg.queue,
        layout: cfg.layout,
        dims,
        b: cfg.b,
        threads: cfg.threads,
        tasks: 0,
        makespan: 0.0,
        nominal_flops: nominal_flops(algorithm, dims.0, dims.1),
        factorization: None,
        residual: None,
        growth_factor: None,
        schedule: ScheduleMetrics::default(),
        timeline: None,
        adaptation: None,
    }
}

fn plan_report(backend: &str, plan: &Plan<'_>) -> Report {
    blank_report(
        backend,
        plan.algorithm,
        plan.scheduler,
        plan.config(),
        plan.source.dims(),
    )
}

/// Turn what the executor engine hands back for one job — solo, batched
/// or served — into its [`Report`]: `header` carries the job's identity,
/// the [`Outcome`] everything measured. The factors, the schedule the
/// engine folded as it ran (one record per worker of the job's run, so
/// that is the thread count), the timeline when the job asked for one
/// (its clock starts at the job's first task), and the numerical checks
/// the engine ran when the job asked for them.
pub(crate) fn report_from(mut report: Report, out: Outcome) -> Report {
    report.set_schedule(out.schedule);
    report.timeline = out.timeline;
    report.factorization = Some(out.factorization);
    report.residual = out.residual;
    report.growth_factor = out.growth_factor;
    report
}

/// The engine job of a plan with `kernels`: its source (dense data
/// borrowed as-is, seeded generators left for the claiming thread to
/// materialize), its kernel set, its own `.verify()` and `.trace()`.
fn engine_job<'a>(plan: &Plan<'a>, kernels: KernelSet) -> Result<BatchItem<'a>, Error> {
    let source = plan
        .source
        .job_source()
        .ok_or_else(|| shape_only_source("the threaded backend"))?;
    Ok(BatchItem {
        source,
        kernels,
        verify: plan.verify,
        trace: plan.record_trace,
    })
}

/// The one rule that routes a plan on a real executor (`backend` names
/// it in the error): the kernel set the engine runs it with, `None`
/// for the sequential reference drivers, and a refusal for the
/// Cilk-deque baseline, which no real executor runs.
pub(crate) fn engine_route(backend: &str, plan: &Plan<'_>) -> Result<Option<KernelSet>, Error> {
    if matches!(
        plan.scheduler,
        calu_sched::SchedulerKind::WorkStealing { .. }
    ) {
        return Err(Error::Unsupported {
            backend: backend.into(),
            what: "the real executor implements the paper's static/dynamic \
                   queues, not the Cilk-deque baseline; use SimulatedBackend, \
                   or a Dynamic/Hybrid scheduler with \
                   .queue_discipline(QueueDiscipline::sharded()) for real \
                   randomized stealing in DFS priority order"
                .into(),
        });
    }
    Ok(KernelSet::for_algorithm(plan.algorithm))
}

/// Real executors factor real data: the error for a shape-only source.
fn shape_only_source(who: &str) -> Error {
    Error::Config(format!(
        "{who} factors real data: provide a DenseMatrix or a seeded \
         generator source, not MatrixSource::Shape"
    ))
}

/// Real multithreaded execution (Algorithms 1 and 2 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedBackend;

impl Backend for ThreadedBackend {
    fn name(&self) -> &str {
        "threaded"
    }

    fn preferred_queue(&self) -> Option<calu_sched::QueueDiscipline> {
        Some(calu_sched::QueueDiscipline::lock_free())
    }

    /// One-pool batching when every plan routes to the engine (every
    /// item names its own kernel set, so a batch may mix CALU and
    /// Cholesky); a batch with a reference-driver plan falls back to
    /// the loop-over-`run` default.
    fn run_batch(&self, plans: &[Plan<'_>]) -> Result<BatchReport, Error> {
        non_empty(plans)?;
        let kernels = plans
            .iter()
            .map(|p| engine_route(self.name(), p))
            .collect::<Result<Option<Vec<_>>, _>>()?;
        match kernels {
            Some(kernels) => self.run_batch_pooled(plans, &kernels),
            None => run_batch_loop(self, plans),
        }
    }

    fn execute(&self, plan: &Plan<'_>) -> Result<Report, Error> {
        let mut report = plan_report(self.name(), plan);
        if let Some(kernels) = engine_route(self.name(), plan)? {
            let out = factor_one(engine_job(plan, kernels)?, plan.config())?;
            return Ok(report_from(report, out));
        }
        if !plan.config().fault.is_off() {
            return Err(Error::Unsupported {
                backend: self.name().into(),
                what: format!(
                    "fault injection runs on the hybrid executor's worker \
                     threads; the sequential {:?} reference driver has none to \
                     inject into — drop .fault_plan() or use CALU/Cholesky",
                    plan.algorithm
                ),
            });
        }
        let a = plan
            .source
            .materialize()
            .ok_or_else(|| shape_only_source("the threaded backend"))?;
        let t0 = Instant::now();
        if plan.algorithm == Algorithm::Gepp {
            let f = gepp_factor(a.as_ref(), plan.config().b);
            report.makespan = t0.elapsed().as_secs_f64();
            if plan.verify {
                report.residual = Some(f.residual(&a));
                report.growth_factor = Some(f.growth_factor(&a));
            }
            report.factorization = Some(f);
        } else {
            let f = incpiv_factor(a.as_ref(), plan.config().b);
            report.makespan = t0.elapsed().as_secs_f64();
            // incremental pivoting keeps per-tile factors; expose the
            // numerical checks, not a packed Factorization
            if plan.verify {
                report.residual = Some(f.residual_via_solve(&a, 0));
                report.growth_factor = Some(f.growth_factor(&a));
            }
        }
        // the reference drivers are sequential regardless of the
        // requested thread count; report what actually ran: one thread,
        // busy throughout
        let one = ThreadMetrics {
            work: report.makespan,
            ..Default::default()
        };
        report.set_schedule(ScheduleMetrics::new(report.makespan, vec![one]));
        Ok(report)
    }
}

impl ThreadedBackend {
    /// Batched factorization on one worker pool
    /// (`calu_core::factor_batch`): spawned once, per-worker scratch
    /// arenas alive across items, small items co-scheduled
    /// whole-per-worker, large ones on the full hybrid schedule. Each
    /// item carries its own kernel set (`kernels`, one per plan), so a
    /// batch may mix CALU and Cholesky plans.
    fn run_batch_pooled(
        &self,
        plans: &[Plan<'_>],
        kernels: &[KernelSet],
    ) -> Result<BatchReport, Error> {
        let cfg = batch_shared_config(plans)?;
        let t0 = Instant::now();
        // submission is O(1) per item: generator items are materialized
        // — and verifying ones checked — by the pool worker that claims
        // them, not up front or afterwards on the calling thread
        let jobs = plans
            .iter()
            .zip(kernels)
            .map(|(plan, &k)| engine_job(plan, k))
            .collect::<Result<Vec<_>, _>>()?;
        let outcome = factor_batch(&jobs, cfg)?;
        let co_scheduled = outcome.items.iter().filter(|i| i.co_scheduled).count();
        let items = plans
            .iter()
            .zip(outcome.items)
            .map(|(plan, out)| report_from(plan_report(self.name(), plan), out))
            .collect();
        Ok(BatchReport {
            backend: self.name().into(),
            threads: cfg.threads,
            items,
            wall_secs: t0.elapsed().as_secs_f64(),
            pool_spawn_secs: outcome.pool_spawn_secs,
            co_scheduled,
        })
    }
}

/// Discrete-event simulation on a modelled machine (see `calu_sim`).
#[derive(Debug, Clone)]
pub struct SimulatedBackend {
    machine: MachineConfig,
    column_granular: bool,
    name: String,
}

impl SimulatedBackend {
    /// Simulate on `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        let name = format!("simulated({})", machine.name);
        Self {
            machine,
            column_granular: false,
            name,
        }
    }

    /// Use column-granular dynamic tasks (Algorithm 2's `for all I` —
    /// the paper's fully dynamic implementation, Figure 14).
    pub fn column_granular(mut self) -> Self {
        self.column_granular = true;
        self
    }

    /// The machine model this backend simulates.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// One discrete-event run of `plan`'s DAG on `machine` (the whole
    /// model, or the one core a co-scheduled batch item runs on).
    fn simulate(
        &self,
        plan: &Plan<'_>,
        machine: MachineConfig,
        grid: ProcessGrid,
    ) -> Result<SimResult, Error> {
        let (cores, threads) = (self.machine.cores(), plan.config().threads);
        if threads != cores {
            return Err(Error::Config(format!(
                "thread count {threads} does not match the simulated machine's \
                 {cores} cores ({}); drop .threads() to use the machine size, \
                 or pick a machine model with {threads} cores",
                self.machine.name,
            )));
        }
        let cfg = SimConfig {
            machine,
            layout: plan.layout(),
            sched: plan.scheduler,
            queue: plan.config().queue,
            grid,
            group_max: plan.config().group,
            column_granular: self.column_granular,
            record_trace: plan.record_trace,
        };
        Ok(calu_sim::run(&plan.build_graph(), &cfg))
    }
}

impl Backend for SimulatedBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn preferred_threads(&self) -> Option<usize> {
        Some(self.machine.cores())
    }

    fn topology(&self) -> calu_sched::CpuTopology {
        // adaptation on this backend seeds from the *modelled* machine,
        // so a simulated sweep predicts what the real machine would do
        calu_sim::machine_topology(&self.machine)
    }

    fn execute(&self, plan: &Plan<'_>) -> Result<Report, Error> {
        let r = self.simulate(plan, self.machine.clone(), plan.grid)?;
        Ok(sim_report(self.name(), plan, r))
    }

    /// Model what the threaded pool does with a batch: each small item
    /// ([`CaluConfig::co_schedules`](calu_core::CaluConfig::co_schedules))
    /// runs whole on one core, dealt round-robin over the cores, while
    /// large items run on the whole machine one after another. The
    /// batch wall time is the large items' sum plus the busiest core's
    /// run of small items.
    fn run_batch(&self, plans: &[Plan<'_>]) -> Result<BatchReport, Error> {
        non_empty(plans)?;
        let cores = self.machine.cores();
        let cfg = batch_shared_config(plans)?;
        let one_core = MachineConfig {
            sockets: 1,
            cores_per_socket: 1,
            ..self.machine.clone()
        };
        let mut core_time = vec![0.0f64; cores];
        let mut wall_large = 0.0f64;
        let mut co_scheduled = 0usize;
        let mut items = Vec::with_capacity(plans.len());
        for plan in plans {
            let r = if cfg.co_schedules(plan.source.dims()) {
                let r = self.simulate(plan, one_core.clone(), ProcessGrid::new(1, 1)?)?;
                core_time[co_scheduled % cores] += r.schedule.makespan;
                co_scheduled += 1;
                r
            } else {
                let r = self.simulate(plan, self.machine.clone(), plan.grid)?;
                wall_large += r.schedule.makespan;
                r
            };
            items.push(sim_report(self.name(), plan, r));
        }
        let wall = wall_large + core_time.iter().copied().fold(0.0f64, f64::max);
        Ok(BatchReport {
            backend: self.name().into(),
            threads: cores,
            items,
            wall_secs: wall,
            pool_spawn_secs: 0.0,
            co_scheduled,
        })
    }
}

/// Map a `SimResult` into the unified report shape: the simulator
/// filled the same schedule record the engine does, one per core of the
/// machine it ran on (the whole model for solo runs, one core for a
/// co-scheduled batch item).
fn sim_report(backend: &str, plan: &Plan<'_>, r: SimResult) -> Report {
    let mut report = plan_report(backend, plan);
    report.set_schedule(r.schedule);
    report.timeline = r.timeline;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{MatrixSource, Solver};
    use calu_sched::SchedulerKind;
    use calu_sim::NoiseConfig;

    #[test]
    fn threaded_rejects_shape_only_sources() {
        let err = Solver::new(MatrixSource::shape(64, 64))
            .tile(16)
            .backend(ThreadedBackend)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(ref m) if m.contains("DenseMatrix")),
            "{err}"
        );
    }

    #[test]
    fn run_batch_rejects_heterogeneous_plans() {
        // Backend::run_batch is public; hand-assembled plans that don't
        // share one config must fail loudly instead of silently running
        // every item under plans[0]'s knobs
        let a = Solver::new(MatrixSource::uniform(32, 1)).tile(8);
        let b = Solver::new(MatrixSource::uniform(32, 2)).tile(16);
        let plans = [a.plan().unwrap(), b.plan().unwrap()];
        for backend in [
            &ThreadedBackend as &dyn Backend,
            &SimulatedBackend::new(MachineConfig::intel_xeon_16(NoiseConfig::off())),
        ] {
            let err = backend.run_batch(&plans).unwrap_err();
            assert!(
                matches!(err, Error::Config(ref m) if m.contains("share one configuration")),
                "{err}"
            );
        }
    }

    #[test]
    fn run_batch_honours_verify_per_plan() {
        // plans that differ only in `.verify()` share one executor
        // config, so they batch — and each item gets its own answer,
        // never plans[0]'s
        let checked = Solver::new(MatrixSource::uniform(48, 1)).tile(16);
        let unchecked = Solver::new(MatrixSource::uniform(48, 2))
            .tile(16)
            .verify(false);
        let plans = [
            checked.plan().unwrap(),
            unchecked.plan().unwrap(),
            checked.plan().unwrap(),
        ];
        let batch = ThreadedBackend.run_batch(&plans).unwrap();
        for (plan, item) in plans.iter().zip(&batch.items) {
            assert_eq!(item.residual.is_some(), plan.verify);
            assert_eq!(item.growth_factor.is_some(), plan.verify);
            assert!(item.factorization.is_some());
        }
        assert!(batch.items[0].residual.unwrap() < 1e-12);
    }

    #[test]
    fn verifying_batch_reports_the_solo_checks_bit_for_bit() {
        // verification runs in the engine, on whichever thread finishes
        // the item: small (co-scheduled) and large (co-operative) items
        // of both algorithms must still report exactly what a solo
        // `.verify(true).run()` of the same source reports
        let knobs = |source: MatrixSource, algorithm| {
            Solver::new(source)
                .tile(16)
                .threads(4)
                .batch_small_cutoff(100)
                .algorithm(algorithm)
        };
        let lu = [
            MatrixSource::uniform(48, 11),
            MatrixSource::uniform(200, 12),
            MatrixSource::uniform_rect(96, 64, 13),
        ];
        let spd = [
            MatrixSource::spd_uniform(64, 14),
            MatrixSource::spd_uniform(160, 15),
        ];
        for (algorithm, sources) in [(Algorithm::Calu, &lu[..]), (Algorithm::Cholesky, &spd[..])] {
            let batch = knobs(MatrixSource::shape(1, 1), algorithm)
                .batch(sources)
                .unwrap();
            assert!(batch.co_scheduled > 0 && batch.co_scheduled < sources.len());
            for (item, source) in batch.items.iter().zip(sources) {
                let solo = knobs(source.clone(), algorithm).run().unwrap();
                let bits = |x: Option<f64>| x.map(f64::to_bits);
                assert!(item.residual.is_some());
                assert_eq!(bits(item.residual), bits(solo.residual), "{algorithm}");
                assert_eq!(
                    item.growth_factor.is_some(),
                    algorithm == Algorithm::Calu,
                    "growth is an LU figure"
                );
                assert_eq!(bits(item.growth_factor), bits(solo.growth_factor));
            }
        }
    }

    #[test]
    fn threaded_rejects_work_stealing() {
        let err = Solver::new(MatrixSource::uniform(32, 1))
            .tile(8)
            .scheduler(SchedulerKind::WorkStealing { seed: 1 })
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported { .. }), "{err}");
    }

    #[test]
    fn threaded_honours_explicit_grouping() {
        // a static group is one GEMM over the members' stacked tiles:
        // fewer calls, the same bits, and every member still a task
        let solver = |k| {
            Solver::new(MatrixSource::uniform(64, 1))
                .tile(8)
                .threads(2)
                .layout(calu_matrix::Layout::BlockCyclic)
                .grouping(k)
        };
        let dag_tasks = solver(1).plan().unwrap().build_graph().len();
        let one = solver(1).run().unwrap();
        assert_eq!(one.tasks, dag_tasks);
        for k in [2, 3, 8] {
            let grouped = solver(k).run().unwrap();
            let (f, g) = (
                one.factorization.as_ref().unwrap(),
                grouped.factorization.as_ref().unwrap(),
            );
            assert_eq!(f.lu.as_slice(), g.lu.as_slice(), "k = {k}");
            assert_eq!(f.perm.pivots(), g.perm.pivots(), "k = {k}");
            assert_eq!(grouped.tasks, dag_tasks, "k = {k}: members stay tasks");
        }
    }

    #[test]
    fn simulated_rejects_mismatched_threads() {
        let be = SimulatedBackend::new(MachineConfig::intel_xeon_16(NoiseConfig::off()));
        let err = Solver::new(MatrixSource::shape(400, 400))
            .threads(4)
            .backend(be)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(ref m) if m.contains("16")),
            "{err}"
        );
    }

    #[test]
    fn threaded_honors_tslu_leaves() {
        let run = |stride| {
            Solver::new(MatrixSource::uniform(64, 7))
                .tile(16)
                .threads(4)
                .tslu_leaves(stride)
                .run()
                .unwrap()
        };
        let (one, two) = (run(1), run(2));
        assert!(one.residual.unwrap() < 1e-12);
        assert!(two.residual.unwrap() < 1e-12);
        assert!(
            two.tasks > one.tasks,
            "more leaves per panel must mean more tasks ({} vs {})",
            two.tasks,
            one.tasks
        );
    }

    #[test]
    fn verify_off_skips_numerical_checks() {
        let r = Solver::new(MatrixSource::uniform(64, 7))
            .tile(16)
            .threads(2)
            .verify(false)
            .run()
            .unwrap();
        assert!(r.residual.is_none());
        assert!(r.growth_factor.is_none());
        assert!(r.factorization.is_some(), "factors are still returned");
    }

    #[test]
    fn a_lost_core_drives_the_split_dynamic() {
        // the adaptive loop on the simulator: a core that dies before its
        // first task must converge to a larger dynamic share than the
        // healthy machine does
        let healthy = MachineConfig::intel_xeon_16(NoiseConfig::off());
        let mut degraded = healthy.clone();
        degraded.lost_core = Some((0, 0));
        let converged = |machine: &MachineConfig| {
            let solver = Solver::new(MatrixSource::shape(4800, 4800))
                .tile(100)
                .layout(calu_matrix::Layout::BlockCyclic)
                .queue_discipline(calu_sched::QueueDiscipline::Global)
                .backend(SimulatedBackend::new(machine.clone()))
                .adaptive(calu_sched::AdaptivePolicy::new(7));
            let runs: Vec<f64> = (0..6)
                .map(|_| solver.run().unwrap().adaptation.unwrap().chosen.dratio)
                .collect();
            runs[5]
        };
        let (h, d) = (converged(&healthy), converged(&degraded));
        assert!(
            d > h,
            "losing a core must converge to a larger dynamic share \
             (healthy {h}, degraded {d})"
        );
    }

    #[test]
    fn backends_share_the_report_shape() {
        let threaded = Solver::new(MatrixSource::uniform(64, 7))
            .tile(16)
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(threaded.backend, "threaded");
        assert!(threaded.factorization.is_some());
        assert!(threaded.residual.unwrap() < 1e-12);
        assert_eq!(threaded.schedule.threads.len(), 4);
        assert!(threaded.schedule.total_tasks() > 0);

        let sim = Solver::new(MatrixSource::shape(1000, 1000))
            .backend(SimulatedBackend::new(MachineConfig::intel_xeon_16(
                NoiseConfig::off(),
            )))
            .run()
            .unwrap();
        assert!(sim.factorization.is_none());
        assert_eq!(sim.schedule.threads.len(), 16);
        assert!(sim.gflops() > 0.0);
        assert!(sim.utilization() <= 1.0 + 1e-9);
        let q = sim.schedule.queue_sources();
        assert_eq!(q.local + q.global + q.stolen, sim.tasks as u64);
    }
}
