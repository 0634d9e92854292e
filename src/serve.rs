//! The service layer of the facade: [`Solver::serve`] and friends.
//!
//! A [`FactorService`] is a long-running job server over one persistent
//! worker pool — where [`Solver::batch`] amortizes pool spawn across
//! one sweep, a service amortizes it across *every factorization a
//! process ever runs*: submit jobs from any thread, in priority classes
//! ([`JobClass::Interactive`] / [`JobClass::Batch`] /
//! [`JobClass::Background`]), get each result back through a
//! [`JobHandle`] as the structured [`Report`] a solo [`Solver::run`]
//! would have produced — bitwise-identical factors included.
//!
//! ```
//! use calu::{JobClass, JobSpec, MatrixSource, Solver};
//!
//! let service = Solver::new(MatrixSource::shape(64, 64)) // knobs only
//!     .tile(16)
//!     .threads(2)
//!     .verify(false)
//!     .serve()
//!     .unwrap();
//! let handle = service
//!     .submit(JobSpec::uniform(64, 64, 7), JobClass::Interactive)
//!     .unwrap();
//! let report = handle.wait().unwrap();
//! assert!(report.factorization.is_some());
//! service.drain(); // finishes everything, joins the workers
//! ```
//!
//! The solver builder is the service's *plan*: tile size, threads,
//! layout, scheduler and verification all validate once through
//! [`Solver::plan`], exactly like a solo run; jobs then only vary in
//! their matrix ([`JobSpec`]). The pool runs the same executor engine
//! as a solo run — including the builder's queue discipline — and the
//! exclusive-writer discipline of the task DAG makes the factors
//! independent of execution order, which is what lets a served job
//! reproduce a solo run bit for bit.

use calu_core::Outcome;
use calu_sched::SchedulerKind;

pub use calu_serve::{
    DrainSummary, Events, FactorService, JobClass, JobEvent, JobHandle, JobId, JobInfo, JobSpec,
    JobStatus, JournalConfig, NetConfig, NetStats, ServeError, ServeListener, ServiceConfig,
    ServiceEvent,
};

use crate::backend::{blank_report, engine_route, report_from};
use crate::error::Error;
use crate::report::Report;
use crate::solver::Solver;

/// A [`FactorService`] whose jobs resolve to the facade's [`Report`] —
/// what [`Solver::serve`] returns.
pub type ReportService = FactorService<Report>;

impl Solver {
    /// Spawn a long-running [`FactorService`] from this builder's knobs
    /// with default admission control ([`ServiceConfig::default`]).
    /// See [`Solver::serve_with`].
    pub fn serve(&self) -> Result<ReportService, Error> {
        self.serve_with(ServiceConfig::default())
    }

    /// Spawn a long-running [`FactorService`]: one persistent worker
    /// pool serving factorization jobs until drained.
    ///
    /// The builder's knobs validate once, through the same
    /// [`Solver::plan`] path a solo run uses, and then govern every job
    /// — including `.verify()` and `.trace()`, which override
    /// `svc.verify` and `svc.trace`. The
    /// builder's own matrix source supplies only its shape for
    /// validation; jobs bring their own data as [`JobSpec`]s.
    ///
    /// Restrictions are the threaded backend's engine route: CALU and
    /// Cholesky only (every job carries its own [`calu_core::KernelSet`], so one
    /// service can mix the two), no work-stealing baseline.
    /// Large jobs run their dynamic section
    /// under the builder's queue discipline, exactly like a solo run;
    /// each report names the discipline of the pool generation that ran
    /// its job.
    pub fn serve_with(&self, mut svc: ServiceConfig) -> Result<ReportService, Error> {
        let plan = self.plan()?;
        if engine_route("serve", &plan)?.is_none() {
            return Err(Error::Unsupported {
                backend: "serve".into(),
                what: format!(
                    "the factorization service runs CALU and Cholesky jobs on \
                     its persistent pool; {} has no pooled executor — use \
                     Solver::run",
                    plan.algorithm
                ),
            });
        }
        (svc.verify, svc.trace) = (plan.verify, plan.record_trace);
        let (scheduler, dratio) = (plan.scheduler, plan.config().dratio);
        // adaptive solvers keep learning while they serve: every
        // completed job's schedule metrics are distilled into an
        // Observation and fed to the shared controller, so a later
        // Solver::reconfigure (same builder) re-plans under the adapted
        // split — a service on a degraded machine converges across jobs
        let feedback = self.adaptive_controller();
        let make = move |_info: &JobInfo, out: Outcome| -> Report {
            // the outcome — not the captured knobs — is authoritative
            // for what a live reconfigure may have changed since this
            // closure was built (pool width, tile size, layout, split,
            // queue discipline), and the job's own kernel set decides
            // the algorithm: one service serves LU and Cholesky jobs side
            // by side
            let algorithm = out.kernels.algorithm();
            let scheduler = match out.config.dratio {
                d if d == dratio => scheduler,
                d => SchedulerKind::Hybrid { dratio: d },
            };
            let header = blank_report("serve", algorithm, scheduler, &out.config, out.dims);
            // service jobs run under their pool generation's fixed
            // split; the controller's evolving state is read through
            // Solver::adaptive_split and applied by reconfigure
            let report = report_from(header, out);
            if let Some(ctl) = &feedback {
                if let Some(ctl) = ctl.lock().unwrap().as_mut() {
                    ctl.observe(&report.schedule.observation(report.dims));
                }
            }
            report
        };
        FactorService::with_report(plan.config(), svc, make).map_err(Error::from)
    }

    /// [`Solver::serve`] plus a TCP front door: spawn the service and
    /// bind a [`ServeListener`] on `addr` speaking the line protocol
    /// (see [`calu_serve::net`]). Bind `"127.0.0.1:0"` to let the OS
    /// pick a port ([`ServeListener::local_addr`] has the answer), then
    /// drive it with anything that writes lines — `nc` included.
    pub fn listen(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> Result<ServeListener<Report>, Error> {
        self.listen_with(addr, ServiceConfig::default(), NetConfig::default())
    }

    /// [`listen`](Self::listen) with explicit admission
    /// ([`ServiceConfig`]) and connection ([`NetConfig`]) knobs. A
    /// `NetConfig` that [`NetConfig::validate`] refuses is refused
    /// before the service starts.
    pub fn listen_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        svc: ServiceConfig,
        net: NetConfig,
    ) -> Result<ServeListener<Report>, Error> {
        let refused = |e| Error::Config(format!("cannot bind the service front door: {e}"));
        // before the service starts a pool and opens its journal
        net.validate().map_err(refused)?;
        let service = std::sync::Arc::new(self.serve_with(svc)?);
        ServeListener::bind(service, addr, net).map_err(refused)
    }

    /// Live-reconfigure a running service to *this* builder's knobs:
    /// validates them through [`Solver::plan`] exactly like
    /// [`Solver::serve`], then hands `service`'s queued jobs over to a
    /// fresh pool ([`FactorService::reconfigure`]) — ids, classes and
    /// deadlines intact, in-flight jobs finishing where they started.
    /// Returns the new pool generation.
    pub fn reconfigure(&self, service: &ReportService) -> Result<u64, Error> {
        let plan = self.plan()?;
        service.reconfigure(plan.config()).map_err(Error::from)
    }
}
