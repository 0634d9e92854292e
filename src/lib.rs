//! # calu — hybrid static/dynamic scheduling for dense LU factorization
//!
//! Facade crate for the full reproduction of
//! *Donfack, Grigori, Gropp, Kale — "Hybrid static/dynamic scheduling for
//! already optimized dense matrix factorization"* (IPDPS 2012).
//!
//! ## The Solver API
//!
//! One builder owns every knob of the paper's design space; pluggable
//! [`Backend`]s execute the same plan for real ([`ThreadedBackend`]) or
//! on a modelled machine ([`SimulatedBackend`]); both return the same
//! structured [`Report`].
//!
//! ```
//! use calu::{Solver, ThreadedBackend};
//! use calu::matrix::{gen, Layout};
//! use calu::sched::SchedulerKind;
//!
//! let a = gen::uniform(128, 128, 42);
//! let report = Solver::new(a)
//!     .tile(32)
//!     .threads(4)
//!     .layout(Layout::BlockCyclic)
//!     .scheduler(SchedulerKind::Hybrid { dratio: 0.1 })
//!     .backend(ThreadedBackend)
//!     .run()
//!     .unwrap();
//! assert!(report.residual.unwrap() < 1e-12);
//! assert!(report.factorization.is_some());
//! println!("makespan {:.3} ms, {} tasks, idle {:?}",
//!     report.makespan * 1e3, report.tasks, report.schedule.per_thread_idle());
//! ```
//!
//! Swapping the execution substrate — or sweeping the whole design
//! space — is a loop over values, not a different API:
//!
//! ```
//! use calu::{MatrixSource, SimulatedBackend, Solver};
//! use calu::sched::SchedulerKind;
//! use calu::sim::{MachineConfig, NoiseConfig};
//!
//! for machine in [
//!     MachineConfig::intel_xeon_16(NoiseConfig::off()),
//!     MachineConfig::amd_opteron_48(NoiseConfig::off()),
//! ] {
//!     for sched in SchedulerKind::paper_sweep() {
//!         let r = Solver::new(MatrixSource::shape(2000, 2000))
//!             .scheduler(sched)
//!             .backend(SimulatedBackend::new(machine.clone()))
//!             .run()
//!             .unwrap();
//!         println!("{} {}: {:.1} Gflop/s", r.backend, r.scheduler, r.gflops());
//!     }
//! }
//! ```
//!
//! ## Batched sweeps
//!
//! Serving-style workloads factor many small matrices, where per-call
//! planning and thread spawn dominate. [`Solver::batch`] runs a whole
//! sweep on one persistent worker pool — spawned once, per-worker
//! scratch arenas and deques alive across items — and returns a
//! [`BatchReport`] with per-item [`Report`]s plus batch throughput:
//!
//! ```
//! use calu::{MatrixSource, Solver};
//! use calu::matrix::gen;
//!
//! let items: Vec<MatrixSource> = (0..4)
//!     .map(|i| MatrixSource::Dense(gen::uniform(64, 64, i)))
//!     .collect();
//! let batch = Solver::new(MatrixSource::shape(64, 64)) // knobs only
//!     .tile(16)
//!     .threads(2)
//!     .batch(&items)
//!     .unwrap();
//! assert_eq!(batch.len(), 4);
//! assert!(batch.items_per_sec() > 0.0);
//! for item in &batch.items {
//!     assert!(item.residual.unwrap() < 1e-12);
//! }
//! ```
//!
//! Every item factors bitwise-identically to a solo [`Solver::run`];
//! small items are co-scheduled whole-per-worker, large ones run the
//! full hybrid static/dynamic schedule (see
//! [`Solver::batch_small_cutoff`]).
//!
//! ## The service layer
//!
//! Where [`Solver::batch`] amortizes pool spawn across one sweep,
//! [`Solver::serve`] keeps the pool alive *between* calls: a
//! [`FactorService`] is a long-running job server with priority
//! classes, admission control, cancellation and graceful drain — see
//! the [`serve`] module docs for the full lifecycle.
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
//! let interactive = service
//!     .submit(JobSpec::uniform(64, 64, 1), JobClass::Interactive)
//!     .unwrap();
//! let background = service
//!     .submit(JobSpec::uniform(64, 64, 2), JobClass::Background)
//!     .unwrap();
//! assert!(interactive.wait().unwrap().factorization.is_some());
//! assert!(background.wait().unwrap().factorization.is_some());
//! service.drain();
//! ```
//!
//! A sweep is one [`Solver::batch`] call; a served job is one
//! [`FactorService::submit`]. Both reach the same engine, and a
//! co-scheduled item or job reports the one worker that ran it.
//!
//! ## History
//!
//! The 0.1 top-level entry points (`calu_factor`, top-level
//! `CaluConfig`/`SimConfig`) were deprecated in 0.2 and removed in 0.3;
//! everything goes through [`Solver`] now. The low-level driver APIs
//! live on under [`core`] (`calu::core::calu_factor`,
//! `calu::core::factor_batch`, `calu::core::CaluConfig`) and
//! [`sim`] (`calu::sim::SimConfig`).
//!
//! ## The pieces
//!
//! * [`matrix`] — storage layouts (CM / BCL / 2l-BL), grids, generators;
//! * [`kernels`] — pure-Rust BLAS-3 style kernels;
//! * [`dag`] — the CALU task dependency graph (tasks P/L/U/S);
//! * [`sched`] — static, dynamic, hybrid and work-stealing policies;
//! * [`sim`] — discrete-event multicore/NUMA machine simulator;
//! * [`trace`] — execution timelines and idle-time metrics;
//! * [`model`] — the paper's §6 performance model (Theorem 1);
//! * [`core`] — CALU with tournament pivoting, the one hybrid
//!   executor engine behind solo runs, batched sweeps and the service
//!   pool, and the GEPP / incremental-pivoting baselines.

pub mod backend;
pub mod error;
pub mod report;
pub mod serve;
pub mod solver;

pub use backend::{Backend, SimulatedBackend, ThreadedBackend};
pub use calu_core::{FaultKind, FaultPlan, KernelSet};
pub use calu_sched::{
    AdaptationStep, AdaptiveController, AdaptivePolicy, Observation, QueueDiscipline, SplitChoice,
};
pub use error::Error;
pub use report::{
    AdaptationReport, BatchReport, ContentionStats, QueueBreakdown, Report, ScheduleMetrics,
    StealLocality, ThreadMetrics,
};
pub use serve::{
    DrainSummary, Events, FactorService, JobClass, JobEvent, JobHandle, JobSpec, JobStatus,
    JournalConfig, NetConfig, NetStats, ReportService, ServeError, ServeListener, ServiceConfig,
    ServiceEvent,
};
pub use solver::{Algorithm, MatrixSource, Plan, Solver};

pub use calu_core as core;
pub use calu_dag as dag;
pub use calu_kernels as kernels;
pub use calu_matrix as matrix;
pub use calu_model as model;
pub use calu_sched as sched;
pub use calu_sim as sim;
pub use calu_trace as trace;

/// Boxed-backend support so heterogeneous backend collections work in
/// sweep loops (`Vec<Box<dyn Backend>>`).
impl Backend for Box<dyn Backend> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }
    fn preferred_threads(&self) -> Option<usize> {
        self.as_ref().preferred_threads()
    }
    fn preferred_queue(&self) -> Option<calu_sched::QueueDiscipline> {
        self.as_ref().preferred_queue()
    }
    fn topology(&self) -> calu_sched::CpuTopology {
        self.as_ref().topology()
    }
    fn execute(&self, plan: &Plan<'_>) -> Result<Report, Error> {
        self.as_ref().execute(plan)
    }
    fn run_batch(&self, plans: &[Plan<'_>]) -> Result<report::BatchReport, Error> {
        self.as_ref().run_batch(plans)
    }
}
