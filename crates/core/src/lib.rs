//! CALU — communication-avoiding LU factorization with tournament
//! pivoting and hybrid static/dynamic scheduling.
//!
//! This crate is the paper's primary contribution, implemented for real:
//!
//! * [`tslu`] — tournament pivoting: candidate pivot rows are selected by
//!   GEPP on row chunks and merged up a binary reduction tree (§2);
//! * the `reference` module — the sequential drivers, one matrix on one
//!   thread: [`calu_simple`], a plain dense CALU and the numerical
//!   oracle for everything else; [`gepp_factor`], blocked Gaussian
//!   elimination with partial pivoting (the MKL `dgetrf` stand-in); and
//!   [`incpiv_factor`], tiled LU with incremental (block pairwise)
//!   pivoting (the PLASMA `dgetrf_incpiv` stand-in). CALU and GEPP share
//!   one right-looking loop and differ only in the panel step;
//! * the **engine** ([`Engine`]) — the one worker loop implementing
//!   Algorithm 1/2 over one `calu_sched::ReadyQueues` value per run:
//!   the first `Nstatic` panels are scheduled statically by
//!   block-cyclic ownership, the rest through the dynamic section, and
//!   idle threads pull dynamic tasks while waiting on the panel. It
//!   executes *jobs*: one [`BatchItem`] (a matrix [`Source`], a
//!   [`KernelSet`], whether to verify) in, one [`Outcome`] out, for
//!   every caller. [`factor_batch`] runs N jobs on scoped threads
//!   spawned once, small items co-scheduled whole-per-worker, large
//!   ones on the full hybrid schedule; [`Engine::spawn`] runs the same
//!   loop on persistent threads behind class lanes and result sinks
//!   ([`JobSink`]) until [`Engine::drain`] — the substrate of
//!   `calu-serve`;
//! * [`threaded`] — the tile-task layer (per-item state, kernel sets,
//!   task bodies) and the solo entry points, a `factor_batch` of one
//!   with co-scheduling off;
//! * [`verify`] — residuals, growth factors, triangular solves.
//!
//! Entry points: [`calu_factor`] for one matrix, [`factor_batch`] for a
//! sweep (see [`CaluConfig`]).
//!
//! ## How the dynamic section is queued
//!
//! [`CaluConfig::queue`] selects the dynamic section's
//! [`QueueDiscipline`](calu_sched::QueueDiscipline) — the paper's
//! shared global queue, per-worker mutex shards with randomized
//! stealing, or per-worker lock-free Chase-Lev deques with
//! locality-tiered stealing. The full matrix (structures, defaults,
//! steal counters, when to pick which) lives in the `calu-sched` crate
//! docs; the one guarantee to remember here is that **the discipline
//! never changes the math**: writes to every tile are totally ordered
//! by the DAG's exclusive-writer rule, so all three disciplines — and
//! the engine's co-scheduled and co-operative routes, solo, batched or
//! served — produce bitwise-identical factors for the same input and
//! config.

pub mod config;
mod engine;
pub mod error;
pub mod factorization;
pub mod fault;
mod pivot;
mod reference;
mod shared;
pub mod sync;
pub mod threaded;
pub mod tslu;
pub mod verify;

pub use config::{CaluConfig, DEFAULT_BATCH_SMALL_CUTOFF};
pub use engine::{
    factor_batch, BatchItem, BatchOutcome, Engine, ExtractedJob, JobSink, Outcome, Source,
};
// The name `benchmark/` — the frozen ruler — imports the job source
// under; new code says `Source`.
pub use engine::Source as BatchSource;
pub use error::CaluError;
pub use factorization::Factorization;
pub use fault::{FaultKind, FaultPlan};
pub use reference::{calu_simple, gepp_factor, incpiv_factor, IncPivFactors};
pub use threaded::{calu_factor, cholesky_factor, factor_one, KernelSet};
