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

use std::borrow::Cow;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use calu_core::{KernelSet, Outcome, Source};
use calu_rand::Rng;

pub use calu_serve::{
    DrainSummary, Events, FactorService, JobClass, JobEvent, JobHandle, JobId, JobInfo, JobSpec,
    JobStatus, JournalConfig, NetConfig, NetStats, ServeError, ServeListener, ServiceConfig,
    ServiceEvent,
};

use crate::backend::{
    blank_report, kernels_for, reject_sim_only_knobs, report_from, shape_only_source,
};
use crate::error::Error;
use crate::report::{BatchReport, Report};
use crate::solver::{Algorithm, MatrixSource, Solver};

/// A [`FactorService`] whose jobs resolve to the facade's [`Report`] —
/// what [`Solver::serve`] returns.
pub type ReportService = FactorService<Report>;

/// Map service-layer errors into the facade's unified [`Error`].
fn serve_err(e: ServeError) -> Error {
    match e {
        ServeError::Invalid(e) | ServeError::Failed(e) => Error::from(e),
        other => Error::Config(other.to_string()),
    }
}

/// Build a [`JobSpec`] from a facade source (rejecting shape-only
/// sources, which carry no data to factor). `kernels` selects the
/// algorithm for the job: `Some` forces it (the sweep pumps pass the
/// solver's algorithm), `None` infers it from the source — SPD
/// generators run tiled Cholesky, everything else CALU.
fn spec_for(source: MatrixSource, kernels: Option<KernelSet>) -> Result<JobSpec, Error> {
    if kernels == Some(KernelSet::Cholesky) && matches!(source, MatrixSource::Uniform { .. }) {
        return Err(Error::Config(
            "Cholesky requires a symmetric positive-definite input, but \
             MatrixSource::Uniform generates a general matrix; use \
             MatrixSource::SpdUniform (or pass SPD data as Dense)"
                .into(),
        ));
    }
    let source = MatrixSource::job_source(Cow::Owned(source))
        .ok_or_else(|| shape_only_source("the factorization service"))?;
    let kernels = kernels.unwrap_or(match source {
        Source::SpdUniform { .. } => KernelSet::Cholesky,
        _ => KernelSet::CaluLu,
    });
    Ok(JobSpec::from_source(source).with_kernels(kernels))
}

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
    /// Restrictions mirror the threaded backend's: CALU and Cholesky
    /// only (every job carries its own [`KernelSet`],
    /// so one service can mix the two), no work-stealing baseline.
    /// Large jobs run their dynamic section
    /// under the builder's queue discipline, exactly like a solo run;
    /// each report names the discipline of the pool generation that ran
    /// its job.
    pub fn serve_with(&self, mut svc: ServiceConfig) -> Result<ReportService, Error> {
        let plan = self.plan()?;
        if !matches!(plan.algorithm, Algorithm::Calu | Algorithm::Cholesky) {
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
        reject_sim_only_knobs("serve", &plan)?;
        (svc.verify, svc.trace) = (plan.verify, plan.record_trace);
        let cfg = plan.calu_config();
        let scheduler = plan.scheduler;
        let (layout, b) = (cfg.layout, cfg.b);
        // adaptive solvers keep learning while they serve: every
        // completed job's schedule metrics are distilled into an
        // Observation and fed to the shared controller, so a later
        // Solver::reconfigure (same builder) re-plans under the adapted
        // split — a service on a degraded machine converges across jobs
        let feedback = self.adaptive_controller();
        let make = move |_info: &JobInfo, out: Outcome| -> Report {
            // the outcome — not the captured knobs — is authoritative
            // for what a live reconfigure may have changed since this
            // closure was built (pool width, queue discipline), and the
            // job's own kernel set decides the algorithm: one service
            // serves LU and Cholesky jobs side by side
            let algorithm = match out.kernels {
                KernelSet::CaluLu => Algorithm::Calu,
                KernelSet::Cholesky => Algorithm::Cholesky,
            };
            let header = blank_report(
                "serve",
                algorithm,
                scheduler,
                out.queue,
                layout,
                out.dims,
                b,
                out.stats.len(),
            );
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
        FactorService::with_report(&cfg, svc, make).map_err(Error::from)
    }

    /// Stream a sweep through a fresh service: like [`Solver::batch`],
    /// but `sources` is any iterator, consumed lazily with a bounded
    /// in-flight window (`2 × threads`, at least 4) — at no point are
    /// all matrices resident at once, so a sweep can be far larger than
    /// memory. Results come back in input order in the returned
    /// [`BatchReport`]; the service is drained before returning.
    pub fn batch_iter<I>(&self, sources: I) -> Result<BatchReport, Error>
    where
        I: IntoIterator<Item = MatrixSource>,
    {
        let kernels = kernels_for(self.plan()?.algorithm);
        let service = self.serve()?;
        let report = pump(&service, sources, Some(kernels), false);
        service.drain();
        report
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
    /// ([`ServiceConfig`]) and connection ([`NetConfig`]) knobs.
    pub fn listen_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        svc: ServiceConfig,
        net: NetConfig,
    ) -> Result<ServeListener<Report>, Error> {
        let service = std::sync::Arc::new(self.serve_with(svc)?);
        ServeListener::bind(service, addr, net)
            .map_err(|e| Error::Config(format!("cannot bind the service front door: {e}")))
    }

    /// Live-reconfigure a running service to *this* builder's knobs:
    /// validates them through [`Solver::plan`] exactly like
    /// [`Solver::serve`], then hands `service`'s queued jobs over to a
    /// fresh pool ([`FactorService::reconfigure`]) — ids, classes and
    /// deadlines intact, in-flight jobs finishing where they started.
    /// Returns the new pool generation.
    pub fn reconfigure(&self, service: &ReportService) -> Result<u64, Error> {
        let plan = self.plan()?;
        service
            .reconfigure(&plan.calu_config())
            .map_err(Error::from)
    }
}

/// Run a sweep on an *already-warm* service — [`Solver::batch`]
/// semantics without paying (or billing) a pool spawn: the returned
/// [`BatchReport`] has `pool_spawn_secs = 0`. Jobs are submitted under [`JobClass::Batch`]
/// with a bounded in-flight window; results return in input order. The
/// service stays up afterwards. Each source picks its own kernel set:
/// [`MatrixSource::SpdUniform`] runs tiled Cholesky, dense and uniform
/// sources run CALU — so one warm sweep can mix the two (to force
/// Cholesky on dense SPD data, submit a
/// [`JobSpec`] with [`JobSpec::with_kernels`] directly).
pub fn service_batch(
    service: &ReportService,
    sources: &[MatrixSource],
) -> Result<BatchReport, Error> {
    pump(service, sources.iter().cloned(), None, true)
}

/// Bounded exponential backoff with seeded jitter for `Busy` retries:
/// starts at 500 µs, doubles to a 16 ms cap, jitters each delay by
/// ±25% off a deterministic `calu-rand` stream (so two pumps racing
/// one service desynchronize, yet any single schedule replays bitwise
/// for a given seed), and resets to the base on a successful submit.
struct Backoff {
    rng: Rng,
    cur_micros: u64,
}

impl Backoff {
    const BASE_MICROS: u64 = 500;
    const CAP_MICROS: u64 = 16_000;

    fn new(seed: u64) -> Self {
        Backoff {
            rng: Rng::seed_from_u64(seed),
            cur_micros: Self::BASE_MICROS,
        }
    }

    /// The next delay in the schedule (advances the doubling).
    fn next_delay(&mut self) -> Duration {
        let jitter = 0.75 + 0.5 * self.rng.next_f64();
        let d = Duration::from_micros((self.cur_micros as f64 * jitter) as u64);
        self.cur_micros = (self.cur_micros * 2).min(Self::CAP_MICROS);
        d
    }

    /// An admission succeeded: the congestion signal is gone.
    fn reset(&mut self) {
        self.cur_micros = Self::BASE_MICROS;
    }
}

/// The shared submit/wait pump behind [`Solver::batch_iter`] and
/// [`service_batch`]: keep at most `2 × threads` jobs in flight,
/// collect results in submission order. `kernels` is `Some` when the
/// caller's solver fixes the algorithm, `None` to infer per source.
fn pump<I>(
    service: &ReportService,
    sources: I,
    kernels: Option<KernelSet>,
    warm: bool,
) -> Result<BatchReport, Error>
where
    I: IntoIterator<Item = MatrixSource>,
{
    let threads = service.threads();
    let window = (2 * threads).max(4);
    let t0 = Instant::now();
    let mut pending: VecDeque<JobHandle<Report>> = VecDeque::new();
    let mut items: Vec<Report> = Vec::new();
    let mut co_scheduled = 0usize;
    let mut backoff = Backoff::new(0xB0FF ^ threads as u64);
    for source in sources {
        let spec = spec_for(source, kernels)?;
        if service.co_schedules(spec.dims()) {
            co_scheduled += 1;
        }
        while pending.len() >= window {
            let done = pending.pop_front().expect("window > 0");
            items.push(done.wait().map_err(serve_err)?);
        }
        loop {
            // the clone is cheap for generator specs and rare for dense
            // ones (only a Busy admission forces a retry)
            match service.submit(spec.clone(), JobClass::Batch) {
                Ok(h) => {
                    pending.push_back(h);
                    backoff.reset();
                    break;
                }
                Err(ServeError::Busy {
                    retry_after_hint, ..
                }) => {
                    // admission full (other submitters share the warm
                    // service): retire our oldest job and retry; with
                    // nothing of ours in flight, back off exponentially
                    // (floored at the service's own congestion hint) —
                    // admission frees on *other* submitters' completions,
                    // and yield-spinning on that would burn a core
                    match pending.pop_front() {
                        Some(done) => items.push(done.wait().map_err(serve_err)?),
                        None => std::thread::sleep(backoff.next_delay().max(retry_after_hint)),
                    }
                }
                Err(e) => return Err(serve_err(e)),
            }
        }
    }
    for done in pending {
        items.push(done.wait().map_err(serve_err)?);
    }
    if items.is_empty() {
        return Err(Error::Config(
            "a batch needs at least one matrix source".into(),
        ));
    }
    Ok(BatchReport {
        backend: "serve".into(),
        threads,
        items,
        wall_secs: t0.elapsed().as_secs_f64(),
        pool_spawn_secs: if warm { 0.0 } else { service.spawn_secs() },
        co_scheduled,
    })
}

#[cfg(test)]
mod tests {
    use super::Backoff;

    /// The Busy-retry backoff is deterministic for a seed, doubles the
    /// base delay up to the cap with every delay inside the ±25% jitter
    /// band, and `reset()` restores the base schedule.
    #[test]
    fn backoff_schedule_is_seeded_bounded_and_resettable() {
        let take = |b: &mut Backoff, n: usize| -> Vec<u128> {
            (0..n).map(|_| b.next_delay().as_micros()).collect()
        };

        let mut a = Backoff::new(42);
        let first = take(&mut a, 8);
        let mut b = Backoff::new(42);
        assert_eq!(first, take(&mut b, 8), "same seed must replay bitwise");
        let mut c = Backoff::new(43);
        assert_ne!(first, take(&mut c, 8), "a different seed must diverge");

        // nominal schedule: 500 µs doubling to the 16 ms cap, then flat
        let nominal = [500u64, 1_000, 2_000, 4_000, 8_000, 16_000, 16_000, 16_000];
        for (d, nom) in first.iter().zip(nominal) {
            let (lo, hi) = ((nom * 3 / 4) as u128, (nom * 5 / 4) as u128);
            assert!(
                (lo..=hi).contains(d),
                "delay {d} µs outside ±25% of nominal {nom} µs"
            );
        }

        // a successful submit resets to the base of the band
        a.reset();
        let after = a.next_delay().as_micros();
        let (lo, hi) = (Backoff::BASE_MICROS * 3 / 4, Backoff::BASE_MICROS * 5 / 4);
        assert!(
            (lo as u128..=hi as u128).contains(&after),
            "post-reset delay {after} µs is not a base delay"
        );
    }
}
