//! `calu-serve` — a long-running factorization job service.
//!
//! The paper's hybrid schedule optimizes one factorization; this crate
//! serves *streams* of them. A [`FactorService`] owns one
//! request-persistent worker pool (a spawned [`calu_core::Engine`]) and
//! layers on top of it, in the server/queue/worker split of
//! rust-lang/crater's server:
//!
//! * **admission control** — a bounded total queue depth plus per-class
//!   quotas ([`ServiceConfig`]); over-quota submissions are rejected
//!   with a typed [`ServeError::Busy`] instead of queueing unboundedly;
//! * **priority classes** — [`JobClass::Interactive`] /
//!   [`JobClass::Batch`] / [`JobClass::Background`], served
//!   highest-first with bounded starvation
//!   ([`calu_sched::ClassLanes`]);
//! * **job lifecycle** — `submit → Queued → Running → Done | Failed |
//!   Cancelled`, observable per job through a [`JobHandle`]
//!   ([`JobHandle::wait`] / [`JobHandle::try_status`]) and service-wide
//!   through the completion-order [`FactorService::events`] stream;
//! * **cancellation** of still-queued jobs ([`FactorService::cancel`]);
//! * **deadlines and a watchdog** — a [`JobSpec::with_deadline`] job
//!   that is not terminal when its deadline passes is failed with
//!   [`ServeError::DeadlineExceeded`]; with
//!   [`ServiceConfig::stall_timeout`] set, a running co-operative job
//!   whose task heartbeat stops advancing is failed with a typed
//!   worker-loss error. Either way the pool keeps serving — the
//!   watchdog condemns jobs, never workers;
//! * **graceful drain** — [`FactorService::drain`] stops admission,
//!   finishes everything queued and in flight, and joins the workers;
//!   no job is ever stranded — under fault injection included (lost
//!   workers rescue their static backlog, interrupted co-scheduled
//!   items are requeued whole). `drain` is idempotent and returns a
//!   [`DrainSummary`];
//! * **live reconfigure** — [`FactorService::reconfigure`] swaps the
//!   pool's solver knobs (tile, threads, discipline) under load by
//!   draining into a successor pool: queued jobs carry over with their
//!   [`JobId`], class and deadline intact, in-flight jobs finish on the
//!   old pool, and the event stream runs continuously across the
//!   handover — zero jobs dropped;
//! * **a crash-safe journal** — with [`ServiceConfig::journal`] set,
//!   accepted generator-spec jobs are appended (fsync'd) to a
//!   write-ahead log and marked on completion; a restarted service
//!   replays the incomplete tail and factors it bitwise-identical to an
//!   uninterrupted run (see [`journal`]);
//! * **a TCP front door** — [`net::ServeListener`] speaks a
//!   line-delimited request/response protocol over `std::net` (submit /
//!   status / cancel / drain / stats) with per-connection timeouts,
//!   bounded connection handling with load shedding, and typed error
//!   replies for malformed requests (see [`net`]).
//!
//! Everything is `std` — mutexes, condvars and one mpsc channel; no
//! async runtime, no serde. The facade crate (`calu`) wraps this API as
//! `Solver::serve()` / `Solver::listen()`, mapping [`Outcome`]s
//! into its `Report` type via the [`FactorService::with_report`] hook.
//!
//! # The job table
//!
//! Each admitted job has one record in one `Mutex`-guarded table: its
//! [`JobInfo`], deadline, last heartbeat sample, whether it was
//! journaled, and its state. The table also holds the per-class
//! pending counts, the next id, the draining flag and the lifetime
//! counters behind [`DrainSummary`]; a [`JobHandle`] is a view of its
//! record. One function, `transition`, writes a job's state, along the
//! edges
//!
//! ```text
//! Queued | Running  →  Running | Done | Failed | Cancelled
//! ```
//!
//! and never out of a terminal state: when the pool's sink, the
//! watchdog and a cancel race to end a job, one wins and the others are
//! refused. (`Running → Running` and `Running → Cancelled` are a
//! co-scheduled item requeued by a worker loss, claimed again or
//! cancelled in its lane.) Entering a terminal state, once and in
//! order: decrement pending and count the job under the lock, wake the
//! waiters, append the `end` marker of a journaled job, send its
//! [`ServiceEvent::Job`]. A record leaves the table with its handle once
//! the job ended, or at the terminal transition if the handle is gone.
//!
//! Lock order is table → pools → engine state: admission holds the
//! table lock across `Engine::submit`, which never calls a sink; sinks
//! take the table lock with no engine lock held; the result hook never
//! runs under it.
//!
//! The service owns its engines' lifetimes: dropping an engine does not
//! join its workers, so every engine it spawns is drained on every path
//! — by `drain` (and so on drop), by a reconfigure's retire thread, or
//! at once when a reconfigure is refused.

pub mod journal;
pub mod net;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use calu_core::sync::Mutex;
use calu_core::{BatchItem, CaluConfig, CaluError, Engine, JobSink, KernelSet, Outcome, Source};
use calu_matrix::DenseMatrix;
pub use calu_sched::JobClass;

use journal::Journal;
pub use journal::JournalConfig;
pub use net::{NetConfig, NetStats, ServeListener};

/// Service-assigned job identifier, unique within one service.
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting in its class lane.
    Queued,
    /// Claimed by a pool worker.
    Running,
    /// Finished; the result is (or was) available on the handle.
    Done,
    /// The factorization failed.
    Failed,
    /// Removed from the queue before any worker claimed it.
    Cancelled,
}

impl JobStatus {
    /// Done, failed or cancelled: no transition leaves this status.
    fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// The status's word on the wire.
    fn token(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// Typed service errors.
#[derive(Debug)]
pub enum ServeError {
    /// Admission refused: the queue (or the class's quota) is full.
    /// Back off and resubmit, or wait on an outstanding handle.
    Busy {
        /// The class that was refused.
        class: JobClass,
        /// Jobs currently admitted against the exceeded limit.
        pending: usize,
        /// The exceeded limit itself.
        quota: usize,
        /// How long the service suggests waiting before resubmitting,
        /// derived from the refused backlog's depth relative to the
        /// pool width (deeper backlog → longer hint, capped at 50 ms).
        retry_after_hint: Duration,
    },
    /// The service is draining; no new jobs are admitted.
    ShuttingDown,
    /// The spec failed validation and never reached the pool.
    Invalid(CaluError),
    /// The factorization itself failed.
    Failed(CaluError),
    /// The job was cancelled while queued.
    Cancelled,
    /// The job's [`JobSpec::with_deadline`] passed before it finished;
    /// the watchdog condemned it (cancelled if still queued, its run
    /// failed if in flight). The pool keeps serving other jobs.
    DeadlineExceeded {
        /// The deadline the job was admitted with.
        deadline: Duration,
    },
    /// The service journal could not record the job, so it was not
    /// admitted — admitting it anyway would silently break the
    /// crash-safety contract ([`ServiceConfig::journal`]).
    Journal(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy {
                class,
                pending,
                quota,
                retry_after_hint,
            } => write!(
                f,
                "busy: {pending}/{quota} {class} jobs pending (retry in {retry_after_hint:?})"
            ),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Invalid(e) => write!(f, "invalid job spec: {e}"),
            ServeError::Failed(e) => write!(f, "factorization failed: {e}"),
            ServeError::Cancelled => write!(f, "job was cancelled"),
            ServeError::DeadlineExceeded { deadline } => {
                write!(f, "job missed its {deadline:?} deadline")
            }
            ServeError::Journal(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission, verification and trace knobs for one [`FactorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total jobs admitted but not yet terminal, across all classes.
    pub max_pending: usize,
    /// Per-class pending quotas, indexed by [`JobClass::lane`]
    /// (`[interactive, batch, background]`).
    pub class_quota: [usize; 3],
    /// How many higher-class pops may pass over a waiting lower-class
    /// job before it is served regardless (see
    /// [`calu_sched::ClassLanes`]).
    pub starvation_limit: usize,
    /// Compute a residual and growth factor for every job.
    pub verify: bool,
    /// Keep every job's per-task spans (`Outcome::timeline`).
    pub trace: bool,
    /// Watchdog stall detection: a *running co-operative* job whose
    /// task heartbeat (every retired task, its input-copy FILLs and
    /// copy-out DENSIFYs included) has not advanced for this long is
    /// condemned with a typed worker-loss failure ([`ServeError::Failed`]
    /// carrying `CaluError::WorkerLost`). `None` (the default) disables
    /// it; per-job deadlines work either way. Co-scheduled (small) jobs
    /// expose no heartbeat and are exempt.
    pub stall_timeout: Option<Duration>,
    /// Opt-in crash-safe write-ahead log. When set, every accepted
    /// generator-spec job is appended (and fsync'd) before admission
    /// returns, marked on completion, and compacted on drain; a service
    /// rebuilt over the same path replays the incomplete tail (see
    /// [`journal`]). Dense-data jobs are served normally but not
    /// journaled — only seeded generator specs replay deterministically.
    pub journal: Option<JournalConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_pending: 256,
            class_quota: [64, 192, 192],
            starvation_limit: 4,
            verify: false,
            trace: false,
            stall_timeout: None,
            journal: None,
        }
    }
}

/// What one job factors: dense data moved in, or a seeded generator
/// materialized lazily on the worker that claims it — plus which
/// algorithm's kernels factor it (CALU by default; see
/// [`with_kernels`](Self::with_kernels)). Per-job validation is
/// dimensional (non-empty, and square for Cholesky); the shared solver
/// knobs are validated once, when the service is built.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The engine job; its `verify` and `trace` flags are the service's
    /// ([`ServiceConfig::verify`], [`ServiceConfig::trace`]), set at
    /// admission.
    job: BatchItem<'static>,
    deadline: Option<Duration>,
}

impl JobSpec {
    /// A job over dense data.
    pub fn dense(a: DenseMatrix) -> Self {
        Self::from_source(Source::Owned(a))
    }

    /// A job over a seeded uniform generator matrix, materialized on
    /// the worker that claims it.
    pub fn uniform(m: usize, n: usize, seed: u64) -> Self {
        Self::from_source(Source::Uniform { m, n, seed })
    }

    /// A tiled-Cholesky job over a seeded SPD generator matrix,
    /// materialized on the worker that claims it.
    pub fn spd_uniform(n: usize, seed: u64) -> Self {
        Self::from_source(Source::SpdUniform { n, seed }).with_kernels(KernelSet::Cholesky)
    }

    /// A job over any owned [`Source`], factored with CALU.
    fn from_source(source: Source<'static>) -> Self {
        JobSpec {
            job: BatchItem::lu(source),
            deadline: None,
        }
    }

    /// Select which algorithm's kernels factor this job — one service
    /// freely interleaves [`KernelSet::CaluLu`] and
    /// [`KernelSet::Cholesky`] jobs on the same pool.
    pub fn with_kernels(mut self, kernels: KernelSet) -> Self {
        self.job.kernels = kernels;
        self
    }

    /// Give the job a wall-clock deadline, measured from admission. A
    /// job not terminal when it passes is failed with
    /// [`ServeError::DeadlineExceeded`] by the service watchdog —
    /// cancelled outright if still queued, its co-operative run
    /// condemned if in flight (a co-scheduled job's worker cannot be
    /// interrupted, but the waiter is unblocked with the typed error
    /// all the same).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// `(rows, cols)` of the job's matrix.
    pub fn dims(&self) -> (usize, usize) {
        self.job.source.dims()
    }

    /// Which algorithm's kernels factor the job.
    pub(crate) fn kernels(&self) -> KernelSet {
        self.job.kernels
    }

    /// The spec's words, shared by the wire's `submit` and the
    /// journal's `job` line: `uniform <m> <n> <seed>` or
    /// `spd <n> <seed>`, then `deadline_ms <ms>` when the spec has a
    /// deadline. `None` for dense data, which no line carries.
    fn render(&self) -> Option<String> {
        let mut line = match self.job.source {
            Source::Uniform { m, n, seed } => format!("uniform {m} {n} {seed}"),
            Source::SpdUniform { n, seed } => format!("spd {n} {seed}"),
            Source::Dense(_) | Source::Owned(_) => return None,
        };
        if let Some(d) = self.deadline {
            line.push_str(&format!(" deadline_ms {}", d.as_millis()));
        }
        Some(line)
    }

    /// Parse [`render`](Self::render)'s words back. `spd` selects
    /// Cholesky, `uniform` CALU; the journal overrides that with its
    /// own kernels token.
    fn parse(tokens: &[&str]) -> Result<JobSpec, String> {
        let (spec, rest) = match tokens {
            ["uniform", m, n, seed, rest @ ..] => (
                JobSpec::uniform(
                    parse_num(m, "m")?,
                    parse_num(n, "n")?,
                    parse_num(seed, "seed")?,
                ),
                rest,
            ),
            ["spd", n, seed, rest @ ..] => (
                JobSpec::spd_uniform(parse_num(n, "n")?, parse_num(seed, "seed")?),
                rest,
            ),
            ["uniform", ..] => return Err("uniform needs <m> <n> <seed>".into()),
            ["spd", ..] => return Err("spd needs <n> <seed>".into()),
            [other, ..] => return Err(format!("unknown generator {other:?}")),
            [] => return Err("submit needs a generator spec".into()),
        };
        match rest {
            [] => Ok(spec),
            ["deadline_ms", ms] => {
                Ok(spec.with_deadline(Duration::from_millis(parse_num(ms, "deadline_ms")?)))
            }
            extra => Err(format!("unexpected trailing tokens {extra:?}")),
        }
    }
}

/// A class from its [`Display`](fmt::Display) word.
fn parse_class(tok: &str) -> Result<JobClass, String> {
    JobClass::ALL
        .into_iter()
        .find(|c| c.to_string() == tok)
        .ok_or_else(|| format!("unknown class {tok:?}"))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad {what} {tok:?}"))
}

/// Identity of one admitted job, handed to the report hook.
#[derive(Debug, Clone, Copy)]
pub struct JobInfo {
    /// Service-assigned id.
    pub id: JobId,
    /// Priority class.
    pub class: JobClass,
    /// `(rows, cols)`.
    pub dims: (usize, usize),
    /// Which algorithm's kernels factor the job.
    pub kernels: KernelSet,
}

/// One entry of the completion-order event stream.
#[derive(Debug, Clone, Copy)]
pub struct JobEvent {
    /// Which job.
    pub id: JobId,
    /// Its class.
    pub class: JobClass,
    /// The terminal status it reached.
    pub status: JobStatus,
}

/// What the service-wide event stream carries: one terminal
/// [`JobEvent`] per job, interleaved with service-health notices.
#[derive(Debug, Clone, Copy)]
pub enum ServiceEvent {
    /// A job reached a terminal state.
    Job(JobEvent),
    /// The pool degraded: a worker was lost (its static backlog was
    /// rescued into dynamic queues; the pool keeps serving on the
    /// survivors). Emitted once per loss, with the running total.
    Degraded {
        /// Workers lost since the service was built.
        lost_workers: usize,
    },
    /// [`FactorService::reconfigure`] completed a handover: queued jobs
    /// carried over to a successor pool, in-flight jobs finish on the
    /// old one. Emitted once per reconfigure.
    Reconfigured {
        /// Pool generation after the swap (the initial pool is
        /// generation 0).
        generation: u64,
    },
    /// The service was built over a journal with an incomplete tail and
    /// re-admitted those jobs (see [`FactorService::take_replayed`]).
    JournalReplayed {
        /// How many jobs were replayed.
        jobs: usize,
    },
}

/// A job's state in its record; the terminal ones carry the outcome.
enum State<R> {
    Queued,
    Running,
    /// `None` when the job was admitted without a result slot (the
    /// front door's jobs): the result was made and dropped.
    Done(Option<R>),
    Failed(ServeError),
    Cancelled,
}

impl<R> State<R> {
    fn status(&self) -> JobStatus {
        match self {
            State::Queued => JobStatus::Queued,
            State::Running => JobStatus::Running,
            State::Done(_) => JobStatus::Done,
            State::Failed(_) => JobStatus::Failed,
            State::Cancelled => JobStatus::Cancelled,
        }
    }
}

/// One admitted job's record in the table.
struct Job<R> {
    info: JobInfo,
    state: State<R>,
    /// Absolute deadline (admission time + the spec's deadline), with
    /// the spec's relative deadline kept for the error message.
    deadline: Option<(Instant, Duration)>,
    /// Last observed `(heartbeat, when)` for stall detection; `None`
    /// until the job's co-operative run publishes its first sample.
    last: Option<(u64, Instant)>,
    /// The journal holds the job's record, so it owes an `end` marker.
    journaled: bool,
    /// Keep the result for a `wait`; `false` drops it at completion.
    keep: bool,
    /// A [`JobHandle`] still views this record.
    held: bool,
}

/// The service's job table: every admitted job's record plus the
/// admission counters (see the crate docs).
struct Table<R> {
    jobs: HashMap<JobId, Job<R>>,
    /// Admitted-but-not-terminal, per lane.
    pending: [usize; 3],
    /// Live jobs with a deadline: while zero and stall detection is
    /// off, the watchdog leaves the records alone.
    deadlines: usize,
    next_id: JobId,
    draining: bool,
    /// Lifetime terminal counts behind [`DrainSummary`].
    completed: u64,
    cancelled: u64,
}

/// A refused `transition`: the job had already ended.
struct IllegalTransition;

/// The result constructor a service applies to every finished job's
/// pool outcome (see [`FactorService::with_report`]).
type MakeResult<R> = Box<dyn Fn(&JobInfo, Outcome) -> R + Send + Sync>;

/// The service's pool set: one current pool plus any predecessors
/// still finishing their in-flight tail after a reconfigure.
struct Pools {
    current: Arc<Engine<'static>>,
    /// Retiring pools, oldest first; each is removed by its background
    /// drainer once its tail is done.
    retiring: Vec<Arc<Engine<'static>>>,
    /// Bumped by every successful reconfigure; the initial pool is 0.
    generation: u64,
}

/// State shared between the service, its sinks, its handles and the
/// watchdog thread.
struct Inner<R> {
    table: Mutex<Table<R>>,
    /// Notified by every terminal transition; waiters re-check their
    /// own record.
    ended: Condvar,
    pools: Mutex<Pools>,
    make: MakeResult<R>,
    tx: Mutex<Option<mpsc::Sender<ServiceEvent>>>,
    rx: Mutex<Option<mpsc::Receiver<ServiceEvent>>>,
    /// Tells the watchdog thread to exit.
    shutdown: AtomicBool,
    /// Write-ahead log, when [`ServiceConfig::journal`] is set.
    journal: Option<Journal>,
}

impl<R> Inner<R> {
    /// The pool new submissions go to.
    fn current_pool(&self) -> Arc<Engine<'static>> {
        Arc::clone(&self.pools.lock().current)
    }

    /// Current pool plus every retiring pool still finishing its tail —
    /// the set the watchdog and `cancel` must consult, since a job may
    /// live on any of them across a handover.
    fn all_pools(&self) -> Vec<Arc<Engine<'static>>> {
        let p = self.pools.lock();
        std::iter::once(&p.current)
            .chain(&p.retiring)
            .cloned()
            .collect()
    }

    /// Send `event` unless the stream has closed.
    fn emit(&self, event: ServiceEvent) {
        if let Some(tx) = &*self.tx.lock() {
            let _ = tx.send(event);
        }
    }

    /// Move job `id` to `to` — the one writer of a job's state, with
    /// the edges and terminal effects the crate docs list. Refused when
    /// the job already ended.
    fn transition(&self, id: JobId, mut to: State<R>) -> Result<(), IllegalTransition> {
        let status = to.status();
        let mut guard = self.table.lock();
        let t = &mut *guard;
        let job = t.jobs.get_mut(&id).ok_or(IllegalTransition)?;
        if job.state.status().is_terminal() || status == JobStatus::Queued {
            return Err(IllegalTransition);
        }
        let unwanted = match &mut to {
            State::Done(r) if !job.keep => r.take(),
            _ => None,
        };
        job.state = to;
        if !status.is_terminal() {
            return Ok(());
        }
        let (info, journaled) = (job.info, job.journaled);
        t.deadlines -= usize::from(job.deadline.is_some());
        let gone = if job.held { None } else { t.jobs.remove(&id) };
        t.pending[info.class.lane()] -= 1;
        if status == JobStatus::Cancelled {
            t.cancelled += 1;
        } else {
            t.completed += 1;
        }
        drop(guard);
        drop((unwanted, gone));
        self.ended.notify_all();
        // best effort: a missed completion marker only means replay
        // re-runs an already-finished job, which is deterministic and
        // harmless; failing the *job* over it would not be
        if let (true, Some(j)) = (journaled, &self.journal) {
            let _ = j.append_end(id);
        }
        self.emit(ServiceEvent::Job(JobEvent {
            id,
            class: info.class,
            status,
        }));
        Ok(())
    }

    /// The watchdog's scan: the live jobs past their deadline, and the
    /// running co-operative ones whose heartbeat stalled for `stall`.
    fn overdue(
        &self,
        pools: &[Arc<Engine<'static>>],
        stall: Option<Duration>,
    ) -> Vec<(JobId, ServeError)> {
        let mut t = self.table.lock();
        if t.deadlines == 0 && stall.is_none() {
            return Vec::new();
        }
        let now = Instant::now();
        let mut condemned = Vec::new();
        for job in t.jobs.values_mut() {
            let id = job.info.id;
            if job.state.status().is_terminal() {
                continue;
            }
            if let Some((at, deadline)) = job.deadline {
                if now >= at {
                    condemned.push((id, ServeError::DeadlineExceeded { deadline }));
                    continue;
                }
            }
            let (State::Running, Some(limit)) = (&job.state, stall) else {
                continue;
            };
            // co-scheduled or not yet published jobs have no heartbeat
            let Some(hb) = pools.iter().find_map(|p| p.progress_of(id)) else {
                continue;
            };
            match job.last {
                Some((prev, since)) if hb == prev => {
                    if now.duration_since(since) >= limit {
                        let stuck =
                            format!("no task progress for {limit:?} (heartbeat stuck at {hb})");
                        condemned.push((id, ServeError::Failed(CaluError::WorkerLost(stuck))));
                    }
                }
                _ => job.last = Some((hb, now)),
            }
        }
        condemned
    }
}

/// Routes one job's pool outcome into its record.
struct ServeSink<R> {
    id: JobId,
    shared: Arc<Inner<R>>,
}

impl<R: Send + 'static> JobSink for ServeSink<R> {
    fn started(&self) {
        // refused once the watchdog condemned the job; `Running →
        // Running` when a requeued co-scheduled item is claimed again
        let _ = self.shared.transition(self.id, State::Running);
    }

    fn finished(self: Box<Self>, res: Result<Outcome, CaluError>) {
        // a missing record ended long ago (and its handle let go); one
        // the watchdog or a cancel ended first refuses the transition
        // below, and the pool-side result is discarded
        let Some(info) = self.shared.table.lock().jobs.get(&self.id).map(|j| j.info) else {
            return;
        };
        let to = match res {
            Ok(out) => State::Done(Some((self.shared.make)(&info, out))),
            Err(e) => State::Failed(ServeError::Failed(e)),
        };
        let _ = self.shared.transition(self.id, to);
    }
}

/// A view of one submitted job's record: poll it with
/// [`try_status`](Self::try_status), block on it with
/// [`wait`](Self::wait).
pub struct JobHandle<R = Outcome> {
    info: JobInfo,
    shared: Arc<Inner<R>>,
}

impl<R> fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.info.id)
            .field("class", &self.info.class)
            .field("dims", &self.info.dims)
            .field("status", &self.try_status())
            .finish()
    }
}

impl<R> JobHandle<R> {
    /// The service-assigned job id.
    pub fn id(&self) -> JobId {
        self.info.id
    }

    /// `(rows, cols)` of the job's matrix.
    pub fn dims(&self) -> (usize, usize) {
        self.info.dims
    }

    /// Current lifecycle position, without blocking.
    pub fn try_status(&self) -> JobStatus {
        self.status_in(&self.shared.table.lock())
    }

    /// Block until the job reaches a terminal state and take its
    /// result.
    pub fn wait(self) -> Result<R, ServeError> {
        let mut t = self.shared.table.lock();
        while !self.status_in(&t).is_terminal() {
            t = self.shared.ended.wait(t).unwrap_or_else(|e| e.into_inner());
        }
        self.take(t)
    }

    /// [`wait`](Self::wait), bounded: blocks at most `timeout`. On
    /// expiry the handle comes back in `Err` so the caller can keep
    /// polling, re-wait, or cancel — the job itself is unaffected (use
    /// [`JobSpec::with_deadline`] to bound the *job*, not just the
    /// wait).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<R, ServeError>, Self> {
        let t = self.shared.table.lock();
        let (t, waited) = self
            .shared
            .ended
            .wait_timeout_while(t, timeout, |t| !self.status_in(t).is_terminal())
            .unwrap_or_else(|e| e.into_inner());
        if waited.timed_out() {
            drop(t);
            return Err(self);
        }
        Ok(self.take(t))
    }

    fn status_in(&self, t: &Table<R>) -> JobStatus {
        t.jobs[&self.info.id].state.status()
    }

    /// Remove the ended job's record and unpack its terminal state.
    fn take(&self, mut t: MutexGuard<'_, Table<R>>) -> Result<R, ServeError> {
        let job = t
            .jobs
            .remove(&self.info.id)
            .expect("a held job keeps its record");
        drop(t);
        match job.state {
            State::Done(r) => Ok(r.expect("a waited job keeps its result")),
            State::Failed(e) => Err(e),
            State::Cancelled => Err(ServeError::Cancelled),
            State::Queued | State::Running => unreachable!("taken only once terminal"),
        }
    }
}

impl<R> Drop for JobHandle<R> {
    /// An ended job's record goes with its handle; a live one is left
    /// for its terminal transition to remove.
    fn drop(&mut self) {
        let mut t = self.shared.table.lock();
        let Some(job) = t.jobs.get_mut(&self.info.id) else {
            return;
        };
        job.held = false;
        if job.state.status().is_terminal() {
            let gone = t.jobs.remove(&self.info.id);
            drop(t);
            drop(gone);
        }
    }
}

/// Service-wide event stream; ends when the service drains. Blocks on
/// [`Iterator::next`] until the next event: one terminal
/// [`ServiceEvent::Job`] per job in completion order, interleaved with
/// [`ServiceEvent::Degraded`] notices when fault injection costs the
/// pool a worker.
pub struct Events {
    rx: mpsc::Receiver<ServiceEvent>,
}

impl Events {
    /// Non-blocking poll: the next event if one is ready, `None` when
    /// the stream is momentarily empty *or* has ended (distinguish via
    /// the blocking iterator if it matters). Network pollers use this
    /// so draining the stream never blocks an accept loop.
    pub fn try_recv(&self) -> Option<ServiceEvent> {
        self.rx.try_recv().ok()
    }
}

impl Iterator for Events {
    type Item = ServiceEvent;
    fn next(&mut self) -> Option<ServiceEvent> {
        self.rx.recv().ok()
    }
}

/// What [`FactorService::drain`] accomplished over the service's whole
/// lifetime. Returned by every `drain` call (idempotent: later calls
/// return the same summary instead of silently double-draining).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs that ran to a result — [`JobStatus::Done`] or
    /// [`JobStatus::Failed`] (deadline/stall condemnations included).
    pub completed: u64,
    /// Jobs cancelled while still queued.
    pub cancelled: u64,
}

/// How often the watchdog wakes to check deadlines, heartbeats and
/// pool degradation.
const WATCHDOG_TICK: Duration = Duration::from_millis(2);

/// The watchdog loop: every tick, emit [`ServiceEvent::Degraded`] on a
/// new worker loss, fail jobs past their deadline, and fail running
/// co-operative jobs whose heartbeat stalled. A condemned job's
/// terminal transition races its sink's, so a normal finish racing the
/// watchdog resolves cleanly either way.
fn watchdog_loop<R: Send + 'static>(shared: Arc<Inner<R>>, stall: Option<Duration>) {
    let mut last_lost = 0usize;
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(WATCHDOG_TICK);
        // across a reconfigure a job may live on the current pool or a
        // retiring one; the watchdog polices all of them
        let pools = shared.all_pools();
        let lost: usize = pools.iter().map(|p| p.lost_workers()).sum();
        if lost > last_lost {
            last_lost = lost;
            shared.emit(ServiceEvent::Degraded { lost_workers: lost });
        }
        for (id, err) in shared.overdue(&pools, stall) {
            // remove a still-queued victim from the lanes (its sink
            // comes back uncalled and is dropped); then the terminal
            // write, and only if it won, stop the pool wasting work on
            // the run — the error lands in a sink that finds the job
            // ended and discards it
            let _ = pools.iter().find_map(|p| p.cancel(id));
            if shared.transition(id, State::Failed(err)).is_ok() {
                for p in &pools {
                    p.fail_active(
                        id,
                        CaluError::WorkerLost("run condemned by the service watchdog".into()),
                    );
                }
            }
        }
    }
}

/// A long-running factorization job service over one persistent worker
/// pool. Generic over the per-job report type `R`: the identity
/// service ([`FactorService::new`]) returns raw [`Outcome`]s, the
/// `calu` facade injects a `Report` builder via
/// [`FactorService::with_report`].
pub struct FactorService<R = Outcome> {
    cfg: ServiceConfig,
    shared: Arc<Inner<R>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    /// Background drainers for retiring pools, one per reconfigure;
    /// joined by `drain`.
    drainers: Mutex<Vec<JoinHandle<()>>>,
    /// Memoized drain result — the idempotence guard.
    drained: Mutex<Option<DrainSummary>>,
    /// Handles of journal-replayed jobs, takeable once.
    replayed: Mutex<Vec<JobHandle<R>>>,
}

impl FactorService<Outcome> {
    /// Spawn a service whose jobs resolve to raw [`Outcome`]s.
    /// `cfg` carries the solver knobs every job shares (tile size,
    /// threads, layout, dratio, small cutoff); it is validated here,
    /// once — jobs only vary in dims and data.
    pub fn new(cfg: &CaluConfig, svc: ServiceConfig) -> Result<Self, CaluError> {
        FactorService::with_report(cfg, svc, |_, out| out)
    }
}

impl<R: Send + 'static> FactorService<R> {
    /// [`new`](FactorService::new) with a report hook: every completed
    /// job's [`Outcome`] is mapped through `make` (on the worker
    /// that finished it) before landing in the handle.
    pub fn with_report(
        cfg: &CaluConfig,
        svc: ServiceConfig,
        make: impl Fn(&JobInfo, Outcome) -> R + Send + Sync + 'static,
    ) -> Result<Self, CaluError> {
        cfg.validate()?;
        // open the journal (compacting it to its incomplete tail) before
        // anything can be admitted; replay happens below, after the
        // watchdog is live, so replayed deadlines are enforced too
        let (journal, backlog) = match &svc.journal {
            Some(jc) => Journal::open(jc)
                .map(|(j, backlog)| (Some(j), backlog))
                .map_err(|e| {
                    let path = jc.path.display();
                    CaluError::InvalidConfig(format!("cannot open service journal {path}: {e}"))
                })?,
            None => (None, Vec::new()),
        };
        // the last fallible step: from here on the service owns the
        // workers and drains them when it goes
        let pool = Engine::spawn(cfg, svc.starvation_limit)?;
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Inner {
            table: Mutex::new(Table {
                jobs: HashMap::new(),
                pending: [0; 3],
                deadlines: 0,
                // replayed jobs keep their original ids; fresh ids
                // continue strictly above everything the journal saw
                next_id: backlog.iter().map(|r| r.id + 1).max().unwrap_or(1),
                draining: false,
                completed: 0,
                cancelled: 0,
            }),
            ended: Condvar::new(),
            pools: Mutex::new(Pools {
                current: pool,
                retiring: Vec::new(),
                generation: 0,
            }),
            make: Box::new(make),
            tx: Mutex::new(Some(tx)),
            rx: Mutex::new(Some(rx)),
            shutdown: AtomicBool::new(false),
            journal,
        });
        let watchdog = {
            let (shared, stall) = (Arc::clone(&shared), svc.stall_timeout);
            spawn("calu-serve-watchdog", move || watchdog_loop(shared, stall))
        };
        let service = FactorService {
            cfg: svc,
            shared,
            watchdog: Mutex::new(Some(watchdog)),
            drainers: Mutex::new(Vec::new()),
            drained: Mutex::new(None),
            replayed: Mutex::new(Vec::new()),
        };
        // replay the journal's incomplete tail: same ids, classes,
        // kernels, generator specs. A record that parsed but no longer
        // validates is dropped, not fatal: the journal outlived the
        // config that accepted it
        let handles: Vec<_> = backlog
            .into_iter()
            .filter_map(|rec| service.admit(rec.spec, rec.class, Some(rec.id), true).ok())
            .collect();
        let jobs = handles.len();
        if jobs > 0 {
            service.shared.emit(ServiceEvent::JournalReplayed { jobs });
        }
        *service.replayed.lock() = handles;
        Ok(service)
    }

    /// Handles for the jobs [`ServiceConfig::journal`] replay
    /// re-admitted when this service was built, takeable once (empty
    /// without a journal, on a clean journal, or on a second take).
    /// They carry the same [`JobId`]s the crashed run assigned.
    pub fn take_replayed(&self) -> Vec<JobHandle<R>> {
        std::mem::take(&mut *self.replayed.lock())
    }

    /// Admit one job. Fails fast — [`ServeError::Invalid`] for an
    /// empty-dimension spec (which never reaches the pool),
    /// [`ServeError::Busy`] when a quota is full,
    /// [`ServeError::ShuttingDown`] after [`drain`](Self::drain) began.
    pub fn submit(&self, spec: JobSpec, class: JobClass) -> Result<JobHandle<R>, ServeError> {
        self.admit(spec, class, None, true)
    }

    /// The single admission path: `submit` with `replay_id: None`,
    /// journal replay with the crashed run's id (which bypasses quota
    /// checks — the job was admitted once already — and skips
    /// re-journaling, its record being on disk by definition). `keep:
    /// false` (the front door) drops the job's result at completion.
    fn admit(
        &self,
        spec: JobSpec,
        class: JobClass,
        replay_id: Option<JobId>,
        keep: bool,
    ) -> Result<JobHandle<R>, ServeError> {
        let dims = spec.dims();
        spec.kernels()
            .check_shape(dims)
            .map_err(ServeError::Invalid)?;
        let mut t = self.shared.table.lock();
        if t.draining {
            return Err(ServeError::ShuttingDown);
        }
        let pool = self.shared.current_pool();
        let lane = class.lane();
        if replay_id.is_none() {
            let total: usize = t.pending.iter().sum();
            for (pending, quota) in [
                (total, self.cfg.max_pending),
                (t.pending[lane], self.cfg.class_quota[lane]),
            ] {
                if pending >= quota {
                    return Err(ServeError::Busy {
                        class,
                        pending,
                        quota,
                        retry_after_hint: retry_hint(pending, pool.threads()),
                    });
                }
            }
        }
        let id = replay_id.unwrap_or(t.next_id);
        t.next_id = t.next_id.max(id + 1);
        // the accept record must be durable before the job can run:
        // write-ahead, under the table lock, before the pool sees it
        let journaled = match (&self.shared.journal, replay_id) {
            (None, _) => false,
            (Some(_), Some(_)) => true,
            (Some(j), None) => j
                .append_job(id, class, &spec)
                .map_err(ServeError::Journal)?,
        };
        t.pending[lane] += 1;
        t.deadlines += usize::from(spec.deadline.is_some());
        let info = JobInfo {
            id,
            class,
            dims,
            kernels: spec.kernels(),
        };
        t.jobs.insert(
            id,
            Job {
                info,
                state: State::Queued,
                deadline: spec.deadline.map(|d| (Instant::now() + d, d)),
                last: None,
                journaled,
                keep,
                held: true,
            },
        );
        let handle = JobHandle {
            info,
            shared: Arc::clone(&self.shared),
        };
        let sink = ServeSink {
            id,
            shared: Arc::clone(&self.shared),
        };
        // submitted under the table lock: neither a drain nor a
        // reconfigure can slip between the checks above and the pool
        // seeing the job (both take this lock), so every admitted job
        // lands on a live pool and is finished — never stranded. The
        // pool hands a refused sink back uncalled, never re-entering
        // this lock
        let job = spec.job.verified(self.cfg.verify).traced(self.cfg.trace);
        if let Err(sink) = pool.submit(id, class, job, Box::new(sink)) {
            // unreachable while the invariant above holds (pool
            // draining implies we would have seen `t.draining`), but
            // handled without relying on it: end the job and refuse
            drop((t, sink));
            let _ = self.shared.transition(id, State::Cancelled);
            return Err(ServeError::ShuttingDown);
        }
        Ok(handle)
    }

    /// Cancel a still-queued job. `true` means the job was removed and
    /// its handle resolves to [`ServeError::Cancelled`]; `false` means
    /// a worker already claimed it (or it already finished) and the
    /// race resolves to normal completion.
    pub fn cancel(&self, handle: &JobHandle<R>) -> bool {
        // a queued job lives on exactly one pool (the current one,
        // post-handover), but checking the retiring set too makes
        // cancel correct even mid-reconfigure
        let pools = self.shared.all_pools();
        pools.iter().find_map(|p| p.cancel(handle.id())).is_some()
            && self
                .shared
                .transition(handle.id(), State::Cancelled)
                .is_ok()
    }

    /// Take the completion-order event stream. May be taken once; the
    /// stream yields one terminal event per job and ends when the
    /// service drains.
    ///
    /// # Panics
    /// If called a second time.
    pub fn events(&self) -> Events {
        Events {
            rx: self
                .shared
                .rx
                .lock()
                .take()
                .expect("the event stream may be taken only once"),
        }
    }

    /// Swap the shared solver knobs under load: spawn a successor
    /// [`Engine`] over `cfg` (validated here, like construction),
    /// carry every queued job over to it with its [`JobId`], class,
    /// deadline and spec intact, and retire the old pool — in-flight
    /// jobs finish where they started, on a background drainer. Zero
    /// jobs are dropped; the event stream runs continuously across the
    /// handover and announces it with [`ServiceEvent::Reconfigured`].
    ///
    /// Returns the new pool generation (the initial pool is 0). Errors
    /// if `cfg` is invalid or the service is draining; either way the
    /// old pool keeps serving untouched.
    pub fn reconfigure(&self, cfg: &CaluConfig) -> Result<u64, CaluError> {
        // spawn first, outside every lock: it validates and is slow
        let successor = Engine::spawn(cfg, self.cfg.starvation_limit)?;
        let t = self.shared.table.lock();
        if t.draining {
            successor.drain();
            return Err(CaluError::InvalidConfig(
                "cannot reconfigure a draining service".into(),
            ));
        }
        let (old, generation) = {
            let mut pools = self.shared.pools.lock();
            let old = std::mem::replace(&mut pools.current, Arc::clone(&successor));
            pools.retiring.push(Arc::clone(&old));
            pools.generation += 1;
            (old, pools.generation)
        };
        // atomically stop the old pool's admission and pop its queue;
        // holding the table lock means no submit can race the swap. A
        // fresh pool refuses nothing; kept non-fatal anyway — a refused
        // job fails after the locks drop, never silently dropped
        let refused: Vec<_> = (old.extract_queued().into_iter())
            .filter_map(|job| successor.submit(job.id, job.class, job.job, job.sink).err())
            .collect();
        drop(t);
        for sink in refused {
            sink.finished(Err(CaluError::InvalidConfig(
                "successor pool refused a carried-over job".into(),
            )));
        }
        // the old pool finishes its in-flight tail off-thread, then
        // leaves the retiring set; `drain` joins this handle
        let shared = Arc::clone(&self.shared);
        let drainer = spawn("calu-serve-retire", move || {
            old.drain();
            shared
                .pools
                .lock()
                .retiring
                .retain(|p| !Arc::ptr_eq(p, &old));
        });
        self.drainers.lock().push(drainer);
        self.shared.emit(ServiceEvent::Reconfigured { generation });
        Ok(generation)
    }

    /// Pool generation: 0 for the initial pool, +1 per successful
    /// [`reconfigure`](Self::reconfigure).
    pub fn generation(&self) -> u64 {
        self.shared.pools.lock().generation
    }

    /// Whether [`drain`](Self::drain) has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.table.lock().draining
    }

    /// Jobs admitted but not yet terminal (queued + running).
    pub fn pending(&self) -> usize {
        self.shared.table.lock().pending.iter().sum()
    }

    /// Jobs waiting in the current pool's lanes (admitted, not yet
    /// claimed).
    pub fn queued(&self) -> usize {
        self.shared.current_pool().queued()
    }

    /// [`queued`](Self::queued), one class.
    pub fn queued_in(&self, class: JobClass) -> usize {
        self.shared.current_pool().queued_in(class)
    }

    /// Current pool width (a [`reconfigure`](Self::reconfigure) may
    /// change it).
    pub fn threads(&self) -> usize {
        self.shared.current_pool().threads()
    }

    /// The scheduling split the *current* pool generation runs under
    /// (dratio, batch cutoff). Reconfigure-safe by construction: a
    /// generation's split is frozen at spawn, so this always describes
    /// the pool that is admitting jobs right now — an adaptive
    /// reconfigure shows up here as soon as the swap lands.
    pub fn current_split(&self) -> calu_sched::SplitChoice {
        self.shared.current_pool().config().split()
    }

    /// One-off worker spawn cost of the current pool, paid when it was
    /// built (at construction, or at the last reconfigure).
    pub fn spawn_secs(&self) -> f64 {
        self.shared.current_pool().spawn_secs()
    }

    /// Workers lost to injected faults (0 without fault injection),
    /// summed over the current pool and any pool still retiring from a
    /// reconfigure. Increases are also announced on
    /// [`events`](Self::events) as [`ServiceEvent::Degraded`].
    pub fn lost_workers(&self) -> usize {
        self.shared
            .all_pools()
            .iter()
            .map(|p| p.lost_workers())
            .sum()
    }

    /// Static tasks rescued into dynamic queues after worker loss or
    /// slowdown, summed over the live pools.
    pub fn rescued_tasks(&self) -> u64 {
        self.shared
            .all_pools()
            .iter()
            .map(|p| p.rescued_tasks())
            .sum()
    }
}

impl<R> FactorService<R> {
    /// Stop admitting, finish every queued and in-flight job (on the
    /// current pool and any pool still retiring from a reconfigure),
    /// join the workers and close the event stream. Idempotent: the
    /// first call does the work, every call returns the same
    /// [`DrainSummary`]. Also runs on drop. On return, zero jobs are
    /// pending. The watchdog stays live until the pools are fully
    /// drained, so deadlines keep biting while the backlog runs down.
    pub fn drain(&self) -> DrainSummary {
        let mut drained = self.drained.lock();
        if let Some(summary) = *drained {
            return summary;
        }
        self.shared.table.lock().draining = true;
        self.shared.current_pool().drain();
        // retiring pools each have a background drainer; join them, and
        // belt-and-braces drain any pool still in the retiring set (a
        // reconfigure that raced this drain may not have parked its
        // handle yet — pool drains are idempotent)
        loop {
            let handles: Vec<_> = self.drainers.lock().drain(..).collect();
            let stragglers = self.shared.all_pools();
            if handles.is_empty() && stragglers.len() == 1 {
                break;
            }
            for p in stragglers {
                p.drain();
            }
            for h in handles {
                let _ = h.join();
            }
        }
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.watchdog.lock().take() {
            let _ = h.join();
        }
        // everything is terminal: the journal compacts to empty — a
        // restart replays nothing
        if let Some(j) = &self.shared.journal {
            let _ = j.compact(&[]);
        }
        // every job is terminal; dropping the only sender ends `events`
        self.shared.tx.lock().take();
        let t = self.shared.table.lock();
        *drained.insert(DrainSummary {
            completed: t.completed,
            cancelled: t.cancelled,
        })
    }
}

impl<R> Drop for FactorService<R> {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Spawn one of the service's named threads.
fn spawn(name: impl Into<String>, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let builder = std::thread::Builder::new().name(name.into());
    builder.spawn(body).expect("spawn a service thread")
}

/// The [`ServeError::Busy`] retry hint: roughly one pool pass per
/// backlogged job ahead of the caller — 1 ms per `pending / threads`
/// (at least 1 ms), capped at 50 ms so callers never sleep absurdly
/// long on a deep backlog.
pub(crate) fn retry_hint(pending: usize, threads: usize) -> Duration {
    let per_pass = pending / threads.max(1);
    Duration::from_millis(per_pass.clamp(1, 50) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CaluConfig {
        CaluConfig::new(16).with_threads(2).with_dratio(0.5)
    }

    fn svc() -> ServiceConfig {
        ServiceConfig {
            verify: false,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submit_wait_roundtrip() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let h = service
            .submit(JobSpec::uniform(64, 64, 1), JobClass::Interactive)
            .unwrap();
        let out = h.wait().unwrap();
        assert_eq!(out.dims, (64, 64));
        assert!(out.factorization.is_nonsingular());
        service.drain();
        assert_eq!(service.pending(), 0);
    }

    #[test]
    fn total_quota_rejects_with_busy() {
        let service = FactorService::new(
            &cfg(),
            ServiceConfig {
                max_pending: 1,
                ..svc()
            },
        )
        .unwrap();
        // two submits racing one slot: at least one Busy unless the
        // first finished first — force determinism with a big first job
        let h = service
            .submit(JobSpec::uniform(512, 512, 1), JobClass::Batch)
            .unwrap();
        let res = service.submit(JobSpec::uniform(8, 8, 2), JobClass::Batch);
        assert!(matches!(res, Err(ServeError::Busy { .. })));
        h.wait().unwrap();
        service.drain();
    }

    #[test]
    fn class_quota_is_independent_of_total() {
        let service = FactorService::new(
            &cfg(),
            ServiceConfig {
                max_pending: 100,
                class_quota: [1, 100, 100],
                ..svc()
            },
        )
        .unwrap();
        let h = service
            .submit(JobSpec::uniform(512, 512, 1), JobClass::Interactive)
            .unwrap();
        let res = service.submit(JobSpec::uniform(8, 8, 2), JobClass::Interactive);
        assert!(matches!(res, Err(ServeError::Busy { quota: 1, .. })));
        // other classes still admit
        let ok = service.submit(JobSpec::uniform(8, 8, 3), JobClass::Batch);
        assert!(ok.is_ok());
        h.wait().unwrap();
        ok.unwrap().wait().unwrap();
        service.drain();
    }

    #[test]
    fn invalid_spec_never_reaches_the_pool() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let res = service.submit(JobSpec::uniform(0, 8, 1), JobClass::Batch);
        assert!(matches!(res, Err(ServeError::Invalid(_))));
        assert_eq!(service.pending(), 0);
        assert_eq!(service.queued(), 0);
        service.drain();
    }

    #[test]
    fn submit_after_drain_is_rejected() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        service.drain();
        let res = service.submit(JobSpec::uniform(8, 8, 1), JobClass::Interactive);
        assert!(matches!(res, Err(ServeError::ShuttingDown)));
        service.drain(); // idempotent
    }

    #[test]
    fn events_stream_yields_one_terminal_event_per_job_and_ends() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let events = service.events();
        let n = 5;
        for seed in 0..n {
            service
                .submit(
                    JobSpec::uniform(48, 48, seed),
                    JobClass::ALL[seed as usize % 3],
                )
                .unwrap();
        }
        service.drain();
        // ends: sender dropped. No degradation without fault injection
        let seen: Vec<JobEvent> = events
            .map(|e| match e {
                ServiceEvent::Job(j) => j,
                other => panic!("expected only job events, got {other:?}"),
            })
            .collect();
        assert_eq!(seen.len(), n as usize);
        assert!(seen.iter().all(|e| e.status == JobStatus::Done));
    }

    #[test]
    fn busy_rejections_carry_a_retry_hint() {
        let service = FactorService::new(
            &cfg(),
            ServiceConfig {
                max_pending: 1,
                ..svc()
            },
        )
        .unwrap();
        let h = service
            .submit(JobSpec::uniform(512, 512, 1), JobClass::Batch)
            .unwrap();
        match service.submit(JobSpec::uniform(8, 8, 2), JobClass::Batch) {
            Err(ServeError::Busy {
                retry_after_hint, ..
            }) => {
                assert!(retry_after_hint >= Duration::from_millis(1));
                assert!(retry_after_hint <= Duration::from_millis(50));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        h.wait().unwrap();
        service.drain();
        // the hint scales with backlog depth relative to the pool
        assert_eq!(retry_hint(1, 2), Duration::from_millis(1));
        assert_eq!(retry_hint(64, 2), Duration::from_millis(32));
        assert_eq!(retry_hint(10_000, 2), Duration::from_millis(50));
    }

    #[test]
    fn wait_timeout_returns_the_handle_on_expiry_and_the_result_later() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let h = service
            .submit(JobSpec::uniform(384, 384, 1), JobClass::Batch)
            .unwrap();
        // a 384² job does not finish in 1 ms: the handle comes back
        let h = match h.wait_timeout(Duration::from_millis(1)) {
            Err(h) => h,
            Ok(_) => panic!("a 384² factorization finished within 1 ms?"),
        };
        // and a generous re-wait resolves it normally
        match h.wait_timeout(Duration::from_secs(60)) {
            Ok(Ok(out)) => assert_eq!(out.dims, (384, 384)),
            other => panic!("expected the result, got {other:?}"),
        }
        service.drain();
    }

    #[test]
    fn a_queued_job_past_its_deadline_fails_typed() {
        // one worker, a big job in front: the victim sits queued past
        // its tiny deadline and the watchdog cancels it
        let solver = CaluConfig::new(16).with_threads(1).with_dratio(0.5);
        let service = FactorService::new(&solver, svc()).unwrap();
        let blocker = service
            .submit(JobSpec::uniform(512, 512, 1), JobClass::Batch)
            .unwrap();
        let victim = service
            .submit(
                JobSpec::uniform(256, 256, 2).with_deadline(Duration::from_millis(1)),
                JobClass::Batch,
            )
            .unwrap();
        match victim.wait() {
            Err(ServeError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::from_millis(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        blocker.wait().unwrap();
        service.drain();
        assert_eq!(service.pending(), 0, "the condemned job was accounted");
    }

    #[test]
    fn a_running_job_past_its_deadline_fails_typed_and_the_pool_survives() {
        // cutoff 0 routes everything co-operative, so the watchdog can
        // condemn the in-flight run itself
        let solver = CaluConfig::new(16)
            .with_threads(2)
            .with_dratio(0.5)
            .with_batch_small_cutoff(0);
        let service = FactorService::new(&solver, svc()).unwrap();
        let doomed = service
            .submit(
                JobSpec::uniform(768, 768, 3).with_deadline(Duration::from_millis(10)),
                JobClass::Batch,
            )
            .unwrap();
        assert!(matches!(
            doomed.wait(),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        // the service keeps serving after the condemnation
        let ok = service
            .submit(JobSpec::uniform(64, 64, 4), JobClass::Batch)
            .unwrap();
        ok.wait().unwrap();
        service.drain();
        assert_eq!(service.pending(), 0);
    }

    #[test]
    fn mixed_lu_and_cholesky_jobs_resolve_on_one_service() {
        let service = FactorService::new(
            &cfg(),
            ServiceConfig {
                verify: true,
                ..svc()
            },
        )
        .unwrap();
        let lu = service
            .submit(JobSpec::uniform(64, 64, 1), JobClass::Batch)
            .unwrap();
        let ch = service
            .submit(JobSpec::spd_uniform(64, 2), JobClass::Batch)
            .unwrap();
        assert_eq!(lu.info.kernels, KernelSet::CaluLu);
        assert_eq!(ch.info.kernels, KernelSet::Cholesky);
        let lu_out = lu.wait().unwrap();
        let ch_out = ch.wait().unwrap();
        assert_eq!(lu_out.kernels, KernelSet::CaluLu);
        assert_eq!(ch_out.kernels, KernelSet::Cholesky);
        assert!(ch_out.factorization.is_nonsingular());
        assert!(ch_out.residual.unwrap() < 1e-13);
        assert!(ch_out.growth_factor.is_none());
        service.drain();
    }

    #[test]
    fn rectangular_cholesky_spec_is_rejected_at_submit() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let res = service.submit(
            JobSpec::uniform(64, 48, 1).with_kernels(KernelSet::Cholesky),
            JobClass::Batch,
        );
        assert!(matches!(res, Err(ServeError::Invalid(_))));
        assert_eq!(service.pending(), 0);
        service.drain();
    }

    #[test]
    fn a_terminal_job_refuses_a_second_end() {
        // one worker behind a big blocker: the victim stays queued while
        // the watchdog's half and then the client's half of a
        // deadline-vs-cancel race end it
        let solver = CaluConfig::new(16).with_threads(1).with_dratio(0.5);
        let service = FactorService::new(&solver, svc()).unwrap();
        let events = service.events();
        let blocker = service
            .submit(JobSpec::uniform(512, 512, 1), JobClass::Batch)
            .unwrap();
        let victim = service
            .submit(JobSpec::uniform(64, 64, 2), JobClass::Batch)
            .unwrap();
        let id = victim.id();
        let pending = service.pending();
        let pools = service.shared.all_pools();
        assert!(pools.iter().find_map(|p| p.cancel(id)).is_some());
        let late = ServeError::DeadlineExceeded {
            deadline: Duration::ZERO,
        };
        assert!(service.shared.transition(id, State::Failed(late)).is_ok());
        assert!(matches!(
            service.shared.transition(id, State::Cancelled),
            Err(IllegalTransition)
        ));
        assert_eq!(service.pending(), pending - 1);
        assert!(!service.cancel(&victim), "the job already ended");
        assert!(matches!(
            victim.wait(),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        blocker.wait().unwrap();
        let summary = service.drain();
        assert_eq!(
            summary,
            DrainSummary {
                completed: 2,
                cancelled: 0
            }
        );
        let ends = events
            .filter(|e| matches!(e, ServiceEvent::Job(j) if j.id == id))
            .count();
        assert_eq!(ends, 1, "one terminal event per job");
        assert!(service.shared.table.lock().jobs.is_empty());
    }

    #[test]
    fn only_journaled_jobs_get_an_end_marker() {
        let path = std::env::temp_dir().join(format!(
            "calu-serve-end-markers-{}.journal",
            std::process::id()
        ));
        let service = FactorService::new(
            &cfg(),
            ServiceConfig {
                journal: Some(JournalConfig::new(&path)),
                ..svc()
            },
        )
        .unwrap();
        let mut events = service.events();
        let dense = JobSpec::dense(calu_matrix::gen::uniform(32, 32, 1));
        let dense = service.submit(dense, JobClass::Batch).unwrap();
        let generated = service
            .submit(JobSpec::uniform(32, 32, 2), JobClass::Batch)
            .unwrap();
        dense.wait().unwrap();
        generated.wait().unwrap();
        // a job's event follows its end marker: with both events in,
        // the journal holds every marker it will get before the drain
        let ended = events
            .by_ref()
            .filter(|e| matches!(e, ServiceEvent::Job(_)))
            .take(2)
            .count();
        assert_eq!(ended, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let ends: Vec<&str> = text.lines().filter(|l| l.starts_with("end ")).collect();
        assert_eq!(ends, [format!("end {}", generated_id(&text))]);
        service.drain();
        let _ = std::fs::remove_file(&path);
    }

    /// The id of the one `job` line in a journal's text.
    fn generated_id(text: &str) -> &str {
        let jobs: Vec<&str> = text.lines().filter(|l| l.starts_with("job ")).collect();
        assert_eq!(jobs.len(), 1, "only the generator spec is journaled");
        jobs[0].split_whitespace().nth(1).unwrap()
    }

    #[test]
    fn dropped_handles_leave_no_record_behind() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let early = service
            .submit(JobSpec::uniform(256, 256, 1), JobClass::Batch)
            .unwrap();
        let late = service
            .submit(JobSpec::uniform(32, 32, 2), JobClass::Batch)
            .unwrap();
        // dropped while live: the terminal transition removes the record
        drop(early);
        while late.try_status() != JobStatus::Done {
            std::thread::yield_now();
        }
        // dropped once ended: the handle removes it
        drop(late);
        service.drain();
        assert!(service.shared.table.lock().jobs.is_empty());
    }

    #[test]
    fn the_spec_words_round_trip() {
        for line in [
            "uniform 64 48 7",
            "spd 32 9 deadline_ms 15",
            "uniform 8 8 1 deadline_ms 0",
        ] {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let spec = JobSpec::parse(&tokens).unwrap();
            assert_eq!(spec.render().as_deref(), Some(line));
        }
        assert_eq!(
            JobSpec::parse(&["spd", "4", "1"]).unwrap().kernels(),
            KernelSet::Cholesky
        );
        for bad in [
            &["uniform", "8", "8"][..],
            &["spd", "x", "1"],
            &["gauss", "8"],
            &[],
        ] {
            assert!(JobSpec::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(JobSpec::dense(calu_matrix::gen::uniform(4, 4, 1))
            .render()
            .is_none());
        assert!(matches!(
            parse_class("background"),
            Ok(JobClass::Background)
        ));
        assert!(parse_class("express").is_err());
    }

    #[test]
    fn a_retired_engine_is_freed_and_the_last_one_is_held_once() {
        // engines do not drain on drop, so the service must: after a
        // reconfigure and a drain no worker, drainer or watchdog still
        // holds an engine — the retired one is gone, the current one is
        // held by the pool set alone
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let h = service
            .submit(JobSpec::uniform(64, 64, 1), JobClass::Batch)
            .unwrap();
        let retired = Arc::downgrade(&service.shared.current_pool());
        service.reconfigure(&cfg().with_threads(1)).unwrap();
        h.wait().unwrap();
        service.drain();
        assert!(retired.upgrade().is_none(), "the retired engine leaked");
        assert_eq!(Arc::strong_count(&service.shared.pools.lock().current), 1);
    }

    #[test]
    fn an_unopenable_journal_fails_construction() {
        let path = std::env::temp_dir()
            .join(format!("calu-serve-missing-{}", std::process::id()))
            .join("service.journal");
        let res = FactorService::new(
            &cfg(),
            ServiceConfig {
                journal: Some(JournalConfig::new(&path)),
                ..svc()
            },
        );
        assert!(matches!(res, Err(CaluError::InvalidConfig(_))));
    }

    #[test]
    fn try_status_tracks_the_lifecycle() {
        let service = FactorService::new(&cfg(), svc()).unwrap();
        let h = service
            .submit(JobSpec::uniform(64, 64, 1), JobClass::Batch)
            .unwrap();
        // any pre-terminal or terminal status is legal here; wait, then
        // the status must be terminal
        h.wait().unwrap();
        service.drain();
    }
}
