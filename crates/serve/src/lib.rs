//! `calu-serve` — a long-running factorization job service.
//!
//! The paper's hybrid schedule optimizes one factorization; this crate
//! serves *streams* of them. A [`FactorService`] owns one
//! request-persistent worker pool ([`calu_core::pool::ServicePool`])
//! and layers on top of it, in the server/queue/worker split of
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

pub mod journal;
pub mod net;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use calu_core::pool::{JobSink, ServicePool};
use calu_core::sync::Mutex;
use calu_core::{BatchItem, CaluConfig, CaluError, KernelSet, Outcome, Source};
use calu_matrix::DenseMatrix;
pub use calu_sched::JobClass;

pub use journal::JournalConfig;
use journal::{Journal, JournalRecord};
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
    /// task heartbeat has not advanced for this long is condemned with
    /// a typed worker-loss failure ([`ServeError::Failed`] carrying
    /// `CaluError::WorkerLost`). `None` (the default) disables stall
    /// detection; per-job deadlines work either way. Co-scheduled
    /// (small) jobs expose no heartbeat and are exempt.
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
/// materialized lazily on the worker that claims the job — plus which
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
    pub fn from_source(source: Source<'static>) -> Self {
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

    /// The job's deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// `(rows, cols)` of the job's matrix.
    pub fn dims(&self) -> (usize, usize) {
        self.job.source.dims()
    }

    /// Which algorithm's kernels factor the job.
    pub fn kernels(&self) -> KernelSet {
        self.job.kernels
    }
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

enum CellState<R> {
    Queued,
    Running,
    Done(R),
    Failed(ServeError),
    Cancelled,
    /// The result was consumed by `wait`.
    Taken,
}

struct JobCell<R> {
    state: Mutex<CellState<R>>,
    cv: Condvar,
}

/// A claim on one submitted job: poll it with
/// [`try_status`](Self::try_status), block on it with
/// [`wait`](Self::wait).
pub struct JobHandle<R = Outcome> {
    id: JobId,
    class: JobClass,
    dims: (usize, usize),
    kernels: KernelSet,
    cell: Arc<JobCell<R>>,
}

impl<R> fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("class", &self.class)
            .field("dims", &self.dims)
            .field("status", &self.try_status())
            .finish()
    }
}

impl<R> JobHandle<R> {
    /// The service-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The class the job was admitted under.
    pub fn class(&self) -> JobClass {
        self.class
    }

    /// `(rows, cols)` of the job's matrix.
    pub fn dims(&self) -> (usize, usize) {
        self.dims
    }

    /// Which algorithm's kernels factor the job.
    pub fn kernels(&self) -> KernelSet {
        self.kernels
    }

    /// Current lifecycle position, without blocking.
    pub fn try_status(&self) -> JobStatus {
        match &*self.cell.state.lock() {
            CellState::Queued => JobStatus::Queued,
            CellState::Running => JobStatus::Running,
            CellState::Done(_) | CellState::Taken => JobStatus::Done,
            CellState::Failed(_) => JobStatus::Failed,
            CellState::Cancelled => JobStatus::Cancelled,
        }
    }

    /// Block until the job reaches a terminal state and take its
    /// result.
    pub fn wait(self) -> Result<R, ServeError> {
        let mut st = self.cell.state.lock();
        while let CellState::Queued | CellState::Running = &*st {
            st = self.cell.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        match std::mem::replace(&mut *st, CellState::Taken) {
            CellState::Done(r) => Ok(r),
            CellState::Failed(e) => Err(e),
            CellState::Cancelled => Err(ServeError::Cancelled),
            _ => unreachable!("wait consumes the handle"),
        }
    }

    /// [`wait`](Self::wait), bounded: blocks at most `timeout`. On
    /// expiry the handle comes back in `Err` so the caller can keep
    /// polling, re-wait, or cancel — the job itself is unaffected (use
    /// [`JobSpec::with_deadline`] to bound the *job*, not just the
    /// wait).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<R, ServeError>, Self> {
        let deadline = Instant::now() + timeout;
        let mut st = self.cell.state.lock();
        while let CellState::Queued | CellState::Running = &*st {
            let now = Instant::now();
            if now >= deadline {
                drop(st);
                return Err(self);
            }
            st = self
                .cell
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        Ok(match std::mem::replace(&mut *st, CellState::Taken) {
            CellState::Done(r) => Ok(r),
            CellState::Failed(e) => Err(e),
            CellState::Cancelled => Err(ServeError::Cancelled),
            _ => unreachable!("a terminal wait consumes the handle"),
        })
    }
}

struct Admission {
    /// Admitted-but-not-terminal, total and per lane.
    pending_total: usize,
    pending: [usize; 3],
    draining: bool,
    next_id: JobId,
}

/// The result constructor a service applies to every finished job's
/// pool outcome (see [`FactorService::with_report`]).
type MakeResult<R> = Box<dyn Fn(&JobInfo, Outcome) -> R + Send + Sync>;

/// One job the watchdog keeps an eye on: a deadline, a heartbeat
/// history, or both.
struct WatchEntry<R> {
    info: JobInfo,
    cell: Arc<JobCell<R>>,
    /// Absolute deadline (admission time + the spec's deadline), with
    /// the spec's relative deadline kept for the error message.
    deadline: Option<(Instant, Duration)>,
    /// Last observed `(heartbeat, when)` for stall detection; `None`
    /// until the job's co-operative run publishes its first sample.
    last: Option<(u64, Instant)>,
}

/// The service's pool set: one current pool plus any predecessors
/// still finishing their in-flight tail after a reconfigure.
struct Pools {
    current: Arc<ServicePool>,
    /// Retiring pools, oldest first; each is removed by its background
    /// drainer once its tail is done.
    retiring: Vec<Arc<ServicePool>>,
    /// Bumped by every successful reconfigure; the initial pool is 0.
    generation: u64,
}

/// State shared between the service, its sinks, its handles and the
/// watchdog thread.
///
/// Lock order (outer → inner): `admission → pools → tx/journal`. The
/// sink side never holds `watch` across `admission` (ABBA with
/// `submit`'s admission → watch order).
struct Inner<R> {
    admission: Mutex<Admission>,
    pools: Mutex<Pools>,
    make: MakeResult<R>,
    tx: Mutex<Option<mpsc::Sender<ServiceEvent>>>,
    rx: Mutex<Option<mpsc::Receiver<ServiceEvent>>>,
    /// Jobs under watchdog surveillance. Never held across the
    /// admission lock by the sink side (ABBA with `submit`'s
    /// admission → watch order).
    watch: Mutex<Vec<WatchEntry<R>>>,
    /// Tells the watchdog thread to exit.
    shutdown: AtomicBool,
    /// Write-ahead log, when [`ServiceConfig::journal`] is set.
    journal: Option<Journal>,
    /// Lifetime terminal-state counters behind [`DrainSummary`].
    completed: AtomicU64,
    cancelled: AtomicU64,
}

impl<R> Inner<R> {
    /// The pool new submissions go to.
    fn current_pool(&self) -> Arc<ServicePool> {
        Arc::clone(&self.pools.lock().current)
    }

    /// Current pool plus every retiring pool still finishing its tail —
    /// the set the watchdog and `cancel` must consult, since a job may
    /// live on any of them across a handover.
    fn all_pools(&self) -> Vec<Arc<ServicePool>> {
        let p = self.pools.lock();
        let mut all = Vec::with_capacity(1 + p.retiring.len());
        all.push(Arc::clone(&p.current));
        all.extend(p.retiring.iter().cloned());
        all
    }

    /// One job left the pending set (terminal state reached).
    fn job_ended(&self, info: &JobInfo, status: JobStatus) {
        {
            let mut adm = self.admission.lock();
            adm.pending_total -= 1;
            adm.pending[info.class.lane()] -= 1;
        }
        if status == JobStatus::Cancelled {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
        // best effort: a missed completion marker only means replay
        // re-runs an already-finished job, which is deterministic and
        // harmless; failing the *job* over it would not be
        if let Some(j) = &self.journal {
            let _ = j.append_end(info.id);
        }
        if let Some(tx) = &*self.tx.lock() {
            let _ = tx.send(ServiceEvent::Job(JobEvent {
                id: info.id,
                class: info.class,
                status,
            }));
        }
    }

    /// Watchdog-side terminal transition: first writer wins against the
    /// job's sink. `false` means the job went terminal first and
    /// nothing was done.
    fn condemn(&self, info: &JobInfo, cell: &JobCell<R>, err: ServeError) -> bool {
        {
            let mut st = cell.state.lock();
            if !matches!(*st, CellState::Queued | CellState::Running) {
                return false;
            }
            *st = CellState::Failed(err);
        }
        cell.cv.notify_all();
        self.job_ended(info, JobStatus::Failed);
        true
    }
}

/// Routes one job's pool outcome into its handle and the event stream.
struct ServeSink<R> {
    info: JobInfo,
    cell: Arc<JobCell<R>>,
    shared: Arc<Inner<R>>,
}

impl<R: Send + 'static> JobSink for ServeSink<R> {
    fn started(&self) {
        // idempotent on purpose: a job requeued after a mid-item worker
        // loss is claimed (and `started`) a second time
        let mut st = self.cell.state.lock();
        if matches!(*st, CellState::Queued) {
            *st = CellState::Running;
        }
    }

    fn finished(self: Box<Self>, res: Result<Outcome, CaluError>) {
        // leave the watchdog's registry first (lock not held onward)
        self.shared
            .watch
            .lock()
            .retain(|e| e.info.id != self.info.id);
        let (state, status) = match res {
            Ok(out) => (
                CellState::Done((self.shared.make)(&self.info, out)),
                JobStatus::Done,
            ),
            Err(e) => (CellState::Failed(ServeError::Failed(e)), JobStatus::Failed),
        };
        {
            let mut st = self.cell.state.lock();
            if !matches!(*st, CellState::Queued | CellState::Running) {
                // the watchdog condemned this job first (deadline or
                // stall) and already accounted for it; the pool-side
                // result is discarded
                return;
            }
            *st = state;
        }
        self.cell.cv.notify_all();
        self.shared.job_ended(&self.info, status);
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
/// co-operative jobs whose heartbeat stalled. Jobs are condemned
/// first-writer-wins against their sink, so a normal finish racing the
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
            if let Some(tx) = &*shared.tx.lock() {
                let _ = tx.send(ServiceEvent::Degraded { lost_workers: lost });
            }
        }
        let now = Instant::now();
        // decide under the watch lock, act after releasing it: condemn
        // takes the cell and admission locks, which the sink side takes
        // without holding `watch`
        let mut condemned: Vec<(JobInfo, Arc<JobCell<R>>, ServeError)> = Vec::new();
        {
            let mut watch = shared.watch.lock();
            watch.retain_mut(|e| {
                let running = match &*e.cell.state.lock() {
                    CellState::Queued => false,
                    CellState::Running => true,
                    _ => return false, // terminal: stop watching
                };
                if let Some((at, rel)) = e.deadline {
                    if now >= at {
                        condemned.push((
                            e.info,
                            Arc::clone(&e.cell),
                            ServeError::DeadlineExceeded { deadline: rel },
                        ));
                        return false;
                    }
                }
                if let (true, Some(limit)) = (running, stall) {
                    // co-scheduled or not yet published jobs have no
                    // heartbeat to judge by
                    if let Some(hb) = pools.iter().find_map(|p| p.progress_of(e.info.id)) {
                        match e.last {
                            Some((prev, since)) if hb == prev => {
                                if now.duration_since(since) >= limit {
                                    condemned.push((
                                        e.info,
                                        Arc::clone(&e.cell),
                                        ServeError::Failed(CaluError::WorkerLost(format!(
                                            "no task progress for {limit:?} \
                                             (heartbeat stuck at {hb})"
                                        ))),
                                    ));
                                    return false;
                                }
                            }
                            _ => e.last = Some((hb, now)),
                        }
                    }
                }
                true
            });
        }
        for (info, cell, err) in condemned {
            // remove a still-queued victim from the lanes (sink comes
            // back uncalled and is dropped); then the terminal write
            let _ = pools.iter().find_map(|p| p.cancel(info.id));
            if shared.condemn(&info, &cell, err) {
                // stop the pool wasting work on a condemned run; the
                // error lands in a sink that finds the cell terminal
                // and discards it
                for p in &pools {
                    p.fail_active(
                        info.id,
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
        let pool = Arc::new(ServicePool::spawn(cfg, svc.starvation_limit)?);
        // open the journal (compacting it to its incomplete tail) before
        // anything can be admitted; replay happens below, after the
        // watchdog is live, so replayed deadlines are enforced too
        let (journal, backlog) = match &svc.journal {
            Some(jc) => {
                let (j, backlog) = Journal::open(jc).map_err(|e| {
                    CaluError::InvalidConfig(format!(
                        "cannot open service journal {}: {e}",
                        jc.path.display()
                    ))
                })?;
                (Some(j), backlog)
            }
            None => (None, Vec::new()),
        };
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Inner {
            admission: Mutex::new(Admission {
                pending_total: 0,
                pending: [0; 3],
                draining: false,
                // replayed jobs keep their original ids; fresh ids
                // continue strictly above everything the journal saw
                next_id: backlog.iter().map(|r| r.id + 1).max().unwrap_or(1),
            }),
            pools: Mutex::new(Pools {
                current: pool,
                retiring: Vec::new(),
                generation: 0,
            }),
            make: Box::new(make),
            tx: Mutex::new(Some(tx)),
            rx: Mutex::new(Some(rx)),
            watch: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            journal,
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        });
        let watchdog = {
            let shared = Arc::clone(&shared);
            let stall = svc.stall_timeout;
            std::thread::Builder::new()
                .name("calu-serve-watchdog".into())
                .spawn(move || watchdog_loop(shared, stall))
                .expect("spawn watchdog thread")
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
        // kernels, generator specs — quota checks are bypassed (these
        // jobs were admitted once already) and the records are already
        // on disk, so they are not re-journaled
        if !backlog.is_empty() {
            let mut handles = Vec::with_capacity(backlog.len());
            for rec in backlog {
                let (spec, class, id) = rec.into_spec();
                match service.admit(spec, class, Some(id)) {
                    Ok(h) => handles.push(h),
                    // a record that parsed but no longer validates is
                    // dropped, not fatal: the journal outlived the
                    // config that accepted it
                    Err(_) => continue,
                }
            }
            let n = handles.len();
            *service.replayed.lock() = handles;
            if n > 0 {
                if let Some(tx) = &*service.shared.tx.lock() {
                    let _ = tx.send(ServiceEvent::JournalReplayed { jobs: n });
                }
            }
        }
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
        self.admit(spec, class, None)
    }

    /// The single admission path: `submit` with `replay_id: None`,
    /// journal replay with the crashed run's id (which bypasses quota
    /// checks — the job was admitted once already — and skips
    /// re-journaling, its record being on disk by definition).
    fn admit(
        &self,
        spec: JobSpec,
        class: JobClass,
        replay_id: Option<JobId>,
    ) -> Result<JobHandle<R>, ServeError> {
        let dims = spec.dims();
        if dims.0 == 0 || dims.1 == 0 {
            return Err(ServeError::Invalid(CaluError::EmptyMatrix));
        }
        if spec.kernels() == KernelSet::Cholesky && dims.0 != dims.1 {
            return Err(ServeError::Invalid(CaluError::InvalidConfig(format!(
                "tiled Cholesky factors a square SPD matrix, got {}×{}",
                dims.0, dims.1
            ))));
        }
        let mut adm = self.shared.admission.lock();
        if adm.draining {
            return Err(ServeError::ShuttingDown);
        }
        let pool = self.shared.current_pool();
        let lane = class.lane();
        if replay_id.is_none() {
            if adm.pending_total >= self.cfg.max_pending {
                return Err(ServeError::Busy {
                    class,
                    pending: adm.pending_total,
                    quota: self.cfg.max_pending,
                    retry_after_hint: retry_hint(adm.pending_total, pool.threads()),
                });
            }
            if adm.pending[lane] >= self.cfg.class_quota[lane] {
                return Err(ServeError::Busy {
                    class,
                    pending: adm.pending[lane],
                    quota: self.cfg.class_quota[lane],
                    retry_after_hint: retry_hint(adm.pending[lane], pool.threads()),
                });
            }
        }
        let id = match replay_id {
            Some(id) => id,
            None => {
                let id = adm.next_id;
                adm.next_id += 1;
                id
            }
        };
        // the accept record must be durable before the job can run:
        // write-ahead, under the admission lock, before the pool sees
        // it. Only generator specs are journaled — dense data is not
        // replayable from a line record.
        if replay_id.is_none() {
            if let Some(j) = &self.shared.journal {
                if let Some(rec) = JournalRecord::from_spec(id, class, &spec) {
                    if let Err(e) = j.append_job(&rec) {
                        return Err(ServeError::Journal(e));
                    }
                }
            }
        }
        adm.pending_total += 1;
        adm.pending[lane] += 1;
        let info = JobInfo {
            id,
            class,
            dims,
            kernels: spec.kernels(),
        };
        let cell = Arc::new(JobCell {
            state: Mutex::new(CellState::Queued),
            cv: Condvar::new(),
        });
        let sink = ServeSink {
            info,
            cell: Arc::clone(&cell),
            shared: Arc::clone(&self.shared),
        };
        // submitted while holding the admission lock: neither a drain
        // nor a reconfigure can slip between the checks above and the
        // pool seeing the job (both take this lock), so every admitted
        // job lands on a live pool and is finished — never stranded.
        // Holding the lock across `pool.submit` is safe because a pool
        // rejection hands the sink back *uncalled*; a synchronous
        // `finished` callback here would re-enter this same admission
        // lock via `job_ended` and self-deadlock.
        let job = spec.job.verified(self.cfg.verify).traced(self.cfg.trace);
        if let Err(sink) = pool.submit(id, class, job, Box::new(sink)) {
            // unreachable while the invariant above holds (pool
            // draining implies we would have seen `adm.draining`), but
            // handled without relying on it: roll back the admission
            // and refuse
            adm.pending_total -= 1;
            adm.pending[lane] -= 1;
            if let Some(j) = &self.shared.journal {
                let _ = j.append_end(id);
            }
            drop(adm);
            drop(sink);
            return Err(ServeError::ShuttingDown);
        }
        drop(adm);
        // register with the watchdog when there is anything to enforce.
        // The job may already have finished — then the watchdog drops
        // the entry at its next tick (the cell is terminal).
        if spec.deadline.is_some() || self.cfg.stall_timeout.is_some() {
            self.shared.watch.lock().push(WatchEntry {
                info,
                cell: Arc::clone(&cell),
                deadline: spec.deadline.map(|d| (Instant::now() + d, d)),
                last: None,
            });
        }
        Ok(JobHandle {
            id,
            class,
            dims,
            kernels: info.kernels,
            cell,
        })
    }

    /// Cancel a still-queued job. `true` means the job was removed and
    /// its handle resolves to [`ServeError::Cancelled`]; `false` means
    /// a worker already claimed it (or it already finished) and the
    /// race resolves to normal completion.
    pub fn cancel(&self, handle: &JobHandle<R>) -> bool {
        // a queued job lives on exactly one pool (the current one,
        // post-handover), but checking the retiring set too makes
        // cancel correct even mid-reconfigure
        let cancelled = self
            .shared
            .all_pools()
            .iter()
            .find_map(|p| p.cancel(handle.id));
        match cancelled {
            Some(_uncalled_sink) => {
                self.shared.watch.lock().retain(|e| e.info.id != handle.id);
                *handle.cell.state.lock() = CellState::Cancelled;
                handle.cell.cv.notify_all();
                let info = JobInfo {
                    id: handle.id,
                    class: handle.class,
                    dims: handle.dims,
                    kernels: handle.kernels,
                };
                self.shared.job_ended(&info, JobStatus::Cancelled);
                true
            }
            None => false,
        }
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
    /// [`ServicePool`] over `cfg` (validated here, like construction),
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
        let successor = Arc::new(ServicePool::spawn(cfg, self.cfg.starvation_limit)?);
        let adm = self.shared.admission.lock();
        if adm.draining {
            successor.drain();
            return Err(CaluError::InvalidConfig(
                "cannot reconfigure a draining service".into(),
            ));
        }
        let old = self.shared.current_pool();
        // atomically stop the old pool's admission and pop its queue;
        // holding the admission lock means no submit can race the swap
        let mut refused: Vec<Box<dyn JobSink>> = Vec::new();
        for job in old.extract_queued() {
            if let Err(sink) = successor.submit(job.id, job.class, job.job, job.sink) {
                // a fresh pool refuses nothing; kept non-fatal anyway —
                // failed after the locks drop, never silently dropped
                refused.push(sink);
            }
        }
        let generation = {
            let mut pools = self.shared.pools.lock();
            pools.retiring.push(Arc::clone(&old));
            pools.current = successor;
            pools.generation += 1;
            pools.generation
        };
        drop(adm);
        for sink in refused {
            sink.finished(Err(CaluError::InvalidConfig(
                "successor pool refused a carried-over job".into(),
            )));
        }
        // the old pool finishes its in-flight tail off-thread, then
        // leaves the retiring set; `drain` joins this handle
        let drainer = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("calu-serve-retire".into())
                .spawn(move || {
                    old.drain();
                    shared
                        .pools
                        .lock()
                        .retiring
                        .retain(|p| !Arc::ptr_eq(p, &old));
                })
                .expect("spawn retire thread")
        };
        self.drainers.lock().push(drainer);
        if let Some(tx) = &*self.shared.tx.lock() {
            let _ = tx.send(ServiceEvent::Reconfigured { generation });
        }
        Ok(generation)
    }

    /// Pool generation: 0 for the initial pool, +1 per successful
    /// [`reconfigure`](Self::reconfigure).
    pub fn generation(&self) -> u64 {
        self.shared.pools.lock().generation
    }

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
        {
            let mut adm = self.shared.admission.lock();
            adm.draining = true;
        }
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
        let summary = DrainSummary {
            completed: self.shared.completed.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
        };
        *drained = Some(summary);
        summary
    }

    /// Whether [`drain`](Self::drain) has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.admission.lock().draining
    }

    /// Jobs admitted but not yet terminal (queued + running).
    pub fn pending(&self) -> usize {
        self.shared.admission.lock().pending_total
    }

    /// [`pending`](Self::pending), one class.
    pub fn pending_in(&self, class: JobClass) -> usize {
        self.shared.admission.lock().pending[class.lane()]
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
    /// (dratio, batch cutoff, steal direction). Reconfigure-safe by
    /// construction: a generation's split is frozen at spawn, so this
    /// always describes the pool that is admitting jobs right now — an
    /// adaptive reconfigure shows up here as soon as the swap lands.
    pub fn current_split(&self) -> calu_sched::SplitChoice {
        self.shared.current_pool().split()
    }

    /// Whether a job of `dims` would be co-scheduled (claimed whole by
    /// one worker) rather than run on the co-operative hybrid schedule
    /// — the exact predicate the current pool's workers apply.
    pub fn co_schedules(&self, dims: (usize, usize)) -> bool {
        self.shared.current_pool().co_schedules(dims)
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

    /// The admission configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }
}

impl<R> Drop for FactorService<R> {
    fn drop(&mut self) {
        if self.drained.lock().is_some() {
            return;
        }
        {
            let mut adm = self.shared.admission.lock();
            adm.draining = true;
        }
        self.shared.current_pool().drain();
        for h in self.drainers.lock().drain(..) {
            let _ = h.join();
        }
        for p in self.shared.all_pools() {
            p.drain();
        }
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.watchdog.lock().take() {
            let _ = h.join();
        }
        if let Some(j) = &self.shared.journal {
            let _ = j.compact(&[]);
        }
        self.shared.tx.lock().take();
    }
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
        assert_eq!(lu.kernels(), KernelSet::CaluLu);
        assert_eq!(ch.kernels(), KernelSet::Cholesky);
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
