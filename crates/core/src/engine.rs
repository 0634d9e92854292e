//! The one executor engine: solo runs, batched sweeps and the service
//! pool are the same worker loop over the same ready-queue set.
//!
//! The paper's scheduler is one loop — "own static queue first, else
//! the dynamic section" (Algorithms 1 and 2). This module is that loop,
//! written once, plus the minimum around it to feed it *jobs*:
//!
//! * a **job** is a [`BatchItem`] — a matrix [`Source`], the
//!   [`KernelSet`] that factors it, whether to verify the result and
//!   whether to keep its spans — plus a sink, queued in [`ClassLanes`];
//!   every job comes back as one [`Outcome`];
//! * a claimed job becomes a [`Run`]: one `ItemState` (input, tiles,
//!   dependence counters, panels) + one [`ReadyQueues`] value (static
//!   heaps + the dynamic section under the configured
//!   [`QueueDiscipline`](calu_sched::QueueDiscipline)) + one log slot
//!   per worker + the job's sink. All of a run's work is tasks in its
//!   queues: the DAG's, plus the *conversion tasks* numbered after
//!   them, both in the dynamic section — a FILL per chunk of freshly
//!   allocated tiles, queued on its tiles' owner's side, copies the
//!   input in before the DAG starts, and a DENSIFY per tile column
//!   turns the tile buffer in place into the result after it ends;
//! * a **large** job's run has one worker per pool thread and is
//!   published for every worker to pull from; a **small** one (the
//!   co-schedule predicate, [`CaluConfig::co_schedules`]) is a
//!   one-worker run the claiming worker drives to the end by itself and
//!   never publishes — whole items run in parallel with zero
//!   intra-item synchronization.
//!
//! The thread grid is derived per job, from the thread count and the
//! job's tile shape ([`CaluConfig::grid_and_leaves`], in `Engine::build`), so
//! one engine serves square, tall and wide items side by side. It sets
//! the DAG's panel leaves, so a small job factors to the bits of the
//! same job run large; a small job's tiles are laid out and owned on a
//! 1×1 grid.
//!
//! ## The loop
//!
//! Each worker ([`Engine::worker_loop`]) repeats, in this order:
//!
//! 1. **fault tick** — consult its [`FaultClock`] (a no-op without an
//!    armed plan): stall, die (rescuing its static backlog), or latch
//!    an injected panic for the next piece of work;
//! 2. **own work** of each active run, higher job class first — its
//!    static heap, then its own share of the dynamic section (a static
//!    S task brings along the ready S tasks below it whose tiles stack
//!    under its own, up to `group`: the paper's §4 grouped update, one
//!    GEMM — see `ItemState::stacks_under`);
//! 3. **claim** a queued job (small: drive its one-worker run through
//!    steps 1 and 2 until it is delivered; large: publish its run) —
//!    unless an active run still waits for its FILLs: its next work is
//!    a copy away, and a claim would only materialize another job
//!    beside its half-filled tiles. With [`RUNS_PER_WORKER`] large jobs
//!    per worker claimed and not yet retired, only a small one is
//!    claimed;
//! 4. **steal** from the other workers' dynamic shards/deques of each
//!    active run — after claiming, because a queued job is
//!    guaranteed-useful work and a steal may come home empty;
//! 5. **exit or idle** — spin/yield while any run is active (new tasks
//!    appear at kernel granularity), otherwise leave if the engine is
//!    draining and nothing is queued or in flight, otherwise park on a
//!    condition variable with a 1 ms timed wait, so a notification lost
//!    to a race costs one tick, never a hang.
//!
//! ## Who spawns threads
//!
//! [`factor_batch`] (which `calu_factor` / `cholesky_factor` are one job
//! of) queues its jobs, marks the engine draining and runs the loop on
//! `std::thread::scope` threads, so borrowed inputs are never copied
//! and the threads are gone when it returns. Its calling thread only
//! allocates the large jobs' tile buffers first (`Engine::drain_scoped`);
//! every job, there as on a persistent engine, is delivered by the
//! worker whose completion finished it. [`Engine::spawn`] runs the
//! same loop on persistent `'static` threads, which the engine keeps
//! until [`Engine::drain`] joins them — the substrate `calu-serve`
//! builds its admission, lifecycle and streaming layers on.
//!
//! ## The hot path takes no shared lock
//!
//! Workers keep a private snapshot of the active-run list and refresh
//! it only when the run-epoch counter moves (publish / retire). A task
//! is logged into the worker's *own* slot of its run. Condition
//! variables are signalled on job submit, run publish and job end —
//! never per task.
//!
//! Scheduling never changes the math: every job factors
//! bitwise-identically however it was routed (same DAG, same kernels,
//! writes to each tile totally ordered by the exclusive-writer
//! discipline) — the facade's backend-parity suite pins this down.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use calu_dag::TaskId;
use calu_kernels::GemmScratch;
use calu_matrix::gen;
use calu_matrix::DenseMatrix;
use calu_rand::Rng;
use calu_sched::{
    nstatic_for, ClassLanes, JobClass, Padded, QueueSource, ReadyQueues, ScheduleMetrics,
    ThreadMetrics,
};
use calu_trace::{SpanKind, TaskSpan, Timeline};

use crate::config::CaluConfig;
use crate::error::CaluError;
use crate::factorization::Factorization;
use crate::fault::{FaultAction, FaultClock, FaultKind};
use crate::shared::DensifyScratch;
use crate::sync::{pin_current_thread, Mutex};
use crate::threaded::{host_topology, ItemState, KernelSet, Task};

/// Large (co-operative) jobs per pool worker that may be claimed and not
/// yet retired: one to work on and one to fill its idle gaps. Past that
/// a worker claims only small jobs — a large one would only materialize
/// its input and tiles to wait beside runs that still have work — so a
/// pool's live heap is bounded by its width, not by how many large jobs
/// its clients keep in flight.
const RUNS_PER_WORKER: usize = 2;

/// How long an idle worker sleeps between wakeup checks: long enough
/// to cost nothing, short enough that a lost notification is harmless.
const IDLE_TICK: Duration = Duration::from_millis(1);

/// What one job factors — the one type that carries matrix data into the
/// engine, for solo runs, batched sweeps and served jobs alike. Dense
/// data is borrowed from a scoped caller (never copied) or moved in (a
/// served job outlives its submitter, so it is `Source<'static>`); the
/// generator variants are materialized lazily on the thread that claims
/// the job, which keeps submission O(1) per item and, for co-scheduled
/// items, the element data local to the claiming worker.
#[derive(Debug, Clone)]
pub enum Source<'a> {
    /// Dense data borrowed from the caller.
    Dense(&'a DenseMatrix),
    /// Dense data moved into the job.
    Owned(DenseMatrix),
    /// A seeded uniform generator matrix (`calu_matrix::gen::uniform`).
    Uniform {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A seeded symmetric positive-definite generator matrix
    /// (`calu_matrix::gen::spd_uniform`) — the natural source for
    /// [`KernelSet::Cholesky`] jobs.
    SpdUniform {
        /// Order (the matrix is `n×n`).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl<'a> Source<'a> {
    /// `(rows, cols)` without materializing.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            Source::Dense(a) => (a.rows(), a.cols()),
            Source::Owned(a) => (a.rows(), a.cols()),
            Source::Uniform { m, n, .. } => (*m, *n),
            Source::SpdUniform { n, .. } => (*n, *n),
        }
    }

    /// The element data, generated on the calling thread for the
    /// generator variants.
    pub fn materialize(self) -> Cow<'a, DenseMatrix> {
        match self {
            Source::Dense(a) => Cow::Borrowed(a),
            Source::Owned(a) => Cow::Owned(a),
            Source::Uniform { m, n, seed } => Cow::Owned(gen::uniform(m, n, seed)),
            Source::SpdUniform { n, seed } => Cow::Owned(gen::spd_uniform(n, seed)),
        }
    }
}

/// One job: what to factor, with which algorithm's tile kernels, and
/// whether to check the result against the input. The same type is an
/// item of a [`factor_batch`](crate::factor_batch) sweep (any mix of
/// CALU and Cholesky items shares the pool and the per-worker scratch
/// arenas; only the per-task kernels differ) and, as
/// `BatchItem<'static>`, a job of a persistent [`Engine`].
#[derive(Debug, Clone)]
pub struct BatchItem<'a> {
    /// What to factor.
    pub source: Source<'a>,
    /// Which algorithm's tile kernels factor it.
    pub kernels: KernelSet,
    /// Compute the residual (and, for LU, the growth factor) against the
    /// input on the thread that finishes the job. A verified job keeps
    /// its input until then; an unverified one drops a generated or
    /// moved-in input as soon as the tiles are built.
    pub verify: bool,
    /// Keep one [`TaskSpan`] per task (32 B each) as
    /// [`Outcome::timeline`]; the schedule is folded either way.
    pub trace: bool,
}

impl<'a> BatchItem<'a> {
    /// A CALU (LU) job, unverified.
    pub fn lu(source: Source<'a>) -> Self {
        BatchItem {
            source,
            kernels: KernelSet::CaluLu,
            verify: false,
            trace: false,
        }
    }

    /// A tiled-Cholesky job (its source must be square), unverified.
    pub fn cholesky(source: Source<'a>) -> Self {
        BatchItem {
            source,
            kernels: KernelSet::Cholesky,
            verify: false,
            trace: false,
        }
    }

    /// Switch result verification on or off.
    pub fn verified(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Switch span recording on or off.
    pub fn traced(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// Everything the engine knows about one completed job, however it was
/// run — the raw material the facade shapes into its `Report`.
#[derive(Debug)]
pub struct Outcome {
    /// The factors: bitwise-identical for the same input and config
    /// whether the job ran solo, in a batch or on a service pool.
    pub factorization: Factorization,
    /// Which algorithm's kernels factored the job.
    pub kernels: KernelSet,
    /// Per-worker spans, time-shifted so the job's first task starts
    /// at 0, when the job asked for a trace ([`BatchItem::trace`]): one
    /// lane per worker of the job's run — a co-scheduled job has one.
    pub timeline: Option<Timeline>,
    /// The schedule, folded as the tasks ran: one [`ThreadMetrics`] per
    /// worker of the job's run (a co-scheduled job has one), and the
    /// makespan from first task start to last task end (the timeline's
    /// makespan to the bit). Co-scheduled jobs overlap, so their
    /// makespans do not sum to a sweep's wall time.
    pub schedule: ScheduleMetrics,
    /// Whether the job was claimed whole by one worker (a one-worker
    /// run) rather than run co-operatively by the pool.
    pub co_scheduled: bool,
    /// The config of the engine that ran the job (on a service, of the
    /// pool generation that claimed it): the tile size, layout, `dratio`
    /// and dynamic-section queue discipline it ran under, on the pool's
    /// queues or on a co-scheduled job's own.
    pub config: CaluConfig,
    /// `(rows, cols)` of the input.
    pub dims: (usize, usize),
    /// `‖PA − LU‖ / ‖A‖` (LU jobs) or `‖A − LLᵀ‖ / ‖A‖` (Cholesky
    /// jobs), when the job asked for verification.
    pub residual: Option<f64>,
    /// Element growth factor of a verified LU job (Cholesky does not
    /// pivot, so the figure is meaningless there).
    pub growth_factor: Option<f64>,
}

/// Where a job's result goes. The service layer implements this to
/// move the job's record through its lifecycle; tests implement it
/// with a channel. The engine never calls a sink from
/// [`submit`](Engine::submit) or [`cancel`](Engine::cancel), nor with
/// an engine lock held, so callers may hold their own locks across
/// those calls and sinks may take them.
pub trait JobSink: Send + 'static {
    /// A worker claimed the job (`Queued → Running`); again when a
    /// co-scheduled item requeued after a worker loss is reclaimed.
    fn started(&self) {}
    /// The job reached a terminal state: exactly once for every job the
    /// engine keeps, never for a sink it hands back uncalled.
    fn finished(self: Box<Self>, res: Result<Outcome, CaluError>);
}

/// One queued-but-unclaimed job handed back by
/// [`Engine::extract_queued`] — everything the submitter gave the
/// engine, sink included (uncalled), so a successor engine can re-admit
/// the job under the same identity during a live-reconfigure handover.
pub struct ExtractedJob {
    /// The caller's correlation key, unchanged.
    pub id: u64,
    /// The class the job was queued under.
    pub class: JobClass,
    /// The job itself, its source unmaterialized.
    pub job: BatchItem<'static>,
    /// The job's sink, never invoked by the extracting engine.
    pub sink: Box<dyn JobSink>,
}

/// A job waiting in the lanes.
struct Job<'a> {
    id: u64,
    item: BatchItem<'a>,
    sink: Box<dyn JobSink>,
}

/// Best-effort panic payload → job error. `panic!` carries a `&str` or
/// a formatted `String`; anything else keeps only the fact.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> CaluError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    CaluError::TaskPanic(msg)
}

/// What one worker recorded about one job: its running fold (`stats`,
/// first start and last end on the engine clock), and a traced job's spans.
struct WorkerLog {
    spans: Option<Vec<TaskSpan>>,
    stats: ThreadMetrics,
    first_start: f64,
    last_end: f64,
}

impl WorkerLog {
    /// An empty log that keeps spans when the job asked for a trace.
    fn new(trace: bool) -> Self {
        WorkerLog {
            spans: trace.then(Vec::new),
            stats: ThreadMetrics::default(),
            first_start: f64::INFINITY,
            last_end: f64::NEG_INFINITY,
        }
    }

    /// Fold one interval of this worker's time into the log — a task as
    /// work, a fault-plan stall as noise — and keep the span itself only
    /// for a traced job: the engine's one trace-dependent branch.
    fn book(&mut self, span: TaskSpan) {
        let secs = span.end - span.start;
        if span.kind.is_work() {
            self.stats.work += secs;
        } else {
            self.stats.noise += secs;
        }
        self.first_start = self.first_start.min(span.start);
        self.last_end = self.last_end.max(span.end);
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
    }
}

/// One worker's log of one run. Only that worker locks it while the run
/// is live (the finisher collects every slot once all tasks are done),
/// so the lock never contends; the padding keeps neighbouring workers'
/// lock words off each other's cache lines.
type Slot = Padded<Mutex<WorkerLog>>;

/// One engine worker's own state, kept across tasks and jobs: its id,
/// its fault clock and latched panic, its victim stream, and the
/// buffers that keep the task loop from allocating — its packing arena,
/// sized once for the tallest GEMM a group can stack, the members of the
/// pop in hand, the tasks the last completion released, and the buffers
/// a DENSIFY task works in (grown at the first such task).
struct Worker {
    /// The engine worker id, which the fault plan is keyed by; a run
    /// files this worker's work under [`Run::slot`].
    me: usize,
    clock: FaultClock,
    /// An injected panic, latched until the next piece of work, where it
    /// unwinds inside that job's containment perimeter.
    panic_pending: bool,
    /// Victim selection: SplitMix64 seeding decorrelates the workers'
    /// nearby seeds, so they sweep victims in unrelated orders.
    rng: Rng,
    scratch: GemmScratch,
    group: Vec<u32>,
    ready: Vec<TaskId>,
    densify: DensifyScratch,
    /// The run (`seq`) and end of the last DAG task body, until a spin,
    /// yield, park, stall or claim: that run's next body books the gap
    /// since as overhead.
    last_body: Option<(u64, f64)>,
}

impl Worker {
    fn new(cfg: &CaluConfig, me: usize) -> Self {
        let (b, max_group) = (cfg.b, cfg.effective_group());
        Worker {
            me,
            clock: FaultClock::new(&cfg.fault, me),
            panic_pending: false,
            rng: Rng::seed_from_u64(cfg.queue.seed().unwrap_or(0).wrapping_add(me as u64)),
            scratch: GemmScratch::sized_for(max_group.saturating_mul(b), b, b),
            group: Vec::new(),
            ready: Vec::new(),
            densify: DensifyScratch::default(),
            last_body: None,
        }
    }

    /// Fire a latched injected panic: called first inside each piece of
    /// work's containment perimeter.
    fn fire_latched_panic(&mut self) {
        if std::mem::take(&mut self.panic_pending) {
            panic!("injected kernel panic on worker {} (fault plan)", self.me);
        }
    }
}

/// One job in flight. A co-operative (large) run is shared by `Arc`
/// between the engine's active list, the workers' snapshots of it and
/// whichever workers are mid-task, which is why results leave by
/// reference (`ItemState::{factored, take_factors}`) instead of by
/// value. A co-scheduled (small) run has one worker, the one that
/// claimed it, and is never published.
///
/// The thread that sets a run up only *allocates* its one big buffer —
/// zeroed tile storage, which becomes the result — and the run's
/// workers touch it, all through the run's queues: its FILL tasks copy
/// the input into the tiles (each queued on its tiles' owner's side, so
/// the first touch of a tile is its block-cyclic owner's unless the
/// owner is busy and another worker takes it), the DAG factors, then
/// its DENSIFY tasks turn the buffer in place into the dense factors
/// tile column by tile column, applying each column's deferred left
/// swaps while it is hot. One counter releases each stage: see
/// `ItemState::complete_into`. Whichever worker's completion retires
/// the last task delivers the result, on a scoped engine as on a
/// persistent one.
struct Run<'a> {
    /// The job id — the key `fail_active`/`progress_of` find this run
    /// by (the watchdog's handle on a running job).
    id: u64,
    item: ItemState<'a>,
    queues: ReadyQueues,
    slots: Vec<Slot>,
    sink: Mutex<Option<Box<dyn JobSink>>>,
    /// First finisher (or failer) wins; everyone else moves on.
    finishing: AtomicBool,
    /// `active` is kept sorted by `(class_rank, seq)` so workers serve
    /// higher-class runs first.
    class_rank: usize,
    seq: u64,
    /// A one-worker run, driven and delivered by its claiming worker:
    /// never on the active list.
    co_scheduled: bool,
}

impl<'a> Run<'a> {
    /// Where engine worker `me` files its work in this run — its log
    /// slot, its queue side and its span lane: `0` on a co-scheduled
    /// run, which has one worker, `me` otherwise.
    fn slot(&self, me: usize) -> usize {
        if self.co_scheduled {
            0
        } else {
            me
        }
    }

    /// Queue freshly enabled tasks: static ones on their block-cyclic
    /// owner's heap, the rest in the dynamic section on worker `home`'s
    /// side (the worker doing the pushing — the lock-free deques are
    /// push-by-owner), in the batch order of [`ReadyQueues::publish`].
    fn push_ready(&self, ready: &mut [TaskId], home: usize) {
        let item = &self.item;
        self.queues.publish(
            ready,
            home,
            |t| item.dynamic_key(t),
            |t| item.static_slot(t),
        );
    }

    /// Queue the FILLs, last column first, each on the side of the
    /// worker that owns its tiles: the owner pops them first (a
    /// lock-free one LIFO, so in column order) and any other worker may
    /// steal them. Called before another worker can reach the queues:
    /// only then may one thread push on every side.
    fn queue_fills(&self) {
        for (t, owner) in self.item.fill_tasks().rev() {
            self.push_ready(&mut [t], owner);
        }
    }

    fn log(&self, slot: usize) -> std::sync::MutexGuard<'_, WorkerLog> {
        self.slots[slot].lock()
    }

    /// Slot `slot`'s next tasks of this run without stealing:
    /// Algorithm 1's own-queue pop into `group` — up to `max_group` S
    /// tasks when it is a static one and the tiles at the top of the
    /// heap stack. A dynamic pop stays one task: its neighbours are any
    /// worker's to take.
    fn own_work(&self, slot: usize, max_group: usize, group: &mut Vec<u32>) -> Option<QueueSource> {
        self.queues
            .pop_own(slot, max_group, group, |source, last, next| {
                source == QueueSource::Local && self.item.stacks_under(last, next)
            })
    }
}

struct State<'a> {
    lanes: ClassLanes<Job<'a>>,
    /// In-flight co-operative runs, sorted by `(class_rank, seq)`.
    active: Vec<Arc<Run<'a>>>,
    /// Workers that no longer take static work: lost, or persistently
    /// slow (pre-marked, so their block-cyclic share rides the dynamic
    /// section from the first panel). Written and read under this
    /// state's lock — see `publish` for why that closes the race
    /// between a dying worker and a run being published.
    degraded: Vec<bool>,
    /// Claimed-but-unfinished jobs (small and large).
    in_flight: usize,
    /// Claimed large jobs not yet retired: being set up, or on `active`.
    cooperative: usize,
    draining: bool,
    /// A panic escaped a worker's catch-unwind perimeter (e.g. inside a
    /// sink callback): the engine is dead; `wait_idle` fails fast
    /// instead of waiting for jobs that will never finish.
    poisoned: bool,
    workers_started: usize,
    /// Latest moment (engine clock) a worker entered its loop.
    spawn_secs: f64,
    next_seq: u64,
}

/// The executor: one worker loop over class lanes of queued jobs and
/// the active co-operative runs. A scoped engine lives inside one
/// [`factor_batch`] call; a persistent one is [`spawn`](Engine::spawn)ed
/// once and serves jobs until [`drain`](Engine::drain)ed. Small jobs
/// ([`CaluConfig::co_schedules`]) are claimed whole by one worker, large
/// ones run the hybrid static/dynamic schedule co-operatively on the
/// dynamic-section discipline the config names, and every job's factors
/// are bitwise-identical to the matching solo call. Workers prefer
/// higher job classes with bounded starvation of lower ones
/// ([`ClassLanes`]); results leave through each job's [`JobSink`].
///
/// Dropping an engine does not drain it — a persistent engine's workers
/// share it through an `Arc`, so its owner calls `drain`.
pub struct Engine<'a> {
    cfg: CaluConfig,
    epoch: Instant,
    /// `cfg.fault` is armed; the no-fault hot path never pays more than
    /// this flag's check.
    armed: bool,
    /// Workers that exited after an injected loss.
    lost_workers: AtomicUsize,
    /// Static tasks republished into dynamic sections, over every
    /// retired run.
    rescued: AtomicU64,
    state: Mutex<State<'a>>,
    /// Bumped (under the state lock) whenever `active` changes; workers
    /// compare it against their snapshot's instead of locking per task.
    run_epoch: AtomicU64,
    /// `lanes.len()`, mirrored so workers check for queued jobs without
    /// the state lock.
    queued_jobs: AtomicUsize,
    /// Signalled when work may be available: submit, run publish, job
    /// end.
    work: Condvar,
    /// Signalled when the engine may have gone idle (job ended, worker
    /// started or retired) — what `wait_idle`/`wait_started` wait on.
    idle: Condvar,
    /// A persistent engine's workers, joined by `drain`; empty on a
    /// scoped one.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<'a> Engine<'a> {
    /// Validate `cfg` and build an idle engine. `starvation_limit`
    /// bounds how many higher-class claims may pass over a waiting
    /// lower-class job.
    pub(crate) fn new(cfg: CaluConfig, starvation_limit: usize) -> Result<Self, CaluError> {
        cfg.validate()?;
        let mut degraded = vec![false; cfg.threads];
        for wf in cfg.fault.faults() {
            if matches!(wf.kind, FaultKind::Slow { .. }) {
                degraded[wf.worker] = true;
            }
        }
        Ok(Engine {
            epoch: Instant::now(),
            armed: !cfg.fault.is_off(),
            lost_workers: AtomicUsize::new(0),
            rescued: AtomicU64::new(0),
            state: Mutex::new(State {
                lanes: ClassLanes::new(starvation_limit),
                active: Vec::new(),
                degraded,
                in_flight: 0,
                cooperative: 0,
                draining: false,
                poisoned: false,
                workers_started: 0,
                spawn_secs: 0.0,
                next_seq: 0,
            }),
            run_epoch: AtomicU64::new(0),
            queued_jobs: AtomicUsize::new(0),
            work: Condvar::new(),
            idle: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            cfg,
        })
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// The config every job of this engine shares, frozen at
    /// construction: a live reconfigure replaces the whole engine.
    pub fn config(&self) -> &CaluConfig {
        &self.cfg
    }

    /// Enqueue a job. `id` is the caller's correlation key (used by
    /// [`cancel`](Self::cancel)); the job names its own kernel set and
    /// whether to verify and trace it; its result leaves through `sink`.
    /// Once draining the job is refused and the sink is handed back
    /// **uncalled**: callers may hold their own locks across `submit`
    /// (the service holds its job-table lock so drain cannot slip
    /// between its check and ours), and a synchronous sink callback here
    /// could re-enter them — the caller decides how to fail the job.
    pub fn submit(
        &self,
        id: u64,
        class: JobClass,
        item: BatchItem<'a>,
        sink: Box<dyn JobSink>,
    ) -> Result<(), Box<dyn JobSink>> {
        let mut st = self.state.lock();
        if st.draining {
            return Err(sink);
        }
        st.lanes.push(class, Job { id, item, sink });
        self.queued_jobs.store(st.lanes.len(), Ordering::Release);
        drop(st);
        self.work.notify_all();
        Ok(())
    }

    /// Remove a still-queued job, returning its sink uncalled; `None`
    /// means the job already started or finished — the race resolves
    /// to normal completion.
    pub fn cancel(&self, id: u64) -> Option<Box<dyn JobSink>> {
        let mut st = self.state.lock();
        let removed = st.lanes.remove_where(|j| j.id == id);
        self.queued_jobs.store(st.lanes.len(), Ordering::Release);
        removed.map(|(_, job)| job.sink)
    }

    /// Stop admitting: workers leave once nothing is queued or in
    /// flight.
    pub(crate) fn close(&self) {
        self.state.lock().draining = true;
        self.work.notify_all();
    }

    /// Finish everything queued on scoped threads: close, run the
    /// worker loop on `threads` borrowed threads, return when the last
    /// one left. Jobs may borrow from the caller's stack.
    ///
    /// The calling thread outlives those workers and consumes the
    /// results, so the big buffers are its to *allocate*: it sets up
    /// every large job's run — zeroed tile storage, untouched — before
    /// lending threads. (A short-lived thread's allocator arena hands
    /// freed pages back to the OS, so buffers allocated and dropped
    /// there are page-faulted in afresh on every call — a fifth of the
    /// wall time of a 1024² factorization at b = 16.) Everything else is
    /// the workers' work: the FILL and DENSIFY tasks of each [`Run`] copy
    /// the input in and turn the tiles into the dense factors in place,
    /// and the worker that retires a run's last task moves the buffer out
    /// as the factors and delivers them, as on a persistent engine.
    ///
    /// Returns the seconds until the last worker entered its loop — the
    /// one-off spawn cost.
    pub(crate) fn drain_scoped(&self) -> f64 {
        self.close();
        while let Some((class, seq, job)) = self.claim(true) {
            if let Some(run) = self.start_run(class, seq, job, None) {
                self.publish(&run);
            }
        }
        let spawn_from = self.now();
        std::thread::scope(|scope| {
            for me in 0..self.threads() {
                scope.spawn(move || self.worker_loop(me));
            }
        });
        self.spawn_secs() - spawn_from
    }

    /// Block until `done(state)`, re-checking on every `idle` signal
    /// (and every tick, in case one was lost).
    fn wait_until(
        &self,
        done: impl Fn(&State<'a>) -> bool,
    ) -> std::sync::MutexGuard<'_, State<'a>> {
        let mut st = self.state.lock();
        while !done(&st) {
            st = self
                .idle
                .wait_timeout(st, IDLE_TICK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        st
    }

    /// Block until every worker entered its loop.
    pub(crate) fn wait_started(&self) {
        let threads = self.threads();
        drop(self.wait_until(|st| st.workers_started >= threads));
    }

    /// Block until nothing is queued or in flight (or the engine is
    /// poisoned and never will be).
    pub(crate) fn wait_idle(&self) {
        drop(self.wait_until(|st| st.poisoned || st.lanes.is_empty() && st.in_flight == 0));
    }

    /// Jobs waiting in the lanes.
    pub fn queued(&self) -> usize {
        self.state.lock().lanes.len()
    }

    /// Jobs waiting in `class`'s lane.
    pub fn queued_in(&self, class: JobClass) -> usize {
        self.state.lock().lanes.len_in(class)
    }

    /// Seconds until the last worker entered its loop — paid once when
    /// the workers start, amortized over every job they serve.
    pub fn spawn_secs(&self) -> f64 {
        self.state.lock().spawn_secs
    }

    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.state.lock().in_flight
    }

    fn active_run(&self, id: u64) -> Option<Arc<Run<'a>>> {
        self.state
            .lock()
            .active
            .iter()
            .find(|r| r.id == id)
            .cloned()
    }

    /// Fail an *active co-operative run* by job id, delivering `err` to
    /// its sink — the service watchdog's lever for deadline and stall
    /// enforcement. Workers mid-task on the run finish or abandon their
    /// task harmlessly; the engine keeps serving. `false` when no active
    /// run carries `id` (the job is still queued, co-scheduled, or
    /// already terminal) or a concurrent normal finish won the race.
    pub fn fail_active(&self, id: u64, err: CaluError) -> bool {
        self.active_run(id)
            .is_some_and(|run| self.fail_run(&run, err))
    }

    /// Tasks retired so far by the active co-operative run with job id
    /// `id`, its FILL and DENSIFY tasks included — a monotone heartbeat
    /// the service watchdog compares across ticks to tell a slow job
    /// from a stalled one, which therefore also moves while a large job
    /// copies its input in or its factors out. `None` when no active
    /// run carries `id` (queued, co-scheduled, or terminal).
    pub fn progress_of(&self, id: u64) -> Option<u64> {
        self.active_run(id).map(|run| run.item.retired() as u64)
    }

    /// Workers lost to an injected fault (0 on an unfaulted engine).
    pub fn lost_workers(&self) -> usize {
        self.lost_workers.load(Ordering::Acquire)
    }

    /// Static tasks republished into dynamic sections because their
    /// owner was lost or persistently slow — the rescue counter backing
    /// `ThreadMetrics::rescued`, summed over every finished job.
    pub fn rescued_tasks(&self) -> u64 {
        self.rescued.load(Ordering::Acquire)
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The fault tick (a no-op without an armed plan): serve a stall,
    /// latch an injected panic for worker `w`'s next piece of work, or
    /// report an injected loss as `false` — the caller retires.
    fn fault_tick(&self, w: &mut Worker, run: Option<&Run<'a>>) -> bool {
        if self.armed {
            match w.clock.before_task() {
                FaultAction::None => {}
                FaultAction::Stall(d) => self.stall(d, w, run),
                FaultAction::Lose => return false,
                FaultAction::Panic => w.panic_pending = true,
            }
        }
        true
    }

    /// Sleep through a fault-plan stall on worker `w`, less what its
    /// earlier sleeps in `run` overshot (`FaultClock::serve_stall`);
    /// when it hit in the middle of `run`'s DAG, it is booked in that
    /// run as noise (a schedule runs from the first DAG task to the
    /// last, so a stall among the conversion tasks has no place in it).
    fn stall(&self, d: Duration, w: &mut Worker, run: Option<&Run<'a>>) {
        w.last_body = None;
        let start = self.now();
        let slept = w.clock.serve_stall(run.map(|r| r.seq), d, |due| {
            let t = Instant::now();
            std::thread::sleep(due);
            t.elapsed()
        });
        if slept.is_zero() {
            return;
        }
        let end = self.now();
        if let Some(run) = run.filter(|r| r.item.factoring()) {
            let slot = run.slot(w.me);
            run.log(slot).book(TaskSpan {
                core: slot,
                start,
                end,
                kind: SpanKind::Noise,
            });
        }
    }

    /// One claimed job reached a terminal state: release its in-flight
    /// slot and wake whoever waits for the engine to go idle — idle
    /// workers included, once a draining engine has nothing left for
    /// them to wait for.
    fn job_ended(&self) {
        let last = {
            let mut st = self.state.lock();
            st.in_flight -= 1;
            st.draining && st.in_flight == 0
        };
        self.idle.notify_all();
        if last {
            self.work.notify_all();
        }
    }

    /// Deliver a terminal result, with no engine lock held: sinks may
    /// take service locks.
    fn end_job(&self, sink: Box<dyn JobSink>, res: Result<Outcome, CaluError>) {
        sink.finished(res);
        self.job_ended();
    }

    /// Take `run` off the active list (workers stop pulling from it at
    /// their next epoch check), give back its claim on the large-job
    /// bound and fold its rescue count into the engine's. A
    /// co-scheduled run was never on the list.
    fn retire(&self, run: &Arc<Run<'a>>) {
        if run.co_scheduled {
            return;
        }
        {
            let mut st = self.state.lock();
            st.active.retain(|r| !Arc::ptr_eq(r, run));
            st.cooperative -= 1;
            self.run_epoch.fetch_add(1, Ordering::Release);
        }
        let rescued: u64 = (0..run.slots.len()).map(|w| run.queues.rescued(w)).sum();
        self.rescued.fetch_add(rescued, Ordering::AcqRel);
    }

    /// A task body panicked (or the watchdog condemned the run): fail
    /// the whole run, once (`finishing` arbitrates against a concurrent
    /// normal finish — `false` means that race was lost and the run
    /// finished normally). Peers already executing one of its tasks may
    /// finish or panic harmlessly — the sink is gone and `done` can no
    /// longer trigger `finish_run`.
    fn fail_run(&self, run: &Arc<Run<'a>>, err: CaluError) -> bool {
        if run.finishing.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.retire(run);
        let sink = run.sink.lock().take().expect("run finishes once");
        self.end_job(sink, Err(err));
        true
    }

    /// `run`'s last task is done: retire it, shape its results into its
    /// [`Outcome`] and hand that to the sink — the workers' folds as one
    /// schedule (the makespan and idle settled here, once), a traced
    /// job's spans joined in worker order, the dense factors (left swaps
    /// already applied), and — the one place an engine job is verified —
    /// the residual and growth factor against the input, when the job
    /// asked for them. Called by exactly one worker (the `finishing`
    /// flag), the one whose completion finished the run.
    fn finish_run(&self, run: &Arc<Run<'a>>) {
        self.retire(run);
        let (perm, singular_at) = run.item.factored().clone();
        let logs: Vec<WorkerLog> = (0..run.slots.len())
            .map(|w| {
                let mut log = std::mem::replace(&mut *run.log(w), WorkerLog::new(false));
                log.stats.rescued = run.queues.rescued(w);
                log
            })
            .collect();
        // the workers' own vectors, joined in worker order: nothing is
        // re-pushed span by span
        let traced = logs.iter().any(|l| l.spans.is_some());
        let total: usize = logs.iter().flat_map(|l| &l.spans).map(Vec::len).sum();
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut spans: Vec<TaskSpan> = Vec::new();
        let mut threads = Vec::with_capacity(logs.len());
        for log in logs {
            if spans.is_empty() {
                spans = log.spans.unwrap_or_default();
                spans.reserve_exact(total - spans.len());
            } else {
                spans.extend(log.spans.into_iter().flatten());
            }
            (t0, t1) = (t0.min(log.first_start), t1.max(log.last_end));
            threads.push(log.stats);
        }
        // the timeline's own rule, on the same engine-clock values
        let makespan = if t1 >= t0 { t1 - t0 } else { 0.0 };
        let schedule = ScheduleMetrics::new(makespan, threads);
        // SAFETY: the run was finished by the completion that brought
        // the AcqRel `done` counter to every task, the last DENSIFY's,
        // so every DENSIFY's column block is dead and its writes are
        // visible here; no task is left to touch a tile.
        let lu = unsafe { run.item.take_factors() };
        let factorization = Factorization {
            lu,
            perm,
            singular_at,
        };
        let (g, kernels) = (&run.item.g, run.item.kernels);
        // each kernel set's own residual, plus element growth for
        // pivoted LU only (Cholesky does not pivot, so the figure is
        // meaningless there)
        let (residual, growth_factor) = match (run.item.input().as_deref(), kernels) {
            (None, _) => (None, None),
            (Some(a), KernelSet::CaluLu) => (
                Some(factorization.residual(a)),
                Some(factorization.growth_factor(a)),
            ),
            (Some(a), KernelSet::Cholesky) => (Some(factorization.cholesky_residual(a)), None),
        };
        let out = Outcome {
            factorization,
            kernels,
            timeline: traced.then(|| Timeline::from_spans(schedule.threads.len(), spans)),
            schedule,
            co_scheduled: run.co_scheduled,
            config: self.cfg.clone(),
            dims: (g.rows(), g.cols()),
            residual,
            growth_factor,
        };
        let sink = run.sink.lock().take().expect("run finishes once");
        self.end_job(sink, Ok(out));
    }

    /// Execute what one pop claimed — `w.group`: one task, or a group
    /// of S tasks as one GEMM — and queue what its completion released
    /// (`ItemState::complete_into`); the completion that retires the
    /// run's last task finishes it. Every DAG member is retired, booked,
    /// counted and fault-ticked as the task it is; a group's members
    /// share its interval in equal parts, and the gap since this
    /// worker's last body of the run (`Worker::last_body`) is overhead,
    /// read off the clock reads the bodies take anyway. A conversion
    /// task (always popped alone) is only retired: no span, no pop
    /// counter, no fault tick (a [`FaultPlan`](crate::FaultPlan) counts
    /// DAG tasks), though a latched injected panic fires in it.
    ///
    /// The body runs under `catch_unwind`: a panicking kernel fails its
    /// own job instead of killing the worker (which would strand the
    /// in-flight count and hang drain and the job's waiter).
    fn run_tasks(&self, run: &Arc<Run<'a>>, source: QueueSource, w: &mut Worker) {
        let start = self.now();
        let gap = w.last_body.take().filter(|&(seq, _)| seq == run.seq);
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
            w.fire_latched_panic();
            run.item
                .execute_group(&w.group, &mut w.scratch, &mut w.densify)
        })) {
            self.fail_run(run, panic_error(p));
            return;
        }
        let end = self.now();
        let slot = run.slot(w.me);
        let members = w.group.len();
        let share = (end - start) / members as f64;
        let in_dag = matches!(run.item.task(TaskId(w.group[0])), Task::Dag(_));
        if in_dag {
            let mut log = run.log(slot);
            log.stats.overhead += gap.map_or(0.0, |(_, last)| start - last);
            for (x, &t) in w.group.iter().enumerate() {
                log.book(TaskSpan {
                    core: slot,
                    start: start + x as f64 * share,
                    end: if x + 1 == members {
                        end
                    } else {
                        start + (x + 1) as f64 * share
                    },
                    kind: run.item.g.kind(TaskId(t)).paper_kind().into(),
                });
                log.stats.count(source);
            }
            w.last_body = Some((run.seq, end));
        }
        let finished = run.item.complete_into(&w.group, &mut w.ready);
        // this worker is the one pushing, so what it released lands on
        // its own side — a new stage's dynamic tasks included
        run.push_ready(&mut w.ready, slot);
        if finished && !run.finishing.swap(true, Ordering::AcqRel) {
            self.finish_run(run);
        }
        if self.armed && in_dag {
            // duty-cycle slowdown: stall in proportion to the tasks just
            // run, like the sim's noise model stretches compute
            let each = Duration::from_secs_f64(share);
            let owed: Duration = (0..members).filter_map(|_| w.clock.after_task(each)).sum();
            if !owed.is_zero() {
                self.stall(owed, w, Some(run));
            }
        }
    }

    /// Claim the next queued job — or, with `large_only`, the next one
    /// the co-schedule predicate routes to the whole pool. Without it,
    /// once [`RUNS_PER_WORKER`] large jobs per worker are claimed and not
    /// yet retired, the next small one, any class.
    fn claim(&self, large_only: bool) -> Option<(JobClass, u64, Job<'a>)> {
        let mut st = self.state.lock();
        let large = |j: &Job<'a>| !self.cfg.co_schedules(j.item.source.dims());
        let (class, job) = if large_only {
            st.lanes.remove_where(large)?
        } else if st.cooperative >= RUNS_PER_WORKER * self.threads() {
            st.lanes.remove_where(|j| !large(j))?
        } else {
            st.lanes.pop()?
        };
        if large(&job) {
            st.cooperative += 1;
        }
        self.queued_jobs.store(st.lanes.len(), Ordering::Release);
        st.in_flight += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        Some((class, seq, job))
    }

    /// Materialize a claimed job's input and set up its execution
    /// state for a run of `workers`: the task graph, whose panel leaves
    /// the pool's grid for the job's shape sets whatever the run's
    /// width, and zeroed tile storage laid out and owned on the run's
    /// own grid — allocated here, filled by the run's FILL tasks. Runs
    /// under `catch_unwind`, like task bodies: a panicking build fails
    /// its own job instead of killing the worker `w` that claimed it
    /// (`None`: the calling thread of a scoped engine).
    fn build(
        &self,
        item: BatchItem<'a>,
        workers: usize,
        w: Option<&mut Worker>,
    ) -> Result<ItemState<'a>, CaluError> {
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(w) = w {
                w.fire_latched_panic();
            }
            let (m, n) = item.source.dims();
            let a = item.source.materialize();
            let (grid, leaves) = self.cfg.grid_and_leaves((m, n), workers)?;
            let g = Arc::new(item.kernels.build_graph(m, n, self.cfg.b, leaves)?);
            let nstatic = nstatic_for(self.cfg.dratio, g.num_panels());
            let (layout, group) = (self.cfg.layout, self.cfg.effective_group());
            Ok(ItemState::new(layout, group, g, grid, nstatic, a).verified(item.verify))
        }))
        .unwrap_or_else(|p| Err(panic_error(p)))
    }

    /// Run one claimed job: a large one is published as a [`Run`] for
    /// every worker, a small one is a one-worker run this worker drives
    /// to the end.
    ///
    /// Returns `false` when an injected worker loss fired mid-way
    /// through a co-scheduled item: the whole item has been requeued
    /// (its claim was atomic, so redoing it from the source is exact)
    /// and the calling worker must retire.
    fn start_job(&self, class: JobClass, seq: u64, job: Job<'a>, w: &mut Worker) -> bool {
        // a mid-item worker loss has no partial-state recovery path:
        // keep the job so the whole item can be requeued
        let backup = (self.armed && self.cfg.co_schedules(job.item.source.dims()))
            .then(|| (job.id, job.item.clone()));
        let Some(run) = self.start_run(class, seq, job, Some(w)) else {
            return true;
        };
        if !run.co_scheduled {
            self.publish(&run);
            return true;
        }
        if self.drive(&run, w) {
            return true;
        }
        // worker lost mid-item: discard the partial state and put the
        // whole job back in its lane for a surviving worker; the sink
        // stays attached (its `started` is idempotent on the service
        // side)
        let (id, item) = backup.expect("interrupts need an armed fault plan");
        let sink = run.sink.lock().take().expect("abandoned unfinished");
        let mut st = self.state.lock();
        st.lanes.push(class, Job { id, item, sink });
        self.queued_jobs.store(st.lanes.len(), Ordering::Release);
        st.in_flight -= 1;
        drop(st);
        self.work.notify_all();
        false
    }

    /// Set up a claimed job's [`Run`] — allocating, not touching, its
    /// tile storage — with one worker per pool thread, or one worker
    /// for a co-scheduled job. `w` is the claiming worker (`None`: the
    /// calling thread of a scoped engine, which claims large jobs
    /// only). `None` when the build failed, and the job with it.
    fn start_run(
        &self,
        class: JobClass,
        seq: u64,
        job: Job<'a>,
        w: Option<&mut Worker>,
    ) -> Option<Arc<Run<'a>>> {
        job.sink.started();
        let co_scheduled = self.cfg.co_schedules(job.item.source.dims());
        let workers = if co_scheduled { 1 } else { self.threads() };
        let trace = job.item.trace;
        let item = match self.build(job.item, workers, w) {
            Ok(built) => built,
            Err(e) => {
                if !co_scheduled {
                    self.state.lock().cooperative -= 1;
                }
                self.end_job(job.sink, Err(e));
                return None;
            }
        };
        // the dynamic section holds the non-static tasks, DENSIFYs
        // included — plus, once a fault plan can degrade a worker, any
        // rescued static one, FILLs included
        let dynamic_tasks = if self.armed {
            item.tasks()
        } else {
            (0..item.tasks() as u32)
                .filter(|&t| item.static_slot(TaskId(t)).is_none())
                .count()
        };
        Some(Arc::new(Run {
            id: job.id,
            queues: ReadyQueues::new(workers, dynamic_tasks, self.cfg.queue, host_topology()),
            slots: (0..workers)
                .map(|_| Padded(Mutex::new(WorkerLog::new(trace))))
                .collect(),
            sink: Mutex::new(Some(job.sink)),
            finishing: AtomicBool::new(false),
            class_rank: class.lane(),
            seq,
            co_scheduled,
            item,
        }))
    }

    /// Make `run` visible to every worker, its FILL tasks queued first.
    /// Under one hold of the state lock: copy the engine's degraded set
    /// into the run's queues, insert the run. A worker retiring
    /// concurrently flags itself and snapshots `active` under the same
    /// lock, so either this run is in its snapshot (its heap there gets
    /// drained and flagged) or the flag was copied here — both before
    /// the first static push, which only the completion that retires
    /// the last FILL makes.
    fn publish(&self, run: &Arc<Run<'a>>) {
        run.queue_fills();
        {
            let mut st = self.state.lock();
            for w in (0..self.threads()).filter(|&w| st.degraded[w]) {
                run.queues.mark_degraded(w);
            }
            let key = (run.class_rank, run.seq);
            let pos = st.active.partition_point(|r| (r.class_rank, r.seq) <= key);
            st.active.insert(pos, Arc::clone(run));
            self.run_epoch.fetch_add(1, Ordering::Release);
        }
        self.work.notify_all();
    }

    /// Drive a co-scheduled run to its end as its one worker, making
    /// the worker loop's own calls — fault tick, then the run's own
    /// tasks — with nothing to claim and no one to steal from: the run,
    /// FILLs first, is fully served from its one slot's queues. The
    /// finish delivers here. Returns `false` when an injected loss
    /// fired: the run is abandoned unfinished, for the caller to requeue.
    fn drive(&self, run: &Arc<Run<'a>>, w: &mut Worker) -> bool {
        let max_group = self.cfg.effective_group();
        run.queue_fills();
        while !run.finishing.load(Ordering::Acquire) {
            if !self.fault_tick(w, Some(run)) {
                return false;
            }
            let source = run
                .own_work(run.slot(w.me), max_group, &mut w.group)
                .expect("a one-worker run always holds its next task");
            self.run_tasks(run, source, w);
        }
        true
    }

    /// An injected loss fired on worker `me`: mark it degraded so
    /// future static assignments reroute at publish time, republish
    /// every static task queued to it across all active runs into those
    /// runs' dynamic sections (rescue), and count the loss. The caller
    /// returns from the worker loop afterwards — `PanicGuard` does not
    /// poison a clean exit, so the engine keeps serving with one worker
    /// fewer.
    fn retire_worker(&self, me: usize) {
        let runs: Vec<Arc<Run<'a>>> = {
            // flag and snapshot under one state lock — see `publish`
            let mut st = self.state.lock();
            st.degraded[me] = true;
            st.active.clone()
        };
        self.lost_workers.fetch_add(1, Ordering::AcqRel);
        for run in runs {
            run.queues.drain_static(me, |t| run.item.dynamic_key(t));
            run.log(me).stats.lost = true;
        }
        self.work.notify_all();
        self.idle.notify_all();
    }

    /// The worker loop — see the module docs for the order and why.
    pub(crate) fn worker_loop(&self, me: usize) {
        // topology-aware pinning: worker `me` onto the CPU the detected
        // topology maps it to — best effort, a refusal (sandbox,
        // cgroup) leaves the worker floating
        if self.cfg.pin_workers {
            pin_current_thread(host_topology().cpu_for_worker(me));
        }
        let _guard = PanicGuard(self);
        let max_group = self.cfg.effective_group();
        let mut w = Worker::new(&self.cfg, me);
        let mut runs: Vec<Arc<Run<'a>>> = Vec::new();
        let mut seen_epoch = 0u64;
        let mut idle_spins = 0u32;
        {
            let mut st = self.state.lock();
            st.workers_started += 1;
            st.spawn_secs = st.spawn_secs.max(self.now());
        }
        self.idle.notify_all();
        loop {
            if !self.fault_tick(&mut w, runs.first().map(Arc::as_ref)) {
                self.retire_worker(me);
                return;
            }
            if self.run_epoch.load(Ordering::Acquire) != seen_epoch {
                let st = self.state.lock();
                runs.clone_from(&st.active);
                seen_epoch = self.run_epoch.load(Ordering::Acquire);
            }
            let mut work = runs.iter().find_map(|run| {
                run.own_work(me, max_group, &mut w.group)
                    .map(|source| (run, source))
            });
            // no claim while a run waits for its FILLs (module docs,
            // step 3): the steal below may find one
            if work.is_none()
                && self.queued_jobs.load(Ordering::Acquire) > 0
                && runs.iter().all(|r| r.item.filled())
            {
                if let Some((class, seq, job)) = self.claim(false) {
                    idle_spins = 0;
                    w.last_body = None;
                    if !self.start_job(class, seq, job, &mut w) {
                        // a loss fired mid-way through a co-scheduled
                        // item; the item is already back in its lane
                        self.retire_worker(me);
                        return;
                    }
                    continue;
                }
            }
            if work.is_none() {
                work = runs.iter().find_map(|run| {
                    let mut failed = 0u64;
                    let hit = run.queues.steal(me, &mut w.rng, &mut failed);
                    if failed > 0 {
                        run.log(me).stats.failed_steals += failed;
                    }
                    hit.map(|(t, source)| {
                        w.group.clear();
                        w.group.push(t);
                        (run, source)
                    })
                });
            }
            if let Some((run, source)) = work {
                idle_spins = 0;
                self.run_tasks(run, source, &mut w);
                continue;
            }
            w.last_body = None;
            if !runs.is_empty() {
                // a run is live: its next ready task is a kernel away
                idle_spins += 1;
                if idle_spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            let st = self.state.lock();
            if self.run_epoch.load(Ordering::Acquire) != seen_epoch || !st.lanes.is_empty() {
                continue;
            }
            // Gating the exit on in_flight (not on `active`) matters: a
            // peer that claimed a large job but has not yet published
            // its run still holds an in-flight slot, and that run will
            // assign static tasks to *this* worker's heap by
            // block-cyclic ownership; leaving early would strand them.
            // A poisoned engine's claimed jobs can never finish, so
            // leave and let the join fail fast.
            if st.draining && (st.in_flight == 0 || st.poisoned) {
                return;
            }
            let _ = self
                .work
                .wait_timeout(st, IDLE_TICK)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Belt-and-braces behind the catch-unwind perimeters: if a panic still
/// escapes a worker (a sink callback, the outcome-shaping code), mark
/// the engine poisoned on the way down so nobody waits for progress
/// that will never come.
struct PanicGuard<'e, 'a>(&'e Engine<'a>);

impl Drop for PanicGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state.lock().poisoned = true;
            self.0.idle.notify_all();
            self.0.work.notify_all();
        }
    }
}

impl Engine<'static> {
    /// Validate `cfg`, spawn its `cfg.threads` persistent workers and
    /// wait until each entered its loop. `starvation_limit` bounds how
    /// many higher-class claims may pass over a waiting lower-class job
    /// (see [`ClassLanes`]).
    pub fn spawn(cfg: &CaluConfig, starvation_limit: usize) -> Result<Arc<Self>, CaluError> {
        let engine = Arc::new(Engine::new(cfg.clone(), starvation_limit)?);
        *engine.handles.lock() = (0..engine.threads())
            .map(|me| {
                let eng = Arc::clone(&engine);
                std::thread::spawn(move || eng.worker_loop(me))
            })
            .collect();
        engine.wait_started();
        Ok(engine)
    }

    /// Stop admitting, finish everything queued and in flight, join the
    /// workers. Idempotent.
    ///
    /// # Panics
    /// When a worker panicked outside a job's containment perimeter.
    pub fn drain(&self) {
        self.close();
        // a poisoned engine never makes progress again: wait_idle stops
        // waiting and the join below propagates the worker's panic
        self.wait_idle();
        // held across the joins: a concurrent drain returns only once
        // every worker is joined
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            h.join().expect("engine worker panicked");
        }
    }

    /// Stop admission and hand back every queued-but-unclaimed job with
    /// its identity and sink intact — the live-reconfigure handover
    /// primitive. Afterwards the engine refuses new submits, jobs
    /// already claimed run to completion on its workers, and the
    /// extracted sinks are uncalled, so the caller can re-admit the jobs
    /// into a successor under the same ids with zero loss. Follow with
    /// [`drain`](Self::drain) to finish the in-flight tail.
    pub fn extract_queued(&self) -> Vec<ExtractedJob> {
        let jobs = {
            let mut st = self.state.lock();
            // stop admission first, under the same lock the pop runs
            // under: nothing can slip into the lanes after the sweep,
            // so the handover is exact — every unclaimed job leaves
            // here, every claimed one finishes on this engine's workers
            st.draining = true;
            let mut jobs = Vec::with_capacity(st.lanes.len());
            while let Some((class, j)) = st.lanes.pop() {
                jobs.push(ExtractedJob {
                    id: j.id,
                    class,
                    job: j.item,
                    sink: j.sink,
                });
            }
            self.queued_jobs.store(0, Ordering::Release);
            jobs
        };
        self.work.notify_all();
        self.idle.notify_all();
        jobs
    }
}

impl<'a> Engine<'a> {
    /// Queue `jobs` and finish them on scoped threads, one [`Outcome`]
    /// per job in submission order. The first failed job, in submission
    /// order, fails the call.
    fn run_to_completion(
        &self,
        jobs: impl IntoIterator<Item = BatchItem<'a>>,
    ) -> Result<BatchOutcome, CaluError> {
        struct Collect(usize, mpsc::Sender<(usize, Result<Outcome, CaluError>)>);
        impl JobSink for Collect {
            fn finished(self: Box<Self>, res: Result<Outcome, CaluError>) {
                let _ = self.1.send((self.0, res));
            }
        }

        let t0 = Instant::now();
        let (tx, rx) = mpsc::channel();
        let mut n = 0;
        for job in jobs {
            let sink = Box::new(Collect(n, tx.clone()));
            let admitted = self.submit(n as u64, JobClass::Batch, job, sink);
            assert!(admitted.is_ok(), "an engine admits until closed");
            n += 1;
        }
        drop(tx);
        let pool_spawn_secs = self.drain_scoped();
        let wall_secs = t0.elapsed().as_secs_f64();
        let mut slots: Vec<Option<Result<Outcome, CaluError>>> = (0..n).map(|_| None).collect();
        for (i, res) in rx {
            slots[i] = Some(res);
        }
        let items = slots
            .into_iter()
            .map(|r| r.expect("a drained engine delivered every job"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchOutcome {
            items,
            wall_secs,
            pool_spawn_secs,
        })
    }
}

/// Result of one [`factor_batch`] sweep.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-item outcomes, in input order.
    pub items: Vec<Outcome>,
    /// End-to-end wall time of the sweep (first queue → last join).
    pub wall_secs: f64,
    /// Seconds until the last pool worker entered its work loop — the
    /// one-off spawn cost the batch amortizes over all items.
    pub pool_spawn_secs: f64,
}

/// Factor a batch on one scoped engine — the one path every scoped
/// caller takes: the solo entry points are one job of it with
/// co-scheduling switched off in `cfg`. The pool is spawned once and
/// each worker keeps one packing arena alive across every item it
/// touches; small items ([`CaluConfig::co_schedules`]) are claimed
/// whole by one worker, large ones run the full hybrid static/dynamic
/// schedule co-operatively, pipelined (a worker whose own queues ran
/// dry starts item `j + 1` while the others finish item `j`). All items
/// share one [`CaluConfig`]; each [`BatchItem`] names its own
/// [`KernelSet`], so one sweep can interleave CALU and tiled Cholesky
/// factorizations. Per item the factors are bitwise-identical to the
/// matching solo call ([`crate::calu_factor`] /
/// [`crate::cholesky_factor`]) with the same config. An armed
/// [`CaluConfig::fault`] plan is honoured like anywhere else: survivors
/// rescue a lost worker's static backlog and redo the small item it
/// died in. Items are cloned into the engine — free for borrowed and
/// generator sources; lend dense data as [`Source::Dense`] rather than
/// moving it in.
pub fn factor_batch(items: &[BatchItem<'_>], cfg: &CaluConfig) -> Result<BatchOutcome, CaluError> {
    if items.is_empty() {
        return Err(CaluError::InvalidConfig(
            "a batch needs at least one matrix".into(),
        ));
    }
    for it in items {
        it.kernels.check_shape(it.source.dims())?;
    }
    Engine::new(cfg.clone(), usize::MAX)?.run_to_completion(items.iter().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::threaded::factor_one;
    use calu_matrix::gen;
    use calu_sched::QueueDiscipline;

    const DISCIPLINES: [QueueDiscipline; 3] = [
        QueueDiscipline::Global,
        QueueDiscipline::Sharded { seed: 5 },
        QueueDiscipline::LockFree { seed: 5 },
    ];

    fn cfg4(queue: QueueDiscipline) -> CaluConfig {
        CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(0.5)
            .with_queue(queue)
    }

    /// Every task ran on exactly one worker and came from exactly one
    /// queue source: per worker, pops by source add up to its spans.
    fn assert_attributed_once(
        tl: &Option<Timeline>,
        stats: &[ThreadMetrics],
        tasks: usize,
        ctx: &str,
    ) {
        let tl = tl.as_ref().expect("a traced job");
        assert_eq!(tl.spans().len(), tasks, "one span per task, {ctx}");
        assert_eq!(
            tl.cores(),
            stats.len(),
            "one timeline lane per worker, {ctx}"
        );
        for (w, s) in stats.iter().enumerate() {
            let spans = tl.spans().iter().filter(|sp| sp.core == w).count() as u64;
            assert_eq!(
                s.local_pops + s.global_pops + s.stolen_pops,
                spans,
                "worker {w}: one queue source per task, {ctx}"
            );
            assert!(s.shard_pops <= s.global_pops && s.remote_steal_pops <= s.stolen_pops);
        }
    }

    struct ChanSink(mpsc::Sender<Result<Outcome, CaluError>>);

    impl JobSink for ChanSink {
        fn finished(self: Box<Self>, res: Result<Outcome, CaluError>) {
            let _ = self.0.send(res);
        }
    }

    #[test]
    fn an_untraced_job_keeps_no_spans_and_folds_the_same_schedule() {
        // both routes (co-operative at cutoff 0, co-scheduled at 1000):
        // no timeline unless asked for, every task counted either way,
        // and a traced job's makespan is its timeline's to the bit
        let a = gen::uniform(96, 96, 61);
        let tasks = KernelSet::CaluLu.build_graph(96, 96, 16, 2).unwrap().len();
        for cutoff in [0usize, 1000] {
            let cfg = cfg4(QueueDiscipline::lock_free()).with_batch_small_cutoff(cutoff);
            for trace in [false, true] {
                let item = BatchItem::lu(Source::Dense(&a)).traced(trace);
                let out = factor_batch(&[item], &cfg).unwrap().items.remove(0);
                let ctx = format!("cutoff {cutoff}, trace {trace}");
                assert_eq!(out.co_scheduled, cutoff > 0, "{ctx}");
                assert_eq!(out.timeline.is_some(), trace, "{ctx}");
                let counted: u64 = out
                    .schedule
                    .threads
                    .iter()
                    .map(|s| s.local_pops + s.global_pops + s.stolen_pops)
                    .sum();
                assert_eq!(counted as usize, tasks, "{ctx}");
                assert!(out.schedule.makespan > 0.0, "{ctx}");
                if let Some(tl) = &out.timeline {
                    assert_eq!(
                        tl.makespan().to_bits(),
                        out.schedule.makespan.to_bits(),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn solo_batch_and_pool_agree_bitwise_under_every_discipline() {
        // {solo, batch, pool} × {Global, Sharded, LockFree} × {LU,
        // Cholesky, tall LU}, batch and pool once more at a cutoff above
        // the job's size (a one-worker run): one engine, so one set of
        // bits — and one honest account of where every task came from.
        // The tall job runs on a 4×1 grid (four leaves a panel, every
        // worker owning tiles of every column), the square ones on 2×2.
        let n = 192;
        for (kernels, m, leaves) in [
            (KernelSet::CaluLu, n, 2),
            (KernelSet::Cholesky, n, 2),
            (KernelSet::CaluLu, 6 * n, 4),
        ] {
            let n = if m == n { n } else { 64 };
            let a = match kernels {
                KernelSet::CaluLu => gen::uniform(m, n, 71),
                KernelSet::Cholesky => gen::spd_uniform(n, 72),
            };
            let tasks = kernels.build_graph(m, n, 16, leaves).unwrap().len();
            let mut reference: Option<Factorization> = None;
            for queue in DISCIPLINES {
                let item = BatchItem {
                    source: Source::Dense(&a),
                    kernels,
                    verify: false,
                    trace: true,
                };
                let solo = factor_one(item.clone(), &cfg4(queue)).unwrap();
                let reference = reference.get_or_insert_with(|| solo.factorization.clone());
                for cutoff in [0, m] {
                    let cfg = cfg4(queue).with_batch_small_cutoff(cutoff);
                    let batch = factor_batch(std::slice::from_ref(&item), &cfg)
                        .unwrap()
                        .items
                        .remove(0);
                    let pool = Engine::spawn(&cfg, 4).unwrap();
                    let (tx, rx) = mpsc::channel();
                    let owned = BatchItem {
                        source: Source::Owned(a.clone()),
                        kernels,
                        verify: false,
                        trace: true,
                    };
                    let admitted = pool.submit(1, JobClass::Batch, owned, Box::new(ChanSink(tx)));
                    assert!(admitted.is_ok());
                    let served = rx.recv().unwrap().unwrap();
                    pool.drain();
                    assert_eq!(served.config.queue, queue, "the pool reports what it ran");

                    for (who, out) in [("solo", &solo), ("batch", &batch), ("pool", &served)] {
                        let ctx = format!("{who} {kernels:?} {m}x{n} {queue} cutoff {cutoff}");
                        let (f, stats) = (&out.factorization, &out.schedule.threads);
                        assert_eq!(out.co_scheduled, cutoff > 0 && who != "solo", "{ctx}");
                        let lanes = if out.co_scheduled { 1 } else { 4 };
                        assert_eq!(stats.len(), lanes, "one lane per worker of the run, {ctx}");
                        assert_eq!(f.lu.as_slice(), reference.lu.as_slice(), "{ctx}");
                        assert_eq!(f.perm.pivots(), reference.perm.pivots(), "{ctx}");
                        assert_attributed_once(&out.timeline, stats, tasks, &ctx);
                        let shard: u64 = stats.iter().map(|s| s.shard_pops).sum();
                        let steals: u64 =
                            stats.iter().map(|s| s.stolen_pops + s.failed_steals).sum();
                        if queue.steals() {
                            // the served job included: it used to run on
                            // a global heap whatever the config said
                            assert!(shard > 0, "own shard/deque pops, {ctx}");
                        } else {
                            assert_eq!((shard, steals), (0, 0), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn miri_two_thread_batch() {
        // the engine's shared tiles under two real threads, small enough
        // for the interpreter: a co-operative 48² item (cutoff 32), a
        // co-scheduled 32² item and a co-operative 80² Cholesky item at
        // group 3 (its off-diagonal updates stack in BCL, so one A·Bᵀ
        // GEMM runs over stacked tile pointers) in one sweep, each equal
        // to its solo run's bits
        let cfg = CaluConfig::new(16)
            .with_threads(2)
            .with_dratio(0.5)
            .with_batch_small_cutoff(32);
        assert_eq!(cfg.effective_group(), 3);
        let mats = [
            gen::uniform(48, 48, 5),
            gen::uniform(32, 32, 6),
            gen::spd_uniform(80, 7),
        ];
        fn job(a: &DenseMatrix) -> BatchItem<'_> {
            match a.rows() {
                80 => BatchItem::cholesky(Source::Dense(a)).traced(true),
                _ => BatchItem::lu(Source::Dense(a)),
            }
        }
        let out = factor_batch(&mats.iter().map(job).collect::<Vec<_>>(), &cfg).unwrap();
        for (a, item) in mats.iter().zip(&out.items) {
            let solo = factor_one(job(a), &cfg).unwrap();
            let ctx = format!("{}²", a.rows());
            assert_eq!(item.co_scheduled, a.rows() <= 32, "{ctx}");
            let (f, s) = (&item.factorization, &solo.factorization);
            assert_eq!(f.lu.as_slice(), s.lu.as_slice(), "{ctx}");
            assert_eq!(f.perm.pivots(), s.perm.pivots(), "{ctx}");
        }
        // one worker pops in one fixed order, so there the group is sure
        let one = factor_one(job(&mats[2]), &cfg.clone().with_threads(1)).unwrap();
        assert!(group_members(&one.timeline) > 0, "no Cholesky group ran");
        let (f, s) = (&out.items[2].factorization, &one.factorization);
        assert_eq!(f.lu.as_slice(), s.lu.as_slice(), "one worker");
    }

    /// Spans that start exactly where the same core's previous span
    /// ended and are S tasks: the later members of grouped calls, which
    /// share one measured interval. (Separately timed tasks have the
    /// completion bookkeeping between their two clock reads.)
    fn group_members(tl: &Option<Timeline>) -> usize {
        let tl = tl.as_ref().expect("a traced job");
        (0..tl.cores())
            .map(|core| {
                let spans = tl.core_spans(core);
                let glued =
                    |w: &&[TaskSpan]| w[0].end == w[1].start && w[1].kind == SpanKind::Update;
                spans.windows(2).filter(glued).count()
            })
            .sum()
    }

    fn grouped_cfg(threads: usize, queue: QueueDiscipline, group: usize) -> CaluConfig {
        // two leaves a panel whatever the grid, so every thread count
        // runs one DAG and must produce one set of bits
        let mut cfg = CaluConfig::new(16)
            .with_threads(threads)
            .with_dratio(0.5)
            .with_queue(queue);
        (cfg.group, cfg.leaf_stride) = (group, Some(2));
        cfg
    }

    #[test]
    fn grouped_updates_keep_the_bits_and_every_member_stays_a_task() {
        // group × discipline × shape × threads: a group is one GEMM over
        // stacked tiles, so nothing a caller can observe changes except
        // the time — not the factors, not the task count, not the
        // per-worker account of where each task came from
        for (m, n) in [(256, 256), (250, 250), (1152, 64)] {
            let a = gen::uniform(m, n, 91);
            let tasks = KernelSet::CaluLu.build_graph(m, n, 16, 2).unwrap().len();
            let mut reference: Option<Factorization> = None;
            for threads in [1, 2, 4] {
                for queue in DISCIPLINES {
                    for group in [1, 3, 8] {
                        let cfg = grouped_cfg(threads, queue, group);
                        let item = BatchItem::lu(Source::Dense(&a)).traced(true);
                        let out = factor_one(item, &cfg).unwrap();
                        let ctx = format!("{m}x{n} T={threads} {queue} group={group}");
                        let f = &out.factorization;
                        let reference = reference.get_or_insert_with(|| f.clone());
                        assert_eq!(f.lu.as_slice(), reference.lu.as_slice(), "{ctx}");
                        assert_eq!(f.perm.pivots(), reference.perm.pivots(), "{ctx}");
                        assert_attributed_once(&out.timeline, &out.schedule.threads, tasks, &ctx);
                        if group > 1 {
                            assert!(group_members(&out.timeline) > 0, "no group ran, {ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn faults_behave_on_groups_as_on_single_tasks() {
        let a = gen::uniform(256, 256, 93);
        let item = || BatchItem::lu(Source::Dense(&a)).traced(true);
        for queue in DISCIPLINES {
            let clean = factor_one(item(), &grouped_cfg(4, queue, 1)).unwrap();
            for group in [3usize, 8] {
                let run = |plan: FaultPlan| {
                    let cfg = grouped_cfg(4, queue, group)
                        .with_batch_small_cutoff(0)
                        .with_fault(plan.with_seed(9));
                    let engine = Engine::new(cfg, 1).unwrap();
                    let res = engine.run_to_completion([item()]);
                    (res.map(|mut b| b.items.remove(0)), engine.lost_workers())
                };
                let ctx = format!("{queue} group={group}");
                let same_bits = |out: &Outcome, what: &str| {
                    let (f, c) = (&out.factorization, &clean.factorization);
                    assert_eq!(f.lu.as_slice(), c.lu.as_slice(), "{what}, {ctx}");
                    assert_eq!(f.perm.pivots(), c.perm.pivots(), "{what}, {ctx}");
                };
                // a loss after five tasks: the fault clock ticks once a
                // member, so the worker dies within one group of its
                // fifth task — counting calls would let it run 5 groups
                let (lost, lost_workers) = run(FaultPlan::off().lose_worker(1, 5));
                let lost = lost.unwrap();
                same_bits(&lost, "lose");
                assert_eq!(lost_workers, 1, "{ctx}");
                let ran = lost.timeline.as_ref().unwrap().core_spans(1).len();
                assert!((5..5 + group).contains(&ran), "worker 1 ran {ran}, {ctx}");
                assert!(
                    lost.schedule.threads[1].lost && lost.schedule.threads[1].rescued > 0,
                    "{ctx}"
                );
                // a slow worker is degraded: its static share rides the
                // dynamic section, the others still group theirs
                let (slow, _) = run(FaultPlan::off().slow_worker(0, 2.0));
                let slow = slow.unwrap();
                same_bits(&slow, "slow");
                assert!(group_members(&slow.timeline) > 0, "{ctx}");
                assert_eq!(slow.schedule.threads[0].local_pops, 0, "{ctx}");
                // a panic fails the job, typed, group or not
                let (panicked, _) = run(FaultPlan::off().panic_worker(0, 3));
                assert!(
                    matches!(panicked, Err(CaluError::TaskPanic(_))),
                    "{ctx}: {:?}",
                    panicked.map(|o| o.schedule.makespan)
                );
            }
        }
    }

    #[test]
    fn a_lost_worker_never_changes_a_mixed_batch() {
        // small (co-scheduled) and large (co-operative) items of both
        // kernel sets, and worker 1 dies five tasks in: the survivors
        // rescue its static backlog, redo any small item it died in,
        // and the batch comes out bit for bit like the clean one
        let lu: Vec<DenseMatrix> = [(300usize, 81u64), (64, 82), (48, 83)]
            .iter()
            .map(|&(n, seed)| gen::uniform(n, n, seed))
            .collect();
        let spd: Vec<DenseMatrix> = [(256usize, 84u64), (80, 85)]
            .iter()
            .map(|&(n, seed)| gen::spd_uniform(n, seed))
            .collect();
        let items: Vec<BatchItem<'_>> = vec![
            BatchItem::lu(Source::Dense(&lu[0])),
            BatchItem::cholesky(Source::Dense(&spd[0])),
            BatchItem::lu(Source::Dense(&lu[1])),
            BatchItem::cholesky(Source::Dense(&spd[1])),
            BatchItem::lu(Source::Dense(&lu[2])),
        ];
        for queue in DISCIPLINES {
            let cfg = cfg4(queue).with_batch_small_cutoff(100);
            let clean = factor_batch(&items, &cfg).unwrap();
            let plan = FaultPlan::off().with_seed(9).lose_worker(1, 5);
            let engine = Engine::new(cfg.with_fault(plan), 1).unwrap();
            let faulted = engine.run_to_completion(items.iter().cloned()).unwrap();
            assert_eq!(engine.lost_workers(), 1, "{queue}");
            for (i, (c, f)) in clean.items.iter().zip(&faulted.items).enumerate() {
                let (c, f) = (&c.factorization, &f.factorization);
                assert_eq!(c.lu.as_slice(), f.lu.as_slice(), "item {i}, {queue}");
                assert_eq!(c.perm.pivots(), f.perm.pivots(), "item {i}, {queue}");
            }
            let rescued: u64 = faulted
                .items
                .iter()
                .flat_map(|o| &o.schedule.threads)
                .map(|s| s.rescued)
                .sum();
            assert!(rescued > 0, "worker 1's static share was rescued, {queue}");
            assert_eq!(rescued, engine.rescued_tasks(), "{queue}");
            for (w, s) in faulted
                .items
                .iter()
                .flat_map(|o| o.schedule.threads.iter().enumerate())
            {
                assert!(
                    w == 1 || (!s.lost && s.rescued == 0),
                    "only worker 1 died, {queue}"
                );
            }
        }
    }

    /// Persistent engines: spawned once, fed by `submit`, joined by
    /// `drain`.
    mod persistent {
        use super::*;
        use crate::threaded::calu_factor;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        fn cfg4() -> CaluConfig {
            CaluConfig::new(16).with_threads(4).with_dratio(0.5)
        }

        /// Assert a submit was admitted (the rejection arm returns the sink,
        /// which has no `Debug` for a plain `unwrap`).
        fn accept(r: Result<(), Box<dyn JobSink>>) {
            assert!(r.is_ok(), "engine rejected a submit while not draining");
        }

        #[test]
        fn small_jobs_match_solo_runs_bitwise() {
            let cfg = cfg4().with_batch_small_cutoff(100);
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            for seed in 0..4u64 {
                accept(engine.submit(
                    seed,
                    JobClass::Batch,
                    BatchItem::lu(Source::Uniform { m: 64, n: 64, seed }),
                    Box::new(ChanSink(tx.clone())),
                ));
            }
            let mut outcomes: Vec<Outcome> = (0..4).map(|_| rx.recv().unwrap().unwrap()).collect();
            engine.drain();
            outcomes.sort_by_key(|o| o.factorization.lu.as_slice().len()); // all same; stable no-op
            for o in &outcomes {
                assert!(o.co_scheduled);
            }
            // parity: match each outcome to its seed by re-factoring
            for seed in 0..4u64 {
                let a = gen::uniform(64, 64, seed);
                let solo = calu_factor(&a, &cfg).unwrap();
                assert!(
                    outcomes
                        .iter()
                        .any(|o| o.factorization.lu.as_slice() == solo.lu.as_slice()
                            && o.factorization.perm.pivots() == solo.perm.pivots()),
                    "seed {seed} missing from engine outcomes"
                );
            }
        }

        #[test]
        fn large_jobs_match_solo_runs_bitwise() {
            // cutoff 0 forces the co-operative route
            let cfg = cfg4().with_batch_small_cutoff(0);
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            let a = gen::uniform(192, 192, 7);
            accept(
                engine.submit(
                    1,
                    JobClass::Interactive,
                    BatchItem::lu(Source::Owned(a.clone()))
                        .verified(true)
                        .traced(true),
                    Box::new(ChanSink(tx)),
                ),
            );
            let out = rx.recv().unwrap().unwrap();
            engine.drain();
            assert!(!out.co_scheduled);
            let solo = calu_factor(&a, &cfg).unwrap();
            assert_eq!(out.factorization.lu.as_slice(), solo.lu.as_slice());
            assert_eq!(out.factorization.perm.pivots(), solo.perm.pivots());
            assert!(out.residual.unwrap() < 1e-12);
            let tasks: u64 = out
                .schedule
                .threads
                .iter()
                .map(|s| s.local_pops + s.global_pops)
                .sum();
            assert_eq!(tasks as usize, out.timeline.unwrap().spans().len());
        }

        #[test]
        fn mixed_lu_and_cholesky_jobs_share_one_pool() {
            // one engine, both kernel sets, both routes (small + large)
            let cfg = cfg4().with_batch_small_cutoff(100);
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            let jobs: [(u64, BatchItem<'static>); 4] = [
                (
                    1,
                    BatchItem::lu(Source::Uniform {
                        m: 64,
                        n: 64,
                        seed: 1,
                    }),
                ),
                (
                    2,
                    BatchItem::cholesky(Source::SpdUniform { n: 64, seed: 2 }),
                ),
                (
                    3,
                    BatchItem::lu(Source::Uniform {
                        m: 192,
                        n: 192,
                        seed: 3,
                    }),
                ),
                (
                    4,
                    BatchItem::cholesky(Source::SpdUniform { n: 192, seed: 4 }),
                ),
            ];
            for (id, job) in jobs {
                accept(engine.submit(
                    id,
                    JobClass::Batch,
                    job.verified(true),
                    Box::new(ChanSink(tx.clone())),
                ));
            }
            let outcomes: Vec<Outcome> = (0..4).map(|_| rx.recv().unwrap().unwrap()).collect();
            engine.drain();
            for n in [64usize, 192] {
                let lu_in = gen::uniform(n, n, if n == 64 { 1 } else { 3 });
                let spd_in = gen::spd_uniform(n, if n == 64 { 2 } else { 4 });
                let solo_lu = calu_factor(&lu_in, &cfg).unwrap();
                let solo_ch = crate::threaded::cholesky_factor(&spd_in, &cfg).unwrap();
                let lu_out = outcomes
                    .iter()
                    .find(|o| o.dims == (n, n) && o.kernels == KernelSet::CaluLu)
                    .unwrap();
                let ch_out = outcomes
                    .iter()
                    .find(|o| o.dims == (n, n) && o.kernels == KernelSet::Cholesky)
                    .unwrap();
                assert_eq!(lu_out.factorization.lu.as_slice(), solo_lu.lu.as_slice());
                assert_eq!(ch_out.factorization.lu.as_slice(), solo_ch.lu.as_slice());
                assert!(lu_out.residual.unwrap() < 1e-12);
                assert!(lu_out.growth_factor.is_some());
                assert!(ch_out.residual.unwrap() < 1e-13);
                assert!(ch_out.growth_factor.is_none(), "Cholesky has no growth");
            }
        }

        #[test]
        fn cholesky_job_with_rectangular_source_fails_typed() {
            for cutoff in [100usize, 0] {
                // both routes must refuse with InvalidConfig, not a panic
                let engine = Engine::spawn(&cfg4().with_batch_small_cutoff(cutoff), 4).unwrap();
                let (tx, rx) = mpsc::channel();
                accept(engine.submit(
                    1,
                    JobClass::Batch,
                    BatchItem::cholesky(Source::Uniform {
                        m: 96,
                        n: 64,
                        seed: 1,
                    }),
                    Box::new(ChanSink(tx)),
                ));
                match rx.recv().unwrap() {
                    Err(CaluError::InvalidConfig(msg)) => {
                        assert!(msg.contains("square"), "msg: {msg}")
                    }
                    other => panic!("cutoff {cutoff}: expected InvalidConfig, got {other:?}"),
                }
                engine.drain();
            }
        }

        #[test]
        fn drain_finishes_jobs_queued_in_every_class() {
            let cfg = cfg4().with_batch_small_cutoff(100).with_threads(2);
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            let n_jobs = 9;
            for i in 0..n_jobs {
                let class = JobClass::ALL[i % 3];
                accept(engine.submit(
                    i as u64,
                    class,
                    BatchItem::lu(Source::Uniform {
                        m: 48,
                        n: 48,
                        seed: i as u64,
                    }),
                    Box::new(ChanSink(tx.clone())),
                ));
            }
            engine.drain();
            // every job completed before drain returned
            let done: Vec<_> = rx.try_iter().collect();
            assert_eq!(done.len(), n_jobs);
            assert!(done.iter().all(|r| r.is_ok()));
            assert_eq!(engine.queued(), 0);
            assert_eq!(engine.in_flight(), 0);
        }

        #[test]
        fn cancel_removes_a_queued_job() {
            // single worker + a job in front keeps the victim queued long
            // enough to cancel deterministically… unless the first job wins
            // the race, which the assertion tolerates by checking either
            // outcome is consistent
            let cfg = cfg4().with_threads(1).with_batch_small_cutoff(0);
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            accept(engine.submit(
                1,
                JobClass::Batch,
                BatchItem::lu(Source::Uniform {
                    m: 256,
                    n: 256,
                    seed: 1,
                }),
                Box::new(ChanSink(tx.clone())),
            ));
            accept(engine.submit(
                2,
                JobClass::Batch,
                BatchItem::lu(Source::Uniform {
                    m: 64,
                    n: 64,
                    seed: 2,
                }),
                Box::new(ChanSink(tx.clone())),
            ));
            let cancelled = engine.cancel(2).is_some();
            engine.drain();
            let done = rx.try_iter().count();
            assert_eq!(done, if cancelled { 1 } else { 2 });
        }

        #[test]
        fn submit_after_drain_returns_the_sink_uncalled() {
            let engine = Engine::spawn(&cfg4(), 4).unwrap();
            engine.drain();
            let (tx, rx) = mpsc::channel();
            let rejected = engine.submit(
                1,
                JobClass::Interactive,
                BatchItem::lu(Source::Uniform {
                    m: 8,
                    n: 8,
                    seed: 0,
                }),
                Box::new(ChanSink(tx)),
            );
            let sink = match rejected {
                Ok(()) => panic!("a draining engine must refuse submits"),
                Err(sink) => sink,
            };
            // the engine never invoked the sink — re-entrancy-safe for
            // callers submitting under their own locks
            assert!(rx.try_recv().is_err());
            sink.finished(Err(CaluError::InvalidConfig(
                "engine is shutting down".into(),
            )));
            assert!(matches!(
                rx.recv().unwrap(),
                Err(CaluError::InvalidConfig(_))
            ));
            engine.drain(); // idempotent
        }

        #[test]
        fn large_claims_stop_at_two_runs_per_worker() {
            // every job co-operative, twelve of them queued at once: each
            // claim is seen from its sink's `started`, when it already
            // counts, and no more than 2 × 2 are ever out at one time
            struct Watch {
                engine: Arc<Engine<'static>>,
                most: Arc<AtomicUsize>,
                tx: mpsc::Sender<Result<Outcome, CaluError>>,
            }
            impl JobSink for Watch {
                fn started(&self) {
                    let claimed = self.engine.state.lock().cooperative;
                    self.most.fetch_max(claimed, Ordering::SeqCst);
                }
                fn finished(self: Box<Self>, res: Result<Outcome, CaluError>) {
                    let _ = self.tx.send(res);
                }
            }
            let cfg = CaluConfig::new(16)
                .with_threads(2)
                .with_batch_small_cutoff(0);
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let most = Arc::new(AtomicUsize::new(0));
            let (tx, rx) = mpsc::channel();
            for seed in 0..12u64 {
                let sink = Watch {
                    engine: Arc::clone(&engine),
                    most: Arc::clone(&most),
                    tx: tx.clone(),
                };
                accept(engine.submit(
                    seed,
                    JobClass::Batch,
                    BatchItem::lu(Source::Uniform { m: 96, n: 96, seed }),
                    Box::new(sink),
                ));
            }
            for _ in 0..12 {
                assert!(!rx.recv().unwrap().unwrap().co_scheduled);
            }
            engine.drain();
            let most = most.load(Ordering::SeqCst);
            assert!((1..=RUNS_PER_WORKER * 2).contains(&most), "{most}");
            assert_eq!(engine.state.lock().cooperative, 0);
        }

        #[test]
        fn drain_racing_a_large_job_claim_never_strands_it() {
            // regression: drain() used to let idle workers exit on
            // `draining && active.is_empty()`, which is observable while a
            // peer has *claimed* a large job (in_flight counted) but not
            // yet published its run — the run's static tasks then belonged
            // to exited workers and the job never finished. Iterate to give
            // the race room; the exit gate on in_flight must keep every
            // worker around until the claimed job is done.
            let cfg = cfg4().with_batch_small_cutoff(0); // every job co-operative
            for round in 0..10u64 {
                let engine = Engine::spawn(&cfg, 4).unwrap();
                let (tx, rx) = mpsc::channel();
                accept(engine.submit(
                    round,
                    JobClass::Batch,
                    BatchItem::lu(Source::Uniform {
                        m: 128,
                        n: 128,
                        seed: round,
                    }),
                    Box::new(ChanSink(tx)),
                ));
                // drain immediately: workers observe `draining` while the
                // claimant is still materializing/building the run
                engine.drain();
                let out = rx.recv().expect("job stranded by drain").unwrap();
                assert!(!out.co_scheduled);
                assert!(out.factorization.is_nonsingular());
            }
        }

        #[test]
        fn lost_worker_mid_small_item_requeues_it_whole() {
            // regression: an injected worker loss that fires while the
            // worker is draining a co-scheduled item used to have no
            // recovery path — the partially-factored item died with the
            // worker. The fix requeues the whole item (its claim was
            // atomic, so redoing it from the source is exact) and lets a
            // survivor redo it. `lose_worker(0, 3)` can only fire after 3
            // task ticks, which only happen inside an item, and the sinks
            // hold the first two claims at a two-party rendezvous (`started`
            // runs on the claiming worker with no engine lock held): both
            // workers own an item before either factors a tile, so worker 0
            // is guaranteed to die mid-item — however late it woke up.
            use crate::fault::FaultPlan;
            struct Rendezvous {
                tx: mpsc::Sender<Result<Outcome, CaluError>>,
                claims: Arc<AtomicUsize>,
                both_claimed: Arc<Barrier>,
            }
            impl JobSink for Rendezvous {
                fn started(&self) {
                    // the requeued item is claimed a second time: only the
                    // first two claims meet
                    if self.claims.fetch_add(1, Ordering::SeqCst) < 2 {
                        self.both_claimed.wait();
                    }
                }
                fn finished(self: Box<Self>, res: Result<Outcome, CaluError>) {
                    let _ = self.tx.send(res);
                }
            }
            let claims = Arc::new(AtomicUsize::new(0));
            let both_claimed = Arc::new(Barrier::new(2));
            let cfg = cfg4()
                .with_threads(2)
                .with_batch_small_cutoff(100)
                .with_fault(FaultPlan::off().lose_worker(0, 3));
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            let n_jobs = 6u64;
            for seed in 0..n_jobs {
                accept(engine.submit(
                    seed,
                    JobClass::Batch,
                    BatchItem::lu(Source::Uniform { m: 64, n: 64, seed }),
                    Box::new(Rendezvous {
                        tx: tx.clone(),
                        claims: Arc::clone(&claims),
                        both_claimed: Arc::clone(&both_claimed),
                    }),
                ));
            }
            let outcomes: Vec<Outcome> = (0..n_jobs).map(|_| rx.recv().unwrap().unwrap()).collect();
            engine.drain();
            assert_eq!(engine.lost_workers(), 1, "worker 0 must have died");
            // drain stranded nothing and every item matches an unfaulted
            // solo run of the same shape (threads drive the TSLU grid)
            let clean = cfg4().with_threads(2);
            for seed in 0..n_jobs {
                let a = gen::uniform(64, 64, seed);
                let solo = calu_factor(&a, &clean).unwrap();
                assert!(
                    outcomes
                        .iter()
                        .any(|o| o.factorization.lu.as_slice() == solo.lu.as_slice()),
                    "seed {seed} missing or wrong after the mid-item loss"
                );
            }
        }

        #[test]
        fn lost_worker_during_a_cooperative_run_is_rescued() {
            // losing a worker mid-run republishes its static backlog into
            // the run's dynamic heap; the exclusive-writer DAG makes the
            // rerouted completion bitwise-identical to the unfaulted run
            use crate::fault::FaultPlan;
            let cfg = cfg4()
                .with_batch_small_cutoff(0)
                .with_fault(FaultPlan::off().lose_worker(1, 4));
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            let a = gen::uniform(192, 192, 11);
            accept(engine.submit(
                1,
                JobClass::Batch,
                BatchItem::lu(Source::Owned(a.clone())),
                Box::new(ChanSink(tx)),
            ));
            let out = rx.recv().unwrap().unwrap();
            engine.drain();
            assert_eq!(engine.lost_workers(), 1);
            assert!(
                out.schedule.threads[1].lost,
                "the dead worker is flagged in stats"
            );
            let rescued = out.schedule.total_rescued();
            assert!(rescued > 0, "the dead worker's static share was rescued");
            assert_eq!(rescued, engine.rescued_tasks());
            let solo = calu_factor(&a, &cfg4()).unwrap();
            assert_eq!(out.factorization.lu.as_slice(), solo.lu.as_slice());
            assert_eq!(out.factorization.perm.pivots(), solo.perm.pivots());
        }

        #[test]
        fn panicking_job_fails_its_sink_and_the_pool_survives() {
            // a panic latched before the only worker's first piece of
            // work unwinds in the build of the job it claims; it must be
            // contained to the job (sink failed with TaskPanic), not
            // kill the worker
            use crate::fault::FaultPlan;
            let one = cfg4()
                .with_threads(1)
                .with_fault(FaultPlan::off().panic_worker(0, 0));
            let solo = Engine::spawn(&one, 4).unwrap();
            let (stx, srx) = mpsc::channel();
            for id in [1, 2] {
                accept(solo.submit(
                    id,
                    JobClass::Batch,
                    BatchItem::lu(Source::Uniform {
                        m: 48,
                        n: 48,
                        seed: 3,
                    }),
                    Box::new(ChanSink(stx.clone())),
                ));
            }
            assert!(matches!(srx.recv().unwrap(), Err(CaluError::TaskPanic(_))));
            assert!(srx.recv().unwrap().is_ok(), "the worker survived");
            solo.drain();
            // an empty source fails its job typed on the claiming
            // worker, by the one job-shape rule in the build
            let cfg = cfg4().with_batch_small_cutoff(100);
            let engine = Engine::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            accept(engine.submit(
                1,
                JobClass::Batch,
                BatchItem::lu(Source::Uniform {
                    m: 0,
                    n: 0,
                    seed: 0,
                }),
                Box::new(ChanSink(tx.clone())),
            ));
            assert!(matches!(rx.recv().unwrap(), Err(CaluError::EmptyMatrix)));
            // same through the co-operative route: cutoff 0 with one
            // non-zero dimension routes large
            let large = Engine::spawn(&cfg4().with_batch_small_cutoff(0), 4).unwrap();
            let (ltx, lrx) = mpsc::channel();
            accept(large.submit(
                2,
                JobClass::Batch,
                BatchItem::lu(Source::Uniform {
                    m: 0,
                    n: 5,
                    seed: 0,
                }),
                Box::new(ChanSink(ltx)),
            ));
            assert!(matches!(lrx.recv().unwrap(), Err(CaluError::EmptyMatrix)));
            // both engines keep serving after the failed jobs
            accept(engine.submit(
                3,
                JobClass::Batch,
                BatchItem::lu(Source::Uniform {
                    m: 48,
                    n: 48,
                    seed: 3,
                }),
                Box::new(ChanSink(tx)),
            ));
            assert!(rx.recv().unwrap().is_ok());
            engine.drain();
            large.drain();
        }

        #[test]
        fn drain_joins_every_worker_and_releases_the_engine() {
            // an engine does not drain on drop, so `drain` is what
            // releases it: afterwards no worker holds the engine, a
            // second drain returns at once, and the engine refuses work
            let engine = Engine::spawn(&cfg4(), 4).unwrap();
            let (tx, rx) = mpsc::channel();
            accept(engine.submit(
                1,
                JobClass::Batch,
                BatchItem::lu(Source::Uniform {
                    m: 64,
                    n: 64,
                    seed: 1,
                }),
                Box::new(ChanSink(tx.clone())),
            ));
            engine.drain();
            assert!(rx.recv().unwrap().is_ok());
            assert_eq!(Arc::strong_count(&engine), 1, "a worker outlived drain");
            engine.drain();
            let refused = engine.submit(
                2,
                JobClass::Interactive,
                BatchItem::lu(Source::Uniform {
                    m: 8,
                    n: 8,
                    seed: 2,
                }),
                Box::new(ChanSink(tx)),
            );
            assert!(refused.is_err(), "a drained engine must refuse submits");
            assert!(rx.try_recv().is_err(), "the refused sink was called");
        }
    }

    /// `factor_batch` sweeps: routing, attribution, parity with solo.
    mod batch {
        use super::*;
        use crate::engine::Source;
        use crate::threaded::calu_factor;
        use calu_dag::TaskGraph;
        use calu_matrix::{gen, DenseMatrix};
        use calu_sched::QueueDiscipline;

        fn cfg4() -> CaluConfig {
            CaluConfig::new(16).with_threads(4).with_dratio(0.5)
        }

        /// One CALU item per borrowed matrix.
        fn lu_items<'a>(mats: &[&'a DenseMatrix]) -> Vec<BatchItem<'a>> {
            mats.iter()
                .map(|a| BatchItem::lu(Source::Dense(a)))
                .collect()
        }

        #[test]
        fn batch_items_match_solo_runs_bitwise() {
            // mixed small (co-scheduled) and large (co-operative) items
            let mats: Vec<DenseMatrix> = [(48usize, 1u64), (96, 2), (450, 3), (64, 4)]
                .iter()
                .map(|&(n, seed)| gen::uniform(n, n, seed))
                .collect();
            let refs: Vec<&DenseMatrix> = mats.iter().collect();
            let cfg = cfg4().with_batch_small_cutoff(100);
            let out = factor_batch(&lu_items(&refs), &cfg).unwrap();
            assert_eq!(out.items.len(), 4);
            assert!(out.wall_secs > 0.0 && out.pool_spawn_secs >= 0.0);
            for (i, (a, item)) in mats.iter().zip(&out.items).enumerate() {
                let solo = calu_factor(a, &cfg).unwrap();
                assert_eq!(
                    item.factorization.lu.as_slice(),
                    solo.lu.as_slice(),
                    "item {i}: batch factors must match solo bitwise"
                );
                assert_eq!(item.factorization.perm.pivots(), solo.perm.pivots());
                assert!(item.factorization.residual(a) < 1e-12, "item {i}");
                assert_eq!(item.co_scheduled, a.rows() <= 100, "item {i}");
                assert!(item.schedule.makespan > 0.0 && item.schedule.makespan <= out.wall_secs);
            }
        }

        #[test]
        fn every_task_is_attributed_exactly_once() {
            let mats: Vec<DenseMatrix> = (0..6).map(|i| gen::uniform(80, 80, 50 + i)).collect();
            let refs: Vec<&DenseMatrix> = mats.iter().collect();
            for cutoff in [0usize, 1000] {
                // cutoff 0: all co-operative; cutoff 1000: all co-scheduled
                let cfg = cfg4().with_batch_small_cutoff(cutoff);
                let items: Vec<_> = lu_items(&refs)
                    .into_iter()
                    .map(|i| i.traced(true))
                    .collect();
                let out = factor_batch(&items, &cfg).unwrap();
                for (item, g) in out.items.iter().zip(&mats) {
                    let expected = TaskGraph::build_calu(g.rows(), g.cols(), 16, 2).len();
                    let popped: u64 = item
                        .schedule
                        .threads
                        .iter()
                        .map(|s| s.local_pops + s.global_pops + s.stolen_pops)
                        .sum();
                    assert_eq!(popped as usize, expected, "cutoff {cutoff}");
                    let spans = item.timeline.as_ref().unwrap().spans().len();
                    assert_eq!(spans, expected, "cutoff {cutoff}");
                    assert_eq!(item.co_scheduled, cutoff == 1000);
                }
            }
        }

        #[test]
        fn batch_runs_under_every_queue_discipline() {
            let mats: Vec<DenseMatrix> = (0..3).map(|i| gen::uniform(450, 450, 7 + i)).collect();
            let refs: Vec<&DenseMatrix> = mats.iter().collect();
            let mut packed: Vec<Vec<f64>> = Vec::new();
            for queue in [
                QueueDiscipline::Global,
                QueueDiscipline::sharded(),
                QueueDiscipline::lock_free(),
            ] {
                let cfg = cfg4().with_queue(queue).with_batch_small_cutoff(0);
                let out = factor_batch(&lu_items(&refs), &cfg).unwrap();
                packed.push(out.items[0].factorization.lu.as_slice().to_vec());
                for item in &out.items {
                    assert!(!item.co_scheduled);
                }
            }
            assert_eq!(packed[0], packed[1], "global vs sharded");
            assert_eq!(packed[0], packed[2], "global vs lockfree");
        }

        #[test]
        fn empty_batch_and_empty_matrices_are_rejected() {
            assert!(matches!(
                factor_batch(&[], &cfg4()),
                Err(CaluError::InvalidConfig(_))
            ));
            let z = DenseMatrix::zeros(0, 4);
            assert!(matches!(
                factor_batch(&lu_items(&[&z]), &cfg4()),
                Err(CaluError::EmptyMatrix)
            ));
        }

        #[test]
        fn lazy_sources_match_dense_sources_bitwise() {
            // a Uniform source materialized on the claiming worker must
            // factor exactly like the same matrix passed in dense — for
            // both co-scheduled and co-operative routing
            let dims_seeds = [(48usize, 21u64), (96, 22), (450, 23)];
            let mats: Vec<DenseMatrix> = dims_seeds
                .iter()
                .map(|&(n, seed)| gen::uniform(n, n, seed))
                .collect();
            let refs: Vec<&DenseMatrix> = mats.iter().collect();
            let lazy: Vec<BatchItem<'_>> = dims_seeds
                .iter()
                .map(|&(n, seed)| BatchItem::lu(Source::Uniform { m: n, n, seed }))
                .collect();
            let cfg = cfg4().with_batch_small_cutoff(100);
            let dense_out = factor_batch(&lu_items(&refs), &cfg).unwrap();
            let lazy_out = factor_batch(&lazy, &cfg).unwrap();
            for (i, (d, l)) in dense_out.items.iter().zip(&lazy_out.items).enumerate() {
                assert_eq!(
                    d.factorization.lu.as_slice(),
                    l.factorization.lu.as_slice(),
                    "item {i}"
                );
                assert_eq!(d.factorization.perm.pivots(), l.factorization.perm.pivots());
                assert_eq!(d.co_scheduled, l.co_scheduled, "item {i}");
            }
        }

        #[test]
        fn mixed_lu_and_cholesky_batch_matches_solo_bitwise() {
            // small (co-scheduled) and large (co-operative) items of both
            // kernel sets through one pool; each must match its solo driver
            let lu_mats: Vec<DenseMatrix> = [(48usize, 31u64), (450, 32)]
                .iter()
                .map(|&(n, seed)| gen::uniform(n, n, seed))
                .collect();
            let spd_mats: Vec<DenseMatrix> = [(64usize, 33u64), (300, 34)]
                .iter()
                .map(|&(n, seed)| gen::spd_uniform(n, seed))
                .collect();
            let items: Vec<BatchItem<'_>> = vec![
                BatchItem::lu(Source::Dense(&lu_mats[0])),
                BatchItem::cholesky(Source::Dense(&spd_mats[0])),
                BatchItem::lu(Source::Dense(&lu_mats[1])),
                BatchItem::cholesky(Source::Dense(&spd_mats[1])),
            ];
            let cfg = cfg4().with_batch_small_cutoff(100);
            let out = factor_batch(&items, &cfg).unwrap();
            assert_eq!(out.items.len(), 4);

            let solo_lu0 = calu_factor(&lu_mats[0], &cfg).unwrap();
            let solo_lu1 = calu_factor(&lu_mats[1], &cfg).unwrap();
            let solo_ch0 = crate::threaded::cholesky_factor(&spd_mats[0], &cfg).unwrap();
            let solo_ch1 = crate::threaded::cholesky_factor(&spd_mats[1], &cfg).unwrap();
            for (i, solo) in [solo_lu0, solo_ch0, solo_lu1, solo_ch1].iter().enumerate() {
                assert_eq!(
                    out.items[i].factorization.lu.as_slice(),
                    solo.lu.as_slice(),
                    "item {i}: mixed batch must match solo bitwise"
                );
            }
            // Cholesky items: identity perm, tight reconstruction residual
            for (item, a) in [(&out.items[1], &spd_mats[0]), (&out.items[3], &spd_mats[1])] {
                assert!(item.factorization.perm.pivots().is_empty());
                let r = item.factorization.cholesky_residual(a);
                assert!(r < 1e-13, "cholesky residual {r}");
            }
            assert!(out.items[0].co_scheduled && out.items[1].co_scheduled);
            assert!(!out.items[2].co_scheduled && !out.items[3].co_scheduled);
        }

        #[test]
        fn spd_generator_items_match_dense_sources_bitwise() {
            let dims_seeds = [(64usize, 41u64), (300, 42)];
            let mats: Vec<DenseMatrix> = dims_seeds
                .iter()
                .map(|&(n, seed)| gen::spd_uniform(n, seed))
                .collect();
            let dense: Vec<BatchItem<'_>> = mats
                .iter()
                .map(|a| BatchItem::cholesky(Source::Dense(a)))
                .collect();
            let lazy: Vec<BatchItem<'_>> = dims_seeds
                .iter()
                .map(|&(n, seed)| BatchItem::cholesky(Source::SpdUniform { n, seed }))
                .collect();
            let cfg = cfg4().with_batch_small_cutoff(100);
            let d = factor_batch(&dense, &cfg).unwrap();
            let l = factor_batch(&lazy, &cfg).unwrap();
            for (i, (a, b)) in d.items.iter().zip(&l.items).enumerate() {
                assert_eq!(
                    a.factorization.lu.as_slice(),
                    b.factorization.lu.as_slice(),
                    "item {i}"
                );
            }
        }

        #[test]
        fn cholesky_batch_item_rejects_rectangular_source() {
            let items = [BatchItem::cholesky(Source::Uniform {
                m: 40,
                n: 32,
                seed: 1,
            })];
            match factor_batch(&items, &cfg4()) {
                Err(CaluError::InvalidConfig(msg)) => {
                    assert!(msg.contains("square"), "msg: {msg}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }

        #[test]
        fn single_item_batch_matches_solo() {
            let a = gen::uniform(72, 72, 9);
            let cfg = cfg4();
            let out = factor_batch(&lu_items(&[&a]), &cfg).unwrap();
            let solo = calu_factor(&a, &cfg).unwrap();
            assert_eq!(out.items[0].factorization.lu.as_slice(), solo.lu.as_slice());
            assert_eq!(out.items[0].factorization.perm.pivots(), solo.perm.pivots());
        }

        #[test]
        fn an_injected_panic_in_a_co_scheduled_item_names_its_engine_worker() {
            // worker 0 is lost before its first claim, so worker 1 drives
            // both small items, each on its one run slot 0; the panic its
            // fault plan latches after three tasks names worker 1
            let item = |seed| BatchItem::lu(Source::Uniform { m: 48, n: 48, seed });
            let cfg = CaluConfig::new(16)
                .with_threads(2)
                .with_fault(FaultPlan::off().lose_worker(0, 0).panic_worker(1, 3));
            assert!(cfg.co_schedules((48, 48)));
            match factor_batch(&[item(1), item(2)], &cfg) {
                Err(CaluError::TaskPanic(msg)) => assert!(msg.contains("worker 1"), "{msg}"),
                other => panic!("expected the injected panic, got {other:?}"),
            }
        }
    }
}
