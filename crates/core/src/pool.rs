//! The request-persistent worker pool behind the factorization service.
//!
//! `factor_batch` lends the engine scoped threads for one sweep; a
//! [`ServicePool`] lends it `'static` threads, spawned **once**, that
//! run the same worker loop (the crate-private `engine` module) until
//! [`ServicePool::drain`] — the substrate `calu-serve`'s
//! `FactorService` builds its admission, lifecycle and streaming layers
//! on. Everything about *execution* is the engine's: small jobs
//! ([`CaluConfig::co_schedules`]) are claimed whole by one worker,
//! large ones run the hybrid static/dynamic schedule co-operatively on
//! the dynamic-section [`QueueDiscipline`](calu_sched::QueueDiscipline)
//! the config names, and every job's factors are bitwise-identical to
//! the matching solo call. Jobs go in as `BatchItem<'static>` and come
//! out as [`Outcome`], the same types a scoped sweep uses; this module
//! adds the sink trait and the handle.
//!
//! Job ordering is delegated to [`ClassLanes`](calu_sched::ClassLanes):
//! workers prefer higher-priority classes with bounded starvation of
//! lower ones. Results leave through a caller-supplied [`JobSink`] —
//! the pool knows nothing about handles, events or admission; that is
//! the service crate's business.

use std::sync::Arc;
use std::thread::JoinHandle;

use calu_sched::{JobClass, SplitChoice};

use crate::config::CaluConfig;
use crate::engine::{BatchItem, Engine, Outcome};
use crate::error::CaluError;
use crate::sync::Mutex;

/// Where a job's result goes. The service layer implements this to
/// move the job's record through its lifecycle; tests implement it
/// with a channel. The pool never calls a sink from
/// [`submit`](ServicePool::submit) or [`cancel`](ServicePool::cancel),
/// nor with an engine lock held, so callers may hold their own locks
/// across those calls and sinks may take them.
pub trait JobSink: Send + 'static {
    /// A worker claimed the job (`Queued → Running`); again when a
    /// co-scheduled item requeued after a worker loss is reclaimed.
    fn started(&self) {}
    /// The job reached a terminal state: exactly once for every job the
    /// pool keeps, never for a sink it hands back uncalled.
    fn finished(self: Box<Self>, res: Result<Outcome, CaluError>);
}

/// One queued-but-unclaimed job handed back by
/// [`ServicePool::extract_queued`] — everything the submitter gave the
/// pool, sink included (uncalled), so a successor pool can re-admit the
/// job under the same identity during a live-reconfigure handover.
pub struct ExtractedJob {
    /// The caller's correlation key, unchanged.
    pub id: u64,
    /// The class the job was queued under.
    pub class: JobClass,
    /// The job itself, its source unmaterialized.
    pub job: BatchItem<'static>,
    /// The job's sink, never invoked by the extracting pool.
    pub sink: Box<dyn JobSink>,
}

/// A spawn-once worker pool serving factorization jobs until drained.
///
/// All jobs share one [`CaluConfig`] (the per-job knobs are the
/// service's `JobSpec` dims and seed). Dropping the pool drains it.
pub struct ServicePool {
    engine: Arc<Engine<'static>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    spawn_secs: f64,
}

impl ServicePool {
    /// Validate `cfg` and spawn its worker pool. `starvation_limit`
    /// bounds how many higher-class pops may pass over a waiting
    /// lower-class job (see [`ClassLanes`](calu_sched::ClassLanes)).
    pub fn spawn(cfg: &CaluConfig, starvation_limit: usize) -> Result<ServicePool, CaluError> {
        let engine = Arc::new(Engine::new(cfg.clone(), starvation_limit)?);
        let handles = (0..engine.threads())
            .map(|me| {
                let eng = Arc::clone(&engine);
                std::thread::spawn(move || eng.worker_loop(me))
            })
            .collect();
        Ok(ServicePool {
            spawn_secs: engine.wait_started(),
            engine,
            handles: Mutex::new(handles),
        })
    }

    /// The scheduling split this pool generation runs under, frozen at
    /// spawn — the knobs an adaptive controller moves between
    /// generations. A live reconfigure swaps the whole pool, so no
    /// generation ever changes its split mid-life.
    pub fn split(&self) -> SplitChoice {
        let cfg = self.engine.config();
        SplitChoice {
            dratio: cfg.dratio,
            batch_small_cutoff: cfg.batch_small_cutoff,
            steal_order: cfg.steal_order,
        }
    }

    /// Enqueue a job. `id` is the caller's correlation key (used by
    /// [`cancel`](Self::cancel)); the job names its own kernel set — one
    /// pool freely interleaves CALU and Cholesky jobs — and whether to
    /// verify its result; results leave through `sink`.
    /// After [`drain`](Self::drain) began the job is refused and the
    /// sink is handed back **uncalled** — never invoked synchronously,
    /// so callers may hold their own locks across `submit` without
    /// risking re-entrancy. The caller fails the returned sink however
    /// it sees fit.
    pub fn submit(
        &self,
        id: u64,
        class: JobClass,
        job: BatchItem<'static>,
        sink: Box<dyn JobSink>,
    ) -> Result<(), Box<dyn JobSink>> {
        self.engine.submit(id, class, job, sink)
    }

    /// Remove a still-queued job. Returns its sink (uncalled) when the
    /// job was found; `None` means the job already started or finished
    /// — the race resolves to normal completion.
    pub fn cancel(&self, id: u64) -> Option<Box<dyn JobSink>> {
        self.engine.cancel(id)
    }

    /// Stop admission and hand back every queued-but-unclaimed job with
    /// its identity and sink intact — the live-reconfigure handover
    /// primitive. After this returns the pool refuses new submits (like
    /// [`drain`](Self::drain) began), jobs already claimed keep running
    /// to completion on this pool's workers, and the extracted jobs'
    /// sinks have not been invoked, so the caller can re-admit them into
    /// a successor pool under the same ids with zero loss. Follow with
    /// [`drain`](Self::drain) to finish the in-flight tail and join the
    /// workers.
    pub fn extract_queued(&self) -> Vec<ExtractedJob> {
        self.engine.extract_queued()
    }

    /// Stop admitting, finish everything queued and in flight, join the
    /// workers. Idempotent; also runs on drop.
    pub fn drain(&self) {
        self.engine.close();
        // a poisoned engine never makes progress again: wait_idle stops
        // waiting and the join below propagates the worker's panic
        self.engine.wait_idle();
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            h.join().expect("pool worker panicked");
        }
    }

    /// Jobs waiting in the lanes.
    pub fn queued(&self) -> usize {
        self.engine.queued()
    }

    /// Jobs waiting in `class`'s lane.
    pub fn queued_in(&self, class: JobClass) -> usize {
        self.engine.queued_in(class)
    }

    /// Whether a job of `dims` would take the co-scheduled (small)
    /// route: claimed whole by one worker instead of running the
    /// co-operative hybrid schedule. The exact predicate the workers
    /// apply — callers can pre-classify a sweep without running it.
    pub fn co_schedules(&self, dims: (usize, usize)) -> bool {
        self.engine.config().co_schedules(dims)
    }

    /// Fail an *active co-operative run* by job id, delivering `err` to
    /// its sink — the service watchdog's lever for deadline and stall
    /// enforcement. Workers mid-task on the run finish or abandon their
    /// task harmlessly; the pool keeps serving. Returns `false` when no
    /// active run carries `id` (the job is still queued, co-scheduled,
    /// or already terminal) or a concurrent normal finish won the race
    /// — either way, nothing was failed.
    pub fn fail_active(&self, id: u64, err: CaluError) -> bool {
        self.engine.fail_active(id, err)
    }

    /// Tasks retired so far by the active co-operative run with job id
    /// `id` — a monotone heartbeat the service watchdog compares across
    /// ticks to tell a slow job from a stalled one. `None` when no
    /// active run carries `id` (queued, co-scheduled, or terminal).
    pub fn progress_of(&self, id: u64) -> Option<u64> {
        self.engine.progress_of(id)
    }

    /// Workers lost to an injected fault since spawn (0 on an unfaulted
    /// pool). The service layer surfaces increases as degradation
    /// events.
    pub fn lost_workers(&self) -> usize {
        self.engine.lost_workers()
    }

    /// Static tasks republished into dynamic sections because their
    /// owner was lost or persistently slow — the rescue counter backing
    /// `ThreadStats::rescued`, summed over every finished job.
    pub fn rescued_tasks(&self) -> u64 {
        self.engine.rescued_tasks()
    }

    /// Pool width.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Seconds until the last worker entered its loop — paid once at
    /// spawn, amortized over every job the pool ever serves.
    pub fn spawn_secs(&self) -> f64 {
        self.spawn_secs
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Source;
    use crate::threaded::{calu_factor, KernelSet};
    use calu_matrix::gen;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    struct ChanSink(mpsc::Sender<Result<Outcome, CaluError>>);

    impl JobSink for ChanSink {
        fn finished(self: Box<Self>, res: Result<Outcome, CaluError>) {
            let _ = self.0.send(res);
        }
    }

    fn cfg4() -> CaluConfig {
        CaluConfig::new(16).with_threads(4).with_dratio(0.5)
    }

    /// Assert a submit was admitted (the rejection arm returns the sink,
    /// which has no `Debug` for a plain `unwrap`).
    fn accept(r: Result<(), Box<dyn JobSink>>) {
        assert!(r.is_ok(), "pool rejected a submit while not draining");
    }

    #[test]
    fn small_jobs_match_solo_runs_bitwise() {
        let cfg = cfg4().with_batch_small_cutoff(100);
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        for seed in 0..4u64 {
            accept(pool.submit(
                seed,
                JobClass::Batch,
                BatchItem::lu(Source::Uniform { m: 64, n: 64, seed }),
                Box::new(ChanSink(tx.clone())),
            ));
        }
        let mut outcomes: Vec<Outcome> = (0..4).map(|_| rx.recv().unwrap().unwrap()).collect();
        pool.drain();
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
                "seed {seed} missing from pool outcomes"
            );
        }
    }

    #[test]
    fn large_jobs_match_solo_runs_bitwise() {
        // cutoff 0 forces the co-operative route
        let cfg = cfg4().with_batch_small_cutoff(0);
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let a = gen::uniform(192, 192, 7);
        accept(
            pool.submit(
                1,
                JobClass::Interactive,
                BatchItem::lu(Source::Owned(a.clone()))
                    .verified(true)
                    .traced(true),
                Box::new(ChanSink(tx)),
            ),
        );
        let out = rx.recv().unwrap().unwrap();
        pool.drain();
        assert!(!out.co_scheduled);
        let solo = calu_factor(&a, &cfg).unwrap();
        assert_eq!(out.factorization.lu.as_slice(), solo.lu.as_slice());
        assert_eq!(out.factorization.perm.pivots(), solo.perm.pivots());
        assert!(out.residual.unwrap() < 1e-12);
        let tasks: u64 = out.stats.iter().map(|s| s.local_pops + s.global_pops).sum();
        assert_eq!(tasks as usize, out.timeline.unwrap().spans().len());
    }

    #[test]
    fn mixed_lu_and_cholesky_jobs_share_one_pool() {
        // one pool, both kernel sets, both routes (small + large)
        let cfg = cfg4().with_batch_small_cutoff(100);
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
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
            accept(pool.submit(
                id,
                JobClass::Batch,
                job.verified(true),
                Box::new(ChanSink(tx.clone())),
            ));
        }
        let outcomes: Vec<Outcome> = (0..4).map(|_| rx.recv().unwrap().unwrap()).collect();
        pool.drain();
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
            let pool = ServicePool::spawn(&cfg4().with_batch_small_cutoff(cutoff), 4).unwrap();
            let (tx, rx) = mpsc::channel();
            accept(pool.submit(
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
            pool.drain();
        }
    }

    #[test]
    fn drain_finishes_jobs_queued_in_every_class() {
        let cfg = cfg4().with_batch_small_cutoff(100).with_threads(2);
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let n_jobs = 9;
        for i in 0..n_jobs {
            let class = JobClass::ALL[i % 3];
            accept(pool.submit(
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
        pool.drain();
        // every job completed before drain returned
        let done: Vec<_> = rx.try_iter().collect();
        assert_eq!(done.len(), n_jobs);
        assert!(done.iter().all(|r| r.is_ok()));
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.engine.in_flight(), 0);
    }

    #[test]
    fn cancel_removes_a_queued_job() {
        // single worker + a job in front keeps the victim queued long
        // enough to cancel deterministically… unless the first job wins
        // the race, which the assertion tolerates by checking either
        // outcome is consistent
        let cfg = cfg4().with_threads(1).with_batch_small_cutoff(0);
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        accept(pool.submit(
            1,
            JobClass::Batch,
            BatchItem::lu(Source::Uniform {
                m: 256,
                n: 256,
                seed: 1,
            }),
            Box::new(ChanSink(tx.clone())),
        ));
        accept(pool.submit(
            2,
            JobClass::Batch,
            BatchItem::lu(Source::Uniform {
                m: 64,
                n: 64,
                seed: 2,
            }),
            Box::new(ChanSink(tx.clone())),
        ));
        let cancelled = pool.cancel(2).is_some();
        pool.drain();
        let done = rx.try_iter().count();
        assert_eq!(done, if cancelled { 1 } else { 2 });
    }

    #[test]
    fn submit_after_drain_returns_the_sink_uncalled() {
        let pool = ServicePool::spawn(&cfg4(), 4).unwrap();
        pool.drain();
        let (tx, rx) = mpsc::channel();
        let rejected = pool.submit(
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
            Ok(()) => panic!("a draining pool must refuse submits"),
            Err(sink) => sink,
        };
        // the pool never invoked the sink — re-entrancy-safe for
        // callers submitting under their own locks
        assert!(rx.try_recv().is_err());
        sink.finished(Err(CaluError::InvalidConfig(
            "pool is shutting down".into(),
        )));
        assert!(matches!(
            rx.recv().unwrap(),
            Err(CaluError::InvalidConfig(_))
        ));
        pool.drain(); // idempotent
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
            let pool = ServicePool::spawn(&cfg, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            accept(pool.submit(
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
            pool.drain();
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
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let n_jobs = 6u64;
        for seed in 0..n_jobs {
            accept(pool.submit(
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
        pool.drain();
        assert_eq!(pool.lost_workers(), 1, "worker 0 must have died");
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
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let a = gen::uniform(192, 192, 11);
        accept(pool.submit(
            1,
            JobClass::Batch,
            BatchItem::lu(Source::Owned(a.clone())),
            Box::new(ChanSink(tx)),
        ));
        let out = rx.recv().unwrap().unwrap();
        pool.drain();
        assert_eq!(pool.lost_workers(), 1);
        assert!(out.stats[1].lost, "the dead worker is flagged in stats");
        let rescued: u64 = out.stats.iter().map(|s| s.rescued).sum();
        assert!(rescued > 0, "the dead worker's static share was rescued");
        assert_eq!(rescued, pool.rescued_tasks());
        let solo = calu_factor(&a, &cfg4()).unwrap();
        assert_eq!(out.factorization.lu.as_slice(), solo.lu.as_slice());
        assert_eq!(out.factorization.perm.pivots(), solo.perm.pivots());
    }

    #[test]
    fn panicking_job_fails_its_sink_and_the_pool_survives() {
        // a 0×0 source trips `TaskGraph::build_calu`'s non-empty assert
        // on the claiming worker; the panic must be contained to the
        // job (sink failed with TaskPanic), not kill the worker
        let cfg = cfg4().with_batch_small_cutoff(100);
        let pool = ServicePool::spawn(&cfg, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        accept(pool.submit(
            1,
            JobClass::Batch,
            BatchItem::lu(Source::Uniform {
                m: 0,
                n: 0,
                seed: 0,
            }),
            Box::new(ChanSink(tx.clone())),
        ));
        assert!(matches!(rx.recv().unwrap(), Err(CaluError::TaskPanic(_))));
        // same through the co-operative route: cutoff 0 with one
        // non-zero dimension routes large, and the build still asserts
        let large = ServicePool::spawn(&cfg4().with_batch_small_cutoff(0), 4).unwrap();
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
        assert!(matches!(lrx.recv().unwrap(), Err(CaluError::TaskPanic(_))));
        // both pools keep serving after the panic
        accept(pool.submit(
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
        pool.drain();
        large.drain();
    }
}
