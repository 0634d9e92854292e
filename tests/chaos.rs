//! Chaos end-to-end: the adversity layer through the full facade.
//!
//! The paper's case for hybrid static/dynamic scheduling is that the
//! dynamic section absorbs adversity. These tests inject it on purpose
//! — seeded slowdowns, one-shot stalls, worker loss, kernel panics —
//! and hold the layer to its two promises: every faulted run either
//! completes **bitwise identical** to the clean run (the exclusive-
//! writer DAG makes factors schedule-independent) or fails with a
//! **typed error** while the pool keeps serving; and `drain` strands
//! nothing, faults included.

use std::time::Duration;

use calu::core::CaluError;
use calu::{
    AdaptivePolicy, Algorithm, Error, FaultPlan, JobClass, JobSpec, MatrixSource, QueueDiscipline,
    Report, ServeError, ServiceConfig, ServiceEvent, Solver,
};

/// The shared solo-run knobs of the fault matrix: small tiles so a 96²
/// run still has a real DAG, four workers so every fault targets a
/// distinct one.
fn base(cholesky: bool, queue: QueueDiscipline) -> Solver {
    let src = if cholesky {
        MatrixSource::spd_uniform(96, 77)
    } else {
        MatrixSource::uniform(96, 77)
    };
    let s = Solver::new(src)
        .tile(16)
        .threads(4)
        .dratio(0.5)
        .queue_discipline(queue);
    if cholesky {
        s.algorithm(Algorithm::Cholesky)
    } else {
        s
    }
}

/// Factor bits, pivots and residual bits of `r` must equal `clean`'s.
fn assert_bitwise(r: &Report, clean: &Report, ctx: &str) {
    let (f, fc) = (
        r.factorization.as_ref().unwrap(),
        clean.factorization.as_ref().unwrap(),
    );
    assert_eq!(f.lu.as_slice(), fc.lu.as_slice(), "factor bits, {ctx}");
    assert_eq!(f.perm.pivots(), fc.perm.pivots(), "pivot rows, {ctx}");
    assert_eq!(
        r.residual.unwrap().to_bits(),
        clean.residual.unwrap().to_bits(),
        "residual bits, {ctx}"
    );
}

#[test]
fn every_fault_in_the_matrix_finishes_bitwise_identical_to_the_clean_run() {
    // {slow, stall, lose} × {Global, Sharded, LockFree} × {LU, Cholesky}:
    // same threads, same seed, a different worker misbehaving each time
    // — and the exact same bits out every time
    let queues = [
        QueueDiscipline::Global,
        QueueDiscipline::sharded(),
        QueueDiscipline::lock_free(),
    ];
    let faults = [
        ("slow", FaultPlan::off().with_seed(11).slow_worker(1, 2.5)),
        (
            "stall",
            FaultPlan::off().with_seed(12).stall_worker(2, 2, 15),
        ),
        ("lose", FaultPlan::off().with_seed(13).lose_worker(3, 2)),
    ];
    for cholesky in [false, true] {
        for &queue in &queues {
            let clean = base(cholesky, queue).run().unwrap();
            assert_eq!(clean.schedule.lost_workers(), 0);
            assert_eq!(clean.schedule.total_rescued(), 0);
            for (name, plan) in &faults {
                let ctx = format!("fault={name} cholesky={cholesky} queue={queue:?}");
                let r = base(cholesky, queue)
                    .fault_plan(plan.clone())
                    .run()
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_bitwise(&r, &clean, &ctx);
                let expected_lost = usize::from(*name == "lose");
                assert_eq!(r.schedule.lost_workers(), expected_lost, "{ctx}");
            }
        }
    }
}

#[test]
fn adaptive_runs_under_faults_stay_bitwise_identical_and_move_their_split() {
    // {slow, lose} × {Global, LockFree} with the feedback controller on:
    // every degraded adaptive run must still produce the exact bits of a
    // clean fixed-dratio run at the controller's chosen split (adaptation
    // moves knobs between runs, never the math), and after a few degraded
    // runs the report's chosen split has left the topology seed behind
    let queues = [QueueDiscipline::Global, QueueDiscipline::lock_free()];
    let faults = [
        ("slow", FaultPlan::off().with_seed(41).slow_worker(1, 3.0)),
        ("lose", FaultPlan::off().with_seed(43).lose_worker(3, 2)),
    ];
    for &queue in &queues {
        for (name, plan) in &faults {
            let adaptive = base(false, queue)
                .fault_plan(plan.clone())
                .adaptive(AdaptivePolicy::new(97));
            let mut last = None;
            for run in 0..3 {
                let ctx = format!("fault={name} queue={queue:?} run={run}");
                let r = adaptive.run().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let a = r
                    .adaptation
                    .clone()
                    .unwrap_or_else(|| panic!("{ctx}: adaptive run carried no AdaptationReport"));
                let clean = base(false, queue).dratio(a.chosen.dratio).run().unwrap();
                assert_bitwise(&r, &clean, &ctx);
                // the kill is armed at the victim's 2nd task; once the
                // split adapts the victim may finish earlier, so only the
                // seed run is guaranteed to lose it
                if *name == "lose" && run == 0 {
                    assert_eq!(r.schedule.lost_workers(), 1, "{ctx}");
                }
                last = Some(a);
            }
            let a = last.unwrap();
            assert_eq!(
                a.observations, 2,
                "fault={name} queue={queue:?}: the third plan saw both earlier runs"
            );
            assert!(
                a.adapted(),
                "fault={name} queue={queue:?}: degraded feedback moved the split \
                 (seed {:?}, chosen {:?})",
                a.seed,
                a.chosen
            );
        }
    }
}

#[test]
fn a_lost_workers_static_backlog_is_republished_and_reported() {
    // the rescue counters behind the headline invariant: a mostly-static
    // split piles work into the doomed worker's heap before it dies, so
    // the republish is visible in Report::schedule — and the bits still
    // match the clean run
    let make = || {
        Solver::new(MatrixSource::uniform(96, 31))
            .tile(16)
            .threads(4)
            .dratio(0.3)
    };
    let clean = make().run().unwrap();
    let r = make()
        .fault_plan(FaultPlan::off().with_seed(5).lose_worker(2, 3))
        .run()
        .unwrap();
    assert_bitwise(&r, &clean, "lose(2, 3) at dratio 0.3");
    assert!(r.schedule.threads[2].lost, "worker 2 flagged lost");
    assert_eq!(r.schedule.lost_workers(), 1);
    assert!(
        r.schedule.total_rescued() > 0,
        "the dead worker's static share was republished"
    );
    assert_eq!(
        r.schedule.total_rescued(),
        r.schedule.threads.iter().map(|t| t.rescued).sum::<u64>(),
        "the aggregate is the per-thread sum"
    );
}

#[test]
fn an_injected_panic_surfaces_as_the_facades_typed_factor_error() {
    let err = Solver::new(MatrixSource::uniform(64, 33))
        .tile(16)
        .threads(3)
        .fault_plan(FaultPlan::off().panic_worker(0, 1))
        .run()
        .unwrap_err();
    match err {
        Error::Factor(CaluError::TaskPanic(msg)) => {
            assert!(msg.contains("injected"), "{msg}")
        }
        other => panic!("expected Factor(TaskPanic), got {other:?}"),
    }
}

#[test]
fn faults_around_the_fill_and_densify_phases_never_change_a_tall_run() {
    // a co-operative run's dense↔tile conversions are tasks in its
    // queues: a worker that dies before touching a tile must not strand
    // the FILL tasks queued on its side (the others steal them), and a
    // pre-degraded slow worker must not hold the copy up — on the p×1
    // grid a tall input gets, where every worker owns tiles of every
    // column
    for threads in [2, 4] {
        let tall = || {
            Solver::new(MatrixSource::uniform_rect(768, 48, 91))
                .tile(16)
                .threads(threads)
        };
        assert_eq!(tall().plan().unwrap().grid.pr(), threads);
        let clean = tall().run().unwrap();
        for w in 0..threads {
            let ctx = format!("threads={threads} lose worker {w} at once");
            let r = tall()
                .fault_plan(FaultPlan::off().with_seed(51).lose_worker(w, 0))
                .run()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_bitwise(&r, &clean, &ctx);
            assert_eq!(r.schedule.lost_workers(), 1, "{ctx}");
        }
        let ctx = format!("threads={threads} slow worker 0");
        let r = tall()
            .fault_plan(FaultPlan::off().with_seed(52).slow_worker(0, 2.0))
            .run()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_bitwise(&r, &clean, &ctx);
    }
    // a panic latched before the first piece of work fires in it: on one
    // thread that is always a FILL task, and the job fails typed, like
    // a DAG task panic
    for threads in [1, 2] {
        let err = Solver::new(MatrixSource::uniform_rect(768, 48, 91))
            .tile(16)
            .threads(threads)
            .fault_plan(FaultPlan::off().panic_worker(0, 0))
            .run()
            .unwrap_err();
        match err {
            Error::Factor(CaluError::TaskPanic(msg)) => {
                assert!(msg.contains("injected"), "{msg}")
            }
            other => panic!("threads={threads}: expected Factor(TaskPanic), got {other:?}"),
        }
    }
}

#[test]
fn sequential_reference_drivers_reject_armed_fault_plans() {
    // GEPP and incremental pivoting run on the caller's thread — there
    // are no workers to misbehave, so an armed plan is an honest
    // Unsupported, not a silently-clean "chaos" run
    for alg in [Algorithm::Gepp, Algorithm::IncPiv] {
        let err = Solver::new(MatrixSource::uniform(64, 9))
            .tile(16)
            .threads(2)
            .algorithm(alg)
            .fault_plan(FaultPlan::off().slow_worker(0, 2.0))
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported { .. }), "{alg:?}: {err}");
        // a disarmed plan stays the documented no-op everywhere
        Solver::new(MatrixSource::uniform(64, 9))
            .tile(16)
            .threads(2)
            .algorithm(alg)
            .fault_plan(FaultPlan::off())
            .run()
            .unwrap();
    }
}

#[test]
fn drain_under_worker_loss_strands_nothing_and_reports_degradation() {
    // a service whose pool loses a worker mid-traffic: every job still
    // resolves (bitwise-equal to a clean solo run), drain leaves nothing
    // behind, and the event stream carries the Degraded notice
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(3)
        .dratio(0.5)
        .batch_small_cutoff(0)
        .fault_plan(FaultPlan::off().with_seed(21).lose_worker(1, 3))
        .serve()
        .unwrap();
    let events = service.events();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            service
                .submit(JobSpec::uniform(128, 128, 400 + i), JobClass::Batch)
                .unwrap()
        })
        .collect();
    let reports: Vec<Report> = handles
        .into_iter()
        .enumerate()
        .map(|(i, h)| {
            h.wait()
                .unwrap_or_else(|e| panic!("job {i} stranded by the worker loss: {e}"))
        })
        .collect();
    service.drain();
    assert_eq!(service.pending(), 0, "drain left jobs pending");
    assert_eq!(service.queued(), 0, "drain left jobs queued");
    assert_eq!(service.lost_workers(), 1, "worker 1 died exactly once");
    assert_eq!(
        service.rescued_tasks(),
        reports
            .iter()
            .map(|r| r.schedule.total_rescued())
            .sum::<u64>(),
        "the pool's rescue counter mirrors the per-job reports"
    );
    for (i, r) in reports.iter().enumerate() {
        let solo = Solver::new(MatrixSource::uniform(128, 400 + i as u64))
            .tile(16)
            .threads(3)
            .dratio(0.5)
            .run()
            .unwrap();
        assert_bitwise(r, &solo, &format!("served job {i} vs clean solo run"));
    }
    let (mut jobs, mut degraded) = (0usize, 0usize);
    for e in events {
        match e {
            ServiceEvent::Job(j) => {
                assert_eq!(j.status, calu::JobStatus::Done, "job {:?}", j.id);
                jobs += 1;
            }
            ServiceEvent::Degraded { lost_workers } => {
                assert_eq!(lost_workers, 1);
                degraded += 1;
            }
            other => panic!("no reconfigure or journal in play, got {other:?}"),
        }
    }
    assert_eq!(jobs, 6, "one terminal event per job");
    assert_eq!(degraded, 1, "one Degraded notice per worker loss");
}

#[test]
fn deadlines_and_wait_timeout_fail_late_jobs_typed_without_poisoning_the_pool() {
    // one worker and a big blocker in front: the victim sits queued past
    // its deadline and the watchdog condemns it with the typed error;
    // wait_timeout hands the handle back on expiry and resolves later
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(1)
        .verify(false)
        .serve()
        .unwrap();
    let blocker = service
        .submit(JobSpec::uniform(512, 512, 1), JobClass::Batch)
        .unwrap();
    let victim = service
        .submit(
            JobSpec::uniform(128, 128, 2).with_deadline(Duration::from_millis(2)),
            JobClass::Batch,
        )
        .unwrap();
    match victim.wait() {
        Err(ServeError::DeadlineExceeded { deadline }) => {
            assert_eq!(deadline, Duration::from_millis(2));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // the blocker is still grinding: the expired wait returns the handle
    let blocker = match blocker.wait_timeout(Duration::from_millis(1)) {
        Err(h) => h,
        Ok(r) => panic!("a 512² single-thread job finished within 1 ms? {r:?}"),
    };
    match blocker.wait_timeout(Duration::from_secs(120)) {
        Ok(Ok(r)) => assert_eq!(r.dims, (512, 512)),
        other => panic!("expected the blocker's report, got {other:?}"),
    }
    // the condemnation poisoned nothing: the pool serves on
    service
        .submit(JobSpec::uniform(48, 48, 3), JobClass::Interactive)
        .unwrap()
        .wait()
        .unwrap();
    service.drain();
    assert_eq!(service.pending(), 0);
}

#[test]
fn the_watchdog_condemns_a_stalled_run_as_worker_loss_and_the_pool_recovers() {
    // freeze both workers mid-run far past the stall timeout: the
    // heartbeat stops, the watchdog fails the job with the typed
    // WorkerLost, and once the stalls pass the same pool serves again
    let plan = FaultPlan::off()
        .with_seed(31)
        .stall_worker(0, 2, 800)
        .stall_worker(1, 2, 800);
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(2)
        .dratio(0.5)
        .batch_small_cutoff(0)
        .verify(false)
        .fault_plan(plan)
        .serve_with(ServiceConfig {
            stall_timeout: Some(Duration::from_millis(100)),
            ..ServiceConfig::default()
        })
        .unwrap();
    let doomed = service
        .submit(JobSpec::uniform(128, 128, 5), JobClass::Batch)
        .unwrap();
    match doomed.wait() {
        Err(ServeError::Failed(CaluError::WorkerLost(msg))) => {
            assert!(msg.contains("progress"), "{msg}")
        }
        other => panic!("expected the watchdog's WorkerLost, got {other:?}"),
    }
    // stalls are one-shot: the woken pool still serves, and no worker
    // was actually lost
    service
        .submit(JobSpec::uniform(64, 64, 6), JobClass::Batch)
        .unwrap()
        .wait()
        .unwrap();
    service.drain();
    assert_eq!(service.lost_workers(), 0, "a stall is not a loss");
    assert_eq!(service.pending(), 0);
}
