//! End-to-end tests of the service layer: `Solver::serve` and the
//! `FactorService` lifecycle — concurrent mixed-class submission,
//! bitwise parity with solo runs, class ordering under backlog,
//! cancellation races, graceful drain, and sweeps streamed through
//! `submit` on a warm pool.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use calu::{
    Algorithm, JobClass, JobHandle, JobSpec, JobStatus, MatrixSource, Report, ServeError,
    ServiceConfig, Solver,
};

/// The shared knobs every test's solver uses (small tiles so even tiny
/// jobs produce a few tasks).
fn solver(src: MatrixSource) -> Solver {
    Solver::new(src).tile(16).threads(3).dratio(0.5)
}

#[test]
fn concurrent_mixed_class_jobs_factor_bitwise_identically_to_solo_runs() {
    // the acceptance run: 3 submitter threads × mixed classes on one
    // service, every job's factors bitwise-equal to a solo Solver::run
    // of the same source
    let service = solver(MatrixSource::shape(8, 8)).serve().unwrap();
    let classes = [JobClass::Interactive, JobClass::Batch, JobClass::Background];
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let service = &service;
            let done = &done;
            s.spawn(move || {
                for j in 0..4u64 {
                    let n = [48usize, 64, 96][((t + j) % 3) as usize];
                    let seed = 1000 + t * 10 + j;
                    let class = classes[((t + j) % 3) as usize];
                    let handle = service
                        .submit(JobSpec::uniform(n, n, seed), class)
                        .expect("quota is far above 12 jobs");
                    let report = handle.wait().unwrap();
                    assert_eq!(report.backend, "serve");
                    assert_eq!(report.dims, (n, n));

                    let solo = solver(MatrixSource::uniform(n, seed)).run().unwrap();
                    let (fj, fs) = (
                        report.factorization.as_ref().unwrap(),
                        solo.factorization.as_ref().unwrap(),
                    );
                    let ctx = format!("n={n} seed={seed} class={class}");
                    assert_eq!(fj.lu.as_slice(), fs.lu.as_slice(), "packed LU bits, {ctx}");
                    assert_eq!(fj.perm.pivots(), fs.perm.pivots(), "pivot rows, {ctx}");
                    assert_eq!(
                        report.residual.unwrap().to_bits(),
                        solo.residual.unwrap().to_bits(),
                        "residual bits, {ctx}"
                    );
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), 12);
    service.drain();
    assert_eq!(service.pending(), 0);
    assert_eq!(service.queued(), 0);
}

#[test]
fn interactive_jobs_jump_a_full_background_backlog() {
    // class ordering: with the lanes stuffed with Background work, an
    // Interactive job is served as soon as a worker frees up — it must
    // complete while Background jobs are still waiting in the queue
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(32)
        .threads(2)
        .verify(false)
        .serve()
        .unwrap();
    let backlog: Vec<_> = (0..24)
        .map(|i| {
            service
                .submit(JobSpec::uniform(256, 256, 7000 + i), JobClass::Background)
                .unwrap()
        })
        .collect();
    let interactive = service
        .submit(JobSpec::uniform(48, 48, 9999), JobClass::Interactive)
        .unwrap();
    let report = interactive.wait().unwrap();
    assert!(report.factorization.is_some());
    assert!(
        service.queued_in(JobClass::Background) > 0,
        "the interactive job completed only after the whole background \
         backlog — class priority was not honored"
    );
    for h in backlog {
        h.wait().unwrap();
    }
    service.drain();
}

#[test]
fn drain_finishes_jobs_queued_in_every_class_with_none_stranded() {
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(2)
        .verify(false)
        .serve()
        .unwrap();
    let classes = [JobClass::Interactive, JobClass::Batch, JobClass::Background];
    let handles: Vec<_> = (0..9)
        .map(|i| {
            service
                .submit(
                    JobSpec::uniform(64, 64, 300 + i as u64),
                    classes[i % classes.len()],
                )
                .unwrap()
        })
        .collect();
    service.drain();
    assert!(service.is_draining());
    assert_eq!(service.pending(), 0, "drain left jobs pending");
    assert_eq!(service.queued(), 0, "drain left jobs queued");
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait();
        assert!(r.is_ok(), "job {i} was stranded by drain: {:?}", r.err());
    }
    // drain is idempotent
    service.drain();
}

#[test]
fn cancel_wins_on_queued_jobs_and_loses_races_to_completion() {
    // one worker: the first (large) job occupies it, so the second is
    // deterministically still queued when we cancel it
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(1)
        .verify(false)
        .serve()
        .unwrap();
    let blocker = service
        .submit(JobSpec::uniform(256, 256, 1), JobClass::Batch)
        .unwrap();
    let victim = service
        .submit(JobSpec::uniform(64, 64, 2), JobClass::Batch)
        .unwrap();
    assert!(service.cancel(&victim), "queued job must be cancellable");
    assert_eq!(victim.try_status(), JobStatus::Cancelled);
    assert!(matches!(victim.wait(), Err(ServeError::Cancelled)));
    // double-cancel (already removed) reports false
    blocker.wait().unwrap();

    // racing completion: a job that already finished cannot be cancelled
    let finished = service
        .submit(JobSpec::uniform(48, 48, 3), JobClass::Interactive)
        .unwrap();
    while finished.try_status() == JobStatus::Queued || finished.try_status() == JobStatus::Running
    {
        std::thread::yield_now();
    }
    assert!(
        !service.cancel(&finished),
        "a completed job must not report a successful cancel"
    );
    assert!(finished.wait().is_ok(), "the race resolves to completion");
    service.drain();
}

#[test]
fn submit_after_drain_is_rejected() {
    let service = solver(MatrixSource::shape(8, 8)).serve().unwrap();
    service.drain();
    let err = service
        .submit(JobSpec::uniform(32, 32, 1), JobClass::Interactive)
        .unwrap_err();
    assert!(matches!(err, ServeError::ShuttingDown), "{err}");
}

#[test]
fn invalid_specs_never_reach_the_pool() {
    let service = solver(MatrixSource::shape(8, 8)).serve().unwrap();
    let err = service
        .submit(JobSpec::uniform(0, 64, 1), JobClass::Batch)
        .unwrap_err();
    assert!(matches!(err, ServeError::Invalid(_)), "{err}");
    assert_eq!(service.pending(), 0, "rejected job counted as pending");
    assert_eq!(service.queued(), 0, "rejected job reached the pool queue");
    service.drain();
}

#[test]
fn admission_control_rejects_over_quota_submissions_with_busy() {
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(1)
        .verify(false)
        .serve_with(ServiceConfig {
            max_pending: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
    // 1 worker: a large blocker plus one queued job fill the quota
    let h1 = service
        .submit(JobSpec::uniform(256, 256, 1), JobClass::Batch)
        .unwrap();
    let h2 = service
        .submit(JobSpec::uniform(64, 64, 2), JobClass::Batch)
        .unwrap();
    let err = service
        .submit(JobSpec::uniform(64, 64, 3), JobClass::Batch)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Busy { quota: 2, .. }),
        "third job over max_pending=2 must be refused: {err}"
    );
    h1.wait().unwrap();
    h2.wait().unwrap();
    // quota freed: admission works again
    service
        .submit(JobSpec::uniform(64, 64, 4), JobClass::Batch)
        .unwrap()
        .wait()
        .unwrap();
    service.drain();
}

#[test]
fn events_stream_reports_each_terminal_state_once_and_ends_on_drain() {
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(1)
        .verify(false)
        .serve()
        .unwrap();
    let events = service.events();
    let blocker = service
        .submit(JobSpec::uniform(256, 256, 1), JobClass::Batch)
        .unwrap();
    let doomed = service
        .submit(JobSpec::uniform(64, 64, 2), JobClass::Background)
        .unwrap();
    let ok = service
        .submit(JobSpec::uniform(64, 64, 3), JobClass::Interactive)
        .unwrap();
    assert!(service.cancel(&doomed));
    service.drain();
    // ends: the drain closed the stream; no Degraded events without faults
    let seen: Vec<_> = events
        .map(|e| match e {
            calu::ServiceEvent::Job(j) => j,
            other => panic!("unexpected non-job event on a healthy service: {other:?}"),
        })
        .collect();
    assert_eq!(seen.len(), 3, "one terminal event per job");
    let status_of = |id| seen.iter().find(|e| e.id == id).unwrap().status;
    assert_eq!(status_of(blocker.id()), JobStatus::Done);
    assert_eq!(status_of(doomed.id()), JobStatus::Cancelled);
    assert_eq!(status_of(ok.id()), JobStatus::Done);
    let mut ids: Vec<_> = seen.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "no id reported twice");
}

#[test]
fn one_service_serves_lu_and_cholesky_jobs_side_by_side() {
    // the kernel-set e2e: concurrent submitters push LU and Cholesky
    // jobs into one warm pool; every result must carry its own
    // algorithm's report shape and match the solo run of the same
    // source bitwise
    let service = solver(MatrixSource::shape(8, 8)).serve().unwrap();
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let service = &service;
            let done = &done;
            s.spawn(move || {
                for j in 0..4u64 {
                    let n = [48usize, 64, 96][((t + j) % 3) as usize];
                    let seed = 2000 + t * 10 + j;
                    let cholesky = (t + j) % 2 == 0;
                    let spec = if cholesky {
                        JobSpec::spd_uniform(n, seed)
                    } else {
                        JobSpec::uniform(n, n, seed)
                    };
                    let handle = service.submit(spec, JobClass::Batch).unwrap();
                    let report = handle.wait().unwrap();
                    let ctx = format!("n={n} seed={seed} cholesky={cholesky}");
                    let solo_src = if cholesky {
                        MatrixSource::spd_uniform(n, seed)
                    } else {
                        MatrixSource::uniform(n, seed)
                    };
                    let solo = if cholesky {
                        solver(solo_src).algorithm(Algorithm::Cholesky).run()
                    } else {
                        solver(solo_src).run()
                    }
                    .unwrap();
                    assert_eq!(report.algorithm, solo.algorithm, "{ctx}");
                    assert_eq!(
                        report.factorization.as_ref().unwrap().lu.as_slice(),
                        solo.factorization.as_ref().unwrap().lu.as_slice(),
                        "packed factor bits, {ctx}"
                    );
                    assert_eq!(
                        report.residual.unwrap().to_bits(),
                        solo.residual.unwrap().to_bits(),
                        "residual bits, {ctx}"
                    );
                    if cholesky {
                        assert!(report.residual.unwrap() < 1e-13, "{ctx}");
                        assert!(report.growth_factor.is_none(), "{ctx}");
                        assert!(
                            report.nominal_flops < solo_lu_flops(n),
                            "Cholesky bills n³/3, not LU's 2n³/3, {ctx}"
                        );
                    } else {
                        assert!(report.residual.unwrap() < 1e-12, "{ctx}");
                        assert!(report.growth_factor.is_some(), "{ctx}");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), 12);
    service.drain();
}

/// LU's nominal flop bill for an `n × n` matrix (the mixed-service test
/// checks Cholesky jobs are billed less than this).
fn solo_lu_flops(n: usize) -> f64 {
    let nf = n as f64;
    2.0 * nf * nf * nf / 3.0
}

#[test]
fn a_served_sweep_streams_through_submit_and_matches_solo_runs_bitwise() {
    // a mixed sweep (co-scheduled small jobs and a co-operative large
    // one) streamed through `submit` with a bounded in-flight window,
    // sources consumed lazily; results come back in input order, each
    // bitwise-equal to its solo run, and a co-scheduled job reports the
    // one worker that ran it
    let dims_seeds = [
        (48usize, 501u64),
        (450, 502),
        (64, 503),
        (96, 504),
        (72, 505),
    ];
    let service = solver(MatrixSource::shape(8, 8))
        .batch_small_cutoff(100)
        .serve()
        .unwrap();
    let window = 2 * service.threads();
    let mut pending: VecDeque<JobHandle<Report>> = VecDeque::new();
    let mut reports = Vec::new();
    for &(n, seed) in &dims_seeds {
        if pending.len() >= window {
            reports.push(pending.pop_front().unwrap().wait().unwrap());
        }
        let spec = JobSpec::uniform(n, n, seed);
        pending.push_back(service.submit(spec, JobClass::Batch).unwrap());
    }
    reports.extend(pending.into_iter().map(|h| h.wait().unwrap()));
    service.drain();
    assert_eq!(reports.len(), dims_seeds.len());
    for (&(n, seed), report) in dims_seeds.iter().zip(&reports) {
        let ctx = format!("n={n} seed={seed}");
        assert_eq!(report.dims, (n, n), "results come back in input order");
        assert_eq!(report.threads, if n <= 100 { 1 } else { 3 }, "{ctx}");
        let solo = solver(MatrixSource::uniform(n, seed)).run().unwrap();
        let (fj, fs) = (
            report.factorization.as_ref().unwrap(),
            solo.factorization.as_ref().unwrap(),
        );
        assert_eq!(fj.lu.as_slice(), fs.lu.as_slice(), "packed LU bits, {ctx}");
        assert_eq!(fj.perm.pivots(), fs.perm.pivots(), "pivot rows, {ctx}");
        assert_eq!(
            report.residual.unwrap().to_bits(),
            solo.residual.unwrap().to_bits(),
            "residual bits, {ctx}"
        );
    }
}

#[test]
fn cholesky_sweeps_flow_through_batch_and_a_warm_service() {
    // a Cholesky solver's one sweep (`Solver::batch`) and the same SPD
    // jobs served by a warm pool take the same one-worker route: each
    // item reports one thread, a Cholesky report shape, and the served
    // factors equal the batch's bitwise
    let seeds = [801u64, 802, 803];
    let make = || {
        Solver::new(MatrixSource::shape(8, 8))
            .algorithm(Algorithm::Cholesky)
            .tile(16)
            .threads(2)
            .dratio(0.5)
    };
    let sources: Vec<MatrixSource> = seeds
        .iter()
        .map(|&s| MatrixSource::spd_uniform(64, s))
        .collect();
    let batch = make().batch(&sources).unwrap();
    assert_eq!(batch.len(), 3);
    assert_eq!(batch.co_scheduled, 3, "64² is under the default cutoff");
    let service = make().serve().unwrap();
    for (item, &seed) in batch.items.iter().zip(&seeds) {
        let ctx = format!("seed={seed}");
        assert_eq!(item.algorithm, Algorithm::Cholesky, "{ctx}");
        assert_eq!(item.threads, 1, "{ctx}");
        assert!(item.residual.unwrap() < 1e-13, "{ctx}");
        assert!(item.growth_factor.is_none(), "{ctx}");
        let served = service
            .submit(JobSpec::spd_uniform(64, seed), JobClass::Batch)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(served.algorithm, Algorithm::Cholesky, "{ctx}");
        assert_eq!(served.threads, 1, "{ctx}");
        assert_eq!(
            served.factorization.as_ref().unwrap().lu.as_slice(),
            item.factorization.as_ref().unwrap().lu.as_slice(),
            "packed factor bits, {ctx}"
        );
        assert_eq!(
            served.residual.unwrap().to_bits(),
            item.residual.unwrap().to_bits(),
            "residual bits, {ctx}"
        );
    }
    service.drain();
}

#[test]
fn a_warm_service_reuses_its_pool_and_matches_the_one_shot_batch_bitwise() {
    // two sweeps through one warm service: the second spawns no pool
    // (the service's spawn cost is the one paid at construction), and
    // both sweeps' factors equal the one-shot `Solver::batch` bitwise
    let sources: Vec<MatrixSource> = (0..6).map(|i| MatrixSource::uniform(64, 600 + i)).collect();
    let s = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(2)
        .dratio(0.5);
    let service = s.serve().unwrap();
    let spawn = service.spawn_secs();
    let sweep = || -> Vec<Report> {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                service
                    .submit(JobSpec::uniform(64, 64, 600 + i), JobClass::Batch)
                    .unwrap()
            })
            .collect();
        handles.into_iter().map(|h| h.wait().unwrap()).collect()
    };
    let first = sweep();
    let warm = sweep();
    assert_eq!(
        service.spawn_secs().to_bits(),
        spawn.to_bits(),
        "a warm sweep reuses the pool it was spawned with"
    );
    let batch = s.batch(&sources).unwrap();
    for served in [&first, &warm] {
        assert_eq!(served.len(), 6);
        for (i, (w, b)) in served.iter().zip(&batch.items).enumerate() {
            assert_eq!(w.backend, "serve");
            assert_eq!((w.threads, b.threads), (1, 1), "item {i} is co-scheduled");
            assert_eq!(
                w.factorization.as_ref().unwrap().lu.as_slice(),
                b.factorization.as_ref().unwrap().lu.as_slice(),
                "packed LU bits, item {i}"
            );
            assert_eq!(
                w.residual.unwrap().to_bits(),
                b.residual.unwrap().to_bits(),
                "residual bits, item {i}"
            );
        }
    }
    service.drain();
}

#[test]
fn a_served_report_names_the_pool_generation_that_ran_it() {
    // a live reconfigure moves the tile size, the split and the layout:
    // the next job's report names the generation that ran it, not the
    // builder that spawned the service, and counts that generation's
    // tasks — exactly what a solo run at the new knobs reports
    use calu::matrix::Layout;
    use calu::sched::SchedulerKind;
    let spawned = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(2)
        .dratio(0.5);
    let service = spawned.serve().unwrap();
    let knobs = |src| {
        Solver::new(src)
            .tile(32)
            .threads(2)
            .dratio(0.3)
            .layout(Layout::TwoLevelBlock)
    };
    knobs(MatrixSource::shape(8, 8))
        .reconfigure(&service)
        .unwrap();
    let served = service
        .submit(JobSpec::uniform(96, 96, 11), JobClass::Batch)
        .unwrap()
        .wait()
        .unwrap();
    let solo = knobs(MatrixSource::uniform(96, 11)).run().unwrap();
    assert_eq!(served.b, 32);
    assert_eq!(served.layout, Layout::TwoLevelBlock);
    assert_eq!(served.scheduler, SchedulerKind::Hybrid { dratio: 0.3 });
    assert_eq!(
        (served.b, served.layout, served.scheduler, served.tasks),
        (solo.b, solo.layout, solo.scheduler, solo.tasks)
    );
    service.drain();
}
