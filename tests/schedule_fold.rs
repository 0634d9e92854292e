//! The threaded engine folds a job's schedule as it runs: every report
//! carries the same makespan, per-thread work, noise, idle, tasks and
//! queue sources whether or not it asked for a trace, and a trace adds
//! only the spans. These tests hold the fold to the timeline it
//! replaces, on every route a job can take (solo, a batch's co-scheduled
//! and co-operative items, a service pool), and hold its noise booking
//! to a fault plan's stalls. The simulator fills the same record, and
//! both backends settle idle by one rule.

use calu::sched::SchedulerKind;
use calu::sim::{MachineConfig, NoiseConfig};
use calu::trace::Timeline;
use calu::{
    FaultPlan, JobClass, JobSpec, MatrixSource, QueueDiscipline, Report, ServiceConfig,
    SimulatedBackend, Solver,
};

/// Per-thread `work + overhead + memory + noise + idle` is the makespan.
fn assert_accounts_for_the_makespan(r: &Report, ctx: &str) {
    assert!(!r.schedule.threads.is_empty(), "{ctx}");
    for (c, t) in r.schedule.threads.iter().enumerate() {
        let sum = t.work + t.overhead + t.memory + t.noise + t.idle;
        assert!(
            (sum - r.makespan).abs() < 1e-9,
            "thread {c}: {sum} vs {}, {ctx}",
            r.makespan
        );
    }
}

/// Every task was popped once: Σ pops over threads is the task count.
fn assert_pops_are_tasks(r: &Report, ctx: &str) {
    let q = r.schedule.queue_sources();
    assert_eq!(q.local + q.global + q.stolen, r.tasks as u64, "{ctx}");
    assert_eq!(r.schedule.total_tasks() as usize, r.tasks, "{ctx}");
}

/// A traced report's figures re-folded from its own timeline, and the
/// untraced report of the same job: no spans, the same task count.
fn assert_fold_matches(traced: &Report, untraced: &Report, ctx: &str) {
    let tl: &Timeline = traced.timeline.as_ref().expect("a traced report");
    assert_eq!(traced.makespan.to_bits(), tl.makespan().to_bits(), "{ctx}");
    assert_eq!(traced.schedule.makespan.to_bits(), tl.makespan().to_bits());
    for (c, t) in traced.schedule.threads.iter().enumerate() {
        let work: Vec<f64> = tl
            .spans()
            .iter()
            .filter(|s| s.core == c && s.kind.is_work())
            .map(|s| s.duration())
            .collect();
        assert_eq!(t.tasks as usize, work.len(), "thread {c}, {ctx}");
        let secs: f64 = work.iter().sum();
        assert!(
            (t.work - secs).abs() < 1e-9,
            "thread {c}: {} vs {secs}, {ctx}",
            t.work
        );
    }
    assert!(untraced.timeline.is_none(), "{ctx}");
    assert_eq!(untraced.tasks, traced.tasks, "{ctx}");
    for r in [traced, untraced] {
        assert_pops_are_tasks(r, ctx);
        assert_accounts_for_the_makespan(r, ctx);
    }
}

#[test]
fn a_slow_worker_books_noise_and_counts_only_tasks() {
    let solver = |trace| {
        Solver::new(MatrixSource::uniform(384, 3))
            .tile(32)
            .threads(2)
            .verify(false)
            .fault_plan(FaultPlan::off().with_seed(9).slow_worker(0, 2.0))
            .trace(trace)
    };
    let dag = solver(false).plan().unwrap().build_graph().len();
    for trace in [false, true] {
        let r = solver(trace).run().unwrap();
        let ctx = format!("trace {trace}");
        assert_eq!(r.tasks, dag, "a stall is not a task, {ctx}");
        assert!(r.schedule.total_noise() > 0.0, "stalls are noise, {ctx}");
        assert_pops_are_tasks(&r, &ctx);
        assert_accounts_for_the_makespan(&r, &ctx);
    }
}

#[test]
fn co_scheduled_items_book_their_stalls_as_noise() {
    // every item of this 2-thread batch is under the co-scheduling
    // cutoff, so one worker drains it whole; both workers run slowed,
    // so whichever drives an item stalls in it, and those stalls are
    // noise, not idle
    let sweep: Vec<MatrixSource> = (0..8).map(|i| MatrixSource::uniform(96, 30 + i)).collect();
    let r = Solver::new(MatrixSource::shape(1, 1))
        .tile(16)
        .threads(2)
        .verify(false)
        .fault_plan(
            FaultPlan::off()
                .with_seed(9)
                .slow_worker(0, 2.0)
                .slow_worker(1, 2.0),
        )
        .batch(&sweep)
        .unwrap();
    assert_eq!(r.co_scheduled, sweep.len());
    for (i, item) in r.items.iter().enumerate() {
        let ctx = format!("item {i}");
        assert!(
            item.schedule.total_noise() > 0.0,
            "its stalls are noise, {ctx}"
        );
        assert_accounts_for_the_makespan(item, &ctx);
    }
}

#[test]
fn the_fold_agrees_with_the_timeline_on_every_route() {
    let square = MatrixSource::uniform(256, 11);
    let tall = MatrixSource::uniform_rect(1152, 64, 12);
    for queue in [QueueDiscipline::Global, QueueDiscipline::lock_free()] {
        for group in [1, 3] {
            let solver = |src: MatrixSource, trace| {
                Solver::new(src)
                    .tile(16)
                    .threads(2)
                    .verify(false)
                    .queue_discipline(queue)
                    .grouping(group)
                    .trace(trace)
            };
            let ctx = |route: &str| format!("{route}, {queue}, group {group}");

            for src in [&square, &tall] {
                let (t, u) = (solver(src.clone(), true), solver(src.clone(), false));
                let (m, n) = src.dims();
                let what = ctx(&format!("solo {m}x{n}"));
                assert_fold_matches(&t.run().unwrap(), &u.run().unwrap(), &what);
            }

            // the square item is co-scheduled, the tall one co-operative
            let sweep = [square.clone(), tall.clone()];
            let knobs = |trace| solver(MatrixSource::shape(1, 1), trace);
            let (t, u) = (knobs(true).batch(&sweep), knobs(false).batch(&sweep));
            let (t, u) = (t.unwrap(), u.unwrap());
            assert_eq!((t.co_scheduled, u.co_scheduled), (1, 1), "{}", ctx("batch"));
            for (i, (t, u)) in t.items.iter().zip(&u.items).enumerate() {
                assert_fold_matches(t, u, &ctx(&format!("batch item {i}")));
            }

            let serve = |trace| {
                let service = knobs(trace).serve_with(ServiceConfig::default()).unwrap();
                let handles: Vec<_> = [
                    JobSpec::uniform(256, 256, 11),
                    JobSpec::uniform(1152, 64, 12),
                ]
                .into_iter()
                .map(|spec| service.submit(spec, JobClass::Batch).unwrap())
                .collect();
                let reports: Vec<Report> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
                service.drain();
                reports
            };
            for (i, (t, u)) in serve(true).iter().zip(&serve(false)).enumerate() {
                assert_fold_matches(t, u, &ctx(&format!("served job {i}")));
            }
        }
    }
}

#[test]
fn a_threaded_fine_run_books_its_pops_as_overhead() {
    // lu_fine's tile (b = 16) on a smaller square: thousands of small
    // tasks, each worker's bodies mostly back to back, so the pops
    // between them are overhead and no longer idle
    let r = Solver::new(MatrixSource::uniform(512, 21))
        .tile(16)
        .threads(2)
        .verify(false)
        .run()
        .unwrap();
    assert_eq!(r.schedule.threads.len(), 2, "a co-operative run");
    assert!(r.schedule.threads.iter().all(|t| t.overhead > 0.0));
    assert_accounts_for_the_makespan(&r, "fine");
}

/// A simulated solver on the 16-core Intel model with modelled OS
/// noise, so every busy term of the idle rule is nonzero somewhere.
fn simulated(source: MatrixSource) -> Solver {
    let machine = MachineConfig::intel_xeon_16(NoiseConfig::os_daemons(7));
    Solver::new(source)
        .tile(100)
        .backend(SimulatedBackend::new(machine))
}

#[test]
fn a_simulated_solo_report_accounts_for_the_makespan() {
    let r = simulated(MatrixSource::shape(1000, 1000)).run().unwrap();
    let t = &r.schedule.threads;
    assert!(t
        .iter()
        .any(|t| t.overhead > 0.0 && t.memory > 0.0 && t.noise > 0.0));
    assert_pops_are_tasks(&r, "simulated solo");
    assert_accounts_for_the_makespan(&r, "simulated solo");
}

#[test]
fn simulated_batch_items_account_for_the_makespan_on_both_routes() {
    // the 200² item is co-scheduled on one core, the 1000² one co-operative
    let sweep = [
        MatrixSource::shape(200, 200),
        MatrixSource::shape(1000, 1000),
    ];
    let batch = simulated(MatrixSource::shape(1, 1)).batch(&sweep).unwrap();
    assert_eq!(batch.co_scheduled, 1);
    let lanes: Vec<usize> = batch.items.iter().map(|r| r.threads).collect();
    assert_eq!(lanes, [1, 16], "one record per core the item ran on");
    for (i, item) in batch.items.iter().enumerate() {
        let ctx = format!("simulated batch item {i}");
        assert_pops_are_tasks(item, &ctx);
        assert_accounts_for_the_makespan(item, &ctx);
    }
}

#[test]
fn both_backends_count_pops_in_one_vocabulary() {
    // under the lock-free discipline a worker's own-deque pops are a
    // share of its dynamic pops and its remote steals a share of its
    // steals, on real threads and in the model alike
    let threaded = Solver::new(MatrixSource::uniform(256, 5))
        .tile(16)
        .threads(2)
        .verify(false)
        .scheduler(SchedulerKind::Dynamic)
        .queue_discipline(QueueDiscipline::lock_free())
        .run()
        .unwrap();
    let sim = simulated(MatrixSource::shape(1500, 1500))
        .scheduler(SchedulerKind::Hybrid { dratio: 0.5 })
        .queue_discipline(QueueDiscipline::lock_free())
        .run()
        .unwrap();
    for r in [&threaded, &sim] {
        let t = &r.schedule.threads;
        let shard: u64 = t.iter().map(|t| t.shard_pops).sum();
        assert!(shard > 0, "{}: own-deque pops are counted", r.backend);
        for t in t {
            assert!(t.shard_pops <= t.global_pops, "{}", r.backend);
            assert!(t.remote_steal_pops <= t.stolen_pops, "{}", r.backend);
        }
        assert_pops_are_tasks(r, &r.backend);
    }
}
