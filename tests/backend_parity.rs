//! Backend parity: the two execution backends are interchangeable
//! behind the `Backend` trait and agree with the numerical oracle.
//!
//! * `ThreadedBackend` must reproduce `calu_simple`'s solutions (same
//!   algorithm, different executor) with tiny residuals across
//!   (n, b, dratio, layout) combinations;
//! * `SimulatedBackend` must execute every DAG task exactly once under
//!   every scheduler kind — same totals the threaded executor reports.

use calu::core::calu_simple;
use calu::dag::TaskGraph;
use calu::matrix::{gen, ops, Layout, ProcessGrid};
use calu::sched::{CpuTopology, SchedulerKind};
use calu::sim::{MachineConfig, NoiseConfig};
use calu::{
    AdaptiveController, AdaptivePolicy, Algorithm, Backend, ContentionStats, MatrixSource,
    Observation, QueueDiscipline, SimulatedBackend, Solver, ThreadedBackend,
};

#[test]
fn threaded_matches_the_simple_oracle() {
    for (n, b, dratio, layout) in [
        (48usize, 8usize, 0.0f64, Layout::BlockCyclic),
        (64, 16, 0.1, Layout::TwoLevelBlock),
        (72, 12, 0.5, Layout::ColumnMajor),
        (60, 10, 1.0, Layout::BlockCyclic),
    ] {
        let a = gen::uniform(n, n, 7 + n as u64);
        let rhs = gen::uniform(n, 1, 99);
        let report = Solver::new(a.clone())
            .tile(b)
            .threads(2)
            .dratio(dratio)
            .layout(layout)
            .backend(ThreadedBackend)
            .run()
            .unwrap();
        assert!(
            report.residual.unwrap() < 1e-10,
            "residual {} for n={n} b={b} dratio={dratio} {layout}",
            report.residual.unwrap()
        );
        // the oracle and the threaded executor solve the same system
        let x_solver = report.factorization.unwrap().solve(&rhs);
        let x_oracle = calu_simple(&a, b, 2).solve(&rhs);
        let e1 = calu::core::verify::backward_error(&a, &x_solver, &rhs);
        let e2 = calu::core::verify::backward_error(&a, &x_oracle, &rhs);
        assert!(e1 < 1e-10 && e2 < 1e-10, "backward errors {e1} / {e2}");
    }
}

#[test]
fn simulated_executes_every_task_exactly_once_per_scheduler() {
    let mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let (n, b) = (1000usize, 100usize);
    let grid = ProcessGrid::square_for(mach.cores()).unwrap();
    let expected = TaskGraph::build_calu(n, n, b, grid.pr()).len();
    for sched in [
        SchedulerKind::Static,
        SchedulerKind::Dynamic,
        SchedulerKind::Hybrid { dratio: 0.2 },
        SchedulerKind::WorkStealing { seed: 1 },
    ] {
        let r = Solver::new(MatrixSource::shape(n, n))
            .tile(b)
            .scheduler(sched)
            .backend(SimulatedBackend::new(mach.clone()))
            .run()
            .unwrap();
        assert_eq!(r.tasks, expected, "{sched}: task total");
        assert_eq!(
            r.schedule.total_tasks() as usize,
            expected,
            "{sched}: per-core tasks must sum to the DAG size"
        );
        let q = r.schedule.queue_sources();
        assert_eq!(
            (q.local + q.global + q.stolen) as usize,
            expected,
            "{sched}: every task is attributed to exactly one queue source"
        );
    }
}

#[test]
fn global_and_sharded_disciplines_factor_bitwise_identically() {
    // The queue discipline reorders *when* dynamic tasks run, never
    // *what* they compute: every kernel's inputs are fixed by the DAG,
    // so Global and Sharded must agree to the last bit — packed LU,
    // pivot sequence, and residual alike.
    for (n, b, threads, dratio) in [
        (64usize, 8usize, 4usize, 0.5f64),
        (72, 12, 3, 1.0),
        (60, 10, 2, 0.25),
    ] {
        let a = gen::uniform(n, n, 21 + n as u64);
        let run = |queue: QueueDiscipline| {
            Solver::new(a.clone())
                .tile(b)
                .threads(threads)
                .dratio(dratio)
                .queue_discipline(queue)
                .backend(ThreadedBackend)
                .run()
                .unwrap()
        };
        let g = run(QueueDiscipline::Global);
        let s = run(QueueDiscipline::sharded());
        let ctx = format!("n={n} b={b} threads={threads} dratio={dratio}");

        let (fg, fs) = (
            g.factorization.as_ref().unwrap(),
            s.factorization.as_ref().unwrap(),
        );
        assert_eq!(fg.lu.as_slice(), fs.lu.as_slice(), "packed LU bits, {ctx}");
        assert_eq!(fg.perm.pivots(), fs.perm.pivots(), "pivot rows, {ctx}");
        assert_eq!(
            g.residual.unwrap().to_bits(),
            s.residual.unwrap().to_bits(),
            "residual bits, {ctx}"
        );

        // Steal accounting: the global discipline never touches the
        // steal path, so its counters stay exactly zero …
        assert_eq!(g.schedule.contention(), ContentionStats::default(), "{ctx}");
        for (tid, t) in g.schedule.threads.iter().enumerate() {
            assert_eq!(
                (t.stolen_pops, t.failed_steals),
                (0, 0),
                "thread {tid} stole under Global, {ctx}"
            );
        }
        let (qg, qs) = (g.schedule.queue_sources(), s.schedule.queue_sources());
        assert_eq!(qg.stolen, 0, "{ctx}");
        // … and under either discipline every task is attributed to
        // exactly one dequeue source.
        assert_eq!(qg.local + qg.global, g.tasks as u64, "{ctx}");
        assert_eq!(
            qs.local + qs.global + qs.stolen,
            s.tasks as u64,
            "sharded attribution, {ctx}"
        );
    }
}

#[test]
fn lockfree_factors_bitwise_identically_across_the_seeded_sweep() {
    // The lock-free deques reorder *when* dynamic tasks run — never
    // what they compute: for every (threads, dratio) cell, LockFree
    // must agree with Global and with the Sharded parity oracle to the
    // last bit. dratio = 0 has no dynamic section, where an explicit
    // stealing discipline is a configuration error instead.
    let n = 64usize;
    let b = 8usize;
    for threads in [1usize, 2, 4] {
        for dratio in [0.0f64, 0.3, 0.7] {
            let a = gen::uniform(n, n, 1000 + threads as u64 * 10 + (dratio * 10.0) as u64);
            let run = |queue: QueueDiscipline| {
                Solver::new(a.clone())
                    .tile(b)
                    .threads(threads)
                    .dratio(dratio)
                    .queue_discipline(queue)
                    .backend(ThreadedBackend)
                    .run()
            };
            let ctx = format!("threads={threads} dratio={dratio}");
            if dratio == 0.0 {
                for queue in [QueueDiscipline::lock_free(), QueueDiscipline::sharded()] {
                    assert!(
                        run(queue).is_err(),
                        "{queue} without a dynamic section must be rejected, {ctx}"
                    );
                }
                continue;
            }
            let g = run(QueueDiscipline::Global).unwrap();
            let s = run(QueueDiscipline::sharded()).unwrap();
            let l = run(QueueDiscipline::lock_free()).unwrap();
            let fg = g.factorization.as_ref().unwrap();
            for (name, r) in [("sharded", &s), ("lockfree", &l)] {
                let f = r.factorization.as_ref().unwrap();
                assert_eq!(
                    fg.lu.as_slice(),
                    f.lu.as_slice(),
                    "packed LU bits vs {name}, {ctx}"
                );
                assert_eq!(
                    fg.perm.pivots(),
                    f.perm.pivots(),
                    "pivot rows vs {name}, {ctx}"
                );
                assert_eq!(
                    g.residual.unwrap().to_bits(),
                    r.residual.unwrap().to_bits(),
                    "residual bits vs {name}, {ctx}"
                );
            }
            // attribution: every task reaches exactly one queue source,
            // single-threaded runs never steal, and only the tiered
            // lock-free sweep ever classifies a steal as remote
            for r in [&g, &s, &l] {
                let q = r.schedule.queue_sources();
                assert_eq!(q.local + q.global + q.stolen, r.tasks as u64, "{ctx}");
            }
            if threads == 1 {
                assert_eq!(l.schedule.queue_sources().stolen, 0, "{ctx}");
            }
            let sl = s.schedule.steal_locality();
            assert_eq!(sl.remote, 0, "flat sweep never classifies remote, {ctx}");
            let ll = l.schedule.steal_locality();
            assert_eq!(
                ll.local + ll.remote,
                l.schedule.queue_sources().stolen,
                "steal locality splits the steal total, {ctx}"
            );
        }
    }
}

#[test]
fn backends_swap_behind_the_trait_in_one_loop() {
    // the acceptance one-liner: same workload, N backends × M schedulers,
    // one loop, one API
    let a = gen::uniform(64, 64, 11);
    type Factory = Box<dyn Fn() -> Box<dyn Backend>>;
    let backends: Vec<Factory> = vec![
        Box::new(|| Box::new(ThreadedBackend)),
        Box::new(|| {
            Box::new(SimulatedBackend::new(MachineConfig::intel_xeon_16(
                NoiseConfig::off(),
            )))
        }),
    ];
    for make in &backends {
        for sched in [SchedulerKind::Static, SchedulerKind::Hybrid { dratio: 0.1 }] {
            let r = Solver::new(a.clone())
                .tile(16)
                .scheduler(sched)
                .backend(make())
                .run()
                .unwrap();
            assert!(r.makespan > 0.0, "{} {sched}", r.backend);
            assert!(r.schedule.total_tasks() > 0, "{} {sched}", r.backend);
            if r.backend == "threaded" {
                assert!(r.residual.unwrap() < 1e-12);
            }
        }
    }
}

#[test]
fn report_fields_are_backend_consistent() {
    let a = gen::uniform(64, 64, 13);
    let threaded = Solver::new(a.clone()).tile(16).threads(4).run().unwrap();
    let simulated = Solver::new(MatrixSource::shape(64, 64))
        .tile(16)
        .backend(SimulatedBackend::new(MachineConfig::intel_xeon_16(
            NoiseConfig::off(),
        )))
        .run()
        .unwrap();
    for r in [&threaded, &simulated] {
        assert_eq!(r.dims, (64, 64));
        assert_eq!(r.b, 16);
        assert!(r.makespan > 0.0);
        assert!(r.gflops() > 0.0);
        assert_eq!(r.schedule.threads.len(), r.threads);
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }
    // solution checks only exist where real numbers were produced
    assert!(threaded.residual.is_some() && threaded.factorization.is_some());
    assert!(simulated.residual.is_none() && simulated.factorization.is_none());
}

#[test]
fn threaded_batch_items_factor_bitwise_identically_to_solo_runs() {
    // The acceptance sweep: a mixed batch (co-scheduled small items AND
    // co-operative large ones) where every item must match the solo
    // `run` of the same source to the last bit — same pivots, same
    // packed LU, same residual bits. The pool changes *when* tasks run,
    // never what they compute. A co-scheduled item is a one-worker run
    // with its tiles on a 1×1 grid, grouped where they stack, so it is
    // held to this under every layout and group width (group > 1 needs
    // a layout that stacks tiles: BCL is the one).
    let sources: Vec<MatrixSource> = [(48usize, 101u64), (450, 102), (64, 103), (96, 104)]
        .iter()
        .map(|&(n, seed)| MatrixSource::uniform(n, seed))
        .collect();
    let knobs = [
        (Layout::ColumnMajor, 1),
        (Layout::TwoLevelBlock, 1),
        (Layout::BlockCyclic, 1),
        (Layout::BlockCyclic, 3),
    ];
    for queue in [QueueDiscipline::Global, QueueDiscipline::lock_free()] {
        for (layout, group) in knobs {
            let solver = |src: MatrixSource| {
                Solver::new(src)
                    .tile(16)
                    .threads(4)
                    .dratio(0.5)
                    .queue_discipline(queue)
                    .layout(layout)
                    .grouping(group)
                    .batch_small_cutoff(100)
            };
            let batch = solver(MatrixSource::shape(8, 8)).batch(&sources).unwrap();
            assert_eq!(batch.backend, "threaded");
            assert_eq!(batch.len(), 4);
            assert_eq!(batch.threads, 4);
            assert_eq!(batch.co_scheduled, 3, "items ≤ 100 are co-scheduled");
            assert!(batch.wall_secs > 0.0 && batch.items_per_sec() > 0.0);
            assert!(batch.aggregate_gflops() > 0.0);
            for (src, item) in sources.iter().zip(&batch.items) {
                let solo = solver(src.clone()).run().unwrap();
                let (fb, fs) = (
                    item.factorization.as_ref().unwrap(),
                    solo.factorization.as_ref().unwrap(),
                );
                let n = src.dims().0;
                let ctx = format!("n={n} queue={queue} {layout:?} group={group}");
                assert_eq!(fb.lu.as_slice(), fs.lu.as_slice(), "packed LU bits, {ctx}");
                assert_eq!(fb.perm.pivots(), fs.perm.pivots(), "pivot rows, {ctx}");
                assert_eq!(
                    item.residual.unwrap().to_bits(),
                    solo.residual.unwrap().to_bits(),
                    "residual bits, {ctx}"
                );
                // attribution holds inside the batch too: every task of
                // the item reaches exactly one queue source, on the one
                // worker of a co-scheduled item
                let q = item.schedule.queue_sources();
                assert_eq!(q.local + q.global + q.stolen, item.tasks as u64, "{ctx}");
                assert_eq!(item.tasks, solo.tasks, "{ctx}");
                assert_eq!(item.threads, if n <= 100 { 1 } else { 4 }, "{ctx}");
            }
        }
    }
}

#[test]
fn one_item_batch_matches_the_solo_run_exactly() {
    let src = MatrixSource::uniform(72, 7);
    let solver = Solver::new(src.clone()).tile(12).threads(2).dratio(0.3);
    let batch = solver.batch(std::slice::from_ref(&src)).unwrap();
    let solo = solver.run().unwrap();
    assert_eq!(batch.len(), 1);
    let (fb, fs) = (
        batch.items[0].factorization.as_ref().unwrap(),
        solo.factorization.as_ref().unwrap(),
    );
    assert_eq!(fb.lu.as_slice(), fs.lu.as_slice());
    assert_eq!(fb.perm.pivots(), fs.perm.pivots());
    assert_eq!(
        batch.items[0].residual.unwrap().to_bits(),
        solo.residual.unwrap().to_bits()
    );
}

#[test]
fn batch_rejects_bad_inputs_like_run_does() {
    let solver = Solver::new(MatrixSource::shape(64, 64)).tile(16).threads(4);
    // empty batches are a config error, not a zero-item report
    let err = solver.batch(&[]).unwrap_err();
    assert!(
        matches!(err, calu::Error::Config(ref m) if m.contains("at least one")),
        "{err}"
    );
    // shape-only items are rejected by the threaded pool with the same
    // message as a solo run
    let err = solver.batch(&[MatrixSource::shape(32, 32)]).unwrap_err();
    assert!(
        matches!(err, calu::Error::Config(ref m) if m.contains("DenseMatrix")),
        "{err}"
    );
}

#[test]
fn simulated_batch_models_the_same_semantics() {
    let mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let sources: Vec<MatrixSource> = vec![
        MatrixSource::shape(300, 300),
        MatrixSource::shape(1000, 1000),
        MatrixSource::shape(200, 200),
    ];
    let solver = Solver::new(MatrixSource::shape(8, 8))
        .tile(100)
        .backend(SimulatedBackend::new(mach.clone()));
    let batch = solver.batch(&sources).unwrap();
    assert_eq!(batch.co_scheduled, 2, "items ≤ 384 co-schedule");
    // co-scheduled items ran on a 1-core group (default k = 1), large
    // ones on the whole machine
    assert_eq!(batch.items[0].threads, 1);
    assert_eq!(batch.items[1].threads, 16);
    assert_eq!(batch.items[2].threads, 1);
    // with co-scheduling disabled, every item's makespan matches its
    // solo simulation exactly and the wall is their sum (deterministic
    // discrete-event model)
    let no_co = Solver::new(MatrixSource::shape(8, 8))
        .tile(100)
        .batch_small_cutoff(0)
        .backend(SimulatedBackend::new(mach.clone()));
    let batch = no_co.batch(&sources).unwrap();
    assert_eq!(batch.co_scheduled, 0);
    let mut sum = 0.0;
    for (src, item) in sources.iter().zip(&batch.items) {
        let solo = Solver::new(src.clone())
            .tile(100)
            .backend(SimulatedBackend::new(mach.clone()))
            .run()
            .unwrap();
        assert_eq!(item.threads, 16);
        assert!(
            (item.makespan - solo.makespan).abs() < 1e-12,
            "deterministic model: batch item == solo sim"
        );
        sum += item.makespan;
    }
    assert!((batch.wall_secs - sum).abs() < 1e-12);
    assert!(batch.items_per_sec() > 0.0);
}

/// Batch routing, captured before the per-item group width was deleted:
/// which items of a mixed batch (either side of the default 384 cutoff)
/// co-schedule at threads {1, 2, 4} × cutoff {0, default, 1000}, and
/// the simulated batch's bits at each cutoff. The co-schedule predicate
/// `threads > 1 && max(m, n) <= cutoff` must route exactly as before.
#[test]
fn batch_routing_matches_its_golden() {
    // a co-scheduled item is a one-worker run, so it reports one
    // thread on a wider pool: the thread count names the route
    let sources: Vec<MatrixSource> = [96usize, 200, 384, 385, 500]
        .iter()
        .zip(300..)
        .map(|(&n, seed)| MatrixSource::uniform(n, seed))
        .collect();
    let (none, small3, all) = ([false; 5], [true, true, true, false, false], [true; 5]);
    for (threads, expected) in [
        (1, [none, none, none]),
        (2, [none, small3, all]),
        (4, [none, small3, all]),
    ] {
        for (cutoff, expected) in [Some(0), None, Some(1000)].into_iter().zip(expected) {
            let mut solver = Solver::new(MatrixSource::shape(1, 1))
                .tile(32)
                .threads(threads)
                .dratio(1.0)
                .verify(false);
            if let Some(c) = cutoff {
                solver = solver.batch_small_cutoff(c);
            }
            let batch = solver.batch(&sources).unwrap();
            let routed: Vec<bool> = batch.items.iter().map(|r| r.threads < threads).collect();
            let ctx = format!("threads {threads}, cutoff {cutoff:?}");
            assert_eq!(routed, expected, "{ctx}");
            let count = expected.iter().filter(|&&small| small).count();
            assert_eq!(batch.co_scheduled, count, "{ctx}");
        }
    }

    let mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let shapes: Vec<MatrixSource> = [200usize, 384, 385, 1000]
        .iter()
        .map(|&n| MatrixSource::shape(n, n))
        .collect();
    // (cutoff, wall bits, per item (cores, makespan bits))
    type Run = (Option<usize>, u64, [(usize, u64); 4]);
    let golden: [Run; 3] = [
        (
            Some(0),
            0x3fb1dfc313c3f260,
            [
                (16, 0x3f6a9eafd4c8cd00),
                (16, 0x3f85908318634078),
                (16, 0x3f859efdd69bc984),
                (16, 0x3fa749baee7b9572),
            ],
        ),
        (
            None,
            0x3fb3426a78d64876,
            [
                (1, 0x3f7024275f0a92f0),
                (1, 0x3f93a6b51b141233),
                (16, 0x3f859efdd69bc984),
                (16, 0x3fa749baee7b9572),
            ],
        ),
        (
            Some(1000),
            0x3fca1ffd0c2194d2,
            [
                (1, 0x3f7024275f0a92f0),
                (1, 0x3f93a6b51b141233),
                (1, 0x3f93c16e3a254cfe),
                (1, 0x3fca1ffd0c2194d2),
            ],
        ),
    ];
    for (cutoff, wall, items) in golden {
        let mut solver = Solver::new(MatrixSource::shape(8, 8))
            .tile(100)
            .backend(SimulatedBackend::new(mach.clone()));
        if let Some(c) = cutoff {
            solver = solver.batch_small_cutoff(c);
        }
        let batch = solver.batch(&shapes).unwrap();
        assert_eq!(batch.wall_secs.to_bits(), wall, "cutoff {cutoff:?}");
        let got: Vec<(usize, u64)> = batch
            .items
            .iter()
            .map(|r| (r.threads, r.makespan.to_bits()))
            .collect();
        assert_eq!(got, items, "cutoff {cutoff:?}");
    }
}

#[test]
fn threaded_cholesky_is_bitwise_stable_and_matches_the_dpotrf_reference() {
    // The kernel-set sweep for Cholesky: across queue disciplines and
    // thread counts the tiled factor must agree to the last bit (the
    // DAG's exclusive-writer rule fixes every tile's summation order),
    // carry an identity permutation and no growth factor, pass the
    // relative residual gate, and agree with the sequential dpotrf
    // reference to roundoff (different tilings sum in different orders,
    // so the reference comparison is elementwise, not bitwise). Every
    // layout and group width keeps the `group = 1` bits too, solo or as
    // a co-scheduled batch item: a group is one A·Bᵀ GEMM over stacked
    // tiles, and each element still sums its products in one order.
    for (n, b, seed) in [(64usize, 16usize, 41u64), (96, 16, 42), (100, 24, 43)] {
        let mut reference = gen::spd_uniform(n, seed);
        let ld = reference.ld();
        assert!(
            calu::kernels::dpotrf_unblocked(n, reference.as_mut_slice(), ld).is_none(),
            "spd_uniform must be numerically SPD, n={n}"
        );
        // `group` 3 is the default, which only BCL honours: the other
        // layouts refuse an explicit 3 and run 1 under the default
        let solver = |queue: QueueDiscipline, threads: usize, layout: Layout, group: usize| {
            let s = Solver::new(MatrixSource::spd_uniform(n, seed))
                .algorithm(Algorithm::Cholesky)
                .tile(b)
                .threads(threads)
                .dratio(0.5)
                .queue_discipline(queue)
                .layout(layout)
                .backend(ThreadedBackend);
            match group {
                1 => s.grouping(1),
                _ => s,
            }
        };
        let run =
            |queue, threads, layout, group| solver(queue, threads, layout, group).run().unwrap();
        let base = run(QueueDiscipline::Global, 4, Layout::BlockCyclic, 1);
        let fb = base.factorization.as_ref().unwrap();
        let ctx = format!("n={n} b={b} seed={seed}");
        assert_eq!(base.algorithm, Algorithm::Cholesky, "{ctx}");
        assert!(fb.perm.pivots().is_empty(), "no pivoting, {ctx}");
        assert!(
            base.residual.unwrap() < 1e-13,
            "relative ‖A − LLᵀ‖ residual {} over the gate, {ctx}",
            base.residual.unwrap()
        );
        assert!(
            base.growth_factor.is_none(),
            "growth factor is an LU pivoting figure, {ctx}"
        );
        for i in 0..n {
            for j in 0..=i {
                let (x, y) = (fb.lu.get(i, j), reference.get(i, j));
                assert!(
                    (x - y).abs() < 1e-11,
                    "vs dpotrf at ({i},{j}), {ctx}: {x} vs {y}"
                );
            }
        }
        for queue in [QueueDiscipline::sharded(), QueueDiscipline::lock_free()] {
            for threads in [1usize, 2, 4] {
                let r = run(queue, threads, Layout::BlockCyclic, 1);
                let f = r.factorization.as_ref().unwrap();
                assert_eq!(
                    fb.lu.as_slice(),
                    f.lu.as_slice(),
                    "packed L bits vs {queue} × {threads} threads, {ctx}"
                );
                assert_eq!(
                    base.residual.unwrap().to_bits(),
                    r.residual.unwrap().to_bits(),
                    "residual bits vs {queue} × {threads} threads, {ctx}"
                );
            }
        }
        let layouts = [
            Layout::ColumnMajor,
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
        ];
        for layout in layouts {
            for group in [1usize, 3] {
                for threads in [2usize, 4] {
                    let r = run(QueueDiscipline::lock_free(), threads, layout, group);
                    let f = r.factorization.as_ref().unwrap();
                    let knobs = format!("{layout:?} group={group} × {threads} threads");
                    assert_eq!(fb.lu.as_slice(), f.lu.as_slice(), "{knobs}, {ctx}");
                }
            }
        }
        let batch = solver(QueueDiscipline::lock_free(), 4, Layout::BlockCyclic, 3)
            .batch_small_cutoff(n)
            .batch(&[MatrixSource::spd_uniform(n, seed)])
            .unwrap();
        assert_eq!(batch.co_scheduled, 1, "{ctx}");
        let f = batch.items[0].factorization.as_ref().unwrap();
        assert_eq!(fb.lu.as_slice(), f.lu.as_slice(), "co-scheduled, {ctx}");
    }
}

#[test]
fn cholesky_residual_gate_holds_across_a_seeded_spd_sweep() {
    for (n, b, threads, seed) in [
        (48usize, 8usize, 2usize, 61u64),
        (64, 16, 3, 62),
        (80, 16, 4, 63),
        (100, 24, 3, 64),
        (128, 32, 4, 65),
    ] {
        let r = Solver::new(MatrixSource::spd_uniform(n, seed))
            .algorithm(Algorithm::Cholesky)
            .tile(b)
            .threads(threads)
            .dratio(0.5)
            .run()
            .unwrap();
        assert!(
            r.residual.unwrap() < 1e-13,
            "residual {} for n={n} b={b} threads={threads}",
            r.residual.unwrap()
        );
        assert!(r.growth_factor.is_none(), "n={n}");
    }
}

#[test]
fn cholesky_plans_validate_their_sources() {
    // squareness and SPD provenance are plan-time errors, not runtime
    // surprises, and the messages say what to do instead
    let err = Solver::new(MatrixSource::uniform_rect(64, 48, 1))
        .algorithm(Algorithm::Cholesky)
        .tile(16)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, calu::Error::Config(ref m) if m.contains("square")),
        "{err}"
    );
    let err = Solver::new(MatrixSource::uniform(64, 1))
        .algorithm(Algorithm::Cholesky)
        .tile(16)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, calu::Error::Config(ref m) if m.contains("SpdUniform")),
        "{err}"
    );
}

#[test]
fn mixed_lu_and_cholesky_batch_routes_both_through_one_pool() {
    // the pooled batch executor dispatches per item by kernel set; a
    // sweep can only mix algorithms per-plan through Backend::run_batch
    // (Solver::batch fixes one algorithm), so build plans by hand
    let lu_solver = Solver::new(MatrixSource::uniform(64, 71))
        .tile(16)
        .threads(3)
        .dratio(0.5);
    let ch_solver = Solver::new(MatrixSource::spd_uniform(64, 72))
        .algorithm(Algorithm::Cholesky)
        .tile(16)
        .threads(3)
        .dratio(0.5);
    let plans = [lu_solver.plan().unwrap(), ch_solver.plan().unwrap()];
    let batch = ThreadedBackend.run_batch(&plans).unwrap();
    assert_eq!(batch.len(), 2);
    let lu_solo = lu_solver.run().unwrap();
    let ch_solo = ch_solver.run().unwrap();
    for (item, solo) in batch.items.iter().zip([&lu_solo, &ch_solo]) {
        assert_eq!(item.algorithm, solo.algorithm);
        assert_eq!(
            item.factorization.as_ref().unwrap().lu.as_slice(),
            solo.factorization.as_ref().unwrap().lu.as_slice(),
            "{} batch item matches its solo run bitwise",
            solo.algorithm
        );
        assert_eq!(
            item.residual.unwrap().to_bits(),
            solo.residual.unwrap().to_bits()
        );
    }
    assert!(batch.items[0].growth_factor.is_some(), "LU reports growth");
    assert!(batch.items[1].growth_factor.is_none(), "Cholesky has none");
}

#[test]
fn simulated_cholesky_task_counts_match_the_threaded_dag() {
    // both backends factor Cholesky through the exact same DAG; pin the
    // per-kind split (POTRF / TRSM / SYRK+GEMM ride the P/L/S kinds, no
    // U barrier without pivoting) and check the simulator executes it
    // exactly, task for task, against what the threaded backend reports
    let (n, b) = (1024usize, 128usize);
    let nt = n / b;
    let g = TaskGraph::build_cholesky(n, b);
    let (potrf, trsm, u, updates) = g.counts_by_kind();
    assert_eq!(potrf, nt);
    assert_eq!(trsm, nt * (nt - 1) / 2);
    assert_eq!(u, 0, "no pivoting means no column fan-in tasks");
    assert_eq!(updates, (nt - 1) * nt * (nt + 1) / 6);
    assert_eq!(g.len(), potrf + trsm + updates);

    let mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let sim = Solver::new(MatrixSource::shape(n, n))
        .algorithm(Algorithm::Cholesky)
        .tile(b)
        .backend(SimulatedBackend::new(mach))
        .run()
        .unwrap();
    assert_eq!(sim.tasks, g.len(), "simulator runs every DAG task once");
    assert_eq!(sim.schedule.total_tasks() as usize, g.len());

    // threaded at a size we can afford to execute for real: the span
    // timeline covers the same DAG, one span per task
    let (n2, b2) = (96usize, 16usize);
    let threaded = Solver::new(MatrixSource::spd_uniform(n2, 73))
        .algorithm(Algorithm::Cholesky)
        .tile(b2)
        .threads(3)
        .run()
        .unwrap();
    assert_eq!(threaded.tasks, TaskGraph::build_cholesky(n2, b2).len());
}

#[test]
fn the_adaptive_controller_is_backend_agnostic_over_identical_traces() {
    // the feedback controller is pure in (seed topology, observation
    // trace): seeded from the simulator's machine model or from the
    // same shape written by hand for the threaded side, an identical
    // canned trace must drive bitwise-identical split trajectories —
    // the sweep covers idle pressure, steal contention and a size
    // histogram that crosses the cutoff window
    let mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let policy = AdaptivePolicy::new(5);
    let mut sim_ctl =
        AdaptiveController::new(policy.clone(), &calu::sim::machine_topology(&mach), 16);
    let mut hand_ctl = AdaptiveController::new(policy, &CpuTopology::uniform(4, 4), 16);
    assert_eq!(
        sim_ctl.seed_choice(),
        hand_ctl.seed_choice(),
        "equal topologies seed equal splits"
    );
    for i in 0..12usize {
        let n = 128 * (1 + (i % 5));
        let obs = Observation::new(16, 2.0, 0.4 * 16.0 * ((i % 3) as f64) / 3.0)
            .with_contention(0.05 * (i % 2) as f64)
            .with_dims(n, n);
        sim_ctl.observe(&obs);
        hand_ctl.observe(&obs);
        let (s, h) = (sim_ctl.plan_choice(), hand_ctl.plan_choice());
        assert_eq!(s, h, "step {i}: the trajectories diverged");
        assert_eq!(
            s.dratio.to_bits(),
            h.dratio.to_bits(),
            "step {i}: dratio must agree to the last bit"
        );
    }
}

#[test]
fn adaptive_factors_are_bitwise_identical_to_the_fixed_config_at_the_chosen_split() {
    // adaptation moves knobs between runs, never inside a DAG: whatever
    // split the controller lands on, rerunning with that split pinned by
    // hand must reproduce the adaptive run's bits exactly
    let a = gen::uniform(96, 96, 29);
    let adaptive = Solver::new(a.clone())
        .tile(16)
        .threads(4)
        .adaptive(AdaptivePolicy::new(7));
    let mut last = None;
    for _ in 0..3 {
        last = Some(adaptive.run().unwrap());
    }
    let r = last.unwrap();
    let chosen = r.adaptation.as_ref().unwrap().chosen;
    let fixed = Solver::new(a)
        .tile(16)
        .threads(4)
        .dratio(chosen.dratio)
        .run()
        .unwrap();
    let (fa, ff) = (
        r.factorization.as_ref().unwrap(),
        fixed.factorization.as_ref().unwrap(),
    );
    assert_eq!(fa.lu.as_slice(), ff.lu.as_slice(), "packed LU bits");
    assert_eq!(fa.perm.pivots(), ff.perm.pivots(), "pivot rows");
    assert_eq!(
        r.residual.unwrap().to_bits(),
        fixed.residual.unwrap().to_bits(),
        "residual bits"
    );
    // and the executed schedule really was the chosen one
    match r.scheduler {
        SchedulerKind::Hybrid { dratio } => assert_eq!(dratio.to_bits(), chosen.dratio.to_bits()),
        other => panic!("adaptive plans always run Hybrid, got {other}"),
    }
}

#[test]
fn rhs_solve_matches_across_dratio_sweep() {
    // schedule must not change the math: identical solutions for every
    // dynamic share, threaded backend
    let n = 60;
    let a = gen::uniform(n, n, 3);
    let x_true = gen::uniform(n, 1, 4);
    let rhs = ops::matmul(&a, &x_true);
    for dratio in [0.0, 0.25, 0.75, 1.0] {
        let x = Solver::new(a.clone())
            .tile(10)
            .threads(3)
            .dratio(dratio)
            .run()
            .unwrap()
            .factorization
            .unwrap()
            .solve(&rhs);
        assert!(x.approx_eq(&x_true, 1e-7), "dratio {dratio} diverged");
    }
}
