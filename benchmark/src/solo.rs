//! The five solo workloads: one `Solver::run` per repetition on one
//! pre-materialized matrix.

use std::time::Instant;

use calu::core::{calu_factor, cholesky_factor, gepp_factor, Factorization};
use calu::matrix::{gen, DenseMatrix};
use calu::report::nominal_flops;
use calu::{Algorithm, FaultPlan, MatrixSource, Report, Solver};

use crate::check::{factor_hash, probe_residual};
use crate::fold::{hang_timeline, put_schedule, RepFold};
use crate::run::{
    set_up_timed, timed_reps, Ctx, EndToEnd, Metrics, Traced, MIN_REPS, REP_TAIL, TRACED_REPS,
    WARMUP_REPS,
};
use crate::rungs::{self, At};
use crate::spans::Recorder;
use crate::stats::median;

#[derive(Debug, Clone, Copy)]
pub struct SoloShape {
    pub algorithm: Algorithm,
    pub m: usize,
    pub n: usize,
    pub b: usize,
    /// Worker 0 runs at half speed (`FaultPlan::slow_worker(0, 2.0)`).
    pub degraded: bool,
}

impl SoloShape {
    pub fn generate(&self, seed: u64) -> DenseMatrix {
        match self.algorithm {
            Algorithm::Cholesky => gen::spd_uniform(self.n, seed),
            _ => gen::uniform(self.m, self.n, seed),
        }
    }

    /// The workload's solver: the paper's defaults (BCL, hybrid 10 %
    /// dynamic, the threaded backend's lock-free queues) at this shape's
    /// tile size, verification off.
    fn solver(&self, a: DenseMatrix, threads: usize, degraded: bool, seed: u64) -> Solver {
        let solver = Solver::new(MatrixSource::Dense(a))
            .algorithm(self.algorithm)
            .tile(self.b)
            .threads(threads)
            .verify(false);
        if degraded {
            solver.fault_plan(FaultPlan::off().with_seed(seed).slow_worker(0, 2.0))
        } else {
            solver
        }
    }

    pub fn flops(&self) -> f64 {
        nominal_flops(self.algorithm, self.m, self.n)
    }

    /// Everything before the first timed repetition.
    fn set_up(&self, ctx: &Ctx) -> Solver {
        let solver = self.solver(
            self.generate(ctx.seed),
            ctx.threads(),
            self.degraded,
            ctx.seed,
        );
        for _ in 0..WARMUP_REPS {
            solver.run().expect("warm-up repetition");
        }
        solver
    }
}

/// The matrix a solver built by [`SoloShape::solver`] owns.
fn matrix_of(solver: &Solver) -> &DenseMatrix {
    match solver.plan().expect("workload knobs are valid").source {
        MatrixSource::Dense(a) => a,
        _ => unreachable!("solo workloads factor pre-materialized matrices"),
    }
}

fn factors(report: Report) -> Factorization {
    report
        .factorization
        .expect("the threaded backend returns factors")
}

pub fn end_to_end(shape: &SoloShape, ctx: &Ctx) -> EndToEnd {
    let mut out = EndToEnd {
        flops_per_rep: shape.flops(),
        tail_percentile: REP_TAIL,
        ..Default::default()
    };
    let solver = set_up_timed(&mut out.setup_s, || shape.set_up(ctx), drop);
    let a = matrix_of(&solver);

    let start = Instant::now();
    let mut last = None;
    while out.wall_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let t0 = Instant::now();
        let result = solver.run();
        let wall = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        let f = match result {
            Ok(report) => factors(report),
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("run failed: {e}"));
                if out.failed > 3 {
                    break;
                }
                continue;
            }
        };
        out.wall_s.push(wall);
        out.latency_s.push(wall);
        let hash = factor_hash(&f);
        if out.wall_s.len() == 1 {
            out.factor_hash = hash;
            out.residual_check = probe_residual(shape.algorithm, a, &f, ctx.seed);
        } else if hash != out.factor_hash {
            out.failed += 1;
            out.notes
                .push("factor hash differs between repetitions".into());
        }
        last = Some(f);
    }
    if let Some(f) = last {
        out.residual_check =
            out.residual_check
                .max(probe_residual(shape.algorithm, a, &f, ctx.seed ^ 1));
    }
    out
}

pub fn traced(shape: &SoloShape, with_sim: bool, ctx: &Ctx) -> Traced {
    let mut rec = Recorder::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let threads = ctx.threads();
    let slice = ctx.seconds * 0.004;

    // warm, exactly like the timed pass
    let solver = shape.set_up(ctx);
    let a = matrix_of(&solver);
    let plan = solver.plan().expect("workload knobs are valid");

    // untraced reference repetitions: wall around the public call, and
    // the makespan the same call reports
    let mut walls = Vec::new();
    let mut makespans = Vec::new();
    let mut reference_hash = None;
    timed_reps(ctx.seconds * 0.15, 3, 50, || {
        let t0 = Instant::now();
        let report = solver.run().expect("untraced repetition");
        walls.push(t0.elapsed().as_secs_f64());
        makespans.push(report.makespan);
        attempted += 1;
        let hash = factor_hash(&factors(report));
        if *reference_hash.get_or_insert(hash) != hash {
            failed += 1;
            notes.push("factor hash differs between repetitions".into());
        }
    });
    let wall = median(&walls);
    let makespan = median(&makespans);

    // layer rungs, as replica spans under a root of their own
    let graphs = [plan.build_graph()];
    let g = &graphs[0];
    let at = At::root(&mut rec);
    let peak_n = if ctx.smoke { 128 } else { 1024 };
    rungs::kernels(&mut rec, at, shape.b, peak_n, slice, &mut m);
    rungs::kernel_counts(&graphs, &mut m);
    rungs::matrix(
        &mut rec,
        at,
        a,
        shape.b,
        plan.grid,
        plan.layout(),
        ctx.host.llc_bytes,
        &mut m,
    );
    rungs::dag_shape(&graphs, &mut m);
    rungs::sched(&mut rec, at, g, plan.grid, ctx.seed, slice, &mut m);
    if shape.algorithm == Algorithm::Calu {
        rungs::tslu_panel(&mut rec, at, a, shape.b, plan.leaf_stride(), &mut m);
    }
    if with_sim {
        let (n_run, n_gain) = if ctx.smoke { (400, 600) } else { (2000, 5000) };
        rungs::sim(&mut rec, at, n_run, n_gain, &mut m);
    }
    rec.close(at.parent);
    let to_tiles_s = m.get("matrix.to_tiles_s").expect("matrix rung ran");
    let to_dense_s = m.get("matrix.to_dense_s").expect("matrix rung ran");

    // traced repetitions: the benchmark's spans around each public call,
    // the program's own timeline hung under `factor`
    let traced_solver = shape
        .solver(a.clone(), threads, shape.degraded, ctx.seed)
        .trace(true);
    let mut gen_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut build_s = Vec::new();
    let mut trace_cost = Vec::new();
    let mut folds = Vec::new();
    let mut verified = None;
    for rep in 0..TRACED_REPS {
        let group = rep as u64 + 1;
        let root = rec.open("repetition", "solver", None, group);
        let (_, id) = rec.time("gen", "matrix", Some(root), group, || {
            std::hint::black_box(shape.generate(ctx.seed));
        });
        gen_s.push(rec.spans()[id].duration());
        let (p, id) = rec.time("plan", "solver", Some(root), group, || {
            traced_solver.plan().expect("workload knobs are valid")
        });
        plan_s.push(rec.spans()[id].duration());
        let (_, id) = rec.time("dag.build", "dag", Some(root), group, || {
            std::hint::black_box(p.build_graph());
        });
        build_s.push(rec.spans()[id].duration());

        // an untraced run on either side of the traced one, in the same
        // allocator and cache state, prices the tracing itself
        let plain = || {
            let t0 = Instant::now();
            std::hint::black_box(solver.run().expect("paired untraced repetition"));
            t0.elapsed().as_secs_f64()
        };
        let before = plain();
        let factor = rec.open("factor", "solver", Some(root), group);
        let result = traced_solver.run();
        rec.close(factor);
        let beside = 0.5 * (before + plain());
        attempted += 3;
        match result {
            Ok(report) => {
                trace_cost.push(rec.spans()[factor].duration() / beside - 1.0);
                if let Some(tl) = &report.timeline {
                    // inside `run`: plan, DAG build and the dense→tile
                    // copy come before the first task
                    let before_dag = plan_s[rep] + build_s[rep] + to_tiles_s;
                    hang_timeline(&mut rec, factor, before_dag, tl);
                }
                folds.push(RepFold::of([&report], report.makespan));
                let f = factors(report);
                if reference_hash != Some(factor_hash(&f)) {
                    failed += 1;
                    notes.push("traced factors differ from untraced ones".into());
                }
                if rep == 0 {
                    // the O(n³) check `Solver::verify(true)` adds to a run
                    let (residual, id) = rec.time("verify", "core", Some(root), group, || {
                        if shape.algorithm == Algorithm::Cholesky {
                            f.cholesky_residual(a)
                        } else {
                            std::hint::black_box(f.growth_factor(a));
                            f.residual(a)
                        }
                    });
                    verified = Some((residual, rec.spans()[id].duration()));
                }
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("traced run failed: {e}"));
            }
        }
        rec.close(root);
    }

    m.put("matrix.gen_s", median(&gen_s));
    m.put("dag.build_s", median(&build_s));
    m.put(
        "dag.build_ns_per_task",
        median(&build_s) / g.len() as f64 * 1e9,
    );
    put_schedule(&folds, &mut m);

    // core rungs through the layer's own entry points
    let cfg = plan.calu_config();
    let raw = median(&timed_reps(ctx.seconds * 0.1, 3, 30, || {
        let f = match shape.algorithm {
            Algorithm::Cholesky => cholesky_factor(a, &cfg),
            _ => calu_factor(a, &cfg),
        };
        std::hint::black_box(f.expect("raw factorization"));
    }));
    m.put("core.raw_factor_s", raw);
    if threads > 1 {
        let single = shape.solver(a.clone(), 1, false, ctx.seed);
        let t1 = median(&timed_reps(ctx.seconds * 0.3, 5, 30, || {
            std::hint::black_box(single.run().expect("single-thread repetition"));
        }));
        m.put("core.t1_wall_s", t1);
        m.put("core.parallel_eff", t1 / (threads as f64 * wall));
    }
    if shape.algorithm == Algorithm::Calu {
        let gepp = median(&timed_reps(0.0, 3, 3, || {
            std::hint::black_box(gepp_factor(a, shape.b));
        }));
        m.put("core.gepp_wall_s", gepp);
        m.put("core.calu_over_gepp", wall / gepp);
    }
    if shape.degraded {
        let healthy = shape.solver(a.clone(), threads, false, ctx.seed);
        let healthy_s = median(&timed_reps(ctx.seconds * 0.15, 3, 30, || {
            std::hint::black_box(healthy.run().expect("healthy repetition"));
        }));
        m.put("core.degraded_over_healthy", wall / healthy_s);
    }
    let residual_check = m.put_verify(verified, wall);

    // the facade: what `Solver::run` costs beyond the DAG it runs
    let plan_med = median(&plan_s);
    m.put_facade(wall, makespan, raw, plan_med);
    m.put_roofline(shape.flops(), wall, threads);
    m.put(
        "solver.unattributed_s",
        wall - makespan - to_tiles_s - to_dense_s - plan_med,
    );
    m.put("solver.trace_overhead_frac", median(&trace_cost));

    Traced {
        attempted,
        failed,
        notes,
        residual_check,
        metrics: m.0,
        recorder: rec,
    }
}
