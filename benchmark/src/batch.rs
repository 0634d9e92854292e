//! `batch_small`: one `Solver::batch` sweep of many small dense matrices
//! per repetition.

use std::time::Instant;

use calu::core::{factor_batch, BatchItem, BatchSource};
use calu::dag::TaskGraph;
use calu::matrix::{gen, DenseMatrix};
use calu::report::nominal_flops;
use calu::{Algorithm, BatchReport, MatrixSource, Solver};

use crate::check::{combine_hashes, factor_hash, probe_residual, SplitMix};
use crate::fold::{put_schedule, RepFold};
use crate::run::{
    set_up_timed, timed_reps, Ctx, EndToEnd, Metrics, Traced, MIN_REPS, REP_TAIL, TRACED_REPS,
    WARMUP_REPS,
};
use crate::rungs::{self, At};
use crate::spans::Recorder;
use crate::stats::median;

#[derive(Debug, Clone, Copy)]
pub struct BatchShape {
    pub items: usize,
    /// Item orders. Every size gets the same share of the items whatever
    /// the seed, so a repetition's flop count does not depend on it; the
    /// seed decides the order of the items and their contents.
    pub sizes: &'static [usize],
    pub b: usize,
}

impl BatchShape {
    fn sources(&self, seed: u64) -> Vec<MatrixSource> {
        let mut rng = SplitMix(seed);
        let mut orders: Vec<usize> = (0..self.items)
            .map(|i| self.sizes[i % self.sizes.len()])
            .collect();
        rng.shuffle(&mut orders);
        orders
            .into_iter()
            .map(|n| MatrixSource::Dense(gen::uniform(n, n, rng.next_u64())))
            .collect()
    }

    /// Knobs only: the solver's own source is not part of a batch.
    fn solver(&self, threads: usize) -> Solver {
        let n = self.sizes.iter().copied().max().unwrap_or(1);
        Solver::new(MatrixSource::shape(n, n))
            .tile(self.b)
            .threads(threads)
            .verify(false)
    }

    fn set_up(&self, ctx: &Ctx) -> (Solver, Vec<MatrixSource>) {
        let sources = self.sources(ctx.seed);
        let solver = self.solver(ctx.threads());
        for _ in 0..WARMUP_REPS {
            solver.batch(&sources).expect("warm-up sweep");
        }
        (solver, sources)
    }
}

fn dense(source: &MatrixSource) -> &DenseMatrix {
    match source {
        MatrixSource::Dense(a) => a,
        _ => unreachable!("batch_small items are pre-materialized"),
    }
}

fn flops(sources: &[MatrixSource]) -> f64 {
    sources
        .iter()
        .map(|s| {
            let (m, n) = s.dims();
            nominal_flops(Algorithm::Calu, m, n)
        })
        .sum()
}

/// One hash over the sweep's factors, in item order.
fn sweep_hash(batch: &BatchReport) -> u64 {
    combine_hashes(batch.items.iter().map(|r| {
        factor_hash(
            r.factorization
                .as_ref()
                .expect("the threaded backend returns factors"),
        )
    }))
}

/// Largest probe residual over the sweep's items.
fn sweep_residual(batch: &BatchReport, sources: &[MatrixSource], seed: u64) -> f64 {
    batch
        .items
        .iter()
        .zip(sources)
        .map(|(r, s)| {
            let f = r
                .factorization
                .as_ref()
                .expect("the threaded backend returns factors");
            probe_residual(Algorithm::Calu, dense(s), f, seed)
        })
        .fold(0.0, f64::max)
}

pub fn end_to_end(shape: &BatchShape, ctx: &Ctx) -> EndToEnd {
    let mut out = EndToEnd {
        tail_percentile: REP_TAIL,
        ..Default::default()
    };
    let (solver, sources) = set_up_timed(&mut out.setup_s, || shape.set_up(ctx), drop);
    out.flops_per_rep = flops(&sources);

    let start = Instant::now();
    while out.wall_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let t0 = Instant::now();
        let result = solver.batch(&sources);
        let wall = t0.elapsed().as_secs_f64();
        out.attempted += sources.len() as u64;
        let batch = match result {
            Ok(batch) => batch,
            Err(e) => {
                out.failed += sources.len() as u64;
                out.notes.push(format!("sweep failed: {e}"));
                if out.notes.len() > 3 {
                    break;
                }
                continue;
            }
        };
        out.wall_s.push(wall);
        out.latency_s.push(wall);
        let hash = sweep_hash(&batch);
        if out.wall_s.len() == 1 {
            out.factor_hash = hash;
            out.residual_check = sweep_residual(&batch, &sources, ctx.seed);
        } else if hash != out.factor_hash {
            out.failed += 1;
            out.notes.push("factor hash differs between sweeps".into());
        }
    }
    out
}

pub fn traced(shape: &BatchShape, ctx: &Ctx) -> Traced {
    let mut rec = Recorder::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let threads = ctx.threads();
    let slice = ctx.seconds * 0.004;

    let (solver, sources) = shape.set_up(ctx);
    let plan = solver.plan().expect("workload knobs are valid");
    let items = sources.len();

    // untraced reference sweeps: wall around the public call, and the
    // engine's own clock for the same sweep
    let mut walls = Vec::new();
    let mut engine = Vec::new();
    let mut spawn = Vec::new();
    let mut item_makespans = Vec::new();
    let mut reference_hash = None;
    timed_reps(ctx.seconds * 0.15, 3, 50, || {
        let t0 = Instant::now();
        let batch = solver.batch(&sources).expect("untraced sweep");
        walls.push(t0.elapsed().as_secs_f64());
        engine.push(batch.wall_secs);
        spawn.push(batch.pool_spawn_secs);
        item_makespans.extend(batch.items.iter().map(|r| r.makespan));
        attempted += items as u64;
        let hash = sweep_hash(&batch);
        if *reference_hash.get_or_insert(hash) != hash {
            failed += 1;
            notes.push("factor hash differs between sweeps".into());
        }
    });
    let wall = median(&walls);

    // layer rungs at the sweep's shapes
    let build_all = || -> Vec<TaskGraph> {
        sources
            .iter()
            .map(|s| {
                let (rows, cols) = s.dims();
                TaskGraph::build_calu(rows, cols, shape.b, plan.leaf_stride())
            })
            .collect()
    };
    let graphs = build_all();
    let biggest = sources
        .iter()
        .map(dense)
        .max_by_key(|a| a.rows())
        .expect("a sweep has items");
    let at = At::root(&mut rec);
    let peak_n = if ctx.smoke { 128 } else { 1024 };
    rungs::kernels(&mut rec, at, shape.b, peak_n, slice, &mut m);
    rungs::kernel_counts(&graphs, &mut m);
    rungs::matrix(
        &mut rec,
        at,
        biggest,
        shape.b,
        plan.grid,
        plan.layout(),
        ctx.host.llc_bytes,
        &mut m,
    );
    rungs::dag_shape(&graphs, &mut m);
    rungs::sched(
        &mut rec,
        at,
        rungs::largest(&graphs),
        plan.grid,
        ctx.seed,
        slice,
        &mut m,
    );
    rec.close(at.parent);

    // traced sweeps. Item timelines each start at their own first task
    // and the API does not say when that was, so nothing of the program's
    // hangs under `factor` here; task time by kind is folded from them.
    let traced_solver = shape.solver(threads).trace(true);
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
            std::hint::black_box(shape.sources(ctx.seed));
        });
        gen_s.push(rec.spans()[id].duration());
        // `batch` plans once per item
        let (_, id) = rec.time("plan", "solver", Some(root), group, || {
            for _ in 0..items {
                std::hint::black_box(traced_solver.plan().expect("workload knobs are valid"));
            }
        });
        plan_s.push(rec.spans()[id].duration());
        let (_, id) = rec.time("dag.build", "dag", Some(root), group, || {
            std::hint::black_box(build_all());
        });
        build_s.push(rec.spans()[id].duration());

        // an untraced sweep on either side of the traced one, in the same
        // allocator and cache state, prices the tracing itself
        let plain = || {
            let t0 = Instant::now();
            std::hint::black_box(solver.batch(&sources).expect("paired untraced sweep"));
            t0.elapsed().as_secs_f64()
        };
        let before = plain();
        let (result, factor) = rec.time("factor", "solver", Some(root), group, || {
            traced_solver.batch(&sources)
        });
        let beside = 0.5 * (before + plain());
        attempted += 3 * items as u64;
        match result {
            Ok(batch) => {
                trace_cost.push(rec.spans()[factor].duration() / beside - 1.0);
                folds.push(RepFold::of(&batch.items, batch.wall_secs));
                if reference_hash != Some(sweep_hash(&batch)) {
                    failed += 1;
                    notes.push("traced factors differ from untraced ones".into());
                }
                if rep == 0 {
                    // the O(n³) check `Solver::verify(true)` adds per item
                    let (residual, id) = rec.time("verify", "core", Some(root), group, || {
                        batch
                            .items
                            .iter()
                            .zip(&sources)
                            .map(|(r, s)| {
                                let f = r.factorization.as_ref().expect("factors");
                                std::hint::black_box(f.growth_factor(dense(s)));
                                f.residual(dense(s))
                            })
                            .fold(0.0, f64::max)
                    });
                    verified = Some((residual, rec.spans()[id].duration()));
                }
            }
            Err(e) => {
                failed += items as u64;
                notes.push(format!("traced sweep failed: {e}"));
            }
        }
        rec.close(root);
    }

    m.put("matrix.gen_s", median(&gen_s));
    m.put("dag.build_s", median(&build_s));
    let tasks: usize = graphs.iter().map(TaskGraph::len).sum();
    m.put(
        "dag.build_ns_per_task",
        median(&build_s) / tasks as f64 * 1e9,
    );
    put_schedule(&folds, &mut m);
    m.put("core.batch_item_makespan_p50_s", median(&item_makespans));
    m.put("core.pool_spawn_s", median(&spawn));

    // the same sweep through `calu-core`'s own batch entry point
    let cfg = plan.calu_config();
    let raw_items: Vec<BatchItem<'_>> = sources
        .iter()
        .map(|s| BatchItem::lu(BatchSource::Dense(dense(s))))
        .collect();
    let raw = median(&timed_reps(ctx.seconds * 0.1, 3, 30, || {
        std::hint::black_box(factor_batch(&raw_items, &cfg).expect("raw sweep"));
    }));
    m.put("core.raw_factor_s", raw);
    if threads > 1 {
        let single = shape.solver(1);
        let t1 = median(&timed_reps(ctx.seconds * 0.25, 5, 30, || {
            std::hint::black_box(single.batch(&sources).expect("single-thread sweep"));
        }));
        m.put("core.t1_wall_s", t1);
        m.put("core.parallel_eff", t1 / (threads as f64 * wall));
    }
    // what the persistent pool buys: the same items, one `run` each
    let solo: Vec<Solver> = sources
        .iter()
        .map(|s| {
            Solver::new(s.clone())
                .tile(shape.b)
                .threads(threads)
                .verify(false)
        })
        .collect();
    let looped = median(&timed_reps(0.0, 3, 3, || {
        for s in &solo {
            std::hint::black_box(s.run().expect("solo run"));
        }
    }));
    m.put("core.batch_over_loop", wall / looped);
    let residual_check = m.put_verify(verified, wall);

    let engine_s = median(&engine);
    let plan_med = median(&plan_s);
    m.put_facade(wall, engine_s, raw, plan_med);
    m.put_roofline(flops(&sources), wall, threads);
    // the engine's clock already covers each item's tile conversion
    m.put("solver.unattributed_s", wall - engine_s - plan_med);
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
