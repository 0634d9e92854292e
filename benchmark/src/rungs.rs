//! Standalone layer rungs: each calls one layer's public functions from
//! outside, at the shapes the workload uses, and records a `replica` span
//! so the trace shows where the rung ran. Rungs are the per-layer numbers
//! that cannot be folded from a `Report`.

use std::hint::black_box;
use std::time::Instant;

use calu::core::tslu::tournament_pivots;
use calu::dag::critical_path::{critical_path, unit_critical_path};
use calu::dag::TaskGraph;
use calu::kernels::{
    dgemm_nt_packed, dgemm_packed, dgetrf_recursive_packed, dpotrf_blocked, dsyrk_ln_packed,
    dtrsm_left_lower_unit_packed, flops, GemmScratch,
};
use calu::matrix::{
    gen, BclMatrix, CmTiles, DenseMatrix, Layout, ProcessGrid, TileStorage, TlbMatrix,
};
use calu::sched::{
    make_policy_with, AdaptiveController, AdaptivePolicy, ClassLanes, CpuTopology, Deque, JobClass,
    Observation, QueueDiscipline, SchedulerKind, Steal,
};
use calu::sim::{cost, MachineConfig, NoiseConfig};
use calu::{MatrixSource, SimulatedBackend, Solver};

use crate::run::{per_call_secs, timed_reps, Metrics};
use crate::spans::{Recorder, SpanId};
use crate::stats::median;

/// The figure bins' OS-noise seed (`calu_bench::NOISE_SEED`), restated
/// because this package cannot depend on `crates/bench`.
const NOISE_SEED: u64 = 42;

/// Rung spans belong to no repetition or job: group 0.
const RUNG_GROUP: u64 = 0;

/// The root span a pass's rungs hang under in the trace.
#[derive(Clone, Copy)]
pub struct At {
    pub parent: SpanId,
}

impl At {
    /// Open the root; the caller closes `parent` when the last rung ends.
    pub fn root(rec: &mut Recorder) -> At {
        let parent = rec.open("rungs", "benchmark", None, RUNG_GROUP);
        rec.mark_replica(parent);
        At { parent }
    }
}

/// Run `f` as a replica span of `layer` and hand back its result.
fn rung<R>(
    rec: &mut Recorder,
    at: At,
    name: &str,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let (out, id) = rec.time(name, layer, Some(at.parent), RUNG_GROUP, f);
    rec.mark_replica(id);
    out
}

/// `calu-kernels` at tile size `b`: this run's own single-thread GEMM
/// roofline, then each tile kernel the task bodies issue, at the tile
/// shape they issue it. `slice` is the time given to each timing loop.
pub fn kernels(rec: &mut Recorder, at: At, b: usize, peak_n: usize, slice: f64, m: &mut Metrics) {
    rung(rec, at, "kernels", "kernels", || {
        let fill = |rows, cols, seed| gen::uniform(rows, cols, seed).into_vec();
        let mut scratch = GemmScratch::sized_for(peak_n.max(b), peak_n.max(b), peak_n.max(b));

        // peak: one large packed GEMM, median of a few calls
        let (pa, pb) = (fill(peak_n, peak_n, 1), fill(peak_n, peak_n, 2));
        let mut pc = fill(peak_n, peak_n, 3);
        let peak_s = median(&timed_reps(slice * 3.0, 3, 9, || {
            dgemm_packed(
                peak_n,
                peak_n,
                peak_n,
                -1.0,
                &pa,
                peak_n,
                &pb,
                peak_n,
                1.0,
                &mut pc,
                peak_n,
                &mut scratch,
            );
            black_box(&pc);
        }));
        let peak = flops::gemm(peak_n, peak_n, peak_n) / peak_s / 1e9;
        m.put("kernels.gemm_peak_gflops", peak);

        let (ta, tb) = (fill(b, b, 4), fill(b, b, 5));
        let mut tc = fill(b, b, 6);
        let tile_flops = flops::gemm(b, b, b);
        let gemm_s = per_call_secs(slice, || {
            dgemm_packed(b, b, b, -1.0, &ta, b, &tb, b, 1.0, &mut tc, b, &mut scratch);
            black_box(&tc);
        });
        m.put("kernels.gemm_tile_gflops", tile_flops / gemm_s / 1e9);
        m.put(
            "kernels.gemm_tile_over_peak",
            tile_flops / gemm_s / 1e9 / peak,
        );

        let nt_s = per_call_secs(slice, || {
            dgemm_nt_packed(b, b, b, -1.0, &ta, b, &tb, b, 1.0, &mut tc, b, &mut scratch);
            black_box(&tc);
        });
        m.put("kernels.gemm_nt_tile_gflops", tile_flops / nt_s / 1e9);

        let syrk_s = per_call_secs(slice, || {
            dsyrk_ln_packed(b, b, -1.0, &ta, b, 1.0, &mut tc, b, &mut scratch);
            black_box(&tc);
        });
        m.put("kernels.syrk_tile_gflops", tile_flops / 2.0 / syrk_s / 1e9);

        // the in-place kernels destroy their operand, so each call works
        // on a fresh copy; the copy is O(b²) beside O(b³) of work
        let rhs = fill(b, b, 7);
        let mut work = rhs.clone();
        let trsm_s = per_call_secs(slice, || {
            work.copy_from_slice(&rhs);
            dtrsm_left_lower_unit_packed(b, b, &ta, b, &mut work, b, &mut scratch);
            black_box(&work);
        });
        m.put("kernels.trsm_tile_gflops", flops::trsm(b, b) / trsm_s / 1e9);

        let spd = gen::spd_uniform(b, 8).into_vec();
        let mut work = spd.clone();
        let potrf_s = per_call_secs(slice, || {
            work.copy_from_slice(&spd);
            black_box(dpotrf_blocked(
                b,
                &mut work,
                b,
                calu::kernels::trsm::TRSM_NB,
            ));
        });
        m.put(
            "kernels.potrf_tile_gflops",
            flops::cholesky(b) / potrf_s / 1e9,
        );

        // a TSLU leaf: a few tile rows of one panel
        let leaf_rows = 4 * b;
        let panel = fill(leaf_rows, b, 9);
        let mut work = panel.clone();
        let getrf_s = per_call_secs(slice, || {
            work.copy_from_slice(&panel);
            black_box(dgetrf_recursive_packed(
                leaf_rows,
                b,
                &mut work,
                leaf_rows,
                &mut scratch,
            ));
        });
        m.put(
            "kernels.getrf_panel_gflops",
            flops::getrf(leaf_rows, b) / getrf_s / 1e9,
        );
    });
}

/// Exact flop count of one repetition's DAGs and the bytes their tasks
/// touch, computed from tile sizes (cache misses are not in it).
pub fn kernel_counts(graphs: &[TaskGraph], m: &mut Metrics) {
    let mut tiles = Vec::new();
    let (mut total, mut bytes) = (0.0, 0.0);
    for g in graphs {
        total += cost::total_flops(g);
        for t in g.ids() {
            cost::task_tiles(g, t, &mut tiles);
            bytes += tiles
                .iter()
                .map(|&(i, j)| cost::tile_bytes(g, i, j))
                .sum::<f64>();
        }
    }
    m.put("kernels.flops", total);
    m.put("kernels.bytes_computed", bytes);
    m.put("kernels.ops_per_byte_computed", total / bytes.max(1.0));
}

/// Tiled storage of `a` in `layout`, behind the trait the executor uses.
fn to_tiles(a: &DenseMatrix, b: usize, grid: ProcessGrid, layout: Layout) -> Box<dyn TileStorage> {
    match layout {
        Layout::ColumnMajor => Box::new(CmTiles::from_dense(a, b)),
        Layout::BlockCyclic => Box::new(BclMatrix::from_dense(a, b, grid)),
        Layout::TwoLevelBlock => Box::new(TlbMatrix::from_dense(a, b, grid)),
    }
}

/// `calu-matrix`: dense→tile conversion for the plan's layout, the way
/// back, and a plain copy of the same bytes as the yardstick.
#[allow(clippy::too_many_arguments)]
pub fn matrix(
    rec: &mut Recorder,
    at: At,
    a: &DenseMatrix,
    b: usize,
    grid: ProcessGrid,
    layout: Layout,
    llc_bytes: u64,
    m: &mut Metrics,
) {
    let bytes = (a.rows() * a.cols() * 8) as f64;
    let mut tiled = None;
    let to_tiles_s = rung(rec, at, "to_tiles", "matrix", || {
        median(&timed_reps(0.0, 3, 3, || {
            tiled = Some(to_tiles(a, b, grid, layout))
        }))
    });
    let tiled = tiled.expect("three conversions ran");
    let to_dense_s = rung(rec, at, "to_dense", "matrix", || {
        median(&timed_reps(0.0, 3, 3, || {
            black_box(tiled.to_dense());
        }))
    });
    let copy_s = rung(rec, at, "copy", "matrix", || {
        let mut dst = vec![0.0; a.as_slice().len()];
        median(&timed_reps(0.0, 3, 3, || {
            dst.copy_from_slice(a.as_slice());
            black_box(&dst);
        }))
    });
    m.put("matrix.to_tiles_s", to_tiles_s);
    m.put("matrix.to_dense_s", to_dense_s);
    // read once, written once: bytes moved are computed, not measured
    m.put("matrix.to_tiles_gbps", 2.0 * bytes / to_tiles_s / 1e9);
    m.put("matrix.copy_gbps", 2.0 * bytes / copy_s / 1e9);
    // a bandwidth ratio means something only when the array cannot sit
    // in the last-level cache
    if llc_bytes > 0 && bytes >= 4.0 * llc_bytes as f64 {
        m.put("matrix.layout_over_copy", to_tiles_s / copy_s);
    }
}

/// `calu-dag`: structure of one repetition's graphs — task and edge
/// counts summed, the critical path taken from the largest graph (build
/// time is measured by the caller, around the plan's own `build_graph`).
pub fn dag_shape(graphs: &[TaskGraph], m: &mut Metrics) {
    m.put("dag.tasks", graphs.iter().map(|g| g.len() as f64).sum());
    m.put(
        "dag.edges",
        graphs.iter().map(|g| g.num_edges() as f64).sum(),
    );
    let g = largest(graphs);
    m.put(
        "dag.critical_path_tasks",
        unit_critical_path(g).tasks.len() as f64,
    );
    let weighted = critical_path(g, |_| true, |t| cost::task_flops(g, t));
    m.put(
        "dag.critical_path_frac",
        weighted.length / cost::total_flops(g).max(1.0),
    );
}

/// The graph with the most tasks.
pub fn largest(graphs: &[TaskGraph]) -> &TaskGraph {
    graphs
        .iter()
        .max_by_key(|g| g.len())
        .expect("a repetition has at least one graph")
}

/// Single-threaded pop/complete of the whole DAG through one policy: the
/// decision procedure's cost per task with no kernels running.
fn drain_ns_per_task(g: &TaskGraph, grid: ProcessGrid, queue: QueueDiscipline) -> f64 {
    let cores = grid.size();
    let secs = median(&timed_reps(0.0, 3, 3, || {
        let mut p = make_policy_with(SchedulerKind::Hybrid { dratio: 0.1 }, queue, g, grid);
        let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        let mut done = 0;
        while done < g.len() {
            for core in 0..cores {
                if let Some(popped) = p.pop(core) {
                    done += 1;
                    for &s in g.successors(popped.task) {
                        deps[s.idx()] -= 1;
                        if deps[s.idx()] == 0 {
                            p.on_ready(s, Some(core));
                        }
                    }
                }
            }
        }
    }));
    secs / g.len() as f64 * 1e9
}

/// `calu-sched`: the three queue disciplines over the workload's DAG, and
/// the primitives under them.
pub fn sched(
    rec: &mut Recorder,
    at: At,
    g: &TaskGraph,
    grid: ProcessGrid,
    seed: u64,
    slice: f64,
    m: &mut Metrics,
) {
    rung(rec, at, "sched", "sched", || {
        for (name, queue) in [
            ("sched.drain_global_ns_per_task", QueueDiscipline::Global),
            (
                "sched.drain_sharded_ns_per_task",
                QueueDiscipline::Sharded { seed },
            ),
            (
                "sched.drain_lockfree_ns_per_task",
                QueueDiscipline::LockFree { seed },
            ),
        ] {
            m.put(name, drain_ns_per_task(g, grid, queue));
        }

        let deque = Deque::with_capacity(1024);
        let push_pop = per_call_secs(slice, || {
            deque.push(7).expect("deque has room");
            black_box(deque.pop());
        });
        m.put("sched.deque_push_pop_ns", push_pop * 1e9);
        // one push + one steal, like the pair above: the owner is idle
        // here, so a steal can only succeed
        let steal = per_call_secs(slice, || {
            deque.push(7).expect("deque has room");
            assert!(matches!(deque.steal(), Steal::Taken(7)));
        });
        m.put("sched.deque_steal_ns", steal * 1e9);

        let mut lanes = ClassLanes::new(4);
        let lane = per_call_secs(slice, || {
            for class in JobClass::ALL {
                lanes.push(class, 1u64);
            }
            for _ in 0..3 {
                black_box(lanes.pop());
            }
        });
        m.put("sched.lanes_push_pop_ns", lane / 3.0 * 1e9);

        let threads = grid.size();
        let obs = Observation::new(threads, 0.1, 0.02).with_contention(0.3);
        // a fresh controller per loop keeps its step trace from growing
        // without bound; construction is amortized over the observations
        const PER_CONTROLLER: usize = 64;
        let observe = per_call_secs(slice, || {
            let mut ctl = AdaptiveController::new(
                AdaptivePolicy::new(seed),
                &CpuTopology::flat(threads),
                threads,
            );
            for _ in 0..PER_CONTROLLER {
                ctl.observe(&obs);
                black_box(ctl.plan_choice());
            }
        });
        m.put(
            "sched.adaptive_observe_ns",
            observe / PER_CONTROLLER as f64 * 1e9,
        );
    });
}

/// `calu-core` rungs below the executor: the tournament on the first
/// panel (LU only).
pub fn tslu_panel(
    rec: &mut Recorder,
    at: At,
    a: &DenseMatrix,
    b: usize,
    leaves: usize,
    m: &mut Metrics,
) {
    let panel = a.submatrix(0, 0, a.rows(), b.min(a.cols()));
    let secs = rung(rec, at, "tslu_panel", "core", || {
        median(&timed_reps(0.0, 3, 3, || {
            black_box(tournament_pivots(&panel, leaves));
        }))
    });
    m.put("core.tslu_panel_s", secs);
}

/// `calu-sim`: one simulated run of the paper's sweep point, and the
/// modelled hybrid-over-static/dynamic gains on the 48-core AMD model —
/// seeded and exact, so a refactor of `calu-sched` that changes them has
/// changed the paper reproduction.
pub fn sim(rec: &mut Recorder, at: At, n_run: usize, n_gain: usize, m: &mut Metrics) {
    rung(rec, at, "sim", "sim", || {
        let machine = MachineConfig::amd_opteron_48(NoiseConfig::os_daemons(NOISE_SEED));
        let run = |n: usize, sched: SchedulerKind| {
            Solver::new(MatrixSource::shape(n, n))
                .scheduler(sched)
                .backend(SimulatedBackend::new(machine.clone()))
                .run()
                .expect("simulated run")
        };
        let t0 = Instant::now();
        let report = run(n_run, SchedulerKind::Hybrid { dratio: 0.1 });
        let secs = t0.elapsed().as_secs_f64();
        m.put("sim.run_s", secs);
        m.put("sim.tasks_per_s", report.tasks as f64 / secs);
        let hybrid = run(n_gain, SchedulerKind::Hybrid { dratio: 0.1 }).gflops();
        let fixed = run(n_gain, SchedulerKind::Static).gflops();
        let dynamic = run(n_gain, SchedulerKind::Dynamic).gflops();
        m.put("sim.hybrid_over_static_gain", hybrid / fixed - 1.0);
        m.put("sim.hybrid_over_dynamic_gain", hybrid / dynamic - 1.0);
    });
}
