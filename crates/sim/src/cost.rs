//! The task cost model: flops, kernel efficiencies, dequeue/steal
//! pricing, and touched tiles.

use calu_dag::{Algorithm, TaskGraph, TaskId, TaskKind};
use calu_matrix::Layout;
use calu_sched::QueueSource;

use crate::machine::MachineConfig;

/// Extra-work multiplier of incremental pivoting's stacked panel
/// factorizations (TSTRF) relative to a plain trsm — the price PLASMA
/// pays for taking the panel off the critical path.
const INCPIV_TSTRF_OVERHEAD: f64 = 1.20;
/// Extra-work multiplier of SSSSM relative to a plain gemm tile update
/// (inner-blocking overhead of incremental pivoting).
const INCPIV_SSSSM_OVERHEAD: f64 = 1.12;

/// Flops of GEPP on an `m × n` panel.
fn getrf_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    (m * n * n - n * n * n / 3.0).max(0.0)
}

/// Useful flops of task `t` in graph `g`, honoring the algorithm and
/// ragged edge tiles.
pub fn task_flops(g: &TaskGraph, t: TaskId) -> f64 {
    let b = g.block();
    let kind = g.kind(t);
    let rc = |i: usize| g.tile_row_count(i) as f64;
    let cc = |j: usize| g.tile_col_count(j) as f64;
    match (g.algorithm(), kind) {
        // --- CALU ---
        (Algorithm::Calu, TaskKind::PanelLeaf { k, i }) => {
            let rows: usize = g.leaf_rows(i as usize).map(|ti| g.tile_row_count(ti)).sum();
            getrf_flops(rows, g.tile_col_count(k as usize))
        }
        (Algorithm::Calu, TaskKind::PanelCombine { k, .. }) => {
            let w = g.tile_col_count(k as usize);
            getrf_flops(2 * w, w)
        }
        (Algorithm::Calu, TaskKind::PanelFinish { k }) => {
            let w = g.tile_col_count(k as usize);
            getrf_flops(w, w)
        }
        (Algorithm::Calu, TaskKind::ComputeL { k, i }) => {
            cc(k as usize) * cc(k as usize) * rc(i as usize)
        }

        // --- GEPP with sequential panel: finish covers the whole panel ---
        (Algorithm::Gepp, TaskKind::PanelFinish { k }) => {
            let rows = g.rows() - (k as usize) * b;
            getrf_flops(rows, g.tile_col_count(k as usize))
        }

        // --- Cholesky (future-work extension, §9) ---
        (Algorithm::Cholesky, TaskKind::PanelFinish { k }) => {
            // POTRF: n^3/3
            let w = cc(k as usize);
            w * w * w / 3.0
        }
        (Algorithm::Cholesky, TaskKind::ComputeL { k, i }) => {
            cc(k as usize) * cc(k as usize) * rc(i as usize)
        }
        (Algorithm::Cholesky, TaskKind::Update { k, i, j }) => {
            let f = 2.0 * rc(i as usize) * cc(j as usize) * cc(k as usize);
            if i == j {
                f / 2.0 // SYRK does half the gemm flops
            } else {
                f
            }
        }

        // --- incremental pivoting ---
        (Algorithm::IncPiv, TaskKind::PanelFinish { k }) => {
            let w = g.tile_col_count(k as usize);
            getrf_flops(w, w)
        }
        (Algorithm::IncPiv, TaskKind::ComputeL { k, i }) => {
            INCPIV_TSTRF_OVERHEAD * rc(i as usize) * cc(k as usize) * cc(k as usize)
        }
        (Algorithm::IncPiv, TaskKind::Update { k, i, j }) => {
            INCPIV_SSSSM_OVERHEAD * 2.0 * rc(i as usize) * cc(j as usize) * cc(k as usize)
        }

        // --- shared shapes ---
        (_, TaskKind::ComputeU { k, j }) => cc(k as usize) * cc(k as usize) * cc(j as usize),
        (_, TaskKind::Update { k, i, j }) => 2.0 * rc(i as usize) * cc(j as usize) * cc(k as usize),
        // unreachable combinations (e.g. GEPP PanelLeaf) cost nothing
        _ => 0.0,
    }
}

/// Kernel efficiency (fraction of core peak) for a task of `kind` on
/// `layout` executed as part of a batch of `batch` grouped tasks.
///
/// Values approximate how our pure-Rust kernels (and any BLAS) behave:
/// panel factorizations are BLAS-2-bound, triangular solves middling, and
/// gemm efficiency grows with operand size — which is exactly why the BCL
/// layout's grouped updates (§4.1) pay off, and why the 2l-BL layout's
/// cache-resident tiles beat plain column-major.
///
/// Calibration note: `calu-kernels` moved from the seed jki AXPY loop to
/// BLIS-style packed, register-tiled kernels (MR/NR/MC/KC/NC blocking —
/// see the `calu_kernels::gemm` module docs), which roughly tripled
/// sustained GEMM Gflop/s and raised TRSM/GETRF accordingly (measure
/// with the `kernels` bench bin). The *relative* efficiencies encoded
/// here (panel < trsm < gemm, and the layout/grouping ordering) still
/// match that kernel family; only the absolute peak fraction each row
/// represents shifted with the faster kernels.
pub(crate) fn kernel_eff(kind: &TaskKind, layout: Layout, batch: usize) -> f64 {
    match kind {
        // GEPP's sequential whole-panel task runs at the machine's own
        // calibrated `gepp_panel_eff` instead (the engine applies it)
        TaskKind::PanelLeaf { .. }
        | TaskKind::PanelCombine { .. }
        | TaskKind::PanelFinish { .. } => 0.34,
        TaskKind::ComputeL { .. } | TaskKind::ComputeU { .. } => match layout {
            Layout::ColumnMajor => 0.50,
            Layout::BlockCyclic => 0.55,
            Layout::TwoLevelBlock => 0.58,
        },
        TaskKind::Update { .. } => {
            let single = match layout {
                Layout::ColumnMajor => 0.66,
                Layout::BlockCyclic => 0.76,
                Layout::TwoLevelBlock => 0.80,
            };
            let eff = match batch {
                0 | 1 => single,
                2 => 0.84,
                _ => 0.88,
            };
            if layout == Layout::BlockCyclic {
                eff
            } else {
                single
            }
        }
    }
}

/// Seconds of scheduler overhead for one dequeue of a task obtained
/// from `source` on machine `m` — §1's "dequeue overhead to pull a task
/// from a work queue", priced by where the task came from:
///
/// * [`QueueSource::Local`] — the core's own static queue: cheapest.
/// * [`QueueSource::Global`] — the shared dynamic queue: the base pop
///   plus a lock-contention term that grows with every other core.
/// * [`QueueSource::Shard`] — the core's own dynamic shard under the
///   mutex-sharded discipline: the base pop, but the lock is per-worker
///   so no all-core contention term — the point of sharding. Under the
///   lock-free discipline the own-deque pop has no lock at all and is
///   priced like a local pop.
/// * [`QueueSource::Stolen`] — a near steal (same socket): the base pop
///   plus half a sweep of per-victim probes.
/// * [`QueueSource::StolenRemote`] — a cross-socket steal: the same
///   sweep, with the per-victim cost scaled by
///   [`MachineConfig::remote_steal_factor`] — the migrated working set
///   crosses the NUMA interconnect ("dynamic migration of data has a
///   significant cost", §1). Only the locality-tiered lock-free
///   discipline reports this source.
///
/// `lock_free` selects the cheaper own-shard pricing described above.
pub(crate) fn dequeue_cost(m: &MachineConfig, source: QueueSource, lock_free: bool) -> f64 {
    let p = m.cores() as f64;
    match source {
        QueueSource::Local => m.dequeue_local,
        QueueSource::Global => m.dequeue_global + m.dequeue_contention * (p - 1.0),
        QueueSource::Shard if lock_free => m.dequeue_local,
        QueueSource::Shard => m.dequeue_global,
        QueueSource::Stolen => m.dequeue_global + m.steal_cost * (p / 2.0),
        QueueSource::StolenRemote => {
            m.dequeue_global + m.steal_cost * m.remote_steal_factor * (p / 2.0)
        }
    }
}

/// Tiles a task reads or writes (cache/NUMA-relevant traffic). The small
/// candidate buffers of the TSLU reduction are ignored — they fit in L1.
pub fn task_tiles(g: &TaskGraph, t: TaskId, out: &mut Vec<(usize, usize)>) {
    out.clear();
    let kind = g.kind(t);
    match (g.algorithm(), kind) {
        (Algorithm::Gepp, TaskKind::PanelFinish { k }) => {
            // the sequential panel task sweeps the whole panel column
            for i in (k as usize)..g.tile_rows() {
                out.push((i, k as usize));
            }
        }
        (Algorithm::Calu, TaskKind::PanelLeaf { k, i }) => {
            for ti in g.leaf_rows(i as usize) {
                out.push((ti, k as usize));
            }
        }
        (_, TaskKind::PanelLeaf { k, i }) => out.push((i as usize, k as usize)),
        (_, TaskKind::PanelCombine { .. }) => {}
        (_, TaskKind::PanelFinish { k }) => out.push((k as usize, k as usize)),
        (_, TaskKind::ComputeL { k, i }) => {
            out.push((k as usize, k as usize));
            out.push((i as usize, k as usize));
        }
        (_, TaskKind::ComputeU { k, j }) => {
            out.push((k as usize, k as usize));
            out.push((k as usize, j as usize));
        }
        (_, TaskKind::Update { k, i, j }) => {
            out.push((i as usize, k as usize));
            out.push((k as usize, j as usize));
            out.push((i as usize, j as usize));
        }
    }
}

/// The tile a task *writes* (dirty-line coherence traffic follows this
/// tile when consecutive writers differ): its `writes_tile`, or `None`
/// for a TSLU leaf or match, which writes only a candidate buffer.
pub(crate) fn task_written_tile(g: &TaskGraph, t: TaskId) -> Option<(usize, usize)> {
    match g.kind(t) {
        TaskKind::PanelLeaf { .. } | TaskKind::PanelCombine { .. } => None,
        kind => Some(kind.writes_tile()),
    }
}

/// Bytes of one tile.
pub fn tile_bytes(g: &TaskGraph, ti: usize, tj: usize) -> f64 {
    (g.tile_row_count(ti) * g.tile_col_count(tj) * 8) as f64
}

/// Total useful flops of the whole graph.
pub fn total_flops(g: &TaskGraph) -> f64 {
    g.ids().map(|t| task_flops(g, t)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calu_total_flops_close_to_nominal() {
        let g = TaskGraph::build(2000, 2000, 100);
        let total = total_flops(&g);
        let nominal = Algorithm::Calu.nominal_flops(2000, 2000);
        // tournament pivoting adds panel work; total within [1x, 1.2x]
        assert!(total > nominal, "CALU does at least the nominal flops");
        assert!(total < 1.2 * nominal, "panel overhead is lower-order");
    }

    #[test]
    fn incpiv_costs_more_than_calu() {
        // compare against the thread-chunked CALU actually simulated
        // (per-tile leaves deliberately over-count the tournament)
        let calu = total_flops(&TaskGraph::build_calu(1500, 1500, 100, 4));
        let incpiv = total_flops(&TaskGraph::build_incpiv(1500, 1500, 100));
        assert!(
            incpiv > 1.03 * calu,
            "incremental pivoting pays extra flops"
        );
        assert!(incpiv < 1.5 * calu);
        // the SSSSM overhead is on the O(n^3) term, so the gap widens
        // with matrix size while CALU's tournament overhead (O(n^2 b))
        // fades
        let calu_big = total_flops(&TaskGraph::build_calu(3000, 3000, 100, 4));
        let incpiv_big = total_flops(&TaskGraph::build_incpiv(3000, 3000, 100));
        assert!(incpiv_big / calu_big > incpiv / calu);
    }

    #[test]
    fn gepp_panel_task_covers_whole_panel() {
        let g = TaskGraph::build_gepp(1000, 1000, 100);
        let f0 = task_flops(&g, g.panel_finish(0));
        assert!((f0 - getrf_flops(1000, 100)).abs() < 1.0);
        let f9 = task_flops(&g, g.panel_finish(9));
        assert!((f9 - getrf_flops(100, 100)).abs() < 1.0);
    }

    #[test]
    fn update_flops_respect_ragged_tiles() {
        let g = TaskGraph::build(250, 250, 100);
        // tile (2,2) is 50x50; update S(0, 2, 2) = 2*50*50*100
        let t = g
            .ids()
            .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i: 2, j: 2 })
            .unwrap();
        assert!((task_flops(&g, t) - 2.0 * 50.0 * 50.0 * 100.0).abs() < 1.0);
    }

    #[test]
    fn batching_raises_gemm_efficiency_only_for_bcl() {
        let s = TaskKind::Update { k: 0, i: 1, j: 1 };
        let single = kernel_eff(&s, Layout::BlockCyclic, 1);
        let batched = kernel_eff(&s, Layout::BlockCyclic, 3);
        assert!(batched > single);
        let tlb1 = kernel_eff(&s, Layout::TwoLevelBlock, 1);
        let tlb3 = kernel_eff(&s, Layout::TwoLevelBlock, 3);
        assert_eq!(tlb1, tlb3, "2l-BL cannot group (§4.2)");
    }

    #[test]
    fn cm_layout_is_least_efficient_for_gemm() {
        let s = TaskKind::Update { k: 0, i: 1, j: 1 };
        let cm = kernel_eff(&s, Layout::ColumnMajor, 1);
        let bcl = kernel_eff(&s, Layout::BlockCyclic, 1);
        let tlb = kernel_eff(&s, Layout::TwoLevelBlock, 1);
        assert!(cm < bcl && bcl < tlb);
    }

    #[test]
    fn tiles_touched_per_task() {
        let g = TaskGraph::build(400, 400, 100);
        let mut tiles = Vec::new();
        let s = g
            .ids()
            .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i: 2, j: 3 })
            .unwrap();
        task_tiles(&g, s, &mut tiles);
        assert_eq!(tiles, vec![(2, 0), (0, 3), (2, 3)]);
        let gepp = TaskGraph::build_gepp(400, 400, 100);
        task_tiles(&gepp, gepp.panel_finish(1), &mut tiles);
        assert_eq!(tiles, vec![(1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn tile_bytes_ragged() {
        let g = TaskGraph::build(250, 250, 100);
        assert_eq!(tile_bytes(&g, 0, 0), 100.0 * 100.0 * 8.0);
        assert_eq!(tile_bytes(&g, 2, 2), 50.0 * 50.0 * 8.0);
    }

    #[test]
    fn dequeue_pricing_orders_the_sources() {
        use crate::machine::NoiseConfig;
        let m = MachineConfig::amd_opteron_48(NoiseConfig::off());
        let local = dequeue_cost(&m, QueueSource::Local, false);
        let shard = dequeue_cost(&m, QueueSource::Shard, false);
        let shard_lf = dequeue_cost(&m, QueueSource::Shard, true);
        let global = dequeue_cost(&m, QueueSource::Global, false);
        let near = dequeue_cost(&m, QueueSource::Stolen, true);
        let remote = dequeue_cost(&m, QueueSource::StolenRemote, true);
        assert!(local < shard, "own shard still pays its (uncontended) lock");
        assert_eq!(shard_lf, local, "lock-free own pop loses the lock");
        assert!(shard < global, "the global queue pays all-core contention");
        assert!(near < remote, "remote steals cross the interconnect");
        assert!(
            (remote - m.dequeue_global) > (near - m.dequeue_global) * m.remote_steal_factor * 0.99,
            "remote scaling applies to the sweep term"
        );
    }
}
