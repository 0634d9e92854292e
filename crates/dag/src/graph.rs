//! Construction and storage of the CALU task graph.

use crate::task::{PaperKind, TaskId, TaskKind};

/// Which factorization algorithm a [`TaskGraph`] describes. The task
/// kinds are shared; the variant changes the dependency shape and how the
/// cost model prices each task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DagVariant {
    /// CALU with tournament pivoting: parallel TSLU reduction tree per
    /// panel (the paper's algorithm).
    Calu,
    /// Gaussian elimination with partial pivoting, LAPACK/MKL style: the
    /// whole panel factorization is **one sequential task** on the
    /// critical path (`PanelFinish` covers the full `(M−k)·b × b` GEPP).
    GeppPanelSeq,
    /// Tiled LU with incremental (block pairwise) pivoting, PLASMA's
    /// `dgetrf_incpiv`: the panel is off the critical path but column
    /// chains serialize (`ComputeL` = TSTRF chain, `Update` = SSSSM
    /// chain) and extra flops are spent on the stacked factorizations.
    TileIncPiv,
    /// Tiled Cholesky factorization (`A = L·Lᵀ`, lower) — the paper's §9
    /// future-work extension: no pivoting, so the DAG is the classic
    /// POTRF (`PanelFinish`) / TRSM (`ComputeL`) / SYRK+GEMM (`Update`)
    /// shape over the lower triangle.
    TileCholesky,
}

/// The complete task dependency graph of a tiled factorization.
///
/// Tasks live in a flat arena indexed by [`TaskId`]; successors are held
/// in CSR form. The arena order is topological: every dependency has a
/// smaller id than its dependents.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    m: usize,
    n: usize,
    b: usize,
    mt: usize,
    nt: usize,
    variant: DagVariant,
    /// TSLU leaves cover every `leaf_stride`-th tile row (CALU variant).
    leaf_stride: usize,
    kinds: Vec<TaskKind>,
    dep_count: Vec<u32>,
    succ_off: Vec<u32>,
    succ: Vec<TaskId>,
    finish_ids: Vec<TaskId>,
}

/// Internal builder accumulating tasks and edges.
struct Builder {
    kinds: Vec<TaskKind>,
    dep_count: Vec<u32>,
    edges: Vec<(u32, u32)>,
    finish_ids: Vec<TaskId>,
}

impl Builder {
    fn new() -> Self {
        Self {
            kinds: Vec::new(),
            dep_count: Vec::new(),
            edges: Vec::new(),
            finish_ids: Vec::new(),
        }
    }

    fn push(&mut self, kind: TaskKind, deps: &[u32]) -> u32 {
        let id = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.dep_count.push(deps.len() as u32);
        for &d in deps {
            debug_assert!(d < id, "dependency must precede dependent");
            self.edges.push((d, id));
        }
        id
    }

    fn finish(mut self, m: usize, n: usize, b: usize, variant: DagVariant) -> TaskGraph {
        // no doubling slack: a shrinking realloc splits in place
        self.kinds.shrink_to_fit();
        self.dep_count.shrink_to_fit();
        let ntasks = self.kinds.len();
        let mut succ_off = vec![0u32; ntasks + 1];
        for &(from, _) in &self.edges {
            succ_off[from as usize + 1] += 1;
        }
        for i in 0..ntasks {
            succ_off[i + 1] += succ_off[i];
        }
        let mut cursor = succ_off.clone();
        let mut succ = vec![TaskId(0); self.edges.len()];
        for &(from, to) in &self.edges {
            let c = &mut cursor[from as usize];
            succ[*c as usize] = TaskId(to);
            *c += 1;
        }
        TaskGraph {
            m,
            n,
            b,
            mt: m.div_ceil(b),
            nt: n.div_ceil(b),
            variant,
            leaf_stride: 1,
            kinds: self.kinds,
            dep_count: self.dep_count,
            succ_off,
            succ,
            finish_ids: self.finish_ids,
        }
    }
}

impl TaskGraph {
    /// Build the DAG for an `m × n` matrix with tile size `b`.
    ///
    /// Dependencies implemented (tile indices; `k` = panel):
    /// * `PanelLeaf(k,i)`   ← `Update(k−1,i,k)` (k>0)
    /// * `PanelCombine`     ← its two children in the binary reduction tree
    /// * `PanelFinish(k)`   ← the tree root
    /// * `ComputeL(k,i)`    ← `PanelFinish(k)`
    /// * `ComputeU(k,j)`    ← `PanelFinish(k)` and every `Update(k−1,i,j)`,
    ///   `i ∈ k..M` — the panel's row swaps span the whole trailing column
    /// * `Update(k,i,j)`    ← `ComputeL(k,i)`, `ComputeU(k,j)`
    pub fn build(m: usize, n: usize, b: usize) -> TaskGraph {
        let mt = m.div_ceil(b);
        Self::build_calu(m, n, b, mt.max(1))
    }

    /// Build the CALU DAG with at most `leaf_stride` TSLU leaves per
    /// panel; leaf `r` covers tile rows `k+r, k+r+leaf_stride, …` (the
    /// residue class `r`). The paper's TSLU is a reduction over the `pr`
    /// threads of the grid column owning the panel ("each thread
    /// executing this task performs a reduction", §3), so passing
    /// `leaf_stride = pr` gives one leaf per participating thread (its
    /// chunk = exactly the tile rows it owns block-cyclically) and a
    /// reduction tree of depth `log2(pr)`. Passing `leaf_stride >= M`
    /// degenerates to one leaf per tile row ([`TaskGraph::build`]).
    pub fn build_calu(m: usize, n: usize, b: usize, leaf_stride: usize) -> TaskGraph {
        assert!(b > 0, "block size must be positive");
        assert!(m > 0 && n > 0, "matrix must be non-empty");
        assert!(leaf_stride > 0, "leaf stride must be positive");
        let mt = m.div_ceil(b);
        let nt = n.div_ceil(b);
        let np = mt.min(nt);

        let mut bld = Builder::new();

        // Update(k-1, i, j) task ids, indexed by i*nt + j.
        let mut prev_update: Vec<u32> = vec![u32::MAX; mt * nt];
        let mut cur_update: Vec<u32> = vec![u32::MAX; mt * nt];

        for k in 0..np {
            // --- TSLU leaves: one per residue class of tile rows ---
            let nleaves = leaf_stride.min(mt - k);
            let mut level_nodes: Vec<u32> = Vec::with_capacity(nleaves);
            let mut deps: Vec<u32> = Vec::new();
            for r in 0..nleaves {
                deps.clear();
                if k > 0 {
                    let mut i = k + r;
                    while i < mt {
                        deps.push(prev_update[i * nt + k]);
                        i += leaf_stride;
                    }
                }
                let id = bld.push(
                    TaskKind::PanelLeaf {
                        k: k as u32,
                        i: (k + r) as u32,
                    },
                    &deps,
                );
                level_nodes.push(id);
            }

            // --- binary reduction tree ---
            let mut level = 1u32;
            while level_nodes.len() > 1 {
                let mut next: Vec<u32> = Vec::with_capacity(level_nodes.len().div_ceil(2));
                for (idx, pair) in level_nodes.chunks(2).enumerate() {
                    if pair.len() == 2 {
                        let id = bld.push(
                            TaskKind::PanelCombine {
                                k: k as u32,
                                level,
                                idx: idx as u32,
                            },
                            pair,
                        );
                        next.push(id);
                    } else {
                        // odd node is promoted unchanged
                        next.push(pair[0]);
                    }
                }
                level_nodes = next;
                level += 1;
            }

            // --- finish: swap pivots in, factor diagonal tile ---
            let root = level_nodes[0];
            let fin = bld.push(TaskKind::PanelFinish { k: k as u32 }, &[root]);
            bld.finish_ids.push(TaskId(fin));

            // --- L tiles ---
            let mut l_ids: Vec<u32> = Vec::with_capacity(mt - k - 1);
            for i in (k + 1)..mt {
                let id = bld.push(
                    TaskKind::ComputeL {
                        k: k as u32,
                        i: i as u32,
                    },
                    &[fin],
                );
                l_ids.push(id);
            }

            // --- U tiles and trailing updates ---
            let mut deps_buf: Vec<u32> = Vec::with_capacity(mt - k + 1);
            for j in (k + 1)..nt {
                deps_buf.clear();
                deps_buf.push(fin);
                if k > 0 {
                    for i in k..mt {
                        deps_buf.push(prev_update[i * nt + j]);
                    }
                }
                let u_id = bld.push(
                    TaskKind::ComputeU {
                        k: k as u32,
                        j: j as u32,
                    },
                    &deps_buf,
                );
                for (li, i) in ((k + 1)..mt).enumerate() {
                    let s_id = bld.push(
                        TaskKind::Update {
                            k: k as u32,
                            i: i as u32,
                            j: j as u32,
                        },
                        &[l_ids[li], u_id],
                    );
                    cur_update[i * nt + j] = s_id;
                }
            }

            std::mem::swap(&mut prev_update, &mut cur_update);
        }

        let mut g = bld.finish(m, n, b, DagVariant::Calu);
        g.leaf_stride = leaf_stride;
        g
    }

    /// Build the DAG of **blocked GEPP with a sequential panel
    /// factorization** — the scheduling shape of LAPACK/MKL `dgetrf`
    /// (§2: "the multithreaded LAPACK performs the panel factorization
    /// sequentially"). `PanelFinish(k)` stands for the whole `(m−kb) × b`
    /// panel GEPP; there are no `PanelLeaf`/`PanelCombine`/`ComputeL`
    /// tasks.
    pub fn build_gepp(m: usize, n: usize, b: usize) -> TaskGraph {
        assert!(b > 0, "block size must be positive");
        assert!(m > 0 && n > 0, "matrix must be non-empty");
        let mt = m.div_ceil(b);
        let nt = n.div_ceil(b);
        let np = mt.min(nt);

        let mut bld = Builder::new();
        let mut prev_update: Vec<u32> = vec![u32::MAX; mt * nt];
        let mut cur_update: Vec<u32> = vec![u32::MAX; mt * nt];

        for k in 0..np {
            // whole-panel sequential factorization
            let mut deps: Vec<u32> = Vec::new();
            if k > 0 {
                for i in k..mt {
                    deps.push(prev_update[i * nt + k]);
                }
            }
            let fin = bld.push(TaskKind::PanelFinish { k: k as u32 }, &deps);
            bld.finish_ids.push(TaskId(fin));

            let mut deps_buf: Vec<u32> = Vec::new();
            for j in (k + 1)..nt {
                deps_buf.clear();
                deps_buf.push(fin);
                if k > 0 {
                    for i in k..mt {
                        deps_buf.push(prev_update[i * nt + j]);
                    }
                }
                let u_id = bld.push(
                    TaskKind::ComputeU {
                        k: k as u32,
                        j: j as u32,
                    },
                    &deps_buf,
                );
                for i in (k + 1)..mt {
                    let s_id = bld.push(
                        TaskKind::Update {
                            k: k as u32,
                            i: i as u32,
                            j: j as u32,
                        },
                        &[u_id],
                    );
                    cur_update[i * nt + j] = s_id;
                }
            }
            std::mem::swap(&mut prev_update, &mut cur_update);
        }
        bld.finish(m, n, b, DagVariant::GeppPanelSeq)
    }

    /// Build the DAG of **tiled LU with incremental pivoting** — the
    /// scheduling shape of PLASMA's `dgetrf_incpiv` (Buttari et al. \[7\]).
    /// Task-kind reuse: `PanelFinish` = GETRF of the diagonal tile,
    /// `ComputeL(k,i)` = TSTRF of tile `(i,k)` (serial chain down the
    /// column, it updates the shared `U_kk`), `ComputeU(k,j)` = GESSM,
    /// `Update(k,i,j)` = SSSSM (serial chain down each column since each
    /// step rewrites the top tile row `(k,j)`).
    pub fn build_incpiv(m: usize, n: usize, b: usize) -> TaskGraph {
        assert!(b > 0, "block size must be positive");
        assert!(m > 0 && n > 0, "matrix must be non-empty");
        let mt = m.div_ceil(b);
        let nt = n.div_ceil(b);
        let np = mt.min(nt);

        let mut bld = Builder::new();
        let mut prev_update: Vec<u32> = vec![u32::MAX; mt * nt];
        let mut cur_update: Vec<u32> = vec![u32::MAX; mt * nt];

        for k in 0..np {
            // GETRF(k,k)
            let mut deps: Vec<u32> = Vec::new();
            if k > 0 {
                deps.push(prev_update[k * nt + k]);
            }
            let fin = bld.push(TaskKind::PanelFinish { k: k as u32 }, &deps);
            bld.finish_ids.push(TaskId(fin));

            // TSTRF chain down the panel
            let mut l_ids: Vec<u32> = Vec::with_capacity(mt - k - 1);
            let mut prev_in_chain = fin;
            for i in (k + 1)..mt {
                let mut deps = vec![prev_in_chain];
                if k > 0 {
                    deps.push(prev_update[i * nt + k]);
                }
                let id = bld.push(
                    TaskKind::ComputeL {
                        k: k as u32,
                        i: i as u32,
                    },
                    &deps,
                );
                l_ids.push(id);
                prev_in_chain = id;
            }

            // GESSM row + SSSSM chains
            for j in (k + 1)..nt {
                let mut deps = vec![fin];
                if k > 0 {
                    deps.push(prev_update[k * nt + j]);
                }
                let u_id = bld.push(
                    TaskKind::ComputeU {
                        k: k as u32,
                        j: j as u32,
                    },
                    &deps,
                );
                let mut prev_s = u_id;
                for (li, i) in ((k + 1)..mt).enumerate() {
                    let mut deps = vec![l_ids[li], prev_s];
                    if k > 0 {
                        deps.push(prev_update[i * nt + j]);
                    }
                    let s_id = bld.push(
                        TaskKind::Update {
                            k: k as u32,
                            i: i as u32,
                            j: j as u32,
                        },
                        &deps,
                    );
                    cur_update[i * nt + j] = s_id;
                    prev_s = s_id;
                }
            }
            std::mem::swap(&mut prev_update, &mut cur_update);
        }
        bld.finish(m, n, b, DagVariant::TileIncPiv)
    }

    /// Build the DAG of a **tiled Cholesky factorization** of an `n × n`
    /// SPD matrix (lower triangle). Task-kind reuse: `PanelFinish(k)` =
    /// POTRF of tile `(k,k)`, `ComputeL(k,i)` = TRSM of tile `(i,k)`,
    /// `Update(k,i,j)` (with `j <= i`) = SYRK (`i == j`) or GEMM of tile
    /// `(i,j)`. With no pivoting there is no column fan-in barrier —
    /// every update depends only on its two TRSMs and the tile's
    /// previous update.
    pub fn build_cholesky(n: usize, b: usize) -> TaskGraph {
        assert!(b > 0, "block size must be positive");
        assert!(n > 0, "matrix must be non-empty");
        let nt = n.div_ceil(b);

        let mut bld = Builder::new();
        let mut prev_update: Vec<u32> = vec![u32::MAX; nt * nt];
        let mut cur_update: Vec<u32> = vec![u32::MAX; nt * nt];

        for k in 0..nt {
            // POTRF(k,k)
            let mut deps: Vec<u32> = Vec::new();
            if k > 0 {
                deps.push(prev_update[k * nt + k]);
            }
            let fin = bld.push(TaskKind::PanelFinish { k: k as u32 }, &deps);
            bld.finish_ids.push(TaskId(fin));

            // TRSM column
            let mut l_ids: Vec<u32> = Vec::with_capacity(nt - k - 1);
            for i in (k + 1)..nt {
                let mut deps = vec![fin];
                if k > 0 {
                    deps.push(prev_update[i * nt + k]);
                }
                let id = bld.push(
                    TaskKind::ComputeL {
                        k: k as u32,
                        i: i as u32,
                    },
                    &deps,
                );
                l_ids.push(id);
            }

            // SYRK/GEMM over the trailing lower triangle
            for i in (k + 1)..nt {
                for j in (k + 1)..=i {
                    let mut deps = vec![l_ids[i - k - 1]];
                    if j != i {
                        deps.push(l_ids[j - k - 1]);
                    }
                    if k > 0 {
                        deps.push(prev_update[i * nt + j]);
                    }
                    let s_id = bld.push(
                        TaskKind::Update {
                            k: k as u32,
                            i: i as u32,
                            j: j as u32,
                        },
                        &deps,
                    );
                    cur_update[i * nt + j] = s_id;
                }
            }
            std::mem::swap(&mut prev_update, &mut cur_update);
        }
        bld.finish(n, n, b, DagVariant::TileCholesky)
    }

    /// The algorithm variant this graph encodes.
    pub fn variant(&self) -> DagVariant {
        self.variant
    }

    /// TSLU leaf stride (see [`TaskGraph::build_calu`]).
    pub fn leaf_stride(&self) -> usize {
        self.leaf_stride
    }

    /// Tile rows covered by the TSLU leaf of panel `k` whose
    /// representative tile row is `i0` (every `leaf_stride`-th row from
    /// `i0`).
    pub fn leaf_rows(&self, k: usize, i0: usize) -> impl Iterator<Item = usize> + '_ {
        let _ = k;
        (i0..self.mt).step_by(self.leaf_stride)
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Tile size.
    pub fn block(&self) -> usize {
        self.b
    }

    /// Number of tile rows `M`.
    pub fn tile_rows(&self) -> usize {
        self.mt
    }

    /// Number of tile columns `N`.
    pub fn tile_cols(&self) -> usize {
        self.nt
    }

    /// Number of panels factored, `min(M, N)`.
    pub fn num_panels(&self) -> usize {
        self.finish_ids.len()
    }

    /// Total number of tasks.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True for a degenerate empty graph (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kind of task `t`.
    #[inline]
    pub fn kind(&self, t: TaskId) -> TaskKind {
        self.kinds[t.idx()]
    }

    /// Number of dependencies of task `t`.
    #[inline]
    pub fn dep_count(&self, t: TaskId) -> u32 {
        self.dep_count[t.idx()]
    }

    /// Successors of task `t`.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        &self.succ[self.succ_off[t.idx()] as usize..self.succ_off[t.idx() + 1] as usize]
    }

    /// The `PanelFinish` task of panel `k`.
    pub fn panel_finish(&self, k: usize) -> TaskId {
        self.finish_ids[k]
    }

    /// Ids of all tasks with no dependencies (ready at time zero).
    pub fn initial_ready(&self) -> Vec<TaskId> {
        (0..self.len() as u32)
            .map(TaskId)
            .filter(|t| self.dep_count(*t) == 0)
            .collect()
    }

    /// Iterate over all task ids in topological (arena) order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.len() as u32).map(TaskId)
    }

    /// Rows of tile row `ti` (handles the ragged last tile).
    pub fn tile_row_count(&self, ti: usize) -> usize {
        (self.m - ti * self.b).min(self.b)
    }

    /// Columns of tile column `tj` (handles the ragged last tile).
    pub fn tile_col_count(&self, tj: usize) -> usize {
        (self.n - tj * self.b).min(self.b)
    }

    /// Task counts per paper kind `(P, L, U, S)`.
    pub fn counts_by_kind(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for k in &self.kinds {
            match k.paper_kind() {
                PaperKind::P => c.0 += 1,
                PaperKind::L => c.1 += 1,
                PaperKind::U => c.2 += 1,
                PaperKind::S => c.3 += 1,
            }
        }
        c
    }

    /// Total dependency edges.
    pub fn num_edges(&self) -> usize {
        self.succ.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4x4 tiles — the worked example of Figures 2 and 3.
    fn fig3_graph() -> TaskGraph {
        TaskGraph::build(400, 400, 100)
    }

    #[test]
    fn counts_for_4x4_example() {
        let g = fig3_graph();
        assert_eq!(g.tile_rows(), 4);
        assert_eq!(g.tile_cols(), 4);
        assert_eq!(g.num_panels(), 4);
        let (p, l, u, s) = g.counts_by_kind();
        // leaves: 4+3+2+1 = 10; combines: 3+2+1+0 = 6; finishes: 4 → P = 20
        assert_eq!(p, 20);
        // L tiles: 3+2+1 = 6
        assert_eq!(l, 6);
        // U tiles: 3+2+1 = 6
        assert_eq!(u, 6);
        // S tiles: 9+4+1 = 14
        assert_eq!(s, 14);
        assert_eq!(g.len(), 46);
    }

    #[test]
    fn per_task_arrays_are_sized_exactly() {
        // square, tall, wide and ragged CALU, and Cholesky
        let graphs = [
            TaskGraph::build_calu(256, 256, 16, 2),
            TaskGraph::build_calu(1152, 64, 16, 4),
            TaskGraph::build_calu(64, 512, 16, 1),
            TaskGraph::build_calu(250, 170, 16, 3),
            TaskGraph::build_cholesky(250, 16),
        ];
        for g in &graphs {
            assert_eq!(g.kinds.capacity(), g.len(), "{:?}", g.variant);
            assert_eq!(g.dep_count.capacity(), g.len(), "{:?}", g.variant);
        }
    }

    #[test]
    fn construction_order_is_topological() {
        let g = TaskGraph::build(600, 500, 100);
        for t in g.ids() {
            for &s in g.successors(t) {
                assert!(s.0 > t.0, "edge {t:?}->{s:?} violates topo order");
            }
        }
    }

    #[test]
    fn dep_counts_match_incoming_edges() {
        let g = TaskGraph::build(500, 500, 100);
        let mut incoming = vec![0u32; g.len()];
        for t in g.ids() {
            for &s in g.successors(t) {
                incoming[s.idx()] += 1;
            }
        }
        for t in g.ids() {
            assert_eq!(incoming[t.idx()], g.dep_count(t), "task {}", g.kind(t));
        }
    }

    #[test]
    fn only_first_panel_leaves_are_initially_ready() {
        let g = fig3_graph();
        let ready = g.initial_ready();
        assert_eq!(ready.len(), 4, "4 leaves of panel 0");
        for t in ready {
            match g.kind(t) {
                TaskKind::PanelLeaf { k: 0, .. } => {}
                other => panic!("unexpected initial task {other}"),
            }
        }
    }

    #[test]
    fn u_tasks_wait_for_whole_column() {
        // ComputeU(1, j) must depend on PanelFinish(1) + Update(0, i, j) for
        // i in 1..mt → dep_count = 1 + (mt - 1)
        let g = fig3_graph();
        for t in g.ids() {
            if let TaskKind::ComputeU { k: 1, .. } = g.kind(t) {
                assert_eq!(g.dep_count(t), 1 + 3);
            }
            if let TaskKind::ComputeU { k: 0, .. } = g.kind(t) {
                assert_eq!(g.dep_count(t), 1, "first panel U needs only finish");
            }
        }
    }

    #[test]
    fn reduction_tree_is_binary_and_logarithmic() {
        let g = TaskGraph::build(1600, 1600, 100); // 16 block rows
                                                   // panel 0: 16 leaves -> 8+4+2+1 = 15 combines
        let combines = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::PanelCombine { k: 0, .. }))
            .count();
        assert_eq!(combines, 15);
        let max_level = g
            .ids()
            .filter_map(|t| match g.kind(t) {
                TaskKind::PanelCombine { k: 0, level, .. } => Some(level),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_level, 4, "log2(16) levels");
    }

    #[test]
    fn tall_and_wide_matrices() {
        // tall: more tile rows than panels
        let g = TaskGraph::build(1000, 300, 100);
        assert_eq!(g.num_panels(), 3);
        assert_eq!(g.tile_rows(), 10);
        // every panel still factors rows k..mt
        let leaves0 = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::PanelLeaf { k: 0, .. }))
            .count();
        assert_eq!(leaves0, 10);
        // wide: panels limited by rows
        let g = TaskGraph::build(300, 1000, 100);
        assert_eq!(g.num_panels(), 3);
        assert_eq!(g.tile_cols(), 10);
        let u_last = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::ComputeU { k: 2, .. }))
            .count();
        assert_eq!(u_last, 7, "panel 2 solves U for columns 3..10");
    }

    #[test]
    fn ragged_tiles_reported() {
        let g = TaskGraph::build(250, 430, 100);
        assert_eq!(g.tile_rows(), 3);
        assert_eq!(g.tile_cols(), 5);
        assert_eq!(g.tile_row_count(2), 50);
        assert_eq!(g.tile_col_count(4), 30);
        assert_eq!(g.tile_col_count(0), 100);
    }

    #[test]
    fn single_tile_matrix() {
        let g = TaskGraph::build(64, 64, 100);
        // one leaf + one finish, nothing else
        assert_eq!(g.len(), 2);
        let (p, l, u, s) = g.counts_by_kind();
        assert_eq!((p, l, u, s), (2, 0, 0, 0));
        assert_eq!(g.initial_ready().len(), 1);
    }

    #[test]
    fn panel_finish_lookup() {
        let g = fig3_graph();
        for k in 0..4 {
            let t = g.panel_finish(k);
            assert!(matches!(g.kind(t), TaskKind::PanelFinish { k: kk } if kk as usize == k));
        }
    }

    #[test]
    fn update_has_exactly_two_deps() {
        let g = fig3_graph();
        for t in g.ids() {
            if matches!(g.kind(t), TaskKind::Update { .. }) {
                assert_eq!(g.dep_count(t), 2);
            }
        }
    }

    #[test]
    fn edge_count_is_consistent() {
        let g = TaskGraph::build(700, 700, 100);
        let total_deps: u32 = g.ids().map(|t| g.dep_count(t)).sum();
        assert_eq!(total_deps as usize, g.num_edges());
    }

    #[test]
    fn chunked_leaves_follow_thread_rows() {
        // 8 tile rows, stride 2: panel 0 has 2 leaves covering rows
        // {0,2,4,6} and {1,3,5,7}, one combine, then finish
        let g = TaskGraph::build_calu(800, 800, 100, 2);
        assert_eq!(g.leaf_stride(), 2);
        let leaves0: Vec<_> = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::PanelLeaf { k: 0, .. }))
            .collect();
        assert_eq!(leaves0.len(), 2);
        let rows: Vec<usize> = g.leaf_rows(0, 0).collect();
        assert_eq!(rows, vec![0, 2, 4, 6]);
        let combines0 = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::PanelCombine { k: 0, .. }))
            .count();
        assert_eq!(combines0, 1);
        // near the end, fewer rows than the stride → single leaf, no tree
        let leaves_last = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::PanelLeaf { k: 7, .. }))
            .count();
        assert_eq!(leaves_last, 1);
    }

    #[test]
    fn chunked_leaf_dependencies_cover_chunk() {
        let g = TaskGraph::build_calu(800, 800, 100, 4);
        // panel 1 leaf for residue 0 covers rows {1, 5} -> 2 update deps
        let leaf = g
            .ids()
            .find(|&t| matches!(g.kind(t), TaskKind::PanelLeaf { k: 1, i: 1 }))
            .unwrap();
        assert_eq!(g.dep_count(leaf), 2);
        // stride >= M matches the per-tile builder
        let a = TaskGraph::build(500, 500, 100);
        let b = TaskGraph::build_calu(500, 500, 100, 5);
        assert_eq!(a.len(), b.len());
        // stride 1 collapses TSLU to a single sequential leaf
        let c = TaskGraph::build_calu(500, 500, 100, 1);
        let combines = c
            .ids()
            .filter(|&t| matches!(c.kind(t), TaskKind::PanelCombine { .. }))
            .count();
        assert_eq!(combines, 0);
    }

    #[test]
    fn chunked_build_keeps_topo_and_counts() {
        let g = TaskGraph::build_calu(1000, 1000, 100, 6);
        for t in g.ids() {
            for &s in g.successors(t) {
                assert!(s.0 > t.0);
            }
        }
        let mut incoming = vec![0u32; g.len()];
        for t in g.ids() {
            for &s in g.successors(t) {
                incoming[s.idx()] += 1;
            }
        }
        for t in g.ids() {
            assert_eq!(incoming[t.idx()], g.dep_count(t));
        }
    }

    #[test]
    fn variants_are_tagged() {
        assert_eq!(TaskGraph::build(300, 300, 100).variant(), DagVariant::Calu);
        assert_eq!(
            TaskGraph::build_gepp(300, 300, 100).variant(),
            DagVariant::GeppPanelSeq
        );
        assert_eq!(
            TaskGraph::build_incpiv(300, 300, 100).variant(),
            DagVariant::TileIncPiv
        );
    }

    #[test]
    fn gepp_has_single_sequential_panel_tasks() {
        let g = TaskGraph::build_gepp(400, 400, 100);
        let (p, l, u, s) = g.counts_by_kind();
        assert_eq!(p, 4, "one panel task per panel");
        assert_eq!(l, 0, "panel task covers L");
        assert_eq!(u, 6);
        assert_eq!(s, 14);
        // panel k>0 waits for its whole column: deps = mt - k
        for k in 1..4 {
            let t = g.panel_finish(k);
            assert_eq!(g.dep_count(t), (4 - k) as u32);
        }
        // topological order maintained
        for t in g.ids() {
            for &succ in g.successors(t) {
                assert!(succ.0 > t.0);
            }
        }
    }

    #[test]
    fn gepp_critical_path_runs_through_every_panel() {
        use crate::critical_path::critical_path;
        let g = TaskGraph::build_gepp(400, 400, 100);
        // weight panel tasks heavily: path must contain all 4
        let cp = critical_path(
            &g,
            |_| true,
            |t| match g.kind(t) {
                TaskKind::PanelFinish { .. } => 100.0,
                _ => 1.0,
            },
        );
        let panels = cp
            .tasks
            .iter()
            .filter(|&&t| matches!(g.kind(t), TaskKind::PanelFinish { .. }))
            .count();
        assert_eq!(panels, 4);
    }

    #[test]
    fn incpiv_serializes_column_chains() {
        let g = TaskGraph::build_incpiv(400, 400, 100);
        // TSTRF chain: ComputeL(0, i) depends on ComputeL(0, i-1)
        let l_of = |i: u32| {
            g.ids()
                .find(|&t| g.kind(t) == TaskKind::ComputeL { k: 0, i })
                .unwrap()
        };
        assert!(g.successors(l_of(1)).contains(&l_of(2)));
        assert!(g.successors(l_of(2)).contains(&l_of(3)));
        // SSSSM chain: Update(0, i, j) depends on Update(0, i-1, j)
        let s_of = |i: u32, j: u32| {
            g.ids()
                .find(|&t| g.kind(t) == TaskKind::Update { k: 0, i, j })
                .unwrap()
        };
        assert!(g.successors(s_of(1, 2)).contains(&s_of(2, 2)));
    }

    #[test]
    fn incpiv_panel_is_off_the_global_fanin() {
        // GETRF(k) for k>0 depends only on one tile's chain, not the
        // whole column — the pipelining PLASMA gets from pairwise pivoting
        let g = TaskGraph::build_incpiv(500, 500, 100);
        for k in 1..5 {
            assert_eq!(g.dep_count(g.panel_finish(k)), 1);
        }
        // compare: CALU's ComputeU fan-in is whole-column
        let calu = TaskGraph::build(500, 500, 100);
        let u21 = calu
            .ids()
            .find(|&t| matches!(calu.kind(t), TaskKind::ComputeU { k: 2, .. }))
            .unwrap();
        assert!(calu.dep_count(u21) > 1);
    }

    #[test]
    fn incpiv_update_chain_depth_exceeds_calu() {
        use crate::critical_path::unit_critical_path;
        let calu = unit_critical_path(&TaskGraph::build(800, 800, 100));
        let incpiv = unit_critical_path(&TaskGraph::build_incpiv(800, 800, 100));
        // incpiv's serial SSSSM chains make its unit-depth larger even
        // though its panel is pipelined
        assert!(incpiv.length > 0.0 && calu.length > 0.0);
    }

    #[test]
    fn cholesky_dag_shape() {
        let g = TaskGraph::build_cholesky(400, 100); // 4x4 tiles, lower
        assert_eq!(g.variant(), DagVariant::TileCholesky);
        let (p, l, u, s) = g.counts_by_kind();
        assert_eq!(p, 4, "one POTRF per panel");
        assert_eq!(l, 6, "TRSMs: 3+2+1");
        assert_eq!(u, 0, "no U tasks in Cholesky");
        // updates over the lower triangle: k=0: 6, k=1: 3, k=2: 1
        assert_eq!(s, 10);
        // POTRF(k+1) depends on Update(k, k+1, k+1) only — no barrier
        for k in 1..4 {
            assert_eq!(g.dep_count(g.panel_finish(k)), 1);
        }
        // updates write only the lower triangle
        for t in g.ids() {
            if let TaskKind::Update { i, j, .. } = g.kind(t) {
                assert!(j <= i);
            }
        }
    }

    #[test]
    fn all_variants_preserve_dep_count_invariant() {
        for g in [
            TaskGraph::build_gepp(600, 500, 100),
            TaskGraph::build_incpiv(600, 500, 100),
            TaskGraph::build_cholesky(500, 100),
        ] {
            let mut incoming = vec![0u32; g.len()];
            for t in g.ids() {
                for &s in g.successors(t) {
                    incoming[s.idx()] += 1;
                }
            }
            for t in g.ids() {
                assert_eq!(incoming[t.idx()], g.dep_count(t));
            }
        }
    }
}
