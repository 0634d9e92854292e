//! Construction and storage of the CALU task graph.

use crate::access::{Access, Datum};
use crate::task::{PaperKind, TaskId, TaskKind};
use crate::tree::{CombineStep, TreePlan};

/// Which factorization a [`TaskGraph`] describes, named once from the
/// graph builder to the report. The task kinds are shared; the
/// algorithm selects the access table that says what each kind reads and
/// writes (see [`TaskGraph::access`]), hence the dependency shape, and
/// how the cost model prices each task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// CALU with tournament pivoting: parallel TSLU reduction tree per
    /// panel (the paper's algorithm).
    Calu,
    /// Gaussian elimination with partial pivoting, LAPACK/MKL style: the
    /// whole panel factorization is **one sequential task** on the
    /// critical path (`PanelFinish` covers the full `(M−k)·b × b` GEPP).
    Gepp,
    /// Tiled LU with incremental (block pairwise) pivoting, PLASMA's
    /// `dgetrf_incpiv`: the panel is off the critical path but column
    /// chains serialize (`ComputeL` = TSTRF chain, `Update` = SSSSM
    /// chain) and extra flops are spent on the stacked factorizations.
    IncPiv,
    /// Tiled Cholesky factorization (`A = L·Lᵀ`, lower) — the paper's §9
    /// future-work extension: no pivoting, so the DAG is the classic
    /// POTRF (`PanelFinish`) / TRSM (`ComputeL`) / SYRK+GEMM (`Update`)
    /// shape over the lower triangle.
    Cholesky,
}

impl Algorithm {
    /// This algorithm's graph of an `m × n` matrix tiled at `b`; only
    /// CALU reads `leaf_stride` ([`TaskGraph::build_calu`]), only
    /// Cholesky ignores `m`.
    pub fn build_graph(self, m: usize, n: usize, b: usize, leaf_stride: usize) -> TaskGraph {
        match self {
            Algorithm::Calu => TaskGraph::build_calu(m, n, b, leaf_stride),
            Algorithm::Gepp => TaskGraph::build_gepp(m, n, b),
            Algorithm::IncPiv => TaskGraph::build_incpiv(m, n, b),
            Algorithm::Cholesky => TaskGraph::build_cholesky(n, b),
        }
    }

    /// The nominal flop count of an `m × n` factorization, the numerator
    /// of every Gflop/s figure (the paper's plotting convention). LU:
    /// `2(mnr − (m+n)r²/2 + r³/3)` with `r = min(m, n)`, which is
    /// `mn² − n³/3` for `m ≥ n` and stays positive for wide matrices;
    /// Cholesky: `n³/3`.
    pub fn nominal_flops(self, m: usize, n: usize) -> f64 {
        let r = m.min(n) as f64;
        let (m, n) = (m as f64, n as f64);
        match self {
            Algorithm::Calu | Algorithm::Gepp | Algorithm::IncPiv => {
                2.0 * m * n * r - (m + n) * r * r + 2.0 * r * r * r / 3.0
            }
            Algorithm::Cholesky => n * n * n / 3.0,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::Calu => "CALU",
            Algorithm::Gepp => "GEPP",
            Algorithm::IncPiv => "incpiv",
            Algorithm::Cholesky => "Cholesky",
        })
    }
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
    algorithm: Algorithm,
    /// TSLU leaves cover every `leaf_stride`-th tile row (CALU).
    leaf_stride: usize,
    /// Each panel's TSLU reduction tree (CALU).
    trees: Vec<TreePlan>,
    kinds: Vec<TaskKind>,
    dep_count: Vec<u32>,
    succ_off: Vec<u32>,
    succ: Vec<TaskId>,
    finish_ids: Vec<TaskId>,
    roots: Vec<TaskId>,
}

const NONE: u32 = u32::MAX;

/// What edge inference keeps per task.
#[derive(Clone, Copy)]
struct Node {
    /// End of the task's predecessors in `preds`.
    end: u32,
    /// The largest predecessor id (0 for a root).
    top: u32,
    /// 1 + the longest path from a root, in edges: an ancestor's is
    /// smaller.
    level: u32,
    /// `2t + 2` while a candidate of task `t`, `2t + 3` once reached.
    mark: u32,
}

impl TaskGraph {
    /// An empty arena for the given shape; CALU's reduction trees are
    /// planned here, once per panel.
    pub(crate) fn with_shape(
        m: usize,
        n: usize,
        b: usize,
        algorithm: Algorithm,
        leaf_stride: usize,
    ) -> Self {
        assert!(b > 0, "block size must be positive");
        assert!(m > 0 && n > 0, "matrix must be non-empty");
        assert!(leaf_stride > 0, "leaf stride must be positive");
        let (mt, nt) = (m.div_ceil(b), n.div_ceil(b));
        let trees = match algorithm {
            Algorithm::Calu => (0..mt.min(nt))
                .map(|k| TreePlan::new(leaf_stride.min(mt - k)))
                .collect(),
            _ => Vec::new(),
        };
        TaskGraph {
            m,
            n,
            b,
            mt,
            nt,
            algorithm,
            leaf_stride,
            trees,
            kinds: Vec::new(),
            dep_count: Vec::new(),
            succ_off: Vec::new(),
            succ: Vec::new(),
            finish_ids: Vec::new(),
            roots: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, kind: TaskKind) {
        if let TaskKind::PanelFinish { .. } = kind {
            self.finish_ids.push(TaskId(self.kinds.len() as u32));
        }
        self.kinds.push(kind);
    }

    /// The task list of the three LU algorithms, one panel at a time: the
    /// panel (CALU's TSLU leaves and reduction tree, then the finish),
    /// the L column (not in GEPP, whose panel task covers it), then each
    /// trailing column's U and S tasks.
    fn push_lu(mut self) -> Self {
        let (mt, nt) = (self.mt as u32, self.nt as u32);
        for k in 0..mt.min(nt) {
            if self.algorithm == Algorithm::Calu {
                for i in k..(k + self.leaf_stride as u32).min(mt) {
                    self.push(TaskKind::PanelLeaf { k, i });
                }
                for s in 0..self.trees[k as usize].steps.len() {
                    let CombineStep { level, idx, .. } = self.trees[k as usize].steps[s];
                    self.push(TaskKind::PanelCombine { k, level, idx });
                }
            }
            self.push(TaskKind::PanelFinish { k });
            if self.algorithm != Algorithm::Gepp {
                for i in (k + 1)..mt {
                    self.push(TaskKind::ComputeL { k, i });
                }
            }
            for j in (k + 1)..nt {
                self.push(TaskKind::ComputeU { k, j });
                for i in (k + 1)..mt {
                    self.push(TaskKind::Update { k, i, j });
                }
            }
        }
        self
    }

    /// Derive the edges of the pushed task list from the access table
    /// and store them as CSR. The tasks are walked in program order, as
    /// QUARK does: a read waits on the datum's last writer; a write waits
    /// on the readers since that writer, or on the writer itself when
    /// there were none. A candidate that another candidate reaches is
    /// then dropped, so no edge is one a path already implies.
    pub(crate) fn with_inferred_edges(mut self) -> Self {
        // no doubling slack: a shrinking realloc splits in place
        self.kinds.shrink_to_fit();
        let n = self.kinds.len();
        // the data, numbered densely: tiles, then per panel its `U_kk`,
        // its pivots and its tree's candidate slots
        let (tiles, np) = (self.mt * self.nt, self.mt.min(self.nt));
        let slots = self.trees.iter().map(|t| t.slots).max().unwrap_or(0);
        let index = |d: Datum| match d {
            Datum::Tile(i, j) => i as usize * self.nt + j as usize,
            Datum::Upper(k) => tiles + k as usize,
            Datum::Pivots(k) => tiles + np + k as usize,
            Datum::Candidate(k, s) => tiles + 2 * np + k as usize * slots + s as usize,
        };
        // per datum: its last writer and the head of its list of readers
        // since, in `readers` as `(task, next)`; an S task reads two tiles
        // and has two predecessors
        let mut data = vec![(NONE, NONE); tiles + (2 + slots) * np];
        let mut readers: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
        let mut preds: Vec<u32> = Vec::with_capacity(3 * n);
        let mut tasks: Vec<Node> = Vec::with_capacity(n);
        let (mut acc, mut stack) = (Access::default(), Vec::new());
        for id in 0..n as u32 {
            self.footprint(self.kinds[id as usize], &mut acc);
            let (cand, start) = (2 * id + 2, preds.len());
            // smallest and largest candidate id, lowest and highest level
            let (mut min, mut top, mut low, mut high) = (NONE, 0, NONE, 0);
            let mut add = |p: u32| {
                if p != NONE && tasks[p as usize].mark != cand {
                    let node = &mut tasks[p as usize];
                    node.mark = cand;
                    preds.push(p);
                    (min, top) = (min.min(p), top.max(p));
                    (low, high) = (low.min(node.level), high.max(node.level));
                }
            };
            // a task names a datum once, so its state is updated at once
            for &d in &acc.reads {
                let (writer, head) = &mut data[index(d)];
                add(*writer);
                readers.push((id, *head));
                *head = readers.len() as u32 - 1;
            }
            for &d in &acc.writes {
                let (writer, mut r) = std::mem::replace(&mut data[index(d)], (id, NONE));
                if r == NONE {
                    add(writer);
                }
                while r != NONE {
                    add(readers[r as usize].0);
                    r = readers[r as usize].1;
                }
            }
            // Drop every candidate another one reaches. Only a task whose
            // largest predecessor is at least the smallest candidate and
            // whose level is above the lowest one's can have a candidate
            // as an ancestor, so the walk back enters no other.
            let enter = |x: Node| x.top >= min && x.level > low;
            stack.extend(preds[start..].iter().filter(|&&c| enter(tasks[c as usize])));
            let seen = cand + 1;
            while let Some(x) = stack.pop() {
                let lo = if x == 0 { 0 } else { tasks[x as usize - 1].end };
                for at in lo..tasks[x as usize].end {
                    let p = preds[at as usize] as usize;
                    if p as u32 >= min && tasks[p].mark != seen {
                        // a candidate reached here is implied: it loses `cand`
                        tasks[p].mark = seen;
                        if enter(tasks[p]) {
                            stack.push(p as u32);
                        }
                    }
                }
            }
            if preds.len() - start > 1 {
                let mut keep = start;
                for at in start..preds.len() {
                    if tasks[preds[at] as usize].mark == cand {
                        preds[keep] = preds[at];
                        keep += 1;
                    }
                }
                preds.truncate(keep);
            }
            if preds.len() == start {
                self.roots.push(TaskId(id));
            }
            // a dropped candidate reaches a kept one, whose id and level
            // are larger: the extremes are the kept predecessors'
            let end = preds.len() as u32;
            tasks.push(Node {
                end,
                top,
                level: high + 1,
                mark: 0,
            });
        }
        let mut lo = 0;
        self.dep_count = (tasks.iter())
            .map(|node| node.end - std::mem::replace(&mut lo, node.end))
            .collect();
        drop(tasks);
        // CSR by counting: `succ_off[p]` counts, then ends; filling from
        // the back leaves the starts and each successor list rising
        let mut succ_off = vec![0u32; n + 1];
        for &p in &preds {
            succ_off[p as usize] += 1;
        }
        for i in 1..=n {
            succ_off[i] += succ_off[i - 1];
        }
        self.succ = vec![TaskId(0); preds.len()];
        let mut end = preds.len();
        for t in (0..n).rev() {
            let lo = end - self.dep_count[t] as usize;
            for &p in &preds[lo..end] {
                succ_off[p as usize] -= 1;
                self.succ[succ_off[p as usize] as usize] = TaskId(t as u32);
            }
            end = lo;
        }
        self.succ_off = succ_off;
        self
    }

    /// Build the DAG for an `m × n` matrix with tile size `b`, one TSLU
    /// leaf per tile row ([`TaskGraph::build_calu`] with a stride of `M`).
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
        Self::with_shape(m, n, b, Algorithm::Calu, leaf_stride)
            .push_lu()
            .with_inferred_edges()
    }

    /// Build the DAG of **blocked GEPP with a sequential panel
    /// factorization** — the scheduling shape of LAPACK/MKL `dgetrf`
    /// (§2: "the multithreaded LAPACK performs the panel factorization
    /// sequentially"). `PanelFinish(k)` stands for the whole `(m−kb) × b`
    /// panel GEPP; there are no `PanelLeaf`/`PanelCombine`/`ComputeL`
    /// tasks.
    pub fn build_gepp(m: usize, n: usize, b: usize) -> TaskGraph {
        Self::with_shape(m, n, b, Algorithm::Gepp, 1)
            .push_lu()
            .with_inferred_edges()
    }

    /// Build the DAG of **tiled LU with incremental pivoting** — the
    /// scheduling shape of PLASMA's `dgetrf_incpiv` (Buttari et al. \[7\]).
    /// Task-kind reuse: `PanelFinish` = GETRF of the diagonal tile,
    /// `ComputeL(k,i)` = TSTRF of tile `(i,k)` (serial chain down the
    /// column, it updates the shared `U_kk`), `ComputeU(k,j)` = GESSM,
    /// `Update(k,i,j)` = SSSSM (serial chain down each column since each
    /// step rewrites the top tile row `(k,j)`).
    pub fn build_incpiv(m: usize, n: usize, b: usize) -> TaskGraph {
        Self::with_shape(m, n, b, Algorithm::IncPiv, 1)
            .push_lu()
            .with_inferred_edges()
    }

    /// Build the DAG of a **tiled Cholesky factorization** of an `n × n`
    /// SPD matrix (lower triangle). Task-kind reuse: `PanelFinish(k)` =
    /// POTRF of tile `(k,k)`, `ComputeL(k,i)` = TRSM of tile `(i,k)`,
    /// `Update(k,i,j)` (with `j <= i`) = SYRK (`i == j`) or GEMM of tile
    /// `(i,j)`. With no pivoting there is no column fan-in barrier —
    /// every update depends only on its two TRSMs and the tile's
    /// previous update.
    pub fn build_cholesky(n: usize, b: usize) -> TaskGraph {
        let mut g = Self::with_shape(n, n, b, Algorithm::Cholesky, 1);
        let nt = g.nt as u32;
        for k in 0..nt {
            g.push(TaskKind::PanelFinish { k });
            for i in (k + 1)..nt {
                g.push(TaskKind::ComputeL { k, i });
            }
            for i in (k + 1)..nt {
                for j in (k + 1)..=i {
                    g.push(TaskKind::Update { k, i, j });
                }
            }
        }
        g.with_inferred_edges()
    }

    /// The algorithm this graph encodes.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// TSLU leaf stride (see [`TaskGraph::build_calu`]).
    pub fn leaf_stride(&self) -> usize {
        self.leaf_stride
    }

    /// Tile rows covered by the TSLU leaf whose representative tile row
    /// is `i0` (every `leaf_stride`-th row from `i0`).
    pub fn leaf_rows(&self, i0: usize) -> impl Iterator<Item = usize> + '_ {
        (i0..self.mt).step_by(self.leaf_stride)
    }

    /// Panel `k`'s TSLU reduction tree (CALU).
    pub fn tree(&self, k: usize) -> &TreePlan {
        &self.trees[k]
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

    /// Ids of all tasks with no dependencies (ready at time zero), in
    /// arena order, as the builder recorded them.
    pub fn initial_ready(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        self.roots.iter().copied()
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
            assert_eq!(g.kinds.capacity(), g.len(), "{:?}", g.algorithm);
            assert_eq!(g.dep_count.capacity(), g.len(), "{:?}", g.algorithm);
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
        let rows: Vec<usize> = g.leaf_rows(0).collect();
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

    const ALGORITHMS: [Algorithm; 4] = [
        Algorithm::Calu,
        Algorithm::Gepp,
        Algorithm::IncPiv,
        Algorithm::Cholesky,
    ];

    #[test]
    fn algorithms_are_tagged_and_named() {
        assert_eq!(TaskGraph::build(300, 300, 100).algorithm(), Algorithm::Calu);
        for a in ALGORITHMS {
            assert_eq!(a.build_graph(300, 300, 100, 2).algorithm(), a);
        }
        let names = ALGORITHMS.map(|a| a.to_string());
        assert_eq!(names, ["CALU", "GEPP", "incpiv", "Cholesky"]);
    }

    #[test]
    fn the_dispatcher_builds_what_the_builders_do() {
        let same = |a: &TaskGraph, b: &TaskGraph| {
            assert_eq!((a.len(), a.leaf_stride()), (b.len(), b.leaf_stride()));
            assert!(a.ids().all(|t| a.kind(t) == b.kind(t)));
        };
        let calu = Algorithm::Calu.build_graph(500, 300, 100, 2);
        same(&calu, &TaskGraph::build_calu(500, 300, 100, 2));
        same(
            &Algorithm::Gepp.build_graph(500, 300, 100, 2),
            &TaskGraph::build_gepp(500, 300, 100),
        );
        same(
            &Algorithm::IncPiv.build_graph(500, 300, 100, 2),
            &TaskGraph::build_incpiv(500, 300, 100),
        );
        same(
            &Algorithm::Cholesky.build_graph(300, 300, 100, 2),
            &TaskGraph::build_cholesky(300, 100),
        );
    }

    #[test]
    fn nominal_flop_conventions() {
        let lu = |m, n| Algorithm::Calu.nominal_flops(m, n);
        let f = lu(3000, 3000);
        assert!((f - 2.0 / 3.0 * 27e9).abs() / f < 1e-12);
        // tall: m n^2 - n^3/3; wide mirrors it (r = m)
        let tall = lu(4000, 1000);
        assert!((tall - (4e9 - 1e9 / 3.0)).abs() / tall < 1e-12);
        let wide = lu(1000, 4000);
        assert!((wide - (4e9 - 1e9 / 3.0)).abs() / wide < 1e-12);
        // every LU shares the count; Cholesky's is half of square LU's
        for a in [Algorithm::Gepp, Algorithm::IncPiv] {
            assert_eq!(a.nominal_flops(1000, 4000), wide);
        }
        assert_eq!(Algorithm::Cholesky.nominal_flops(3000, 3000), f / 2.0);
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
        assert_eq!(g.algorithm(), Algorithm::Cholesky);
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
    fn all_algorithms_preserve_dep_count_invariant() {
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
