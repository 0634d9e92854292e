//! Task identifiers and kinds.

use std::fmt;

/// Index of a task in its [`crate::TaskGraph`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The arena index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Fine-grained task kinds. Indices `k`, `i`, `j` are *tile* coordinates
/// (panel, tile row, tile column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// TSLU leaf of panel `k` on block row `i`: GEPP of the candidate
    /// rows held by tile `(i, k)`.
    PanelLeaf {
        /// Panel index.
        k: u32,
        /// Block row.
        i: u32,
    },
    /// TSLU reduction node of panel `k`: merges two candidate sets at
    /// `level` (1 = just above the leaves), position `idx`.
    PanelCombine {
        /// Panel index.
        k: u32,
        /// Tree level.
        level: u32,
        /// Position within the level.
        idx: u32,
    },
    /// End of TSLU for panel `k`: swap the winning pivot rows into the
    /// diagonal block and factor it (LU with no pivoting).
    PanelFinish {
        /// Panel index.
        k: u32,
    },
    /// Compute L tile `(i, k)` of panel `k` by a right triangular solve.
    ComputeL {
        /// Panel index.
        k: u32,
        /// Block row.
        i: u32,
    },
    /// Apply panel `k`'s row swaps to column `j` and compute U tile
    /// `(k, j)` by a left triangular solve.
    ComputeU {
        /// Panel index.
        k: u32,
        /// Tile column.
        j: u32,
    },
    /// Trailing update of tile `(i, j)` by panel `k` (gemm).
    Update {
        /// Panel index.
        k: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
}

/// The paper's coarse task taxonomy (P, L, U, S).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperKind {
    /// Panel preprocessing (TSLU reduction).
    P,
    /// Panel L computation.
    L,
    /// Block-row U computation.
    U,
    /// Trailing-matrix update.
    S,
}

impl TaskKind {
    /// Map to the paper's P/L/U/S taxonomy.
    pub fn paper_kind(&self) -> PaperKind {
        match self {
            TaskKind::PanelLeaf { .. }
            | TaskKind::PanelCombine { .. }
            | TaskKind::PanelFinish { .. } => PaperKind::P,
            TaskKind::ComputeL { .. } => PaperKind::L,
            TaskKind::ComputeU { .. } => PaperKind::U,
            TaskKind::Update { .. } => PaperKind::S,
        }
    }

    /// Tile column whose data this task writes — the coordinate the
    /// hybrid scheduler uses to split the DAG ("tasks that operate on
    /// blocks belonging to the first Nstatic panels are scheduled
    /// statically", §3).
    pub fn writes_col(&self) -> usize {
        match *self {
            TaskKind::PanelLeaf { k, .. }
            | TaskKind::PanelCombine { k, .. }
            | TaskKind::PanelFinish { k }
            | TaskKind::ComputeL { k, .. } => k as usize,
            TaskKind::ComputeU { j, .. } | TaskKind::Update { j, .. } => j as usize,
        }
    }

    /// Representative tile `(row, col)` this task writes, used for
    /// ownership mapping and NUMA home lookup.
    pub fn writes_tile(&self) -> (usize, usize) {
        match *self {
            TaskKind::PanelLeaf { k, i } => (i as usize, k as usize),
            // reduction nodes are placed with the diagonal block's owner
            TaskKind::PanelCombine { k, .. } | TaskKind::PanelFinish { k } => {
                (k as usize, k as usize)
            }
            TaskKind::ComputeL { k, i } => (i as usize, k as usize),
            TaskKind::ComputeU { k, j } => (k as usize, j as usize),
            TaskKind::Update { i, j, .. } => (i as usize, j as usize),
        }
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TaskKind::PanelLeaf { k, i } => write!(f, "P{k}.leaf[{i}]"),
            TaskKind::PanelCombine { k, level, idx } => write!(f, "P{k}.comb[{level},{idx}]"),
            TaskKind::PanelFinish { k } => write!(f, "P{k}.fin"),
            TaskKind::ComputeL { k, i } => write!(f, "L[{i},{k}]"),
            TaskKind::ComputeU { k, j } => write!(f, "U[{k},{j}]"),
            TaskKind::Update { k, i, j } => write!(f, "S{k}[{i},{j}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_kind_mapping() {
        assert_eq!(
            TaskKind::PanelLeaf { k: 0, i: 1 }.paper_kind(),
            PaperKind::P
        );
        assert_eq!(
            TaskKind::PanelCombine {
                k: 0,
                level: 1,
                idx: 0
            }
            .paper_kind(),
            PaperKind::P
        );
        assert_eq!(TaskKind::PanelFinish { k: 2 }.paper_kind(), PaperKind::P);
        assert_eq!(TaskKind::ComputeL { k: 0, i: 1 }.paper_kind(), PaperKind::L);
        assert_eq!(TaskKind::ComputeU { k: 0, j: 1 }.paper_kind(), PaperKind::U);
        assert_eq!(
            TaskKind::Update { k: 0, i: 1, j: 1 }.paper_kind(),
            PaperKind::S
        );
    }

    #[test]
    fn writes_col_splits_by_panel_membership() {
        // panel-side tasks write their own panel column
        assert_eq!(TaskKind::ComputeL { k: 3, i: 7 }.writes_col(), 3);
        assert_eq!(TaskKind::PanelFinish { k: 3 }.writes_col(), 3);
        // trailing tasks write the column they update
        assert_eq!(TaskKind::ComputeU { k: 3, j: 9 }.writes_col(), 9);
        assert_eq!(TaskKind::Update { k: 3, i: 5, j: 9 }.writes_col(), 9);
    }

    #[test]
    fn writes_tile_targets() {
        assert_eq!(TaskKind::Update { k: 0, i: 4, j: 6 }.writes_tile(), (4, 6));
        assert_eq!(TaskKind::PanelLeaf { k: 2, i: 5 }.writes_tile(), (5, 2));
        assert_eq!(TaskKind::PanelFinish { k: 2 }.writes_tile(), (2, 2));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TaskKind::Update { k: 1, i: 2, j: 3 }.to_string(), "S1[2,3]");
        assert_eq!(TaskKind::PanelFinish { k: 0 }.to_string(), "P0.fin");
    }
}
