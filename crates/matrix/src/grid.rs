//! 2D block-cyclic process (thread) grid — the ownership map used by the
//! static section of the scheduler (§3) and by the BCL / 2l-BL layouts (§4).

use crate::error::MatrixError;

/// A `pr × pc` grid of threads over which tiles are distributed
/// block-cyclically: tile `(i, j)` belongs to thread
/// `(i mod pr, j mod pc)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessGrid {
    pr: usize,
    pc: usize,
}

impl ProcessGrid {
    /// Create a grid; errors if either dimension is zero.
    pub fn new(pr: usize, pc: usize) -> Result<Self, MatrixError> {
        if pr == 0 || pc == 0 {
            return Err(MatrixError::InvalidGrid { rows: pr, cols: pc });
        }
        Ok(Self { pr, pc })
    }

    /// Choose a near-square grid for `p` threads: the factorization
    /// `pr × pc = p` with `pr <= pc` and `pr` as large as possible.
    /// This mirrors how ScaLAPACK-style codes pick default grids.
    pub fn square_for(p: usize) -> Result<Self, MatrixError> {
        if p == 0 {
            return Err(MatrixError::InvalidGrid { rows: 0, cols: 0 });
        }
        let mut pr = (p as f64).sqrt() as usize;
        while pr > 1 && !p.is_multiple_of(pr) {
            pr -= 1;
        }
        let pr = pr.max(1);
        Self::new(pr, p / pr)
    }

    /// Choose the grid for `p` threads over a matrix of `tile_rows ×
    /// tile_cols` tiles: the factorization `pr × pc = p` whose aspect
    /// `pr / pc` is closest, in log-ratio, to `tile_rows / tile_cols`.
    /// A tie goes to the more nearly square candidate, and between a
    /// grid and its transpose to [`square_for`](Self::square_for)'s
    /// orientation — so every square tiling gets exactly `square_for(p)`,
    /// while a tall-skinny one gets a `p × 1` column of threads (one
    /// TSLU leaf per thread, tile rows dealt round-robin) and a wide
    /// one `1 × p`.
    pub fn for_shape(p: usize, tile_rows: usize, tile_cols: usize) -> Result<Self, MatrixError> {
        let mut best = Self::square_for(p)?;
        // |ln(pr/pc) − ln(tile_rows/tile_cols)| orders like the
        // fraction hi/lo ≥ 1 of the two cross products: compared
        // exactly, so a tie is a tie and not a rounding accident
        let distance = |g: &Self| {
            let (x, y) = (g.pr * tile_cols.max(1), g.pc * tile_rows.max(1));
            (x.max(y) as u128, x.min(y) as u128)
        };
        for pr in (1..=p).filter(|pr| p.is_multiple_of(*pr)) {
            let g = Self { pr, pc: p / pr };
            let ((gh, gl), (bh, bl)) = (distance(&g), distance(&best));
            let closer = (gh * bl).cmp(&(bh * gl));
            if closer.is_lt() || closer.is_eq() && g.pr.abs_diff(g.pc) < best.pr.abs_diff(best.pc) {
                best = g;
            }
        }
        Ok(best)
    }

    /// Grid rows.
    #[inline]
    pub fn pr(&self) -> usize {
        self.pr
    }

    /// Grid columns.
    #[inline]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Total number of threads in the grid.
    #[inline]
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Grid coordinates of the thread owning tile `(ti, tj)`.
    #[inline]
    pub fn owner_coords(&self, ti: usize, tj: usize) -> (usize, usize) {
        (ti % self.pr, tj % self.pc)
    }

    /// Linear thread id (row-major over the grid) owning tile `(ti, tj)`.
    #[inline]
    pub fn owner(&self, ti: usize, tj: usize) -> usize {
        let (r, c) = self.owner_coords(ti, tj);
        r * self.pc + c
    }

    /// Grid coordinates of linear thread id `t`.
    #[inline]
    pub fn coords_of(&self, t: usize) -> (usize, usize) {
        debug_assert!(t < self.size());
        (t / self.pc, t % self.pc)
    }

    /// Number of tile rows from a total of `tiles_r` owned by grid row `r`.
    #[inline]
    pub fn local_tile_rows(&self, tiles_r: usize, r: usize) -> usize {
        count_cyclic(tiles_r, self.pr, r)
    }

    /// Number of tile columns from a total of `tiles_c` owned by grid column `c`.
    #[inline]
    pub fn local_tile_cols(&self, tiles_c: usize, c: usize) -> usize {
        count_cyclic(tiles_c, self.pc, c)
    }

    /// Local index of global tile row `ti` within its owner's storage.
    #[inline]
    pub fn local_tile_row(&self, ti: usize) -> usize {
        ti / self.pr
    }

    /// Local index of global tile column `tj` within its owner's storage.
    #[inline]
    pub fn local_tile_col(&self, tj: usize) -> usize {
        tj / self.pc
    }

    /// All global tile rows (< `tiles_r`) owned by grid row `r`, ascending.
    pub fn owned_tile_rows(&self, tiles_r: usize, r: usize) -> impl Iterator<Item = usize> + '_ {
        (r..tiles_r).step_by(self.pr)
    }

    /// All global tile columns (< `tiles_c`) owned by grid column `c`, ascending.
    pub fn owned_tile_cols(&self, tiles_c: usize, c: usize) -> impl Iterator<Item = usize> + '_ {
        (c..tiles_c).step_by(self.pc)
    }
}

/// How many of `0..total` hit residue `r` modulo `p`.
#[inline]
fn count_cyclic(total: usize, p: usize, r: usize) -> usize {
    if r >= p {
        return 0;
    }
    if total <= r {
        0
    } else {
        (total - r).div_ceil(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_grids() {
        assert!(ProcessGrid::new(0, 4).is_err());
        assert!(ProcessGrid::new(4, 0).is_err());
        assert!(ProcessGrid::square_for(0).is_err());
    }

    #[test]
    fn square_for_prefers_balanced_factorizations() {
        assert_eq!(
            ProcessGrid::square_for(16).unwrap(),
            ProcessGrid::new(4, 4).unwrap()
        );
        assert_eq!(
            ProcessGrid::square_for(48).unwrap(),
            ProcessGrid::new(6, 8).unwrap()
        );
        assert_eq!(
            ProcessGrid::square_for(24).unwrap(),
            ProcessGrid::new(4, 6).unwrap()
        );
        assert_eq!(
            ProcessGrid::square_for(7).unwrap(),
            ProcessGrid::new(1, 7).unwrap()
        );
        assert_eq!(
            ProcessGrid::square_for(1).unwrap(),
            ProcessGrid::new(1, 1).unwrap()
        );
    }

    #[test]
    fn for_shape_keeps_the_square_grid_for_square_tilings() {
        // the tripwire for the paper reproduction: every square input
        // keeps the grid (hence DAG and bits) it always had
        for p in 1..=48 {
            let square = ProcessGrid::square_for(p).unwrap();
            for t in [1, 2, 3, 7, 16, 20, 64, 100, 1000] {
                assert_eq!(
                    ProcessGrid::for_shape(p, t, t).unwrap(),
                    square,
                    "p={p} t={t}"
                );
            }
        }
        assert!(ProcessGrid::for_shape(0, 4, 4).is_err());
    }

    #[test]
    fn for_shape_follows_the_tile_aspect() {
        let grid = |pr, pc| ProcessGrid::new(pr, pc).unwrap();
        for p in [2, 4] {
            assert_eq!(ProcessGrid::for_shape(p, 256, 4).unwrap(), grid(p, 1));
            assert_eq!(ProcessGrid::for_shape(p, 4, 256).unwrap(), grid(1, p));
        }
        // a prime count has only the two degenerate grids to pick from
        assert_eq!(ProcessGrid::for_shape(7, 9, 8).unwrap(), grid(7, 1));
        assert_eq!(ProcessGrid::for_shape(7, 8, 9).unwrap(), grid(1, 7));
        // composite counts land on the closest aspect, not an extreme
        assert_eq!(ProcessGrid::for_shape(12, 30, 10).unwrap(), grid(6, 2));
        assert_eq!(ProcessGrid::for_shape(12, 10, 30).unwrap(), grid(2, 6));
        assert_eq!(ProcessGrid::for_shape(48, 64, 1).unwrap(), grid(48, 1));
        // equidistant candidates: the more nearly square one wins, on
        // either side (aspect 2 sits between 4×3 and 6×2)
        assert_eq!(ProcessGrid::for_shape(12, 20, 10).unwrap(), grid(4, 3));
        assert_eq!(ProcessGrid::for_shape(12, 10, 20).unwrap(), grid(3, 4));
        // every answer is a factorization of p
        for p in 1..=48 {
            for (r, c) in [(1, 1), (5, 1), (1, 5), (3, 100), (100, 3), (17, 16)] {
                assert_eq!(ProcessGrid::for_shape(p, r, c).unwrap().size(), p);
            }
        }
    }

    #[test]
    fn ownership_is_block_cyclic() {
        let g = ProcessGrid::new(2, 3).unwrap();
        assert_eq!(g.owner(0, 0), 0);
        assert_eq!(g.owner(1, 0), 3);
        assert_eq!(g.owner(0, 1), 1);
        assert_eq!(g.owner(2, 3), g.owner(0, 0));
        assert_eq!(g.owner(5, 7), g.owner(1, 1));
    }

    #[test]
    fn coords_roundtrip() {
        let g = ProcessGrid::new(3, 4).unwrap();
        for t in 0..g.size() {
            let (r, c) = g.coords_of(t);
            assert_eq!(r * g.pc() + c, t);
        }
    }

    #[test]
    fn local_counts_sum_to_total() {
        let g = ProcessGrid::new(3, 2).unwrap();
        for total in 0..20 {
            let sum: usize = (0..3).map(|r| g.local_tile_rows(total, r)).sum();
            assert_eq!(sum, total, "row counts for total={total}");
            let sum: usize = (0..2).map(|c| g.local_tile_cols(total, c)).sum();
            assert_eq!(sum, total, "col counts for total={total}");
        }
    }

    #[test]
    fn owned_rows_match_ownership() {
        let g = ProcessGrid::new(3, 2).unwrap();
        for r in 0..3 {
            for ti in g.owned_tile_rows(11, r) {
                assert_eq!(ti % 3, r);
                assert!(ti < 11);
            }
            assert_eq!(g.owned_tile_rows(11, r).count(), g.local_tile_rows(11, r));
        }
    }

    #[test]
    fn local_indices_are_dense() {
        let g = ProcessGrid::new(2, 3).unwrap();
        // tiles 0,2,4,... map to local 0,1,2,... on grid row 0
        assert_eq!(g.local_tile_row(0), 0);
        assert_eq!(g.local_tile_row(2), 1);
        assert_eq!(g.local_tile_row(4), 2);
        assert_eq!(g.local_tile_col(1), 0);
        assert_eq!(g.local_tile_col(4), 1);
    }
}
