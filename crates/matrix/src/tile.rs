//! Tiling arithmetic: how an `m × n` matrix is cut into `b × b` tiles.
//!
//! The paper assumes `M = m/b` and `N = n/b` exactly; we additionally
//! support ragged edges (the last tile row/column may be smaller), which
//! the tests exercise heavily.

/// Dimensions of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileDims {
    /// Rows in this tile (`<= b`).
    pub rows: usize,
    /// Columns in this tile (`<= b`).
    pub cols: usize,
}

/// Describes the partition of an `m × n` matrix into `b × b` tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Block (tile) size `b`.
    pub b: usize,
}

impl Tiling {
    /// Create a tiling; panics if `b == 0`.
    pub fn new(m: usize, n: usize, b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        Self { m, n, b }
    }

    /// Number of tile rows `M = ceil(m / b)`.
    #[inline]
    pub fn tile_rows(&self) -> usize {
        self.m.div_ceil(self.b)
    }

    /// Number of tile columns `N = ceil(n / b)`.
    #[inline]
    pub fn tile_cols(&self) -> usize {
        self.n.div_ceil(self.b)
    }

    /// Dimensions of tile `(ti, tj)` (handles ragged edges).
    #[inline]
    pub(crate) fn tile_dims(&self, ti: usize, tj: usize) -> TileDims {
        TileDims {
            rows: self.tile_row_count(ti),
            cols: self.tile_col_count(tj),
        }
    }

    /// Rows in tile row `ti`.
    #[inline]
    pub(crate) fn tile_row_count(&self, ti: usize) -> usize {
        debug_assert!(ti < self.tile_rows());
        (self.m - ti * self.b).min(self.b)
    }

    /// Columns in tile column `tj`.
    #[inline]
    pub fn tile_col_count(&self, tj: usize) -> usize {
        debug_assert!(tj < self.tile_cols());
        (self.n - tj * self.b).min(self.b)
    }

    /// Global row index of the first row of tile row `ti`.
    #[inline]
    pub fn row_start(&self, ti: usize) -> usize {
        ti * self.b
    }

    /// Global column index of the first column of tile column `tj`.
    #[inline]
    pub fn col_start(&self, tj: usize) -> usize {
        tj * self.b
    }

    /// Tile row containing global row `i`.
    #[inline]
    pub(crate) fn tile_of_row(&self, i: usize) -> usize {
        i / self.b
    }

    /// Tile column containing global column `j`.
    #[inline]
    pub(crate) fn tile_of_col(&self, j: usize) -> usize {
        j / self.b
    }

    /// Offset of global row `i` inside its tile.
    #[inline]
    pub(crate) fn row_in_tile(&self, i: usize) -> usize {
        i % self.b
    }

    /// Iterate over all `(ti, tj)` tile coordinates in column-major order.
    pub fn tiles(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let tr = self.tile_rows();
        (0..self.tile_cols()).flat_map(move |tj| (0..tr).map(move |ti| (ti, tj)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tiling() {
        let t = Tiling::new(400, 600, 100);
        assert_eq!(t.tile_rows(), 4);
        assert_eq!(t.tile_cols(), 6);
        assert_eq!(
            t.tile_dims(3, 5),
            TileDims {
                rows: 100,
                cols: 100
            }
        );
    }

    #[test]
    fn ragged_tiling() {
        let t = Tiling::new(450, 330, 100);
        assert_eq!(t.tile_rows(), 5);
        assert_eq!(t.tile_cols(), 4);
        assert_eq!(t.tile_dims(4, 0).rows, 50);
        assert_eq!(t.tile_dims(0, 3).cols, 30);
        assert_eq!(t.tile_dims(4, 3), TileDims { rows: 50, cols: 30 });
    }

    #[test]
    fn start_offsets_and_lookup() {
        let t = Tiling::new(450, 330, 100);
        assert_eq!(t.row_start(4), 400);
        assert_eq!(t.col_start(2), 200);
        assert_eq!(t.tile_of_row(399), 3);
        assert_eq!(t.tile_of_row(400), 4);
        assert_eq!(t.row_in_tile(437), 37);
        assert_eq!(t.tile_of_col(299), 2);
    }

    #[test]
    fn tile_iteration_covers_everything_once() {
        let t = Tiling::new(250, 150, 100);
        let v: Vec<_> = t.tiles().collect();
        assert_eq!(v.len(), 3 * 2);
        assert_eq!(v[0], (0, 0));
        assert_eq!(v[1], (1, 0)); // column-major
        let mut sorted = v.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), v.len());
    }

    #[test]
    fn single_tile_when_b_dominates() {
        let t = Tiling::new(10, 10, 64);
        assert_eq!(t.tile_rows(), 1);
        assert_eq!(t.tile_cols(), 1);
        assert_eq!(t.tile_dims(0, 0), TileDims { rows: 10, cols: 10 });
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        Tiling::new(4, 4, 0);
    }
}
