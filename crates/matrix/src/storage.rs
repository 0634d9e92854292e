//! Tiled storage: one type, [`TiledMatrix`], for all three of the
//! paper's layouts (CM, BCL, 2l-BL), because a layout is one address
//! formula over one buffer, not a type of its own.
//!
//! A [`TiledMatrix`] keeps its elements in **one contiguous buffer** of
//! exactly `m · n` elements; a tile is identified by `(offset, ld)` into
//! that buffer. This uniformity is what lets the parallel executor hand
//! out raw per-tile pointers while the DAG guarantees disjoint access.
//!
//! Every layout is **tile-column-major**: tile column `tj` occupies
//! exactly elements `[col_start(tj) · m, col_end(tj) · m)` of the
//! buffer, the place its columns take in the column-major matrix. Inside
//! that block the tiles of grid row 0's thread come first, then grid row
//! 1's, and so on, so each owner's tiles of the column form one
//! contiguous run. That keeps what §4.1 wants from a thread-local
//! layout: a thread's vertically adjacent tiles of a column stack on one
//! leading dimension (one BLAS-3 call can update several), and the thread
//! that fills its run touches its own pages first. It also lets the buffer
//! become the dense result in place, one tile column at a time: with one
//! grid row, BCL *is* column-major, byte for byte.
//!
//! The layouts then differ in one place, the `(offset, ld)` match in
//! [`TiledMatrix`]'s `tile_loc`: BCL stacks a run's tiles on the owner's
//! local row count, 2l-BL stores each tile with ld = its rows, and CM is
//! BCL on a 1×1 grid.

use crate::dense::DenseMatrix;
use crate::grid::ProcessGrid;
use crate::layout::Layout;
use crate::tile::Tiling;

/// Immutable view of one tile: `rows × cols` stored column-major with
/// leading dimension `ld` inside `data` (element `(i,j)` at `data[i + j*ld]`).
#[derive(Debug)]
pub struct TileRef<'a> {
    /// Backing slice, starting at the tile's first element.
    pub data: &'a [f64],
    /// Leading dimension.
    pub ld: usize,
    /// Tile rows.
    pub rows: usize,
    /// Tile columns.
    pub cols: usize,
}

impl TileRef<'_> {
    /// Read element `(i, j)` of the tile.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld]
    }

    /// Copy the tile into a fresh dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        copy_block(
            self.rows,
            self.cols,
            self.data,
            self.ld,
            out.as_mut_slice(),
            self.rows,
        );
        out
    }
}

/// Mutable view of one tile (same addressing as [`TileRef`]).
#[derive(Debug)]
pub struct TileRefMut<'a> {
    /// Backing slice, starting at the tile's first element.
    pub data: &'a mut [f64],
    /// Leading dimension.
    pub ld: usize,
    /// Tile rows.
    pub rows: usize,
    /// Tile columns.
    pub cols: usize,
}

impl TileRefMut<'_> {
    /// Write element `(i, j)` of the tile.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld] = v;
    }
}

/// Location of a tile inside the contiguous buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLoc {
    /// Index of the tile's `(0,0)` element in the buffer.
    pub offset: usize,
    /// Leading dimension of the tile's column stride.
    pub ld: usize,
    /// Tile rows.
    pub rows: usize,
    /// Tile cols.
    pub cols: usize,
}

/// A matrix cut into `b × b` tiles, each addressable as a column-major
/// sub-block of one contiguous buffer. Its one implementation is
/// [`TiledMatrix`]; the trait is kept for the ruler's `to_tiles` rung
/// (a `Box<dyn TileStorage>`), and a ruler PR removes it, its methods
/// then becoming [`TiledMatrix`]'s own.
pub trait TileStorage {
    /// The tiling geometry (m, n, b).
    fn tiling(&self) -> Tiling;

    /// Which of the paper's layouts the tiles are placed by.
    fn layout(&self) -> Layout;

    /// The ownership grid used to place tiles (CM reports a 1×1 grid).
    fn grid(&self) -> ProcessGrid;

    /// Buffer location of tile `(ti, tj)`.
    fn tile_loc(&self, ti: usize, tj: usize) -> TileLoc;

    /// The single backing buffer.
    fn buffer(&self) -> &[f64];

    /// Mutable access to the backing buffer.
    fn buffer_mut(&mut self) -> &mut [f64];

    /// Move the backing buffer out, leaving the storage empty. Once every
    /// tile column's block holds its columns in column-major order, this
    /// is the dense matrix's data, with no copy.
    fn take_buffer(&mut self) -> Vec<f64>;

    /// Immutable tile view.
    fn tile(&self, ti: usize, tj: usize) -> TileRef<'_> {
        let loc = self.tile_loc(ti, tj);
        let end = loc.offset + tile_span(loc);
        TileRef {
            data: &self.buffer()[loc.offset..end],
            ld: loc.ld,
            rows: loc.rows,
            cols: loc.cols,
        }
    }

    /// Mutable tile view.
    fn tile_mut(&mut self, ti: usize, tj: usize) -> TileRefMut<'_> {
        let loc = self.tile_loc(ti, tj);
        let end = loc.offset + tile_span(loc);
        TileRefMut {
            data: &mut self.buffer_mut()[loc.offset..end],
            ld: loc.ld,
            rows: loc.rows,
            cols: loc.cols,
        }
    }

    /// Read one element through the tile map (slow path, for tests/IO).
    fn get(&self, i: usize, j: usize) -> f64 {
        let t = self.tiling();
        let tile = self.tile(t.tile_of_row(i), t.tile_of_col(j));
        tile.get(t.row_in_tile(i), j % t.b)
    }

    /// Write one element through the tile map (slow path, for tests/IO).
    fn set(&mut self, i: usize, j: usize, v: f64) {
        let t = self.tiling();
        let (ti, tj) = (t.tile_of_row(i), t.tile_of_col(j));
        let (ri, rj) = (t.row_in_tile(i), j % t.b);
        let mut tile = self.tile_mut(ti, tj);
        tile.set(ri, rj, v);
    }

    /// Gather the whole matrix into a fresh column-major dense matrix.
    fn to_dense(&self) -> DenseMatrix {
        let t = self.tiling();
        let mut out = DenseMatrix::zeros(t.m, t.n);
        for (ti, tj) in t.tiles() {
            let tile = self.tile(ti, tj);
            let at = t.col_start(tj) * t.m + t.row_start(ti);
            let dst = &mut out.as_mut_slice()[at..];
            copy_block(tile.rows, tile.cols, tile.data, tile.ld, dst, t.m);
        }
        out
    }

    /// Scatter a dense matrix into this storage (shapes must match).
    fn load_dense(&mut self, a: &DenseMatrix) {
        let t = self.tiling();
        assert_eq!(
            (a.rows(), a.cols()),
            (t.m, t.n),
            "load_dense shape mismatch"
        );
        for (ti, tj) in t.tiles() {
            let at = t.col_start(tj) * t.m + t.row_start(ti);
            let tile = self.tile_mut(ti, tj);
            let src = &a.as_slice()[at..];
            copy_block(tile.rows, tile.cols, src, t.m, tile.data, tile.ld);
        }
    }
}

/// Copy a `rows × cols` column-major block from `src` (leading
/// dimension `src_ld`) into `dst` (leading dimension `dst_ld`), one
/// contiguous column at a time — the one copy loop behind every
/// dense↔tile conversion.
fn copy_block(
    rows: usize,
    cols: usize,
    src: &[f64],
    src_ld: usize,
    dst: &mut [f64],
    dst_ld: usize,
) {
    for j in 0..cols {
        dst[j * dst_ld..j * dst_ld + rows].copy_from_slice(&src[j * src_ld..j * src_ld + rows]);
    }
}

/// Number of buffer elements spanned by a tile (from its offset to one past
/// its last element).
#[inline]
fn tile_span(loc: TileLoc) -> usize {
    if loc.rows == 0 || loc.cols == 0 {
        0
    } else {
        (loc.cols - 1) * loc.ld + loc.rows
    }
}

/// A matrix in one of the paper's layouts (Table 1). Tiles are placed
/// block-cyclically over a `pr × pc` thread grid, each owner's tiles of
/// a tile column one run (see the module docs); a layout is how a run
/// holds its tiles:
///
/// * **BCL** (§4.1): one column-major submatrix on the owner's local
///   row count, so a thread's vertically adjacent tiles of a column
///   share its columns and one BLAS-3 call can update several (the
///   grouping of §3);
/// * **2l-BL** (§4.2): each tile contiguous (ld = its rows), so a tile
///   fits in cache, at the price (noted in the paper) that tiles can no
///   longer be grouped;
/// * **CM**: BCL on a 1×1 grid, whatever grid it is given (ld = `m`).
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    layout: Layout,
    tiling: Tiling,
    grid: ProcessGrid,
    /// Where each grid row's run starts inside a tile column's block, in
    /// rows of that block: grid row `r`'s tiles (the tile rows it owns,
    /// ascending, each a full `b` rows but the ragged last) take rows
    /// `owner_rows[r]..owner_rows[r + 1]`. `pr + 1` entries.
    owner_rows: Vec<usize>,
    data: Vec<f64>,
}

impl TiledMatrix {
    /// Zero-initialized `m × n` storage in `layout`, its tiles placed
    /// over `grid` (CM reports a 1×1 grid instead).
    pub fn zeros(layout: Layout, m: usize, n: usize, b: usize, grid: ProcessGrid) -> Self {
        let tiling = Tiling::new(m, n, b);
        let grid = match layout {
            Layout::ColumnMajor => one_thread(),
            Layout::BlockCyclic | Layout::TwoLevelBlock => grid,
        };
        let mut owner_rows = vec![0; grid.pr() + 1];
        for r in 0..grid.pr() {
            let rows: usize = grid
                .owned_tile_rows(tiling.tile_rows(), r)
                .map(|ti| tiling.tile_row_count(ti))
                .sum();
            owner_rows[r + 1] = owner_rows[r] + rows;
        }
        Self {
            layout,
            tiling,
            grid,
            owner_rows,
            data: vec![0.0; m * n],
        }
    }

    /// Build from a dense matrix.
    pub fn from_dense(layout: Layout, a: &DenseMatrix, b: usize, grid: ProcessGrid) -> Self {
        let mut s = Self::zeros(layout, a.rows(), a.cols(), b, grid);
        s.load_dense(a);
        s
    }
}

/// The 1×1 grid CM is placed on.
fn one_thread() -> ProcessGrid {
    ProcessGrid::new(1, 1).expect("1x1 grid")
}

impl TileStorage for TiledMatrix {
    fn tiling(&self) -> Tiling {
        self.tiling
    }

    fn layout(&self) -> Layout {
        self.layout
    }

    fn grid(&self) -> ProcessGrid {
        self.grid
    }

    #[inline]
    fn tile_loc(&self, ti: usize, tj: usize) -> TileLoc {
        let t = self.tiling;
        let d = t.tile_dims(ti, tj);
        let r = ti % self.grid.pr();
        let first = self.owner_rows[r];
        // owned tile rows before the ragged last one are always full `b`
        let row = self.grid.local_tile_row(ti) * t.b;
        let (offset, ld) = match self.layout {
            // the owner's earlier tiles of the column are full `b × cols`
            // blocks, one after another
            Layout::TwoLevelBlock => ((first + row) * d.cols, d.rows),
            // the owner's run is one column-major submatrix
            Layout::ColumnMajor | Layout::BlockCyclic => {
                (first * d.cols + row, self.owner_rows[r + 1] - first)
            }
        };
        TileLoc {
            offset: t.col_start(tj) * t.m + offset,
            ld,
            rows: d.rows,
            cols: d.cols,
        }
    }

    fn buffer(&self) -> &[f64] {
        &self.data
    }

    fn buffer_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    fn take_buffer(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.data)
    }
}

/// Constructors of a CM [`TiledMatrix`], owning no data. Kept for the
/// ruler's `to_tiles` rung; a ruler PR removes it.
pub enum CmTiles {}

impl CmTiles {
    /// Zero-initialized CM storage.
    pub fn zeros(m: usize, n: usize, b: usize) -> TiledMatrix {
        TiledMatrix::zeros(Layout::ColumnMajor, m, n, b, one_thread())
    }

    /// Build from a dense matrix.
    pub fn from_dense(a: &DenseMatrix, b: usize) -> TiledMatrix {
        TiledMatrix::from_dense(Layout::ColumnMajor, a, b, one_thread())
    }
}

/// Constructors of a BCL [`TiledMatrix`], owning no data. Kept for the
/// ruler's `to_tiles` rung; a ruler PR removes it.
pub enum BclMatrix {}

impl BclMatrix {
    /// Zero-initialized BCL storage over `grid`.
    pub fn zeros(m: usize, n: usize, b: usize, grid: ProcessGrid) -> TiledMatrix {
        TiledMatrix::zeros(Layout::BlockCyclic, m, n, b, grid)
    }

    /// Build from a dense matrix.
    pub fn from_dense(a: &DenseMatrix, b: usize, grid: ProcessGrid) -> TiledMatrix {
        TiledMatrix::from_dense(Layout::BlockCyclic, a, b, grid)
    }
}

/// Constructors of a 2l-BL [`TiledMatrix`], owning no data. Kept for
/// the ruler's `to_tiles` rung; a ruler PR removes it.
pub enum TlbMatrix {}

impl TlbMatrix {
    /// Zero-initialized 2l-BL storage over `grid`.
    pub fn zeros(m: usize, n: usize, b: usize, grid: ProcessGrid) -> TiledMatrix {
        TiledMatrix::zeros(Layout::TwoLevelBlock, m, n, b, grid)
    }

    /// Build from a dense matrix.
    pub fn from_dense(a: &DenseMatrix, b: usize, grid: ProcessGrid) -> TiledMatrix {
        TiledMatrix::from_dense(Layout::TwoLevelBlock, a, b, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample(m: usize, n: usize) -> DenseMatrix {
        gen::uniform(m, n, 42)
    }

    #[test]
    fn cm_roundtrip() {
        let a = sample(17, 13);
        let s = CmTiles::from_dense(&a, 5);
        assert!(s.to_dense().approx_eq(&a, 0.0));
        assert_eq!(s.layout(), Layout::ColumnMajor);
    }

    #[test]
    fn bcl_roundtrip_exact_and_ragged() {
        for (m, n, b) in [(12, 12, 3), (17, 13, 5), (8, 20, 4), (5, 5, 8)] {
            let a = sample(m, n);
            let g = ProcessGrid::new(2, 2).unwrap();
            let s = BclMatrix::from_dense(&a, b, g);
            assert!(s.to_dense().approx_eq(&a, 0.0), "m={m} n={n} b={b}");
        }
    }

    #[test]
    fn tlb_roundtrip_exact_and_ragged() {
        for (m, n, b) in [(12, 12, 3), (17, 13, 5), (8, 20, 4), (5, 5, 8)] {
            let a = sample(m, n);
            let g = ProcessGrid::new(2, 3).unwrap();
            let s = TlbMatrix::from_dense(&a, b, g);
            assert!(s.to_dense().approx_eq(&a, 0.0), "m={m} n={n} b={b}");
        }
    }

    #[test]
    fn conversions_roundtrip_every_layout_tiling_and_grid() {
        // small on purpose: CI runs this test under Miri too
        let grids = [(1, 1), (1, 3), (3, 1), (2, 2), (4, 1), (1, 4), (2, 3)];
        for (m, n, b) in [(12, 12, 3), (17, 13, 5), (23, 4, 4), (4, 23, 4), (5, 5, 8)] {
            let a = sample(m, n);
            for (pr, pc) in grids {
                let g = ProcessGrid::new(pr, pc).unwrap();
                let storages: [Box<dyn TileStorage>; 3] = [
                    Box::new(CmTiles::from_dense(&a, b)),
                    Box::new(BclMatrix::from_dense(&a, b, g)),
                    Box::new(TlbMatrix::from_dense(&a, b, g)),
                ];
                for s in &storages {
                    let ctx = format!("{:?} {m}x{n} b={b} grid {pr}x{pc}", s.layout());
                    assert_eq!(s.to_dense(), a, "{ctx}");
                    // the slice copies agree with the element accessors
                    for (i, j) in [(0, 0), (m - 1, n - 1), (m / 2, n / 3)] {
                        assert_eq!(s.get(i, j), a.get(i, j), "{ctx} ({i},{j})");
                    }
                    let t = s.tiling();
                    let (ti, tj) = (t.tile_rows() - 1, t.tile_cols() - 1);
                    let corner = a.submatrix(
                        t.row_start(ti),
                        t.col_start(tj),
                        t.tile_row_count(ti),
                        t.tile_col_count(tj),
                    );
                    assert_eq!(s.tile(ti, tj).to_dense(), corner, "{ctx} ragged corner");
                }
            }
        }
    }

    #[test]
    fn tile_views_match_dense_blocks() {
        let a = sample(20, 15);
        let g = ProcessGrid::new(2, 2).unwrap();
        let cm = CmTiles::from_dense(&a, 4);
        let bcl = BclMatrix::from_dense(&a, 4, g);
        let tlb = TlbMatrix::from_dense(&a, 4, g);
        let t = cm.tiling();
        for (ti, tj) in t.tiles() {
            let want = a.submatrix(
                t.row_start(ti),
                t.col_start(tj),
                t.tile_row_count(ti),
                t.tile_col_count(tj),
            );
            for s in [&cm as &dyn TileStorage, &bcl, &tlb] {
                let got = s.tile(ti, tj).to_dense();
                assert!(
                    got.approx_eq(&want, 0.0),
                    "layout {:?} tile ({ti},{tj})",
                    s.layout()
                );
            }
        }
    }

    #[test]
    fn element_accessors_roundtrip() {
        let g = ProcessGrid::new(2, 2).unwrap();
        let mut s = TlbMatrix::zeros(10, 10, 3, g);
        s.set(7, 4, 3.5);
        assert_eq!(s.get(7, 4), 3.5);
        let mut s = BclMatrix::zeros(10, 10, 3, g);
        s.set(9, 9, -1.25);
        assert_eq!(s.get(9, 9), -1.25);
    }

    #[test]
    fn tlb_tiles_are_contiguous() {
        let g = ProcessGrid::new(2, 2).unwrap();
        let s = TlbMatrix::zeros(12, 12, 3, g);
        let t = s.tiling();
        for (ti, tj) in t.tiles() {
            let loc = s.tile_loc(ti, tj);
            assert_eq!(loc.ld, loc.rows, "tile ({ti},{tj}) must be contiguous");
        }
    }

    #[test]
    fn bcl_vertical_neighbors_share_columns() {
        // Tiles (0,0) and (2,0) belong to the same thread on a 2x2 grid and
        // must be vertically adjacent in its local submatrix.
        let g = ProcessGrid::new(2, 2).unwrap();
        let s = BclMatrix::zeros(16, 16, 4, g);
        let a = s.tile_loc(0, 0);
        let c = s.tile_loc(2, 0);
        assert_eq!(a.ld, c.ld);
        assert_eq!(c.offset, a.offset + 4, "local rows must be stacked");
    }

    #[test]
    fn tile_columns_cover_their_blocks_and_each_owner_is_one_run() {
        // square and ragged, tall and skinny, over 1×2, 2×1, 2×2 and 3×1
        for (m, n, b) in [(250, 250, 16), (1152, 64, 16), (17, 13, 5)] {
            for (pr, pc) in [(1, 2), (2, 1), (2, 2), (3, 1)] {
                let g = ProcessGrid::new(pr, pc).unwrap();
                let cm = CmTiles::zeros(m, n, b);
                let storages: [Box<dyn TileStorage>; 3] = [
                    Box::new(cm.clone()),
                    Box::new(BclMatrix::zeros(m, n, b, g)),
                    Box::new(TlbMatrix::zeros(m, n, b, g)),
                ];
                for s in &storages {
                    let ctx = format!("{:?} {m}x{n} b={b} grid {pr}x{pc}", s.layout());
                    assert_eq!(s.buffer().len(), m * n, "{ctx}");
                    let (t, grid) = (s.tiling(), s.grid());
                    for tj in 0..t.tile_cols() {
                        let w = t.tile_col_count(tj);
                        let block = t.col_start(tj) * m..(t.col_start(tj) + w) * m;
                        // every element of the block is one tile's, once
                        let mut hits = vec![0u8; m * w];
                        for ti in 0..t.tile_rows() {
                            let loc = s.tile_loc(ti, tj);
                            for j in 0..loc.cols {
                                for i in 0..loc.rows {
                                    let at = loc.offset + i + j * loc.ld;
                                    assert!(block.contains(&at), "{ctx} tile ({ti},{tj})");
                                    hits[at - block.start] += 1;
                                }
                            }
                        }
                        assert!(hits.iter().all(|&h| h == 1), "{ctx} column {tj}");
                        // each owner's tiles: one run of `local rows · w`
                        for r in 0..grid.pr() {
                            let mine: Vec<TileLoc> = grid
                                .owned_tile_rows(t.tile_rows(), r)
                                .map(|ti| s.tile_loc(ti, tj))
                                .collect();
                            let local: usize = mine.iter().map(|l| l.rows).sum();
                            let start = mine.iter().map(|l| l.offset).min().unwrap();
                            let end = mine.iter().map(|l| l.offset + tile_span(*l));
                            let end = end.max().unwrap();
                            assert_eq!(end - start, local * w, "{ctx} column {tj}, owner {r}");
                            if s.layout() == Layout::BlockCyclic {
                                assert!(mine.iter().all(|l| l.ld == local), "{ctx} ld");
                            }
                        }
                    }
                    // one grid row: BCL is column-major, tile for tile
                    if s.layout() == Layout::BlockCyclic && pr == 1 {
                        for (ti, tj) in t.tiles() {
                            assert_eq!(s.tile_loc(ti, tj), cm.tile_loc(ti, tj), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grids_reported() {
        let g = ProcessGrid::new(2, 3).unwrap();
        assert_eq!(BclMatrix::zeros(8, 8, 2, g).grid(), g);
        assert_eq!(TlbMatrix::zeros(8, 8, 2, g).grid(), g);
        assert_eq!(CmTiles::zeros(8, 8, 2).grid().size(), 1);
    }

    #[test]
    fn cm_ignores_the_grid_it_is_given() {
        // the sweep's grids: CM is placed on 1×1 whichever it gets
        let one = ProcessGrid::new(1, 1).unwrap();
        for (m, n, b) in [(12, 12, 3), (17, 13, 5), (23, 4, 4)] {
            let want = TiledMatrix::zeros(Layout::ColumnMajor, m, n, b, one);
            for (pr, pc) in [(1, 1), (1, 3), (3, 1), (2, 2)] {
                let g = ProcessGrid::new(pr, pc).unwrap();
                let s = TiledMatrix::zeros(Layout::ColumnMajor, m, n, b, g);
                assert_eq!(s.grid(), one, "{m}x{n} b={b} grid {pr}x{pc}");
                for (ti, tj) in s.tiling().tiles() {
                    let ctx = format!("{m}x{n} b={b} grid {pr}x{pc} tile ({ti},{tj})");
                    let loc = s.tile_loc(ti, tj);
                    assert_eq!(loc, want.tile_loc(ti, tj), "{ctx}");
                    // the column-major matrix's own address of the tile
                    let t = s.tiling();
                    let at = t.col_start(tj) * m + t.row_start(ti);
                    assert_eq!((loc.offset, loc.ld), (at, m), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn take_buffer_moves_the_data_out() {
        // one grid row: BCL's buffer is the column-major matrix
        let a = sample(9, 7);
        let mut s = BclMatrix::from_dense(&a, 4, ProcessGrid::new(1, 2).unwrap());
        assert_eq!(s.take_buffer(), a.as_slice());
        assert!(s.buffer().is_empty());
    }
}
