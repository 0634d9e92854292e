//! Shared tile access for the parallel executor.
//!
//! A [`TiledMatrix`] keeps its elements in one contiguous buffer of
//! `m · n` elements, whatever its layout. The executor needs many
//! threads writing *different* tiles of that buffer concurrently; the
//! task DAG guarantees the tiles are disjoint, and this module funnels
//! the one unavoidable `unsafe` into a single audited wrapper. The same
//! wrapper is the way out: once every task ran, each tile column's block
//! is rearranged in place into the dense factors' columns, and the
//! buffer is taken whole as the result.

use calu_matrix::storage::TileLoc;
use calu_matrix::{TileStorage, TiledMatrix};
use std::cell::UnsafeCell;

/// A raw, writable view of one tile (column-major, leading dimension
/// `ld`).
#[derive(Debug, Clone, Copy)]
pub struct TilePtr {
    /// Pointer to element `(0, 0)` of the tile.
    pub ptr: *mut f64,
    /// Leading dimension.
    pub ld: usize,
    /// Tile rows.
    pub rows: usize,
    /// Tile columns.
    pub cols: usize,
}

impl TilePtr {
    /// Read element `(i, j)`.
    ///
    /// # Safety
    /// The caller must have (shared) access to the tile per the DAG.
    #[inline]
    pub unsafe fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        *self.ptr.add(i + j * self.ld)
    }

    /// Write element `(i, j)`.
    ///
    /// # Safety
    /// The caller must have exclusive access to the tile per the DAG.
    #[inline]
    pub unsafe fn set(&self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        *self.ptr.add(i + j * self.ld) = v;
    }

    /// Column `j` of the tile as a slice of exactly its `rows` elements
    /// — never the neighbouring tiles' rows that share the column in
    /// the CM and BCL layouts.
    ///
    /// # Safety
    /// The caller must have (shared) access to the tile per the DAG for
    /// as long as the slice lives.
    #[inline]
    pub unsafe fn col<'a>(&self, j: usize) -> &'a [f64] {
        debug_assert!(j < self.cols);
        std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows)
    }

    /// Column `j` of the tile as a writable slice (see [`col`](Self::col)).
    ///
    /// # Safety
    /// The caller must have exclusive access to the tile per the DAG
    /// for as long as the slice lives.
    #[inline]
    pub unsafe fn col_mut<'a>(&self, j: usize) -> &'a mut [f64] {
        debug_assert!(j < self.cols);
        std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows)
    }
}

/// Tiled-matrix wrapper handing out per-tile raw pointers.
///
/// Safety model: tasks of the factorization DAG write disjoint tiles at
/// any instant (enforced by dependence counting), so concurrent
/// [`SharedTiles::tile_ptr`] uses never alias writes. Tiles may share
/// cache lines (CM/BCL interleave tiles within columns of the parent
/// buffer) but never share *elements*. The buffer is held by a raw
/// pointer taken once, at construction, so handing out a tile or a tile
/// column's block never forms a reference to the whole allocation while
/// other parts of it are being written.
pub struct SharedTiles {
    inner: UnsafeCell<TiledMatrix>,
    /// The start of `inner`'s buffer of exactly `m · n` elements.
    base: *mut f64,
}

// SAFETY: `inner` is only read for its immutable geometry, except by
// `take_buffer`, whose contract makes that call exclusive; `base` points
// into the buffer `inner` owns, and which tiles or column blocks are
// written concurrently is delegated to the task DAG (see type docs).
unsafe impl Send for SharedTiles {}
unsafe impl Sync for SharedTiles {}

impl SharedTiles {
    /// Wrap a tiled matrix for shared tile access.
    pub fn new(mut storage: TiledMatrix) -> Self {
        let t = storage.tiling();
        // every offset handed out below stays inside this length
        assert_eq!(storage.buffer().len(), t.m * t.n, "one m × n buffer");
        Self {
            base: storage.buffer_mut().as_mut_ptr(),
            inner: UnsafeCell::new(storage),
        }
    }

    fn storage(&self) -> &TiledMatrix {
        // SAFETY: nothing forms a `&mut TiledMatrix` but `take_buffer`, whose
        // contract rules out every other use of this value.
        unsafe { &*self.inner.get() }
    }

    /// Tile location metadata (no data access).
    pub fn loc(&self, ti: usize, tj: usize) -> TileLoc {
        self.storage().tile_loc(ti, tj)
    }

    /// Raw pointer to tile `(ti, tj)`.
    ///
    /// # Safety
    /// Callers must respect the DAG: no two threads may hold a writable
    /// view of the same tile at the same time, and readers must be
    /// ordered after the writer that produced the data.
    pub unsafe fn tile_ptr(&self, ti: usize, tj: usize) -> TilePtr {
        let loc = self.loc(ti, tj);
        TilePtr {
            ptr: self.base.add(loc.offset),
            ld: loc.ld,
            rows: loc.rows,
            cols: loc.cols,
        }
    }

    /// Rearrange tile column `tj` in place into the dense matrix's
    /// columns `col_start(tj)..col_end(tj)` and return them (leading
    /// dimension `m`). They are the buffer's elements `[col_start · m,
    /// col_end · m)`, which hold exactly that column's tiles. A block
    /// already in column-major order (CM, or BCL with one grid row) is
    /// returned as it is; when every tile row is `b` tall its `b`-element
    /// column segments are permuted in place (`permute_segments`); a
    /// ragged one is copied aside and gathered back (`gather`). Both
    /// work in the caller's `scratch`.
    ///
    /// # Safety
    /// No tile pointer into the column and no other slice of its block
    /// may be live, and its tiles must not be used as tiles afterwards.
    pub unsafe fn densify_col<'a>(&self, tj: usize, scratch: &mut DensifyScratch) -> &'a mut [f64] {
        let t = self.storage().tiling();
        assert!(tj < t.tile_cols(), "tile column out of range");
        let (m, start) = (t.m, t.col_start(tj) * t.m);
        let block = std::slice::from_raw_parts_mut(self.base.add(start), t.tile_col_count(tj) * m);
        let tiles = (0..t.tile_rows()).map(|ti| {
            let loc = self.loc(ti, tj);
            let offset = loc.offset - start;
            (t.row_start(ti), TileLoc { offset, ..loc })
        });
        if tiles.clone().all(|(row, l)| l.offset == row && l.ld == m) {
            return block;
        }
        if m % t.b == 0 {
            permute_segments(block, m, t.b, tiles, &mut scratch.held, &mut scratch.src);
        } else {
            gather(block, m, tiles, &mut scratch.block);
        }
        block
    }

    /// Move the buffer out: once every tile column went through
    /// [`densify_col`](Self::densify_col), the dense matrix's data.
    ///
    /// # Safety
    /// Every tile pointer and column block handed out must be dead, with
    /// its writes visible to the calling thread, and no tile of this
    /// value may be used again.
    pub unsafe fn take_buffer(&self) -> Vec<f64> {
        (*self.inner.get()).take_buffer()
    }
}

/// A worker's buffers for [`SharedTiles::densify_col`], kept across
/// tile columns so a DENSIFY allocates only while they grow: the copy
/// of a ragged block, and an in-place permutation's segment held aside
/// and table of segment sources.
#[derive(Debug, Default)]
pub struct DensifyScratch {
    block: Vec<f64>,
    held: Vec<f64>,
    src: Vec<u32>,
}

/// Rearrange `block`, whose tiles sit at `tiles` (each tile's first
/// row in the dense columns, and its location from the block's start),
/// into the column-major columns of `m` rows it holds, through a copy
/// of it in `copy`.
fn gather(
    block: &mut [f64],
    m: usize,
    tiles: impl IntoIterator<Item = (usize, TileLoc)>,
    copy: &mut Vec<f64>,
) {
    copy.clear();
    copy.extend_from_slice(block);
    for (row, loc) in tiles {
        let tile = &copy[loc.offset..];
        for j in 0..loc.cols {
            block[j * m + row..][..loc.rows].copy_from_slice(&tile[j * loc.ld..][..loc.rows]);
        }
    }
}

/// [`gather`]'s result, in place, when every tile is `b` rows tall: a
/// tile's column is then one `b`-element segment, both where it sits and
/// where it goes, so the block is a permutation of its segments. The
/// permutation is applied cycle by cycle through one segment `held`
/// aside, the table `src` of each segment's source marking the segments
/// done.
fn permute_segments(
    block: &mut [f64],
    m: usize,
    b: usize,
    tiles: impl IntoIterator<Item = (usize, TileLoc)>,
    held: &mut Vec<f64>,
    src: &mut Vec<u32>,
) {
    const DONE: u32 = u32::MAX;
    src.clear();
    src.resize(block.len() / b, DONE);
    assert!(src.len() < DONE as usize, "segments are numbered in u32");
    for (row, loc) in tiles {
        debug_assert!(loc.rows == b && loc.offset % b == 0 && loc.ld % b == 0);
        for j in 0..loc.cols {
            src[(j * m + row) / b] = ((loc.offset + j * loc.ld) / b) as u32;
        }
    }
    held.resize(b, 0.0);
    for first in 0..src.len() {
        if src[first] == DONE || src[first] as usize == first {
            continue;
        }
        held.copy_from_slice(&block[first * b..][..b]);
        let mut to = first;
        loop {
            let from = std::mem::replace(&mut src[to], DONE) as usize;
            if from == first {
                block[to * b..][..b].copy_from_slice(held);
                break;
            }
            block.copy_within(from * b..(from + 1) * b, to * b);
            to = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::{gen, BclMatrix, CmTiles, Layout, ProcessGrid, TlbMatrix};

    #[test]
    fn tile_ptr_reads_match_storage() {
        let a = gen::uniform(12, 12, 1);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let s = BclMatrix::from_dense(&a, 4, grid);
        let shared = SharedTiles::new(s);
        unsafe {
            let t = shared.tile_ptr(1, 2);
            assert_eq!(t.rows, 4);
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(t.get(i, j), a.get(4 + i, 8 + j));
                }
            }
        }
    }

    #[test]
    fn disjoint_tiles_have_disjoint_elements() {
        let grid = ProcessGrid::new(2, 2).unwrap();
        let shared = SharedTiles::new(BclMatrix::zeros(8, 8, 4, grid));
        unsafe {
            let a = shared.tile_ptr(0, 0);
            let b = shared.tile_ptr(1, 1);
            a.set(0, 0, 1.0);
            b.set(0, 0, 2.0);
            assert_eq!(a.get(0, 0), 1.0);
            assert_eq!(b.get(0, 0), 2.0);
        }
    }

    /// Densify every tile column of `s` in turn and take the buffer,
    /// with the scratch's length after the last column.
    fn densify_and_take(s: TiledMatrix) -> (Vec<f64>, usize) {
        let cols = s.tiling().tile_cols();
        let shared = SharedTiles::new(s);
        let mut scratch = DensifyScratch::default();
        // SAFETY: no tile pointer is live; each column's block is
        // densified once and is dead before the next one and the take.
        let data = unsafe {
            for tj in 0..cols {
                shared.densify_col(tj, &mut scratch);
            }
            shared.take_buffer()
        };
        (data, scratch.block.len())
    }

    #[test]
    fn tile_columns_densify_in_place_into_the_dense_matrix() {
        // small on purpose: CI runs this module's tests under Miri; 18×7
        // at b = 2 gives a 2×1 grid's owners 5 and 4 tiles a column, in
        // blocks of 2 and 3, and of 1 and 3 (counted from the run's end)
        for (m, n, b) in [(12, 12, 3), (17, 13, 5), (23, 4, 4), (18, 7, 2)] {
            let a = gen::uniform(m, n, 3);
            let (cm, scratch) = densify_and_take(CmTiles::from_dense(&a, b));
            assert_eq!((cm.as_slice(), scratch), (a.as_slice(), 0), "CM {m}x{n}");
            for (pr, pc) in [(1, 2), (2, 1), (2, 2), (3, 1)] {
                let g = ProcessGrid::new(pr, pc).unwrap();
                let ctx = format!("{m}x{n} b={b} grid {pr}x{pc}");
                let (bcl, scratch) = densify_and_take(BclMatrix::from_dense(&a, b, g));
                assert_eq!(bcl, a.as_slice(), "BCL {ctx}");
                // one grid row: already column-major, so nothing moves;
                // b-tall tile rows: permuted in place; ragged: gathered
                let ragged = m % b != 0;
                assert_eq!(scratch > 0, pr > 1 && ragged, "BCL {ctx}");
                let (tlb, scratch) = densify_and_take(TlbMatrix::from_dense(&a, b, g));
                assert_eq!(tlb, a.as_slice(), "2l-BL {ctx}");
                assert_eq!(scratch > 0, ragged, "2l-BL {ctx}");
                assert!(scratch <= b * m, "one block of scratch, {ctx}");
            }
        }
    }

    #[test]
    fn in_place_densify_matches_the_gather_bit_for_bit() {
        // every non-ragged shape here, over tall grids and group heights
        // (small on purpose: CI runs this module's tests under Miri)
        for (m, n, b) in [(12, 12, 3), (18, 7, 2), (16, 9, 4)] {
            let a = gen::uniform(m, n, 5);
            for (pr, pc) in [(2, 1), (3, 1), (2, 2), (4, 1)] {
                let g = ProcessGrid::new(pr, pc).unwrap();
                for (layout, group) in [
                    (Layout::BlockCyclic, 1),
                    (Layout::BlockCyclic, 2),
                    (Layout::BlockCyclic, 3),
                    (Layout::TwoLevelBlock, 1),
                ] {
                    let ctx = format!("{layout:?} {m}x{n} b={b} grid {pr}x{pc} group {group}");
                    let s = TiledMatrix::from_dense(layout, &a, b, g, group);
                    let t = s.tiling();
                    for tj in 0..t.tile_cols() {
                        let start = t.col_start(tj) * m;
                        let cols = start..start + t.tile_col_count(tj) * m;
                        let tiles: Vec<(usize, TileLoc)> = (0..t.tile_rows())
                            .map(|ti| {
                                let loc = s.tile_loc(ti, tj);
                                let offset = loc.offset - start;
                                (t.row_start(ti), TileLoc { offset, ..loc })
                            })
                            .collect();
                        let mut gathered = s.buffer()[cols.clone()].to_vec();
                        gather(&mut gathered, m, tiles.clone(), &mut Vec::new());
                        let mut permuted = s.buffer()[cols.clone()].to_vec();
                        let (mut held, mut src) = (Vec::new(), Vec::new());
                        permute_segments(&mut permuted, m, b, tiles, &mut held, &mut src);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&permuted), bits(&gathered), "{ctx} column {tj}");
                        assert_eq!(bits(&permuted), bits(&a.as_slice()[cols]), "{ctx}");
                    }
                    let mut scratch = DensifyScratch::default();
                    let shared = SharedTiles::new(s);
                    // SAFETY: no tile pointer is live; each column's block
                    // is densified once and dead before the next one.
                    unsafe {
                        for tj in 0..t.tile_cols() {
                            shared.densify_col(tj, &mut scratch);
                        }
                    }
                    assert_eq!(scratch.block.capacity(), 0, "no block copied, {ctx}");
                }
            }
        }
    }
}
