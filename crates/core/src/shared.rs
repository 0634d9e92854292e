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
    /// returned as it is; any other is copied to `scratch`, the caller's
    /// one-block buffer, and gathered back.
    ///
    /// # Safety
    /// No tile pointer into the column and no other slice of its block
    /// may be live, and its tiles must not be used as tiles afterwards.
    pub unsafe fn densify_col<'a>(&self, tj: usize, scratch: &mut Vec<f64>) -> &'a mut [f64] {
        let t = self.storage().tiling();
        assert!(tj < t.tile_cols(), "tile column out of range");
        let (m, start) = (t.m, t.col_start(tj) * t.m);
        let block = std::slice::from_raw_parts_mut(self.base.add(start), t.tile_col_count(tj) * m);
        let column_major = (0..t.tile_rows()).all(|ti| {
            let loc = self.loc(ti, tj);
            loc.offset == start + t.row_start(ti) && loc.ld == m
        });
        if !column_major {
            scratch.clear();
            scratch.extend_from_slice(block);
            for ti in 0..t.tile_rows() {
                let loc = self.loc(ti, tj);
                let tile = &scratch[loc.offset - start..];
                let row = t.row_start(ti);
                for j in 0..loc.cols {
                    block[j * m + row..][..loc.rows]
                        .copy_from_slice(&tile[j * loc.ld..][..loc.rows]);
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::{gen, BclMatrix, CmTiles, ProcessGrid, TlbMatrix};

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
        let mut scratch = Vec::new();
        // SAFETY: no tile pointer is live; each column's block is
        // densified once and is dead before the next one and the take.
        let data = unsafe {
            for tj in 0..cols {
                shared.densify_col(tj, &mut scratch);
            }
            shared.take_buffer()
        };
        (data, scratch.len())
    }

    #[test]
    fn tile_columns_densify_in_place_into_the_dense_matrix() {
        // small on purpose: CI runs this module's tests under Miri
        for (m, n, b) in [(12, 12, 3), (17, 13, 5), (23, 4, 4)] {
            let a = gen::uniform(m, n, 3);
            let (cm, scratch) = densify_and_take(CmTiles::from_dense(&a, b));
            assert_eq!((cm.as_slice(), scratch), (a.as_slice(), 0), "CM {m}x{n}");
            for (pr, pc) in [(1, 2), (2, 1), (2, 2), (3, 1)] {
                let g = ProcessGrid::new(pr, pc).unwrap();
                let ctx = format!("{m}x{n} b={b} grid {pr}x{pc}");
                let (bcl, scratch) = densify_and_take(BclMatrix::from_dense(&a, b, g));
                assert_eq!(bcl, a.as_slice(), "BCL {ctx}");
                // one grid row: already column-major, so nothing copied
                assert_eq!(scratch == 0, pr == 1, "BCL {ctx}");
                let (tlb, scratch) = densify_and_take(TlbMatrix::from_dense(&a, b, g));
                assert_eq!(tlb, a.as_slice(), "2l-BL {ctx}");
                assert!(scratch <= b * m, "one block of scratch, {ctx}");
            }
        }
    }
}
