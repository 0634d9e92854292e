//! Shared tile access for the parallel executor.
//!
//! All tile storages keep their elements in one contiguous buffer
//! (`calu-matrix`'s [`TileStorage`] contract). The executor needs many
//! threads writing *different* tiles of that buffer concurrently; the
//! task DAG guarantees the tiles are disjoint, and this module funnels
//! the one unavoidable `unsafe` into a single audited wrapper — plus
//! its counterpart for the way out, `SharedDense`: the dense result
//! buffer a run's workers write in disjoint column ranges.

use calu_matrix::storage::TileLoc;
use calu_matrix::{DenseMatrix, TileStorage};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, Ordering};

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

/// Storage wrapper handing out per-tile raw pointers.
///
/// Safety model: tasks of the factorization DAG write disjoint tiles at
/// any instant (enforced by dependence counting), so concurrent
/// [`SharedTiles::tile_ptr`] uses never alias writes. Tiles may share
/// cache lines (CM/BCL interleave tiles within columns of the parent
/// buffer) but never share *elements*.
pub struct SharedTiles<S: TileStorage> {
    inner: UnsafeCell<S>,
}

// SAFETY: access discipline is delegated to the task DAG; see type docs.
unsafe impl<S: TileStorage + Send> Send for SharedTiles<S> {}
unsafe impl<S: TileStorage + Send> Sync for SharedTiles<S> {}

impl<S: TileStorage> SharedTiles<S> {
    /// Wrap a storage for shared tile access.
    pub fn new(storage: S) -> Self {
        Self {
            inner: UnsafeCell::new(storage),
        }
    }

    /// Tile location metadata (no data access).
    pub fn loc(&self, ti: usize, tj: usize) -> TileLoc {
        // SAFETY: tile_loc reads immutable geometry only.
        unsafe { (*self.inner.get()).tile_loc(ti, tj) }
    }

    /// Raw pointer to tile `(ti, tj)`.
    ///
    /// # Safety
    /// Callers must respect the DAG: no two threads may hold a writable
    /// view of the same tile at the same time, and readers must be
    /// ordered after the writer that produced the data.
    pub unsafe fn tile_ptr(&self, ti: usize, tj: usize) -> TilePtr {
        let loc = self.loc(ti, tj);
        let base = (*self.inner.get()).buffer_mut().as_mut_ptr();
        TilePtr {
            ptr: base.add(loc.offset),
            ld: loc.ld,
            rows: loc.rows,
            cols: loc.cols,
        }
    }
}

/// The dense output of a run: one column-major buffer its workers
/// write in disjoint column ranges (one range per densify chunk), taken
/// whole by whoever delivers the result.
///
/// The buffer is held by raw pointer, not as a `Vec` behind a cell, so
/// handing out a column range never forms a reference to the whole
/// allocation while other ranges are being written.
pub(crate) struct SharedDense {
    rows: usize,
    cols: usize,
    /// The allocation of a `Vec<f64>` of `rows * cols` elements (length
    /// = capacity); null once taken.
    ptr: AtomicPtr<f64>,
}

// SAFETY: the buffer is plain `f64`s owned by this value; concurrent
// access goes through `cols_mut`/`take`, whose contracts make the
// callers keep writers disjoint and `take` exclusive.
unsafe impl Send for SharedDense {}
unsafe impl Sync for SharedDense {}

impl SharedDense {
    /// A zeroed `rows × cols` buffer, allocated (not touched) on the
    /// calling thread.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        let buf = vec![0.0f64; rows * cols].into_boxed_slice();
        Self {
            rows,
            cols,
            ptr: AtomicPtr::new(Box::into_raw(buf).cast()),
        }
    }

    /// Columns `c0..c1` as one contiguous slice (leading dimension
    /// `rows`).
    ///
    /// # Safety
    /// No other live slice may overlap these columns, and the buffer
    /// must not have been [taken](Self::take).
    pub(crate) unsafe fn cols_mut<'a>(&self, c0: usize, c1: usize) -> &'a mut [f64] {
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        let base = self.ptr.load(Ordering::Acquire);
        assert!(!base.is_null(), "output already taken");
        std::slice::from_raw_parts_mut(base.add(c0 * self.rows), (c1 - c0) * self.rows)
    }

    fn take_buffer(&self) -> Option<Vec<f64>> {
        let base = self.ptr.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: a non-null pointer is the boxed slice `zeros` leaked,
        // of exactly rows * cols elements; the swap hands it to one
        // caller only.
        (!base.is_null()).then(|| unsafe {
            let slice = std::ptr::slice_from_raw_parts_mut(base, self.rows * self.cols);
            Box::from_raw(slice).into_vec()
        })
    }

    /// Move the buffer out as a dense matrix.
    ///
    /// # Safety
    /// Every slice handed out by [`cols_mut`](Self::cols_mut) must be
    /// dead, with its writes visible to the calling thread.
    pub(crate) unsafe fn take(&self) -> DenseMatrix {
        let data = self.take_buffer().expect("output taken once");
        DenseMatrix::from_col_major(self.rows, self.cols, data).expect("rows * cols elements")
    }
}

impl Drop for SharedDense {
    fn drop(&mut self) {
        drop(self.take_buffer());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::{gen, BclMatrix, ProcessGrid};

    #[test]
    fn shared_dense_hands_out_disjoint_columns_and_is_taken_whole() {
        let out = SharedDense::zeros(3, 4);
        // SAFETY: the two ranges are disjoint and dead before `take`.
        let taken = unsafe {
            out.cols_mut(0, 1).fill(1.0);
            out.cols_mut(2, 4)
                .copy_from_slice(&[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
            out.take()
        };
        assert_eq!(taken.col(0), [1.0; 3]);
        assert_eq!(taken.col(1), [0.0; 3], "untouched columns stay zero");
        assert_eq!(taken.col(3), [5.0, 6.0, 7.0]);
        drop(out); // a taken buffer is not freed twice
        drop(SharedDense::zeros(5, 5)); // an untaken one is freed once
    }

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
}
