//! Dense-matrix substrate for the CALU reproduction.
//!
//! This crate provides the storage formats and helpers that the paper's
//! algorithms operate on:
//!
//! * [`DenseMatrix`] — a classic column-major (LAPACK-style) matrix,
//! * [`TiledMatrix`] — the same matrix cut into tiles under any of the
//!   paper's layouts ([`Layout`], Table 1): column-major, the *block
//!   cyclic layout* of §4.1 (in each tile column, each thread's tiles
//!   are stored contiguously in column-major order) or the *two-level
//!   block layout* of §4.2 (on top of that, each `b × b` tile is stored
//!   contiguously) — one buffer and one address formula for all three,
//! * [`ProcessGrid`] — the 2D block-cyclic ownership map,
//! * matrix generators ([`gen`]) and norms ([`norms`]) used by tests and
//!   benchmarks.
//!
//! The factorization kernels address a [`TiledMatrix`] tile by tile, so
//! the same CALU code runs unmodified on every layout in the paper's
//! design space. [`TileStorage`] and the shims [`CmTiles`],
//! [`BclMatrix`] and [`TlbMatrix`] are kept for the ruler's `to_tiles`
//! rung; a ruler PR removes them.

mod dense;
mod error;
pub mod gen;
mod grid;
mod layout;
pub mod norms;
pub mod ops;
mod perm;
pub mod storage;
mod tile;

pub use dense::DenseMatrix;
pub use error::MatrixError;
pub use grid::ProcessGrid;
pub use layout::Layout;
pub use perm::RowPerm;
pub use storage::{BclMatrix, CmTiles, TileStorage, TiledMatrix, TlbMatrix};
pub use tile::Tiling;
