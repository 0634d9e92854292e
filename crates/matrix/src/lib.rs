//! Dense-matrix substrate for the CALU reproduction.
//!
//! This crate provides the storage formats and helpers that the paper's
//! algorithms operate on:
//!
//! * [`DenseMatrix`] — a classic column-major (LAPACK-style) matrix,
//! * [`BclMatrix`] — the *block cyclic layout* of §4.1: the matrix is
//!   distributed over a 2D grid of threads and, in each tile column, each
//!   thread's tiles are stored contiguously in column-major order,
//! * [`TlbMatrix`] — the *two-level block layout* of §4.2: on top of the
//!   block-cyclic distribution, each `b × b` tile is stored contiguously,
//! * [`ProcessGrid`] — the 2D block-cyclic ownership map,
//! * matrix generators ([`gen`]) and norms ([`norms`]) used by tests and
//!   benchmarks.
//!
//! All three layouts implement [`TileStorage`], the tile-level access
//! interface consumed by the factorization kernels, so the same CALU code
//! runs unmodified on every layout in the paper's design space (Table 1).

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
pub use storage::{BclMatrix, CmTiles, TileStorage, TlbMatrix};
pub use tile::Tiling;
