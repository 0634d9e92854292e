//! Pure-Rust BLAS-3-style kernels for the CALU reproduction.
//!
//! The paper links against vendor BLAS (MKL/GotoBLAS); robust Rust BLAS
//! bindings are thin, so this crate implements the handful of kernels the
//! factorizations need, from scratch:
//!
//! * [`gemm::dgemm_packed`] — `C ← α·A·B + β·C`, a GotoBLAS/BLIS-style packed,
//!   register-tiled kernel (packing plus an `MR×NR` micro-kernel; see the
//!   [`gemm`] module docs for the MR/NR/MC/KC/NC blocking table),
//! * [`trsm`] — the two triangular solves LU needs, blocked so their
//!   trailing work runs through the packed GEMM,
//! * [`getrf::dgetf2`] — unblocked Gaussian elimination with partial
//!   pivoting,
//! * [`getrf::dgetrf_recursive_packed`] — Toledo's recursive LU, the paper's
//!   choice of reduction operator inside TSLU (\[23\] in the paper),
//! * [`lu_nopiv_unblocked`] — LU without pivoting (used after tournament pivoting
//!   has already placed good pivots on the diagonal),
//! * [`laswp::dlaswp`] — row interchanges,
//! * [`potrf`] / [`syrk`] — the Cholesky kernel set (`A = L·Lᵀ` panel
//!   factor and the lower-triangle rank-k update), layered on the same
//!   packed GEMM via its `A·Bᵀ` variant ([`gemm::dgemm_nt_packed`]).
//!
//! Every kernel works on a column-major sub-block described by
//! `(slice, ld)` — the same addressing [`calu_matrix::storage::TileRef`]
//! exposes — so kernels run identically on all three data layouts.
//!
//! Every BLAS-3 entry point takes its [`GemmScratch`] packing arena from
//! the caller: the engine keeps one per worker, a sequential driver owns
//! one for its whole run, so no path allocates steady-state. The one
//! exception is [`potrf::dpotrf_blocked`], which owns a local arena for
//! its call.
//!
//! Numerical contracts are tested against the textbook oracles in
//! [`calu_matrix::ops`].

pub mod gemm;
pub mod getrf;
pub mod laswp;
mod lu_nopiv;
mod microkernel;
mod pack;
pub mod potrf;
mod small;
pub mod syrk;
pub mod trsm;

pub use gemm::{dgemm_jki, dgemm_nt_packed, dgemm_packed, dgemm_raw_packed};
pub use getrf::{dgetf2, dgetrf_recursive_packed};
pub use lu_nopiv::lu_nopiv_unblocked;
pub use pack::GemmScratch;
pub use potrf::{dpotrf_blocked, dpotrf_unblocked};
pub use syrk::dsyrk_ln_packed;
pub use trsm::{
    dtrsm_left_lower_unit_packed, dtrsm_right_lower_trans_packed,
    dtrsm_right_lower_trans_unblocked, dtrsm_right_upper_packed,
};

/// Floating-point operation counts for the kernels, used by the Gflop/s
/// readings of the benchmark's kernel rungs. The simulator prices tasks
/// with its own table (`calu_sim::cost`), which also holds the one LU
/// count, square and rectangular.
pub mod flops {
    /// Flops of `C ← C − A·B` with `A: m×k`, `B: k×n`.
    pub fn gemm(m: usize, n: usize, k: usize) -> f64 {
        2.0 * m as f64 * n as f64 * k as f64
    }

    /// Flops of a triangular solve with an `m×m` triangle and `n`
    /// right-hand sides.
    pub fn trsm(m: usize, n: usize) -> f64 {
        m as f64 * m as f64 * n as f64
    }

    /// Flops of GEPP on an `m×n` panel (`m >= n`):
    /// `n^2·m − n^3/3` to leading order.
    pub fn getrf(m: usize, n: usize) -> f64 {
        let (m, n) = (m as f64, n as f64);
        m * n * n - n * n * n / 3.0
    }

    /// Flops of a complete Cholesky of an `n×n` SPD matrix: `n^3/3` to
    /// leading order — half the LU count, the basis of the bench's
    /// "Cholesky ≤ 0.6× LU" gate.
    pub fn cholesky(n: usize) -> f64 {
        let n = n as f64;
        n * n * n / 3.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::flops;

    /// The interpreter runs the unit tests at small shapes only (CI's
    /// Miri job); natively every shape runs. `m·n·k` is the work of the
    /// largest product a test case forms.
    pub(crate) fn too_big_for_miri(m: usize, n: usize, k: usize) -> bool {
        cfg!(miri) && m * n * k > 60_000
    }

    #[test]
    fn flop_counts_scale_correctly() {
        assert_eq!(flops::gemm(10, 10, 10), 2000.0);
        // GEPP of a square matrix is ~ (2/3) n^3
        let n = 100;
        let ratio = flops::getrf(n, n) / (2.0 * (n as f64).powi(3) / 3.0);
        assert!((ratio - 1.0).abs() < 1e-12);
        assert_eq!(flops::trsm(4, 8), 128.0);
    }
}
