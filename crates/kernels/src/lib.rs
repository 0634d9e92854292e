//! Pure-Rust BLAS-3-style kernels for the CALU reproduction.
//!
//! The paper links against vendor BLAS (MKL/GotoBLAS); robust Rust BLAS
//! bindings are thin, so this crate implements the handful of kernels the
//! factorizations need, from scratch:
//!
//! * [`gemm::dgemm_packed`] — `C ← α·A·B + β·C`, a GotoBLAS/BLIS-style packed,
//!   register-tiled kernel (packing plus an `MR×NR` micro-kernel; see the
//!   [`gemm`] module docs for the MR/NR/MC/KC/NC blocking table),
//! * [`trsm`] — the triangular solves of tasks L and U, blocked so their
//!   trailing work runs through the packed GEMM and their diagonal blocks
//!   through register-blocked cores,
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
#[macro_use]
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
    use calu_matrix::DenseMatrix;

    /// The interpreter runs the unit tests at small shapes only (CI's
    /// Miri job); natively every shape runs. `m·n·k` is the work of the
    /// largest product a test case forms.
    pub(crate) fn too_big_for_miri(m: usize, n: usize, k: usize) -> bool {
        cfg!(miri) && m * n * k > 60_000
    }

    /// Sizes of the register-blocked cores' bitwise sweeps: every size
    /// `1..=70` natively — each strip height with its 4- and 1-row
    /// tails, odd and even column counts, both sides of 32 and 64 — and
    /// the sizes around the 4-, 8- and 16-row edges under Miri.
    pub(crate) fn sweep_sizes() -> Vec<usize> {
        if cfg!(miri) {
            vec![1, 2, 3, 5, 8, 9, 17]
        } else {
            (1..=70).collect()
        }
    }

    /// What the sweeps plant in their inputs, and about how sparsely:
    /// signed zeros on one entry in four (the kernels' `== 0.0` skips),
    /// then a sparse mix of signed zeros, `±Inf` and NaN.
    pub(crate) const PLANTS: [(&[f64], usize); 2] = [
        (&[0.0, -0.0], 4),
        (&[f64::INFINITY, -0.0, f64::NAN, 0.0, f64::NEG_INFINITY], 61),
    ];

    /// Overwrite about one entry in `every` of `a` with `values` in turn,
    /// at positions picked by a hash of `(i, j, seed)`.
    pub(crate) fn plant(a: &mut DenseMatrix, values: &[f64], every: usize, seed: u64) {
        let mut next = 0;
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                let h = (i as u64 ^ (j as u64) << 20 ^ seed << 40)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> 32;
                if h.is_multiple_of(every as u64) {
                    a.set(i, j, values[next % values.len()]);
                    next += 1;
                }
            }
        }
    }

    /// `a` copied into a column-major buffer with leading dimension
    /// `rows + 3`; the three padding rows hold a sentinel the kernels
    /// must leave alone.
    pub(crate) fn padded(a: &DenseMatrix) -> (Vec<f64>, usize) {
        let ld = a.rows() + 3;
        let mut v = vec![-7.25; ld * a.cols()];
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                v[j * ld + i] = a.get(i, j);
            }
        }
        (v, ld)
    }

    /// Every element of `got` that the oracle's `want` has as a number
    /// equals it bit for bit (`-0.0` included), and the NaNs sit at the
    /// same positions. A NaN's sign may differ: where two NaNs meet, the
    /// result's depends on the operand order, which LLVM may commute.
    pub(crate) fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (x, (g, w)) in got.iter().zip(want).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{what}: [{x}] is {g}, the oracle's NaN");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: [{x}] is {g}, not {w}");
            }
        }
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
