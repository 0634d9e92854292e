//! Cholesky factorization of a symmetric positive-definite block:
//! `A = L·Lᵀ` with `L` lower triangular — the Cholesky panel kernel.
//!
//! Only the lower triangle of `A` is read or written; on return it holds
//! `L` (non-unit diagonal), the strictly-upper part is untouched. A
//! non-positive diagonal pivot — the matrix is not numerically SPD — is
//! flagged and skipped, mirroring the zero-pivot convention of
//! [`crate::lu_nopiv_unblocked`]: elimination continues so the caller sees every
//! bad column, and the factorization drivers surface the first one.

use crate::pack::GemmScratch;
use crate::small::daxpy;
use crate::syrk::syrk_ln_core;
use crate::trsm::dtrsm_right_lower_trans_raw_packed;

/// Unblocked right-looking Cholesky of the `n × n` lower triangle at
/// `a` (column-major, leading dimension `lda`). Returns the first
/// column with a non-positive pivot, if any (elimination continues past
/// it, leaving that column unscaled).
pub fn dpotrf_unblocked(n: usize, a: &mut [f64], lda: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    assert!(lda >= n, "lda too small");
    assert!(a.len() >= (n - 1) * lda + n, "block slice too short");
    let mut singular_at = None;
    for k in 0..n {
        let akk = a[k * lda + k];
        if akk <= 0.0 {
            if singular_at.is_none() {
                singular_at = Some(k);
            }
            continue;
        }
        let lkk = akk.sqrt();
        a[k * lda + k] = lkk;
        let inv = 1.0 / lkk;
        for v in &mut a[k * lda + k + 1..k * lda + n] {
            *v *= inv;
        }
        // trailing lower triangle: A[j.., j] −= L[j..,k]·L[j,k]
        for j in (k + 1)..n {
            let ljk = a[k * lda + j];
            if ljk == 0.0 {
                continue;
            }
            let (head, tail) = a.split_at_mut(j * lda);
            let lcol = &head[k * lda + j..k * lda + n];
            let ccol = &mut tail[j..n];
            daxpy(-ljk, lcol, ccol);
        }
    }
    singular_at
}

/// Blocked (right-looking) Cholesky with panel width `nb`: unblocked
/// factor of each diagonal block, [`crate::trsm::dtrsm_right_lower_trans_packed`]
/// on the block column below it, then a lower-triangle rank-`nb` update
/// ([`crate::syrk::dsyrk_ln_packed`]) of the trailing matrix — so asymptotically
/// all flops run through the packed NT GEMM. Identical result to
/// [`dpotrf_unblocked`] up to roundoff. The packing arena is local to
/// the call: it grows on the first trailing update, so a factor that
/// fits in one block allocates nothing.
pub fn dpotrf_blocked(n: usize, a: &mut [f64], lda: usize, nb: usize) -> Option<usize> {
    assert!(nb > 0, "block size must be positive");
    if n == 0 {
        return None;
    }
    assert!(lda >= n, "lda too small");
    assert!(a.len() >= (n - 1) * lda + n, "block slice too short");
    let mut singular_at = None;
    let mut scratch = GemmScratch::new();
    let mut k0 = 0;
    while k0 < n {
        let kb = nb.min(n - k0);
        // Factor the diagonal block A[k0..k0+kb, k0..k0+kb] unblocked.
        let diag = &mut a[k0 * lda + k0..];
        if let Some(c) = dpotrf_unblocked(kb, diag, lda) {
            if singular_at.is_none() {
                singular_at = Some(k0 + c);
            }
        }
        let next = k0 + kb;
        if next < n {
            // SAFETY: the three blocks addressed — L11 (rows/cols
            // k0..next), A21 (rows next..n, cols k0..next) and A22
            // (rows/cols next..n, lower triangle) — are element-disjoint
            // regions of the validated n×n span.
            unsafe {
                let l11 = a.as_ptr().add(k0 * lda + k0);
                let a21 = a.as_mut_ptr().add(k0 * lda + next);
                let a22 = a.as_mut_ptr().add(next * lda + next);
                let s = &mut scratch;
                // A21 ← A21 · L11⁻ᵀ
                dtrsm_right_lower_trans_raw_packed(n - next, kb, l11, lda, a21, lda, s);
                // A22 (lower) ← A22 − A21·A21ᵀ
                syrk_ln_core(n - next, kb, -1.0, a21 as *const f64, lda, 1.0, a22, lda, s);
            }
        }
        k0 = next;
    }
    singular_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::too_big_for_miri;
    use calu_matrix::{gen, DenseMatrix};

    /// symmetric strictly-diagonally-dominant (hence SPD) test matrix
    fn spd(n: usize, seed: u64) -> DenseMatrix {
        let r = gen::uniform(n, n, seed);
        DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64
            } else {
                0.5 * (r.get(i, j) + r.get(j, i))
            }
        })
    }

    /// ‖A − L·Lᵀ‖_max reading only the factored lower triangle
    fn recon_err(a: &DenseMatrix, f: &DenseMatrix) -> f64 {
        let n = a.rows();
        let l = |i: usize, j: usize| if i >= j { f.get(i, j) } else { 0.0 };
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let llt: f64 = (0..n).map(|k| l(i, k) * l(j, k)).sum();
                worst = worst.max((llt - a.get(i, j)).abs());
            }
        }
        worst
    }

    #[test]
    fn unblocked_factors_spd() {
        for n in [1, 3, 8, 30] {
            let a = spd(n, n as u64);
            let mut f = a.clone();
            let ld = f.ld();
            let s = dpotrf_unblocked(n, f.as_mut_slice(), ld);
            assert!(s.is_none(), "n={n}");
            assert!(recon_err(&a, &f) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn blocked_matches_unblocked() {
        for (n, nb) in [(16, 4), (30, 7), (33, 8), (20, 32), (65, 16)] {
            if too_big_for_miri(n, n, n) {
                continue;
            }
            let a = spd(n, 77);
            let mut f1 = a.clone();
            let mut f2 = a.clone();
            let ld = a.ld();
            dpotrf_unblocked(n, f1.as_mut_slice(), ld);
            dpotrf_blocked(n, f2.as_mut_slice(), ld, nb);
            for i in 0..n {
                for j in 0..=i {
                    let (x, y) = (f1.get(i, j), f2.get(i, j));
                    assert!((x - y).abs() < 1e-9, "n={n} nb={nb} ({i},{j}): {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn upper_triangle_is_never_read_or_written() {
        let n = 40;
        let clean = spd(n, 5);
        let mut poisoned = clean.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                poisoned.set(i, j, f64::NAN);
            }
        }
        let mut f_clean = clean.clone();
        let mut f_poisoned = poisoned.clone();
        let ld = clean.ld();
        dpotrf_blocked(n, f_clean.as_mut_slice(), ld, 8);
        dpotrf_blocked(n, f_poisoned.as_mut_slice(), ld, 8);
        for i in 0..n {
            for j in 0..n {
                if i >= j {
                    assert_eq!(f_clean.get(i, j), f_poisoned.get(i, j), "lower ({i},{j})");
                } else {
                    assert!(f_poisoned.get(i, j).is_nan(), "upper ({i},{j}) was written");
                }
            }
        }
    }

    #[test]
    fn non_spd_pivot_is_reported() {
        // indefinite: a negative diagonal entry is hit during elimination
        let n = 5;
        let mut a = spd(n, 9);
        a.set(2, 2, -1.0);
        let mut f = a.clone();
        let ld = f.ld();
        let s = dpotrf_unblocked(n, f.as_mut_slice(), ld);
        assert_eq!(s, Some(2));
        // blocked path reports the same column
        let mut f2 = a.clone();
        let s2 = dpotrf_blocked(n, f2.as_mut_slice(), ld, 2);
        assert_eq!(s2, Some(2));
    }

    #[test]
    fn empty_is_noop() {
        let mut a: Vec<f64> = vec![];
        assert_eq!(dpotrf_unblocked(0, &mut a, 1), None);
        assert_eq!(dpotrf_blocked(0, &mut a, 1, 4), None);
    }
}
