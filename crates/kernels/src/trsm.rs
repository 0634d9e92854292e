//! Triangular solves — the kernels behind tasks **L** and **U**.
//!
//! * task U computes `U_{K,J} = L_{KK}^{-1} · A_{K,J}` →
//!   [`dtrsm_left_lower_unit`];
//! * task L computes `L_{I,K} = A_{I,K} · U_{KK}^{-1}` →
//!   [`dtrsm_right_upper`].
//!
//! Both are blocked: an unblocked substitution on each `TRSM_NB`-wide
//! diagonal block, then one rank-`TRSM_NB` [`crate::gemm`] update of the
//! remainder — so asymptotically all TRSM flops run through the packed
//! register-tiled GEMM. The unblocked solvers are exported for parity
//! tests and tiny blocks.

use crate::gemm::{dgemm_nt_raw_packed, dgemm_raw_packed};
use crate::pack::{with_thread_scratch, GemmScratch};
use crate::small::daxpy;

/// Diagonal-block width of the blocked triangular solves: below this the
/// substitution runs unblocked, above it the trailing work is GEMM.
pub const TRSM_NB: usize = 32;

/// Solve `L · X = B` in place (`B ← L⁻¹·B`) where `L` is `m×m` **unit**
/// lower triangular (diagonal implicitly 1, strictly-upper part ignored)
/// and `B` is `m×n`. Column-major with leading dimensions `ldl`, `ldb`.
/// Forward substitution only on [`TRSM_NB`]-wide diagonal blocks; the
/// rest is packed GEMM drawing on `scratch`.
pub fn dtrsm_left_lower_unit_packed(
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldl >= m && ldb >= m, "leading dimension too small");
    assert!(l.len() >= (m - 1) * ldl + m, "l slice too short");
    assert!(b.len() >= (n - 1) * ldb + m, "b slice too short");
    // SAFETY: spans validated above; l and b are distinct borrows.
    unsafe { trsm_ll_core(m, n, l.as_ptr(), ldl, b.as_mut_ptr(), ldb, scratch) }
}

/// [`dtrsm_left_lower_unit_packed`] with the per-thread scratch arena.
pub fn dtrsm_left_lower_unit(m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    with_thread_scratch(|s| dtrsm_left_lower_unit_packed(m, n, l, ldl, b, ldb, s));
}

/// Unblocked forward substitution — the reference the blocked solve is
/// tested against, and its diagonal-block base case.
pub fn dtrsm_left_lower_unit_unblocked(
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldl >= m && ldb >= m, "leading dimension too small");
    assert!(l.len() >= (m - 1) * ldl + m, "l slice too short");
    assert!(b.len() >= (n - 1) * ldb + m, "b slice too short");
    // SAFETY: spans validated above; l and b are distinct borrows.
    unsafe { ll_unblocked_core(m, n, l.as_ptr(), ldl, b.as_mut_ptr(), ldb) }
}

/// Unblocked forward substitution on raw pointers. Only forms slices
/// over single column segments of the addressed blocks, never over a
/// whole `(cols−1)·ld + rows` span — callers in the parallel executor
/// hand in tiles that interleave with concurrently-written tiles of the
/// same backing buffer (column-major and BCL layouts), and a slice
/// spanning another worker's live writes would be undefined behavior
/// even if never read.
///
/// # Safety
///
/// Every column segment addressed (`m` elements at `b + j·ldb`, the
/// subdiagonal runs of `l`) must be valid, `b`'s segments must not
/// overlap `l`'s, and the caller must have exclusive access to them.
unsafe fn ll_unblocked_core(
    m: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
) {
    for j in 0..n {
        let col = std::slice::from_raw_parts_mut(b.add(j * ldb), m);
        // forward substitution; the update of rows k+1.. is an AXPY with
        // the contiguous subcolumn of L below its diagonal.
        for k in 0..m {
            let xk = col[k];
            if xk == 0.0 {
                continue;
            }
            let (_, tail) = col.split_at_mut(k + 1);
            let l_tail = std::slice::from_raw_parts(l.add(k * ldl + k + 1), m - k - 1);
            daxpy(-xk, l_tail, tail);
        }
    }
}

/// Blocked forward substitution on raw pointers (spans pre-validated).
///
/// # Safety
///
/// `l` and `b` must be valid for their `m×m` / `m×n` spans, be
/// element-disjoint, and the caller must have exclusive access to `b`.
unsafe fn trsm_ll_core(
    m: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    let mut k0 = 0;
    while k0 < m {
        let kb = TRSM_NB.min(m - k0);
        ll_unblocked_core(kb, n, l.add(k0 * ldl + k0), ldl, b.add(k0), ldb);
        // B[k0+kb.., :] −= L[k0+kb.., k0..k0+kb] · X[k0..k0+kb, :]
        // (reads rows k0..k0+kb of B, writes rows below: element-disjoint)
        if k0 + kb < m {
            dgemm_raw_packed(
                m - k0 - kb,
                n,
                kb,
                -1.0,
                l.add(k0 * ldl + k0 + kb),
                ldl,
                b.add(k0) as *const f64,
                ldb,
                1.0,
                b.add(k0 + kb),
                ldb,
                scratch,
            );
        }
        k0 += kb;
    }
}

/// Solve `X · U = B` in place (`B ← B·U⁻¹`) where `U` is `n×n` upper
/// triangular with a **non-unit** diagonal and `B` is `m×n`. Column-major
/// with leading dimensions `ldu`, `ldb`. Blocked like
/// [`dtrsm_left_lower_unit_packed`]: unblocked solve per diagonal block,
/// packed GEMM for the trailing columns.
///
/// A zero diagonal entry of `U` produces `inf`/`NaN` in the result, like
/// the BLAS; singularity is detected by the factorization drivers, not
/// here.
pub fn dtrsm_right_upper_packed(
    m: usize,
    n: usize,
    u: &[f64],
    ldu: usize,
    b: &mut [f64],
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldu >= n && ldb >= m, "leading dimension too small");
    assert!(u.len() >= (n - 1) * ldu + n, "u slice too short");
    assert!(b.len() >= (n - 1) * ldb + m, "b slice too short");
    // SAFETY: spans validated above; u and b are distinct borrows.
    unsafe { trsm_ru_core(m, n, u.as_ptr(), ldu, b.as_mut_ptr(), ldb, scratch) }
}

/// [`dtrsm_right_upper_packed`] with the per-thread scratch arena.
pub fn dtrsm_right_upper(m: usize, n: usize, u: &[f64], ldu: usize, b: &mut [f64], ldb: usize) {
    with_thread_scratch(|s| dtrsm_right_upper_packed(m, n, u, ldu, b, ldb, s));
}

/// Unblocked column-by-column substitution — the reference the blocked
/// solve is tested against, and its diagonal-block base case.
pub fn dtrsm_right_upper_unblocked(
    m: usize,
    n: usize,
    u: &[f64],
    ldu: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldu >= n && ldb >= m, "leading dimension too small");
    assert!(u.len() >= (n - 1) * ldu + n, "u slice too short");
    assert!(b.len() >= (n - 1) * ldb + m, "b slice too short");
    // SAFETY: spans validated above; u and b are distinct borrows.
    unsafe { ru_unblocked_core(m, n, u.as_ptr(), ldu, b.as_mut_ptr(), ldb) }
}

/// Unblocked right-upper substitution on raw pointers. Like
/// [`ll_unblocked_core`], only ever forms slices over single column
/// segments (the read column `k` and written column `j` are distinct,
/// `k < j`), so interleaved tiles written by other workers are never
/// covered by a live slice.
///
/// # Safety
///
/// Every column segment addressed (`m` elements at `b + j·ldb`) and
/// every `u` entry read must be valid, `b`'s segments must not overlap
/// `u`'s, and the caller must have exclusive access to them.
unsafe fn ru_unblocked_core(
    m: usize,
    n: usize,
    u: *const f64,
    ldu: usize,
    b: *mut f64,
    ldb: usize,
) {
    for j in 0..n {
        // X[:,j] = (B[:,j] − Σ_{k<j} X[:,k]·u[k,j]) / u[j,j]
        for k in 0..j {
            let ukj = *u.add(k + j * ldu);
            if ukj == 0.0 {
                continue;
            }
            // columns k and j are disjoint segments of b
            let x_k = std::slice::from_raw_parts(b.add(k * ldb), m);
            let b_j = std::slice::from_raw_parts_mut(b.add(j * ldb), m);
            daxpy(-ukj, x_k, b_j);
        }
        let d = 1.0 / *u.add(j + j * ldu);
        for v in std::slice::from_raw_parts_mut(b.add(j * ldb), m) {
            *v *= d;
        }
    }
}

/// Blocked right-upper solve on raw pointers (spans pre-validated).
///
/// # Safety
///
/// `u` and `b` must be valid for their `n×n` / `m×n` spans, be
/// element-disjoint, and the caller must have exclusive access to `b`.
unsafe fn trsm_ru_core(
    m: usize,
    n: usize,
    u: *const f64,
    ldu: usize,
    b: *mut f64,
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    let mut j0 = 0;
    while j0 < n {
        let jb = TRSM_NB.min(n - j0);
        ru_unblocked_core(m, jb, u.add(j0 * ldu + j0), ldu, b.add(j0 * ldb), ldb);
        // B[:, j0+jb..] −= X[:, j0..j0+jb] · U[j0..j0+jb, j0+jb..]
        // (reads and writes disjoint column ranges of B)
        if j0 + jb < n {
            dgemm_raw_packed(
                m,
                n - j0 - jb,
                jb,
                -1.0,
                b.add(j0 * ldb) as *const f64,
                ldb,
                u.add((j0 + jb) * ldu + j0),
                ldu,
                1.0,
                b.add((j0 + jb) * ldb),
                ldb,
                scratch,
            );
        }
        j0 += jb;
    }
}

/// Solve `X · Lᵀ = B` in place (`B ← B·L⁻ᵀ`) where `L` is `n×n` lower
/// triangular with a **non-unit** diagonal and `B` is `m×n`. Column-major
/// with leading dimensions `ldl`, `ldb`. This is the Cholesky task **L**
/// kernel (`L_ik = A_ik·L_kk⁻ᵀ`). Blocked like the other solves:
/// unblocked substitution per [`TRSM_NB`]-wide diagonal block, then one
/// packed NT GEMM ([`crate::gemm::dgemm_nt_packed`]) for the trailing
/// columns.
///
/// A zero diagonal entry of `L` produces `inf`/`NaN`, like the BLAS;
/// non-positive-definiteness is detected by the factorization drivers.
pub fn dtrsm_right_lower_trans_packed(
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldl >= n && ldb >= m, "leading dimension too small");
    assert!(l.len() >= (n - 1) * ldl + n, "l slice too short");
    assert!(b.len() >= (n - 1) * ldb + m, "b slice too short");
    // SAFETY: spans validated above; l and b are distinct borrows.
    unsafe { trsm_rlt_core(m, n, l.as_ptr(), ldl, b.as_mut_ptr(), ldb, scratch) }
}

/// [`dtrsm_right_lower_trans_packed`] with the per-thread scratch arena.
pub fn dtrsm_right_lower_trans(
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    with_thread_scratch(|s| dtrsm_right_lower_trans_packed(m, n, l, ldl, b, ldb, s));
}

/// Unblocked column-by-column substitution — the reference the blocked
/// solve is tested against, and its diagonal-block base case.
pub fn dtrsm_right_lower_trans_unblocked(
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldl >= n && ldb >= m, "leading dimension too small");
    assert!(l.len() >= (n - 1) * ldl + n, "l slice too short");
    assert!(b.len() >= (n - 1) * ldb + m, "b slice too short");
    // SAFETY: spans validated above; l and b are distinct borrows.
    unsafe { rlt_unblocked_core(m, n, l.as_ptr(), ldl, b.as_mut_ptr(), ldb) }
}

/// Unblocked right-lower-transpose substitution on raw pointers. `Lᵀ` is
/// upper triangular with `(Lᵀ)[k,j] = L[j,k]`, so this is
/// [`ru_unblocked_core`] reading the triangle transposed. Like the other
/// unblocked cores, only ever forms slices over single column segments
/// of `b`, so interleaved tiles written by other workers are never
/// covered by a live slice.
///
/// # Safety
///
/// Every column segment addressed (`m` elements at `b + j·ldb`) and
/// every `l` entry read must be valid, `b`'s segments must not overlap
/// `l`'s, and the caller must have exclusive access to them.
unsafe fn rlt_unblocked_core(
    m: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
) {
    for j in 0..n {
        // X[:,j] = (B[:,j] − Σ_{k<j} X[:,k]·L[j,k]) / L[j,j]
        for k in 0..j {
            let ljk = *l.add(j + k * ldl);
            if ljk == 0.0 {
                continue;
            }
            // columns k and j are disjoint segments of b
            let x_k = std::slice::from_raw_parts(b.add(k * ldb), m);
            let b_j = std::slice::from_raw_parts_mut(b.add(j * ldb), m);
            daxpy(-ljk, x_k, b_j);
        }
        let d = 1.0 / *l.add(j + j * ldl);
        for v in std::slice::from_raw_parts_mut(b.add(j * ldb), m) {
            *v *= d;
        }
    }
}

/// Blocked right-lower-transpose solve on raw pointers (spans
/// pre-validated).
///
/// # Safety
///
/// `l` and `b` must be valid for their `n×n` / `m×n` spans, be
/// element-disjoint, and the caller must have exclusive access to `b`.
unsafe fn trsm_rlt_core(
    m: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    let mut j0 = 0;
    while j0 < n {
        let jb = TRSM_NB.min(n - j0);
        rlt_unblocked_core(m, jb, l.add(j0 * ldl + j0), ldl, b.add(j0 * ldb), ldb);
        // B[:, j0+jb..] −= X[:, j0..j0+jb] · L[j0+jb.., j0..j0+jb]ᵀ
        // (reads and writes disjoint column ranges of B)
        if j0 + jb < n {
            dgemm_nt_raw_packed(
                m,
                n - j0 - jb,
                jb,
                -1.0,
                b.add(j0 * ldb) as *const f64,
                ldb,
                l.add(j0 * ldl + j0 + jb),
                ldl,
                1.0,
                b.add((j0 + jb) * ldb),
                ldb,
                scratch,
            );
        }
        j0 += jb;
    }
}

/// Raw-pointer variant of [`dtrsm_right_lower_trans_packed`].
///
/// # Safety
/// Blocks must be valid for their spans, `b` must not overlap `l`, and the
/// caller must have exclusive access to `b`.
pub unsafe fn dtrsm_right_lower_trans_raw_packed(
    m: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    trsm_rlt_core(m, n, l, ldl, b, ldb, scratch);
}

/// Raw-pointer variant of [`dtrsm_left_lower_unit_packed`].
///
/// # Safety
/// Blocks must be valid for their spans, `b` must not overlap `l`, and the
/// caller must have exclusive access to `b`.
pub unsafe fn dtrsm_left_lower_unit_raw_packed(
    m: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    trsm_ll_core(m, n, l, ldl, b, ldb, scratch);
}

/// Raw-pointer variant of [`dtrsm_right_upper_packed`].
///
/// # Safety
/// Blocks must be valid for their spans, `b` must not overlap `u`, and the
/// caller must have exclusive access to `b`.
pub unsafe fn dtrsm_right_upper_raw_packed(
    m: usize,
    n: usize,
    u: *const f64,
    ldu: usize,
    b: *mut f64,
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    trsm_ru_core(m, n, u, ldu, b, ldb, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::{gen, ops, DenseMatrix};

    /// build a well-conditioned unit lower triangular matrix
    fn unit_lower(n: usize, seed: u64) -> DenseMatrix {
        let r = gen::uniform(n, n, seed);
        DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.5 * r.get(i, j)
            } else {
                0.0
            }
        })
    }

    /// build a well-conditioned upper triangular matrix
    fn upper(n: usize, seed: u64) -> DenseMatrix {
        let r = gen::uniform(n, n, seed);
        DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + r.get(i, j).abs()
            } else if i < j {
                r.get(i, j)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn left_solve_recovers_rhs() {
        for (m, n) in [(1, 1), (4, 7), (16, 3), (23, 23), (2 * TRSM_NB + 5, 9)] {
            let l = unit_lower(m, 7);
            let x_true = gen::uniform(m, n, 8);
            let b = ops::matmul(&l, &x_true);
            let mut x = b.clone();
            let ld = x.ld();
            dtrsm_left_lower_unit(m, n, l.as_slice(), l.ld(), x.as_mut_slice(), ld);
            assert!(x.approx_eq(&x_true, 1e-9), "shape ({m},{n})");
        }
    }

    #[test]
    fn left_solve_ignores_upper_garbage() {
        // strictly-upper part of L must be ignored, including by the
        // blocked path's GEMM update (strictly-lower blocks only)
        let m = TRSM_NB + 5;
        let mut l = unit_lower(m, 1);
        for i in 0..m {
            for j in (i + 1)..m {
                l.set(i, j, f64::NAN);
            }
        }
        let x_true = gen::uniform(m, 2, 2);
        let clean = unit_lower(m, 1);
        let b = ops::matmul(&clean, &x_true);
        let mut x = b.clone();
        let ld = x.ld();
        dtrsm_left_lower_unit(m, 2, l.as_slice(), l.ld(), x.as_mut_slice(), ld);
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn right_solve_recovers_lhs() {
        for (m, n) in [(1, 1), (7, 4), (3, 16), (23, 23), (9, 2 * TRSM_NB + 5)] {
            let u = upper(n, 17);
            let x_true = gen::uniform(m, n, 18);
            let b = ops::matmul(&x_true, &u);
            let mut x = b.clone();
            let ld = x.ld();
            dtrsm_right_upper(m, n, u.as_slice(), u.ld(), x.as_mut_slice(), ld);
            assert!(x.approx_eq(&x_true, 1e-9), "shape ({m},{n})");
        }
    }

    #[test]
    fn right_solve_ignores_lower_garbage() {
        let n = TRSM_NB + 4;
        let mut u = upper(n, 3);
        for i in 0..n {
            for j in 0..i {
                u.set(i, j, f64::NAN);
            }
        }
        let clean = upper(n, 3);
        let x_true = gen::uniform(3, n, 4);
        let b = ops::matmul(&x_true, &clean);
        let mut x = b.clone();
        let ld = x.ld();
        dtrsm_right_upper(3, n, u.as_slice(), u.ld(), x.as_mut_slice(), ld);
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    /// build a well-conditioned lower triangular matrix (non-unit diag)
    fn lower(n: usize, seed: u64) -> DenseMatrix {
        let r = gen::uniform(n, n, seed);
        DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + r.get(i, j).abs()
            } else if i > j {
                r.get(i, j)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn right_lower_trans_recovers_lhs() {
        for (m, n) in [(1, 1), (7, 4), (3, 16), (23, 23), (9, 2 * TRSM_NB + 5)] {
            let l = lower(n, 27);
            let lt = DenseMatrix::from_fn(n, n, |i, j| l.get(j, i));
            let x_true = gen::uniform(m, n, 28);
            let b = ops::matmul(&x_true, &lt);
            let mut x = b.clone();
            let ld = x.ld();
            dtrsm_right_lower_trans(m, n, l.as_slice(), l.ld(), x.as_mut_slice(), ld);
            assert!(x.approx_eq(&x_true, 1e-9), "shape ({m},{n})");
        }
    }

    #[test]
    fn right_lower_trans_ignores_upper_garbage() {
        // the strictly-upper part of L must never be read, including by
        // the blocked path's NT GEMM (strictly-lower blocks only)
        let n = TRSM_NB + 4;
        let mut l = lower(n, 33);
        for i in 0..n {
            for j in (i + 1)..n {
                l.set(i, j, f64::NAN);
            }
        }
        let clean = lower(n, 33);
        let lt = DenseMatrix::from_fn(n, n, |i, j| clean.get(j, i));
        let x_true = gen::uniform(3, n, 34);
        let b = ops::matmul(&x_true, &lt);
        let mut x = b.clone();
        let ld = x.ld();
        dtrsm_right_lower_trans(3, n, l.as_slice(), l.ld(), x.as_mut_slice(), ld);
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn right_lower_trans_blocked_matches_unblocked() {
        for n in [
            TRSM_NB - 1,
            TRSM_NB,
            TRSM_NB + 1,
            2 * TRSM_NB + 7,
            3 * TRSM_NB - 1,
        ] {
            let m = 11;
            let l = lower(n, 35);
            let b0 = gen::uniform(m, n, 36);
            let mut blocked = b0.clone();
            let mut unblocked = b0.clone();
            let ld = b0.ld();
            dtrsm_right_lower_trans(m, n, l.as_slice(), l.ld(), blocked.as_mut_slice(), ld);
            dtrsm_right_lower_trans_unblocked(
                m,
                n,
                l.as_slice(),
                l.ld(),
                unblocked.as_mut_slice(),
                ld,
            );
            assert!(blocked.approx_eq(&unblocked, 1e-11), "n={n}");
        }
    }

    #[test]
    fn right_lower_trans_raw_matches_safe() {
        let n = TRSM_NB + 9; // past the block boundary so the NT GEMM runs
        let l = lower(n, 37);
        let b0 = gen::uniform(n, n, 38);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        dtrsm_right_lower_trans(n, n, l.as_slice(), n, b1.as_mut_slice(), n);
        let mut s = GemmScratch::new();
        unsafe {
            dtrsm_right_lower_trans_raw_packed(
                n,
                n,
                l.as_slice().as_ptr(),
                n,
                b2.as_mut_slice().as_mut_ptr(),
                n,
                &mut s,
            )
        };
        assert!(b1.approx_eq(&b2, 0.0));
    }

    #[test]
    fn blocked_matches_unblocked_on_awkward_sizes() {
        // non-multiples of TRSM_NB on both sides of the boundary
        for m in [
            TRSM_NB - 1,
            TRSM_NB,
            TRSM_NB + 1,
            2 * TRSM_NB + 7,
            3 * TRSM_NB - 1,
        ] {
            let n = 11;
            let l = unit_lower(m, 40);
            let b0 = gen::uniform(m, n, 41);
            let mut blocked = b0.clone();
            let mut unblocked = b0.clone();
            let ld = b0.ld();
            dtrsm_left_lower_unit(m, n, l.as_slice(), l.ld(), blocked.as_mut_slice(), ld);
            dtrsm_left_lower_unit_unblocked(
                m,
                n,
                l.as_slice(),
                l.ld(),
                unblocked.as_mut_slice(),
                ld,
            );
            assert!(blocked.approx_eq(&unblocked, 1e-11), "left m={m}");

            let u = upper(m, 42);
            let b0 = gen::uniform(n, m, 43);
            let mut blocked = b0.clone();
            let mut unblocked = b0.clone();
            let ld = b0.ld();
            dtrsm_right_upper(n, m, u.as_slice(), u.ld(), blocked.as_mut_slice(), ld);
            dtrsm_right_upper_unblocked(n, m, u.as_slice(), u.ld(), unblocked.as_mut_slice(), ld);
            assert!(blocked.approx_eq(&unblocked, 1e-11), "right n={m}");
        }
    }

    #[test]
    fn right_solve_singular_diagonal_propagates_nonfinite() {
        // a zero pivot on U's diagonal must poison the singular column
        // (division by zero → inf/NaN) and every column to its right
        // that draws on it, while the columns left of it stay clean —
        // same contract as the BLAS, blocked or not
        let n = TRSM_NB + 6;
        let sing = 2; // inside the first diagonal block
        let mut u = upper(n, 50);
        u.set(sing, sing, 0.0);
        let b0 = gen::uniform(4, n, 51);
        for blocked in [true, false] {
            let mut x = b0.clone();
            let ld = x.ld();
            if blocked {
                dtrsm_right_upper(4, n, u.as_slice(), u.ld(), x.as_mut_slice(), ld);
            } else {
                dtrsm_right_upper_unblocked(4, n, u.as_slice(), u.ld(), x.as_mut_slice(), ld);
            }
            for j in 0..sing {
                for i in 0..4 {
                    assert!(x.get(i, j).is_finite(), "col {j} before the zero pivot");
                }
            }
            assert!(
                (0..4).any(|i| !x.get(i, sing).is_finite()),
                "singular column must be non-finite (blocked={blocked})"
            );
        }
    }

    #[test]
    fn nan_rhs_propagates_through_blocked_left_solve() {
        // NaN in B must survive (not be silently zeroed) through the
        // blocked path's GEMM update into later rows
        let m = TRSM_NB + 8;
        let l = unit_lower(m, 52);
        let mut b = gen::uniform(m, 1, 53);
        b.set(0, 0, f64::NAN);
        let ld = b.ld();
        dtrsm_left_lower_unit(m, 1, l.as_slice(), l.ld(), b.as_mut_slice(), ld);
        assert!(b.get(0, 0).is_nan());
        assert!(
            b.get(m - 1, 0).is_nan(),
            "NaN must reach rows past the block boundary"
        );
    }

    #[test]
    fn works_on_submatrices_with_ld() {
        let m = 4;
        let parent_l = {
            let mut p = DenseMatrix::zeros(10, 10);
            p.set_submatrix(3, 3, &unit_lower(m, 5));
            p
        };
        let x_true = gen::uniform(m, 2, 6);
        let b = ops::matmul(&parent_l.submatrix(3, 3, m, m), &x_true);
        let mut parent_b = DenseMatrix::zeros(10, 6);
        parent_b.set_submatrix(2, 1, &b);
        let l_off = 3 * 10 + 3;
        let b_off = 10 + 2;
        dtrsm_left_lower_unit(
            m,
            2,
            &parent_l.as_slice()[l_off..],
            10,
            &mut parent_b.as_mut_slice()[b_off..],
            10,
        );
        assert!(parent_b.submatrix(2, 1, m, 2).approx_eq(&x_true, 1e-12));
        assert_eq!(parent_b.get(0, 0), 0.0);
    }

    #[test]
    fn raw_variants_match_safe() {
        let n = TRSM_NB + 9; // past the block boundary so GEMM runs
        let l = unit_lower(n, 9);
        let u = upper(n, 10);
        let b0 = gen::uniform(n, n, 11);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        dtrsm_left_lower_unit(n, n, l.as_slice(), n, b1.as_mut_slice(), n);
        let mut s = GemmScratch::new();
        unsafe {
            dtrsm_left_lower_unit_raw_packed(
                n,
                n,
                l.as_slice().as_ptr(),
                n,
                b2.as_mut_slice().as_mut_ptr(),
                n,
                &mut s,
            )
        };
        assert!(b1.approx_eq(&b2, 0.0));
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        dtrsm_right_upper(n, n, u.as_slice(), n, b1.as_mut_slice(), n);
        unsafe {
            dtrsm_right_upper_raw_packed(
                n,
                n,
                u.as_slice().as_ptr(),
                n,
                b2.as_mut_slice().as_mut_ptr(),
                n,
                &mut s,
            )
        };
        assert!(b1.approx_eq(&b2, 0.0));
    }

    #[test]
    fn empty_is_noop() {
        let mut b: Vec<f64> = vec![];
        dtrsm_left_lower_unit(0, 3, &[], 1, &mut b, 1);
        dtrsm_right_upper(3, 0, &[], 1, &mut b, 1);
        dtrsm_left_lower_unit_unblocked(0, 3, &[], 1, &mut b, 1);
        dtrsm_right_upper_unblocked(3, 0, &[], 1, &mut b, 1);
        let mut s = GemmScratch::new();
        dtrsm_left_lower_unit_packed(3, 0, &[], 1, &mut b, 1, &mut s);
        dtrsm_right_upper_packed(0, 3, &[], 1, &mut b, 1, &mut s);
    }
}
