//! Triangular solves — the kernels behind tasks **L** and **U**.
//!
//! * task U computes `U_{K,J} = L_{KK}^{-1} · A_{K,J}` →
//!   [`dtrsm_left_lower_unit_packed`];
//! * task L computes `L_{I,K} = A_{I,K} · U_{KK}^{-1}` →
//!   [`dtrsm_right_upper_packed`], and the Cholesky task L
//!   `L_{I,K} = A_{I,K} · L_{KK}^{-T}` → [`dtrsm_right_lower_trans_packed`].
//!
//! All three are blocked: a register-blocked substitution on each
//! `TRSM_NB`-wide diagonal block, then one rank-`TRSM_NB` [`crate::gemm`]
//! update of the remainder — so asymptotically all TRSM flops run
//! through the packed register-tiled GEMM. The diagonal-block cores keep
//! strips of `B` in registers, yet give each element exactly the
//! per-column substitution's steps in its order — `y + (−t)·x`, a
//! multiply then an add, a zero `t` skipped, then `× (1/d)` — so they are
//! bit-identical to the exported `*_unblocked` solves, their test
//! oracles. Like the GEMM, each core is compiled at the baseline ISA and
//! under AVX2 (never FMA).

use crate::gemm::{dgemm_nt_raw_packed, dgemm_raw_packed};
use crate::pack::GemmScratch;
use crate::small::{axpy, daxpy, load, store};

/// Diagonal-block width of the blocked triangular solves: below this the
/// substitution runs register-blocked, above it the trailing work is GEMM.
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
    unsafe { dtrsm_left_lower_unit_raw_packed(m, n, l.as_ptr(), ldl, b.as_mut_ptr(), ldb, scratch) }
}

/// Unblocked forward substitution, one column at a time — the test
/// oracle of the blocked solve and of its register-blocked core.
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
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + m];
        // forward substitution; the update of rows k+1.. is an AXPY with
        // the contiguous subcolumn of L below its diagonal.
        for k in 0..m {
            let xk = col[k];
            if xk == 0.0 {
                continue;
            }
            let (_, tail) = col.split_at_mut(k + 1);
            daxpy(-xk, &l[k * ldl + k + 1..k * ldl + m], tail);
        }
    }
}

/// Forward substitution on the `m×m` unit lower block `l` for the `n`
/// columns of `b`: two right-hand columns by four pivot rows at a time.
#[inline(always)]
unsafe fn left_body(m: usize, n: usize, l: *const f64, ldl: usize, b: *mut f64, ldb: usize) {
    for j in (0..n).step_by(2) {
        for k in (0..m).step_by(4) {
            let (lk, bk) = (l.add(k * ldl + k), b.add(j * ldb + k));
            match n - j {
                1 => left_rows::<1>(m - k, lk, ldl, bk, ldb),
                _ => left_rows::<2>(m - k, lk, ldl, bk, ldb),
            }
        }
    }
}

baseline_and_avx2! {
    /// Register-blocked forward substitution — the diagonal-block case of
    /// the blocked left solve, bit-identical to
    /// [`dtrsm_left_lower_unit_unblocked`]. It uses raw pointers to strips
    /// of single columns, never slices: the parallel executor's tiles
    /// interleave with tiles other workers are writing in one buffer, and
    /// a slice over their live writes would be UB even if never read.
    ///
    /// # Safety
    ///
    /// Every column segment addressed (`m` elements at `b + j·ldb`, the
    /// subdiagonal runs of `l`) must be valid, `b`'s segments must not
    /// overlap `l`'s, and the caller must have exclusive access to them.
    unsafe fn left_core, left_avx2 = left_body(
        m: usize, n: usize, l: *const f64, ldl: usize, b: *mut f64, ldb: usize,
    );
}

/// The first four pivot rows (fewer at the bottom) of the `m` rows at
/// `b`, for `C` columns, `l` at their diagonal: solve their unit triangle
/// in place, column by column, then give every row below the four
/// updates in pivot order, in strips of 8, 4 and 1 rows.
#[inline(always)]
unsafe fn left_rows<const C: usize>(m: usize, l: *const f64, ldl: usize, b: *mut f64, ldb: usize) {
    let kb = 4.min(m);
    let mut x = [[0.0; 4]; C];
    for (c, xc) in x.iter_mut().enumerate() {
        let col = b.add(c * ldb);
        for (g, xg) in xc.iter_mut().enumerate().take(kb) {
            let xk = *col.add(g);
            *xg = xk;
            if xk == 0.0 {
                continue;
            }
            for i in g + 1..kb {
                *col.add(i) += -xk * *l.add(g * ldl + i);
            }
        }
    }
    // below a short last group, i starts past m: nothing is left
    let mut i = 4;
    while i < m {
        let (li, bi) = (l.add(i), b.add(i));
        i += match m - i {
            8.. => left_strip::<C, 8>(&x, li, ldl, bi, ldb),
            4.. => left_strip::<C, 4>(&x, li, ldl, bi, ldb),
            _ => left_strip::<C, 1>(&x, li, ldl, bi, ldb),
        };
    }
}

/// One `R`-row strip of `C` columns below four pivot rows at `l`:
/// `y ← y + (−x_g)·L[·, g]` for each pivot `g` in order, skipping
/// `x_g == 0`. Returns `R`, the rows done.
#[inline(always)]
unsafe fn left_strip<const C: usize, const R: usize>(
    x: &[[f64; 4]; C],
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
) -> usize {
    let lg: [[f64; R]; 4] = std::array::from_fn(|g| load(l.add(g * ldl)));
    for (c, xc) in x.iter().enumerate() {
        let p = b.add(c * ldb);
        let mut y = load::<R>(p);
        for (&xk, lk) in xc.iter().zip(&lg) {
            if xk != 0.0 {
                axpy(-xk, lk, &mut y);
            }
        }
        store(p, y);
    }
    R
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
    assert!(ldl >= m && ldb >= m, "leading dimension too small");
    let mut k0 = 0;
    while k0 < m {
        let kb = TRSM_NB.min(m - k0);
        left_core(kb, n, l.add(k0 * ldl + k0), ldl, b.add(k0), ldb);
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
/// [`dtrsm_left_lower_unit_packed`]: register-blocked solve per diagonal
/// block, packed GEMM for the trailing columns.
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
    unsafe { trsm_right::<false>(m, n, u.as_ptr(), ldu, b.as_mut_ptr(), ldb, scratch) }
}

/// Unblocked column-by-column substitution — the test oracle of the
/// blocked solve and of its register-blocked core.
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
    for j in 0..n {
        // X[:,j] = (B[:,j] − Σ_{k<j} X[:,k]·u[k,j]) / u[j,j]
        let (done, rest) = b.split_at_mut(j * ldb);
        let b_j = &mut rest[..m];
        for k in 0..j {
            let ukj = u[k + j * ldu];
            if ukj == 0.0 {
                continue;
            }
            daxpy(-ukj, &done[k * ldb..k * ldb + m], b_j);
        }
        let d = 1.0 / u[j + j * ldu];
        for v in b_j {
            *v *= d;
        }
    }
}

/// Solve `X · Lᵀ = B` in place (`B ← B·L⁻ᵀ`) where `L` is `n×n` lower
/// triangular with a **non-unit** diagonal and `B` is `m×n`. Column-major
/// with leading dimensions `ldl`, `ldb`. This is the Cholesky task **L**
/// kernel (`L_ik = A_ik·L_kk⁻ᵀ`). Blocked like the other solves:
/// register-blocked substitution per [`TRSM_NB`]-wide diagonal block,
/// then one packed NT GEMM ([`crate::gemm::dgemm_nt_packed`]) for the
/// trailing columns.
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
    unsafe { trsm_right::<true>(m, n, l.as_ptr(), ldl, b.as_mut_ptr(), ldb, scratch) }
}

/// Unblocked column-by-column substitution — the test oracle of the
/// blocked solve and of its register-blocked core. `Lᵀ` is upper
/// triangular with `(Lᵀ)[k,j] = L[j,k]`, so this is
/// [`dtrsm_right_upper_unblocked`] reading the triangle transposed.
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
    for j in 0..n {
        // X[:,j] = (B[:,j] − Σ_{k<j} X[:,k]·L[j,k]) / L[j,j]
        let (done, rest) = b.split_at_mut(j * ldb);
        let b_j = &mut rest[..m];
        for k in 0..j {
            let ljk = l[j + k * ldl];
            if ljk == 0.0 {
                continue;
            }
            daxpy(-ljk, &done[k * ldb..k * ldb + m], b_j);
        }
        let d = 1.0 / l[j + j * ldl];
        for v in b_j {
            *v *= d;
        }
    }
}

/// Solve `X·T = B` in place for `B` `m×n` and `T` `n×n` upper triangular
/// with a non-unit diagonal, read as `T[k,j] = *t.add(k·rs + j·cs)`:
/// `(rs, cs) = (1, ldu)` is `U`, `(ldl, 1)` is `Lᵀ` stored as `L`. Row
/// strips of 16, then 4, then 1, each two columns at a time.
#[inline(always)]
unsafe fn right_body(
    m: usize,
    n: usize,
    t: *const f64,
    rs: usize,
    cs: usize,
    b: *mut f64,
    ldb: usize,
) {
    let mut i = 0;
    while i < m {
        let bi = b.add(i);
        for j in (0..n).step_by(2) {
            match (m - i, n - j) {
                (16.., 1) => right_cols::<16, 1>(j, t, rs, cs, bi, ldb),
                (16.., _) => right_cols::<16, 2>(j, t, rs, cs, bi, ldb),
                (4.., 1) => right_cols::<4, 1>(j, t, rs, cs, bi, ldb),
                (4.., _) => right_cols::<4, 2>(j, t, rs, cs, bi, ldb),
                (_, 1) => right_cols::<1, 1>(j, t, rs, cs, bi, ldb),
                _ => right_cols::<1, 2>(j, t, rs, cs, bi, ldb),
            }
        }
        i += match m - i {
            16.. => 16,
            4.. => 4,
            _ => 1,
        };
    }
}

baseline_and_avx2! {
    /// Register-blocked right solve — the diagonal-block case of both
    /// blocked right solves, bit-identical to
    /// [`dtrsm_right_upper_unblocked`] (`T = U`) and
    /// [`dtrsm_right_lower_trans_unblocked`] (`T = Lᵀ`). Raw pointers to
    /// strips of single columns only, as in [`left_core`].
    ///
    /// # Safety
    ///
    /// As [`trsm_right`], with `T[k,j]` read at `t + k·rs + j·cs`.
    unsafe fn right_core, right_avx2 = right_body(
        m: usize, n: usize, t: *const f64, rs: usize, cs: usize, b: *mut f64, ldb: usize,
    );
}

/// Columns `j..j+C` of one `R`-row strip, held in registers: each
/// finished column `k < j` is read once for all `C`, then the `C×C`
/// triangle is solved in registers. Each element gets `y + (−T[k,j])·x_k`
/// for `k` in order, skipping `T[k,j] == 0`, then `× (1/T[j,j])`.
#[inline(always)]
unsafe fn right_cols<const R: usize, const C: usize>(
    j: usize,
    t: *const f64,
    rs: usize,
    cs: usize,
    b: *mut f64,
    ldb: usize,
) {
    let tkj = |k: usize, j: usize| *t.add(k * rs + j * cs);
    let mut y: [[f64; R]; C] = std::array::from_fn(|c| load(b.add((j + c) * ldb)));
    for k in 0..j {
        let x = load::<R>(b.add(k * ldb));
        for (c, yc) in y.iter_mut().enumerate() {
            let u = tkj(k, j + c);
            if u != 0.0 {
                axpy(-u, &x, yc);
            }
        }
    }
    for c in 0..C {
        for k in 0..c {
            let u = tkj(j + k, j + c);
            if u != 0.0 {
                let x = y[k];
                axpy(-u, &x, &mut y[c]);
            }
        }
        let d = 1.0 / tkj(j + c, j + c);
        for v in &mut y[c] {
            *v *= d;
        }
        store(b.add((j + c) * ldb), y[c]);
    }
}

/// The blocked right solve behind both right entry points, `X·T = B`
/// with `T = U` or, when `NT`, `T = Lᵀ` stored as `L`: [`right_core`] on
/// each [`TRSM_NB`]-wide diagonal block, then
/// `B[:, j0+jb..] −= X[:, j0..j0+jb] · T[j0..j0+jb, j0+jb..]` through the
/// packed GEMM, in its `A·Bᵀ` form when `NT`.
///
/// # Safety
///
/// `t` and `b` must be valid for their `n×n` / `m×n` spans, be
/// element-disjoint, and the caller must have exclusive access to `b`.
unsafe fn trsm_right<const NT: bool>(
    m: usize,
    n: usize,
    t: *const f64,
    ldt: usize,
    b: *mut f64,
    ldb: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldt >= n && ldb >= m, "leading dimension too small");
    let (rs, cs) = if NT { (ldt, 1) } else { (1, ldt) };
    let gemm = if NT {
        dgemm_nt_raw_packed
    } else {
        dgemm_raw_packed
    };
    let mut j0 = 0;
    while j0 < n {
        let jb = TRSM_NB.min(n - j0);
        let t0 = t.add(j0 * (rs + cs));
        right_core(m, jb, t0, rs, cs, b.add(j0 * ldb), ldb);
        // reads and writes disjoint column ranges of B
        if j0 + jb < n {
            let (x, rest) = (b.add(j0 * ldb) as *const f64, b.add((j0 + jb) * ldb));
            gemm(
                m,
                n - j0 - jb,
                jb,
                -1.0,
                x,
                ldb,
                t0.add(jb * cs),
                ldt,
                1.0,
                rest,
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
    trsm_right::<true>(m, n, l, ldl, b, ldb, scratch);
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
    trsm_right::<false>(m, n, u, ldu, b, ldb, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{assert_same_bits, padded, plant, sweep_sizes, too_big_for_miri, PLANTS};
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
            dtrsm_left_lower_unit_packed(
                m,
                n,
                l.as_slice(),
                l.ld(),
                x.as_mut_slice(),
                ld,
                &mut GemmScratch::new(),
            );
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
        dtrsm_left_lower_unit_packed(
            m,
            2,
            l.as_slice(),
            l.ld(),
            x.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
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
            dtrsm_right_upper_packed(
                m,
                n,
                u.as_slice(),
                u.ld(),
                x.as_mut_slice(),
                ld,
                &mut GemmScratch::new(),
            );
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
        dtrsm_right_upper_packed(
            3,
            n,
            u.as_slice(),
            u.ld(),
            x.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
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
            dtrsm_right_lower_trans_packed(
                m,
                n,
                l.as_slice(),
                l.ld(),
                x.as_mut_slice(),
                ld,
                &mut GemmScratch::new(),
            );
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
        dtrsm_right_lower_trans_packed(
            3,
            n,
            l.as_slice(),
            l.ld(),
            x.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
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
            if too_big_for_miri(m, n, n) {
                continue;
            }
            let l = lower(n, 35);
            let b0 = gen::uniform(m, n, 36);
            let mut blocked = b0.clone();
            let mut unblocked = b0.clone();
            let ld = b0.ld();
            dtrsm_right_lower_trans_packed(
                m,
                n,
                l.as_slice(),
                l.ld(),
                blocked.as_mut_slice(),
                ld,
                &mut GemmScratch::new(),
            );
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
        dtrsm_right_lower_trans_packed(
            n,
            n,
            l.as_slice(),
            n,
            b1.as_mut_slice(),
            n,
            &mut GemmScratch::new(),
        );
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
            if too_big_for_miri(m, m, n) {
                continue;
            }
            let l = unit_lower(m, 40);
            let b0 = gen::uniform(m, n, 41);
            let mut blocked = b0.clone();
            let mut unblocked = b0.clone();
            let ld = b0.ld();
            dtrsm_left_lower_unit_packed(
                m,
                n,
                l.as_slice(),
                l.ld(),
                blocked.as_mut_slice(),
                ld,
                &mut GemmScratch::new(),
            );
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
            dtrsm_right_upper_packed(
                n,
                m,
                u.as_slice(),
                u.ld(),
                blocked.as_mut_slice(),
                ld,
                &mut GemmScratch::new(),
            );
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
                dtrsm_right_upper_packed(
                    4,
                    n,
                    u.as_slice(),
                    u.ld(),
                    x.as_mut_slice(),
                    ld,
                    &mut GemmScratch::new(),
                );
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
        dtrsm_left_lower_unit_packed(
            m,
            1,
            l.as_slice(),
            l.ld(),
            b.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
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
        dtrsm_left_lower_unit_packed(
            m,
            2,
            &parent_l.as_slice()[l_off..],
            10,
            &mut parent_b.as_mut_slice()[b_off..],
            10,
            &mut GemmScratch::new(),
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
        dtrsm_left_lower_unit_packed(
            n,
            n,
            l.as_slice(),
            n,
            b1.as_mut_slice(),
            n,
            &mut GemmScratch::new(),
        );
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
        dtrsm_right_upper_packed(
            n,
            n,
            u.as_slice(),
            n,
            b1.as_mut_slice(),
            n,
            &mut GemmScratch::new(),
        );
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

    type LeftBody = unsafe fn(usize, usize, *const f64, usize, *mut f64, usize);
    type RightBody = unsafe fn(usize, usize, *const f64, usize, usize, *mut f64, usize);

    /// The left core's two bodies by name, not through its dispatch: the
    /// baseline one, and the AVX2 one where this host has AVX2.
    fn left_bodies() -> Vec<(&'static str, LeftBody)> {
        let mut v: Vec<(&'static str, LeftBody)> = vec![("baseline", left_body)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(("avx2", left_avx2));
        }
        v
    }

    /// The right core's bodies, as [`left_bodies`].
    fn right_bodies() -> Vec<(&'static str, RightBody)> {
        let mut v: Vec<(&'static str, RightBody)> = vec![("baseline", right_body)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(("avx2", right_avx2));
        }
        v
    }

    /// `(rows, cols)` of every bitwise-sweep case that fits the
    /// interpreter's budget, `cube` giving each case's work.
    fn sweep_shapes(cube: fn(usize, usize) -> (usize, usize, usize)) -> Vec<(usize, usize)> {
        let sizes = sweep_sizes();
        let mut v = vec![];
        for &r in &sizes {
            for &c in &sizes {
                let (x, y, z) = cube(r, c);
                if !too_big_for_miri(x, y, z) {
                    v.push((r, c));
                }
            }
        }
        v
    }

    #[test]
    fn left_core_matches_oracle_bitwise() {
        for (m, n) in sweep_shapes(|m, n| (m, m, n)) {
            for (p, &(values, every)) in PLANTS.iter().enumerate() {
                let seed = (m * 71 + n) as u64;
                let mut tri = unit_lower(m, seed);
                plant(&mut tri, values, every, seed);
                let mut rhs = gen::uniform(m, n, seed + 1);
                plant(&mut rhs, values, every, seed + 1);
                let ((l, ldl), (b0, ldb)) = (padded(&tri), padded(&rhs));
                let mut want = b0.clone();
                dtrsm_left_lower_unit_unblocked(m, n, &l, ldl, &mut want, ldb);
                for (name, body) in left_bodies() {
                    let mut got = b0.clone();
                    // SAFETY: both buffers hold their padded spans and are
                    // distinct; the AVX2 body is listed only where detected.
                    unsafe { body(m, n, l.as_ptr(), ldl, got.as_mut_ptr(), ldb) };
                    assert_same_bits(&got, &want, &format!("{name} ({m},{n}) plant {p}"));
                }
            }
        }
    }

    /// The right core on `T = U`, or on `T = Lᵀ` when `trans`, against
    /// the matching per-column oracle.
    fn right_core_sweep(trans: bool) {
        for (m, n) in sweep_shapes(|m, n| (m, n, n)) {
            for (p, &(values, every)) in PLANTS.iter().enumerate() {
                let seed = (m * 73 + n) as u64;
                let mut tri = if trans {
                    lower(n, seed)
                } else {
                    upper(n, seed)
                };
                plant(&mut tri, values, every, seed);
                let mut rhs = gen::uniform(m, n, seed + 1);
                plant(&mut rhs, values, every, seed + 1);
                let ((t, ldt), (b0, ldb)) = (padded(&tri), padded(&rhs));
                let mut want = b0.clone();
                let (rs, cs) = if trans {
                    dtrsm_right_lower_trans_unblocked(m, n, &t, ldt, &mut want, ldb);
                    (ldt, 1)
                } else {
                    dtrsm_right_upper_unblocked(m, n, &t, ldt, &mut want, ldb);
                    (1, ldt)
                };
                for (name, body) in right_bodies() {
                    let mut got = b0.clone();
                    // SAFETY: as in `left_core_matches_oracle_bitwise`.
                    unsafe { body(m, n, t.as_ptr(), rs, cs, got.as_mut_ptr(), ldb) };
                    let what = format!("{name} trans {trans} ({m},{n}) plant {p}");
                    assert_same_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn right_upper_core_matches_oracle_bitwise() {
        right_core_sweep(false);
    }

    #[test]
    fn right_lower_trans_core_matches_oracle_bitwise() {
        right_core_sweep(true);
    }

    #[test]
    #[should_panic(expected = "leading dimension too small")]
    fn left_raw_rejects_short_ld() {
        let (l, mut b) = (vec![1.0; 64], vec![0.0; 64]);
        // SAFETY: the assert fires before any access.
        unsafe {
            dtrsm_left_lower_unit_raw_packed(
                8,
                2,
                l.as_ptr(),
                7,
                b.as_mut_ptr(),
                8,
                &mut GemmScratch::new(),
            )
        }
    }

    #[test]
    #[should_panic(expected = "leading dimension too small")]
    fn right_upper_raw_rejects_short_ld() {
        let (u, mut b) = (vec![1.0; 64], vec![0.0; 64]);
        // SAFETY: the assert fires before any access.
        unsafe {
            dtrsm_right_upper_raw_packed(
                8,
                2,
                u.as_ptr(),
                2,
                b.as_mut_ptr(),
                7,
                &mut GemmScratch::new(),
            )
        }
    }

    #[test]
    #[should_panic(expected = "leading dimension too small")]
    fn right_lower_trans_raw_rejects_short_ld() {
        let (l, mut b) = (vec![1.0; 64], vec![0.0; 64]);
        // SAFETY: the assert fires before any access.
        unsafe {
            dtrsm_right_lower_trans_raw_packed(
                2,
                8,
                l.as_ptr(),
                7,
                b.as_mut_ptr(),
                2,
                &mut GemmScratch::new(),
            )
        }
    }

    #[test]
    fn empty_is_noop() {
        let mut b: Vec<f64> = vec![];
        dtrsm_left_lower_unit_packed(0, 3, &[], 1, &mut b, 1, &mut GemmScratch::new());
        dtrsm_right_upper_packed(3, 0, &[], 1, &mut b, 1, &mut GemmScratch::new());
        dtrsm_left_lower_unit_unblocked(0, 3, &[], 1, &mut b, 1);
        dtrsm_right_upper_unblocked(3, 0, &[], 1, &mut b, 1);
        let mut s = GemmScratch::new();
        dtrsm_left_lower_unit_packed(3, 0, &[], 1, &mut b, 1, &mut s);
        dtrsm_right_upper_packed(0, 3, &[], 1, &mut b, 1, &mut s);
    }
}
