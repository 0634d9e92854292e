//! Gaussian elimination with partial pivoting on a column-major panel.
//!
//! [`dgetf2`] is the unblocked reference (LAPACK's `dgetf2`), and
//! [`dgetrf_recursive_packed`] is Toledo's recursive formulation — the paper's
//! pick for the TSLU reduction operator ("In our experiments we use
//! recursive LU \[23\]", §3), because its BLAS-3-rich structure is the best
//! sequential panel algorithm.

use crate::laswp::dlaswp;
use crate::pack::GemmScratch;
use crate::small::idamax;
use crate::trsm::dtrsm_left_lower_unit_packed;

/// Outcome of a panel factorization with partial pivoting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelPivots {
    /// `piv[k]` = row (0-based, local to the panel) swapped with row `k`
    /// at elimination step `k`. Always `piv[k] >= k`.
    pub piv: Vec<usize>,
    /// First column where a zero pivot was met (matrix numerically
    /// singular there), if any. Elimination continues past it with the
    /// offending multipliers left at zero, LAPACK-style.
    pub singular_at: Option<usize>,
}

/// Unblocked GEPP of an `m × n` column-major panel (`lda >= m`). On exit
/// the panel holds `L` (unit diagonal implicit) below and `U` on/above the
/// diagonal; the returned pivots record the row interchanges, which have
/// been applied to the *whole* panel.
pub fn dgetf2(m: usize, n: usize, a: &mut [f64], lda: usize) -> PanelPivots {
    let kmax = m.min(n);
    let mut piv = Vec::with_capacity(kmax);
    let mut singular_at = None;
    if kmax == 0 {
        return PanelPivots { piv, singular_at };
    }
    assert!(lda >= m, "lda too small");
    assert!(a.len() >= (n - 1) * lda + m, "panel slice too short");

    for k in 0..kmax {
        // pivot search on column k, rows k..m
        let col = &a[k * lda + k..k * lda + m];
        let p = k + idamax(col);
        piv.push(p);
        if a[k * lda + p] == 0.0 {
            if singular_at.is_none() {
                singular_at = Some(k);
            }
            continue; // nothing to eliminate with; multipliers stay 0
        }
        // swap rows k and p across all n columns
        if p != k {
            for j in 0..n {
                a.swap(j * lda + k, j * lda + p);
            }
        }
        // scale multipliers
        let akk = a[k * lda + k];
        let inv = 1.0 / akk;
        for v in &mut a[k * lda + k + 1..k * lda + m] {
            *v *= inv;
        }
        // rank-1 update of the trailing (m-k-1) x (n-k-1) block
        for j in (k + 1)..n {
            let akj = a[j * lda + k];
            if akj == 0.0 {
                continue;
            }
            // split so we can read column k while updating column j
            let (head, tail) = a.split_at_mut(j * lda);
            let lcol = &head[k * lda + k + 1..k * lda + m];
            let ccol = &mut tail[k + 1..m];
            crate::small::daxpy(-akj, lcol, ccol);
        }
    }
    PanelPivots { piv, singular_at }
}

/// Width below which the recursion falls back to [`dgetf2`].
const RECURSION_BASE: usize = 8;

/// Toledo's recursive LU with partial pivoting of an `m × n` panel
/// (`m >= n` recommended). Same storage contract and result semantics as
/// [`dgetf2`], but asymptotically all work happens inside the packed
/// `dgemm` (via `scratch`, so a caller reusing one arena allocates
/// nothing here beyond the pivot vector).
pub fn dgetrf_recursive_packed(
    m: usize,
    n: usize,
    a: &mut [f64],
    lda: usize,
    scratch: &mut GemmScratch,
) -> PanelPivots {
    let kmax = m.min(n);
    if kmax == 0 {
        return PanelPivots {
            piv: vec![],
            singular_at: None,
        };
    }
    if n <= RECURSION_BASE {
        return dgetf2(m, n, a, lda);
    }
    assert!(lda >= m, "lda too small");
    assert!(a.len() >= (n - 1) * lda + m, "panel slice too short");

    let n1 = (n / 2).min(kmax);
    let n2 = n - n1;

    // Factor the left half: A[0..m, 0..n1]
    let left = dgetrf_recursive_packed(m, n1, a, lda, scratch);

    // Apply its pivots to the right half A[0..m, n1..n]
    dlaswp(n2, &mut a[n1 * lda..], lda, 0, &left.piv);

    // A12 ← L11⁻¹ · A12   (n1 × n2 block at rows 0..n1 of the right half)
    {
        let (l_part, r_part) = a.split_at_mut(n1 * lda);
        dtrsm_left_lower_unit_packed(n1, n2, l_part, lda, r_part, lda, scratch);
    }

    // A22 ← A22 − A21 · A12
    if m > n1 {
        let (l_part, r_part) = a.split_at_mut(n1 * lda);
        // A21 = rows n1..m of the left half; A12 = rows 0..n1 of right half
        unsafe {
            // split_at_mut separated columns; rows within each part do not
            // overlap between reads (l_part, upper rows of r_part) and the
            // written block (lower rows of r_part), but they share the
            // r_part slice, so go through the raw-pointer GEMM (which
            // never forms slices over the operands).
            let a12 = r_part.as_ptr();
            let a22 = r_part.as_mut_ptr().add(n1);
            crate::gemm::dgemm_raw_packed(
                m - n1,
                n2,
                n1,
                -1.0,
                l_part.as_ptr().add(n1),
                lda,
                a12,
                lda,
                1.0,
                a22,
                lda,
                scratch,
            );
        }
    }

    // Factor A22 recursively
    let right = if m > n1 {
        let sub = &mut a[n1 * lda + n1..];
        dgetrf_recursive_packed(m - n1, n2, sub, lda, scratch)
    } else {
        PanelPivots {
            piv: vec![],
            singular_at: None,
        }
    };

    // Apply A22's pivots (offset by n1) to the left half rows n1..m
    let shifted: Vec<usize> = right.piv.iter().map(|p| p + n1).collect();
    dlaswp(n1, a, lda, n1, &shifted);

    let mut piv = left.piv;
    piv.extend(shifted);
    let singular_at = left.singular_at.or(right.singular_at.map(|c| c + n1));
    PanelPivots { piv, singular_at }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::too_big_for_miri;
    use calu_matrix::{gen, ops, DenseMatrix, RowPerm};

    /// reconstruct P·A from the factored panel and compare to L·U
    fn check_plu(orig: &DenseMatrix, factored: &DenseMatrix, piv: &[usize], tol: f64) {
        let perm = RowPerm::from_pivots(0, piv.to_vec());
        let pa = perm.permuted(orig);
        let l = factored.lower_unit();
        let u = factored.upper();
        let lu = ops::matmul(&l, &u);
        assert!(
            lu.approx_eq(&pa, tol),
            "PA != LU (max diff {})",
            ops::sub(&lu, &pa).max_abs()
        );
    }

    fn run_getf2(a: &DenseMatrix) -> (DenseMatrix, PanelPivots) {
        let mut f = a.clone();
        let (m, n, ld) = (f.rows(), f.cols(), f.ld());
        let piv = dgetf2(m, n, f.as_mut_slice(), ld);
        (f, piv)
    }

    fn run_recursive(a: &DenseMatrix) -> (DenseMatrix, PanelPivots) {
        let mut f = a.clone();
        let (m, n, ld) = (f.rows(), f.cols(), f.ld());
        let piv = dgetrf_recursive_packed(m, n, f.as_mut_slice(), ld, &mut GemmScratch::new());
        (f, piv)
    }

    #[test]
    fn getf2_factors_square_matrices() {
        for n in [1, 2, 5, 16, 33] {
            let a = gen::uniform(n, n, n as u64);
            let (f, p) = run_getf2(&a);
            assert!(p.singular_at.is_none());
            check_plu(&a, &f, &p.piv, 1e-10);
        }
    }

    #[test]
    fn getf2_factors_tall_panels() {
        for (m, n) in [(10, 3), (64, 8), (100, 1)] {
            let a = gen::uniform(m, n, 9);
            let (f, p) = run_getf2(&a);
            assert!(p.singular_at.is_none());
            assert_eq!(p.piv.len(), n);
            check_plu(&a, &f, &p.piv, 1e-10);
        }
    }

    #[test]
    fn getf2_picks_largest_pivot() {
        let a =
            DenseMatrix::from_rows(3, 3, &[1.0, 2.0, 3.0, 10.0, 5.0, 6.0, 2.0, 8.0, 9.0]).unwrap();
        let (_, p) = run_getf2(&a);
        assert_eq!(p.piv[0], 1, "row 1 holds the largest first-column entry");
    }

    #[test]
    fn nan_in_pivot_column_is_selected() {
        // regression for idamax's NaN handling: a NaN in the pivot
        // column must win the search (LAPACK-consistent) and poison the
        // factorization visibly, not lose every `>` comparison and let a
        // garbage finite pivot through silently
        let mut a = gen::uniform(5, 3, 99);
        a.set(3, 0, f64::NAN);
        let (f, p) = run_getf2(&a);
        assert_eq!(p.piv[0], 3, "NaN row wins the pivot search");
        assert!(f.get(0, 0).is_nan(), "NaN pivot lands on the diagonal");
        assert!(
            (1..5).all(|i| f.get(i, 0).is_nan()),
            "multipliers scaled by 1/NaN are NaN, not garbage"
        );
        // the recursive formulation goes through the same search
        let (_, pr) = run_recursive(&a);
        assert_eq!(pr.piv[0], 3);
    }

    #[test]
    fn getf2_flags_singularity_and_continues() {
        let a = gen::rank_deficient(6, 6, 3, 11);
        let (_, p) = run_getf2(&a);
        // exact zero pivots may be blurred by roundoff; the flag is set
        // only for exactly-zero pivots, so check factorization length
        assert_eq!(p.piv.len(), 6);
        let z = DenseMatrix::zeros(4, 4);
        let (_, p) = run_getf2(&z);
        assert_eq!(p.singular_at, Some(0));
    }

    #[test]
    fn recursive_matches_getf2_pivots_and_factors() {
        for (m, n, seed) in [
            (16, 16, 1),
            (40, 24, 2),
            (100, 32, 3),
            (7, 7, 4),
            (65, 64, 5),
        ] {
            if too_big_for_miri(m, n, n) {
                continue;
            }
            let a = gen::uniform(m, n, seed);
            let (f1, p1) = run_getf2(&a);
            let (f2, p2) = run_recursive(&a);
            assert_eq!(p1.piv, p2.piv, "pivot sequences must agree ({m}x{n})");
            assert!(f1.approx_eq(&f2, 1e-9), "factors must agree ({m}x{n})");
            assert!(p2.singular_at.is_none());
            check_plu(&a, &f2, &p2.piv, 1e-9);
        }
    }

    #[test]
    fn recursive_on_wide_matrix() {
        let a = gen::uniform(8, 20, 6);
        let (f, p) = run_recursive(&a);
        assert_eq!(p.piv.len(), 8);
        check_plu(&a, &f, &p.piv, 1e-10);
    }

    #[test]
    fn recursive_handles_wilkinson_growth_matrix() {
        let a = gen::wilkinson(20);
        let (f, p) = run_recursive(&a);
        assert!(p.singular_at.is_none());
        check_plu(&a, &f, &p.piv, 1e-6); // growth 2^19 amplifies roundoff
                                         // growth factor is exactly 2^(n-1) for Wilkinson's matrix
        let growth = f.upper().max_abs() / a.max_abs();
        assert!((growth - 2f64.powi(19)).abs() / 2f64.powi(19) < 1e-12);
    }

    #[test]
    fn works_with_leading_dimension_bigger_than_m() {
        // factor a 6x4 block inside a 10x8 parent
        let parent = gen::uniform(10, 8, 7);
        let block = parent.submatrix(2, 1, 6, 4);
        let mut work = parent.clone();
        let off = 10 + 2;
        let p = dgetrf_recursive_packed(
            6,
            4,
            &mut work.as_mut_slice()[off..],
            10,
            &mut GemmScratch::new(),
        );
        let f = work.submatrix(2, 1, 6, 4);
        check_plu(&block, &f, &p.piv, 1e-10);
        // rows outside the block untouched
        assert_eq!(work.get(0, 0), parent.get(0, 0));
        assert_eq!(work.get(9, 7), parent.get(9, 7));
    }

    #[test]
    fn empty_panel() {
        let mut a: Vec<f64> = vec![];
        let p = dgetf2(0, 0, &mut a, 1);
        assert!(p.piv.is_empty());
        let p = dgetrf_recursive_packed(0, 0, &mut a, 1, &mut GemmScratch::new());
        assert!(p.piv.is_empty());
    }
}
