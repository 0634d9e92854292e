//! LU factorization **without pivoting**.
//!
//! In CALU, once tournament pivoting has moved the selected pivot rows
//! onto the diagonal, the panel is factored with *no further pivoting*
//! (§2: "the second step computes the LU factorization with no pivoting of
//! the entire panel"). These kernels implement that step; they are also
//! reused by the incremental-pivoting baseline.

use crate::small::daxpy;

/// Unblocked LU without pivoting of an `m × n` column-major panel.
/// Returns the first column with a zero diagonal pivot, if any
/// (elimination continues past it).
pub fn lu_nopiv_unblocked(m: usize, n: usize, a: &mut [f64], lda: usize) -> Option<usize> {
    let kmax = m.min(n);
    if kmax == 0 {
        return None;
    }
    assert!(lda >= m, "lda too small");
    assert!(a.len() >= (n - 1) * lda + m, "panel slice too short");
    let mut singular_at = None;
    for k in 0..kmax {
        let akk = a[k * lda + k];
        if akk == 0.0 {
            if singular_at.is_none() {
                singular_at = Some(k);
            }
            continue;
        }
        let inv = 1.0 / akk;
        for v in &mut a[k * lda + k + 1..k * lda + m] {
            *v *= inv;
        }
        for j in (k + 1)..n {
            let akj = a[j * lda + k];
            if akj == 0.0 {
                continue;
            }
            let (head, tail) = a.split_at_mut(j * lda);
            let lcol = &head[k * lda + k + 1..k * lda + m];
            let ccol = &mut tail[k + 1..m];
            daxpy(-akj, lcol, ccol);
        }
    }
    singular_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::{gen, ops, DenseMatrix};

    fn check_lu(orig: &DenseMatrix, f: &DenseMatrix, tol: f64) {
        let lu = ops::matmul(&f.lower_unit(), &f.upper());
        assert!(
            lu.approx_eq(orig, tol),
            "A != LU, max diff {}",
            ops::sub(&lu, orig).max_abs()
        );
    }

    #[test]
    fn unblocked_on_diagonally_dominant() {
        for n in [1, 3, 8, 30] {
            let a = gen::diag_dominant(n, n as u64);
            let mut f = a.clone();
            let ld = f.ld();
            let s = lu_nopiv_unblocked(n, n, f.as_mut_slice(), ld);
            assert!(s.is_none());
            check_lu(&a, &f, 1e-9);
        }
    }

    #[test]
    fn tall_panel() {
        let a = {
            // tall panel whose top square is dominant so no pivoting needed
            let mut a = gen::uniform(12, 4, 5);
            for i in 0..4 {
                let v = a.get(i, i);
                a.set(i, i, v + 8.0);
            }
            a
        };
        let mut f = a.clone();
        let ld = f.ld();
        let s = lu_nopiv_unblocked(12, 4, f.as_mut_slice(), ld);
        assert!(s.is_none());
        check_lu(&a, &f, 1e-10);
    }

    #[test]
    fn zero_diagonal_is_reported() {
        let mut a = DenseMatrix::zeros(3, 3);
        a.set(0, 0, 0.0);
        a.set(1, 1, 1.0);
        a.set(2, 2, 1.0);
        let ld = a.ld();
        let s = lu_nopiv_unblocked(3, 3, a.as_mut_slice(), ld);
        assert_eq!(s, Some(0));
    }

    #[test]
    fn empty_is_noop() {
        let mut a: Vec<f64> = vec![];
        assert_eq!(lu_nopiv_unblocked(0, 0, &mut a, 1), None);
    }
}
