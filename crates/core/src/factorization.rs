//! The result of an LU factorization: `P·A = L·U`.

use calu_kernels::{dtrsm_left_lower_unit_packed, laswp, GemmScratch};
use calu_matrix::{norms, ops, DenseMatrix, RowPerm};

/// A completed factorization `P·A = L·U` with partial/tournament
/// pivoting. `lu` packs `L` (unit diagonal implicit) below the diagonal
/// and `U` on/above it, LAPACK-style.
#[derive(Debug, Clone)]
pub struct Factorization {
    /// Packed factors.
    pub lu: DenseMatrix,
    /// Row permutation (`P` as a swap sequence).
    pub perm: RowPerm,
    /// First column where a zero pivot appeared, if the matrix was
    /// numerically singular.
    pub singular_at: Option<usize>,
}

impl Factorization {
    /// True if no zero pivot was hit.
    pub fn is_nonsingular(&self) -> bool {
        self.singular_at.is_none()
    }

    /// Reconstruct `L·U`.
    fn reconstruct(&self) -> DenseMatrix {
        ops::matmul(&self.lu.lower_unit(), &self.lu.upper())
    }

    /// Relative residual `‖P·A − L·U‖_F / ‖A‖_F`.
    pub fn residual(&self, a: &DenseMatrix) -> f64 {
        let pa = self.perm.permuted(a);
        let diff = ops::sub(&self.reconstruct(), &pa);
        norms::frobenius(&diff) / norms::frobenius(a).max(f64::MIN_POSITIVE)
    }

    /// Lower-triangular Cholesky factor `L` (non-unit diagonal) read
    /// from the packed storage — meaningful only for factorizations
    /// produced by the Cholesky kernel set, whose `lu` holds `L` on and
    /// below the diagonal and the untouched input above it.
    pub fn cholesky_l(&self) -> DenseMatrix {
        let n = self.lu.rows();
        DenseMatrix::from_fn(n, n, |i, j| if i >= j { self.lu.get(i, j) } else { 0.0 })
    }

    /// Relative residual `‖A − L·Lᵀ‖_F / ‖A‖_F` of a Cholesky
    /// factorization (the permutation is the identity — Cholesky does
    /// not pivot).
    pub fn cholesky_residual(&self, a: &DenseMatrix) -> f64 {
        let l = self.cholesky_l();
        let lt = DenseMatrix::from_fn(l.rows(), l.rows(), |i, j| l.get(j, i));
        let diff = ops::sub(&ops::matmul(&l, &lt), a);
        norms::frobenius(&diff) / norms::frobenius(a).max(f64::MIN_POSITIVE)
    }

    /// Element growth factor `max|U| / max|A|` — the pivoting-stability
    /// figure the paper cites for tournament vs. partial pivoting.
    pub fn growth_factor(&self, a: &DenseMatrix) -> f64 {
        self.lu.upper().max_abs() / a.max_abs().max(f64::MIN_POSITIVE)
    }

    /// Solve `A·x = rhs` (square systems) using the factors.
    pub fn solve(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let n = self.lu.rows();
        assert_eq!(self.lu.cols(), n, "solve needs a square factorization");
        assert_eq!(rhs.rows(), n, "rhs height mismatch");
        let mut x = rhs.clone();
        // x <- P rhs
        let nrhs = x.cols();
        let ld = x.ld();
        laswp::dlaswp(
            nrhs,
            x.as_mut_slice(),
            ld,
            self.perm.offset(),
            self.perm.pivots(),
        );
        // forward: L y = P rhs
        dtrsm_left_lower_unit_packed(
            n,
            nrhs,
            self.lu.as_slice(),
            self.lu.ld(),
            x.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        // back substitution: U x = y
        for col in 0..nrhs {
            for k in (0..n).rev() {
                let mut s = x.get(k, col);
                for j in (k + 1)..n {
                    s -= self.lu.get(k, j) * x.get(j, col);
                }
                x.set(k, col, s / self.lu.get(k, k));
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_kernels::dgetf2;
    use calu_matrix::gen;

    fn factor(a: &DenseMatrix) -> Factorization {
        let mut lu = a.clone();
        let (m, n, ld) = (lu.rows(), lu.cols(), lu.ld());
        let p = dgetf2(m, n, lu.as_mut_slice(), ld);
        Factorization {
            lu,
            perm: RowPerm::from_pivots(0, p.piv),
            singular_at: p.singular_at,
        }
    }

    #[test]
    fn residual_is_small_for_random() {
        let a = gen::uniform(40, 40, 1);
        let f = factor(&a);
        assert!(f.is_nonsingular());
        assert!(f.residual(&a) < 1e-13, "residual {}", f.residual(&a));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = gen::uniform(30, 30, 2);
        let x_true = gen::uniform(30, 2, 3);
        let rhs = ops::matmul(&a, &x_true);
        let f = factor(&a);
        let x = f.solve(&rhs);
        assert!(x.approx_eq(&x_true, 1e-8));
    }

    #[test]
    fn growth_factor_of_wilkinson() {
        let a = gen::wilkinson(12);
        let f = factor(&a);
        let g = f.growth_factor(&a);
        assert!(
            (g - 2f64.powi(11)).abs() < 1e-6,
            "GEPP growth 2^(n-1), got {g}"
        );
    }

    #[test]
    fn singular_flag_propagates() {
        let z = DenseMatrix::zeros(4, 4);
        let f = factor(&z);
        assert!(!f.is_nonsingular());
        assert_eq!(f.singular_at, Some(0));
    }
}
