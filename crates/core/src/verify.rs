//! Standalone verification helpers used by tests and examples.

use calu_matrix::{norms, ops, DenseMatrix};

/// Relative backward error of a solve: `‖A·x − b‖ / (‖A‖·‖x‖ + ‖b‖)`.
pub fn backward_error(a: &DenseMatrix, x: &DenseMatrix, b: &DenseMatrix) -> f64 {
    let ax = ops::matmul(a, x);
    let diff = ops::sub(&ax, b);
    norms::frobenius(&diff)
        / (norms::frobenius(a) * norms::frobenius(x) + norms::frobenius(b)).max(f64::MIN_POSITIVE)
}

/// Componentwise check that a matrix contains no NaN or infinity.
pub fn all_finite(a: &DenseMatrix) -> bool {
    a.as_slice().iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gepp_factor;
    use calu_matrix::gen;

    #[test]
    fn backward_error_small_for_good_solve() {
        let a = gen::uniform(20, 20, 1);
        let x_true = gen::uniform(20, 1, 2);
        let b = ops::matmul(&a, &x_true);
        let x = gepp_factor(&a, 4).solve(&b);
        assert!(backward_error(&a, &x, &b) < 1e-13);
    }

    #[test]
    fn backward_error_large_for_wrong_solution() {
        let a = gen::uniform(10, 10, 3);
        let b = gen::uniform(10, 1, 4);
        let junk = gen::uniform(10, 1, 5);
        assert!(backward_error(&a, &junk, &b) > 1e-3);
    }

    #[test]
    fn finiteness_check() {
        let a = gen::uniform(4, 4, 6);
        assert!(all_finite(&a));
        let mut bad = a.clone();
        bad.set(1, 1, f64::NAN);
        assert!(!all_finite(&bad));
        bad.set(1, 1, f64::INFINITY);
        assert!(!all_finite(&bad));
    }
}
