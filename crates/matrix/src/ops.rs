//! Simple reference operations on dense matrices.
//!
//! These are the *oracles* for the optimized kernels in `calu-kernels`:
//! textbook triple loops, obviously correct, never used on hot paths.

use crate::dense::DenseMatrix;

/// Reference matrix product `A · B`.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for j in 0..b.cols() {
        for k in 0..a.cols() {
            let bkj = b.get(k, j);
            if bkj == 0.0 {
                continue;
            }
            for i in 0..a.rows() {
                let v = c.get(i, j) + a.get(i, k) * bkj;
                c.set(i, j, v);
            }
        }
    }
    c
}

/// Elementwise `A - B`.
pub fn sub(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "sub shape mismatch"
    );
    DenseMatrix::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) - b.get(i, j))
}

/// Elementwise `A + B`.
pub fn add(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "add shape mismatch"
    );
    DenseMatrix::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) + b.get(i, j))
}

/// Scalar multiple `alpha · A`.
pub fn scale(alpha: f64, a: &DenseMatrix) -> DenseMatrix {
    DenseMatrix::from_fn(a.rows(), a.cols(), |i, j| alpha * a.get(i, j))
}

/// Apply a row permutation given as an explicit vector `p` (row `i` of the
/// result is row `p[i]` of `a`).
pub(crate) fn permute_rows(a: &DenseMatrix, p: &[usize]) -> DenseMatrix {
    assert_eq!(p.len(), a.rows(), "permutation length mismatch");
    DenseMatrix::from_fn(a.rows(), a.cols(), |i, j| a.get(p[i], j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn matmul_identity() {
        let a = gen::uniform(4, 6, 1);
        let i4 = DenseMatrix::identity(4);
        let i6 = DenseMatrix::identity(6);
        assert!(matmul(&i4, &a).approx_eq(&a, 1e-15));
        assert!(matmul(&a, &i6).approx_eq(&a, 1e-15));
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = matmul(&a, &b);
        let want = DenseMatrix::from_rows(2, 2, &[19.0, 22.0, 43.0, 50.0]).unwrap();
        assert!(c.approx_eq(&want, 1e-14));
    }

    #[test]
    fn matmul_is_associative_on_small_random() {
        let a = gen::uniform(3, 4, 2);
        let b = gen::uniform(4, 5, 3);
        let c = gen::uniform(5, 2, 4);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.approx_eq(&right, 1e-12));
    }

    #[test]
    fn add_sub_scale() {
        let a = gen::uniform(3, 3, 5);
        let b = gen::uniform(3, 3, 6);
        assert!(sub(&add(&a, &b), &b).approx_eq(&a, 1e-14));
        assert!(scale(2.0, &a).approx_eq(&add(&a, &a), 1e-14));
        assert!(scale(0.0, &a).approx_eq(&DenseMatrix::zeros(3, 3), 0.0));
    }

    #[test]
    fn permute_rows_reverses() {
        let a = DenseMatrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let p = permute_rows(&a, &[2, 1, 0]);
        assert_eq!(p.get(0, 0), 5.0);
        assert_eq!(p.get(2, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_checked() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        matmul(&a, &b);
    }
}
