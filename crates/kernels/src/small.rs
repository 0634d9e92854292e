//! BLAS-1 helpers shared by the larger kernels.

/// Index of the element with largest absolute value in `x` (first on
/// ties). NaN is treated as larger than everything — the first NaN wins
/// — matching LAPACK's pivot-search convention, so a NaN in a pivot
/// column surfaces as the pivot (and poisons the factorization visibly)
/// instead of silently losing every `>` comparison and letting a garbage
/// pivot through. Panics on an empty slice.
#[inline]
pub fn idamax(x: &[f64]) -> usize {
    assert!(!x.is_empty(), "idamax of empty vector");
    let mut best = 0;
    let mut bv = x[0].abs();
    if bv.is_nan() {
        return 0;
    }
    for (i, &v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a.is_nan() {
            return i;
        }
        if a > bv {
            bv = a;
            best = i;
        }
    }
    best
}

/// `y ← y + alpha·x` over equal-length slices.
#[inline]
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idamax_finds_largest_abs() {
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), 1);
        assert_eq!(idamax(&[2.0]), 0);
        // first index wins ties
        assert_eq!(idamax(&[-4.0, 4.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn idamax_empty_panics() {
        idamax(&[]);
    }

    #[test]
    fn idamax_treats_nan_as_largest() {
        // regression: NaN never wins `a > bv`, so the old code silently
        // selected a garbage pivot; LAPACK-consistent behavior is that
        // the first NaN wins the search
        assert_eq!(idamax(&[1.0, f64::NAN, 5.0]), 1);
        assert_eq!(idamax(&[f64::NAN, 9.0]), 0);
        assert_eq!(idamax(&[2.0, f64::NAN, f64::NAN]), 1, "first NaN wins");
        assert_eq!(idamax(&[-3.0, f64::NEG_INFINITY]), 1, "inf is just large");
    }

    #[test]
    fn daxpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        daxpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }
}
