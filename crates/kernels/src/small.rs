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

/// [`daxpy`]'s arithmetic, a multiply then an add, on a register strip.
#[inline(always)]
pub(crate) fn axpy<const R: usize>(alpha: f64, x: &[f64; R], y: &mut [f64; R]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Copy the `R` elements at `p` into a register strip.
///
/// # Safety
/// `p` must be valid for reading `R` elements.
#[inline(always)]
pub(crate) unsafe fn load<const R: usize>(p: *const f64) -> [f64; R] {
    p.cast::<[f64; R]>().read()
}

/// Write a register strip to the `R` elements at `p`.
///
/// # Safety
/// `p` must be valid for writing `R` elements, held exclusively.
#[inline(always)]
pub(crate) unsafe fn store<const R: usize>(p: *mut f64, v: [f64; R]) {
    p.cast::<[f64; R]>().write(v)
}

/// Define `$name`, which runs the `#[inline(always)]` kernel `$body`
/// compiled twice, as the GEMM is: at the build's baseline ISA (`$body`
/// called directly) and, on x86-64, under `#[target_feature(enable =
/// "avx2")]` (`$avx2`). `$name` tests the CPU on every call and enters
/// one of them. AVX2 only, never `fma`: each step keeps its separate
/// multiply and add, so both bodies round alike and give the same bits.
macro_rules! baseline_and_avx2 {
    ($(#[$doc:meta])* unsafe fn $name:ident, $avx2:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?);) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the required CPU feature was just detected.
                return $avx2($($arg),*);
            }
            $body($($arg),*)
        }

        /// # Safety
        /// The CPU must support `avx2`; otherwise as the body.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }
    };
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
