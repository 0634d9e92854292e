//! Symmetric rank-k update — the Cholesky diagonal-tile update kernel.
//!
//! Task **S** of the tiled Cholesky updates a diagonal tile as
//! `A_ii ← A_ii − L_ik·L_ikᵀ`, which only needs the lower triangle:
//! [`dsyrk_ln_packed`] computes `C ← α·A·Aᵀ + β·C` writing the lower triangle
//! of `C` (diagonal included) and never touching the strictly-upper
//! part. The rectangle below each diagonal block runs through the
//! packed NT GEMM ([`crate::gemm::dgemm_nt_packed`]); the `SYRK_NB`-wide
//! diagonal triangles run through a register-blocked core that keeps the
//! scalar dot product's `0.0` start and `l = 0..k` order, hence its bits.

use crate::gemm::dgemm_nt_raw_packed;
use crate::pack::GemmScratch;
use crate::small::load;

/// Column-block width of the blocked SYRK: each diagonal triangle this
/// wide is computed by the dot-product core, everything below it by GEMM.
const SYRK_NB: usize = 32;

/// `C ← α·A·Aᵀ + β·C` on the **lower** triangle of `C` (diagonal
/// included; the strictly-upper part is neither read nor written).
/// `A` is `n×k`, `C` is `n×n`, both column-major with leading dimensions
/// `lda`, `ldc`.
///
/// `β = 0` overwrites the lower triangle without reading it.
#[allow(clippy::too_many_arguments)]
pub fn dsyrk_ln_packed(
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if n == 0 {
        return;
    }
    assert!(lda >= n && ldc >= n, "leading dimension too small");
    assert!(k == 0 || a.len() >= (k - 1) * lda + n, "a slice too short");
    assert!(c.len() >= (n - 1) * ldc + n, "c slice too short");
    // SAFETY: spans validated above; c is an exclusive borrow disjoint
    // from a.
    unsafe {
        syrk_ln_core(
            n,
            k,
            alpha,
            a.as_ptr(),
            lda,
            beta,
            c.as_mut_ptr(),
            ldc,
            scratch,
        )
    }
}

/// Raw-pointer variant of [`dsyrk_ln_packed`] for callers whose blocks
/// alias a single shared buffer (the parallel executor's tiles). Never
/// forms slices over the operands.
///
/// # Safety
///
/// `a` must be valid for the `n×k` span, `c` for the `n×n` span; `c`
/// must not overlap `a` element-wise, and the caller must have exclusive
/// access to `c`'s lower triangle.
#[allow(clippy::too_many_arguments)]
pub unsafe fn dsyrk_ln_raw_packed(
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if n == 0 {
        return;
    }
    assert!(lda >= n && ldc >= n, "leading dimension too small");
    syrk_ln_core(n, k, alpha, a, lda, beta, c, ldc, scratch);
}

/// The blocked driver: [`triangle_core`] on each [`SYRK_NB`]-wide
/// diagonal triangle, packed NT GEMM for the rectangle below it. The dot
/// products accumulate in a fixed `l = 0..k` order, so the result is a
/// pure function of the inputs — the determinism the parallel executor's
/// bitwise-reproducibility contract relies on.
///
/// # Safety
///
/// See [`dsyrk_ln_raw_packed`].
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn syrk_ln_core(
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    let mut j0 = 0;
    while j0 < n {
        let jb = SYRK_NB.min(n - j0);
        let (a0, c00) = (a.add(j0), c.add(j0 * ldc + j0));
        triangle_core(jb, k, alpha, a0, lda, beta, c00, ldc);
        // rectangle below: C[j0+jb.., j0..j0+jb] += α·A[j0+jb..,:]·A[j0..j0+jb,:]ᵀ
        if j0 + jb < n {
            dgemm_nt_raw_packed(
                n - j0 - jb,
                jb,
                k,
                alpha,
                a.add(j0 + jb),
                lda,
                a.add(j0),
                lda,
                beta,
                c.add(j0 * ldc + j0 + jb),
                ldc,
                scratch,
            );
        }
        j0 += jb;
    }
}

/// The lower triangle of `C ← α·A·Aᵀ + β·C` for an `n×n` block, `A`
/// `n×k`: output columns two at a time, in 8-row strips that start at
/// the 8-aligned row at or above the pair's diagonal, then single rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn triangle_body(
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    for j in (0..n).step_by(2) {
        let mut i = j - j % 8;
        while i + 8 <= n {
            i += triangle_strip::<8>(n, i, j, k, alpha, a, lda, beta, c, ldc);
        }
        while i < n {
            i += triangle_strip::<1>(n, i, j, k, alpha, a, lda, beta, c, ldc);
        }
    }
}

baseline_and_avx2! {
    /// Register-blocked diagonal triangle of [`syrk_ln_core`], compiled
    /// at baseline and under AVX2 (never FMA). It goes through raw
    /// pointers to strips of single columns, never slices, and reads or
    /// writes nothing above the diagonal of `c`.
    ///
    /// # Safety
    ///
    /// As [`dsyrk_ln_raw_packed`].
    unsafe fn triangle_core, triangle_avx2 = triangle_body(
        n: usize, k: usize, alpha: f64, a: *const f64, lda: usize, beta: f64, c: *mut f64,
        ldc: usize,
    );
}

/// Rows `i..i+R` of output columns `j` and `j+1` (just `j` when it is the
/// last): `s = 0.0 + Σ_l a_il·a_jl` in `l` order, then `c ← old + α·s`
/// with `old = β·c` (`0.0` when `β = 0`), stored only on or below the
/// diagonal. Returns `R`, the rows done.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn triangle_strip<const R: usize>(
    n: usize,
    i: usize,
    j: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) -> usize {
    let cols = [j, (j + 1).min(n - 1)];
    let mut s = [[0.0; R]; 2];
    for l in 0..k {
        let al = a.add(l * lda);
        let x = load::<R>(al.add(i));
        for (sq, &jq) in s.iter_mut().zip(&cols) {
            let ajl = *al.add(jq);
            for (sr, &xr) in sq.iter_mut().zip(&x) {
                *sr += xr * ajl;
            }
        }
    }
    for (q, sq) in s.iter().enumerate().take(n - j) {
        let cj = c.add((j + q) * ldc);
        for (r, &sr) in sq.iter().enumerate() {
            if i + r >= j + q {
                let cp = cj.add(i + r);
                let old = if beta == 0.0 { 0.0 } else { beta * *cp };
                *cp = old + alpha * sr;
            }
        }
    }
    R
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{assert_same_bits, padded, plant, sweep_sizes, too_big_for_miri, PLANTS};
    use calu_matrix::{gen, DenseMatrix};

    /// The scalar loop the diagonal triangle ran before [`triangle_core`],
    /// kept as its oracle: one dot product per element of the lower
    /// triangle, `l = 0..k` in order from `0.0`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn triangle_oracle(
        n: usize,
        k: usize,
        alpha: f64,
        a: *const f64,
        lda: usize,
        beta: f64,
        c: *mut f64,
        ldc: usize,
    ) {
        for jj in 0..n {
            for i in jj..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += *a.add(l * lda + i) * *a.add(l * lda + jj);
                }
                let cp = c.add(jj * ldc + i);
                let old = if beta == 0.0 { 0.0 } else { beta * *cp };
                *cp = old + alpha * s;
            }
        }
    }

    type TriangleBody = unsafe fn(usize, usize, f64, *const f64, usize, f64, *mut f64, usize);

    /// The triangle core's two bodies by name, not through its dispatch:
    /// the baseline one, and the AVX2 one where this host has AVX2.
    fn triangle_bodies() -> Vec<(&'static str, TriangleBody)> {
        let mut v: Vec<(&'static str, TriangleBody)> = vec![("baseline", triangle_body)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(("avx2", triangle_avx2));
        }
        v
    }

    #[test]
    fn triangle_core_matches_oracle_bitwise() {
        // k = 0 (β scaling alone), short and long dot products; β = 0
        // must not read C, which the plants fill with NaN and ±Inf
        let depths = [0, 1, 2, 7, 33, 70];
        for n in sweep_sizes() {
            for (d, &k) in depths.iter().enumerate() {
                if too_big_for_miri(n, n, k) {
                    continue;
                }
                for (p, &(values, every)) in PLANTS.iter().enumerate() {
                    let seed = (n * 7 + d) as u64;
                    let mut a = gen::uniform(n, k, seed);
                    plant(&mut a, values, every, seed);
                    let mut c = gen::uniform(n, n, seed + 1);
                    plant(&mut c, values, every, seed + 1);
                    let ((a, lda), (c0, ldc)) = (padded(&a), padded(&c));
                    for (alpha, beta) in [(-1.0, 1.0), (2.0, 0.0), (0.5, -0.25)] {
                        let mut want = c0.clone();
                        // SAFETY: both buffers hold their padded spans and
                        // are distinct.
                        unsafe {
                            triangle_oracle(
                                n,
                                k,
                                alpha,
                                a.as_ptr(),
                                lda,
                                beta,
                                want.as_mut_ptr(),
                                ldc,
                            )
                        };
                        for (name, body) in triangle_bodies() {
                            let mut got = c0.clone();
                            // SAFETY: as above; the AVX2 body is listed only
                            // where detected.
                            unsafe {
                                body(n, k, alpha, a.as_ptr(), lda, beta, got.as_mut_ptr(), ldc)
                            };
                            let what = format!("{name} ({n},{k}) α {alpha} β {beta} plant {p}");
                            assert_same_bits(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    /// dense reference: lower triangle of α·A·Aᵀ + β·C
    fn syrk_ref(alpha: f64, a: &DenseMatrix, beta: f64, c: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let k = a.cols();
        DenseMatrix::from_fn(n, n, |i, j| {
            if i < j {
                c.get(i, j)
            } else {
                let dot: f64 = (0..k).map(|l| a.get(i, l) * a.get(j, l)).sum();
                beta * c.get(i, j) + alpha * dot
            }
        })
    }

    #[test]
    fn matches_reference_across_block_edges() {
        for (n, k, seed) in [
            (1, 1, 1),
            (5, 3, 2),
            (SYRK_NB - 1, 7, 3),
            (SYRK_NB, SYRK_NB, 4),
            (SYRK_NB + 1, 5, 5),
            (2 * SYRK_NB + 9, 17, 6),
        ] {
            if too_big_for_miri(n, n, k) {
                continue;
            }
            let a = gen::uniform(n, k, seed);
            let c = gen::uniform(n, n, seed + 50);
            for (alpha, beta) in [(1.0, 1.0), (-1.0, 1.0), (2.0, 0.0)] {
                let mut got = c.clone();
                let ld = got.ld();
                dsyrk_ln_packed(
                    n,
                    k,
                    alpha,
                    a.as_slice(),
                    a.ld(),
                    beta,
                    got.as_mut_slice(),
                    ld,
                    &mut GemmScratch::new(),
                );
                let want = syrk_ref(alpha, &a, beta, &c);
                assert!(
                    got.approx_eq(&want, 1e-11 * (k as f64).max(1.0)),
                    "shape ({n},{k}) alpha {alpha} beta {beta}"
                );
            }
        }
    }

    #[test]
    fn upper_triangle_is_never_touched() {
        let n = SYRK_NB + 6;
        let a = gen::uniform(n, 9, 7);
        let mut c = gen::uniform(n, n, 8);
        // poison the strictly-upper part: it must come through untouched
        for i in 0..n {
            for j in (i + 1)..n {
                c.set(i, j, f64::NAN);
            }
        }
        let ld = c.ld();
        dsyrk_ln_packed(
            n,
            9,
            -1.0,
            a.as_slice(),
            a.ld(),
            1.0,
            c.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        for i in 0..n {
            for j in 0..n {
                if i < j {
                    assert!(c.get(i, j).is_nan(), "upper ({i},{j}) was written");
                } else {
                    assert!(c.get(i, j).is_finite(), "lower ({i},{j}) read the upper");
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_lower() {
        let n = SYRK_NB + 2;
        let a = gen::uniform(n, 4, 9);
        let mut c = DenseMatrix::from_fn(n, n, |_, _| f64::NAN);
        let ld = c.ld();
        dsyrk_ln_packed(
            n,
            4,
            1.0,
            a.as_slice(),
            a.ld(),
            0.0,
            c.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        for i in 0..n {
            for j in 0..=i {
                assert!(c.get(i, j).is_finite(), "lower ({i},{j})");
            }
        }
    }

    #[test]
    fn k_zero_scales_lower_only() {
        let n = 6;
        let c0 = gen::uniform(n, n, 10);
        let mut c = c0.clone();
        let ld = c.ld();
        dsyrk_ln_packed(
            n,
            0,
            1.0,
            &[],
            n,
            0.5,
            c.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        for i in 0..n {
            for j in 0..n {
                let want = if i >= j {
                    0.5 * c0.get(i, j)
                } else {
                    c0.get(i, j)
                };
                assert_eq!(c.get(i, j), want, "({i},{j})");
            }
        }
    }
}
