//! The `MR × NR` register-tiled micro-kernel at the bottom of the
//! blocked GEMM.
//!
//! [`micro_tile`] multiplies one packed A row panel by one packed B
//! column panel, accumulating into an `MR × NR` tile held in a local
//! array. The loops over the tile are fully unrolled at compile time
//! (`MR`/`NR` are constants), so the accumulator lives in vector
//! registers and the `k` loop auto-vectorizes — no intrinsics, no
//! `unsafe`.
//!
//! [`store_tile`] then merges the accumulator into `C` with the
//! `α·acc + β·C` policy. The GEMM driver passes the caller's `β` only
//! for the **first** `KC` block of the `k` loop and `1.0` afterwards,
//! which folds the old separate β-scaling pass over `C` into the first
//! real visit of each tile.
//!
//! Both are `#[inline(always)]` and carry no ISA of their own: the GEMM
//! driver ([`crate::gemm`]) dispatches once per call and inlines them
//! into a body compiled for the ISA it picked, so the accumulator goes
//! from the `k` loop to the store without leaving the registers.

use crate::gemm::{MR, NR};

/// `acc[j·MR + i] = Σ_l a[l·MR + i] · b[l·NR + j]` over `kc` steps of
/// packed panels (see [`crate::pack`] for the layouts), summed in `l`
/// order. The panels must hold at least `kc·MR` / `kc·NR` elements.
///
/// With `FMA` each step is one fused `mul_add` (one rounding); without,
/// a multiply and an add (two). rustc never contracts `acc += a * b` on
/// its own, so the fused form has to be asked for — and only a caller
/// compiled with the `fma` target feature may ask: elsewhere `mul_add`
/// is a libm call.
#[inline(always)]
pub fn micro_tile<const FMA: bool>(kc: usize, a: &[f64], b: &[f64]) -> [f64; MR * NR] {
    // the accumulator is a by-value local, so the optimizer needs no
    // aliasing proof to keep the whole tile in vector registers
    let mut acc = [0.0; MR * NR];
    // chunks_exact pushes the bounds checks out of the k loop
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        for j in 0..NR {
            let blj = bp[j];
            for i in 0..MR {
                let c = &mut acc[j * MR + i];
                *c = if FMA {
                    ap[i].mul_add(blj, *c)
                } else {
                    *c + ap[i] * blj
                };
            }
        }
    }
    acc
}

/// Merge the `mr × nr` live corner of an accumulator tile into `C`:
/// `C ← α·acc + β·C` (β = 0 overwrites without reading `C`, so garbage
/// or NaN in fresh output buffers never propagates).
///
/// # Safety
///
/// `c` must be valid for reads and writes over the `mr × nr` block with
/// leading dimension `ldc`, and the caller must have exclusive access
/// to it.
#[inline(always)]
pub unsafe fn store_tile(
    acc: &[f64; MR * NR],
    alpha: f64,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    debug_assert!(mr <= MR && nr <= NR);
    for j in 0..nr {
        let cj = c.add(j * ldc);
        if beta == 0.0 {
            for i in 0..mr {
                *cj.add(i) = alpha * acc[j * MR + i];
            }
        } else if beta == 1.0 {
            for i in 0..mr {
                *cj.add(i) += alpha * acc[j * MR + i];
            }
        } else {
            for i in 0..mr {
                *cj.add(i) = beta * *cj.add(i) + alpha * acc[j * MR + i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_tile_matches_scalar_reference() {
        let kc = 5;
        let a: Vec<f64> = (0..kc * MR).map(|x| (x as f64).sin()).collect();
        let b: Vec<f64> = (0..kc * NR).map(|x| (x as f64).cos()).collect();
        let acc = micro_tile::<false>(kc, &a, &b);
        for j in 0..NR {
            for i in 0..MR {
                let want: f64 = (0..kc).map(|l| a[l * MR + i] * b[l * NR + j]).sum();
                assert!((acc[j * MR + i] - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn store_tile_beta_policies() {
        let acc = {
            let mut t = [0.0; MR * NR];
            for (x, v) in t.iter_mut().enumerate() {
                *v = x as f64;
            }
            t
        };
        let ldc = MR + 2;
        // beta = 0 overwrites even NaN
        let mut c = vec![f64::NAN; ldc * NR];
        unsafe { store_tile(&acc, 2.0, 0.0, c.as_mut_ptr(), ldc, MR, NR) };
        assert_eq!(c[0], 0.0);
        assert_eq!(c[ldc], 2.0 * acc[MR]);
        // beta = 1 accumulates
        let mut c = vec![1.0; ldc * NR];
        unsafe { store_tile(&acc, 1.0, 1.0, c.as_mut_ptr(), ldc, MR, NR) };
        assert_eq!(c[1], 1.0 + acc[1]);
        // general beta scales
        let mut c = vec![2.0; ldc * NR];
        unsafe { store_tile(&acc, 1.0, 0.5, c.as_mut_ptr(), ldc, MR, NR) };
        assert_eq!(c[0], 1.0 + acc[0]);
        // partial corner leaves the rest untouched
        let mut c = vec![7.0; ldc * NR];
        unsafe { store_tile(&acc, 1.0, 0.0, c.as_mut_ptr(), ldc, 2, 1) };
        assert_eq!(c[2], 7.0, "row beyond mr untouched");
        assert_eq!(c[ldc], 7.0, "column beyond nr untouched");
    }
}
