//! General matrix multiply `C ← α·A·B + β·C` on column-major sub-blocks.
//!
//! This is the kernel behind task **S** (trailing-matrix update), which
//! dominates the flops of the factorization (§2). The implementation is
//! the GotoBLAS/BLIS three-level blocked algorithm: `A` and `B` are
//! copied into contiguous packed panels once per cache block
//! (the private `pack` module) and multiplied by an `MR × NR`
//! register-tiled micro-kernel (`microkernel`), with the caller's `β` folded
//! into the first `KC` block of the `k` loop instead of a separate
//! scaling pass over `C`.
//!
//! ## Blocking parameters
//!
//! | Constant | Value | Role |
//! |----------|-------|------|
//! | [`MR`]   | 8     | rows of the register tile: one packed-A panel feeds `MR` accumulator rows |
//! | [`NR`]   | 4     | columns of the register tile: one packed-B panel feeds `NR` accumulator columns |
//! | [`MC`]   | 128   | rows of the packed A block (`MC × KC` ≈ 256 KiB, sized for L2) |
//! | [`KC`]   | 256   | depth of one pack-and-multiply pass (`KC × NR` B panel ≈ 8 KiB, hot in L1) |
//! | [`NC`]   | 2048  | columns of the packed B block (`KC × NC` ≈ 4 MiB, sized for L3) |
//!
//! ## One ISA per call
//!
//! The five loops are written once (`core_body::<FMA, NT>`; `NT` is the
//! `A·Bᵀ` product) and compiled twice: at the build's baseline ISA and,
//! on x86-64, under `#[target_feature(enable = "avx2,fma")]`. Each
//! public entry point tests the CPU **once per GEMM call** and enters
//! one of the two; packing, the micro-tile and the store are
//! `#[inline(always)]` into it, so all of them run at the chosen ISA and
//! the accumulator never passes through memory between the `k` loop and
//! `C`. The FMA body asks for `f64::mul_add` explicitly — rustc never
//! contracts `acc += a * b` — so each step rounds once there and twice
//! at baseline: the summation order is the same, the last bits are not.
//! Results are therefore bitwise-reproducible **per host ISA**, not
//! between an FMA host and a non-FMA one.
//!
//! The simulator's kernel-efficiency table
//! (`calu_sim::cost::kernel_eff`) was calibrated against the kernel as
//! it was *before* the fused body (0.65–0.8 of today's rate, by tile
//! size) and is deliberately left alone: it feeds every modelled figure
//! and table, whose bytes must hold. Re-tune it only together with them.
//!
//! The seed `j-k-i` AXPY kernel is kept as [`dgemm_jki`] — the parity
//! oracle for tests and the speedup baseline for the `kernels` bench.

use crate::microkernel::{micro_tile, store_tile};
use crate::pack::{pack_a, pack_b, pack_b_trans, GemmScratch};
use crate::small::daxpy;

/// Rows of the register tile (micro-kernel height).
pub const MR: usize = 8;
/// Columns of the register tile (micro-kernel width).
pub const NR: usize = 4;
/// Rows of one packed `A` cache block; a multiple of [`MR`].
pub const MC: usize = 128;
/// Depth of one packed block pair (the `k`-blocking).
pub const KC: usize = 256;
/// Columns of one packed `B` cache block; a multiple of [`NR`].
pub const NC: usize = 2048;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// `C ← α·A·B + β·C` with `A: m×k`, `B: k×n`, `C: m×n`, all column-major
/// with leading dimensions `lda/ldb/ldc` (slices start at each block's
/// `(0,0)` element). Packing buffers come from `scratch`, so a caller
/// that reuses one arena across calls (the threaded executor's
/// per-worker scratch) performs no heap allocation here.
///
/// Panics if a leading dimension is smaller than the block height or if a
/// slice is too short for the addressed span.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(k == 0 || ldb >= k, "ldb too small");
    assert!(a.len() >= span(m, k, lda), "a slice too short");
    assert!(b.len() >= span(k, n, ldb), "b slice too short");
    assert!(c.len() >= span(m, n, ldc), "c slice too short");
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: dimensions checked against the slice lengths above; the
    // borrow rules guarantee c is exclusive and disjoint from a and b.
    unsafe { gemm_dispatch::<false>(m, n, k, alpha, pa, lda, pb, ldb, beta, pc, ldc, scratch) }
}

/// Raw-pointer variant of [`dgemm_packed`] for callers (the parallel
/// executor, the in-place factorizations) whose blocks alias a single
/// shared buffer. Never forms slices over the operands, so
/// element-disjoint but span-overlapping blocks are fine.
///
/// # Safety
///
/// The three blocks must be valid for the spans they address
/// (`(cols−1)·ld + rows` elements each), `c` must not overlap `a` or `b`
/// element-wise, and the caller must guarantee exclusive access to `c`
/// for the duration of the call.
#[allow(clippy::too_many_arguments)]
pub unsafe fn dgemm_raw_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(k == 0 || ldb >= k, "ldb too small");
    gemm_dispatch::<false>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, scratch);
}

/// One GEMM call past validation: the degenerate cases, then **one**
/// ISA dispatch for the whole product. `NT` selects the `A·Bᵀ` variant
/// (`B` stored `n×k`).
///
/// # Safety
///
/// See [`dgemm_raw_packed`] / [`dgemm_nt_raw_packed`].
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_dispatch<const NT: bool>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if k == 0 || alpha == 0.0 {
        scale_c(beta, c, ldc, m, n);
        return;
    }
    scratch.reserve(m, n, k);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the required CPU features were just detected.
        return core_avx2fma::<NT>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, scratch);
    }
    core_body::<false, NT>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, scratch)
}

/// [`core_body`] compiled with AVX2 + FMA enabled, fused multiply–adds
/// switched on: packing, the register tile and the store all inline
/// into this one function, so they share its ISA.
///
/// # Safety
///
/// The CPU must support the `avx2` and `fma` target features; otherwise
/// as [`core_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn core_avx2fma<const NT: bool>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    core_body::<true, NT>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, scratch)
}

/// The five-loop blocked driver, generic over the ISA it is inlined
/// into (`FMA`: fused multiply–adds in the micro-kernel) and over the
/// product (`NT`: the `(pc, jc)` block of `Bᵀ` is located in the stored
/// `B` at `b + pc·ldb + jc` and packed through [`pack_b_trans`]).
/// `k > 0`, and `scratch` already covers the call.
///
/// # Safety
///
/// See [`dgemm_raw_packed`] / [`dgemm_nt_raw_packed`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn core_body<const FMA: bool, const NT: bool>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            // β is applied on each tile's first visit (pc == 0) and the
            // later k blocks accumulate — the old standalone β pass
            // folded into the first real traversal of C
            let beta_eff = if pc == 0 { beta } else { 1.0 };
            if NT {
                pack_b_trans(kc, nc, b.add(pc * ldb + jc), ldb, &mut scratch.b_pack);
            } else {
                pack_b(kc, nc, b.add(jc * ldb + pc), ldb, &mut scratch.b_pack);
            }
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(mc, kc, a.add(pc * lda + ic), lda, &mut scratch.a_pack);
                let mut jr = 0;
                while jr < nc {
                    let nr = NR.min(nc - jr);
                    let bp = &scratch.b_pack[jr * kc..jr * kc + kc * NR];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let ap = &scratch.a_pack[ir * kc..ir * kc + kc * MR];
                        let acc = micro_tile::<FMA>(kc, ap, bp);
                        store_tile(
                            &acc,
                            alpha,
                            beta_eff,
                            c.add((jc + jr) * ldc + ic + ir),
                            ldc,
                            mr,
                            nr,
                        );
                        ir += MR;
                    }
                    jr += NR;
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// `C ← α·A·Bᵀ + β·C` with `A: m×k`, `B` **stored** `n×k` (so `Bᵀ` is
/// `k×n`), `C: m×n`, all column-major with leading dimensions
/// `lda/ldb/ldc`. The transpose is absorbed in the packing stage
/// (`pack_b_trans`); blocking and the micro-kernel are identical to
/// [`dgemm_packed`]. This is the kernel behind the Cholesky trailing
/// update `A_ij ← A_ij − L_ik·L_jkᵀ` and the rectangle of SYRK.
///
/// Panics if a leading dimension is smaller than its block height
/// (`lda ≥ m`, `ldb ≥ n`, `ldc ≥ m`) or a slice is too short for the
/// addressed span.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_nt_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(ldb >= n, "ldb too small");
    assert!(a.len() >= span(m, k, lda), "a slice too short");
    assert!(b.len() >= span(n, k, ldb), "b slice too short");
    assert!(c.len() >= span(m, n, ldc), "c slice too short");
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: dimensions checked against the slice lengths above; the
    // borrow rules guarantee c is exclusive and disjoint from a and b.
    unsafe { gemm_dispatch::<true>(m, n, k, alpha, pa, lda, pb, ldb, beta, pc, ldc, scratch) }
}

/// Raw-pointer variant of [`dgemm_nt_packed`] for callers whose blocks
/// alias a single shared buffer (the parallel executor's tiles). Never
/// forms slices over the operands.
///
/// # Safety
///
/// `a` must be valid for the `m×k` span, `b` for the *stored* `n×k`
/// span, `c` for the `m×n` span; `c` must not overlap `a` or `b`
/// element-wise, and the caller must have exclusive access to `c`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn dgemm_nt_raw_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(ldb >= n, "ldb too small");
    gemm_dispatch::<true>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, scratch);
}

/// `C ← β·C` for the degenerate `k = 0` / `α = 0` cases (β = 0
/// overwrites without reading).
///
/// # Safety
///
/// `c` must be valid for the `m × n` span with leading dimension `ldc`.
unsafe fn scale_c(beta: f64, c: *mut f64, ldc: usize, m: usize, n: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let cj = c.add(j * ldc);
        if beta == 0.0 {
            for i in 0..m {
                *cj.add(i) = 0.0;
            }
        } else {
            for i in 0..m {
                *cj.add(i) *= beta;
            }
        }
    }
}

/// Panel width of the k-blocking in [`dgemm_jki`].
const JKI_KC: usize = 128;

/// The seed kernel: a cache-blocked `j-k-i` loop whose inner loop is a
/// contiguous AXPY over a column of `A` and a column of `C`. Kept as the
/// parity oracle for the packed kernel's tests and the speedup baseline
/// reported by the `kernels` bench; not used by the factorizations.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_jki(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(k == 0 || ldb >= k, "ldb too small");
    assert!(a.len() >= span(m, k, lda), "a slice too short");
    assert!(b.len() >= span(k, n, ldb), "b slice too short");
    assert!(c.len() >= span(m, n, ldc), "c slice too short");

    if beta != 1.0 {
        for j in 0..n {
            let col = &mut c[j * ldc..j * ldc + m];
            if beta == 0.0 {
                col.fill(0.0);
            } else {
                for v in col {
                    *v *= beta;
                }
            }
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }
    let mut l0 = 0;
    while l0 < k {
        let lb = JKI_KC.min(k - l0);
        for j in 0..n {
            let (c_lo, c_hi) = (j * ldc, j * ldc + m);
            for l in l0..l0 + lb {
                let blj = alpha * b[l + j * ldb];
                if blj == 0.0 {
                    continue;
                }
                let a_col = &a[l * lda..l * lda + m];
                let c_col = &mut c[c_lo..c_hi];
                daxpy(blj, a_col, c_col);
            }
        }
        l0 += lb;
    }
}

/// Elements spanned by an `r × c` block with leading dimension `ld`.
#[inline]
fn span(r: usize, c: usize, ld: usize) -> usize {
    if r == 0 || c == 0 {
        0
    } else {
        (c - 1) * ld + r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::too_big_for_miri;
    use calu_matrix::{gen, ops, DenseMatrix};

    /// `C ← α·op(A)·op(B) + β·C` through one named body, bypassing the
    /// runtime dispatch — so the baseline body stays under test on an
    /// FMA host. `None` when this host cannot run the FMA body. `b` is
    /// stored `n×k` when `nt`.
    fn run_body(
        fma: bool,
        nt: bool,
        alpha: f64,
        a: &DenseMatrix,
        b: &DenseMatrix,
        beta: f64,
        c: &DenseMatrix,
    ) -> Option<DenseMatrix> {
        let (m, k) = (a.rows(), a.cols());
        let n = if nt { b.rows() } else { b.cols() };
        let mut out = c.clone();
        let mut s = GemmScratch::sized_for(m, n, k);
        let (pa, pb, pc) = (
            a.as_slice().as_ptr(),
            b.as_slice().as_ptr(),
            out.as_mut_slice().as_mut_ptr(),
        );
        let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
        // SAFETY: the three matrices are whole, distinct and sized for
        // the product; the FMA body runs only where detected.
        unsafe {
            match (fma, nt) {
                (false, false) => core_body::<false, false>(
                    m, n, k, alpha, pa, lda, pb, ldb, beta, pc, ldc, &mut s,
                ),
                (false, true) => core_body::<false, true>(
                    m, n, k, alpha, pa, lda, pb, ldb, beta, pc, ldc, &mut s,
                ),
                #[cfg(target_arch = "x86_64")]
                (true, _)
                    if std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma") =>
                {
                    if nt {
                        core_avx2fma::<true>(
                            m, n, k, alpha, pa, lda, pb, ldb, beta, pc, ldc, &mut s,
                        )
                    } else {
                        core_avx2fma::<false>(
                            m, n, k, alpha, pa, lda, pb, ldb, beta, pc, ldc, &mut s,
                        )
                    }
                }
                (true, _) => return None,
            }
        }
        Some(out)
    }

    #[test]
    fn both_bodies_match_jki_nn_and_nt_over_beta_and_edge_tiles() {
        for (m, n, k, seed) in [
            (MR - 1, NR - 1, 7, 1),
            (MR + 1, NR + 1, 5, 2),
            (3 * MR + 5, 2 * NR + 3, 9, 3),
            (MC + MR + 2, NR, 33, 4),
            (2 * MR, NR + 1, KC + 9, 5),
        ] {
            if too_big_for_miri(m, n, k) {
                continue;
            }
            let a = gen::uniform(m, k, seed);
            let b = gen::uniform(k, n, seed + 10);
            let bt = DenseMatrix::from_fn(n, k, |i, j| b.get(j, i));
            let c = gen::uniform(m, n, seed + 20);
            for beta in [0.0, 1.0, 0.5] {
                let mut want = c.clone();
                dgemm_jki(
                    m,
                    n,
                    k,
                    -1.0,
                    a.as_slice(),
                    a.ld(),
                    b.as_slice(),
                    b.ld(),
                    beta,
                    want.as_mut_slice(),
                    c.ld(),
                );
                for (fma, nt) in [(false, false), (false, true), (true, false), (true, true)] {
                    let stored = if nt { &bt } else { &b };
                    let Some(got) = run_body(fma, nt, -1.0, &a, stored, beta, &c) else {
                        continue;
                    };
                    assert!(
                        got.approx_eq(&want, 1e-11 * k as f64),
                        "({m},{n},{k}) beta {beta} fma {fma} nt {nt}"
                    );
                }
            }
        }
    }

    #[test]
    fn fma_body_fuses_and_baseline_does_not() {
        // α = 1, β = 0, k ≤ KC: C is the accumulator, bit for bit. The
        // FMA body must equal a scalar `mul_add` chain (one rounding a
        // step) and the baseline a mul-then-add chain (two) — on inputs
        // where the two chains differ, so a body that silently compiled
        // to the other form fails here.
        let (m, n, k) = (2 * MR + 3, NR + 2, 24);
        let a = gen::uniform(m, k, 31);
        let b = gen::uniform(k, n, 32);
        let zero = DenseMatrix::zeros(m, n);
        let chain = |fused: bool| {
            DenseMatrix::from_fn(m, n, |i, j| {
                (0..k).fold(0.0f64, |acc, l| {
                    if fused {
                        a.get(i, l).mul_add(b.get(l, j), acc)
                    } else {
                        acc + a.get(i, l) * b.get(l, j)
                    }
                })
            })
        };
        let (fused, unfused) = (chain(true), chain(false));
        assert_ne!(fused.as_slice(), unfused.as_slice(), "inputs must tell");
        let base = run_body(false, false, 1.0, &a, &b, 0.0, &zero).unwrap();
        assert_eq!(base.as_slice(), unfused.as_slice(), "baseline: mul, add");
        let Some(fma) = run_body(true, false, 1.0, &a, &b, 0.0, &zero) else {
            return; // no FMA unit on this host
        };
        assert_eq!(fma.as_slice(), fused.as_slice(), "FMA body: one rounding");
        // same summation order, so the bodies differ by rounding only:
        // 2·k·ε of the magnitude summed
        for j in 0..n {
            for i in 0..m {
                let mag: f64 = (0..k).map(|l| (a.get(i, l) * b.get(l, j)).abs()).sum();
                let tol = 2.0 * k as f64 * f64::EPSILON * mag;
                assert!((fma.get(i, j) - base.get(i, j)).abs() <= tol, "({i},{j})");
            }
        }
    }

    #[test]
    fn stacked_rows_equal_per_tile_calls_bitwise() {
        // the engine's grouped S task: one product over g stacked tiles
        // must be the g per-tile products, bit for bit — each C element
        // sums the same products in the same order whichever register
        // tile or MC block its row lands in. Last member ragged (rows
        // not a multiple of MR); g·b above MC for the larger ones.
        for b in [8usize, 16, 20, 100] {
            for g in [2usize, 3, 5] {
                let last = b - 3;
                let m = (g - 1) * b + last;
                if too_big_for_miri(m, b, b) {
                    continue;
                }
                let l = gen::uniform(m, b, (b * g) as u64);
                let u = gen::uniform(b, b, (b + g) as u64);
                let c = gen::uniform(m, b, (b * 31 + g) as u64);
                let mut scratch = GemmScratch::sized_for(m, b, b);
                let (mut stacked, mut tiled) = (c.clone(), c.clone());
                let ld = c.ld();
                // SAFETY: whole, distinct matrices; each per-tile call
                // addresses rows r0..r0+rows of the same columns.
                unsafe {
                    dgemm_raw_packed(
                        m,
                        b,
                        b,
                        -1.0,
                        l.as_slice().as_ptr(),
                        ld,
                        u.as_slice().as_ptr(),
                        b,
                        1.0,
                        stacked.as_mut_slice().as_mut_ptr(),
                        ld,
                        &mut scratch,
                    );
                    for t in 0..g {
                        let rows = if t == g - 1 { last } else { b };
                        dgemm_raw_packed(
                            rows,
                            b,
                            b,
                            -1.0,
                            l.as_slice().as_ptr().add(t * b),
                            ld,
                            u.as_slice().as_ptr(),
                            b,
                            1.0,
                            tiled.as_mut_slice().as_mut_ptr().add(t * b),
                            ld,
                            &mut scratch,
                        );
                    }
                }
                assert_eq!(stacked.as_slice(), tiled.as_slice(), "b={b} g={g}");
            }
        }
    }

    fn dgemm_dense(
        alpha: f64,
        a: &DenseMatrix,
        b: &DenseMatrix,
        beta: f64,
        c: &DenseMatrix,
    ) -> DenseMatrix {
        let mut out = c.clone();
        dgemm_packed(
            a.rows(),
            b.cols(),
            a.cols(),
            alpha,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            beta,
            out.as_mut_slice(),
            c.ld(),
            &mut GemmScratch::new(),
        );
        out
    }

    #[test]
    fn matches_reference_on_random_shapes() {
        for (m, n, k, seed) in [
            (5, 7, 3, 1),
            (16, 16, 16, 2),
            (33, 17, 129, 3),
            (1, 9, 4, 4),
            (64, 1, 200, 5),
        ] {
            let a = gen::uniform(m, k, seed);
            let b = gen::uniform(k, n, seed + 100);
            let c = gen::uniform(m, n, seed + 200);
            let got = dgemm_dense(1.0, &a, &b, 1.0, &c);
            let want = ops::add(&ops::matmul(&a, &b), &c);
            assert!(got.approx_eq(&want, 1e-11), "shape ({m},{n},{k})");
        }
    }

    #[test]
    fn matches_jki_kernel_on_awkward_shapes() {
        // every register-tile edge case: below/at/above MR and NR, plus
        // k straddling the KC boundary so the β-folding path runs
        for (m, n, k, seed) in [
            (MR - 1, NR - 1, 7, 1),
            (MR, NR, 1, 2),
            (MR + 1, NR + 1, KC, 3),
            (3 * MR + 5, 2 * NR + 3, KC + 9, 4),
            (MC + MR + 2, NR, 33, 5),
            (1, 1, KC + 1, 6),
            (2 * MC + 3, 3 * NR + 1, 2 * KC + 5, 7),
        ] {
            if too_big_for_miri(m, n, k) {
                continue;
            }
            let a = gen::uniform(m, k, seed);
            let b = gen::uniform(k, n, seed + 10);
            let c = gen::uniform(m, n, seed + 20);
            for (alpha, beta) in [(1.0, 1.0), (-1.0, 1.0), (2.0, 0.0), (0.5, -0.5)] {
                let got = dgemm_dense(alpha, &a, &b, beta, &c);
                let mut want = c.clone();
                dgemm_jki(
                    m,
                    n,
                    k,
                    alpha,
                    a.as_slice(),
                    a.ld(),
                    b.as_slice(),
                    b.ld(),
                    beta,
                    want.as_mut_slice(),
                    c.ld(),
                );
                let tol = 1e-11 * (k as f64).max(1.0);
                assert!(
                    got.approx_eq(&want, tol),
                    "shape ({m},{n},{k}) alpha {alpha} beta {beta}"
                );
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_output() {
        // β = 0 must never read C: a fresh buffer full of NaN comes out
        // clean, including with k > KC (only the first k block applies β)
        let (m, n, k) = (MR + 3, NR + 2, KC + 17);
        let a = gen::uniform(m, k, 8);
        let b = gen::uniform(k, n, 9);
        let mut c = DenseMatrix::from_fn(m, n, |_, _| f64::NAN);
        let ld = c.ld();
        dgemm_packed(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            0.0,
            c.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        let want = ops::matmul(&a, &b);
        assert!(c.approx_eq(&want, 1e-10));
    }

    #[test]
    fn packed_scratch_is_reused_without_allocation() {
        let b = if cfg!(miri) { 32 } else { 96 };
        let mut scratch = GemmScratch::sized_for(b, b, b);
        let pa = scratch.a_pack.as_ptr();
        let x = gen::uniform(b, b, 10);
        let y = gen::uniform(b, b, 11);
        let mut c = DenseMatrix::zeros(b, b);
        let ld = c.ld();
        for (m, n, k) in [(b, b, b), (17, 5, 29), (b, 1, b)] {
            dgemm_packed(
                m,
                n,
                k,
                -1.0,
                x.as_slice(),
                x.ld(),
                y.as_slice(),
                y.ld(),
                1.0,
                c.as_mut_slice(),
                ld,
                &mut scratch,
            );
        }
        assert_eq!(scratch.a_pack.as_ptr(), pa, "arena must not reallocate");
    }

    #[test]
    fn alpha_beta_combinations() {
        let a = gen::uniform(8, 6, 10);
        let b = gen::uniform(6, 5, 11);
        let c = gen::uniform(8, 5, 12);
        // beta = 0 overwrites C entirely (even NaN-free from garbage C)
        let got = dgemm_dense(2.0, &a, &b, 0.0, &c);
        let want = ops::scale(2.0, &ops::matmul(&a, &b));
        assert!(got.approx_eq(&want, 1e-12));
        // alpha = 0, beta = 2 just scales C
        let got = dgemm_dense(0.0, &a, &b, 2.0, &c);
        assert!(got.approx_eq(&ops::scale(2.0, &c), 1e-12));
        // alpha = -1, beta = 1 is the update kernel of task S
        let got = dgemm_dense(-1.0, &a, &b, 1.0, &c);
        let want = ops::sub(&c, &ops::matmul(&a, &b));
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn submatrix_with_leading_dimension() {
        // Multiply 3x3 blocks living inside 10x10 parents.
        let pa = gen::uniform(10, 10, 20);
        let pb = gen::uniform(10, 10, 21);
        let mut pc = gen::uniform(10, 10, 22);
        let (r, c, sz) = (2, 4, 3);
        let a = pa.submatrix(r, c, sz, sz);
        let b = pb.submatrix(r, c, sz, sz);
        let c0 = pc.submatrix(r, c, sz, sz);
        let off = c * 10 + r;
        // run on the parent slices with ld = 10
        let (pa_s, pb_s) = (pa.as_slice(), pb.as_slice());
        let pc_s = pc.as_mut_slice();
        dgemm_packed(
            sz,
            sz,
            sz,
            1.0,
            &pa_s[off..],
            10,
            &pb_s[off..],
            10,
            1.0,
            &mut pc_s[off..],
            10,
            &mut GemmScratch::new(),
        );
        let want = ops::add(&ops::matmul(&a, &b), &c0);
        let got = pc.submatrix(r, c, sz, sz);
        assert!(got.approx_eq(&want, 1e-12));
        // elements outside the target block untouched
        assert_eq!(pc.get(0, 0), gen::uniform(10, 10, 22).get(0, 0));
    }

    #[test]
    fn k_zero_only_scales() {
        let mut c = gen::uniform(4, 4, 30);
        let orig = c.clone();
        let (rows, ld) = (c.rows(), c.ld());
        dgemm_packed(
            rows,
            rows,
            0,
            1.0,
            &[],
            4,
            &[],
            4,
            0.5,
            c.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        assert!(c.approx_eq(&ops::scale(0.5, &orig), 1e-14));
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c: Vec<f64> = vec![];
        dgemm_packed(
            0,
            0,
            5,
            1.0,
            &[1.0; 5],
            1,
            &[1.0; 5],
            5,
            1.0,
            &mut c,
            1,
            &mut GemmScratch::new(),
        );
    }

    #[test]
    fn raw_variant_matches_safe() {
        let a = gen::uniform(6, 4, 40);
        let b = gen::uniform(4, 5, 41);
        let c = gen::uniform(6, 5, 42);
        let mut c1 = c.clone();
        let mut c2 = c.clone();
        dgemm_packed(
            6,
            5,
            4,
            -1.0,
            a.as_slice(),
            6,
            b.as_slice(),
            4,
            1.0,
            c1.as_mut_slice(),
            6,
            &mut GemmScratch::new(),
        );
        unsafe {
            dgemm_raw_packed(
                6,
                5,
                4,
                -1.0,
                a.as_slice().as_ptr(),
                6,
                b.as_slice().as_ptr(),
                4,
                1.0,
                c2.as_mut_slice().as_mut_ptr(),
                6,
                &mut GemmScratch::new(),
            );
        }
        assert!(c1.approx_eq(&c2, 0.0));
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn rejects_bad_ld() {
        let mut c = vec![0.0; 16];
        dgemm_packed(
            4,
            4,
            4,
            1.0,
            &[0.0; 16],
            3,
            &[0.0; 16],
            4,
            0.0,
            &mut c,
            4,
            &mut GemmScratch::new(),
        );
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        // C ← α·A·Bᵀ + β·C must match dgemm against a transposed copy,
        // across register-tile edges and the KC boundary
        for (m, n, k, seed) in [
            (5, 7, 3, 1),
            (MR - 1, NR - 1, 7, 2),
            (MR + 1, NR + 1, KC, 3),
            (3 * MR + 5, 2 * NR + 3, KC + 9, 4),
            (1, 9, 4, 5),
            (MC + 3, NR, 33, 6),
        ] {
            if too_big_for_miri(m, n, k) {
                continue;
            }
            let a = gen::uniform(m, k, seed);
            let b = gen::uniform(n, k, seed + 10); // stored n×k
            let bt = DenseMatrix::from_fn(k, n, |i, j| b.get(j, i));
            let c = gen::uniform(m, n, seed + 20);
            for (alpha, beta) in [(1.0, 1.0), (-1.0, 1.0), (2.0, 0.0)] {
                let mut got = c.clone();
                let ld = got.ld();
                dgemm_nt_packed(
                    m,
                    n,
                    k,
                    alpha,
                    a.as_slice(),
                    a.ld(),
                    b.as_slice(),
                    b.ld(),
                    beta,
                    got.as_mut_slice(),
                    ld,
                    &mut GemmScratch::new(),
                );
                let want = dgemm_dense(alpha, &a, &bt, beta, &c);
                let tol = 1e-11 * (k as f64).max(1.0);
                assert!(
                    got.approx_eq(&want, tol),
                    "shape ({m},{n},{k}) alpha {alpha} beta {beta}"
                );
            }
        }
    }

    #[test]
    fn nt_raw_variant_matches_safe() {
        let (m, n, k) = (6, 5, 4);
        let a = gen::uniform(m, k, 60);
        let b = gen::uniform(n, k, 61);
        let c = gen::uniform(m, n, 62);
        let mut c1 = c.clone();
        let mut c2 = c.clone();
        let ld = c.ld();
        let mut s = GemmScratch::new();
        dgemm_nt_packed(
            m,
            n,
            k,
            -1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            1.0,
            c1.as_mut_slice(),
            ld,
            &mut s,
        );
        unsafe {
            dgemm_nt_raw_packed(
                m,
                n,
                k,
                -1.0,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                1.0,
                c2.as_mut_slice().as_mut_ptr(),
                ld,
                &mut s,
            );
        }
        assert!(c1.approx_eq(&c2, 0.0));
    }

    #[test]
    #[should_panic(expected = "ldb too small")]
    fn nt_rejects_bad_ldb() {
        // for the NT product B is stored n×k, so ldb must cover n
        let mut c = vec![0.0; 16];
        let mut s = GemmScratch::new();
        dgemm_nt_packed(
            4, 4, 4, 1.0, &[0.0; 16], 4, &[0.0; 16], 3, 0.0, &mut c, 4, &mut s,
        );
    }

    #[test]
    fn large_k_blocking_path() {
        // k > KC exercises the blocked loop
        let a = gen::uniform(7, 300, 50);
        let b = gen::uniform(300, 6, 51);
        let c = DenseMatrix::zeros(7, 6);
        let got = dgemm_dense(1.0, &a, &b, 0.0, &c);
        let want = ops::matmul(&a, &b);
        assert!(got.approx_eq(&want, 1e-10));
    }
}
