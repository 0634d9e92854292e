//! Operand packing for the blocked GEMM — the "pack" stage of the
//! GotoBLAS/BLIS algorithm.
//!
//! The driver copies each `MC×KC` block of `A` and `KC×NC` block of `B`
//! into contiguous scratch buffers once per cache block, so the
//! micro-kernel streams both operands with unit stride regardless of the
//! source leading dimensions:
//!
//! * `A` is laid out as ⌈mc/MR⌉ row panels; panel `p` stores the `MR`
//!   rows `p·MR..` column-by-column (`buf[p·MR·kc + l·MR + r]` holds
//!   `A[p·MR + r, l]`), zero-padded when `mc` is not a multiple of `MR`;
//! * `B` is laid out as ⌈nc/NR⌉ column panels; panel `q` stores the `NR`
//!   columns `q·NR..` row-by-row (`buf[q·NR·kc + l·NR + c]` holds
//!   `B[l, q·NR + c]`), zero-padded when `nc` is not a multiple of `NR`.
//!
//! Zero padding lets the micro-kernel always run a full `MR×NR` tile;
//! the store stage writes back only the real `mr×nr` corner.
//!
//! The buffers live in a [`GemmScratch`] arena owned by the caller, so a
//! hot loop (the threaded executor's trailing-matrix updates) packs into
//! the same allocation for every task instead of hitting the allocator.

use crate::gemm::{KC, MC, MR, NC, NR};

/// Reusable packing arena for the blocked GEMM.
///
/// One scratch serves any sequence of GEMM/TRSM/GETRF calls from one
/// thread; the kernels grow it on demand (never shrink), so sizing it up
/// front with [`GemmScratch::sized_for`] makes every later call
/// allocation-free.
#[derive(Debug, Default)]
pub struct GemmScratch {
    pub(crate) a_pack: Vec<f64>,
    pub(crate) b_pack: Vec<f64>,
}

impl GemmScratch {
    /// An empty arena; grows lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-sized so that any GEMM with `m ≤ max_m`, `n ≤ max_n`,
    /// `k ≤ max_k` (and any kernel built on such GEMMs, e.g. tile-sized
    /// TRSM/GETRF) never reallocates. The threaded executor sizes one per
    /// worker from the configured tile dimension.
    pub fn sized_for(max_m: usize, max_n: usize, max_k: usize) -> Self {
        let mut s = Self::new();
        s.reserve(max_m, max_n, max_k);
        s
    }

    /// Grow the arena to cover a GEMM of the given dimensions.
    pub(crate) fn reserve(&mut self, m: usize, n: usize, k: usize) {
        let kc = k.min(KC);
        let a_len = round_up(m.min(MC), MR) * kc;
        let b_len = kc * round_up(n.min(NC), NR);
        if self.a_pack.len() < a_len {
            self.a_pack.resize(a_len, 0.0);
        }
        if self.b_pack.len() < b_len {
            self.b_pack.resize(b_len, 0.0);
        }
    }
}

/// Smallest multiple of `q` that is `>= x` (0 stays 0).
#[inline]
pub(crate) fn round_up(x: usize, q: usize) -> usize {
    x.div_ceil(q) * q
}

/// Pack the `mc × kc` block of `A` at `a` (column-major, leading
/// dimension `lda`) into `buf` as MR-row panels (see module docs).
/// Panics if `buf` holds fewer than `round_up(mc, MR) * kc` elements.
///
/// # Safety
///
/// `a` must be valid for reads over the block's span
/// (`(kc-1)·lda + mc` elements).
#[inline(always)]
pub unsafe fn pack_a(mc: usize, kc: usize, a: *const f64, lda: usize, buf: &mut [f64]) {
    // hard assert: the unchecked writes below are bounded by it
    assert!(
        buf.len() >= round_up(mc, MR) * kc,
        "pack_a buffer too small"
    );
    let mut dst = 0;
    let mut i0 = 0;
    while i0 < mc {
        let mr = MR.min(mc - i0);
        for l in 0..kc {
            let col = a.add(l * lda + i0);
            for r in 0..mr {
                *buf.get_unchecked_mut(dst + r) = *col.add(r);
            }
            for r in mr..MR {
                *buf.get_unchecked_mut(dst + r) = 0.0;
            }
            dst += MR;
        }
        i0 += MR;
    }
}

/// Pack the `kc × nc` block of `B` at `b` (column-major, leading
/// dimension `ldb`) into `buf` as NR-column panels (see module docs).
/// Panics if `buf` holds fewer than `kc * round_up(nc, NR)` elements.
///
/// # Safety
///
/// `b` must be valid for reads over the block's span
/// (`(nc-1)·ldb + kc` elements).
#[inline(always)]
pub unsafe fn pack_b(kc: usize, nc: usize, b: *const f64, ldb: usize, buf: &mut [f64]) {
    // hard assert: the unchecked writes below are bounded by it
    assert!(
        buf.len() >= kc * round_up(nc, NR),
        "pack_b buffer too small"
    );
    let mut dst = 0;
    let mut j0 = 0;
    while j0 < nc {
        let nr = NR.min(nc - j0);
        for l in 0..kc {
            for c in 0..nr {
                *buf.get_unchecked_mut(dst + c) = *b.add((j0 + c) * ldb + l);
            }
            for c in nr..NR {
                *buf.get_unchecked_mut(dst + c) = 0.0;
            }
            dst += NR;
        }
        j0 += NR;
    }
}

/// Pack the `kc × nc` block of `Bᵀ` into `buf` as NR-column panels,
/// reading `B` as stored (column-major, leading dimension `ldb`): element
/// `(l, j0+c)` of `Bᵀ` is `B[j0+c, l]`, i.e. `b[l·ldb + j0 + c]`. The
/// packed layout is identical to [`pack_b`]'s, so the micro-kernel is
/// oblivious to the transpose. Panics if `buf` holds fewer than
/// `kc * round_up(nc, NR)` elements.
///
/// # Safety
///
/// `b` must be valid for reads over the addressed span of the *stored*
/// block (`(kc-1)·ldb + nc` elements).
#[inline(always)]
pub unsafe fn pack_b_trans(kc: usize, nc: usize, b: *const f64, ldb: usize, buf: &mut [f64]) {
    // hard assert: the unchecked writes below are bounded by it
    assert!(
        buf.len() >= kc * round_up(nc, NR),
        "pack_b_trans buffer too small"
    );
    let mut dst = 0;
    let mut j0 = 0;
    while j0 < nc {
        let nr = NR.min(nc - j0);
        for l in 0..kc {
            for c in 0..nr {
                *buf.get_unchecked_mut(dst + c) = *b.add(l * ldb + (j0 + c));
            }
            for c in nr..NR {
                *buf.get_unchecked_mut(dst + c) = 0.0;
            }
            dst += NR;
        }
        j0 += NR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_is_exact_on_multiples() {
        assert_eq!(round_up(0, MR), 0);
        assert_eq!(round_up(MR, MR), MR);
        assert_eq!(round_up(MR + 1, MR), 2 * MR);
    }

    #[test]
    fn pack_a_layout_and_padding() {
        // 5x3 block inside ld=7 storage, MR-panel layout with zero pad
        let (mc, kc, lda) = (5usize, 3usize, 7usize);
        let a: Vec<f64> = (0..lda * kc).map(|x| x as f64).collect();
        let mut buf = vec![f64::NAN; round_up(mc, MR) * kc];
        unsafe { pack_a(mc, kc, a.as_ptr(), lda, &mut buf) };
        for l in 0..kc {
            for i in 0..mc.min(MR) {
                assert_eq!(buf[l * MR + i], a[l * lda + i], "panel 0 ({i},{l})");
            }
            for i in mc.min(MR)..MR {
                assert_eq!(buf[l * MR + i], 0.0, "pad ({i},{l})");
            }
        }
        if mc > MR {
            for l in 0..kc {
                for i in 0..mc - MR {
                    assert_eq!(buf[kc * MR + l * MR + i], a[l * lda + MR + i]);
                }
                for i in mc - MR..MR {
                    assert_eq!(buf[kc * MR + l * MR + i], 0.0);
                }
            }
        }
    }

    #[test]
    fn pack_b_layout_and_padding() {
        let (kc, nc, ldb) = (3usize, NR + 1, 5usize);
        let b: Vec<f64> = (0..ldb * nc).map(|x| x as f64).collect();
        let mut buf = vec![f64::NAN; kc * round_up(nc, NR)];
        unsafe { pack_b(kc, nc, b.as_ptr(), ldb, &mut buf) };
        // panel 0: columns 0..NR row-by-row
        for l in 0..kc {
            for c in 0..NR {
                assert_eq!(buf[l * NR + c], b[c * ldb + l], "panel 0 ({l},{c})");
            }
        }
        // panel 1: one real column + NR-1 zero pad columns
        for l in 0..kc {
            assert_eq!(buf[kc * NR + l * NR], b[NR * ldb + l]);
            for c in 1..NR {
                assert_eq!(buf[kc * NR + l * NR + c], 0.0);
            }
        }
    }

    #[test]
    fn pack_b_trans_matches_pack_b_of_explicit_transpose() {
        // packing Bᵀ from stored B must equal packing an explicitly
        // transposed copy with pack_b
        let (kc, nc, ldb) = (5usize, NR + 3, 9usize);
        // stored B is nc × kc with leading dimension ldb
        let b: Vec<f64> = (0..ldb * kc).map(|x| (x * 7 % 23) as f64).collect();
        // explicit transpose: kc × nc, ld = kc
        let mut bt = vec![0.0f64; kc * nc];
        for l in 0..kc {
            for j in 0..nc {
                bt[j * kc + l] = b[l * ldb + j];
            }
        }
        let mut buf1 = vec![f64::NAN; kc * round_up(nc, NR)];
        let mut buf2 = vec![f64::NAN; kc * round_up(nc, NR)];
        unsafe {
            pack_b_trans(kc, nc, b.as_ptr(), ldb, &mut buf1);
            pack_b(kc, nc, bt.as_ptr(), kc, &mut buf2);
        }
        assert_eq!(buf1, buf2);
    }

    #[test]
    fn sized_for_never_regrows() {
        let b = 100;
        let mut s = GemmScratch::sized_for(b, b, b);
        let (pa, pb) = (s.a_pack.as_ptr(), s.b_pack.as_ptr());
        let (ca, cb) = (s.a_pack.capacity(), s.b_pack.capacity());
        for (m, n, k) in [(1, 1, 1), (b, b, b), (17, 93, 64), (b, 1, b)] {
            s.reserve(m, n, k);
        }
        assert_eq!(s.a_pack.as_ptr(), pa, "a_pack must not reallocate");
        assert_eq!(s.b_pack.as_ptr(), pb, "b_pack must not reallocate");
        assert_eq!((s.a_pack.capacity(), s.b_pack.capacity()), (ca, cb));
    }
}
