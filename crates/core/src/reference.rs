//! The sequential reference drivers, one matrix on one thread — no
//! tiles, no layouts, just the math:
//!
//! * [`calu_simple`] — plain dense CALU, a direct transcription of the
//!   algorithm in §2, and the numerical oracle every optimized path in
//!   this crate is tested against;
//! * [`gepp_factor`] — blocked Gaussian elimination with partial
//!   pivoting, the LAPACK/MKL `dgetrf` baseline the paper compares
//!   against (Figures 16–17);
//! * [`incpiv_factor`] — tiled LU with incremental (block pairwise)
//!   pivoting, the PLASMA `dgetrf_incpiv` baseline (§2, §5.3).
//!
//! CALU and GEPP are one right-looking loop ([`right_looking`]) that
//! differs only in how a panel is factored: CALU elects the panel's
//! pivots by tournament, swaps them onto the diagonal and factors
//! without further pivoting; GEPP runs recursive LU with partial
//! pivoting (sequentially — the critical-path bottleneck CALU removes).
//! Either way the loop then applies the panel's swaps to the columns
//! left and right of it, solves the U block row and updates the
//! trailing matrix.
//!
//! Incremental pivoting never looks below the current tile pair: the
//! diagonal tile is factored with GEPP (GETRF), then each sub-diagonal
//! tile is eliminated by factoring the stack `[U_kk; A_ik]` (TSTRF), with
//! the corresponding transformations applied to the trailing tile pairs
//! (GESSM/SSSSM). This removes the panel from the critical path at the
//! cost of extra flops and a weaker pivoting strategy ("whose stability
//! is still under investigation", §5.3).

use crate::factorization::Factorization;
use crate::pivot::swaps_for_selection;
use crate::tslu::tournament_pivots;
use calu_kernels::getrf::PanelPivots;
use calu_kernels::laswp::dlaswp;
use calu_kernels::{
    dgemm_raw_packed, dgetf2, dgetrf_recursive_packed, dtrsm_left_lower_unit_packed,
    lu_nopiv_unblocked, GemmScratch,
};
use calu_matrix::{gen, norms, ops, DenseMatrix, RowPerm};

/// The right-looking blocked LU shared by [`calu_simple`] and
/// [`gepp_factor`], with panel width `b`. `factor_panel(lu, k0, w, s)`
/// factors the panel `lu[k0.., k0..k0+w]` in place, applying its row
/// swaps to the panel's own columns only, and returns them as
/// panel-local pivots.
fn right_looking(
    a: &DenseMatrix,
    b: usize,
    mut factor_panel: impl FnMut(&mut DenseMatrix, usize, usize, &mut GemmScratch) -> PanelPivots,
) -> Factorization {
    assert!(b > 0, "panel width must be positive");
    let (m, n) = (a.rows(), a.cols());
    let mut lu = a.clone();
    let ld = lu.ld();
    let mut perm = RowPerm::identity();
    let mut singular_at = None;
    let mut scratch = GemmScratch::new();
    let kmax = m.min(n);

    let mut k0 = 0;
    while k0 < kmax {
        let w = b.min(kmax - k0);
        let next = k0 + w;
        let piv = factor_panel(&mut lu, k0, w, &mut scratch);
        if let Some(c) = piv.singular_at {
            singular_at.get_or_insert(k0 + c);
        }
        // the panel's swaps, on the columns left and right of it
        let s = lu.as_mut_slice();
        dlaswp(k0, &mut s[k0..], ld, 0, &piv.piv);
        if next < n {
            dlaswp(n - next, &mut s[next * ld + k0..], ld, 0, &piv.piv);
        }
        perm.extend(&RowPerm::from_pivots(
            k0,
            piv.piv.iter().map(|p| p + k0).collect(),
        ));

        if next < n {
            // U block row: A[k0..next, next..n] ← L_kk⁻¹ · A[..]
            let (head, tail) = s.split_at_mut(next * ld);
            let lkk = &head[k0 * ld + k0..];
            dtrsm_left_lower_unit_packed(w, n - next, lkk, ld, &mut tail[k0..], ld, &mut scratch);
            // trailing update: A22 ← A22 − A21 · U12
            if next < m {
                // SAFETY: A21 lies in `head`, U12 and A22 in `tail`, and
                // U12 (rows k0..next) and A22 (rows next..m) are
                // element-disjoint, all inside the m×n matrix.
                unsafe {
                    let a21 = head.as_ptr().add(k0 * ld + next);
                    let u12 = tail.as_ptr().add(k0);
                    let a22 = tail.as_mut_ptr().add(next);
                    dgemm_raw_packed(
                        m - next,
                        n - next,
                        w,
                        -1.0,
                        a21,
                        ld,
                        u12,
                        ld,
                        1.0,
                        a22,
                        ld,
                        &mut scratch,
                    );
                }
            }
        }
        k0 = next;
    }
    Factorization {
        lu,
        perm,
        singular_at,
    }
}

/// Sequential dense CALU with tournament pivoting.
///
/// `b` is the panel width; `chunks` the number of TSLU chunks per panel
/// (the paper uses one chunk per thread of the panel's grid column).
/// Each panel elects its pivots by tournament, swaps them onto the
/// diagonal and is factored with no further pivoting.
pub fn calu_simple(a: &DenseMatrix, b: usize, chunks: usize) -> Factorization {
    assert!(chunks > 0, "need at least one TSLU chunk");
    right_looking(a, b, |lu, k0, w, _| {
        let (rows, ld) = (lu.rows() - k0, lu.ld());
        let elected = tournament_pivots(&lu.submatrix(k0, k0, rows, w), chunks);
        let piv = swaps_for_selection(0, &elected).pivots().to_vec();
        let panel = &mut lu.as_mut_slice()[k0 * ld + k0..];
        dlaswp(w, panel, ld, 0, &piv);
        let singular_at = lu_nopiv_unblocked(rows, w, panel, ld);
        PanelPivots { piv, singular_at }
    })
}

/// Right-looking blocked GEPP with panel width `b`. Each panel is
/// factored by recursive LU with partial pivoting.
pub fn gepp_factor(a: &DenseMatrix, b: usize) -> Factorization {
    right_looking(a, b, |lu, k0, w, scratch| {
        let (rows, ld) = (lu.rows() - k0, lu.ld());
        let panel = &mut lu.as_mut_slice()[k0 * ld + k0..];
        dgetrf_recursive_packed(rows, w, panel, ld, scratch)
    })
}

/// One recorded elimination operator, replayed on right-hand sides by
/// [`IncPivFactors::solve`].
#[derive(Debug, Clone)]
enum Op {
    /// GEPP of the diagonal tile `k` followed by its application to the
    /// whole tile row: rows = `c0 + piv` swaps, `L` = unit-lower `w×w`.
    Diag {
        /// first global row of the tile
        base: usize,
        /// tile-local pivots
        piv: Vec<usize>,
        /// unit-lower factor (strictly lower stored)
        l: DenseMatrix,
    },
    /// TSTRF of the stack `[row block k; row block i]`: `piv` are
    /// stack-local pivots, `l` the `(w+ri)×w` unit-lower trapezoid.
    Stack {
        /// first global row of the top (diagonal) block
        base_top: usize,
        /// first global row of the bottom block
        base_bot: usize,
        /// rows in the top block
        w: usize,
        /// stack-local pivots
        piv: Vec<usize>,
        /// trapezoidal factor
        l: DenseMatrix,
    },
}

/// The factors produced by incremental pivoting. Unlike GEPP/CALU the
/// row transformations interleave with eliminations and cannot be
/// expressed as one global `P`; solving replays them in order.
#[derive(Debug, Clone)]
pub struct IncPivFactors {
    /// The upper-triangular factor (full `n × n`, zeros below).
    pub u: DenseMatrix,
    /// Tile size used.
    pub b: usize,
    /// First column with a zero pivot, if any.
    pub singular_at: Option<usize>,
    ops: Vec<Op>,
}

/// Apply a stack-local swap+forward-elimination to a stacked pair of row
/// blocks of `z` (top at `base_top`, `w` rows; bottom at `base_bot`,
/// `l.rows() - w` rows), restricted to columns `c_lo..c_hi`.
#[allow(clippy::too_many_arguments)]
fn apply_stack(
    z: &mut DenseMatrix,
    base_top: usize,
    base_bot: usize,
    w: usize,
    piv: &[usize],
    l: &DenseMatrix,
    c_lo: usize,
    c_hi: usize,
) {
    let total = l.rows();
    let row_of = |s: usize| {
        if s < w {
            base_top + s
        } else {
            base_bot + (s - w)
        }
    };
    // P
    for (t, &p) in piv.iter().enumerate() {
        if p != t {
            let (r1, r2) = (row_of(t), row_of(p));
            z.swap_rows_in_cols(r1, r2, c_lo, c_hi);
        }
    }
    // L^{-1} (forward elimination with the trapezoid)
    for c in c_lo..c_hi {
        for t in 0..w.min(total) {
            let zt = z.get(row_of(t), c);
            if zt == 0.0 {
                continue;
            }
            for s in (t + 1)..total {
                let v = z.get(row_of(s), c) - l.get(s, t) * zt;
                z.set(row_of(s), c, v);
            }
        }
    }
}

/// Factor `a` with incremental pivoting, tile size `b`.
pub fn incpiv_factor(a: &DenseMatrix, b: usize) -> IncPivFactors {
    assert!(b > 0, "tile size must be positive");
    let n = a.rows();
    assert_eq!(a.cols(), n, "incpiv driver handles square matrices");
    let mut w_mat = a.clone();
    let nt = n.div_ceil(b);
    let mut ops_list: Vec<Op> = Vec::new();
    let mut singular_at = None;
    let mut scratch = GemmScratch::new();

    for k in 0..nt {
        let c0 = k * b;
        let w = b.min(n - c0);

        // --- GETRF(k,k) ---
        let (piv, l) = {
            let mut tile = w_mat.submatrix(c0, c0, w, w);
            let ld = tile.ld();
            let p = dgetf2(w, w, tile.as_mut_slice(), ld);
            if let Some(c) = p.singular_at {
                singular_at.get_or_insert(c0 + c);
            }
            // write factored tile back (upper part = U_kk)
            w_mat.set_submatrix(c0, c0, &tile);
            (p.piv, tile.lower_unit())
        };
        // GESSM: apply to the rest of the tile row
        for j in (k + 1)..nt {
            let j0 = j * b;
            let wj = b.min(n - j0);
            let mut blk = w_mat.submatrix(c0, j0, w, wj);
            // swaps
            for (t, &p) in piv.iter().enumerate() {
                if p != t {
                    blk.swap_rows(t, p);
                }
            }
            // L^{-1}
            let ld = blk.ld();
            dtrsm_left_lower_unit_packed(
                w,
                wj,
                l.as_slice(),
                l.ld(),
                blk.as_mut_slice(),
                ld,
                &mut scratch,
            );
            w_mat.set_submatrix(c0, j0, &blk);
        }
        ops_list.push(Op::Diag { base: c0, piv, l });

        // --- TSTRF chain + SSSSM updates ---
        for i in (k + 1)..nt {
            let r0 = i * b;
            let ri = b.min(n - r0);
            // stack = [U_kk (current); A_ik]
            let ukk = w_mat.submatrix(c0, c0, w, w);
            let aik = w_mat.submatrix(r0, c0, ri, w);
            let mut stack = DenseMatrix::from_fn(w + ri, w, |r, c| {
                if r < w {
                    if r <= c {
                        ukk.get(r, c)
                    } else {
                        0.0 // strictly-lower of the diag tile is L, not U
                    }
                } else {
                    aik.get(r - w, c)
                }
            });
            let ld = stack.ld();
            let p = dgetf2(w + ri, w, stack.as_mut_slice(), ld);
            if let Some(c) = p.singular_at {
                singular_at.get_or_insert(c0 + c);
            }
            // write back U_kk' (upper of the top block); zero out A_ik
            let new_u = stack.upper(); // w x w
            for r in 0..w {
                for c in r..w {
                    w_mat.set(c0 + r, c0 + c, new_u.get(r, c));
                }
            }
            for r in 0..ri {
                for c in 0..w {
                    w_mat.set(r0 + r, c0 + c, 0.0);
                }
            }
            let l_trap = stack.lower_unit(); // (w+ri) x w
                                             // SSSSM: update the trailing columns of the tile pair
            apply_stack(&mut w_mat, c0, r0, w, &p.piv, &l_trap, c0 + w, n);
            ops_list.push(Op::Stack {
                base_top: c0,
                base_bot: r0,
                w,
                piv: p.piv,
                l: l_trap,
            });
        }
    }

    // extract U: tile row k contributes columns >= its own tile column
    let u = DenseMatrix::from_fn(n, n, |i, j| {
        let (ti, tj) = (i / b, j / b);
        if ti < tj || (ti == tj && i <= j) {
            w_mat.get(i, j)
        } else {
            0.0
        }
    });
    IncPivFactors {
        u,
        b,
        singular_at,
        ops: ops_list,
    }
}

impl IncPivFactors {
    /// True if no zero pivot was hit.
    pub fn is_nonsingular(&self) -> bool {
        self.singular_at.is_none()
    }

    /// Solve `A·x = rhs` by replaying the recorded eliminations on the
    /// right-hand side and back-substituting with `U`.
    pub fn solve(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let n = self.u.rows();
        assert_eq!(rhs.rows(), n, "rhs height mismatch");
        let mut z = rhs.clone();
        for op in &self.ops {
            match op {
                Op::Diag { base, piv, l } => {
                    let w = l.rows();
                    for (t, &p) in piv.iter().enumerate() {
                        if p != t {
                            z.swap_rows(base + t, base + p);
                        }
                    }
                    for c in 0..z.cols() {
                        for t in 0..w {
                            let zt = z.get(base + t, c);
                            if zt == 0.0 {
                                continue;
                            }
                            for s in (t + 1)..w {
                                let v = z.get(base + s, c) - l.get(s, t) * zt;
                                z.set(base + s, c, v);
                            }
                        }
                    }
                }
                Op::Stack {
                    base_top,
                    base_bot,
                    w,
                    piv,
                    l,
                } => {
                    let cols = z.cols();
                    apply_stack(&mut z, *base_top, *base_bot, *w, piv, l, 0, cols);
                }
            }
        }
        // back substitution with U
        let mut x = z;
        for c in 0..x.cols() {
            for k in (0..n).rev() {
                let mut s = x.get(k, c);
                for j in (k + 1)..n {
                    s -= self.u.get(k, j) * x.get(j, c);
                }
                x.set(k, c, s / self.u.get(k, k));
            }
        }
        x
    }

    /// Solution-based relative residual `‖A·x − rhs‖ / (‖A‖·‖x‖)` on a
    /// seeded random right-hand side — incremental pivoting has no single
    /// `P·A = L·U` identity to check directly.
    pub fn residual_via_solve(&self, a: &DenseMatrix, seed: u64) -> f64 {
        let rhs = gen::uniform(a.rows(), 1, seed);
        let x = self.solve(&rhs);
        let ax = ops::matmul(a, &x);
        let diff = ops::sub(&ax, &rhs);
        norms::frobenius(&diff)
            / (norms::frobenius(a) * norms::frobenius(&x)).max(f64::MIN_POSITIVE)
    }

    /// Growth proxy: `max|U| / max|A|`.
    pub fn growth_factor(&self, a: &DenseMatrix) -> f64 {
        self.u.max_abs() / a.max_abs().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_random_square_matrices() {
        for (n, b, chunks, seed) in [(16, 4, 2, 1), (50, 8, 4, 2), (64, 16, 1, 3), (37, 10, 3, 4)] {
            let a = gen::uniform(n, n, seed);
            let f = calu_simple(&a, b, chunks);
            assert!(f.is_nonsingular(), "n={n} b={b}");
            let r = f.residual(&a);
            assert!(r < 1e-12, "residual {r} for n={n} b={b} chunks={chunks}");
        }
    }

    #[test]
    fn factors_tall_matrices() {
        let a = gen::uniform(60, 24, 5);
        let f = calu_simple(&a, 8, 4);
        assert!(f.residual(&a) < 1e-12);
        // L is 60x24 trapezoid, U 24x24
        assert_eq!(f.lu.rows(), 60);
    }

    #[test]
    fn single_panel_equals_whole_matrix() {
        let a = gen::uniform(20, 20, 6);
        let f = calu_simple(&a, 32, 2);
        assert!(f.residual(&a) < 1e-13);
    }

    #[test]
    fn block_size_does_not_change_solution() {
        let a = gen::uniform(48, 48, 7);
        let rhs = gen::uniform(48, 1, 8);
        let x1 = calu_simple(&a, 6, 2).solve(&rhs);
        let x2 = calu_simple(&a, 16, 4).solve(&rhs);
        let x3 = gepp_factor(&a, 8).solve(&rhs);
        assert!(x1.approx_eq(&x2, 1e-8));
        assert!(x1.approx_eq(&x3, 1e-8));
    }

    #[test]
    fn growth_factor_comparable_to_gepp_on_random() {
        // tournament pivoting is "as stable as partial pivoting in
        // practice" (§2) — growth within a small factor of GEPP's
        let a = gen::uniform(64, 64, 9);
        let calu = calu_simple(&a, 8, 4);
        let gepp = gepp_factor(&a, 8);
        let gc = calu.growth_factor(&a);
        let gg = gepp.growth_factor(&a);
        assert!(gc < 8.0 * gg, "calu growth {gc} vs gepp {gg}");
    }

    #[test]
    fn diagonally_dominant_needs_no_row_exchanges() {
        let a = gen::diag_dominant(32, 10);
        let f = calu_simple(&a, 8, 2);
        assert!(f.residual(&a) < 1e-13);
        // every pivot stays on the diagonal
        assert_eq!(f.perm.sign(), 1.0);
        assert!(f.perm.pivots().iter().enumerate().all(|(k, &p)| p == k));
    }

    #[test]
    fn singular_matrix_is_flagged() {
        let a = gen::rank_deficient(24, 24, 10, 11);
        let f = calu_simple(&a, 6, 2);
        // exact zero pivots may be perturbed by roundoff; at minimum the
        // factorization must complete and reconstruct PA where defined
        if f.is_nonsingular() {
            // near-singular: huge growth is acceptable, but shape holds
            assert_eq!(f.lu.rows(), 24);
        } else {
            assert!(f.singular_at.unwrap() >= 10 - 1);
        }
        let z = DenseMatrix::zeros(8, 8);
        let fz = calu_simple(&z, 4, 2);
        assert_eq!(fz.singular_at, Some(0));
    }

    #[test]
    fn permutation_is_consistent() {
        let a = gen::uniform(30, 30, 12);
        let f = calu_simple(&a, 10, 3);
        // P A == L U within tolerance, via explicit permutation
        let pa = f.perm.permuted(&a);
        let lu = ops::matmul(&f.lu.lower_unit(), &f.lu.upper());
        assert!(lu.approx_eq(&pa, 1e-11));
    }

    #[test]
    fn matches_unblocked_reference_exactly() {
        for (n, b, seed) in [(24, 8, 1), (33, 7, 2), (16, 32, 3)] {
            let a = gen::uniform(n, n, seed);
            let blocked = gepp_factor(&a, b);
            let mut unblocked = a.clone();
            let ld = unblocked.ld();
            let piv = dgetf2(n, n, unblocked.as_mut_slice(), ld);
            assert_eq!(
                blocked.perm.pivots(),
                &piv.piv[..],
                "pivot sequences must agree (n={n}, b={b})"
            );
            assert!(blocked.lu.approx_eq(&unblocked, 1e-10));
        }
    }

    #[test]
    fn residual_small_on_random() {
        for n in [10, 47, 100] {
            let a = gen::uniform(n, n, n as u64);
            let f = gepp_factor(&a, 16);
            assert!(f.residual(&a) < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn rectangular_shapes() {
        let tall = gen::uniform(80, 30, 4);
        assert!(gepp_factor(&tall, 12).residual(&tall) < 1e-12);
        let wide = gen::uniform(30, 80, 5);
        assert!(gepp_factor(&wide, 12).residual(&wide) < 1e-12);
    }

    #[test]
    fn wilkinson_growth_is_exactly_gepp() {
        let a = gen::wilkinson(16);
        let f = gepp_factor(&a, 4);
        assert!((f.growth_factor(&a) - 2f64.powi(15)).abs() < 1e-8);
    }

    #[test]
    fn solves_random_systems() {
        for (n, b, seed) in [(16, 4, 1), (24, 8, 2), (30, 7, 3), (12, 12, 4)] {
            let a = gen::uniform(n, n, seed);
            let f = incpiv_factor(&a, b);
            assert!(f.is_nonsingular(), "n={n} b={b}");
            let r = f.residual_via_solve(&a, seed + 100);
            assert!(r < 1e-10, "residual {r} for n={n} b={b}");
        }
    }

    #[test]
    fn matches_gepp_solution() {
        let a = gen::uniform(20, 20, 5);
        let rhs = gen::uniform(20, 3, 6);
        let x1 = incpiv_factor(&a, 5).solve(&rhs);
        let x2 = gepp_factor(&a, 5).solve(&rhs);
        assert!(x1.approx_eq(&x2, 1e-8));
    }

    #[test]
    fn single_tile_is_plain_gepp() {
        let a = gen::uniform(10, 10, 7);
        let f = incpiv_factor(&a, 16);
        let g = gepp_factor(&a, 16);
        // single tile: U factors agree exactly
        assert!(f.u.upper().approx_eq(&g.lu.upper(), 1e-12));
    }

    #[test]
    fn growth_is_bounded_on_random() {
        // incremental pivoting is weaker than partial pivoting but must
        // stay within a moderate factor on random matrices
        let a = gen::uniform(32, 32, 8);
        let f = incpiv_factor(&a, 8);
        let g = gepp_factor(&a, 8);
        let ratio = f.growth_factor(&a) / g.growth_factor(&a);
        assert!(ratio < 50.0, "incpiv growth ratio {ratio}");
    }

    #[test]
    fn ragged_edge_tiles() {
        let a = gen::uniform(23, 23, 9);
        let f = incpiv_factor(&a, 8);
        assert!(f.residual_via_solve(&a, 10) < 1e-10);
    }

    #[test]
    fn zero_matrix_flagged_singular() {
        let z = DenseMatrix::zeros(8, 8);
        let f = incpiv_factor(&z, 4);
        assert!(!f.is_nonsingular());
    }
}
