//! Randomized-sweep tests for the kernels: optimized implementations vs
//! the textbook oracles in `calu_matrix::ops`, across seeded random
//! shapes (formerly proptest).

use calu_kernels::trsm::{dtrsm_left_lower_unit_unblocked, dtrsm_right_upper_unblocked, TRSM_NB};
use calu_kernels::{
    dgemm_jki, dgemm_packed, dgetf2, dgetrf_recursive_packed, dtrsm_left_lower_unit_packed,
    dtrsm_right_upper_packed, lu_nopiv_unblocked, GemmScratch,
};
use calu_matrix::{gen, ops, DenseMatrix, RowPerm};
use calu_rand::Rng;

#[test]
fn gemm_matches_reference() {
    let mut rng = Rng::seed_from_u64(20);
    for _ in 0..48 {
        let m = rng.gen_range(1..40);
        let n = rng.gen_range(1..40);
        let k = rng.gen_range(0..40);
        let alpha = rng.gen_range(-2.0..2.0);
        let beta = rng.gen_range(-2.0..2.0);
        let seed = rng.next_u64() % 1000;
        let a = gen::uniform(m, k.max(1), seed);
        let b = gen::uniform(k.max(1), n, seed + 1);
        let c = gen::uniform(m, n, seed + 2);
        let mut got = c.clone();
        let ld = got.ld();
        dgemm_packed(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            a.ld().max(1),
            b.as_slice(),
            b.ld().max(1),
            beta,
            got.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        // reference: alpha*A(:, :k)*B(:k, :) + beta*C
        let want = if k == 0 {
            ops::scale(beta, &c)
        } else {
            let ak = a.submatrix(0, 0, m, k);
            let bk = b.submatrix(0, 0, k, n);
            ops::add(
                &ops::scale(alpha, &ops::matmul(&ak, &bk)),
                &ops::scale(beta, &c),
            )
        };
        assert!(got.approx_eq(&want, 1e-10));
    }
}

#[test]
fn packed_gemm_matches_seed_jki_kernel() {
    // the packed register-tiled kernel vs the seed jki kernel across
    // random shapes straddling the MR/NR register-tile and KC cache-block
    // boundaries (two different summation orders, so compare loosely)
    let mut rng = Rng::seed_from_u64(25);
    for _ in 0..24 {
        let m = rng.gen_range(1..200);
        let n = rng.gen_range(1..80);
        let k = rng.gen_range(1..300);
        let seed = rng.next_u64() % 1000;
        let a = gen::uniform(m, k, seed);
        let b = gen::uniform(k, n, seed + 1);
        let c = gen::uniform(m, n, seed + 2);
        let mut packed = c.clone();
        let mut jki = c.clone();
        let ld = c.ld();
        dgemm_packed(
            m,
            n,
            k,
            -1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            1.0,
            packed.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        dgemm_jki(
            m,
            n,
            k,
            -1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            1.0,
            jki.as_mut_slice(),
            ld,
        );
        assert!(packed.approx_eq(&jki, 1e-10 * k as f64), "({m},{n},{k})");
    }
}

#[test]
fn blocked_trsm_equals_unblocked() {
    // blocked (diag solve + GEMM) vs pure substitution on sizes around
    // multiples of TRSM_NB — the blocked path's only approximation is
    // reassociation, so the factors agree tightly
    let mut rng = Rng::seed_from_u64(26);
    for _ in 0..16 {
        let m = rng.gen_range(1..3 * TRSM_NB + 10);
        let n = rng.gen_range(1..24);
        let seed = rng.next_u64() % 1000;
        let r = gen::uniform(m, m, seed);
        let l = DenseMatrix::from_fn(m, m, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.4 * r.get(i, j)
            } else {
                0.0
            }
        });
        let b0 = gen::uniform(m, n, seed + 1);
        let mut blocked = b0.clone();
        let mut unblocked = b0.clone();
        let ld = b0.ld();
        dtrsm_left_lower_unit_packed(
            m,
            n,
            l.as_slice(),
            l.ld(),
            blocked.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        dtrsm_left_lower_unit_unblocked(m, n, l.as_slice(), l.ld(), unblocked.as_mut_slice(), ld);
        assert!(blocked.approx_eq(&unblocked, 1e-9), "left m={m} n={n}");

        let r = gen::uniform(m, m, seed + 2);
        let u = DenseMatrix::from_fn(m, m, |i, j| {
            if i == j {
                1.5 + r.get(i, j).abs()
            } else if i < j {
                r.get(i, j)
            } else {
                0.0
            }
        });
        let b0 = gen::uniform(n, m, seed + 3);
        let mut blocked = b0.clone();
        let mut unblocked = b0.clone();
        let ld = b0.ld();
        dtrsm_right_upper_packed(
            n,
            m,
            u.as_slice(),
            u.ld(),
            blocked.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        dtrsm_right_upper_unblocked(n, m, u.as_slice(), u.ld(), unblocked.as_mut_slice(), ld);
        assert!(blocked.approx_eq(&unblocked, 1e-9), "right m={m} n={n}");
    }
}

#[test]
fn recursive_lu_equals_unblocked() {
    let mut rng = Rng::seed_from_u64(21);
    for _ in 0..48 {
        let m = rng.gen_range(1..60);
        let n = rng.gen_range(1..40);
        let seed = rng.next_u64() % 1000;
        let a = gen::uniform(m, n, seed);
        let mut f1 = a.clone();
        let mut f2 = a.clone();
        let ld = a.ld();
        let p1 = dgetf2(m, n, f1.as_mut_slice(), ld);
        let p2 = dgetrf_recursive_packed(m, n, f2.as_mut_slice(), ld, &mut GemmScratch::new());
        assert_eq!(p1.piv, p2.piv);
        assert!(f1.approx_eq(&f2, 1e-9));
    }
}

#[test]
fn gepp_reconstructs_pa() {
    let mut rng = Rng::seed_from_u64(22);
    for _ in 0..48 {
        let m = rng.gen_range(1..48);
        let n = rng.gen_range(1..48);
        let seed = rng.next_u64() % 1000;
        let a = gen::uniform(m, n, seed);
        let mut f = a.clone();
        let ld = a.ld();
        let p = dgetf2(m, n, f.as_mut_slice(), ld);
        let perm = RowPerm::from_pivots(0, p.piv);
        let pa = perm.permuted(&a);
        let lu = ops::matmul(&f.lower_unit(), &f.upper());
        assert!(lu.approx_eq(&pa, 1e-9));
    }
}

#[test]
fn trsm_inverts_multiplication() {
    let mut rng = Rng::seed_from_u64(23);
    for _ in 0..48 {
        let m = rng.gen_range(1..24);
        let n = rng.gen_range(1..24);
        let seed = rng.next_u64() % 1000;
        // left solve
        let r = gen::uniform(m, m, seed);
        let l = DenseMatrix::from_fn(m, m, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.4 * r.get(i, j)
            } else {
                0.0
            }
        });
        let x = gen::uniform(m, n, seed + 1);
        let b = ops::matmul(&l, &x);
        let mut got = b.clone();
        let ld = got.ld();
        dtrsm_left_lower_unit_packed(
            m,
            n,
            l.as_slice(),
            l.ld(),
            got.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        assert!(got.approx_eq(&x, 1e-8));
        // right solve
        let r = gen::uniform(n, n, seed + 2);
        let u = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                1.5 + r.get(i, j).abs()
            } else if i < j {
                r.get(i, j)
            } else {
                0.0
            }
        });
        let x = gen::uniform(m, n, seed + 3);
        let b = ops::matmul(&x, &u);
        let mut got = b.clone();
        let ld = got.ld();
        dtrsm_right_upper_packed(
            m,
            n,
            u.as_slice(),
            u.ld(),
            got.as_mut_slice(),
            ld,
            &mut GemmScratch::new(),
        );
        assert!(got.approx_eq(&x, 1e-8));
    }
}

#[test]
fn lu_nopiv_on_dominant_matrices() {
    let mut rng = Rng::seed_from_u64(24);
    for _ in 0..48 {
        let n = rng.gen_range(1..32);
        let seed = rng.next_u64() % 1000;
        let a = gen::diag_dominant(n, seed);
        let mut f = a.clone();
        let ld = a.ld();
        let s = lu_nopiv_unblocked(n, n, f.as_mut_slice(), ld);
        assert!(s.is_none());
        let lu = ops::matmul(&f.lower_unit(), &f.upper());
        assert!(lu.approx_eq(&a, 1e-8 * n as f64));
    }
}
