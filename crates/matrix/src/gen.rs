//! Deterministic matrix generators used by tests, examples and benchmarks.
//!
//! All generators are seeded so every experiment in the repository is
//! exactly reproducible.

use crate::dense::DenseMatrix;
use calu_rand::Rng;

/// Uniform random entries in `[-1, 1]` — the standard well-conditioned
/// test matrix for LU benchmarks (used for every performance figure).
pub fn uniform(m: usize, n: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng::seed_from_u64(seed);
    DenseMatrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..=1.0))
}

/// Row-diagonally-dominant matrix: uniform noise plus `2n` on the diagonal.
/// LU without pivoting succeeds on it, making it useful to isolate
/// pivoting behaviour from numerical failure.
pub fn diag_dominant(n: usize, seed: u64) -> DenseMatrix {
    let mut a = uniform(n, n, seed);
    for i in 0..n {
        let v = a.get(i, i);
        a.set(i, i, v + 2.0 * n as f64);
    }
    a
}

/// The Wilkinson growth matrix: `a_ii = 1`, `a_ij = -1` for `i > j`,
/// last column all ones. Partial pivoting exhibits `2^(n-1)` element
/// growth on it — the classic stress test for pivoting strategies.
pub fn wilkinson(n: usize) -> DenseMatrix {
    DenseMatrix::from_fn(n, n, |i, j| {
        if j == n - 1 || i == j {
            1.0
        } else if i > j {
            -1.0
        } else {
            0.0
        }
    })
}

/// A matrix with exactly `rank` nonzero singular values: product of random
/// `m × rank` and `rank × n` factors. LU with any pivoting hits a zero
/// pivot after `rank` steps; used for failure-injection tests.
pub fn rank_deficient(m: usize, n: usize, rank: usize, seed: u64) -> DenseMatrix {
    assert!(rank <= m.min(n), "rank larger than min dimension");
    let left = uniform(m, rank, seed);
    let right = uniform(rank, n, seed.wrapping_add(1));
    DenseMatrix::from_fn(m, n, |i, j| {
        (0..rank).map(|k| left.get(i, k) * right.get(k, j)).sum()
    })
}

/// Tall-and-skinny uniform matrix (`m >> n`) — the panel-shaped workload
/// that motivates TSLU.
pub fn tall_skinny(m: usize, n: usize, seed: u64) -> DenseMatrix {
    assert!(m >= n, "tall_skinny requires m >= n");
    uniform(m, n, seed)
}

/// Symmetric positive-definite test matrix: symmetrized uniform noise in
/// `[-1, 1]` off the diagonal, `n` on the diagonal. Strict diagonal
/// dominance of a symmetric matrix with a positive diagonal guarantees
/// positive-definiteness, so Cholesky succeeds on it deterministically —
/// the standard input for the tiled-Cholesky tests and benches.
pub fn spd_uniform(n: usize, seed: u64) -> DenseMatrix {
    let noise = uniform(n, n, seed);
    DenseMatrix::from_fn(n, n, |i, j| {
        if i == j {
            n as f64
        } else {
            0.5 * (noise.get(i, j) + noise.get(j, i))
        }
    })
}

/// Identity plus tiny uniform noise: well conditioned, near-trivial
/// pivoting; handy for debugging schedulers without numerical effects.
pub fn near_identity(n: usize, eps: f64, seed: u64) -> DenseMatrix {
    let noise = uniform(n, n, seed);
    DenseMatrix::from_fn(n, n, |i, j| {
        let base = if i == j { 1.0 } else { 0.0 };
        base + eps * noise.get(i, j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_bounded() {
        let a = uniform(30, 20, 7);
        let b = uniform(30, 20, 7);
        assert!(a.approx_eq(&b, 0.0));
        assert!(a.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
        let c = uniform(30, 20, 8);
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn diag_dominant_dominates() {
        let a = diag_dominant(25, 1);
        for i in 0..25 {
            let off: f64 = (0..25).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
            assert!(a.get(i, i).abs() > off, "row {i} not dominant");
        }
    }

    #[test]
    fn wilkinson_structure() {
        let w = wilkinson(5);
        assert_eq!(w.get(0, 4), 1.0);
        assert_eq!(w.get(3, 4), 1.0);
        assert_eq!(w.get(2, 2), 1.0);
        assert_eq!(w.get(3, 1), -1.0);
        assert_eq!(w.get(1, 3), 0.0);
    }

    #[test]
    fn rank_deficient_has_low_rank() {
        // With rank r, any (r+1)x(r+1) minor is singular; cheap proxy:
        // Gaussian elimination on the full matrix hits ~0 pivots after r.
        let r = 3;
        let mut a = rank_deficient(8, 8, r, 5);
        // unpivoted elimination with row swaps by max pivot
        let mut rank_seen = 0;
        for k in 0..8 {
            let (mut piv, mut pv) = (k, 0.0f64);
            for i in k..8 {
                if a.get(i, k).abs() > pv {
                    pv = a.get(i, k).abs();
                    piv = i;
                }
            }
            if pv < 1e-10 {
                continue;
            }
            rank_seen += 1;
            a.swap_rows(k, piv);
            for i in (k + 1)..8 {
                let f = a.get(i, k) / a.get(k, k);
                for j in k..8 {
                    let v = a.get(i, j) - f * a.get(k, j);
                    a.set(i, j, v);
                }
            }
        }
        assert_eq!(rank_seen, r);
    }

    #[test]
    fn spd_uniform_is_symmetric_and_dominant() {
        let n = 20;
        let a = spd_uniform(n, 4);
        let b = spd_uniform(n, 4);
        assert!(a.approx_eq(&b, 0.0), "must be deterministic");
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
            assert!(a.get(i, i) > off, "row {i} not dominant");
            for j in 0..n {
                assert_eq!(a.get(i, j), a.get(j, i), "({i},{j}) asymmetric");
            }
        }
    }

    #[test]
    fn near_identity_is_near_identity() {
        let a = near_identity(10, 1e-8, 2);
        for i in 0..10 {
            assert!((a.get(i, i) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_deficient_validates_rank() {
        rank_deficient(4, 4, 5, 0);
    }
}
