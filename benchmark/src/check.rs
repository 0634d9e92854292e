//! Output checks cheap enough to run beside every timed pass.
//!
//! Scheduling never changes the math, so every repetition of one input
//! must produce the same bits: [`factor_hash`] is compared across
//! repetitions. The residual is checked with a random probe vector,
//! `‖P·A·v − L·(U·v)‖ / (‖A‖_F·‖v‖)`, which costs three matrix-vector
//! products instead of the `O(n³)` reconstruction `Solver::verify` does
//! (that one is timed once per traced pass as `core.verify_s`).

use calu::core::Factorization;
use calu::matrix::{norms, DenseMatrix};
use calu::Algorithm;

/// Every verified repetition must land below this relative residual.
pub const RESIDUAL_TOL: f64 = 1e-11;

/// SplitMix64: the benchmark's own seeded stream, so workload inputs
/// depend on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over the factor's words and pivots.
pub fn factor_hash(f: &Factorization) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in f.lu.as_slice() {
        h = (h ^ x.to_bits()).wrapping_mul(PRIME);
    }
    for &p in f.perm.pivots() {
        h = (h ^ p as u64).wrapping_mul(PRIME);
    }
    h
}

/// Fold per-item hashes (in item order) into one.
pub fn combine_hashes(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(0xCBF2_9CE4_8422_2325u64, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `y = A·v` for column-major `a`.
fn matvec(a: &DenseMatrix, v: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    for (j, &vj) in v.iter().enumerate() {
        for (yi, aij) in y.iter_mut().zip(a.col(j)) {
            *yi += aij * vj;
        }
    }
    y
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Randomized relative residual of `f` against the matrix it factored.
pub fn probe_residual(algorithm: Algorithm, a: &DenseMatrix, f: &Factorization, seed: u64) -> f64 {
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let mut rng = SplitMix(seed ^ 0x5EED_CAFE);
    let v: Vec<f64> = (0..n).map(|_| rng.next_unit()).collect();
    let lu = &f.lu;
    let av = matvec(a, &v);
    let (lhs, rhs) = if algorithm == Algorithm::Cholesky {
        // w = Lᵀ·v, y = L·w, against A·v
        let w: Vec<f64> = (0..n)
            .map(|j| lu.col(j)[j..].iter().zip(&v[j..]).map(|(l, x)| l * x).sum())
            .collect();
        let mut y = vec![0.0; n];
        for (j, &wj) in w.iter().enumerate() {
            for (yi, lij) in y[j..].iter_mut().zip(&lu.col(j)[j..]) {
                *yi += lij * wj;
            }
        }
        (av, y)
    } else {
        // w = U·v (k rows), y = L·w (unit lower trapezoid), against P·A·v
        let mut w = vec![0.0; k];
        for (j, &vj) in v.iter().enumerate() {
            let top = (j + 1).min(k);
            for (wi, uij) in w[..top].iter_mut().zip(&lu.col(j)[..top]) {
                *wi += uij * vj;
            }
        }
        let mut y = vec![0.0; m];
        y[..k].copy_from_slice(&w);
        for (j, &wj) in w.iter().enumerate() {
            for (yi, lij) in y[j + 1..].iter_mut().zip(&lu.col(j)[j + 1..]) {
                *yi += lij * wj;
            }
        }
        let pav: Vec<f64> = f.perm.explicit(m).into_iter().map(|src| av[src]).collect();
        (pav, y)
    };
    let diff: Vec<f64> = lhs.iter().zip(&rhs).map(|(x, y)| x - y).collect();
    norm2(&diff) / (norms::frobenius(a) * norm2(&v)).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu::matrix::gen;
    use calu::{MatrixSource, Solver};

    fn factor(algorithm: Algorithm, a: &DenseMatrix, b: usize) -> Factorization {
        Solver::new(MatrixSource::Dense(a.clone()))
            .algorithm(algorithm)
            .tile(b)
            .threads(2)
            .verify(false)
            .run()
            .expect("factorization")
            .factorization
            .expect("real backend returns factors")
    }

    #[test]
    fn probe_accepts_right_factors_and_rejects_corrupted_ones() {
        for (algorithm, a) in [
            (Algorithm::Calu, gen::uniform(96, 96, 3)),
            (Algorithm::Calu, gen::uniform(160, 48, 4)),
            (Algorithm::Cholesky, gen::spd_uniform(80, 5)),
        ] {
            let mut f = factor(algorithm, &a, 16);
            let good = probe_residual(algorithm, &a, &f, 1);
            assert!(good < RESIDUAL_TOL, "{algorithm}: {good:e}");
            let before = factor_hash(&f);
            let x = f.lu.get(40, 7);
            f.lu.set(40, 7, x + 1e-3);
            assert!(probe_residual(algorithm, &a, &f, 1) > 1e-7, "{algorithm}");
            assert_ne!(factor_hash(&f), before);
        }
    }

    #[test]
    fn hashes_repeat_across_runs_of_one_input() {
        let a = gen::uniform(128, 128, 9);
        let first = factor_hash(&factor(Algorithm::Calu, &a, 32));
        let second = factor_hash(&factor(Algorithm::Calu, &a, 32));
        assert_eq!(first, second, "scheduling never changes the math");
        assert_ne!(combine_hashes([1, 2]), combine_hashes([2, 1]));
    }

    #[test]
    fn splitmix_is_seeded_and_shuffle_permutes() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut xs: Vec<usize> = (0..50).collect();
        a.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
        let u = a.next_unit();
        assert!((-1.0..1.0).contains(&u));
    }
}
