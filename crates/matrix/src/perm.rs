//! Row permutations in LAPACK `ipiv` style.
//!
//! A factorization produces a *sequence of row swaps*: at elimination step
//! `k` (global row index), row `k` was swapped with row `piv[k] >= k`.
//! Applying the swaps in order yields the permutation `P` with `P·A = L·U`.

use crate::dense::DenseMatrix;

/// A row permutation recorded as a sequence of swaps (LAPACK `ipiv`,
/// 0-based): step `k` swaps rows `start + k` and `piv[k]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowPerm {
    /// `piv[k]` is the global row swapped with row `offset + k` at step `k`.
    piv: Vec<usize>,
    /// Global row index of the first swap step.
    offset: usize,
}

impl RowPerm {
    /// Identity permutation (no swaps recorded).
    pub fn identity() -> Self {
        Self::default()
    }

    /// Create from raw 0-based pivot indices; swap `k` exchanges rows
    /// `offset + k` and `piv[k]`.
    pub fn from_pivots(offset: usize, piv: Vec<usize>) -> Self {
        for (k, &p) in piv.iter().enumerate() {
            assert!(
                p >= offset + k,
                "pivot {p} must be >= its step row {}",
                offset + k
            );
        }
        Self { piv, offset }
    }

    /// Number of recorded swap steps.
    pub fn len(&self) -> usize {
        self.piv.len()
    }

    /// True if no swaps are recorded.
    pub fn is_empty(&self) -> bool {
        self.piv.is_empty()
    }

    /// Row index of the first swap step.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The raw pivot indices.
    pub fn pivots(&self) -> &[usize] {
        &self.piv
    }

    /// Append another permutation recorded *after* this one (its offset
    /// must follow ours contiguously or beyond).
    pub fn extend(&mut self, other: &RowPerm) {
        if self.piv.is_empty() {
            self.offset = other.offset;
            self.piv = other.piv.clone();
            return;
        }
        assert_eq!(
            other.offset,
            self.offset + self.piv.len(),
            "extend requires contiguous swap steps"
        );
        self.piv.extend_from_slice(&other.piv);
    }

    /// Apply the swaps (in recorded order) to the rows of `a`.
    pub fn apply(&self, a: &mut DenseMatrix) {
        for (k, &p) in self.piv.iter().enumerate() {
            a.swap_rows(self.offset + k, p);
        }
    }

    /// Apply the inverse permutation (swaps in reverse order).
    pub fn apply_inverse(&self, a: &mut DenseMatrix) {
        for (k, &p) in self.piv.iter().enumerate().rev() {
            a.swap_rows(self.offset + k, p);
        }
    }

    /// Explicit permutation vector `perm` of length `n` such that
    /// `(P·A)[i] = A[perm[i]]`.
    pub fn explicit(&self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for (k, &p) in self.piv.iter().enumerate() {
            perm.swap(self.offset + k, p);
        }
        perm
    }

    /// Permute a dense matrix into a new one (`P·A`).
    pub fn permuted(&self, a: &DenseMatrix) -> DenseMatrix {
        let p = self.explicit(a.rows());
        crate::ops::permute_rows(a, &p)
    }

    /// Parity of the permutation: `+1.0` for even, `-1.0` for odd — the
    /// determinant sign contribution.
    pub fn sign(&self) -> f64 {
        let swaps = self
            .piv
            .iter()
            .enumerate()
            .filter(|(k, &p)| p != self.offset + *k)
            .count();
        if swaps % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn identity_changes_nothing() {
        let a = gen::uniform(5, 5, 1);
        let mut b = a.clone();
        RowPerm::identity().apply(&mut b);
        assert!(a.approx_eq(&b, 0.0));
        assert_eq!(RowPerm::identity().explicit(4), vec![0, 1, 2, 3]);
        assert_eq!(RowPerm::identity().sign(), 1.0);
    }

    #[test]
    fn single_swap() {
        let p = RowPerm::from_pivots(0, vec![2]);
        let a = DenseMatrix::from_rows(3, 1, &[10.0, 20.0, 30.0]).unwrap();
        let b = p.permuted(&a);
        assert_eq!(b.get(0, 0), 30.0);
        assert_eq!(b.get(2, 0), 10.0);
        assert_eq!(p.sign(), -1.0);
    }

    #[test]
    fn apply_then_inverse_is_identity() {
        let p = RowPerm::from_pivots(0, vec![3, 2, 4, 4]);
        let a = gen::uniform(6, 4, 2);
        let mut b = a.clone();
        p.apply(&mut b);
        p.apply_inverse(&mut b);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn explicit_matches_apply() {
        let p = RowPerm::from_pivots(1, vec![4, 2, 3]);
        let a = gen::uniform(5, 3, 3);
        let via_apply = {
            let mut b = a.clone();
            p.apply(&mut b);
            b
        };
        let via_explicit = p.permuted(&a);
        assert!(via_apply.approx_eq(&via_explicit, 0.0));
    }

    #[test]
    fn extend_concatenates_steps() {
        let mut p = RowPerm::from_pivots(0, vec![1, 1]);
        let q = RowPerm::from_pivots(2, vec![3]);
        p.extend(&q);
        assert_eq!(p.len(), 3);
        assert_eq!(p.pivots(), &[1, 1, 3]);
        let mut empty = RowPerm::identity();
        empty.extend(&q);
        assert_eq!(empty.offset(), 2);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn extend_rejects_gaps() {
        let mut p = RowPerm::from_pivots(0, vec![0]);
        let q = RowPerm::from_pivots(5, vec![5]);
        p.extend(&q);
    }

    #[test]
    #[should_panic(expected = "must be >=")]
    fn from_pivots_validates() {
        RowPerm::from_pivots(2, vec![0]);
    }

    #[test]
    fn sign_counts_real_swaps_only() {
        // pivots equal to their own row are no-ops
        let p = RowPerm::from_pivots(0, vec![0, 1, 2]);
        assert_eq!(p.sign(), 1.0);
        let p = RowPerm::from_pivots(0, vec![1, 1, 2]);
        assert_eq!(p.sign(), -1.0);
    }
}
