//! Row interchanges (`dlaswp`): applies a recorded pivot sequence to the
//! columns of a block — the "right swap" / "left swap" steps of
//! Algorithm 1.

/// Apply the swap sequence to an `? × n` column-major block: for each
/// `k`, rows `first + k` and `piv[k]` are exchanged (both indices are
/// rows *of this block*). Swaps are applied in ascending `k`, matching
/// LAPACK `dlaswp` with increment 1.
pub fn dlaswp(n: usize, a: &mut [f64], lda: usize, first: usize, piv: &[usize]) {
    if n == 0 || piv.is_empty() {
        return;
    }
    let max_row = piv
        .iter()
        .copied()
        .chain(std::iter::once(first + piv.len() - 1))
        .max()
        .unwrap();
    assert!(
        lda > max_row,
        "lda must exceed the largest swapped row index"
    );
    assert!(
        a.len() > (n - 1) * lda + max_row,
        "block too short for swaps"
    );
    for (k, &p) in piv.iter().enumerate() {
        let r = first + k;
        if p == r {
            continue;
        }
        for j in 0..n {
            a.swap(j * lda + r, j * lda + p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::DenseMatrix;

    #[test]
    fn matches_manual_swaps() {
        let mut a = DenseMatrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let ld = a.ld();
        dlaswp(2, a.as_mut_slice(), ld, 0, &[2, 1]);
        // step 0: swap rows 0,2 -> [5 6; 3 4; 1 2]; step 1: swap rows 1,1 (noop)
        let want = DenseMatrix::from_rows(3, 2, &[5.0, 6.0, 3.0, 4.0, 1.0, 2.0]).unwrap();
        assert!(a.approx_eq(&want, 0.0));
    }

    #[test]
    fn first_offsets_swap_rows() {
        let mut a = DenseMatrix::from_rows(4, 1, &[0.0, 1.0, 2.0, 3.0]).unwrap();
        let ld = a.ld();
        // swap step for k=0 exchanges rows first+0=2 and piv[0]=3
        dlaswp(1, a.as_mut_slice(), ld, 2, &[3]);
        assert_eq!(a.get(2, 0), 3.0);
        assert_eq!(a.get(3, 0), 2.0);
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut a: Vec<f64> = vec![1.0, 2.0];
        dlaswp(0, &mut a, 2, 0, &[1]);
        dlaswp(1, &mut a, 2, 0, &[]);
        assert_eq!(a, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "lda")]
    fn rejects_out_of_range_rows() {
        let mut a = vec![0.0; 4];
        dlaswp(1, &mut a, 2, 0, &[5]);
    }
}
