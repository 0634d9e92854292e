//! From tournament winners to swap sequences.
//!
//! TSLU returns the *set* of global rows selected as pivots for a panel;
//! the factorization needs that as a LAPACK-style sequence of row swaps
//! `Π_K` that moves those rows into the diagonal block (§2: "these pivots
//! are permuted into the diagonal positions").

use calu_matrix::RowPerm;

/// Build the swap sequence that brings `selected[t]` (global row ids, all
/// `>= base`) to row `base + t`, for `t = 0..selected.len()`, emulating
/// the swaps being applied in order.
///
/// Only the `w = selected.len()` rows and positions of the window
/// `base..base + w` ever hold a displaced row (a swap's source takes the
/// occupant of a target, and every target is in the window), so two
/// window-sized tables track who sits where; a row below the window sits
/// at its own index until it is selected.
///
/// Panics if a selected row is out of range or repeated.
pub fn swaps_for_selection(base: usize, selected: &[usize]) -> RowPerm {
    let w = selected.len();
    // the occupant of window position base + p, and the position of
    // window row base + r
    let mut row_at: Vec<usize> = (base..base + w).collect();
    let mut pos_of = row_at.clone();
    let in_window = |x: usize| (x < base + w).then(|| x - base);

    let mut piv = Vec::with_capacity(w);
    for (t, &row) in selected.iter().enumerate() {
        assert!(
            row >= base,
            "selected row {row} above the panel base {base}"
        );
        let target = base + t;
        let src = match in_window(row) {
            Some(r) => pos_of[r],
            // a row below the window moves only when it is selected
            None => {
                assert!(!selected[..t].contains(&row), "row {row} selected twice");
                row
            }
        };
        assert!(src >= target, "row {row} selected twice");
        piv.push(src);
        // swap the occupants of `target` and `src`; the one displaced
        // from a not yet filled target is always a window row
        let displaced = row_at[t];
        row_at[t] = row;
        if let Some(s) = in_window(src) {
            row_at[s] = displaced;
        }
        if let Some(r) = in_window(row) {
            pos_of[r] = target;
        }
        pos_of[displaced - base] = src;
    }
    RowPerm::from_pivots(base, piv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::DenseMatrix;

    /// after applying the swaps, rows base..base+w of the matrix must be
    /// exactly the selected rows, in order
    fn check(base: usize, selected: &[usize], nrows: usize) {
        let a = DenseMatrix::from_fn(nrows, 1, |i, _| i as f64);
        let perm = swaps_for_selection(base, selected);
        let p = perm.permuted(&a);
        for (t, &row) in selected.iter().enumerate() {
            assert_eq!(
                p.get(base + t, 0),
                row as f64,
                "selection {selected:?} base {base}"
            );
        }
    }

    #[test]
    fn identity_selection() {
        check(0, &[0, 1, 2], 5);
        let perm = swaps_for_selection(0, &[0, 1, 2]);
        assert_eq!(perm.pivots(), &[0, 1, 2]); // all no-op swaps
    }

    #[test]
    fn simple_selection() {
        check(0, &[3, 1], 5);
        check(0, &[4, 3, 2], 6);
    }

    #[test]
    fn selection_with_base_offset() {
        check(2, &[5, 2, 4], 8);
        check(3, &[3, 7], 8);
    }

    #[test]
    fn selection_that_displaces_earlier_targets() {
        // selecting row that currently holds a displaced occupant
        check(0, &[2, 0, 1], 4);
        check(0, &[1, 0], 3);
        check(0, &[3, 2, 1, 0], 4);
    }

    #[test]
    fn long_random_selection() {
        // deterministic shuffle of 0..16 taken 8 at a time
        let sel = [9, 3, 15, 0, 7, 12, 4, 11];
        check(0, &sel, 16);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn rejects_duplicates() {
        swaps_for_selection(0, &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn rejects_duplicates_below_the_window() {
        swaps_for_selection(4, &[9, 4, 9]);
    }

    /// The map-based construction the tables replaced: the oracle.
    fn swaps_by_maps(base: usize, selected: &[usize]) -> Vec<usize> {
        use std::collections::HashMap;
        let mut pos_of: HashMap<usize, usize> = HashMap::new();
        let mut row_at: HashMap<usize, usize> = HashMap::new();
        let mut piv = Vec::with_capacity(selected.len());
        for (t, &row) in selected.iter().enumerate() {
            let target = base + t;
            let src = *pos_of.get(&row).unwrap_or(&row);
            piv.push(src);
            let displaced = *row_at.get(&target).unwrap_or(&target);
            row_at.insert(target, row);
            row_at.insert(src, displaced);
            pos_of.insert(row, target);
            pos_of.insert(displaced, src);
        }
        piv
    }

    #[test]
    fn tables_match_the_map_oracle_over_seeded_selections() {
        let mut rng = calu_rand::Rng::seed_from_u64(2024);
        for w in [16usize, 32, 100] {
            for base in [0usize, 1, 37, 640] {
                // draw from the window's neighbourhood (dense: chains of
                // displaced rows) and from a tall panel (sparse)
                for span in [w, w + 3, 2 * w, 40 * w] {
                    for _ in 0..8 {
                        let mut rows: Vec<usize> = (base..base + span).collect();
                        for t in 0..w {
                            let x = rng.gen_range(t..span);
                            rows.swap(t, x);
                        }
                        let sel = &rows[..w];
                        let ctx = format!("w={w} base={base} span={span} {sel:?}");
                        let got = swaps_for_selection(base, sel);
                        assert_eq!(got.pivots(), swaps_by_maps(base, sel), "{ctx}");
                        check(base, sel, base + span);
                    }
                }
                // the window reversed: every swap displaces a row that a
                // later one selects again from its new place
                let rev: Vec<usize> = (base..base + w).rev().collect();
                let got = swaps_for_selection(base, &rev);
                assert_eq!(got.pivots(), swaps_by_maps(base, &rev), "w={w} base={base}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "above the panel base")]
    fn rejects_rows_above_base() {
        swaps_for_selection(3, &[1]);
    }
}
