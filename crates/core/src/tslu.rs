//! TSLU — tournament pivoting for tall-skinny panels (§2).
//!
//! The panel's rows are split into chunks; each chunk elects `w`
//! candidate rows by Gaussian elimination with partial pivoting (the
//! "best available sequential algorithm" — we use recursive LU, like the
//! paper); candidates meet in a binary knockout tree whose matches are
//! again GEPP on the two stacked candidate sets. The winners are pivots
//! for the whole panel, selected with one reduction instead of one
//! synchronization per column.

use calu_kernels::{dgetrf_recursive_packed, GemmScratch};
use calu_matrix::DenseMatrix;

/// A candidate set: up to `w` rows with their original values and the
/// row indices they came from (indices are whatever space the caller
/// works in — local to the panel here, global in the executor).
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// Original (unfactored) values of the candidate rows, `len × w`.
    pub rows: DenseMatrix,
    /// Source index of each candidate row.
    pub ids: Vec<usize>,
}

impl Candidate {
    /// Elect up to `w = block.cols()` pivot candidates by GEPP.
    ///
    /// `block` holds the rows' values (`r × w`) and is consumed as the
    /// elimination's scratch; `ids` are the rows' source indices.
    /// `original(i, j)` reads the *unfactored* value of block row `i` —
    /// asked only for the winners — because candidates are never
    /// partially eliminated. `scratch` is the caller's packing arena
    /// (a worker's own, like every other BLAS-3 task body).
    pub fn elect(
        mut block: DenseMatrix,
        ids: &[usize],
        original: impl Fn(usize, usize) -> f64,
        scratch: &mut GemmScratch,
    ) -> Candidate {
        assert_eq!(block.rows(), ids.len(), "one id per row");
        let (r, w, ld) = (block.rows(), block.cols(), block.ld());
        let keep = w.min(r);
        let piv = dgetrf_recursive_packed(r, w, block.as_mut_slice(), ld, scratch);
        // replay the swap sequence on the id list
        let mut order: Vec<usize> = (0..r).collect();
        for (k, &p) in piv.piv.iter().enumerate() {
            order.swap(k, p);
        }
        let rows = DenseMatrix::from_fn(keep, w, |i, j| original(order[i], j));
        let ids = order[..keep].iter().map(|&i| ids[i]).collect();
        Candidate { rows, ids }
    }

    /// Play one knockout match: stack two candidate sets and elect again.
    pub fn combine(a: &Candidate, b: &Candidate, scratch: &mut GemmScratch) -> Candidate {
        let na = a.ids.len();
        let value = |i: usize, j: usize| {
            if i < na {
                a.rows.get(i, j)
            } else {
                b.rows.get(i - na, j)
            }
        };
        let stacked = DenseMatrix::from_fn(na + b.ids.len(), a.rows.cols(), value);
        let ids: Vec<usize> = a.ids.iter().chain(b.ids.iter()).copied().collect();
        Candidate::elect(stacked, &ids, value, scratch)
    }
}

/// One knockout match of the reduction tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CombineStep {
    /// Tree level (1 = just above the leaves) — matches the DAG's
    /// `PanelCombine { level, .. }`.
    pub level: u32,
    /// Position within the level — matches the DAG's `idx` (promoted odd
    /// nodes consume an index without producing a step, exactly like the
    /// DAG builder).
    pub idx: u32,
    /// Input slot (left child).
    pub left: usize,
    /// Input slot (right child).
    pub right: usize,
    /// Output slot.
    pub out: usize,
}

/// The shape of the reduction tree for `nleaves` leaves — built exactly
/// like the DAG builder pairs nodes (chunks of two, odd node promoted),
/// so the threaded executor and the task graph agree on structure.
#[derive(Debug, Clone)]
pub(crate) struct TreePlan {
    /// Combine steps in execution order; slots `0..nleaves` are leaves,
    /// combines allocate new slots upward.
    pub steps: Vec<CombineStep>,
    /// Slot holding the final winner.
    pub root: usize,
    /// Total slots (leaves + combines).
    pub slots: usize,
}

impl TreePlan {
    /// Plan the reduction over `nleaves` leaves (must be > 0).
    pub fn new(nleaves: usize) -> TreePlan {
        assert!(nleaves > 0, "tree needs at least one leaf");
        let mut steps = Vec::new();
        let mut level_nodes: Vec<usize> = (0..nleaves).collect();
        let mut next_slot = nleaves;
        let mut level = 1u32;
        while level_nodes.len() > 1 {
            let mut next = Vec::with_capacity(level_nodes.len().div_ceil(2));
            for (idx, pair) in level_nodes.chunks(2).enumerate() {
                if pair.len() == 2 {
                    steps.push(CombineStep {
                        level,
                        idx: idx as u32,
                        left: pair[0],
                        right: pair[1],
                        out: next_slot,
                    });
                    next.push(next_slot);
                    next_slot += 1;
                } else {
                    next.push(pair[0]);
                }
            }
            level_nodes = next;
            level += 1;
        }
        TreePlan {
            steps,
            root: level_nodes[0],
            slots: next_slot,
        }
    }

    /// Find the step for the DAG task `PanelCombine { level, idx }`.
    pub fn step_for(&self, level: u32, idx: u32) -> &CombineStep {
        self.steps
            .iter()
            .find(|s| s.level == level && s.idx == idx)
            .expect("combine step must exist for every DAG combine task")
    }
}

/// Run the whole tournament sequentially on a dense panel (`rows × w`):
/// split rows into `nchunks` contiguous chunks, elect per chunk, reduce.
/// Returns the selected pivot rows as indices into the panel (`0-based`,
/// `min(rows, w)` of them).
pub fn tournament_pivots(panel: &DenseMatrix, nchunks: usize) -> Vec<usize> {
    let rows = panel.rows();
    let w = panel.cols();
    assert!(rows > 0 && w > 0, "empty panel");
    let nchunks = nchunks.clamp(1, rows);
    let chunk = rows.div_ceil(nchunks);

    let mut scratch = GemmScratch::new();
    let mut slots: Vec<Option<Candidate>> = Vec::new();
    let mut r0 = 0;
    while r0 < rows {
        let len = chunk.min(rows - r0);
        let block = panel.submatrix(r0, 0, len, w);
        let ids: Vec<usize> = (r0..r0 + len).collect();
        let original = |i, j| panel.get(r0 + i, j);
        slots.push(Some(Candidate::elect(block, &ids, original, &mut scratch)));
        r0 += len;
    }
    let plan = TreePlan::new(slots.len());
    slots.resize(plan.slots, None);
    for s in &plan.steps {
        let a = slots[s.left].take().expect("left child ready");
        let b = slots[s.right].take().expect("right child ready");
        slots[s.out] = Some(Candidate::combine(&a, &b, &mut scratch));
    }
    slots[plan.root].take().expect("root").ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::gen;

    #[test]
    fn tree_plan_shapes() {
        let p1 = TreePlan::new(1);
        assert!(p1.steps.is_empty());
        assert_eq!(p1.root, 0);
        let p2 = TreePlan::new(2);
        assert_eq!(p2.steps.len(), 1);
        assert_eq!(
            (p2.steps[0].left, p2.steps[0].right, p2.steps[0].out),
            (0, 1, 2)
        );
        assert_eq!(p2.root, 2);
        // 5 leaves: (0,1)->5, (2,3)->6, 4 promoted; (5,6)->7, 4 promoted;
        // (7,4)->8
        let p5 = TreePlan::new(5);
        let triples: Vec<_> = p5.steps.iter().map(|s| (s.left, s.right, s.out)).collect();
        assert_eq!(triples, vec![(0, 1, 5), (2, 3, 6), (5, 6, 7), (7, 4, 8)]);
        assert_eq!(p5.root, 8);
        assert_eq!(p5.slots, 9);
        // level/idx addressing matches the DAG's enumeration (promoted
        // node at level 1 consumed idx 2; level 2 pairs idx 0 = (5,6),
        // the promoted leaf 4 is idx 1; level 3 pairs idx 0 = (7,4))
        assert_eq!(p5.step_for(1, 0).out, 5);
        assert_eq!(p5.step_for(1, 1).out, 6);
        assert_eq!(p5.step_for(2, 0).out, 7);
        assert_eq!(p5.step_for(3, 0).out, 8);
    }

    #[test]
    fn tree_plan_matches_dag_combine_count() {
        for leaves in 1..20 {
            let plan = TreePlan::new(leaves);
            assert_eq!(plan.steps.len(), leaves - 1, "{leaves} leaves");
        }
    }

    #[test]
    fn single_chunk_matches_gepp() {
        // with one chunk the tournament IS plain GEPP candidate election
        let a = gen::uniform(20, 4, 3);
        let piv = tournament_pivots(&a, 1);
        assert_eq!(piv.len(), 4);
        // GEPP's first pivot is the largest entry of column 0
        let max0 = (0..20)
            .max_by(|&i, &j| a.get(i, 0).abs().total_cmp(&a.get(j, 0).abs()))
            .unwrap();
        assert_eq!(piv[0], max0);
    }

    #[test]
    fn pivots_are_distinct_and_in_range() {
        for (rows, w, chunks, seed) in [(32, 8, 4, 1), (50, 5, 7, 2), (16, 16, 2, 3), (9, 3, 3, 4)]
        {
            let a = gen::uniform(rows, w, seed);
            let piv = tournament_pivots(&a, chunks);
            assert_eq!(piv.len(), w.min(rows));
            let mut sorted = piv.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), piv.len(), "duplicate pivot rows");
            assert!(piv.iter().all(|&r| r < rows));
        }
    }

    #[test]
    fn tournament_first_pivot_is_global_max_of_first_column() {
        // The first tournament winner always carries the panel's largest
        // first-column magnitude: it wins every local match.
        for chunks in [1, 2, 3, 8] {
            let a = gen::uniform(64, 6, 77);
            let piv = tournament_pivots(&a, chunks);
            let max0 = (0..64)
                .max_by(|&i, &j| a.get(i, 0).abs().total_cmp(&a.get(j, 0).abs()))
                .unwrap();
            assert_eq!(piv[0], max0, "chunks = {chunks}");
        }
    }

    #[test]
    fn tournament_pivot_block_is_nonsingular() {
        // the selected rows must form a well-conditioned w×w block for
        // random matrices: LU without pivoting on it succeeds
        let a = gen::uniform(40, 8, 9);
        let piv = tournament_pivots(&a, 5);
        let block = DenseMatrix::from_fn(8, 8, |i, j| a.get(piv[i], j));
        let mut f = block.clone();
        let ld = f.ld();
        let s = calu_kernels::lu_nopiv_unblocked(8, 8, f.as_mut_slice(), ld);
        assert!(s.is_none(), "pivot block must factor without pivoting");
        // and its diagonal pivots are not tiny
        for t in 0..8 {
            assert!(f.get(t, t).abs() > 1e-8);
        }
    }

    #[test]
    fn candidate_elect_keeps_original_values() {
        let a = gen::uniform(10, 3, 5);
        let ids: Vec<usize> = (100..110).collect();
        let original = |i, j| a.get(i, j);
        let c = Candidate::elect(a.clone(), &ids, original, &mut GemmScratch::new());
        assert_eq!(c.ids.len(), 3);
        for (t, &id) in c.ids.iter().enumerate() {
            let src = id - 100;
            for j in 0..3 {
                assert_eq!(c.rows.get(t, j), a.get(src, j), "values must be pristine");
            }
        }
    }

    #[test]
    fn short_panel_fewer_rows_than_width() {
        let a = gen::uniform(2, 2, 8);
        let piv = tournament_pivots(&a, 4);
        assert_eq!(piv.len(), 2);
    }

    #[test]
    fn wilkinson_growth_bounded_like_gepp() {
        // on Wilkinson's matrix tournament pivoting may pick different
        // pivots than GEPP but must still select distinct usable rows
        let a = gen::wilkinson(32);
        let panel = a.submatrix(0, 0, 32, 8);
        let piv = tournament_pivots(&panel, 4);
        assert_eq!(piv.len(), 8);
    }
}
