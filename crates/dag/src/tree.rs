//! The shape of a panel's TSLU reduction tree (§2), read by both the
//! graph builder (one `PanelCombine` per step) and the executor.

/// One knockout match of the reduction tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombineStep {
    /// Tree level (1 = just above the leaves): the task's
    /// `PanelCombine { level, .. }`.
    pub level: u32,
    /// Position within the level: the task's `idx`. A promoted odd node
    /// consumes an index without producing a step.
    pub idx: u32,
    /// Input slot (left child).
    pub left: usize,
    /// Input slot (right child).
    pub right: usize,
    /// Output slot.
    pub out: usize,
}

/// The reduction over `nleaves` leaves: nodes are paired in chunks of
/// two, level by level, and an odd node is promoted unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlan {
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
            let mut next = Vec::new();
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

    /// The step of the task `PanelCombine { level, idx }` (steps are
    /// sorted by `(level, idx)`).
    pub fn step_for(&self, level: u32, idx: u32) -> &CombineStep {
        let at = self
            .steps
            .binary_search_by_key(&(level, idx), |s| (s.level, s.idx))
            .expect("combine step must exist for every DAG combine task");
        &self.steps[at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // level/idx addressing: the promoted node at level 1 consumed
        // idx 2; level 2 pairs idx 0 = (5,6), the promoted leaf 4 is
        // idx 1; level 3 pairs idx 0 = (7,4)
        assert_eq!(p5.step_for(1, 0).out, 5);
        assert_eq!(p5.step_for(1, 1).out, 6);
        assert_eq!(p5.step_for(2, 0).out, 7);
        assert_eq!(p5.step_for(3, 0).out, 8);
    }

    #[test]
    fn a_tree_over_n_leaves_has_n_minus_one_matches() {
        for leaves in 1..20 {
            let plan = TreePlan::new(leaves);
            assert_eq!(plan.steps.len(), leaves - 1, "{leaves} leaves");
            assert_eq!(plan.slots, 2 * leaves - 1, "{leaves} leaves");
        }
    }
}
