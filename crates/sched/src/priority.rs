//! Priority orders for ready queues.
//!
//! * The **static** order drives each thread's own queue: panel (P) tasks
//!   outrank everything (they sit on the critical path and enable
//!   look-ahead), then L, then U, then S; ties break toward earlier
//!   panels and leftmost columns.
//! * The **dynamic** order implements Algorithm 2's depth-first traversal
//!   of the dynamic section: columns are served left to right (`J`
//!   ascending), then by elimination step (`K` ascending), so execution
//!   "follows in priority the critical path when the algorithm reaches
//!   the dynamic section" (§3).
//!
//! Keys are `u64`; **smaller key = runs first**.

use calu_dag::TaskKind;

/// Rank of the paper kind in the static order (P < L < U < S).
#[inline]
fn kind_rank(k: &TaskKind) -> u64 {
    match k {
        TaskKind::PanelLeaf { .. } => 0,
        TaskKind::PanelCombine { .. } => 1,
        TaskKind::PanelFinish { .. } => 2,
        TaskKind::ComputeL { .. } => 3,
        TaskKind::ComputeU { .. } => 4,
        TaskKind::Update { .. } => 5,
    }
}

#[inline]
fn indices(k: &TaskKind) -> (u64, u64, u64) {
    match *k {
        TaskKind::PanelLeaf { k, i } => (k as u64, k as u64, i as u64),
        TaskKind::PanelCombine { k, level, idx } => {
            (k as u64, k as u64, ((level as u64) << 32) | idx as u64)
        }
        TaskKind::PanelFinish { k } => (k as u64, k as u64, 0),
        TaskKind::ComputeL { k, i } => (k as u64, k as u64, i as u64),
        TaskKind::ComputeU { k, j } => (k as u64, j as u64, 0),
        TaskKind::Update { k, i, j } => (k as u64, j as u64, i as u64),
    }
}

/// Static-section priority: `(kind, panel, column, row)` — any ready P
/// task beats any L, which beats U, which beats S.
#[inline]
pub fn static_key(kind: &TaskKind) -> u64 {
    let (k, j, i) = indices(kind);
    // bits: kind(3) | panel(20) | col(20) | row(20)
    (kind_rank(kind) << 60) | (k.min(0xFFFFF) << 40) | (j.min(0xFFFFF) << 20) | i.min(0xFFFFF)
}

/// Dynamic-section priority: `(column, panel, kind, row)` — the DFS
/// left-to-right column order of Algorithm 2.
#[inline]
pub fn dynamic_key(kind: &TaskKind) -> u64 {
    let (k, j, i) = indices(kind);
    (j.min(0xFFFFF) << 43) | (k.min(0xFFFFF) << 23) | (kind_rank(kind) << 20) | i.min(0xFFFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_order_puts_panels_first() {
        let p = TaskKind::PanelLeaf { k: 5, i: 6 };
        let s = TaskKind::Update { k: 0, i: 1, j: 1 };
        assert!(
            static_key(&p) < static_key(&s),
            "P beats S even for later panels"
        );
        let l = TaskKind::ComputeL { k: 2, i: 3 };
        let u = TaskKind::ComputeU { k: 2, j: 3 };
        assert!(static_key(&l) < static_key(&u));
        assert!(static_key(&u) < static_key(&s));
    }

    #[test]
    fn static_order_prefers_early_panels_within_kind() {
        let s1 = TaskKind::Update { k: 1, i: 2, j: 2 };
        let s2 = TaskKind::Update { k: 2, i: 3, j: 3 };
        assert!(static_key(&s1) < static_key(&s2));
        let s3 = TaskKind::Update { k: 1, i: 2, j: 5 };
        assert!(static_key(&s1) < static_key(&s3), "leftmost column first");
    }

    #[test]
    fn dynamic_order_is_column_major() {
        // Algorithm 2: for J ascending, for K ascending, U before S
        let u_col4 = TaskKind::ComputeU { k: 0, j: 4 };
        let s_col4 = TaskKind::Update { k: 0, i: 1, j: 4 };
        let u_col5 = TaskKind::ComputeU { k: 0, j: 5 };
        assert!(
            dynamic_key(&u_col4) < dynamic_key(&s_col4),
            "U before S in a column-step"
        );
        assert!(
            dynamic_key(&s_col4) < dynamic_key(&u_col5),
            "finish column 4 before column 5"
        );
        // within a column, earlier elimination steps first
        let s_k0 = TaskKind::Update { k: 0, i: 2, j: 6 };
        let u_k1 = TaskKind::ComputeU { k: 1, j: 6 };
        assert!(dynamic_key(&s_k0) < dynamic_key(&u_k1));
    }

    #[test]
    fn dynamic_order_runs_panel_tasks_of_their_column() {
        // P/L of panel k act on column k: they come before U/S of column k
        let p = TaskKind::PanelFinish { k: 4 };
        let u = TaskKind::ComputeU { k: 4, j: 5 };
        assert!(dynamic_key(&p) < dynamic_key(&u));
        let s_before = TaskKind::Update { k: 3, i: 5, j: 4 };
        assert!(
            dynamic_key(&s_before) < dynamic_key(&p),
            "column 4 updates precede its panel"
        );
    }

    #[test]
    fn keys_are_distinct_for_distinct_tasks() {
        let kinds = [
            TaskKind::PanelLeaf { k: 1, i: 1 },
            TaskKind::PanelLeaf { k: 1, i: 2 },
            TaskKind::PanelCombine {
                k: 1,
                level: 1,
                idx: 0,
            },
            TaskKind::PanelFinish { k: 1 },
            TaskKind::ComputeL { k: 1, i: 2 },
            TaskKind::ComputeU { k: 1, j: 2 },
            TaskKind::Update { k: 1, i: 2, j: 2 },
            TaskKind::Update { k: 1, i: 3, j: 2 },
        ];
        for keyf in [static_key as fn(&TaskKind) -> u64, dynamic_key] {
            let mut keys: Vec<u64> = kinds.iter().map(keyf).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), kinds.len());
        }
    }
}
