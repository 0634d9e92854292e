//! Randomized-sweep structural tests of the task graphs (formerly
//! proptest; deterministic seeded sweeps in the hermetic workspace).

use calu_dag::critical_path::critical_path;
use calu_dag::{Algorithm, TaskGraph, TaskKind};
use calu_rand::Rng;

/// Structural invariants hold for every variant and shape.
#[test]
fn graphs_are_well_formed() {
    let mut rng = Rng::seed_from_u64(10);
    for _ in 0..24 {
        let mt = rng.gen_range(1..12);
        let nt = rng.gen_range(1..12);
        let stride = rng.gen_range(1..6);
        let m = (mt - 1) * 100 + 1 + rng.gen_range(0..99);
        let n = (nt - 1) * 100 + 1 + rng.gen_range(0..99);
        for g in [
            TaskGraph::build_calu(m, n, 100, stride),
            TaskGraph::build_gepp(m, n, 100),
            TaskGraph::build_incpiv(m, n, 100),
        ] {
            // topological arena order
            for t in g.ids() {
                for &s in g.successors(t) {
                    assert!(s.0 > t.0);
                }
            }
            // dep counts match incoming edges
            let mut incoming = vec![0u32; g.len()];
            for t in g.ids() {
                for &s in g.successors(t) {
                    incoming[s.idx()] += 1;
                }
            }
            for t in g.ids() {
                assert_eq!(incoming[t.idx()], g.dep_count(t));
            }
            // exactly one PanelFinish per panel
            let finishes = g
                .ids()
                .filter(|&t| matches!(g.kind(t), TaskKind::PanelFinish { .. }))
                .count();
            assert_eq!(finishes, g.num_panels());
            assert_eq!(g.num_panels(), g.tile_rows().min(g.tile_cols()));
        }
    }
}

/// The whole DAG is reachable: executing in arena order satisfies
/// every dependency (no lost tasks, no cycles by construction).
#[test]
fn arena_order_is_a_valid_schedule() {
    let mut rng = Rng::seed_from_u64(11);
    for _ in 0..24 {
        let mt = rng.gen_range(1..10);
        let nt = rng.gen_range(1..10);
        let stride = rng.gen_range(1..5);
        let g = TaskGraph::build_calu(mt * 64, nt * 64, 64, stride);
        let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
        for t in g.ids() {
            assert_eq!(deps[t.idx()], 0, "task not ready in arena order");
            for &s in g.successors(t) {
                deps[s.idx()] -= 1;
            }
        }
    }
}

/// S-task count matches the closed form Σ (M−k−1)(N−k−1).
#[test]
fn update_counts_closed_form() {
    for mt in 1..14 {
        for nt in [1usize, 2, 3, 5, 8, 13] {
            let g = TaskGraph::build(mt * 50, nt * 50, 50);
            let (_, _, _, s) = g.counts_by_kind();
            let expect: usize = (0..mt.min(nt)).map(|k| (mt - k - 1) * (nt - k - 1)).sum();
            assert_eq!(s, expect);
        }
    }
}

/// Critical path length is monotone in the subset: restricting tasks
/// can only shorten the longest path.
#[test]
fn critical_path_monotone() {
    for mt in 2..10 {
        for nstatic in 0..10 {
            let g = TaskGraph::build(mt * 64, mt * 64, 64);
            let full = critical_path(&g, |_| true, |_| 1.0);
            let sub = critical_path(&g, |t| g.kind(t).writes_tile().1 < nstatic, |_| 1.0);
            assert!(sub.length <= full.length);
        }
    }
}

/// GEPP variant has strictly fewer tasks than CALU (its panels are
/// single tasks).
#[test]
fn variant_task_counts() {
    for mt in 2..10 {
        let n = mt * 80;
        let calu = TaskGraph::build(n, n, 80);
        let gepp = TaskGraph::build_gepp(n, n, 80);
        assert!(gepp.len() < calu.len());
        assert_eq!(gepp.algorithm(), Algorithm::Gepp);
    }
}
