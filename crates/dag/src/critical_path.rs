//! Longest (critical) paths through the task graph.
//!
//! The hybrid scheduler creates *two* critical paths (§3, Figure 3): the
//! path of the statically scheduled subgraph — which coincides with the
//! critical path of the whole CALU DAG — and the path of the dynamically
//! scheduled subgraph. [`critical_path`] computes the longest path under
//! an arbitrary task-cost function restricted to an arbitrary subset of
//! tasks, which covers both.

use crate::graph::TaskGraph;
use crate::task::TaskId;

/// Result of a longest-path computation.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Total weight along the path.
    pub length: f64,
    /// The tasks on the path, in execution order.
    pub tasks: Vec<TaskId>,
}

/// Longest path through the subgraph of tasks for which `include` returns
/// true, with per-task weights from `cost`. Returns a zero path if the
/// subset is empty.
///
/// Runs in `O(V + E)` over the topologically ordered arena.
pub fn critical_path(
    g: &TaskGraph,
    mut include: impl FnMut(TaskId) -> bool,
    mut cost: impl FnMut(TaskId) -> f64,
) -> CriticalPath {
    let n = g.len();
    let mut dist = vec![f64::NEG_INFINITY; n];
    let mut pred: Vec<Option<TaskId>> = vec![None; n];
    let mut best_end: Option<TaskId> = None;
    let mut best = f64::NEG_INFINITY;

    for t in g.ids() {
        if !include(t) {
            continue;
        }
        if dist[t.idx()] == f64::NEG_INFINITY {
            // source within the subset
            dist[t.idx()] = cost(t);
        }
        let d = dist[t.idx()];
        if d > best {
            best = d;
            best_end = Some(t);
        }
        for &s in g.successors(t) {
            if !include(s) {
                continue;
            }
            let cand = d + cost(s);
            if cand > dist[s.idx()] {
                dist[s.idx()] = cand;
                pred[s.idx()] = Some(t);
            }
        }
    }

    let Some(mut cur) = best_end else {
        return CriticalPath {
            length: 0.0,
            tasks: vec![],
        };
    };
    let mut tasks = vec![cur];
    while let Some(p) = pred[cur.idx()] {
        tasks.push(p);
        cur = p;
    }
    tasks.reverse();
    CriticalPath {
        length: best,
        tasks,
    }
}

/// Critical path of the *entire* DAG with unit task costs (a pure
/// dependency-depth measure).
pub fn unit_critical_path(g: &TaskGraph) -> CriticalPath {
    critical_path(g, |_| true, |_| 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    #[test]
    fn unit_path_on_single_tile() {
        let g = TaskGraph::build(50, 50, 100);
        let cp = unit_critical_path(&g);
        assert_eq!(cp.length, 2.0); // leaf -> finish
        assert_eq!(cp.tasks.len(), 2);
    }

    #[test]
    fn path_is_a_chain_of_edges() {
        let g = TaskGraph::build(400, 400, 100);
        let cp = unit_critical_path(&g);
        for w in cp.tasks.windows(2) {
            assert!(
                g.successors(w[0]).contains(&w[1]),
                "consecutive path tasks must be linked"
            );
        }
        assert_eq!(cp.length as usize, cp.tasks.len());
    }

    #[test]
    fn path_grows_with_matrix_size() {
        let small = unit_critical_path(&TaskGraph::build(300, 300, 100));
        let large = unit_critical_path(&TaskGraph::build(800, 800, 100));
        assert!(large.length > small.length);
    }

    #[test]
    fn path_starts_at_a_source_and_ends_at_a_sink() {
        let g = TaskGraph::build(500, 500, 100);
        let cp = unit_critical_path(&g);
        let first = cp.tasks[0];
        let last = *cp.tasks.last().unwrap();
        assert_eq!(g.dep_count(first), 0);
        assert!(g.successors(last).is_empty());
        // CALU's critical path ends in the last panel's finish
        assert!(matches!(g.kind(last), TaskKind::PanelFinish { .. }));
    }

    #[test]
    fn weighted_path_prefers_heavy_tasks() {
        let g = TaskGraph::build(400, 400, 100);
        // make updates enormously expensive: the path must route through S
        let cp = critical_path(
            &g,
            |_| true,
            |t| match g.kind(t) {
                TaskKind::Update { .. } => 1000.0,
                _ => 1.0,
            },
        );
        let n_updates = cp
            .tasks
            .iter()
            .filter(|&&t| matches!(g.kind(t), TaskKind::Update { .. }))
            .count();
        assert!(n_updates >= 3, "heavy S tasks must be on the path");
    }

    #[test]
    fn restricted_subgraph_paths() {
        // Fig 3: static path over panels < Nstatic, dynamic path over the rest
        let g = TaskGraph::build(400, 400, 100);
        let nstatic = 3;
        let stat = critical_path(&g, |t| g.kind(t).writes_tile().1 < nstatic, |_| 1.0);
        let dyn_ = critical_path(&g, |t| g.kind(t).writes_tile().1 >= nstatic, |_| 1.0);
        assert!(stat.length > 0.0);
        assert!(dyn_.length > 0.0);
        // the two subsets are disjoint
        for t in &stat.tasks {
            assert!(g.kind(*t).writes_tile().1 < nstatic);
        }
        for t in &dyn_.tasks {
            assert!(g.kind(*t).writes_tile().1 >= nstatic);
        }
        // whole-graph path at least as long as either restriction
        let full = unit_critical_path(&g);
        assert!(full.length >= stat.length);
        assert!(full.length >= dyn_.length);
    }

    #[test]
    fn empty_subset_gives_zero_path() {
        let g = TaskGraph::build(300, 300, 100);
        let cp = critical_path(&g, |_| false, |_| 1.0);
        assert_eq!(cp.length, 0.0);
        assert!(cp.tasks.is_empty());
    }
}
