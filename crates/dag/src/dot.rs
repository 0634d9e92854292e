//! Graphviz (DOT) export of the task graph — regenerates Figure 3.
//!
//! Tasks are colored by paper kind; the critical path of the static
//! section is drawn with red edges and the critical path of the dynamic
//! section with green edges, matching the figure.

use crate::critical_path::critical_path;
use crate::graph::TaskGraph;
use crate::task::{PaperKind, TaskId};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Render the DAG as DOT. `nstatic` is the panel count of the static
/// section (tasks writing columns `< nstatic` are static); pass
/// `g.num_panels()` for a fully static rendering.
pub fn to_dot(g: &TaskGraph, nstatic: usize) -> String {
    let is_static = |t: TaskId| g.kind(t).writes_tile().1 < nstatic;

    let static_cp = critical_path(g, is_static, |_| 1.0);
    let dynamic_cp = critical_path(g, |t| !is_static(t), |_| 1.0);
    let path_edges = |cp: &crate::critical_path::CriticalPath| -> HashSet<(u32, u32)> {
        cp.tasks.windows(2).map(|w| (w[0].0, w[1].0)).collect()
    };
    let red = path_edges(&static_cp);
    let green = path_edges(&dynamic_cp);

    let mut out = String::new();
    out.push_str("digraph calu {\n  rankdir=TB;\n  node [style=filled, fontname=\"monospace\"];\n");
    for t in g.ids() {
        let kind = g.kind(t);
        let color = match kind.paper_kind() {
            PaperKind::P => "lightsalmon",
            PaperKind::L => "khaki",
            PaperKind::U => "lightblue",
            PaperKind::S => "palegreen",
        };
        let shape = if is_static(t) { "box" } else { "ellipse" };
        let _ = writeln!(
            out,
            "  t{} [label=\"{}\", fillcolor={}, shape={}];",
            t.0, kind, color, shape
        );
    }
    for t in g.ids() {
        for &s in g.successors(t) {
            let attr = if red.contains(&(t.0, s.0)) {
                " [color=red, penwidth=2.0]"
            } else if green.contains(&(t.0, s.0)) {
                " [color=green, penwidth=2.0]"
            } else {
                ""
            };
            let _ = writeln!(out, "  t{} -> t{}{};", t.0, s.0, attr);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_all_tasks_and_edges() {
        let g = TaskGraph::build(400, 400, 100);
        let dot = to_dot(&g, 3);
        assert!(dot.starts_with("digraph"));
        // every task declared
        for t in g.ids() {
            assert!(dot.contains(&format!("t{} [", t.0)));
        }
        // edges counted
        let arrow_count = dot.matches(" -> ").count();
        assert_eq!(arrow_count, g.num_edges());
    }

    #[test]
    fn both_critical_paths_highlighted() {
        let g = TaskGraph::build(400, 400, 100);
        let dot = to_dot(&g, 3);
        assert!(dot.contains("color=red"), "static critical path missing");
        assert!(dot.contains("color=green"), "dynamic critical path missing");
    }

    #[test]
    fn fully_static_has_no_green() {
        let g = TaskGraph::build(400, 400, 100);
        let dot = to_dot(&g, g.num_panels());
        assert!(dot.contains("color=red"));
        assert!(!dot.contains("color=green"));
    }

    #[test]
    fn shapes_split_static_dynamic() {
        let g = TaskGraph::build(400, 400, 100);
        let dot = to_dot(&g, 2);
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=ellipse"));
    }
}
