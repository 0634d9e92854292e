//! Export the CALU task DAG (Figure 3) as Graphviz DOT and print its
//! critical-path statistics.
//!
//! ```sh
//! cargo run --release --example dag_visualize > calu_dag.dot
//! dot -Tsvg calu_dag.dot -o calu_dag.svg
//! ```

use calu::dag::critical_path::{critical_path, unit_critical_path};
use calu::dag::{dot, TaskGraph};

fn main() {
    let g = TaskGraph::build_calu(400, 400, 100, 2);
    let nstatic = 3; // static(25% dynamic) on 4 panels

    // DOT on stdout
    println!("{}", dot::to_dot(&g, nstatic));

    // stats on stderr so the DOT stays pipeable
    let full = unit_critical_path(&g);
    let stat = critical_path(&g, |t| g.kind(t).writes_tile().1 < nstatic, |_| 1.0);
    let dynamic = critical_path(&g, |t| g.kind(t).writes_tile().1 >= nstatic, |_| 1.0);
    eprintln!("tasks: {}   edges: {}", g.len(), g.num_edges());
    eprintln!(
        "critical path (tasks): whole {}  static section {}  dynamic section {}",
        full.length, stat.length, dynamic.length
    );
    eprintln!("the two highlighted paths are the red/green paths of Figure 3");
}
