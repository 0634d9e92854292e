//! The CALU task dependency graph (§2–3, Figures 2 and 3 of the paper).
//!
//! The input matrix is partitioned into `b × b` tiles; the computation on
//! each tile is a task. The paper distinguishes four task kinds:
//!
//! * **P** — participates in the TSLU preprocessing of a panel. We model
//!   P at its natural granularity: one *leaf* per block row of the panel
//!   (local GEPP producing a pivot candidate) plus the *binary reduction
//!   tree* that merges candidates, ending in a *finish* task that applies
//!   the winning pivots and factors the diagonal tile.
//! * **L** — computes one tile of the panel's L factor (`A·U_KK⁻¹`).
//! * **U** — applies the panel's row swaps to one trailing column and
//!   computes its U tile (`L_KK⁻¹·A`).
//! * **S** — updates one trailing tile (`A −= L·U`), the BLAS-3 bulk.
//!
//! [`TaskGraph::build`] constructs the full DAG for an `m × n` matrix;
//! tasks are stored in a flat arena with CSR successor lists, and the
//! construction order is a topological order (every dependency precedes
//! its dependents), which the schedulers and the simulator exploit.

pub mod critical_path;
pub mod dot;
mod graph;
mod task;

pub use graph::{DagVariant, TaskGraph};
pub use task::{PaperKind, TaskId, TaskKind};
