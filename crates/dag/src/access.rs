//! The access table: what each task reads and writes, the one place a
//! task's footprint is written down. The graph builder infers every edge
//! from it. Bouwmeester (arXiv 1303.3182) tabulates the tiled kernels'
//! read/write sets the same way, and QUARK, the PLASMA runtime, infers
//! its edges from such declarations in program order.

use crate::graph::{Algorithm, TaskGraph};
use crate::task::{TaskId, TaskKind};

/// A unit of data a task reads or writes. Two tasks that touch one
/// datum, at least one of them writing it, are ordered by the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datum {
    /// Tile `(i, j)` of the matrix.
    Tile(u32, u32),
    /// Incremental pivoting's `U_kk` of panel `k`: TSTRF rewrites it down
    /// the panel while GESSM reads `L_kk` from the same tile `(k, k)`.
    Upper(u32),
    /// Slot `slot` of panel `k`'s TSLU tree ([`crate::TreePlan`]): a
    /// leaf's or a match's candidate set.
    Candidate(u32, u32),
    /// Panel `k`'s pivot vector.
    Pivots(u32),
}

/// A task's footprint. A datum both read and written is listed in
/// `writes` only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Access {
    /// Data read.
    pub reads: Vec<Datum>,
    /// Data written.
    pub writes: Vec<Datum>,
}

impl TaskGraph {
    /// What task `t` reads and writes, per the graph's [`Algorithm`].
    pub fn access(&self, t: TaskId) -> Access {
        let mut acc = Access::default();
        self.footprint(self.kind(t), &mut acc);
        acc
    }

    /// The table: fill `acc` with the footprint of a `kind` task.
    #[inline(always)]
    pub(crate) fn footprint(&self, kind: TaskKind, acc: &mut Access) {
        use Algorithm::*;
        use Datum::*;
        use TaskKind::*;
        let Access { reads, writes } = acc;
        reads.clear();
        writes.clear();
        let mt = self.tile_rows() as u32;
        match (self.algorithm(), kind) {
            // --- CALU; GEPP shares its finish, U and S ---
            (_, PanelLeaf { k, i }) => {
                reads.extend(self.leaf_rows(i as usize).map(|r| Tile(r as u32, k)));
                writes.push(Candidate(k, i - k));
            }
            (_, PanelCombine { k, level, idx }) => {
                let s = self.tree(k as usize).step_for(level, idx);
                reads.extend([Candidate(k, s.left as u32), Candidate(k, s.right as u32)]);
                writes.push(Candidate(k, s.out as u32));
            }
            (Calu | Gepp, PanelFinish { k }) => {
                // the winners are swapped up through the whole panel
                // column (GEPP's sequential panel does the same)
                if self.algorithm() == Calu {
                    reads.push(Candidate(k, self.tree(k as usize).root as u32));
                }
                writes.extend((k..mt).map(|r| Tile(r, k)).chain([Pivots(k)]));
            }
            (Calu | Gepp, ComputeU { k, j }) => {
                // the panel's swaps span the whole trailing column
                reads.extend([Tile(k, k), Pivots(k)]);
                writes.extend((k..mt).map(|r| Tile(r, j)));
            }
            (Calu | Gepp, Update { k, i, j }) => {
                reads.extend([Tile(i, k), Tile(k, j)]);
                writes.push(Tile(i, j));
            }
            (Calu | Cholesky, ComputeL { k, i }) => {
                reads.push(Tile(k, k));
                writes.push(Tile(i, k));
            }

            // --- incremental pivoting ---
            (IncPiv, PanelFinish { k }) => writes.extend([Tile(k, k), Upper(k)]),
            (IncPiv, ComputeL { k, i }) => writes.extend([Upper(k), Tile(i, k)]),
            (IncPiv, ComputeU { k, j }) => {
                reads.push(Tile(k, k));
                writes.push(Tile(k, j));
            }
            (IncPiv, Update { k, i, j }) => {
                reads.push(Tile(i, k));
                writes.extend([Tile(k, j), Tile(i, j)]);
            }

            // --- Cholesky (lower) ---
            (Cholesky, PanelFinish { k }) => writes.push(Tile(k, k)),
            (Cholesky, Update { k, i, j }) => {
                reads.push(Tile(i, k));
                if j != i {
                    reads.push(Tile(j, k));
                }
                writes.push(Tile(i, j));
            }
            // GEPP's panel task covers L; Cholesky has no U
            (Gepp, ComputeL { .. }) | (Cholesky, ComputeU { .. }) => {
                unreachable!("{kind} is never pushed in a {:?} graph", self.algorithm())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Static race audit of the access table against the graphs built from
    // it: every two tasks that touch one datum, at least one of them
    // writing it, are ordered by a path, and no edge is one a path through
    // another successor already implies.
    use std::collections::HashMap;

    use super::*;
    use crate::TaskId;

    /// Descendant sets as bit rows, one per task (arena order is
    /// topological, so one backward sweep fills them).
    struct Reach {
        words: usize,
        bits: Vec<u64>,
    }

    impl Reach {
        fn new(g: &TaskGraph) -> Reach {
            let words = g.len().div_ceil(64);
            let mut bits = vec![0u64; g.len() * words];
            for t in (0..g.len() as u32).rev().map(TaskId) {
                for &s in g.successors(t) {
                    bits[t.idx() * words + s.idx() / 64] |= 1 << (s.idx() % 64);
                    for w in 0..words {
                        bits[t.idx() * words + w] |= bits[s.idx() * words + w];
                    }
                }
            }
            Reach { words, bits }
        }

        fn reaches(&self, from: usize, to: usize) -> bool {
            self.bits[from * self.words + to / 64] & (1 << (to % 64)) != 0
        }
    }

    /// Pairs of tasks that conflict on a datum but have no path between
    /// them, as `(earlier, later, datum)`.
    fn races(g: &TaskGraph, reach: &Reach) -> Vec<(usize, usize, Datum)> {
        let mut touches: HashMap<Datum, Vec<(usize, bool)>> = HashMap::new();
        for t in g.ids() {
            let acc = g.access(t);
            for d in acc.reads {
                touches.entry(d).or_default().push((t.idx(), false));
            }
            for d in acc.writes {
                touches.entry(d).or_default().push((t.idx(), true));
            }
        }
        let mut out = Vec::new();
        for (d, users) in touches {
            for (x, &(a, wa)) in users.iter().enumerate() {
                for &(b, wb) in &users[x + 1..] {
                    if (wa || wb) && !reach.reaches(a, b) {
                        out.push((a, b, d));
                    }
                }
            }
        }
        out
    }

    /// Edges `t → s` implied by a path through another successor of `t`.
    fn implied_edges(g: &TaskGraph, reach: &Reach) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for t in g.ids() {
            let succ = g.successors(t);
            for &s in succ {
                if succ
                    .iter()
                    .any(|&o| o != s && reach.reaches(o.idx(), s.idx()))
                {
                    out.push((t.idx(), s.idx()));
                }
            }
        }
        out
    }

    /// All four algorithms on square, tall `p×1`, wide `1×p` and ragged grids,
    /// CALU at several leaf strides; every graph stays under ~600 tasks.
    fn graphs() -> Vec<(String, TaskGraph)> {
        let shapes = [(1, 1), (4, 4), (5, 3), (3, 6), (9, 1), (1, 9), (7, 7)];
        let mut out = Vec::new();
        for (mt, nt) in shapes {
            // ragged last tile in both directions
            let (m, n) = (mt * 10 - 3, nt * 10 - 7);
            for stride in [1, 2, 3, mt] {
                out.push((
                    format!("calu {mt}x{nt} stride {stride}"),
                    TaskGraph::build_calu(m, n, 10, stride),
                ));
            }
            out.push((format!("gepp {mt}x{nt}"), TaskGraph::build_gepp(m, n, 10)));
            out.push((
                format!("incpiv {mt}x{nt}"),
                TaskGraph::build_incpiv(m, n, 10),
            ));
        }
        for nt in [1, 2, 5, 9] {
            out.push((
                format!("cholesky {nt}"),
                TaskGraph::build_cholesky(nt * 10 - 3, 10),
            ));
        }
        // In the four builders' programs every write-after-read is also
        // ordered by another path (a finish reads the root its leaves feed),
        // so this program, which no builder pushes, is the one to need it:
        // an L task overwrites a tile the leaf has read, with no other link.
        let mut g = TaskGraph::with_shape(20, 20, 10, Algorithm::Calu, 1);
        g.push(TaskKind::PanelLeaf { k: 0, i: 0 });
        g.push(TaskKind::ComputeL { k: 0, i: 1 });
        out.push(("write after read".into(), g.with_inferred_edges()));
        out
    }

    #[test]
    fn conflicting_accesses_are_ordered() {
        for (name, g) in graphs() {
            assert!(g.len() <= 600, "{name}: {} tasks", g.len());
            let reach = Reach::new(&g);
            let races = races(&g, &reach);
            assert!(
                races.is_empty(),
                "{name}: {} unordered conflicts, e.g. {} and {} on {:?}",
                races.len(),
                g.kind(TaskId(races[0].0 as u32)),
                g.kind(TaskId(races[0].1 as u32)),
                races[0].2
            );
        }
    }

    #[test]
    fn no_edge_is_implied_by_a_path() {
        for (name, g) in graphs() {
            let reach = Reach::new(&g);
            let implied = implied_edges(&g, &reach);
            assert!(
                implied.is_empty(),
                "{name}: {} implied edges, e.g. {} -> {}",
                implied.len(),
                g.kind(TaskId(implied[0].0 as u32)),
                g.kind(TaskId(implied[0].1 as u32))
            );
        }
    }

    #[test]
    fn every_task_touches_data() {
        for (name, g) in graphs() {
            for t in g.ids() {
                assert!(
                    !g.access(t).writes.is_empty(),
                    "{name}: {} writes nothing",
                    g.kind(t)
                );
            }
        }
    }

    #[test]
    fn every_task_writes_the_tile_it_is_placed_by() {
        // `OwnerMap` places a task by `writes_tile`, so this pins "a task
        // runs on the owner of a tile it writes"; TSLU leaves and matches
        // write candidates, and are placed by their panel instead
        for (name, g) in graphs() {
            for t in g.ids() {
                let kind = g.kind(t);
                if matches!(
                    kind,
                    TaskKind::PanelLeaf { .. } | TaskKind::PanelCombine { .. }
                ) {
                    continue;
                }
                let (i, j) = kind.writes_tile();
                assert!(
                    g.access(t)
                        .writes
                        .contains(&Datum::Tile(i as u32, j as u32)),
                    "{name}: {kind} does not write its tile ({i}, {j})"
                );
            }
        }
    }
}
