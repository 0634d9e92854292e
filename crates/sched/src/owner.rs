//! Task → thread ownership under the 2D block-cyclic distribution.

use calu_dag::{TaskGraph, TaskId};
use calu_matrix::ProcessGrid;

/// Precomputed owner (thread id) of every task: the owner of the tile the
/// task writes, under the block-cyclic map of the static section (§3:
/// "the matrix is distributed to threads using a classic two-dimensional
/// block-cyclic distribution").
#[derive(Debug, Clone)]
pub struct OwnerMap {
    owners: Vec<u16>,
    grid: ProcessGrid,
}

impl OwnerMap {
    /// Build the map for graph `g` over `grid`.
    pub fn new(g: &TaskGraph, grid: ProcessGrid) -> Self {
        assert!(grid.size() <= u16::MAX as usize, "too many threads");
        let owners = g
            .ids()
            .map(|t| {
                let (ti, tj) = g.kind(t).writes_tile();
                grid.owner(ti, tj) as u16
            })
            .collect();
        Self { owners, grid }
    }

    /// Owner thread of task `t`.
    #[inline]
    pub fn owner(&self, t: TaskId) -> usize {
        self.owners[t.idx()] as usize
    }

    /// The grid this map distributes over.
    pub fn grid(&self) -> ProcessGrid {
        self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_dag::TaskKind;

    #[test]
    fn owners_follow_block_cyclic_map() {
        let g = TaskGraph::build(600, 600, 100);
        let grid = ProcessGrid::new(2, 3).unwrap();
        let map = OwnerMap::new(&g, grid);
        for t in g.ids() {
            let (ti, tj) = g.kind(t).writes_tile();
            assert_eq!(map.owner(t), grid.owner(ti, tj));
        }
    }

    #[test]
    fn update_tasks_are_owned_by_their_tile() {
        let g = TaskGraph::build(400, 400, 100);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let map = OwnerMap::new(&g, grid);
        for t in g.ids() {
            if let TaskKind::Update { i, j, .. } = g.kind(t) {
                assert_eq!(map.owner(t), grid.owner(i as usize, j as usize));
            }
        }
    }

    #[test]
    fn single_thread_owns_everything() {
        let g = TaskGraph::build(300, 300, 100);
        let grid = ProcessGrid::new(1, 1).unwrap();
        let map = OwnerMap::new(&g, grid);
        assert!(g.ids().all(|t| map.owner(t) == 0));
    }
}
