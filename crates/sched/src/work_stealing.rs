//! Randomized work stealing, the §8 related-work baseline.
//!
//! Ready tasks go to the bottom of the deque of the core that enabled
//! them (Cilk-style locality heuristic); a core pops its own deque LIFO
//! and, when empty, steals FIFO from the top of a uniformly random
//! victim. The paper argues this is suboptimal for LU because steals
//! ignore the left-to-right critical-path order — the simulator's
//! ablation bench quantifies exactly that.

use std::collections::VecDeque;

use calu_dag::{TaskGraph, TaskId};
use calu_rand::Rng;

use crate::discipline::steal_order;
use crate::policy::{Policy, Popped, QueueSource};

/// See module docs.
pub(crate) struct WorkStealingPolicy {
    deques: Vec<VecDeque<TaskId>>,
    rng: Rng,
    rr: usize,
    queued: usize,
}

impl WorkStealingPolicy {
    /// Build for graph `g` on `cores` cores with the given RNG seed.
    pub(crate) fn new(g: &TaskGraph, cores: usize, seed: u64) -> Self {
        let _ = g; // topology-independent policy
        assert!(cores > 0);
        Self {
            deques: (0..cores).map(|_| VecDeque::new()).collect(),
            rng: Rng::seed_from_u64(seed),
            rr: 0,
            queued: 0,
        }
    }
}

impl Policy for WorkStealingPolicy {
    fn on_ready(&mut self, t: TaskId, completer: Option<usize>) {
        let core = match completer {
            Some(c) => c,
            None => {
                // scatter initially ready tasks round-robin
                let c = self.rr;
                self.rr = (self.rr + 1) % self.deques.len();
                c
            }
        };
        self.deques[core].push_back(t);
        self.queued += 1;
    }

    fn pop(&mut self, core: usize) -> Option<Popped> {
        // own deque: LIFO for locality
        if let Some(task) = self.deques[core].pop_back() {
            self.queued -= 1;
            return Some(Popped {
                task,
                source: QueueSource::Local,
            });
        }
        // steal: random victim order, FIFO from the top
        let p = self.deques.len();
        if p == 1 {
            return None;
        }
        for victim in steal_order(&mut self.rng, core, p) {
            if let Some(task) = self.deques[victim].pop_front() {
                self.queued -= 1;
                return Some(Popped {
                    task,
                    source: QueueSource::Stolen,
                });
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "work-stealing"
    }

    fn queued(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> TaskGraph {
        TaskGraph::build(400, 400, 100)
    }

    #[test]
    fn own_pops_are_lifo() {
        let g = graph();
        let mut p = WorkStealingPolicy::new(&g, 2, 1);
        let ready: Vec<TaskId> = g.initial_ready().collect();
        p.on_ready(ready[0], Some(0));
        p.on_ready(ready[1], Some(0));
        let first = p.pop(0).unwrap();
        assert_eq!(first.task, ready[1], "LIFO on own deque");
        assert_eq!(first.source, QueueSource::Local);
    }

    #[test]
    fn steals_are_fifo_and_tagged() {
        let g = graph();
        let mut p = WorkStealingPolicy::new(&g, 2, 2);
        let ready: Vec<TaskId> = g.initial_ready().collect();
        p.on_ready(ready[0], Some(0));
        p.on_ready(ready[1], Some(0));
        let stolen = p.pop(1).unwrap();
        assert_eq!(stolen.task, ready[0], "steal takes the oldest task");
        assert_eq!(stolen.source, QueueSource::Stolen);
    }

    #[test]
    fn initial_tasks_scattered() {
        let g = graph();
        let mut p = WorkStealingPolicy::new(&g, 4, 3);
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        let nonempty = p.deques.iter().filter(|d| !d.is_empty()).count();
        assert!(nonempty > 1, "round-robin must spread initial tasks");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = graph();
        let run = |seed: u64| {
            let mut p = WorkStealingPolicy::new(&g, 3, seed);
            let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
            for t in g.initial_ready() {
                p.on_ready(t, None);
            }
            let mut order = vec![];
            let mut done = 0;
            while done < g.len() {
                for core in 0..3 {
                    if let Some(popped) = p.pop(core) {
                        order.push(popped.task);
                        done += 1;
                        for &s in g.successors(popped.task) {
                            deps[s.idx()] -= 1;
                            if deps[s.idx()] == 0 {
                                p.on_ready(s, Some(core));
                            }
                        }
                    }
                }
            }
            order
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn single_core_never_steals() {
        let g = graph();
        let mut p = WorkStealingPolicy::new(&g, 1, 0);
        p.on_ready(g.initial_ready().next().unwrap(), None);
        assert_eq!(p.pop(0).unwrap().source, QueueSource::Local);
        assert!(p.pop(0).is_none());
    }
}
