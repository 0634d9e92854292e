//! The policy interface shared by the simulator and the real executor.

use calu_dag::TaskId;

/// Where a popped task came from — the cost model charges different
/// dequeue overheads per source (§1: "the dequeue overhead to pull a task
/// from a work queue can become non-negligible").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueSource {
    /// The core's own (static) queue: cheapest, no contention.
    Local,
    /// The shared global queue: pays contention with every other core.
    Global,
    /// The core's own dynamic shard (sharded discipline): a per-worker
    /// lock touched only by this core and the occasional thief, so it
    /// pays the dequeue cost without the global queue's all-core
    /// contention — the point of sharding.
    Shard,
    /// Stolen from another core's deque on the *same socket* (or an SMT
    /// sibling): the migrated inputs cross at most the shared L3.
    Stolen,
    /// Stolen from a core on a *different socket*: the inputs cross the
    /// NUMA interconnect, the expensive migration of §1. Only the
    /// locality-tiered lock-free discipline distinguishes this; flat
    /// stealing reports every steal as [`QueueSource::Stolen`].
    StolenRemote,
}

impl QueueSource {
    /// Whether the task was obtained by stealing (either locality).
    #[cfg(test)]
    pub(crate) fn is_stolen(&self) -> bool {
        matches!(self, QueueSource::Stolen | QueueSource::StolenRemote)
    }
}

/// A task handed to a core, tagged with its queue of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Popped {
    /// The task to execute.
    pub task: TaskId,
    /// Queue it was dequeued from.
    pub source: QueueSource,
}

/// A scheduling policy: a deterministic decision procedure mapping
/// "task became ready" / "core wants work" events to task assignments.
///
/// The executor (simulated or real) owns dependence counting; policies
/// only manage ready queues.
pub trait Policy: Send {
    /// A task's dependencies are all satisfied. `completer` is the core
    /// that finished its last dependency (`None` for initially ready
    /// tasks); work stealing uses it for locality-preserving placement.
    fn on_ready(&mut self, t: TaskId, completer: Option<usize>);

    /// Core `core` is free and requests a task.
    fn pop(&mut self, core: usize) -> Option<Popped>;

    /// Pop up to `max` tasks that can be *batched* into one grouped
    /// BLAS-3 call: the first popped task plus further trailing-update
    /// tasks of the same panel from the same local queue (the BCL
    /// grouping optimization of §3/§4.1). The default takes just one.
    fn pop_batch(&mut self, core: usize, max: usize) -> Vec<Popped> {
        let _ = max;
        self.pop(core).into_iter().collect()
    }

    /// Core `core` was lost (or flagged persistently degraded): rescue
    /// its unexecuted *static* tasks by republishing them into the
    /// dynamic section, and reroute every future static publish for
    /// that owner the same way. Returns how many queued tasks moved
    /// right now. Because the task DAG has exclusive writers, moving a
    /// task between queues changes only *when* it runs, never what it
    /// computes — rescue degrades the schedule, not the factors.
    /// Policies without per-core static queues have nothing to move and
    /// return 0 (the default).
    fn rescue(&mut self, core: usize) -> usize {
        let _ = core;
        0
    }

    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// Tasks currently sitting in ready queues (for diagnostics).
    fn queued(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(Vec<TaskId>);
    impl Policy for Dummy {
        fn on_ready(&mut self, t: TaskId, _c: Option<usize>) {
            self.0.push(t);
        }
        fn pop(&mut self, _core: usize) -> Option<Popped> {
            self.0.pop().map(|task| Popped {
                task,
                source: QueueSource::Local,
            })
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn queued(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn default_batch_pops_one() {
        let mut d = Dummy(vec![TaskId(1), TaskId(2)]);
        let batch = d.pop_batch(0, 8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].task, TaskId(2));
        assert_eq!(d.queued(), 1);
    }
}
