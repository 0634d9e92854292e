//! Configuration of the CALU driver — the paper's design space knobs
//! (Table 1): block size, thread count/grid, data layout, and the
//! percentage of dynamically scheduled panels.

use crate::error::CaluError;
use crate::fault::FaultPlan;
use calu_matrix::{Layout, ProcessGrid};
use calu_sched::{QueueDiscipline, SplitChoice};

/// Configuration for [`crate::calu_factor`].
#[derive(Debug, Clone, PartialEq)]
pub struct CaluConfig {
    /// Tile size `b`.
    pub b: usize,
    /// Number of worker threads.
    pub threads: usize,
    /// Fraction of panels scheduled dynamically (`0.0` = fully static,
    /// `1.0` = fully dynamic). The paper finds `0.1` a good default.
    pub dratio: f64,
    /// Data layout for the tiled storage.
    pub layout: Layout,
    /// Grouping width for BLAS-3 calls on owned blocks (the paper uses
    /// `k = 3` with the BCL layout): a worker that pops a static S task
    /// claims up to `group − 1` further ready S tasks of the same panel
    /// and column from the top of its own heap whose tiles follow on in
    /// its storage, and runs them as one stacked GEMM. Every member is
    /// still retired, logged and counted as its own task, and the
    /// factors are bitwise those of `group = 1`.
    pub group: usize,
    /// TSLU leaves per panel. `None` — the default — uses the row count
    /// of the *item's* thread grid, as in the paper: the grid follows
    /// each matrix's tile shape
    /// ([`ProcessGrid::for_shape`](calu_matrix::ProcessGrid::for_shape)),
    /// so one config serves a batch of mixed shapes. `Some(k)` pins
    /// every item to `k` leaves.
    pub leaf_stride: Option<usize>,
    /// How the dynamic-section ready queue is organized: the paper's
    /// single shared queue, per-worker mutex shards with randomized
    /// stealing ([`QueueDiscipline::Sharded`]), or per-worker lock-free
    /// Chase-Lev deques with locality-tiered stealing
    /// ([`QueueDiscipline::LockFree`]).
    pub queue: QueueDiscipline,
    /// Pin worker `w` to the logical CPU the detected topology maps it
    /// to (`CpuTopology::cpu_for_worker`). Off by default: pinning is a
    /// throughput optimization for dedicated machines and can hurt on
    /// oversubscribed ones. Best effort — an unpinnable CPU (sandbox,
    /// cgroup) leaves the worker floating.
    pub pin_workers: bool,
    /// The one co-scheduling knob of batched sweeps and served jobs
    /// ([`crate::factor_batch`], [`crate::Engine`]): on a pool of
    /// more than one worker, a job whose larger dimension is at most
    /// this cutoff is *small* — claimed whole by one worker and run as
    /// a one-worker run, whole items in parallel with zero intra-item
    /// synchronization. Larger jobs are executed co-operatively by the
    /// whole pool under the full hybrid static/dynamic schedule. `0`
    /// co-schedules nothing. See [`co_schedules`](Self::co_schedules).
    pub batch_small_cutoff: usize,
    /// Deterministic fault injection for chaos testing
    /// ([`FaultPlan::off`] by default — the hot path never consults a
    /// disarmed plan). See [`crate::fault`] for the fault kinds and the
    /// static-task rescue guarantees.
    pub fault: FaultPlan,
}

/// Default [`CaluConfig::batch_small_cutoff`]: matrices up to 384×384
/// (a handful of tiles at the paper's `b = 100`) are cheaper to factor
/// whole-item-per-worker than to synchronize across the pool.
pub const DEFAULT_BATCH_SMALL_CUTOFF: usize = 384;

impl CaluConfig {
    /// Defaults from the paper's best configuration: BCL layout, 10%
    /// dynamic, grouping 3, single thread (callers set their own).
    pub fn new(b: usize) -> Self {
        Self {
            b,
            threads: 1,
            dratio: 0.1,
            layout: Layout::BlockCyclic,
            group: 3,
            leaf_stride: None,
            queue: QueueDiscipline::Global,
            pin_workers: false,
            batch_small_cutoff: DEFAULT_BATCH_SMALL_CUTOFF,
            fault: FaultPlan::off(),
        }
    }

    /// Set the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the dynamic fraction.
    pub fn with_dratio(mut self, dratio: f64) -> Self {
        self.dratio = dratio;
        self
    }

    /// Set the data layout.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Set the dynamic-section queue discipline (default
    /// [`QueueDiscipline::Global`]).
    pub fn with_queue(mut self, queue: QueueDiscipline) -> Self {
        self.queue = queue;
        self
    }

    /// Pin workers to CPUs by the detected topology (default off).
    pub fn with_pinning(mut self, pin: bool) -> Self {
        self.pin_workers = pin;
        self
    }

    /// Set the small-item cutoff for batched sweeps (default
    /// [`DEFAULT_BATCH_SMALL_CUTOFF`]).
    pub fn with_batch_small_cutoff(mut self, cutoff: usize) -> Self {
        self.batch_small_cutoff = cutoff;
        self
    }

    /// Inject a deterministic [`FaultPlan`] (default [`FaultPlan::off`]).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Validate every knob. The thread grid is not derived here: it
    /// depends on each item's shape as well as on the thread count, so
    /// whoever holds the item derives it, by
    /// [`grid_and_leaves`](Self::grid_and_leaves).
    pub fn validate(&self) -> Result<(), CaluError> {
        if self.b == 0 {
            return Err(CaluError::InvalidConfig(
                "block size must be positive".into(),
            ));
        }
        if self.threads == 0 {
            return Err(CaluError::InvalidConfig("need at least one thread".into()));
        }
        if !(0.0..=1.0).contains(&self.dratio) {
            return Err(CaluError::InvalidConfig(format!(
                "dratio {} out of [0,1]",
                self.dratio
            )));
        }
        if self.group == 0 {
            return Err(CaluError::InvalidConfig("group must be positive".into()));
        }
        if self.leaf_stride == Some(0) {
            return Err(CaluError::InvalidConfig(
                "tslu_leaves(0) is meaningless: each panel needs at least one \
                 TSLU leaf; use 1 for a sequential panel"
                    .into(),
            ));
        }
        self.fault.validate(self.threads)?;
        if self.queue.steals() && self.dratio == 0.0 {
            return Err(CaluError::InvalidConfig(format!(
                "the {} queue discipline organizes the dynamic section, \
                 but dratio is 0 (fully static) so there is nothing to shard \
                 or steal; raise dratio or use QueueDiscipline::Global",
                self.queue
            )));
        }
        Ok(())
    }

    /// Effective BLAS-3 grouping: only the BCL layout can group (§4).
    pub fn effective_group(&self) -> usize {
        if self.layout.supports_grouping() {
            self.group
        } else {
            1
        }
    }

    /// The co-schedule predicate: whether a job of `dims` is *small* —
    /// claimed whole by one worker and run as a one-worker run — rather
    /// than run co-operatively by the pool under the hybrid schedule.
    /// True on a pool of more than one worker when the job's larger
    /// dimension is within [`batch_small_cutoff`](Self::batch_small_cutoff).
    pub fn co_schedules(&self, dims: (usize, usize)) -> bool {
        self.threads > 1 && dims.0.max(dims.1) <= self.batch_small_cutoff
    }

    /// The one grid-and-leaves rule, for a job of `dims` on a validated
    /// config: the thread grid a run of `workers` lays it out on,
    /// fitted to its tile shape ([`ProcessGrid::for_shape`]), and the
    /// TSLU leaves per panel of its graph —
    /// [`leaf_stride`](Self::leaf_stride), or by default the row count
    /// of the grid of all [`threads`](Self::threads). The leaves never
    /// follow `workers`, so a co-scheduled job factors to the bits of
    /// the same job run by the whole pool.
    pub fn grid_and_leaves(
        &self,
        dims: (usize, usize),
        workers: usize,
    ) -> Result<(ProcessGrid, usize), CaluError> {
        let grid_of = |p| {
            ProcessGrid::for_shape(p, dims.0.div_ceil(self.b), dims.1.div_ceil(self.b))
                .map_err(|e| CaluError::InvalidConfig(e.to_string()))
        };
        let leaves = match self.leaf_stride {
            Some(k) => k,
            None => grid_of(self.threads)?.pr(),
        };
        Ok((grid_of(workers)?, leaves))
    }

    /// The scheduling split this config names — the knobs an adaptive
    /// controller moves between engine generations.
    pub fn split(&self) -> SplitChoice {
        SplitChoice {
            dratio: self.dratio,
            batch_small_cutoff: self.batch_small_cutoff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_best() {
        let c = CaluConfig::new(100);
        assert_eq!(c.b, 100);
        assert_eq!(c.dratio, 0.1);
        assert_eq!(c.layout, Layout::BlockCyclic);
        assert_eq!(c.group, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = CaluConfig::new(64)
            .with_threads(8)
            .with_dratio(0.25)
            .with_layout(Layout::TwoLevelBlock);
        assert_eq!(c.threads, 8);
        assert_eq!(c.dratio, 0.25);
        assert_eq!(c.effective_group(), 1, "2l-BL cannot group");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(CaluConfig::new(0).validate().is_err());
        assert!(CaluConfig::new(8).with_threads(0).validate().is_err());
        assert!(CaluConfig::new(8).with_dratio(1.5).validate().is_err());
        let mut c = CaluConfig::new(8);
        c.group = 0;
        assert!(c.validate().is_err());
        c = CaluConfig::new(8);
        c.leaf_stride = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn sharded_queue_needs_a_dynamic_section() {
        for queue in [QueueDiscipline::sharded(), QueueDiscipline::lock_free()] {
            let cfg = CaluConfig::new(8).with_dratio(0.0).with_queue(queue);
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains("dynamic") && err.to_string().contains(&queue.to_string()),
                "actionable message naming {queue}, got: {err}"
            );
            // any non-zero dynamic share is fine
            assert!(CaluConfig::new(8)
                .with_dratio(0.1)
                .with_queue(queue)
                .validate()
                .is_ok());
        }
        // and Global never conflicts
        assert!(CaluConfig::new(8).with_dratio(0.0).validate().is_ok());
    }

    #[test]
    fn batch_knobs_validate() {
        let c = CaluConfig::new(8);
        assert_eq!(c.batch_small_cutoff, DEFAULT_BATCH_SMALL_CUTOFF);
        assert!(c.validate().is_ok());
        assert!(CaluConfig::new(8)
            .with_batch_small_cutoff(0)
            .validate()
            .is_ok());
    }

    #[test]
    fn fault_plan_validates_through_config() {
        use crate::fault::FaultPlan;
        let c = CaluConfig::new(8).with_threads(4);
        assert!(c.fault.is_off(), "off by default");
        assert!(c
            .clone()
            .with_fault(FaultPlan::off().slow_worker(1, 2.0))
            .validate()
            .is_ok());
        let err = c
            .with_fault(FaultPlan::off().lose_worker(9, 1))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("worker 9"), "{err}");
    }

    #[test]
    fn pinning_is_a_free_knob() {
        let c = CaluConfig::new(8).with_pinning(true);
        assert!(c.pin_workers);
        assert!(c.validate().is_ok());
        assert!(!CaluConfig::new(8).pin_workers, "off by default");
    }
}
