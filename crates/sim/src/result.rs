//! Simulation outputs.

use calu_sched::ScheduleMetrics;
use calu_trace::Timeline;

/// Result of one simulated factorization.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The simulated schedule: the makespan (simulated wall-clock time)
    /// and one [`calu_sched::ThreadMetrics`] per core, filled through
    /// the same pop counting and idle rule as the threaded engine's.
    pub schedule: ScheduleMetrics,
    /// Useful flops actually executed (CALU does more than the nominal
    /// LU count because of the tournament).
    pub executed_flops: f64,
    /// Full per-task trace, if recording was enabled.
    pub timeline: Option<Timeline>,
}
