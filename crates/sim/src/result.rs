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
    /// The nominal LU flop count `mn² − n³/3` used for Gflop/s plots.
    pub nominal_flops: f64,
    /// Full per-task trace, if recording was enabled.
    pub timeline: Option<Timeline>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Gflop/s by the paper's convention (nominal flops / makespan).
    pub(crate) fn gflops(r: &SimResult) -> f64 {
        r.nominal_flops / r.schedule.makespan / 1e9
    }

    #[test]
    fn gflops_is_nominal_flops_over_makespan() {
        let r = SimResult {
            schedule: ScheduleMetrics::new(2.0, Vec::new()),
            executed_flops: 4e9,
            nominal_flops: 3e9,
            timeline: None,
        };
        assert!((gflops(&r) - 1.5).abs() < 1e-12);
    }
}
