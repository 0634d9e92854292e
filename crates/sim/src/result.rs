//! Simulation outputs.

use calu_trace::Timeline;

/// Per-core accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Seconds of useful kernel work.
    pub work: f64,
    /// Seconds of scheduler overhead (dequeues, steals).
    pub overhead: f64,
    /// Seconds of injected OS noise while busy.
    pub noise: f64,
    /// Seconds of memory stalls (cache misses).
    pub memory: f64,
    /// Tasks executed.
    pub tasks: u64,
    /// Batched task groups executed.
    pub batches: u64,
    /// Bytes pulled from a remote socket.
    pub remote_bytes: f64,
    /// Bytes refilled from the local socket.
    pub local_bytes: f64,
    /// Tile-cache hits.
    pub cache_hits: u64,
    /// Tile-cache misses.
    pub cache_misses: u64,
    /// Tasks popped from the core's own static queue.
    pub local_pops: u64,
    /// Tasks popped from the shared dynamic queue.
    pub global_pops: u64,
    /// Tasks stolen from another core's deque.
    pub stolen_pops: u64,
    /// The subset of `stolen_pops` whose victim sat on a different
    /// socket (locality-tiered lock-free discipline only).
    pub remote_stolen_pops: u64,
    /// Static tasks this core owned that were republished into the
    /// dynamic section after the core was lost
    /// ([`crate::machine::MachineConfig::lost_core`]).
    pub rescued: u64,
    /// Whether this core was lost mid-run by the injected failure.
    pub lost: bool,
}

/// Result of one simulated factorization.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated wall-clock time.
    pub makespan: f64,
    /// Useful flops actually executed (CALU does more than the nominal
    /// LU count because of the tournament).
    pub executed_flops: f64,
    /// The nominal LU flop count `mn² − n³/3` used for Gflop/s plots.
    pub nominal_flops: f64,
    /// Per-core accounting.
    pub cores: Vec<CoreStats>,
    /// Full per-task trace, if recording was enabled.
    pub timeline: Option<Timeline>,
    /// Total tasks executed.
    pub tasks: usize,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Gflop/s by the paper's convention (nominal flops / makespan).
    pub(crate) fn gflops(r: &SimResult) -> f64 {
        r.nominal_flops / r.makespan / 1e9
    }

    /// Machine utilization: useful work time over `makespan × cores`.
    pub(crate) fn utilization(r: &SimResult) -> f64 {
        let work: f64 = r.cores.iter().map(|c| c.work).sum();
        work / (r.makespan * r.cores.len() as f64)
    }

    /// Total remote bytes moved (the NUMA traffic the paper's static
    /// distribution avoids).
    pub(crate) fn remote_bytes(r: &SimResult) -> f64 {
        r.cores.iter().map(|c| c.remote_bytes).sum()
    }

    /// Overall tile-cache hit rate.
    pub(crate) fn cache_hit_rate(r: &SimResult) -> f64 {
        let hits: u64 = r.cores.iter().map(|c| c.cache_hits).sum();
        let misses: u64 = r.cores.iter().map(|c| c.cache_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    #[test]
    fn derived_metrics() {
        let r = SimResult {
            makespan: 2.0,
            executed_flops: 4e9,
            nominal_flops: 3e9,
            cores: vec![
                CoreStats {
                    work: 1.5,
                    remote_bytes: 10.0,
                    cache_hits: 3,
                    cache_misses: 1,
                    ..Default::default()
                },
                CoreStats {
                    work: 0.5,
                    remote_bytes: 5.0,
                    cache_hits: 1,
                    cache_misses: 3,
                    ..Default::default()
                },
            ],
            timeline: None,
            tasks: 10,
        };
        assert!((gflops(&r) - 1.5).abs() < 1e-12);
        assert!((utilization(&r) - 0.5).abs() < 1e-12);
        assert_eq!(remote_bytes(&r), 15.0);
        assert!((cache_hit_rate(&r) - 0.5).abs() < 1e-12);
    }
}
