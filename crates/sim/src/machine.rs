//! Machine models: topology, rates, overhead constants, noise.
//!
//! The two presets mirror the paper's testbeds (§5). Constants marked
//! *calibrated* were tuned once so that the simulated Gflop/s land in the
//! same regime as the paper's measurements; EXPERIMENTS.md records the
//! calibration targets. The *relative* behaviour (who wins, where the
//! crossovers are) is what the model is for.

use calu_sched::CpuTopology;

/// OS-noise model: per-core Poisson-arriving excess work, the `δ` of the
/// paper's §6 analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Mean noise events per second per core (Poisson rate). 0 disables.
    pub rate_hz: f64,
    /// Mean duration of one noise event (seconds, exponential).
    pub mean_duration: f64,
    /// RNG seed for the noise processes.
    pub seed: u64,
}

impl NoiseConfig {
    /// No noise at all.
    pub fn off() -> Self {
        Self {
            rate_hz: 0.0,
            mean_duration: 0.0,
            seed: 0,
        }
    }

    /// Light daemon-style noise typical of a general-purpose OS: ~25
    /// interruptions per second of ~0.4 ms each (~1% average load, but
    /// bursty enough to leave Fig 1's idle pockets in static schedules).
    pub fn os_daemons(seed: u64) -> Self {
        Self {
            rate_hz: 25.0,
            mean_duration: 0.4e-3,
            seed,
        }
    }
}

/// A multicore NUMA machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of sockets (NUMA domains).
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Per-core peak double-precision rate (flop/s).
    pub core_flops: f64,
    /// Seconds to pop the core's own queue.
    pub dequeue_local: f64,
    /// Base seconds to pop the shared global queue.
    pub dequeue_global: f64,
    /// Extra seconds per *other* core on a global pop (lock contention).
    pub dequeue_contention: f64,
    /// Seconds charged per visited victim on a steal attempt.
    pub steal_cost: f64,
    /// Multiplier on `steal_cost` when the victim sits on a different
    /// socket: a remote steal drags the task's working set across the
    /// NUMA interconnect on top of the dequeue itself. Only the
    /// locality-tiered lock-free discipline reports remote steals; flat
    /// stealing is priced at the near rate.
    pub remote_steal_factor: f64,
    /// Seconds per byte to pull data from another socket (calibrated).
    pub remote_byte_cost: f64,
    /// Seconds per byte to refill from the local socket's memory
    /// (calibrated).
    pub local_byte_cost: f64,
    /// Per-core tile-cache capacity, in tiles (~ L2+L3 share).
    pub cache_tiles: usize,
    /// Sustained fraction of nominal peak achievable by the best kernels
    /// on this machine (memory-bandwidth ceiling; calibrated).
    pub eff_scale: f64,
    /// Effective rate (fraction of one core's peak) of the vendor
    /// library's panel factorization, which uses multithreaded BLAS-2
    /// internally and therefore scales with socket memory bandwidth
    /// (calibrated; used only for the GEPP/MKL baseline DAG).
    pub gepp_panel_eff: f64,
    /// OS noise.
    pub noise: NoiseConfig,
    /// Failure injection: make one core run at a fraction of its rate
    /// (`(core, speed)` with `0 < speed <= 1`) — §6's persistent `δ_i`
    /// in its purest form.
    pub slow_core: Option<(usize, f64)>,
    /// Failure injection: lose one core entirely after it has completed
    /// `n` tasks (`(core, n)`). The engine retires the core at its next
    /// completion boundary, rescues its queued static tasks into the
    /// dynamic section ([`calu_sched::Policy::rescue`]) at
    /// [`rescue_task_cost`](MachineConfig::rescue_task_cost) per task,
    /// and never dispatches it again — the simulated twin of the real
    /// executor's worker-loss fault. Requires a policy that can reroute
    /// the lost core's work (hybrid/dynamic/work-stealing); under a
    /// purely static policy the dead core's queue is unreachable and
    /// the engine reports a deadlock.
    pub lost_core: Option<(usize, u64)>,
    /// Seconds charged (as scheduler overhead) per static task rescued
    /// off a lost core — pricing the queue-drain-and-republish walk.
    pub rescue_task_cost: f64,
}

impl MachineConfig {
    /// Total cores.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Socket of a core.
    #[inline]
    pub(crate) fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }

    /// Machine peak in flop/s.
    pub fn peak_flops(&self) -> f64 {
        self.core_flops * self.cores() as f64
    }

    /// The paper's 16-core Intel Xeon EMT64: 4 sockets × 4 cores,
    /// 2.67 GHz, 85.3 Gflop/s peak, 8 MB shared L3 per socket. Coherence
    /// misses are cheap ("on the Intel machine, communication compared to
    /// computation is negligible", §6), so remote traffic costs little.
    pub fn intel_xeon_16(noise: NoiseConfig) -> Self {
        Self {
            name: "intel-xeon-16",
            sockets: 4,
            cores_per_socket: 4,
            core_flops: 85.3e9 / 16.0,
            dequeue_local: 0.2e-6,
            dequeue_global: 2.5e-6,
            dequeue_contention: 0.15e-6,
            steal_cost: 0.5e-6,
            remote_steal_factor: 1.5,  // cheap coherence fabric (§6)
            remote_byte_cost: 0.12e-9, // calibrated: low NUMA penalty
            local_byte_cost: 0.015e-9,
            cache_tiles: 20,
            eff_scale: 1.0,
            gepp_panel_eff: 0.25,
            noise,
            slow_core: None,
            lost_core: None,
            rescue_task_cost: 1.0e-6,
        }
    }

    /// The paper's 48-core AMD Opteron: 8 sockets × 6 cores, 2.1 GHz,
    /// 539.5 Gflop/s peak, 5 MB L3 per socket. Remote memory is expensive
    /// ("on NUMA machines where remote memory access is costly", §1) and
    /// the global queue contends across 48 cores.
    pub fn amd_opteron_48(noise: NoiseConfig) -> Self {
        Self {
            name: "amd-opteron-48",
            sockets: 8,
            cores_per_socket: 6,
            core_flops: 539.5e9 / 48.0,
            dequeue_local: 0.2e-6,
            dequeue_global: 4.0e-6,
            dequeue_contention: 2.0e-6,
            steal_cost: 0.8e-6,
            remote_steal_factor: 4.0, // HyperTransport hops dominate
            remote_byte_cost: 0.8e-9, // calibrated: heavy NUMA penalty
            local_byte_cost: 0.04e-9,
            cache_tiles: 10,
            eff_scale: 0.80, // Opteron sustains ~80% of nominal peak
            gepp_panel_eff: 0.55,
            noise,
            slow_core: None,
            lost_core: None,
            rescue_task_cost: 1.5e-6,
        }
    }

    /// Rate multiplier of a core (1.0 unless it is the injected slow
    /// core).
    pub(crate) fn core_speed(&self, core: usize) -> f64 {
        match self.slow_core {
            Some((c, speed)) if c == core => {
                assert!(speed > 0.0 && speed <= 1.0, "slow-core speed in (0,1]");
                speed
            }
            _ => 1.0,
        }
    }

    /// Same AMD model restricted to `cores` cores (the paper's 24-core
    /// runs use half the machine).
    pub fn amd_opteron_with_cores(cores: usize, noise: NoiseConfig) -> Self {
        assert!(
            cores.is_multiple_of(6) && cores <= 48,
            "AMD model scales by whole sockets"
        );
        Self {
            sockets: cores / 6,
            ..Self::amd_opteron_48(noise)
        }
    }
}

/// The [`CpuTopology`] of a machine model — socket-major uniform, the
/// layout [`SimConfig`](crate::SimConfig)'s policies already sweep by.
/// A `SimulatedBackend` seeds its adaptive controller from it.
pub fn machine_topology(machine: &MachineConfig) -> CpuTopology {
    CpuTopology::uniform(machine.sockets, machine.cores_per_socket)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_specs() {
        let intel = MachineConfig::intel_xeon_16(NoiseConfig::off());
        assert_eq!(intel.cores(), 16);
        assert!((intel.peak_flops() - 85.3e9).abs() < 1e6);
        let amd = MachineConfig::amd_opteron_48(NoiseConfig::off());
        assert_eq!(amd.cores(), 48);
        assert!((amd.peak_flops() - 539.5e9).abs() < 1e6);
        assert!(
            amd.remote_byte_cost > intel.remote_byte_cost * 3.0,
            "AMD NUMA penalty dominates"
        );
        assert!(
            amd.remote_steal_factor > intel.remote_steal_factor,
            "remote steals hurt more where NUMA is expensive"
        );
        assert!(intel.remote_steal_factor >= 1.0);
    }

    #[test]
    fn socket_mapping() {
        let amd = MachineConfig::amd_opteron_48(NoiseConfig::off());
        assert_eq!(amd.socket_of(0), 0);
        assert_eq!(amd.socket_of(5), 0);
        assert_eq!(amd.socket_of(6), 1);
        assert_eq!(amd.socket_of(47), 7);
    }

    #[test]
    fn partial_amd_machine() {
        let half = MachineConfig::amd_opteron_with_cores(24, NoiseConfig::off());
        assert_eq!(half.cores(), 24);
        assert_eq!(half.sockets, 4);
        assert!((half.peak_flops() - 539.5e9 / 2.0).abs() < 1e6);
    }

    #[test]
    #[should_panic(expected = "whole sockets")]
    fn partial_amd_validates() {
        MachineConfig::amd_opteron_with_cores(20, NoiseConfig::off());
    }
}
