//! CPU topology discovery and the locality-tiered steal order.
//!
//! Work stealing moves a task's *inputs* to the thief, so the cost of a
//! steal depends on where the thief sits relative to the victim: an SMT
//! sibling shares every cache level, a same-socket core shares the L3,
//! and a remote-socket core pays the full NUMA interconnect (the cost
//! the paper's static distribution exists to avoid, §1). The flat
//! randomized sweep of the mutex shards ignores all of
//! that; `StealTiers` replaces it for the lock-free discipline with a
//! three-tier sweep — SMT sibling → same socket → remote — randomized
//! *within* each tier so victims stay load-balanced, deterministic for
//! a fixed seed, and still visiting every other worker exactly once so
//! no steal opportunity is ever missed.
//!
//! [`CpuTopology`] feeds the tiers: on Linux it parses
//! `/sys/devices/system/cpu/cpu*/topology/{physical_package_id,core_id}`
//! ([`CpuTopology::detect`]); everywhere else — or when sysfs is absent,
//! as in sandboxes — it falls back to a flat single-socket layout, under
//! which the tiered sweep degenerates to exactly the flat randomized
//! sweep. The discrete-event simulator builds the same structure from
//! its machine model via [`CpuTopology::uniform`], so a simulated steal
//! sweeps victims in the same tier order a real one would.

use calu_rand::Rng;

/// Physical location of one logical CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuLoc {
    /// Socket / NUMA package id.
    package: u32,
    /// Physical core id within the package (SMT siblings share it).
    core: u32,
}

/// Locality class of a victim relative to the thief — determines both
/// the sweep tier and the simulator's steal price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StealTier {
    /// SMT sibling: same package, same physical core.
    Sibling,
    /// Same socket, different core: shares the L3 and local memory.
    Socket,
    /// Different socket: pays the NUMA interconnect.
    Remote,
}

/// Where each logical CPU lives: sockets and physical cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuTopology {
    cpus: Vec<CpuLoc>,
}

impl CpuTopology {
    /// A flat topology: `n` CPUs, one socket, no SMT. Every victim is
    /// [`StealTier::Socket`], so tiered sweeps reduce to flat ones.
    pub fn flat(n: usize) -> Self {
        let n = n.max(1);
        Self {
            cpus: (0..n as u32)
                .map(|core| CpuLoc { package: 0, core })
                .collect(),
        }
    }

    /// A regular machine: `sockets × cores_per_socket` CPUs, no SMT,
    /// cores numbered socket-major — the layout of the simulator's
    /// [`MachineConfig`](../../calu_sim/struct.MachineConfig.html)
    /// (`socket_of(core) = core / cores_per_socket`).
    pub fn uniform(sockets: usize, cores_per_socket: usize) -> Self {
        let (s, c) = (sockets.max(1), cores_per_socket.max(1));
        Self {
            cpus: (0..s * c)
                .map(|cpu| CpuLoc {
                    package: (cpu / c) as u32,
                    core: (cpu % c) as u32,
                })
                .collect(),
        }
    }

    /// As [`uniform`](Self::uniform), with `smt`-way SMT: logical CPUs
    /// `smt*i .. smt*(i+1)` are siblings on physical core `i`.
    #[cfg(test)]
    fn uniform_smt(sockets: usize, cores_per_socket: usize, smt: usize) -> Self {
        let (s, c, h) = (sockets.max(1), cores_per_socket.max(1), smt.max(1));
        Self {
            cpus: (0..s * c * h)
                .map(|cpu| {
                    let phys = cpu / h;
                    CpuLoc {
                        package: (phys / c) as u32,
                        core: (phys % c) as u32,
                    }
                })
                .collect(),
        }
    }

    /// Detect the host topology. Linux: parse sysfs, falling back to
    /// [`flat`](Self::flat) over the available parallelism when any part
    /// of the tree is missing or malformed. Other targets: always flat.
    pub fn detect() -> Self {
        Self::from_sysfs("/sys/devices/system/cpu").unwrap_or_else(|| {
            Self::flat(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Parse `<root>/cpu<N>/topology/{physical_package_id, core_id}`
    /// for N = 0, 1, … until the first missing CPU directory. `None`
    /// when nothing parses (no sysfs, non-Linux, sandboxed).
    fn from_sysfs(root: &str) -> Option<Self> {
        // hotplug holes are rare and a truncated-but-consistent prefix
        // is still a valid topology; cap the scan defensively
        const MAX_CPUS: usize = 4096;
        let read_id = |path: String| -> Option<u32> {
            std::fs::read_to_string(path).ok()?.trim().parse().ok()
        };
        let mut cpus = Vec::new();
        for n in 0..MAX_CPUS {
            let dir = format!("{root}/cpu{n}/topology");
            let (Some(package), Some(core)) = (
                read_id(format!("{dir}/physical_package_id")),
                read_id(format!("{dir}/core_id")),
            ) else {
                break;
            };
            cpus.push(CpuLoc { package, core });
        }
        (!cpus.is_empty()).then_some(Self { cpus })
    }

    /// Number of logical CPUs.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Never true — every topology has at least one CPU.
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// Number of distinct sockets.
    pub fn sockets(&self) -> usize {
        let mut pkgs: Vec<u32> = self.cpus.iter().map(|c| c.package).collect();
        pkgs.sort_unstable();
        pkgs.dedup();
        pkgs.len()
    }

    /// The logical CPU worker `w` is mapped (and, when pinning is on,
    /// pinned) to: identity while workers fit, wrapping beyond.
    pub fn cpu_for_worker(&self, w: usize) -> usize {
        w % self.cpus.len()
    }

    /// Locality of worker `victim` relative to worker `me`.
    pub fn tier_between(&self, me: usize, victim: usize) -> StealTier {
        let a = self.cpus[self.cpu_for_worker(me)];
        let b = self.cpus[self.cpu_for_worker(victim)];
        if a.package != b.package {
            StealTier::Remote
        } else if a.core == b.core && self.cpu_for_worker(me) != self.cpu_for_worker(victim) {
            StealTier::Sibling
        } else {
            StealTier::Socket
        }
    }
}

/// One worker's precomputed victim tiers: the static part of the
/// locality-tiered sweep. Build once per worker, then call
/// `sweep` per steal attempt; only the in-tier
/// rotation is drawn from the RNG, so a sweep costs three RNG draws and
/// no allocation.
#[derive(Debug, Clone)]
pub(crate) struct StealTiers {
    tiers: [Vec<usize>; 3],
}

impl StealTiers {
    /// Victim tiers for worker `me` among `workers` workers on `topo`.
    pub(crate) fn for_worker(topo: &CpuTopology, me: usize, workers: usize) -> Self {
        let mut tiers: [Vec<usize>; 3] = Default::default();
        for v in (0..workers).filter(|&v| v != me) {
            tiers[match topo.tier_between(me, v) {
                StealTier::Sibling => 0,
                StealTier::Socket => 1,
                StealTier::Remote => 2,
            }]
            .push(v);
        }
        Self { tiers }
    }

    /// One randomized sweep: every other worker exactly once, tier by
    /// tier — SMT sibling → same socket → remote — with a random
    /// rotation within each tier. Deterministic for a fixed RNG state:
    /// the rotations are drawn up front, one per tier of two or more
    /// victims.
    pub(crate) fn sweep<'a>(
        &'a self,
        rng: &mut Rng,
    ) -> impl Iterator<Item = (usize, StealTier)> + 'a {
        let kinds = [StealTier::Sibling, StealTier::Socket, StealTier::Remote];
        let rots: [usize; 3] = std::array::from_fn(|i| {
            let len = self.tiers[i].len();
            if len > 1 {
                rng.gen_range(0..len)
            } else {
                0
            }
        });
        (0..3).flat_map(move |i| {
            let tier = &self.tiers[i];
            (0..tier.len()).map(move |j| (tier[(rots[i] + j) % tier.len()], kinds[i]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_one_socket_no_siblings() {
        let t = CpuTopology::flat(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.sockets(), 1);
        for v in 1..4 {
            assert_eq!(t.tier_between(0, v), StealTier::Socket);
        }
    }

    #[test]
    fn uniform_socket_boundaries() {
        // the simulator's AMD model: 8 sockets × 6 cores
        let t = CpuTopology::uniform(8, 6);
        assert_eq!(t.len(), 48);
        assert_eq!(t.sockets(), 8);
        assert_eq!(t.tier_between(0, 5), StealTier::Socket);
        assert_eq!(t.tier_between(0, 6), StealTier::Remote);
        assert_eq!(t.tier_between(47, 42), StealTier::Socket);
        assert_eq!(t.tier_between(47, 41), StealTier::Remote);
    }

    #[test]
    fn smt_siblings_rank_first() {
        // 1 socket × 2 cores × 2-way SMT: cpus {0,1} and {2,3} pair up
        let t = CpuTopology::uniform_smt(1, 2, 2);
        assert_eq!(t.tier_between(0, 1), StealTier::Sibling);
        assert_eq!(t.tier_between(0, 2), StealTier::Socket);
        assert_eq!(t.tier_between(2, 3), StealTier::Sibling);
        assert!(StealTier::Sibling < StealTier::Socket);
        assert!(StealTier::Socket < StealTier::Remote);
    }

    #[test]
    fn workers_beyond_cpus_wrap() {
        let t = CpuTopology::flat(2);
        assert_eq!(t.cpu_for_worker(0), 0);
        assert_eq!(t.cpu_for_worker(3), 1);
        // worker 2 wraps onto cpu 0 = worker 0's cpu: same socket tier
        assert_eq!(t.tier_between(0, 2), StealTier::Socket);
    }

    #[test]
    fn sweep_visits_every_other_worker_once_nearest_first() {
        let topo = CpuTopology::uniform_smt(2, 2, 2); // 8 cpus
        let tiers = StealTiers::for_worker(&topo, 0, 8);
        let mut rng = Rng::seed_from_u64(1);
        let order: Vec<(usize, StealTier)> = tiers.sweep(&mut rng).collect();
        assert_eq!(order.len(), 7, "all other workers probed");
        let mut victims: Vec<usize> = order.iter().map(|&(v, _)| v).collect();
        victims.sort_unstable();
        assert_eq!(victims, vec![1, 2, 3, 4, 5, 6, 7]);
        // tiers are in order: sibling (1), same socket (2,3), remote (4..8)
        assert_eq!(order[0], (1, StealTier::Sibling));
        let socket: Vec<usize> = order[1..3].iter().map(|&(v, _)| v).collect();
        assert!(socket.contains(&2) && socket.contains(&3), "{socket:?}");
        assert!(order[3..].iter().all(|&(_, k)| k == StealTier::Remote));
    }

    #[test]
    fn sweep_is_seed_deterministic_and_rotates() {
        let topo = CpuTopology::uniform(2, 4);
        let tiers = StealTiers::for_worker(&topo, 1, 8);
        let runs = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..8)
                .flat_map(|_| tiers.sweep(&mut rng).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(runs(3), runs(3));
        assert_ne!(runs(3), runs(4), "different seeds, different rotations");
        // across many sweeps every same-socket victim appears first in
        // its tier at least once (the rotation really randomizes)
        let mut rng = Rng::seed_from_u64(9);
        let mut firsts = std::collections::HashSet::new();
        for _ in 0..64 {
            firsts.insert(tiers.sweep(&mut rng).next().unwrap().0);
        }
        assert!(firsts.len() > 1, "rotation must vary the first victim");
    }

    #[test]
    fn flat_topology_sweep_matches_flat_order_semantics() {
        // one tier only: the sweep is a rotation of all other workers,
        // exactly the flat steal_order contract
        let topo = CpuTopology::flat(4);
        let tiers = StealTiers::for_worker(&topo, 2, 4);
        let mut rng = Rng::seed_from_u64(5);
        let order: Vec<usize> = tiers.sweep(&mut rng).map(|(v, _)| v).collect();
        assert_eq!(order.len(), 3);
        assert!(order.iter().all(|&v| v != 2));
        assert!(order
            .iter()
            .all(|&v| topo.tier_between(2, v) == StealTier::Socket));
    }

    #[test]
    fn sysfs_parse_smoke() {
        // on Linux CI this exercises the real parser; elsewhere (or in
        // sandboxes hiding /sys) detect() must still produce something
        let t = CpuTopology::detect();
        assert!(!t.is_empty());
        assert!(t.sockets() >= 1);
        let tiers = StealTiers::for_worker(&t, 0, t.len().clamp(2, 8));
        let mut rng = Rng::seed_from_u64(1);
        assert!(tiers.sweep(&mut rng).count() >= 1);
    }
}
