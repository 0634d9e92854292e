//! Adaptive hybrid scheduling: the feedback controller that closes the
//! loop from a run's measured schedule back to the split knobs.
//!
//! The paper's thesis is that the static section buys locality and the
//! dynamic section buys load balance — but a *fixed* `dratio` loses
//! somewhere on every heterogeneous or degraded host (Beaumont &
//! Marchal, arXiv 1404.3913, analyze exactly this tradeoff and predict
//! an adaptive split dominates any fixed one). The executors already
//! measure everything the tradeoff turns on: per-thread idle (static
//! section too big for the slow core), steal-sweep failure rate
//! (dynamic section churning), rescued/lost workers (the fault layer's
//! verdict). This module turns those readings into the next run's knobs:
//!
//! | signal | reading | response |
//! |---|---|---|
//! | idle fraction | idle core-seconds / (threads × makespan) | above the target → grow `dratio`; below → shrink it back toward locality |
//! | contention | failed steal sweeps / total sweeps | high → shrink `dratio` (the dynamic section is churning, not balancing) |
//! | lost / rescued workers | fault-layer counters | strong push toward dynamic — static ownership is what strands work |
//! | item-size histogram | recent batch item max-dimensions | 75th percentile → `batch_small_cutoff` |
//!
//! **Determinism invariant.** The controller is a pure function of its
//! seed and the observation sequence: no wall clock, no host entropy
//! (the topology is an explicit input), no state outside the
//! controller's own memory. Same seed + same trace → same split
//! sequence, on every backend — that is what makes the adaptation test
//! harness possible, and it is asserted in `tests/adaptive.rs`.
//!
//! **Safety invariant.** Adaptation happens *between* runs (or batch
//! items), never mid-DAG: a run executes entirely under the split
//! chosen at plan time, and its report feeds the next choice. Combined
//! with the exclusive-writer rule this keeps every adaptive run
//! bitwise-identical to a fixed-`dratio` run of the same matrix — the
//! chaos suite's parity rows depend on it.

use std::collections::VecDeque;

use calu_rand::Rng;

use crate::topology::CpuTopology;

/// Upper bound on the remembered item-size window; old sizes age out so
/// the cutoff tracks the *recent* workload mix, not all history.
const SIZE_WINDOW: usize = 64;

/// Validated policy for [`AdaptiveController`]: the seed, bounds and
/// gains. Constructed with [`AdaptivePolicy::new`], validated by
/// `Solver::plan` via [`validate`](AdaptivePolicy::validate).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePolicy {
    /// Seed for the controller's deterministic exploration dither.
    pub seed: u64,
    /// Lower bound on the chosen `dratio`. Must be positive: stealing
    /// disciplines need a dynamic section to exist.
    pub dratio_min: f64,
    /// Upper bound on the chosen `dratio`, at most 1.
    pub dratio_max: f64,
    /// Idle fraction the controller tolerates before growing the
    /// dynamic share; below it the split drifts back toward locality.
    pub idle_target: f64,
    /// Step size: `dratio` moves by `gain × (pressure − relief)` per
    /// observation. In `(0, 1]`.
    pub gain: f64,
    /// Lower bound on the chosen `batch_small_cutoff`.
    pub cutoff_min: usize,
    /// Upper bound on the chosen `batch_small_cutoff`.
    pub cutoff_max: usize,
}

impl AdaptivePolicy {
    /// Defaults: `dratio ∈ [0.05, 0.95]`, 5% idle target, gain ½,
    /// cutoff ∈ [64, 768].
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            dratio_min: 0.05,
            dratio_max: 0.95,
            idle_target: 0.05,
            gain: 0.5,
            cutoff_min: 64,
            cutoff_max: 768,
        }
    }

    /// Bound the chosen `dratio` to `[min, max]`.
    pub fn with_dratio_bounds(mut self, min: f64, max: f64) -> Self {
        self.dratio_min = min;
        self.dratio_max = max;
        self
    }

    /// Set the controller gain (step size per observation).
    pub fn with_gain(mut self, gain: f64) -> Self {
        self.gain = gain;
        self
    }

    /// Check the bounds are coherent; `Solver::plan` reports the error
    /// string as a configuration error.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.dratio_min > 0.0 && self.dratio_min <= self.dratio_max && self.dratio_max <= 1.0)
        {
            return Err(format!(
                "adaptive dratio bounds [{}, {}] must satisfy 0 < min <= max <= 1 \
                 (a zero minimum would let the controller strand the stealing \
                 disciplines without a dynamic section)",
                self.dratio_min, self.dratio_max
            ));
        }
        if !(self.gain > 0.0 && self.gain <= 1.0) {
            return Err(format!("adaptive gain {} out of (0, 1]", self.gain));
        }
        if !(0.0..=0.5).contains(&self.idle_target) {
            return Err(format!(
                "adaptive idle target {} out of [0, 0.5]",
                self.idle_target
            ));
        }
        if self.cutoff_min > self.cutoff_max {
            return Err(format!(
                "adaptive cutoff bounds [{}, {}] inverted",
                self.cutoff_min, self.cutoff_max
            ));
        }
        Ok(())
    }
}

/// The scheduling split — everything the executors read: the dynamic
/// fraction and the batch co-scheduling cutoff. What the controller
/// recommends, and what a service pool generation runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitChoice {
    /// Fraction of panels scheduled dynamically.
    pub dratio: f64,
    /// Items at most this large (max dimension) co-schedule whole.
    pub batch_small_cutoff: usize,
}

/// One completed run's scheduling readings — the controller's input,
/// distilled from `Report::schedule` / a pool item's stats.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall-clock (or simulated) makespan in seconds.
    pub makespan: f64,
    /// Summed idle core-seconds across workers.
    pub total_idle: f64,
    /// Failed steal sweeps / total sweeps, in `[0, 1]`.
    pub contention: f64,
    /// Workers lost (fault layer) during the run.
    pub lost_workers: usize,
    /// Static tasks rescued from slow/lost owners.
    pub rescued: u64,
    /// Item shape `(m, n)`; feeds the batch size histogram. `(0, 0)`
    /// when unknown.
    pub dims: (usize, usize),
}

impl Observation {
    /// A bare observation; chain the `with_*` setters for the rest.
    pub fn new(threads: usize, makespan: f64, total_idle: f64) -> Self {
        Self {
            threads,
            makespan,
            total_idle,
            contention: 0.0,
            lost_workers: 0,
            rescued: 0,
            dims: (0, 0),
        }
    }

    /// Set the steal-sweep failure rate.
    pub fn with_contention(mut self, contention: f64) -> Self {
        self.contention = contention;
        self
    }

    /// Set the lost-worker count.
    pub fn with_lost(mut self, lost: usize) -> Self {
        self.lost_workers = lost;
        self
    }

    /// Set the rescued-task count.
    pub fn with_rescued(mut self, rescued: u64) -> Self {
        self.rescued = rescued;
        self
    }

    /// Set the item shape.
    pub fn with_dims(mut self, m: usize, n: usize) -> Self {
        self.dims = (m, n);
        self
    }

    /// Idle core-seconds as a fraction of the run's total core-seconds.
    pub fn idle_fraction(&self) -> f64 {
        let span = self.makespan.max(1e-12) * self.threads.max(1) as f64;
        (self.total_idle / span).clamp(0.0, 1.0)
    }
}

/// One entry of the adaptation trace: what was read and what was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationStep {
    /// The observation's idle fraction.
    pub idle_fraction: f64,
    /// The observation's steal-sweep failure rate.
    pub contention: f64,
    /// Workers lost during the observed run.
    pub lost_workers: usize,
    /// The split chosen after ingesting the observation.
    pub chosen: SplitChoice,
}

/// The feedback controller. Deterministic given the policy seed and the
/// observation sequence; see the module docs for the update rules.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    policy: AdaptivePolicy,
    seed_split: SplitChoice,
    split: SplitChoice,
    sizes: VecDeque<usize>,
    rng: Rng,
    trace: Vec<AdaptationStep>,
}

impl AdaptiveController {
    /// Build a controller for `threads` workers on `topo`, starting
    /// from the topology-seeded split (`seed_dratio`).
    pub fn new(policy: AdaptivePolicy, topo: &CpuTopology, threads: usize) -> Self {
        let seed_split = SplitChoice {
            dratio: seed_dratio(topo, threads).clamp(policy.dratio_min, policy.dratio_max),
            batch_small_cutoff: 384usize.clamp(policy.cutoff_min, policy.cutoff_max),
        };
        Self {
            rng: Rng::seed_from_u64(policy.seed),
            seed_split,
            split: seed_split,
            sizes: VecDeque::new(),
            trace: Vec::new(),
            policy,
        }
    }

    /// The topology-seeded starting split (before any feedback).
    pub fn seed_choice(&self) -> SplitChoice {
        self.seed_split
    }

    /// The split the controller currently recommends.
    pub fn choice(&self) -> SplitChoice {
        self.split
    }

    /// The split a new plan should run under: the current choice, which
    /// accumulates in memory across runs, batch items and service jobs.
    pub fn plan_choice(&mut self) -> SplitChoice {
        self.choice()
    }

    /// Ingest one completed run's readings and move the split. Pure in
    /// (seed, observation sequence); appends to the trace.
    pub fn observe(&mut self, obs: &Observation) {
        let idle = obs.idle_fraction();
        let contention = obs.contention.clamp(0.0, 1.0);
        let lost = obs.lost_workers as f64 / obs.threads.max(1) as f64;
        // Idle and degradation push toward dynamic; tolerated idle and
        // steal churn pull back toward the static section's locality.
        let pressure = idle + lost + if obs.rescued > 0 { 0.05 } else { 0.0 };
        let relief = self.policy.idle_target + 0.5 * contention;
        // Deterministic exploration dither: one draw per observation,
        // small enough (±0.1% of a full step) to never mask a signal.
        let dither = (self.rng.next_f64() - 0.5) * 0.002 * self.policy.gain;
        self.split.dratio = (self.split.dratio + self.policy.gain * (pressure - relief) + dither)
            .clamp(self.policy.dratio_min, self.policy.dratio_max);
        let dim = obs.dims.0.max(obs.dims.1);
        if dim > 0 {
            if self.sizes.len() == SIZE_WINDOW {
                self.sizes.pop_front();
            }
            self.sizes.push_back(dim);
            let mut sorted: Vec<usize> = self.sizes.iter().copied().collect();
            sorted.sort_unstable();
            // 75th percentile: co-schedule the small majority whole,
            // leave genuinely large items on the full hybrid schedule.
            let p75 = sorted[(3 * sorted.len() / 4).min(sorted.len() - 1)];
            self.split.batch_small_cutoff =
                p75.clamp(self.policy.cutoff_min, self.policy.cutoff_max);
        }
        self.trace.push(AdaptationStep {
            idle_fraction: idle,
            contention,
            lost_workers: obs.lost_workers,
            chosen: self.choice(),
        });
    }

    /// Every step taken so far, oldest first.
    pub fn trace(&self) -> &[AdaptationStep] {
        &self.trace
    }

    /// Number of observations ingested.
    pub fn observations(&self) -> usize {
        self.trace.len()
    }
}

/// The topology-seeded starting `dratio`: the paper's 0.1 on a flat
/// single-socket host, widened by 0.05 per extra socket (more NUMA
/// domains → more imbalance risk for the static distribution) and by
/// 0.2 when workers oversubscribe the logical CPUs (timeslicing defeats
/// static ownership). Deterministic in `(topo, threads)`.
fn seed_dratio(topo: &CpuTopology, threads: usize) -> f64 {
    let sockets = topo.sockets() as f64;
    let oversub = if threads > topo.len() { 0.2 } else { 0.0 };
    (0.1 + 0.05 * (sockets - 1.0) + oversub).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(seed: u64) -> AdaptiveController {
        AdaptiveController::new(AdaptivePolicy::new(seed), &CpuTopology::flat(4), 4)
    }

    #[test]
    fn seed_split_tracks_topology() {
        let flat = seed_dratio(&CpuTopology::flat(8), 8);
        let numa = seed_dratio(&CpuTopology::uniform(4, 2), 8);
        let over = seed_dratio(&CpuTopology::flat(2), 8);
        assert!((flat - 0.1).abs() < 1e-12);
        assert!(numa > flat, "more sockets seed a larger dynamic share");
        assert!(over > flat, "oversubscription seeds a larger dynamic share");
    }

    #[test]
    fn same_seed_same_trace_same_splits() {
        let (mut a, mut b) = (controller(7), controller(7));
        let obs: Vec<Observation> = (0..10)
            .map(|i| {
                Observation::new(4, 1.0, 0.8 * (i % 2) as f64)
                    .with_contention(0.05 * i as f64 / 10.0)
                    .with_dims(200 + 40 * i, 200 + 40 * i)
            })
            .collect();
        for o in &obs {
            a.observe(o);
            b.observe(o);
        }
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.choice(), b.choice());
        // a different seed dithers differently (exploration is seeded)
        let mut c = controller(8);
        for o in &obs {
            c.observe(o);
        }
        assert_ne!(a.choice().dratio, c.choice().dratio);
    }

    #[test]
    fn idle_grows_the_dynamic_share_and_contention_shrinks_it() {
        let mut idle = controller(1);
        for _ in 0..5 {
            idle.observe(&Observation::new(4, 1.0, 1.2)); // 30% idle
        }
        // one step each so neither hits the lower clamp
        let mut busy = controller(1);
        busy.observe(&Observation::new(4, 1.0, 0.0));
        let mut churn = controller(1);
        churn.observe(&Observation::new(4, 1.0, 0.0).with_contention(0.8));
        assert!(idle.choice().dratio > busy.choice().dratio);
        assert!(churn.choice().dratio < busy.choice().dratio);
    }

    #[test]
    fn bounds_hold_under_extreme_traces() {
        let policy = AdaptivePolicy::new(3).with_dratio_bounds(0.2, 0.7);
        let mut c = AdaptiveController::new(policy, &CpuTopology::flat(4), 4);
        for _ in 0..50 {
            c.observe(&Observation::new(4, 1.0, 4.0).with_lost(3).with_rescued(9));
        }
        assert!((c.choice().dratio - 0.7).abs() < 1e-12);
        for _ in 0..50 {
            c.observe(&Observation::new(4, 1.0, 0.0).with_contention(1.0));
        }
        assert!((c.choice().dratio - 0.2).abs() < 1e-12);
    }

    #[test]
    fn size_histogram_drives_the_batch_cutoffs() {
        let mut small = controller(4);
        for _ in 0..8 {
            small.observe(&Observation::new(4, 0.01, 0.0).with_dims(128, 128));
        }
        let s = small.choice();
        assert_eq!(s.batch_small_cutoff, 128);
        let mut large = controller(4);
        for _ in 0..8 {
            large.observe(&Observation::new(4, 0.5, 0.0).with_dims(2048, 2048));
        }
        let l = large.choice();
        assert_eq!(l.batch_small_cutoff, 768, "clamped to the policy maximum");
        assert!(
            l.batch_small_cutoff < 2048,
            "large items stay on the hybrid schedule"
        );
    }

    #[test]
    fn plans_keep_the_learned_split() {
        let mut c = controller(6);
        let seed = c.seed_choice();
        for _ in 0..5 {
            c.observe(&Observation::new(4, 1.0, 3.0));
        }
        assert_ne!(c.plan_choice(), seed, "feedback reaches the next plan");
        assert_eq!(c.plan_choice(), c.choice());
    }

    #[test]
    fn policy_validation_rejects_bad_bounds() {
        assert!(AdaptivePolicy::new(0).validate().is_ok());
        assert!(AdaptivePolicy::new(0)
            .with_dratio_bounds(0.0, 0.5)
            .validate()
            .is_err());
        assert!(AdaptivePolicy::new(0)
            .with_dratio_bounds(0.8, 0.2)
            .validate()
            .is_err());
        assert!(AdaptivePolicy::new(0)
            .with_dratio_bounds(0.1, 1.5)
            .validate()
            .is_err());
        assert!(AdaptivePolicy::new(0).with_gain(0.0).validate().is_err());
        assert!(AdaptivePolicy::new(0).with_gain(2.0).validate().is_err());
        let mut lax = AdaptivePolicy::new(0);
        lax.idle_target = 0.9;
        assert!(lax.validate().is_err());
        let mut crossed = AdaptivePolicy::new(0);
        (crossed.cutoff_min, crossed.cutoff_max) = (500, 100);
        assert!(crossed.validate().is_err());
    }
}
