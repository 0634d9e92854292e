//! Deterministic fault injection for the real executors.
//!
//! The paper's case for hybrid static/dynamic scheduling is that the
//! dynamic section absorbs *adversity* — slow cores, OS noise, lost
//! workers. The simulator proves that under modelled noise
//! (`calu-sim`'s `NoiseConfig` / `slow_core`); a [`FaultPlan`] proves it
//! on real threads: it makes the threaded executor and the service pool
//! misbehave *on purpose*, deterministically, so chaos runs replay
//! bit for bit from a seed.
//!
//! A plan holds at most one [`FaultKind`] per worker:
//!
//! * [`FaultKind::Slow`] — a persistent duty-cycle slowdown: after every
//!   task the worker stalls for `(factor − 1) ×` the task's duration
//!   (±25 % seeded jitter), mirroring the sim's noise model; what a
//!   sleep overshoots is taken off the next stall, so a run's stalls
//!   sum to what was owed. The
//!   executor treats a slow-flagged worker as *degraded* and routes its
//!   block-cyclic static tasks to the dynamic section instead, where the
//!   healthy workers load-balance them.
//! * [`FaultKind::StallOnce`] — one long stall at a chosen task count
//!   (a GC pause, a page-fault storm): the worker freezes, then resumes.
//! * [`FaultKind::Lose`] — the worker *dies* at a chosen task count.
//!   Before exiting it republishes its unexecuted static-section tasks
//!   into the dynamic queues (static-task rescue), so the survivors
//!   finish the factorization — bitwise identical to the no-fault run,
//!   because the DAG's exclusive-writer discipline makes the factors
//!   schedule-independent.
//! * [`FaultKind::Panic`] — the worker's next kernel panics. The
//!   executor contains it and fails the run with a typed
//!   [`CaluError::TaskPanic`]; the service pool keeps serving.
//!
//! [`FaultPlan::off`] is the default everywhere, and a disarmed plan
//! costs the hot path nothing: the executors only consult fault state
//! when a plan is armed.
//!
//! [`CaluError::TaskPanic`]: crate::CaluError::TaskPanic

use std::time::Duration;

use calu_rand::Rng;

use crate::error::CaluError;

/// The largest slow-worker factor a plan may carry: a stall of
/// `(factor − 1) × 1.25 ×` a task's duration must fit a `Duration`.
const MAX_SLOW_FACTOR: f64 = 100.0;

/// What a faulty worker does, and when (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Persistent slowdown: after each task, stall for
    /// `(factor − 1) ×` the task's own duration, with ±25 % seeded
    /// jitter — a duty-cycle model of a core running at `1/factor`
    /// speed. Requires `1 ≤ factor ≤ 100` (at most a core at 1 %
    /// speed), which keeps every stall a representable `Duration`.
    Slow {
        /// Effective slowdown multiplier (2.0 = half speed).
        factor: f64,
    },
    /// One-shot freeze: after `after_tasks` completed tasks the worker
    /// sleeps `millis`, then resumes normally.
    StallOnce {
        /// Tasks this worker completes before the stall.
        after_tasks: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Worker loss: after `after_tasks` completed tasks the worker
    /// rescues its static backlog into the dynamic queues and exits.
    Lose {
        /// Tasks this worker completes before dying.
        after_tasks: u64,
    },
    /// Injected kernel panic: the task popped after `after_tasks`
    /// completed tasks panics mid-kernel.
    Panic {
        /// Tasks this worker completes before the panicking one.
        after_tasks: u64,
    },
}

/// One worker's fault assignment inside a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkerFault {
    /// Worker index the fault applies to (must be `< threads`).
    pub(crate) worker: usize,
    /// The fault.
    pub(crate) kind: FaultKind,
}

/// A seeded, deterministic fault-injection plan (see module docs).
/// Validated through `CaluConfig::validate`; off by default.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the stall-jitter streams (each worker derives its own
    /// stream from `seed + worker`), so a chaos run replays bitwise.
    pub seed: u64,
    faults: Vec<WorkerFault>,
}

impl FaultPlan {
    /// The default: no faults injected anywhere.
    pub fn off() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing (the hot path is untouched).
    pub fn is_off(&self) -> bool {
        self.faults.is_empty()
    }

    /// Set the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run `worker` at `1/factor` effective speed (duty-cycle stalls);
    /// [`validate`](Self::validate) takes factors in `[1, 100]`.
    pub fn slow_worker(mut self, worker: usize, factor: f64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::Slow { factor },
        });
        self
    }

    /// Freeze `worker` once for `millis` ms after `after_tasks` tasks.
    pub fn stall_worker(mut self, worker: usize, after_tasks: u64, millis: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::StallOnce {
                after_tasks,
                millis,
            },
        });
        self
    }

    /// Kill `worker` after it completes `after_tasks` tasks.
    pub fn lose_worker(mut self, worker: usize, after_tasks: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::Lose { after_tasks },
        });
        self
    }

    /// Make `worker`'s next kernel after `after_tasks` tasks panic.
    pub fn panic_worker(mut self, worker: usize, after_tasks: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::Panic { after_tasks },
        });
        self
    }

    /// The plan's fault list.
    pub(crate) fn faults(&self) -> &[WorkerFault] {
        &self.faults
    }

    /// The fault assigned to `worker`, if any.
    pub(crate) fn fault_for(&self, worker: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.worker == worker)
            .map(|f| f.kind)
    }

    /// Validate against a worker count: every fault targets an existing
    /// worker, no worker carries two faults, slow factors are in
    /// `[1, 100]`, and at least one worker survives every `Lose`
    /// (otherwise no run could ever finish and `drain` could hang —
    /// exactly what the adversity layer promises never happens).
    pub fn validate(&self, threads: usize) -> Result<(), CaluError> {
        let mut seen = vec![false; threads];
        let mut losses = 0usize;
        for f in &self.faults {
            if f.worker >= threads {
                return Err(CaluError::InvalidConfig(format!(
                    "fault plan targets worker {} but the run has {} threads",
                    f.worker, threads
                )));
            }
            if seen[f.worker] {
                return Err(CaluError::InvalidConfig(format!(
                    "fault plan assigns two faults to worker {}",
                    f.worker
                )));
            }
            seen[f.worker] = true;
            match f.kind {
                FaultKind::Slow { factor } if !(1.0..=MAX_SLOW_FACTOR).contains(&factor) => {
                    return Err(CaluError::InvalidConfig(format!(
                        "slow-worker factor must be ≥ 1 and ≤ {MAX_SLOW_FACTOR}, got {factor}"
                    )));
                }
                FaultKind::Lose { .. } => losses += 1,
                _ => {}
            }
        }
        if losses > 0 && losses >= threads {
            return Err(CaluError::InvalidConfig(format!(
                "fault plan loses all {threads} workers; at least one must \
                 survive to finish the factorization"
            )));
        }
        Ok(())
    }
}

/// What the executor should do right now, as told by a [`FaultClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Keep working normally.
    None,
    /// Sleep this long, then continue (one-shot stall).
    Stall(Duration),
    /// Rescue the static backlog and exit (worker loss).
    Lose,
    /// Panic inside the next kernel.
    Panic,
}

/// Per-worker runtime fault state: the executors call
/// [`FaultClock::before_task`] before popping and
/// [`FaultClock::after_task`] after each completed task, and obey.
pub(crate) struct FaultClock {
    kind: Option<FaultKind>,
    /// Tasks this worker has completed.
    tasks: u64,
    /// The one-shot fault (stall / lose / panic) already fired.
    fired: bool,
    /// Jitter stream for `Slow` stalls (seeded from the plan).
    rng: Rng,
    /// How much earlier sleeps overshot their stalls (timer slack),
    /// not yet taken off a later one, and the run it was earned in.
    credit: Duration,
    credit_run: Option<u64>,
}

impl FaultClock {
    /// The clock for `worker` under `plan` (disarmed if the plan assigns
    /// it no fault).
    pub(crate) fn new(plan: &FaultPlan, worker: usize) -> Self {
        Self {
            kind: plan.fault_for(worker),
            tasks: 0,
            fired: false,
            rng: Rng::seed_from_u64(plan.seed.wrapping_add(worker as u64)),
            credit: Duration::ZERO,
            credit_run: None,
        }
    }

    /// True when this worker carries a persistent slowdown (executors
    /// read the plan's kinds directly; the clock's own tests use this).
    #[cfg(test)]
    pub(crate) fn is_slow(&self) -> bool {
        matches!(self.kind, Some(FaultKind::Slow { .. }))
    }

    /// Consult the clock before claiming the next task.
    pub(crate) fn before_task(&mut self) -> FaultAction {
        if self.fired {
            return FaultAction::None;
        }
        match self.kind {
            Some(FaultKind::StallOnce {
                after_tasks,
                millis,
            }) if self.tasks >= after_tasks => {
                self.fired = true;
                FaultAction::Stall(Duration::from_millis(millis))
            }
            Some(FaultKind::Lose { after_tasks }) if self.tasks >= after_tasks => {
                self.fired = true;
                FaultAction::Lose
            }
            Some(FaultKind::Panic { after_tasks }) if self.tasks >= after_tasks => {
                self.fired = true;
                FaultAction::Panic
            }
            _ => FaultAction::None,
        }
    }

    /// Record one completed task that took `busy`; returns the extra
    /// stall a `Slow` worker owes (duty-cycle slowdown with ±25 %
    /// seeded jitter).
    pub(crate) fn after_task(&mut self, busy: Duration) -> Option<Duration> {
        self.tasks += 1;
        match self.kind {
            Some(FaultKind::Slow { factor }) if factor > 1.0 => {
                let jitter = 0.75 + 0.5 * self.rng.next_f64();
                Some(busy.mul_f64((factor - 1.0) * jitter))
            }
            _ => None,
        }
    }

    /// Serve a stall of `owed` in run `run` through `sleep`, which
    /// sleeps at least what it is asked and returns how long it took.
    /// A sleep's overshoot (Linux timer slack adds ~50 µs to each) is
    /// credit taken off this worker's next stall in the same run, so a
    /// run's stalls add up to what was owed, not to what the timer
    /// gave; a stall in another run starts without credit, so it always
    /// sleeps. Returns the time slept: zero when credit covered it all.
    pub(crate) fn serve_stall(
        &mut self,
        run: Option<u64>,
        owed: Duration,
        sleep: impl FnOnce(Duration) -> Duration,
    ) -> Duration {
        if self.credit_run != run {
            (self.credit, self.credit_run) = (Duration::ZERO, run);
        }
        let due = owed.saturating_sub(self.credit);
        self.credit = self.credit.saturating_sub(owed);
        if due.is_zero() {
            return Duration::ZERO;
        }
        let slept = sleep(due);
        self.credit += slept.saturating_sub(due);
        slept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_default_and_validates_everywhere() {
        let p = FaultPlan::off();
        assert!(p.is_off());
        assert_eq!(p, FaultPlan::default());
        for threads in 1..8 {
            p.validate(threads).unwrap();
        }
    }

    #[test]
    fn builders_accumulate_and_validate() {
        let p = FaultPlan::off()
            .with_seed(7)
            .slow_worker(0, 2.0)
            .lose_worker(1, 5)
            .stall_worker(2, 3, 10)
            .panic_worker(3, 2);
        assert!(!p.is_off());
        assert_eq!(p.faults().len(), 4);
        p.validate(4).unwrap();
        assert_eq!(p.fault_for(1), Some(FaultKind::Lose { after_tasks: 5 }));
        assert_eq!(p.fault_for(7), None);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        // out-of-range worker
        let e = FaultPlan::off().lose_worker(4, 1).validate(4).unwrap_err();
        assert!(e.to_string().contains("worker 4"), "{e}");
        // duplicate worker
        let e = FaultPlan::off()
            .slow_worker(1, 2.0)
            .lose_worker(1, 3)
            .validate(4)
            .unwrap_err();
        assert!(e.to_string().contains("two faults"), "{e}");
        // slow factor below 1
        let e = FaultPlan::off()
            .slow_worker(0, 0.5)
            .validate(2)
            .unwrap_err();
        assert!(e.to_string().contains("≥ 1"), "{e}");
        // a factor whose stall would overflow a Duration, or no number
        for factor in [100.5, 1e30, f64::INFINITY, f64::NAN] {
            let e = FaultPlan::off()
                .slow_worker(0, factor)
                .validate(2)
                .unwrap_err();
            assert!(e.to_string().contains("≤ 100"), "{factor}: {e}");
        }
        FaultPlan::off().slow_worker(0, 100.0).validate(1).unwrap();
        // losing every worker can never finish
        let e = FaultPlan::off()
            .lose_worker(0, 1)
            .lose_worker(1, 1)
            .validate(2)
            .unwrap_err();
        assert!(e.to_string().contains("survive"), "{e}");
        // …but losing all-but-one is fine
        FaultPlan::off()
            .lose_worker(0, 1)
            .lose_worker(1, 1)
            .validate(3)
            .unwrap();
    }

    #[test]
    fn clock_fires_one_shot_faults_at_the_task_count() {
        let plan = FaultPlan::off().lose_worker(0, 2).panic_worker(1, 0);
        let mut c = FaultClock::new(&plan, 0);
        assert_eq!(c.before_task(), FaultAction::None);
        c.after_task(Duration::from_millis(1));
        assert_eq!(c.before_task(), FaultAction::None);
        c.after_task(Duration::from_millis(1));
        assert_eq!(c.before_task(), FaultAction::Lose);
        // one-shot: fired once, never again
        assert_eq!(c.before_task(), FaultAction::None);

        let mut p = FaultClock::new(&plan, 1);
        assert_eq!(p.before_task(), FaultAction::Panic);
        assert_eq!(p.before_task(), FaultAction::None);

        // a worker without a fault never fires
        let mut h = FaultClock::new(&plan, 2);
        for _ in 0..10 {
            assert_eq!(h.before_task(), FaultAction::None);
            assert!(h.after_task(Duration::from_millis(1)).is_none());
        }
    }

    #[test]
    fn slow_clock_stalls_proportionally_and_replays_bitwise() {
        let plan = FaultPlan::off().with_seed(42).slow_worker(0, 3.0);
        let run = || {
            let mut c = FaultClock::new(&plan, 0);
            assert!(c.is_slow());
            (0..8)
                .map(|_| c.after_task(Duration::from_millis(10)).unwrap())
                .collect::<Vec<_>>()
        };
        let stalls = run();
        // factor 3 → stall ≈ 2× the task, jittered ±25%
        for s in &stalls {
            let ms = s.as_secs_f64() * 1e3;
            assert!((15.0..=25.0).contains(&ms), "stall {ms} ms out of band");
        }
        assert_eq!(stalls, run(), "same seed, same stall schedule");
        // a different seed moves the jitter
        let other = FaultPlan::off().with_seed(43).slow_worker(0, 3.0);
        let mut c2 = FaultClock::new(&other, 0);
        c2.after_task(Duration::from_millis(10));
        assert!(FaultClock::new(&other, 0).is_slow());
    }

    #[test]
    fn stall_overshoot_is_credited_within_a_run() {
        // a sleeper that always overshoots by a fixed 56 µs, serving
        // 30 µs stalls: alone they would take 86 µs each
        let (owed, over) = (Duration::from_micros(30), Duration::from_micros(56));
        let sleeper = |due: Duration| due + over;
        let mut c = FaultClock::new(&FaultPlan::off().slow_worker(0, 2.0), 0);
        assert_eq!(c.serve_stall(Some(1), owed, sleeper), owed + over);
        // the next stall is paid from the credit, the one after mostly
        assert_eq!(c.serve_stall(Some(1), owed, sleeper), Duration::ZERO);
        let third = c.serve_stall(Some(1), owed, sleeper);
        assert_eq!(third, Duration::from_micros(4) + over);
        // over a run the slept total is the owed total, plus at most
        // the last sleep's overshoot
        let slept: Duration = (3..100)
            .map(|_| c.serve_stall(Some(1), owed, sleeper))
            .sum::<Duration>()
            + owed
            + over
            + third;
        assert!(
            slept >= owed * 100 && slept <= owed * 100 + over,
            "{slept:?}"
        );
        // a new run starts without credit: its first stall sleeps
        assert_eq!(c.serve_stall(Some(2), owed, sleeper), owed + over);
        assert_eq!(c.serve_stall(None, owed, sleeper), owed + over);
        // a sleeper that is exact never earns credit
        let mut e = FaultClock::new(&FaultPlan::off(), 0);
        for _ in 0..10 {
            assert_eq!(e.serve_stall(Some(1), owed, |d| d), owed);
        }
    }

    #[test]
    fn stall_once_sleeps_exactly_once() {
        let plan = FaultPlan::off().stall_worker(0, 1, 25);
        let mut c = FaultClock::new(&plan, 0);
        assert_eq!(c.before_task(), FaultAction::None);
        c.after_task(Duration::ZERO);
        assert_eq!(
            c.before_task(),
            FaultAction::Stall(Duration::from_millis(25))
        );
        c.after_task(Duration::ZERO);
        assert_eq!(c.before_task(), FaultAction::None);
    }
}
