//! What a workload is given and what its two passes hand back.

use std::path::PathBuf;
use std::time::Instant;

use crate::host::Host;
use crate::spans::Recorder;
use crate::stats::{percentile, Summary};

/// Times each workload sets itself up in the untraced pass; `setup_s` is
/// the median, so one cold first set-up does not decide it.
pub const SETUPS: usize = 3;

/// Repetitions of the traced pass whose spans go to the trace file.
pub const TRACED_REPS: usize = 3;

/// Untimed repetitions at the end of every set-up: the first run of a
/// process pays page faults and per-thread scratch allocation that no
/// later one does.
pub const WARMUP_REPS: usize = 2;

/// A timed pass never reports fewer repetitions than this, however short
/// `--seconds` is.
pub const MIN_REPS: usize = 5;

/// `latency_tail_s` where a latency sample is a whole repetition: a pass
/// holds 60 to 190 of them, and the 75th is the highest round percentile
/// that keeps ten samples beyond it on every workload. The 95th would be
/// the third- or fourth-slowest repetition, which on a shared host is a
/// slow spell of the host, not the program.
pub const REP_TAIL: f64 = 75.0;

/// `latency_tail_s` where a sample is a served job: thousands per pass,
/// so the 95th has hundreds beyond it.
pub const JOB_TAIL: f64 = 95.0;

pub struct Ctx {
    pub host: Host,
    pub seed: u64,
    /// Length of the measured part of a pass, in seconds.
    pub seconds: f64,
    /// Tiny shapes: exercises every code path in a few seconds, measures
    /// nothing worth keeping.
    pub smoke: bool,
    /// Where trace files and scratch files (the journal rung) go.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn threads(&self) -> usize {
        self.host.threads
    }
}

/// Outcome of the untraced pass: raw samples, folded into the end-to-end
/// metrics by [`EndToEnd::metrics`].
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Operations attempted: factorizations, batch items or served jobs.
    pub attempted: u64,
    /// Errors, refusals, residual or factor-hash mismatches.
    pub failed: u64,
    pub notes: Vec<String>,
    /// One entry per set-up.
    pub setup_s: Vec<f64>,
    /// One entry per repetition (run, batch sweep or closed-loop round).
    pub wall_s: Vec<f64>,
    /// Nominal flops of one repetition.
    pub flops_per_rep: f64,
    /// One entry per operation a caller waits for: the job on the served
    /// workload, the repetition elsewhere.
    pub latency_s: Vec<f64>,
    /// Percentile of `latency_s` reported as `latency_tail_s`:
    /// [`REP_TAIL`] or [`JOB_TAIL`], fixed per workload so the metric
    /// never changes meaning with the repetition count.
    pub tail_percentile: f64,
    /// Largest probe residual over the verified repetitions.
    pub residual_check: f64,
    /// Hash shared by the factors of every repetition.
    pub factor_hash: u64,
}

/// A pass checks out when something ran, nothing failed, and every probe
/// residual is under the tolerance.
fn checks_out(attempted: u64, failed: u64, residual: f64) -> bool {
    attempted > 0 && failed == 0 && residual < crate::check::RESIDUAL_TOL
}

/// Set a workload up [`SETUPS`] times, timing each into `setup_s` and
/// tearing the previous state down first (untimed), as a fresh process
/// would start without it; returns the last state.
pub fn set_up_timed<S>(
    setup_s: &mut Vec<f64>,
    mut set_up: impl FnMut() -> S,
    mut tear_down: impl FnMut(S),
) -> S {
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some(previous) = state.take() {
            tear_down(previous);
        }
        let t0 = Instant::now();
        state = Some(set_up());
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    state.expect("SETUPS > 0")
}

impl EndToEnd {
    pub fn correct(&self) -> bool {
        checks_out(self.attempted, self.failed, self.residual_check)
    }

    /// The end-to-end metrics, in `spec::END_TO_END` order, each with its
    /// within-run quartiles and sample count.
    pub fn metrics(&self, peak_heap_mb: f64) -> Vec<(&'static str, Summary)> {
        let gflops: Vec<f64> = self
            .wall_s
            .iter()
            .map(|w| self.flops_per_rep / w / 1e9)
            .collect();
        debug_assert!(self.tail_percentile > 50.0, "tail percentile not set");
        let tail = percentile(&self.latency_s, self.tail_percentile);
        vec![
            ("setup_s", Summary::of(&self.setup_s)),
            ("wall_s", Summary::of(&self.wall_s)),
            ("gflops", Summary::of(&gflops)),
            ("latency_p50_s", Summary::of(&self.latency_s)),
            (
                "latency_tail_s",
                Summary {
                    n: self.latency_s.len(),
                    ..Summary::single(tail)
                },
            ),
            ("peak_heap_mb", Summary::single(peak_heap_mb)),
        ]
    }
}

/// Outcome of the traced pass: the per-layer metrics that apply to the
/// workload, and the spans behind them.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub residual_check: f64,
    pub metrics: Vec<(&'static str, f64)>,
    pub recorder: Recorder,
}

impl Traced {
    pub fn correct(&self) -> bool {
        checks_out(self.attempted, self.failed, self.residual_check)
    }
}

/// Per-layer metrics under construction. A metric that does not apply to
/// the workload is simply never put.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not declared in spec::PER_LAYER"
        );
        debug_assert!(self.get(name).is_none(), "{name} put twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// What `verify(true)` adds to a repetition: `(residual, seconds)` of
    /// the full check, against the repetition's wall time. Returns the
    /// residual the pass is judged by (0 when the check never ran, which
    /// the caller has already counted as a failure).
    pub fn put_verify(&mut self, verified: Option<(f64, f64)>, wall: f64) -> f64 {
        let Some((residual, verify_s)) = verified else {
            return 0.0;
        };
        self.put("core.verify_s", verify_s);
        self.put("core.residual_max", residual);
        self.put("solver.verify_over_factor", verify_s / wall);
        residual
    }

    /// The facade's share of a repetition: `wall` around the public call
    /// against the `engine` time the call reports, the layer's own entry
    /// point (`raw`) and the planning it repeats.
    pub fn put_facade(&mut self, wall: f64, engine: f64, raw: f64, plan_s: f64) {
        self.put("solver.plan_s", plan_s);
        self.put("solver.outside_dag_s", wall - engine);
        self.put("solver.outside_dag_frac", (wall - engine) / wall);
        self.put("solver.facade_overhead_s", wall - raw);
    }

    /// Achieved rate of a repetition over `threads` times this run's own
    /// one-thread GEMM roofline (needs the kernels rung to have run).
    pub fn put_roofline(&mut self, flops: f64, wall: f64, threads: usize) {
        if let Some(peak) = self.get("kernels.gemm_peak_gflops") {
            let achieved = flops / wall / 1e9;
            self.put(
                "solver.gemm_roofline_frac",
                achieved / (threads as f64 * peak),
            );
        }
    }
}

/// Call `f` until `budget` seconds have passed, at least `min` and at most
/// `max` times; returns each call's wall time.
pub fn timed_reps(budget: f64, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < min || start.elapsed().as_secs_f64() < budget) {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// Seconds per call of `f`, from enough back-to-back calls to fill about
/// `budget` seconds (for rungs too short to time one call at a time).
pub fn per_call_secs(budget: f64, mut f: impl FnMut()) -> f64 {
    // size the loop from a short probe so the clock is read twice, not
    // once per call
    let probe = Instant::now();
    let mut probed = 0u32;
    while probed < 3 || (probe.elapsed().as_secs_f64() < budget * 0.1 && probed < 1 << 20) {
        f();
        probed += 1;
    }
    let per = probe.elapsed().as_secs_f64() / f64::from(probed);
    let calls = ((budget / per.max(1e-9)) as u64).clamp(1, 1 << 24);
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_reps_honours_min_max_and_budget() {
        let mut calls = 0;
        let ts = timed_reps(0.0, 3, 10, || calls += 1);
        assert_eq!((ts.len(), calls), (3, 3));
        let ts = timed_reps(10.0, 1, 4, || ());
        assert_eq!(ts.len(), 4);
        let ts = timed_reps(0.02, 1, usize::MAX, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!((2..=6).contains(&ts.len()), "{}", ts.len());
    }

    #[test]
    fn per_call_secs_is_positive_and_scales() {
        let quick = per_call_secs(0.01, || {
            std::hint::black_box(1 + 1);
        });
        assert!(quick > 0.0 && quick < 1e-4);
    }

    #[test]
    fn end_to_end_metrics_cover_the_spec_in_order() {
        let e = EndToEnd {
            attempted: 4,
            setup_s: vec![0.5, 0.4, 0.6],
            wall_s: vec![0.1, 0.2, 0.1, 0.1],
            flops_per_rep: 1e9,
            latency_s: vec![0.1, 0.2, 0.1, 0.1],
            tail_percentile: 100.0,
            residual_check: 1e-15,
            ..Default::default()
        };
        assert!(e.correct());
        let m = e.metrics(12.5);
        let names: Vec<&str> = m.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = crate::spec::END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(names, declared);
        assert_eq!(m[0].1.median, 0.5);
        assert_eq!(m[2].1.median, 10.0);
        assert_eq!(m[4].1.median, 0.2);
        assert!(m.iter().all(|(_, s)| s.median != 0.0));
    }
}
