//! The benchmark's vocabulary: every workload and metric it may print,
//! with unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root is generated from these tables (`benchmark spec`) and a
//! test holds the two together.

use crate::json::Json;

/// How long one measured pass lasts by default, and what the driver passes
/// as `--seconds`.
pub const RUN_SECONDS: u64 = 14;

/// Seed used when none is given (the paper's year).
pub const DEFAULT_SEED: u64 = 2012;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "lu_large",
        why: "CALU 2000x2000 at the paper's defaults (b=100, BCL, hybrid 10% dynamic): S-task GEMM does >90% of the flops over ~3k tasks, so kernel, blocking and layout work shows and dequeue cost does not",
    },
    WorkloadSpec {
        name: "lu_fine",
        why: "CALU 1024x1024 at b=16: ~90k tasks of ~8 kflop each, so DAG build, dependency release, dequeue and steal sweeps dominate and a large-tile kernel change should not show",
    },
    WorkloadSpec {
        name: "lu_tall",
        why: "CALU 16384x256 at b=64: four panels of 256 tile rows, TSLU tournament pivoting and panel L tasks are the critical path, trailing update is small: the communication-avoiding half of the paper",
    },
    WorkloadSpec {
        name: "chol_large",
        why: "Cholesky SPD 2048x2048 at b=64: same engine and packed GEMM used as POTRF/TRSM/SYRK/GEMM-NT with no pivot barrier on 8-aligned tiles, so an LU-only gain that costs Cholesky shows",
    },
    WorkloadSpec {
        name: "lu_degraded",
        why: "CALU 1536x1536 at b=64 with worker 0 slowed 2x at fixed dratio 0.1: the paper's central claim, where load balance, rescue and steal policy rather than overhead set the time",
    },
    WorkloadSpec {
        name: "batch_small",
        why: "one Solver::batch sweep of 256 dense items sized 96..320 at b=32, all under the co-scheduling cutoff: per-item plan, DAG build, claim and small-n kernels do the work, hybrid queues almost none",
    },
    WorkloadSpec {
        name: "serve_mix",
        why: "TCP front door, closed loop, C connections x window 4, 70% interactive 128..256 / 25% batch 512 / 5% background spd 384: admission, class lanes, lazy materialization, pool engine and wire protocol",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every one is reported by every
/// workload and is never zero.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("gflops", "Gflop/s", Higher, 0.25),
    e2e("latency_p50_s", "s", Lower, 0.25),
    e2e("latency_tail_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.10),
];

/// Single-layer figures, named `<layer>.<metric>` after the repo's
/// modules. No bounds: they explain a move in an end-to-end metric, they
/// do not gate.
pub const PER_LAYER: &[MetricSpec] = &[
    // calu-kernels: standalone rungs at the workload's tile size
    layer("kernels.gemm_peak_gflops", "Gflop/s", Higher),
    layer("kernels.gemm_tile_gflops", "Gflop/s", Higher),
    layer("kernels.gemm_tile_over_peak", "ratio", Higher),
    layer("kernels.trsm_tile_gflops", "Gflop/s", Higher),
    layer("kernels.getrf_panel_gflops", "Gflop/s", Higher),
    layer("kernels.potrf_tile_gflops", "Gflop/s", Higher),
    layer("kernels.syrk_tile_gflops", "Gflop/s", Higher),
    layer("kernels.gemm_nt_tile_gflops", "Gflop/s", Higher),
    layer("kernels.flops", "flop", Lower),
    layer("kernels.bytes_computed", "B", Lower),
    layer("kernels.ops_per_byte_computed", "flop/B", Higher),
    // calu-matrix
    layer("matrix.gen_s", "s", Lower),
    layer("matrix.to_tiles_s", "s", Lower),
    layer("matrix.to_dense_s", "s", Lower),
    layer("matrix.to_tiles_gbps", "GB/s", Higher),
    layer("matrix.copy_gbps", "GB/s", Higher),
    layer("matrix.layout_over_copy", "ratio", Lower),
    // calu-dag
    layer("dag.build_s", "s", Lower),
    layer("dag.build_ns_per_task", "ns", Lower),
    layer("dag.tasks", "count", Lower),
    layer("dag.edges", "count", Lower),
    layer("dag.critical_path_tasks", "count", Lower),
    layer("dag.critical_path_frac", "ratio", Lower),
    // calu-sched: standalone rungs, then folds of Report::schedule
    layer("sched.drain_global_ns_per_task", "ns", Lower),
    layer("sched.drain_sharded_ns_per_task", "ns", Lower),
    layer("sched.drain_lockfree_ns_per_task", "ns", Lower),
    layer("sched.deque_push_pop_ns", "ns", Lower),
    layer("sched.deque_steal_ns", "ns", Lower),
    layer("sched.lanes_push_pop_ns", "ns", Lower),
    layer("sched.adaptive_observe_ns", "ns", Lower),
    layer("sched.static_pops", "count", Higher),
    layer("sched.dynamic_pops", "count", Lower),
    layer("sched.stolen_pops", "count", Lower),
    layer("sched.remote_steal_pops", "count", Lower),
    layer("sched.failed_steals", "count", Lower),
    layer("sched.steal_fail_rate", "ratio", Lower),
    layer("sched.dynamic_frac", "ratio", Lower),
    layer("sched.rescued_tasks", "count", Lower),
    // calu-core
    layer("core.makespan_s", "s", Lower),
    layer("core.busy_s", "s", Lower),
    layer("core.idle_s", "s", Lower),
    layer("core.idle_frac", "ratio", Lower),
    layer("core.utilization", "ratio", Higher),
    layer("core.accounting_gap_frac", "ratio", Lower),
    layer("core.ns_per_task", "ns", Lower),
    layer("core.task_P_s", "s", Lower),
    layer("core.task_L_s", "s", Lower),
    layer("core.task_U_s", "s", Lower),
    layer("core.task_S_s", "s", Lower),
    layer("core.task_count_P", "count", Lower),
    layer("core.task_count_L", "count", Lower),
    layer("core.task_count_U", "count", Lower),
    layer("core.task_count_S", "count", Lower),
    layer("core.tslu_panel_s", "s", Lower),
    layer("core.raw_factor_s", "s", Lower),
    layer("core.t1_wall_s", "s", Lower),
    layer("core.parallel_eff", "ratio", Higher),
    layer("core.gepp_wall_s", "s", Lower),
    layer("core.calu_over_gepp", "ratio", Lower),
    layer("core.verify_s", "s", Lower),
    layer("core.residual_max", "ratio", Lower),
    layer("core.degraded_over_healthy", "ratio", Lower),
    layer("core.lost_workers", "count", Lower),
    layer("core.batch_item_makespan_p50_s", "s", Lower),
    layer("core.pool_spawn_s", "s", Lower),
    layer("core.batch_over_loop", "ratio", Lower),
    // the calu facade
    layer("solver.plan_s", "s", Lower),
    layer("solver.outside_dag_s", "s", Lower),
    layer("solver.outside_dag_frac", "ratio", Lower),
    layer("solver.facade_overhead_s", "s", Lower),
    layer("solver.gemm_roofline_frac", "ratio", Higher),
    layer("solver.unattributed_s", "s", Lower),
    layer("solver.verify_over_factor", "ratio", Lower),
    layer("solver.trace_overhead_frac", "ratio", Lower),
    // calu-serve
    layer("serve.jobs_per_s", "1/s", Higher),
    layer("serve.inproc_jobs_per_s", "1/s", Higher),
    layer("serve.net_over_inproc", "ratio", Higher),
    layer("serve.inproc_over_batch", "ratio", Higher),
    layer("serve.admit_p50_s", "s", Lower),
    layer("serve.submit_rtt_p50_s", "s", Lower),
    layer("serve.status_rtt_p50_s", "s", Lower),
    layer("serve.ping_rtt_p50_s", "s", Lower),
    layer("serve.queue_wait_p50_s", "s", Lower),
    layer("serve.run_p50_s", "s", Lower),
    layer("serve.latency_p99_s", "s", Lower),
    layer("serve.latency_interactive_p50_s", "s", Lower),
    layer("serve.latency_batch_p50_s", "s", Lower),
    layer("serve.latency_background_p50_s", "s", Lower),
    layer("serve.busy_replies", "count", Lower),
    layer("serve.polls_per_job", "ratio", Lower),
    layer("serve.requests", "count", Lower),
    layer("serve.journal_submit_p50_s", "s", Lower),
    layer("serve.reconfigure_stall_s", "s", Lower),
    layer("serve.drain_s", "s", Lower),
    // calu-sim (rung under lu_large) and calu-trace
    layer("sim.run_s", "s", Lower),
    layer("sim.tasks_per_s", "1/s", Higher),
    layer("sim.hybrid_over_static_gain", "ratio", Higher),
    layer("sim.hybrid_over_dynamic_gain", "ratio", Higher),
    layer("trace.spans", "count", Lower),
    layer("trace.file_bytes", "B", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
/// The driver's rule for names: starts with a letter or digit, at most 64
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
/// The driver's rule for units: at most 16 of letters, digits and `_/%.-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |m: &MetricSpec| {
        let mut o = Json::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.as_str());
        if let Some(b) = m.bound {
            o.set("bound", Json::Num(b));
        }
        o
    };
    Json::obj()
        .with(
            "command",
            Json::Arr(command.iter().map(|&s| s.into()).collect()),
        )
        .with("paths", Json::Arr(vec!["benchmark".into()]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        )
        .with(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_unit_validators() {
        for good in ["wall_s", "kernels.gemm_peak_gflops", "a-b", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "has space", "slash/y", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["s", "Gflop/s", "1/s", "%", "flop/B"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_unit_and_bound_is_within_the_drivers_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    /// `BENCHMARK.json` is checked in; this holds it to the tables above,
    /// so a metric the binary prints is declared there and vice versa.
    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark spec`"
        );
        let keys: Vec<&str> = on_disk.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
