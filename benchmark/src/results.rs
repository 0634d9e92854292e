//! A pass's result in its three printed forms — the table for people,
//! the detail file for `compare`, the last line for the driver — and the
//! all-workloads mode that runs every pass in a child process of its own
//! so `peak_heap_mb` belongs to one workload.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::run::{Ctx, EndToEnd, Traced};
use crate::spec::{self, MetricSpec};
use crate::stats::Summary;
use crate::{heap, host, Args};

pub struct Pass {
    workload: String,
    traced: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    host: host::Host,
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    residual_check: f64,
    factor_hash: u64,
    /// Metrics that apply to this workload, in declaration order.
    metrics: Vec<(&'static MetricSpec, Summary)>,
    /// Trace file and self time per layer (traced passes).
    trace: Option<Json>,
    /// Raw per-repetition and per-operation times (untraced passes), so
    /// another statistic can be tried without another run.
    samples: Option<Json>,
}

impl Pass {
    fn new(name: &str, ctx: &Ctx, traced: bool) -> Pass {
        Pass {
            workload: name.to_string(),
            traced,
            seed: ctx.seed,
            seconds: ctx.seconds,
            smoke: ctx.smoke,
            host: ctx.host.clone(),
            correct: false,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            residual_check: 0.0,
            factor_hash: 0,
            metrics: Vec::new(),
            trace: None,
            samples: None,
        }
    }

    pub fn end_to_end(name: &str, ctx: &Ctx, e: EndToEnd) -> Pass {
        let mut pass = Pass::new(name, ctx, false);
        pass.correct = e.correct();
        pass.metrics = e
            .metrics(heap::peak_mb())
            .into_iter()
            .map(|(n, s)| {
                (
                    spec::end_to_end(n).expect("declared in spec::END_TO_END"),
                    s,
                )
            })
            .collect();
        let list = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        pass.samples = Some(
            Json::obj()
                .with("setup_s", list(&e.setup_s))
                .with("wall_s", list(&e.wall_s))
                .with("latency_s", list(&e.latency_s)),
        );
        pass.attempted = e.attempted;
        pass.failed = e.failed;
        pass.notes = e.notes;
        pass.residual_check = e.residual_check;
        pass.factor_hash = e.factor_hash;
        pass
    }

    /// Fold a traced pass: check and write its trace file, then list the
    /// per-layer metrics that apply.
    pub fn layers(name: &str, ctx: &Ctx, t: Traced) -> Result<Pass, String> {
        let mut pass = Pass::new(name, ctx, true);
        pass.correct = t.correct();
        pass.attempted = t.attempted;
        pass.failed = t.failed;
        pass.residual_check = t.residual_check;
        pass.notes = t.notes;
        if let Err(e) = t.recorder.validate() {
            pass.correct = false;
            pass.notes.push(format!("malformed trace: {e}"));
        }
        let path = ctx.out_dir.join(format!("trace_{name}.json"));
        let text = t.recorder.chrome_trace();
        std::fs::write(&path, &text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let mut values = t.metrics;
        values.push(("trace.spans", t.recorder.spans().len() as f64));
        values.push(("trace.file_bytes", text.len() as f64));
        pass.metrics = spec::PER_LAYER
            .iter()
            .filter_map(|m| {
                let (_, v) = values.iter().find(|(n, _)| *n == m.name)?;
                Some((m, Summary::single(*v)))
            })
            .collect();
        let mut self_time = Json::obj();
        for (layer, secs) in t.recorder.self_time_by_layer() {
            self_time.set(layer, Json::Num(secs));
        }
        pass.trace = Some(
            Json::obj()
                .with("file", path.display().to_string())
                .with("self_time_s_by_layer", self_time),
        );
        Ok(pass)
    }

    /// Every metric by name, with its unit.
    pub fn print_table(&self) {
        println!(
            "== {} · {} · seed {} · {} s · T={}{} ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.seconds,
            self.host.threads,
            if self.smoke { " · smoke" } else { "" },
        );
        for (m, s) in &self.metrics {
            let spread = if s.n > 1 {
                format!("  [q1 {:.6}, q3 {:.6}, n {}]", s.q1, s.q3, s.n)
            } else {
                String::new()
            };
            // tiny figures (residuals) would read 0.000000 in fixed point
            let value = if s.median != 0.0 && s.median.abs() < 1e-4 {
                format!("{:.6e}", s.median)
            } else {
                format!("{:.6}", s.median)
            };
            println!("{:<36} {value:>16} {:<8}{spread}", m.name, m.unit);
        }
        println!(
            "correct {} · attempted {} · failed {} · probe residual {:.3e}",
            self.correct, self.attempted, self.failed, self.residual_check
        );
        for note in &self.notes {
            println!("note: {note}");
        }
        let absent: Vec<&str> = self
            .declared()
            .iter()
            .map(|m| m.name)
            .filter(|n| self.metrics.iter().all(|(have, _)| have.name != *n))
            .collect();
        if !absent.is_empty() {
            println!(
                "not measured on this workload, 0 on the result line: {}",
                absent.join(" ")
            );
        }
    }

    /// The declared metrics of this pass's kind.
    fn declared(&self) -> &'static [MetricSpec] {
        if self.traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        }
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, with every declared metric of the pass's kind. A
    /// per-layer metric that does not apply to this workload reads 0 here
    /// (the layer did no such work); the table names those just above the
    /// line and the detail file leaves them out. The driver takes no
    /// `attempted` of 0, so a pass that attempted nothing reports the one
    /// operation it owed as failed.
    pub fn contract_line(&self) -> Json {
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        let mut metrics = Json::obj();
        for m in self.declared() {
            let value = self
                .metrics
                .iter()
                .find(|(have, _)| have.name == m.name)
                .map_or(0.0, |(_, s)| s.median);
            metrics.set(
                m.name,
                Json::obj().with("value", value).with("unit", m.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics)
    }

    fn detail(&self) -> Json {
        let mut metrics = Json::obj();
        for (m, s) in &self.metrics {
            let mut entry = Json::obj().with("value", s.median).with("unit", m.unit);
            if !self.traced {
                entry = entry.with("q1", s.q1).with("q3", s.q3).with("n", s.n);
            }
            metrics.set(m.name, entry);
        }
        let mut doc = Json::obj()
            .with("workload", self.workload.as_str())
            .with("traced", self.traced)
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("smoke", self.smoke)
            .with("host", self.host.to_json())
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("residual_check", self.residual_check)
            .with("factor_hash", format!("{:016x}", self.factor_hash))
            // informational: resident peak, which glibc's moving mmap
            // threshold makes differ between runs of one program
            .with("vm_hwm_mb", host::peak_rss_mb())
            .with(
                "notes",
                Json::Arr(self.notes.iter().map(|n| n.as_str().into()).collect()),
            )
            .with("metrics", metrics);
        if let Some(trace) = &self.trace {
            doc.set("trace", trace.clone());
        }
        if let Some(samples) = &self.samples {
            doc.set("samples", samples.clone());
        }
        doc
    }

    pub fn write_detail(&self, out_dir: &Path) -> Result<(), String> {
        let path = detail_path(out_dir, &self.workload, self.traced);
        std::fs::write(&path, self.detail().pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn detail_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}.{}.json",
        if traced { "layers" } else { "e2e" }
    ))
}

/// Run one pass in a child process and read back its detail file.
fn child_pass(args: &Args, workload: &str, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start a child pass: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} --trace {} exited with {status}",
            u8::from(traced)
        ));
    }
    let path = detail_path(&args.out_dir, workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Untraced runs per workload in the all-workloads mode, with seeds
/// `seed`, `seed + 1`, …: on a shared host one run can sit entirely inside
/// a slow spell, and the median over three is what two sets agree on.
const RUNS: u64 = 3;

/// The end-to-end metrics of a workload's untraced runs, one entry per
/// metric: the median over the runs' values with the quartiles across
/// runs — the spread the driver looks at.
fn fold_runs(runs: &[Json]) -> Json {
    let mut out = Json::obj();
    for m in spec::END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
            .collect();
        let s = Summary::of(&values);
        out.set(
            m.name,
            Json::obj()
                .with("value", s.median)
                .with("unit", m.unit)
                .with("q1", s.q1)
                .with("q3", s.q3)
                .with("n", s.n),
        );
    }
    out
}

/// A workload's entry in a set: its `RUNS` untraced passes, folded.
fn untraced_entry(args: &Args, name: &str) -> Result<Json, String> {
    let runs = (0..RUNS)
        .map(|i| child_pass(args, name, args.seed + i, false))
        .collect::<Result<Vec<_>, _>>()?;
    let all = |k: &str| Json::Arr(runs.iter().filter_map(|r| r.get(k).cloned()).collect());
    let sum = |k: &str| -> f64 { runs.iter().filter_map(|r| r.get(k)?.as_f64()).sum() };
    let correct = runs
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    Ok(Json::obj()
        .with("correct", correct)
        .with("attempted", sum("attempted"))
        .with("failed", sum("failed"))
        .with("residual_check", all("residual_check"))
        .with("factor_hash", all("factor_hash"))
        .with("end_to_end", fold_runs(&runs)))
}

/// `count` full sets in the form `compare` reads, taken workload by
/// workload: the sets' runs of one workload are back to back, so the
/// host's drift over minutes hits every set alike and `--repeat` judges
/// the benchmark, not the weather. The first set carries the traced pass.
fn run_sets(args: &Args, host: &host::Host, count: usize) -> Result<Vec<Json>, String> {
    let mut sets = vec![Json::obj(); count];
    for name in spec::WORKLOADS.iter().map(|w| w.name) {
        let mut entries = (0..count)
            .map(|_| untraced_entry(args, name))
            .collect::<Result<Vec<_>, _>>()?;
        let layers = child_pass(args, name, args.seed, true)?;
        let ok = layers
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        entries[0].set("traced_correct", ok.into());
        entries[0].set(
            "per_layer",
            layers.get("metrics").cloned().unwrap_or(Json::Null),
        );
        entries[0].set("trace", layers.get("trace").cloned().unwrap_or(Json::Null));
        for (set, entry) in sets.iter_mut().zip(entries) {
            set.set(name, entry);
        }
    }
    Ok(sets
        .into_iter()
        .map(|workloads| {
            Json::obj()
                .with("schema", 1usize)
                .with("seed", args.seed)
                .with("runs", RUNS)
                .with("seconds", args.seconds())
                .with("smoke", args.smoke)
                .with("host", host.to_json())
                .with("workloads", workloads)
                .with("claim", Json::Null)
        })
        .collect())
}

/// Whether every pass of a set checked out.
fn set_correct(set: &Json) -> bool {
    set.get("workloads").is_some_and(|ws| {
        ws.entries().iter().all(|(_, w)| {
            let flag = |k: &str| w.get(k).and_then(Json::as_bool);
            flag("correct") == Some(true) && flag("traced_correct") != Some(false)
        })
    })
}

/// How two sets of runs of the same binary disagree: every end-to-end
/// metric must agree within its own bound, nothing may fail, and the
/// probe residual — a function of the input alone — must repeat exactly.
fn disagreements(first: &Json, other: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let empty = Json::obj();
    let workloads = first.get("workloads").unwrap_or(&empty);
    for (name, a) in workloads.entries() {
        let Some(b) = other.get("workloads").and_then(|w| w.get(name)) else {
            out.push(format!("{name}: missing from the other set"));
            continue;
        };
        for side in [a, b] {
            if side.get("failed").and_then(Json::as_f64) != Some(0.0) {
                out.push(format!("{name}: failed operations"));
            }
        }
        // one entry per run, each a function of that run's seed alone
        let residual = |w: &Json| -> Vec<Option<u64>> {
            let runs = w.get("residual_check").map_or(&[][..], Json::items);
            runs.iter().map(|r| r.as_f64().map(f64::to_bits)).collect()
        };
        if residual(a) != residual(b) {
            out.push(format!("{name}: probe residual is not bit-identical"));
        }
        for m in spec::END_TO_END {
            let value = |w: &Json| w.get("end_to_end")?.get(m.name)?.get("value")?.as_f64();
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                out.push(format!("{name}: {} missing", m.name));
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let apart = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            if apart > bound {
                out.push(format!(
                    "{name}: {} {x:.6} vs {y:.6} {} is {:.1} % apart, bound {:.0} %",
                    m.name,
                    m.unit,
                    apart * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    out
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Every workload from one command; `Ok(false)` when an output check
/// failed or (with `--repeat`) two sets disagree.
pub fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    // the host as it was before this command loaded it: a pass started
    // after another always finds the load average raised by that one
    let host = host::Host::detect();
    let sets = run_sets(args, &host, args.repeat)?;
    let latest = args.out_dir.join("latest.json");
    write_json(&latest, &sets[0])?;
    let mut ok = sets.iter().all(set_correct);
    let mut summary = Json::obj()
        .with("results", latest.display().to_string())
        .with("workloads", spec::WORKLOADS.len())
        .with("correct", ok);
    if sets.len() > 1 {
        let problems: Vec<String> = sets[1..]
            .iter()
            .flat_map(|other| disagreements(&sets[0], other))
            .collect();
        for p in &problems {
            println!("disagree: {p}");
        }
        let agree = problems.is_empty();
        ok &= agree;
        let path = args.out_dir.join("repeat.json");
        summary = summary
            .with("repeat", path.display().to_string())
            .with("sets", sets.len())
            .with("agree", agree);
        let doc = Json::obj()
            .with("agree", agree)
            .with(
                "disagreements",
                Json::Arr(problems.into_iter().map(Json::from).collect()),
            )
            .with("sets", Json::Arr(sets));
        write_json(&path, &doc)?;
    }
    // this benchmark measures; it never claims
    println!("{}", summary.with("claim", Json::Null).compact());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;

    fn ctx() -> Ctx {
        Ctx {
            host: Host::detect(),
            seed: 1,
            seconds: 0.1,
            smoke: true,
            out_dir: std::env::temp_dir(),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_declared_metrics() {
        let e = EndToEnd {
            attempted: 3,
            setup_s: vec![0.2],
            wall_s: vec![0.1, 0.1, 0.1],
            flops_per_rep: 1e9,
            latency_s: vec![0.1, 0.1, 0.1],
            residual_check: 1e-16,
            ..Default::default()
        };
        let pass = Pass::end_to_end("lu_fine", &ctx(), e);
        let line = pass.contract_line();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for (_, metric) in line.get("metrics").unwrap().entries() {
            let keys: Vec<&str> = metric.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        // the line survives its own parser
        assert_eq!(Json::parse(&line.compact()).unwrap(), line);
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(3.0));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));

        // nothing attempted: the one operation owed is reported failed
        let idle = Pass::end_to_end("lu_fine", &ctx(), EndToEnd::default()).contract_line();
        assert_eq!(idle.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(idle.get("attempted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(idle.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    /// The `--smoke` path end to end, in-process: all seven workloads,
    /// both passes, tiny shapes. Every printed metric is declared, every
    /// declared metric is printed by some workload, each layer's metrics
    /// stay off the workloads that bypass it, and each trace file loads
    /// with well-formed spans.
    #[test]
    fn smoke_exercises_every_workload_and_the_traced_pass() {
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("selftest-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).unwrap();
        let ctx = Ctx {
            seconds: 0.05,
            out_dir: out_dir.clone(),
            ..ctx()
        };
        let mut printed = std::collections::BTreeSet::new();
        for w in spec::WORKLOADS {
            let workload = crate::workloads::by_name(w.name, true).unwrap();
            let e2e = Pass::end_to_end(w.name, &ctx, workload.end_to_end(&ctx));
            assert!(e2e.correct, "{}: {:?}", w.name, e2e.notes);
            assert_eq!(e2e.metrics.len(), spec::END_TO_END.len());
            assert!(
                e2e.metrics.iter().all(|(_, s)| s.median > 0.0),
                "{}",
                w.name
            );

            let layers = Pass::layers(w.name, &ctx, workload.traced(&ctx)).unwrap();
            assert!(layers.correct, "{}: {:?}", w.name, layers.notes);
            let names: Vec<&str> = layers.metrics.iter().map(|(m, _)| m.name).collect();
            let served = w.name == "serve_mix";
            assert_eq!(
                names.iter().any(|n| n.starts_with("serve.")),
                served,
                "{}",
                w.name
            );
            assert_eq!(
                names.iter().any(|n| n.starts_with("sim.")),
                w.name == "lu_large"
            );
            if !served {
                for need in ["solver.trace_overhead_frac", "solver.unattributed_s"] {
                    assert!(names.contains(&need), "{}: {need}", w.name);
                }
            }
            let rescued = layers
                .metrics
                .iter()
                .find(|(m, _)| m.name == "sched.rescued_tasks");
            let rescued = rescued.expect("every workload folds its schedule").1.median;
            assert_eq!(
                rescued > 0.0,
                w.name == "lu_degraded" && ctx.host.threads > 1,
                "{}",
                w.name
            );
            printed.extend(names);

            // the driver's line carries every declared per-layer metric
            let line = layers.contract_line();
            assert_eq!(
                line.get("metrics").unwrap().entries().len(),
                spec::PER_LAYER.len()
            );
            // the trace file loads, and the recorder already validated it
            let trace =
                std::fs::read_to_string(out_dir.join(format!("trace_{}.json", w.name))).unwrap();
            let events = Json::parse(&trace).unwrap();
            let events = events.get("traceEvents").unwrap().items();
            assert!(!events.is_empty(), "{}", w.name);
            for e in events {
                let self_us = e.get("args").unwrap().get("self_us").and_then(Json::as_f64);
                assert!(self_us.unwrap() >= 0.0);
            }
        }
        // on one thread there is no single-thread baseline to compare with
        if ctx.host.threads > 1 {
            let declared: std::collections::BTreeSet<&str> =
                spec::PER_LAYER.iter().map(|m| m.name).collect();
            // needs an array four times the last-level cache: never at smoke size
            printed.insert("matrix.layout_over_copy");
            assert_eq!(
                printed, declared,
                "a declared metric is printed by no workload"
            );
        }
        std::fs::remove_dir_all(&out_dir).unwrap();
    }

    fn set(wall: f64, residual: f64, failed: usize) -> Json {
        let mut e2e = Json::obj();
        for m in spec::END_TO_END {
            let v = if m.name == "wall_s" { wall } else { 1.0 };
            e2e.set(m.name, Json::obj().with("value", v));
        }
        let w = Json::obj()
            .with("correct", failed == 0)
            .with("failed", failed)
            .with("residual_check", Json::Arr(vec![Json::Num(residual)]))
            .with("end_to_end", e2e);
        Json::obj().with("workloads", Json::obj().with("lu_fine", w))
    }

    #[test]
    fn repeat_sets_agree_within_bounds_or_say_why_not() {
        let bound = spec::end_to_end("wall_s").unwrap().bound.unwrap();
        let (near, beyond) = (0.1 * (1.0 + 0.5 * bound), 0.1 * (1.0 + 1.5 * bound));
        assert!(disagreements(&set(0.1, 1e-15, 0), &set(near, 1e-15, 0)).is_empty());
        let far = disagreements(&set(0.1, 1e-15, 0), &set(beyond, 1e-15, 0));
        assert!(far.len() == 1 && far[0].contains("wall_s"), "{far:?}");
        let bits = disagreements(&set(0.1, 1e-15, 0), &set(0.1, 1.1e-15, 0));
        assert!(
            bits.len() == 1 && bits[0].contains("bit-identical"),
            "{bits:?}"
        );
        assert!(!disagreements(&set(0.1, 1e-15, 0), &set(0.1, 1e-15, 2)).is_empty());
        assert!(set_correct(&set(0.1, 1e-15, 0)));
        assert!(!set_correct(&set(0.1, 1e-15, 1)));
    }
}
