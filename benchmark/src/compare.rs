//! `benchmark compare`: two result files, or two builds run in
//! alternating pairs, one row per (workload, end-to-end metric).
//!
//! Verdicts follow the `choosing-metrics` guide. A row is `unresolved`
//! when either side's inter-quartile spread exceeds the metric's bound
//! (or, for files, either run was stamped `noisy_host`): weather, not a
//! result. It is `regressed` when B's median is worse than A's by more
//! than the bound. With `--pairs` it is `improved` only when B beats A
//! in at least nine tenths of the pairs (ties count for neither) and the
//! medians differ by more than A's own inter-quartile distance; for two
//! files, which hold one set of runs each, `improved` mirrors `regressed`.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::Summary;
use crate::{known_workload, parsed};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B is worse (negative: better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Verdict for one set of runs on each side.
pub fn verdict_of_files(m: &MetricSpec, a: &Summary, b: &Summary, noisy: bool) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    if noisy || a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(m, a.median, b.median);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Verdict for paired runs: `a[i]` and `b[i]` ran back to back.
pub fn verdict_of_pairs(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if sa.spread() > bound || sb.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(m, sa.median, sb.median);
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| worsening(m, **x, **y) < 0.0)
        .count();
    if worse > bound {
        Verdict::Regressed
    } else if wins * 10 >= a.len() * 9 && (sb.median - sa.median).abs() > sa.q3 - sa.q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let num = |k: &str| metric.get(k).and_then(Json::as_f64);
    let median = num("value")?;
    Some(Summary {
        median,
        q1: num("q1").unwrap_or(median),
        q3: num("q3").unwrap_or(median),
        n: num("n").unwrap_or(1.0) as usize,
    })
}

fn print_header(right: &str) {
    println!(
        "{:<12} {:<14} {:>12} {:>24} {:>12} {:>24} {:>22}  {right}",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "B/A (base A)"
    );
}

fn print_row(workload: &str, m: &MetricSpec, a: &Summary, b: &Summary, tail: &str) {
    let iqr = |s: &Summary| format!("[{:.5}, {:.5}] {}", s.q1, s.q3, s.n);
    println!(
        "{:<12} {:<14} {:>12.6} {:>24} {:>12.6} {:>24} {:>9.4} ({:.6} {})  {tail}",
        workload,
        m.name,
        a.median,
        iqr(a),
        b.median,
        iqr(b),
        b.median / a.median,
        a.median,
        m.unit
    );
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result files; `Ok(false)` when any row regressed.
fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let noisy = |doc: &Json| {
        doc.get("host")
            .and_then(|h| h.get("noisy_host"))
            .and_then(Json::as_bool)
            .unwrap_or(false)
    };
    let noisy = noisy(&a) || noisy(&b);
    if noisy {
        println!("a side ran on a noisy host (load average above nproc/2): rows are unresolved");
    }
    print_header("verdict");
    let mut regressed = false;
    let empty = Json::obj();
    for (name, wa) in a.get("workloads").unwrap_or(&empty).entries() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<12} only in {a_path}");
            continue;
        };
        for m in spec::END_TO_END {
            let side = |w: &Json| w.get("end_to_end")?.get(m.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                println!("{name:<12} {:<14} missing on one side", m.name);
                continue;
            };
            let v = verdict_of_files(m, &sa, &sb, noisy);
            regressed |= v == Verdict::Regressed;
            print_row(name, m, &sa, &sb, v.as_str());
        }
    }
    Ok(!regressed)
}

/// One untraced pass of `exe`; the metrics of its last stdout line.
fn run_side(
    exe: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Json, String> {
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .map_err(|e| format!("cannot run {exe}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{exe} --workload {workload} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{exe} printed nothing"))?;
    let line = Json::parse(last).map_err(|e| format!("{exe}: bad result line: {e}"))?;
    if line.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{exe} --workload {workload} reported an incorrect run"
        ));
    }
    line.get("metrics")
        .cloned()
        .ok_or_else(|| format!("{exe}: result line has no metrics"))
}

/// Run two builds in `pairs` alternating pairs per workload.
fn compare_pairs(
    pairs: usize,
    a_exe: &str,
    b_exe: &str,
    seed: u64,
    seconds: f64,
    workloads: &[&str],
) -> Result<bool, String> {
    let out_dir = Path::new("benchmark/results/pairs");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut regressed = false;
    print_header("wins  verdict");
    for &workload in workloads {
        let mut a_runs = Vec::new();
        let mut b_runs = Vec::new();
        for pair in 0..pairs {
            // alternate which side runs first so drift hits both alike
            let first_is_a = pair % 2 == 0;
            let (first, second) = if first_is_a {
                (a_exe, b_exe)
            } else {
                (b_exe, a_exe)
            };
            let x = run_side(first, workload, seed, seconds, out_dir)?;
            let y = run_side(second, workload, seed, seconds, out_dir)?;
            let (a, b) = if first_is_a { (x, y) } else { (y, x) };
            a_runs.push(a);
            b_runs.push(b);
        }
        for m in spec::END_TO_END {
            let values = |runs: &[Json]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(m.name)?.get("value")?.as_f64())
                    .collect()
            };
            let (a, b) = (values(&a_runs), values(&b_runs));
            if a.len() != pairs || b.len() != pairs {
                println!("{workload:<12} {:<14} missing on one side", m.name);
                continue;
            }
            let v = verdict_of_pairs(m, &a, &b);
            regressed |= v == Verdict::Regressed;
            let wins = a
                .iter()
                .zip(&b)
                .filter(|(x, y)| worsening(m, **x, **y) < 0.0)
                .count();
            let tail = format!("{wins}/{pairs}  {}", v.as_str());
            print_row(workload, m, &Summary::of(&a), &Summary::of(&b), &tail);
        }
    }
    Ok(!regressed)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    const USAGE: &str = "usage: benchmark compare A.json B.json | \
                         benchmark compare --pairs N A-exe B-exe [--seed N] [--seconds S] [--workload W]";
    let mut pairs = None;
    let mut seed = spec::DEFAULT_SEED;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    let mut sides = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--pairs" => pairs = Some(parsed::<usize>(arg, value()?)?),
            "--seed" => seed = parsed(arg, value()?)?,
            "--seconds" => seconds = parsed(arg, value()?)?,
            "--workload" => workloads = vec![known_workload(value()?)?],
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument {flag:?}\n{USAGE}"))
            }
            side => sides.push(side.to_string()),
        }
    }
    let [a, b] = sides.as_slice() else {
        return Err(USAGE.into());
    };
    match pairs {
        None => compare_files(a, b),
        Some(0) => Err("--pairs needs at least one pair".into()),
        Some(n) => compare_pairs(n, a, b, seed, seconds, &workloads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> &'static MetricSpec {
        spec::end_to_end("wall_s").unwrap()
    }

    fn tight(x: f64) -> Summary {
        Summary {
            median: x,
            q1: x * 0.99,
            q3: x * 1.01,
            n: 40,
        }
    }

    #[test]
    fn file_verdicts_follow_bound_spread_and_noise() {
        let m = wall();
        let bound = m.bound.unwrap();
        let (inside, beyond) = (1.0 + 0.5 * bound, 1.0 + 1.5 * bound);
        assert_eq!(
            verdict_of_files(m, &tight(1.0), &tight(inside), false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict_of_files(m, &tight(1.0), &tight(beyond), false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of_files(m, &tight(beyond), &tight(1.0), false),
            Verdict::Improved
        );
        assert_eq!(
            verdict_of_files(m, &tight(1.0), &tight(beyond), true),
            Verdict::Unresolved
        );
        let loose = Summary {
            q1: 1.0 - bound,
            q3: 1.0 + bound,
            ..tight(1.0)
        };
        assert_eq!(
            verdict_of_files(m, &loose, &tight(beyond), false),
            Verdict::Unresolved
        );
        // higher-is-better metrics regress downwards
        let g = spec::end_to_end("gflops").unwrap();
        let drop = 1.0 - 1.5 * g.bound.unwrap();
        assert_eq!(
            verdict_of_files(g, &tight(10.0), &tight(10.0 * drop), false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of_files(g, &tight(10.0 * drop), &tight(10.0), false),
            Verdict::Improved
        );
    }

    #[test]
    fn pair_verdicts_need_nine_tenths_of_pairs_and_a_gap_beyond_the_spread() {
        let m = wall();
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * i as f64).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict_of_pairs(m, &a, &faster), Verdict::Improved);
        // wins only 8 of 10: not a gain
        let mut mixed = faster.clone();
        mixed[0] = a[0] * 1.01;
        mixed[1] = a[1] * 1.01;
        assert_eq!(verdict_of_pairs(m, &a, &mixed), Verdict::Unchanged);
        // wins every pair, but by less than A's own spread
        let barely: Vec<f64> = a.iter().map(|x| x - 1e-4).collect();
        assert_eq!(verdict_of_pairs(m, &a, &barely), Verdict::Unchanged);
        let slower: Vec<f64> = a
            .iter()
            .map(|x| x * (1.0 + 1.5 * m.bound.unwrap()))
            .collect();
        assert_eq!(verdict_of_pairs(m, &a, &slower), Verdict::Regressed);
        let wild: Vec<f64> = (0..10).map(|i| 1.0 + 0.2 * i as f64).collect();
        assert_eq!(verdict_of_pairs(m, &wild, &faster), Verdict::Unresolved);
    }

    #[test]
    fn usage_errors_are_reported() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert!(main(&args("only-one.json")).is_err());
        assert!(main(&args("--pairs 0 a b")).is_err());
        assert!(main(&args("--bogus a b")).is_err());
        assert!(main(&args("--pairs 1 --workload nope a b")).is_err());
        assert!(main(&args("/nonexistent/a.json /nonexistent/b.json")).is_err());
    }
}
