//! The repo's one ruler. See `benchmark/README.md` for the glossary.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--smoke] [--repeat K]
//!     every workload, three untraced passes (seeds N, N+1, N+2) then a
//!     traced one, each pass in a child process; writes
//!     benchmark/results/latest.json (and repeat.json with --repeat)
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!     one pass of one workload; the last line of stdout is the result
//! benchmark compare A.json B.json
//! benchmark compare --pairs N A-exe B-exe [--seed N] [--seconds S] [--workload W]
//! benchmark spec
//!     print BENCHMARK.json as generated from the tables in spec.rs
//! ```

mod batch;
mod check;
mod compare;
mod fold;
mod heap;
mod host;
mod json;
mod results;
mod run;
mod rungs;
mod serve;
mod solo;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use host::Host;
use run::Ctx;

/// Parsed command line of the run modes.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out_dir: PathBuf,
}

/// Parse the value of `flag`, naming the flag when it does not parse.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// `name` if it is a declared workload, else an error listing them.
fn known_workload(name: &str) -> Result<&'static str, String> {
    spec::workload(name).map(|w| w.name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(known_workload(value()?)?.to_string()),
            "--seed" => out.seed = parsed(flag, value()?)?,
            "--seconds" => {
                let s: f64 = parsed(flag, value()?)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--repeat" => {
                let v = value()?;
                out.repeat = v
                    .parse()
                    .map_err(|_| format!("--repeat: bad count {v:?}"))?;
                if !(1..=10).contains(&out.repeat) {
                    return Err("--repeat takes 1 to 10 sets".into());
                }
            }
            "--out-dir" => out.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

impl Args {
    /// Seconds per pass: as given, else the driver's figure (a fraction
    /// of a second under `--smoke`).
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            0.1
        } else {
            spec::RUN_SECONDS as f64
        })
    }
}

/// One pass of one workload in this process.
fn run_pass(args: &Args, name: &str) -> Result<(), String> {
    let workload = workloads::by_name(name, args.smoke).ok_or("unknown workload")?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let ctx = Ctx {
        host: Host::detect(),
        seed: args.seed,
        seconds: args.seconds(),
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    };
    let pass = if args.trace {
        results::Pass::layers(name, &ctx, workload.traced(&ctx))?
    } else {
        results::Pass::end_to_end(name, &ctx, workload.end_to_end(&ctx))
    };
    pass.print_table();
    pass.write_detail(&ctx.out_dir)?;
    // the driver reads the last line of stdout
    println!("{}", pass.contract_line().compact());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(name) => run_pass(&args, &name).map(|()| true),
            None => results::run_all(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload lu_fine --seed 7 --seconds 8 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("lu_fine"));
        assert_eq!((a.seed, a.seconds(), a.trace), (7, 8.0, true));
        let d = args("").unwrap();
        assert_eq!((d.seed, d.repeat, d.trace), (spec::DEFAULT_SEED, 1, false));
        assert_eq!(d.seconds(), spec::RUN_SECONDS as f64);
        assert!(args("--smoke").unwrap().seconds() < 1.0);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            "--workload nope",
            "--only lu_fine",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--repeat 0",
            "--runs 3",
            "--frobnicate",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} parsed");
        }
    }
}
