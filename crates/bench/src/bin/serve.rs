//! Service-layer throughput sweep: jobs/second through a warm
//! [`calu::FactorService`] by priority-class mix, plus the submit-latency win
//! of lazy generator sources, emitted as a flat-JSON metric file
//! (rates as `*_per_sec`). Record-only, no baseline: the service path
//! is measured for keeps by `benchmark/`'s `serve_mix` workload; this
//! bin is the wider class-mix profile behind it.
//!
//! ```text
//! serve [--out PATH]   # metrics file (default SERVE_pr.json)
//!       [--quick]      # fewer draws and jobs (fast smoke)
//! ```
//!
//! Three class mixes run the same seeded n=192 uniform jobs through one
//! service: all-`Interactive`, all-`Batch`, and a rotating
//! interactive/batch/background mix. The pool and its class lanes are
//! shared state, so the three rates isolate what the lane discipline
//! itself costs (nothing, within noise, is the expectation — the lanes
//! only reorder, they never idle a worker).
//!
//! The submit-latency section measures what lazy materialization buys
//! the *submitting* thread: a generator [`calu::JobSpec::uniform`] submits in
//! the time it takes to move a 24-byte enum through admission, while an
//! eager design would generate the dense matrix on the submit path.
//! Both figures are per-job, record-only (`serve_submit_*_latency`),
//! with the ratio beside them.
//!
//! The backlog section records how long an [`calu::JobClass::Interactive`]
//! job waits when it arrives behind a full `Background` backlog — the
//! class-lane pass-over in one number (`serve_interactive_latency_under_backlog`,
//! seconds; compare it to a single n=64 factorization, not to the
//! backlog's total runtime).
//!
//! The front-door section drives the same seeded jobs through a local
//! TCP [`calu::ServeListener`] and records the per-job submit→done wall
//! time as percentiles (`net_submit_done_p50_latency` /
//! `net_submit_done_p99_latency`, seconds — parse, admission, the
//! factorization itself, and status polling at 1 ms granularity).
//!
//! The reconfigure section measures the live-handover stall: with a
//! backlog queued, `Solver::reconfigure` swaps in a successor pool and
//! carries the queue over, and `serve_reconfigure_stall_secs` is the
//! wall time of that call — the window during which new submits wait on
//! the admission lock. The backlog still completes on the new pool; the
//! bench asserts zero drops before publishing the number.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use calu::matrix::gen;
use calu::{JobClass, JobSpec, MatrixSource, ReportService, Solver};
use calu_bench::perf::{calibration_secs, min_of, write_flat_json, CALIBRATION_KEY};
use calu_bench::timing::fmt_secs;

const THREADS: usize = 4;
const B: usize = 32;
const JOB_N: usize = 192;
const SEED: u64 = 7000;

/// One warm service shared by every measurement: spawned once, outside
/// all timed regions, exactly how a long-running server amortizes.
fn service() -> ReportService {
    Solver::new(MatrixSource::shape(JOB_N, JOB_N))
        .tile(B)
        .threads(THREADS)
        .verify(false)
        .serve()
        .expect("spawn service")
}

/// Submit `jobs` seeded n=192 jobs under `classes` (cycled), wait for
/// all of them; minimum wall time over `draws`, returned as jobs/s.
fn mix_jobs_per_sec(
    service: &ReportService,
    classes: &[JobClass],
    jobs: usize,
    draws: usize,
) -> f64 {
    let secs = min_of(draws, || {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                let spec = JobSpec::uniform(JOB_N, JOB_N, SEED + i as u64);
                service
                    .submit(spec, classes[i % classes.len()])
                    .expect("submit within quota")
            })
            .collect();
        for h in handles {
            h.wait().expect("served job");
        }
        t0.elapsed().as_secs_f64()
    });
    jobs as f64 / secs
}

/// Per-job submit latency, lazy vs eager: the lazy path times only the
/// `submit` calls for generator specs (workers materialize); the eager
/// path times generating each dense matrix *and* submitting it — what
/// a design without `PoolSource::Uniform` would pay on the caller.
/// Returns `(lazy_secs_per_job, eager_secs_per_job)`.
fn submit_latency(service: &ReportService, jobs: usize, draws: usize) -> (f64, f64) {
    let lazy = min_of(draws, || {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                service
                    .submit(
                        JobSpec::uniform(JOB_N, JOB_N, SEED + i as u64),
                        JobClass::Batch,
                    )
                    .expect("submit within quota")
            })
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        for h in handles {
            h.wait().expect("served job");
        }
        secs
    });
    let eager = min_of(draws, || {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                let a = gen::uniform(JOB_N, JOB_N, SEED + i as u64);
                service
                    .submit(JobSpec::dense(a), JobClass::Batch)
                    .expect("submit within quota")
            })
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        for h in handles {
            h.wait().expect("served job");
        }
        secs
    });
    (lazy / jobs as f64, eager / jobs as f64)
}

/// Wall time from submitting one `Interactive` n=64 job *behind* a full
/// `Background` backlog to its completion: the lanes' pass-over rule
/// should keep this near a single small factorization.
fn interactive_latency_under_backlog(service: &ReportService, backlog: usize, draws: usize) -> f64 {
    min_of(draws, || {
        let bg: Vec<_> = (0..backlog)
            .map(|i| {
                service
                    .submit(
                        JobSpec::uniform(JOB_N, JOB_N, SEED + 500 + i as u64),
                        JobClass::Background,
                    )
                    .expect("submit within quota")
            })
            .collect();
        let t0 = Instant::now();
        let h = service
            .submit(JobSpec::uniform(64, 64, SEED + 999), JobClass::Interactive)
            .expect("submit within quota");
        h.wait().expect("interactive job");
        let secs = t0.elapsed().as_secs_f64();
        for h in bg {
            h.wait().expect("background job");
        }
        secs
    })
}

/// Submit→done wall time per job through the TCP front door, one job in
/// flight at a time: submit a seeded generator spec over the wire, poll
/// `status` at 1 ms granularity until `done`. Returns `(p50, p99)` over
/// `jobs × draws` samples — each sample pays the parse, admission, the
/// n=192 factorization, and half a polling tick on average.
fn net_latency_percentiles(jobs: usize, draws: usize) -> (f64, f64) {
    let listener = Solver::new(MatrixSource::shape(JOB_N, JOB_N))
        .tile(B)
        .threads(THREADS)
        .verify(false)
        .listen("127.0.0.1:0")
        .expect("bind front door");
    let stream = TcpStream::connect(listener.local_addr()).expect("connect front door");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut line = String::new();
    let mut roundtrip = |reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &str| {
        writeln!(writer, "{req}").expect("write request");
        line.clear();
        reader.read_line(&mut line).expect("read reply");
        line.trim().to_string()
    };
    let mut samples = Vec::with_capacity(jobs * draws);
    for d in 0..draws {
        for i in 0..jobs {
            let seed = SEED + (d * jobs + i) as u64;
            let t0 = Instant::now();
            let reply = roundtrip(
                &mut reader,
                &mut writer,
                &format!("submit batch uniform {JOB_N} {JOB_N} {seed}"),
            );
            let id: u64 = reply
                .strip_prefix("ok ")
                .unwrap_or_else(|| panic!("expected ok <id>, got {reply:?}"))
                .parse()
                .expect("job id");
            loop {
                let status = roundtrip(&mut reader, &mut writer, &format!("status {id}"));
                if status.ends_with(" done") {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            samples.push(t0.elapsed().as_secs_f64());
        }
    }
    listener.service().drain();
    listener.shutdown();
    samples.sort_by(f64::total_cmp);
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (pick(0.50), pick(0.99))
}

/// Wall time of one live `Solver::reconfigure` with `backlog` jobs
/// queued: the handover holds admission while the successor pool spawns
/// nothing (it was spawned before the lock) but adopts the extracted
/// queue, so this is the worst-case stall a concurrent submitter can
/// see. Every queued job must still complete — zero drops — before the
/// number is published.
fn reconfigure_stall(service: &ReportService, backlog: usize) -> f64 {
    let handles: Vec<_> = (0..backlog)
        .map(|i| {
            service
                .submit(
                    JobSpec::uniform(JOB_N, JOB_N, SEED + 2000 + i as u64),
                    JobClass::Batch,
                )
                .expect("submit within quota")
        })
        .collect();
    let t0 = Instant::now();
    let generation = Solver::new(MatrixSource::shape(JOB_N, JOB_N))
        .tile(B)
        .threads(THREADS)
        .dratio(0.3)
        .verify(false)
        .reconfigure(service)
        .expect("live reconfigure");
    let stall = t0.elapsed().as_secs_f64();
    assert!(generation >= 1, "the handover advanced the generation");
    for h in handles {
        h.wait().expect("job carried across the handover");
    }
    stall
}

fn main() {
    let mut out = "SERVE_pr.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next().expect("--out needs a value"),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown flag {other}; see the module docs");
                std::process::exit(1);
            }
        }
    }
    let (jobs, draws) = if quick { (8, 2) } else { (24, 5) };

    println!("serve: threads={THREADS} b={B} n={JOB_N}, {jobs} jobs x {draws} draws");
    let mut metrics: Vec<(String, f64)> = vec![(CALIBRATION_KEY.to_string(), calibration_secs())];
    let service = service();

    println!("class-mix throughput (one warm service, same seeded jobs):");
    let mixes: &[(&str, &[JobClass])] = &[
        ("interactive", &[JobClass::Interactive]),
        ("batch", &[JobClass::Batch]),
        (
            "mixed",
            &[JobClass::Interactive, JobClass::Batch, JobClass::Background],
        ),
    ];
    for (name, classes) in mixes {
        let jps = mix_jobs_per_sec(&service, classes, jobs, draws);
        println!("  {name:<12} {jps:.1} jobs/s");
        metrics.push((format!("serve_{name}_jobs_per_sec"), jps));
    }

    let (lazy, eager) = submit_latency(&service, jobs, draws);
    println!(
        "submit latency per job: lazy {} vs eager {} ({:.1}x win for generator specs)",
        fmt_secs(lazy),
        fmt_secs(eager),
        eager / lazy
    );
    metrics.push(("serve_submit_lazy_latency".into(), lazy));
    metrics.push(("serve_submit_eager_latency".into(), eager));
    metrics.push(("serve_submit_lazy_speedup".into(), eager / lazy));

    let backlog = if quick { 6 } else { 16 };
    let lat = interactive_latency_under_backlog(&service, backlog, draws.min(3));
    println!(
        "interactive latency behind {backlog}-job background backlog: {}",
        fmt_secs(lat)
    );
    metrics.push(("serve_interactive_latency_under_backlog".into(), lat));

    let (p50, p99) = net_latency_percentiles(jobs.min(12), draws.min(3));
    println!(
        "front-door submit->done latency: p50 {} p99 {}",
        fmt_secs(p50),
        fmt_secs(p99)
    );
    metrics.push(("net_submit_done_p50_latency".into(), p50));
    metrics.push(("net_submit_done_p99_latency".into(), p99));

    let stall = reconfigure_stall(&service, backlog);
    println!(
        "reconfigure handover stall under {backlog}-job backlog: {}",
        fmt_secs(stall)
    );
    metrics.push(("serve_reconfigure_stall_secs".into(), stall));

    service.drain();

    let json = write_flat_json(&metrics);
    std::fs::write(&out, &json).expect("write metrics file");
    println!("wrote {out}");
}
