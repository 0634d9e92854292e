//! Batched many-matrix sweeps: `Solver::batch` on the persistent pool
//! versus looping over `Solver::run`.
//!
//! ```text
//! cargo run --release --example batch_sweep
//! ```
//!
//! Serving-style workloads factor many small matrices; the batch API
//! spawns the worker pool once and keeps per-worker scratch arenas and
//! deques alive across items, so the per-item cost approaches pure
//! kernel time. The example prints both paths' throughput plus the
//! batch report's pool accounting.

use calu::matrix::gen;
use calu::{MatrixSource, Solver};
use std::time::Instant;

fn main() {
    let items = 16usize;
    let n = 256usize;
    // pre-materialized matrices, as a serving workload would hold them
    let sources: Vec<MatrixSource> = (0..items as u64)
        .map(|i| MatrixSource::Dense(gen::uniform(n, n, 42 + i)))
        .collect();
    let solver = Solver::new(MatrixSource::shape(n, n))
        .tile(32)
        .threads(4)
        .verify(false);

    let t0 = Instant::now();
    let report = solver.batch(&sources).expect("batch sweep");
    let batch_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for src in &sources {
        Solver::new(src.clone())
            .tile(32)
            .threads(4)
            .verify(false)
            .run()
            .expect("solo run");
    }
    let loop_secs = t0.elapsed().as_secs_f64();

    println!(
        "batch of {items} × (n = {n}) on {} threads:",
        report.threads
    );
    println!(
        "  Solver::batch      {:8.2} items/s  ({:.1} ms wall, {} co-scheduled)",
        report.items_per_sec(),
        report.wall_secs * 1e3,
        report.co_scheduled,
    );
    println!(
        "  loop over run      {:8.2} items/s  ({:.1} ms wall)",
        items as f64 / loop_secs,
        loop_secs * 1e3,
    );
    println!(
        "  speedup {:.2}x · aggregate {:.1} Gflop/s · pool spawned once in {:.2} ms",
        loop_secs / batch_secs,
        report.aggregate_gflops(),
        report.pool_spawn_secs * 1e3,
    );
    for (i, item) in report.items.iter().enumerate().take(4) {
        println!(
            "  item {i}: makespan {:.2} ms, {} tasks, queue sources {:?}",
            item.makespan * 1e3,
            item.tasks,
            item.schedule.queue_sources(),
        );
    }
}
