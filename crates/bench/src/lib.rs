//! Shared harness for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (the "Where the paper lives" table of `docs/ARCHITECTURE.md` is
//! the index). Timing lives elsewhere — the `benchmark/` package is the
//! repo's one performance ruler. The binaries all go through the
//! unified [`Solver`] facade with a
//! [`SimulatedBackend`], so the experimental
//! setup is identical across figures: same seeds, same block-size rule,
//! same machine presets — and the exact same entry point a user of the
//! library would call.

use calu::matrix::Layout;
use calu::sched::SchedulerKind;
use calu::sim::{MachineConfig, NoiseConfig};
use calu::{Algorithm, MatrixSource, Report, SimulatedBackend, Solver};

/// The seed every figure uses for OS noise (determinism across runs).
pub const NOISE_SEED: u64 = 42;

/// Default OS-noise model used in all performance figures (the paper's
/// machines ran a standard Linux with daemons).
pub fn default_noise() -> NoiseConfig {
    NoiseConfig::os_daemons(NOISE_SEED)
}

/// Block size rule used across the experiments: the paper tunes `b` per
/// size; we grow it with `n` to keep tile counts (and simulation time)
/// manageable while preserving the tasks-per-core ratios.
pub fn block_for(n: usize) -> usize {
    if n <= 8000 {
        100
    } else if n <= 12000 {
        125
    } else {
        150
    }
}

/// The two machine models of §5.
pub fn machines() -> [(&'static str, MachineConfig); 2] {
    [
        (
            "Intel Xeon 16-core",
            MachineConfig::intel_xeon_16(default_noise()),
        ),
        (
            "AMD Opteron 48-core",
            MachineConfig::amd_opteron_48(default_noise()),
        ),
    ]
}

/// A solver pre-configured for one simulated experiment on `machine`:
/// shape-only `n × n` source, the block-size rule, and the machine's
/// core count. Figures chain further knobs before `.run()`.
pub fn sim_solver(n: usize, machine: &MachineConfig) -> Solver {
    Solver::new(MatrixSource::shape(n, n))
        .tile(block_for(n))
        .backend(SimulatedBackend::new(machine.clone()))
}

/// Run one simulated CALU experiment.
pub fn run_calu(
    n: usize,
    machine: &MachineConfig,
    layout: Layout,
    sched: SchedulerKind,
    trace: bool,
) -> Report {
    sim_solver(n, machine)
        .layout(layout)
        .scheduler(sched)
        .trace(trace)
        .run()
        .expect("simulated CALU run")
}

/// Run the MKL stand-in (GEPP, sequential panel, column-major, fully
/// dynamic updates — numactl-interleaved pages as in §5.3).
pub fn run_mkl(n: usize, machine: &MachineConfig) -> Report {
    sim_solver(n, machine)
        .algorithm(Algorithm::Gepp)
        .layout(Layout::ColumnMajor)
        .scheduler(SchedulerKind::Dynamic)
        .run()
        .expect("simulated MKL run")
}

/// Run the PLASMA stand-in (tiled incremental pivoting, tile layout,
/// static pipeline scheduling as in PLASMA 2.3.1).
pub fn run_plasma(n: usize, machine: &MachineConfig) -> Report {
    sim_solver(n, machine)
        .algorithm(Algorithm::IncPiv)
        .layout(Layout::TwoLevelBlock)
        .scheduler(SchedulerKind::Static)
        .run()
        .expect("simulated PLASMA run")
}

/// Run the §9 Cholesky extension under any scheduler.
pub fn run_cholesky(n: usize, machine: &MachineConfig, sched: SchedulerKind) -> Report {
    sim_solver(n, machine)
        .algorithm(Algorithm::Cholesky)
        .scheduler(sched)
        .run()
        .expect("simulated Cholesky run")
}

/// The scheduler sweep of Figures 6–11: static, 10–75% dynamic, dynamic.
pub fn sched_sweep() -> Vec<(String, SchedulerKind)> {
    SchedulerKind::paper_sweep()
        .into_iter()
        .map(|s| (s.to_string(), s))
        .collect()
}

/// Print an aligned table: header row + data rows.
pub fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers);
    for row in rows {
        line(row);
    }
}

/// Format Gflop/s.
pub fn gf(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a percentage improvement of `a` over `b`.
pub fn pct_over(a: f64, b: f64) -> String {
    format!("{:+.1}%", (a / b - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rule() {
        assert_eq!(block_for(2500), 100);
        assert_eq!(block_for(8000), 100);
        assert_eq!(block_for(10000), 125);
        assert_eq!(block_for(15000), 150);
    }

    #[test]
    fn harness_smoke() {
        let (_, intel) = &machines()[0];
        let r = run_calu(
            2000,
            intel,
            Layout::BlockCyclic,
            SchedulerKind::Hybrid { dratio: 0.1 },
            false,
        );
        assert!(r.gflops() > 10.0 && r.gflops() < 85.3);
        let mkl = run_mkl(2000, intel);
        assert!(mkl.gflops() < r.gflops(), "CALU must beat the MKL model");
        let plasma = run_plasma(2000, intel);
        assert!(plasma.gflops() > 0.0);
        let chol = run_cholesky(2000, intel, SchedulerKind::Hybrid { dratio: 0.1 });
        assert!(chol.gflops() > 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(gf(12.34), "12.3");
        assert_eq!(pct_over(110.0, 100.0), "+10.0%");
        assert_eq!(pct_over(90.0, 100.0), "-10.0%");
    }
}
