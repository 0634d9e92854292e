//! Figure 7: CALU scheduling sweep on the 48-core AMD model, BCL layout.
//!
//! Paper shape: static is competitive (NUMA locality), fully dynamic is
//! the worst, and static + a small dynamic % (10–20%) wins.

use calu::matrix::Layout;
use calu_bench::{machines, sweep_figure};

fn main() {
    sweep_figure(
        "Fig 7 — AMD 48-core, BCL, Gflop/s vs dynamic %",
        &machines()[1].1,
        Layout::BlockCyclic,
        &[4000, 6000, 8000, 10000],
        None,
    );
    println!("\nExpected shape: hybrid(10-20%) on top; fully dynamic last (NUMA).");
}
