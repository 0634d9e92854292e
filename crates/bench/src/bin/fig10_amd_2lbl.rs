//! Figure 10: scheduling sweep on the AMD model with the two-level block
//! layout. Paper shape: fully dynamic collapses (no grouping + dequeue
//! overhead + no reuse); increasing the dynamic share only hurts.

use calu::matrix::Layout;
use calu_bench::{machines, sweep_figure};

fn main() {
    sweep_figure(
        "Fig 10 — AMD 48-core, 2l-BL, Gflop/s vs dynamic %",
        &machines()[1].1,
        Layout::TwoLevelBlock,
        &[4000, 6000, 8000, 10000],
        None,
    );
    println!("\nExpected shape: performance decreases monotonically with the dynamic %.");
}
