//! Figure 9: scheduling sweep on the Intel model with the two-level
//! block layout. Paper shape: same as BCL — static worst, percentage
//! barely matters, hybrid(10%) best by ~10.6% over static.

use calu::matrix::Layout;
use calu_bench::{machines, sweep_figure};

fn main() {
    sweep_figure(
        "Fig 9 — Intel 16-core, 2l-BL, Gflop/s vs dynamic %",
        &machines()[0].1,
        Layout::TwoLevelBlock,
        &[4000, 5000, 8000],
        Some((4000, "+10.6%, +1.7%")),
    );
}
