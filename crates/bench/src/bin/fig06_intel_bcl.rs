//! Figure 6: CALU with static/dynamic scheduling on the 16-core Intel
//! model, block cyclic layout, dynamic percentage 0–100%.
//!
//! Paper shape: static worst; hybrid ≈ dynamic with hybrid(10%) on top
//! (8.2% over static, 1.4% over dynamic at n = 5000).

use calu::matrix::Layout;
use calu_bench::{machines, sweep_figure};

fn main() {
    sweep_figure(
        "Fig 6 — Intel 16-core, BCL, Gflop/s vs dynamic %",
        &machines()[0].1,
        Layout::BlockCyclic,
        &[4000, 5000, 8000],
        Some((5000, "+8.2%, +1.4%")),
    );
}
