//! Figure 11: % improvement of hybrid over static/dynamic on the AMD
//! model with the 2l-BL layout. Paper: up to +5.9% vs static and +64.9%
//! vs dynamic on 48 cores.

use calu::matrix::Layout;
use calu_bench::improvement_figure;

fn main() {
    improvement_figure(11, "improvement of hybrid", Layout::TwoLevelBlock);
    println!("\nPaper reference points (48 cores): up to +5.9% vs static, +64.9% vs dynamic.");
}
