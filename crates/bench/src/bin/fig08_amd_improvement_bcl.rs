//! Figure 8: % improvement of CALU static(10%/20% dynamic) over fully
//! static and fully dynamic CALU on the AMD model, BCL layout, 24 and 48
//! cores.

use calu::matrix::Layout;
use calu_bench::improvement_figure;

fn main() {
    improvement_figure(
        8,
        "improvement of hybrid over static/dynamic",
        Layout::BlockCyclic,
    );
    println!("\nPaper reference points: on 48 cores, n=4000: +30.3% vs static, +10.2% vs dynamic;");
    println!("n=10000: +6.9% vs static, +8.4% vs dynamic.");
}
