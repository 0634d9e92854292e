//! Data-layout demo (the paper's Figure 5): how the same matrix is laid
//! out in memory under BCL and 2l-BL, and why it matters.
//!
//! ```sh
//! cargo run --release --example layouts_demo
//! ```

use calu::matrix::{DenseMatrix, Layout, ProcessGrid, TileStorage, TiledMatrix};

fn main() {
    // the 4x4-block example of Figure 5: 2x2 grid, b = 2, 8x8 matrix
    let n = 8;
    let b = 2;
    let a = DenseMatrix::from_fn(n, n, |i, j| (i * 10 + j) as f64);
    let grid = ProcessGrid::new(2, 2).unwrap();

    println!("Matrix entries are 'row*10+col' so you can read positions.\n");

    let bcl = TiledMatrix::from_dense(Layout::BlockCyclic, &a, b, grid, 3);
    println!("== Block cyclic layout (BCL): each tile column, owner by owner ==");
    let t = bcl.tiling();
    for tj in 0..t.tile_cols() {
        let start = t.col_start(tj) * n;
        let end = start + t.tile_col_count(tj) * n;
        println!("tile column {tj}: buffer [{start}, {end})");
        // grid row r owns tile rows r, r + 2, ...: its first one is row r
        for r in 0..grid.pr() {
            let first = bcl.tile_loc(r, tj);
            let run = &bcl.buffer()[first.offset..first.offset + first.ld * first.cols];
            print!("   thread {} (ld {}):", grid.owner(r, tj), first.ld);
            for v in run {
                print!("{v:>4.0}");
            }
            println!();
        }
    }
    println!("-> in each tile column a thread's tiles are one column-major run");
    println!("   (on a taller matrix, cut into blocks of k = 3 tiles counted from");
    println!("   its end): up to k tiles can be updated with ONE BLAS-3 call (the");
    println!("   paper's k=3 grouping), and the thread that fills the run touches");
    println!("   it first.");
    println!("   Each tile column sits where its columns sit in the dense matrix,");
    println!("   so the buffer becomes the dense result in place.\n");

    let tlb = TiledMatrix::from_dense(Layout::TwoLevelBlock, &a, b, grid, 1);
    println!("== Two-level block layout (2l-BL): every bxb tile contiguous ==");
    for (ti, tj) in [(0usize, 0usize), (0, 1), (1, 0)] {
        let loc = tlb.tile_loc(ti, tj);
        let buf = &tlb.buffer()[loc.offset..loc.offset + loc.rows * loc.cols];
        println!("tile ({ti},{tj}) at offset {:>3}: {:?}", loc.offset, buf);
    }
    println!("-> a tile fits in cache and is read with zero stride, but tiles");
    println!("   cannot be fused into larger BLAS-3 calls without copies.\n");

    // round-trip sanity
    assert!(bcl.to_dense().approx_eq(&a, 0.0));
    assert!(tlb.to_dense().approx_eq(&a, 0.0));
    println!("Both layouts round-trip losslessly to/from column-major. OK");
}
