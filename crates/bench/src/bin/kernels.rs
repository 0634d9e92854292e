//! Kernel microbenchmark: Gflop/s sweep over the `calu-kernels`
//! building blocks — square and rectangular GEMM, blocked TRSM, and
//! recursive panel GETRF — emitted as a flat-JSON metric file (timings
//! as `*_secs`, rates and ratios as plain counts).
//!
//! ```text
//! kernels [--out PATH]   # metrics file (default KERNELS_pr.json)
//!         [--quick]      # skip the n = 1024 sizes (fast smoke)
//! ```
//!
//! Every GEMM size also runs the seed `j-k-i` AXPY kernel
//! ([`calu::kernels::dgemm_jki`]) and reports the packed kernel's
//! speedup over it — the before/after evidence for the BLIS-style
//! rewrite. Timings are minima over several draws; the `calibration_secs`
//! metric (a fixed naive-matmul workload) makes the `_secs` values
//! comparable across hosts.

use calu::kernels::{
    dgemm_jki, dgemm_packed, dgetrf_recursive_packed, dtrsm_left_lower_unit_packed,
    dtrsm_right_upper_packed, flops, GemmScratch,
};
use calu::matrix::{gen, DenseMatrix};
use calu_bench::perf::{calibration_secs, min_of, write_flat_json, CALIBRATION_KEY};
use calu_bench::timing::fmt_secs;

/// Time one `C ← C − A·B` with the packed kernel and the seed jki
/// kernel; returns `(packed_secs, jki_secs)`.
fn time_gemm(m: usize, n: usize, k: usize, iters: usize, scratch: &mut GemmScratch) -> (f64, f64) {
    let a = gen::uniform(m, k, 7);
    let b = gen::uniform(k, n, 8);
    // accumulating (β = 1) into one reused buffer keeps flops identical
    // across iterations without a per-iteration O(mn) re-clone
    let mut c = gen::uniform(m, n, 9);
    let ldc = c.ld();
    let packed = min_of(iters, || {
        let t0 = std::time::Instant::now();
        dgemm_packed(
            m,
            n,
            k,
            -1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            1.0,
            c.as_mut_slice(),
            ldc,
            scratch,
        );
        std::hint::black_box(&c);
        t0.elapsed().as_secs_f64()
    });
    let mut c = gen::uniform(m, n, 9);
    let jki = min_of(iters, || {
        let t0 = std::time::Instant::now();
        dgemm_jki(
            m,
            n,
            k,
            -1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            1.0,
            c.as_mut_slice(),
            ldc,
        );
        std::hint::black_box(&c);
        t0.elapsed().as_secs_f64()
    });
    (packed, jki)
}

fn unit_lower(n: usize, seed: u64) -> DenseMatrix {
    let r = gen::uniform(n, n, seed);
    DenseMatrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else if i > j {
            0.3 * r.get(i, j)
        } else {
            0.0
        }
    })
}

fn upper(n: usize, seed: u64) -> DenseMatrix {
    let r = gen::uniform(n, n, seed);
    DenseMatrix::from_fn(n, n, |i, j| {
        if i == j {
            2.0 + r.get(i, j).abs()
        } else if i < j {
            r.get(i, j)
        } else {
            0.0
        }
    })
}

fn main() {
    let mut out = "KERNELS_pr.json".to_string();
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

    let mut metrics: Vec<(String, f64)> = vec![(CALIBRATION_KEY.to_string(), calibration_secs())];
    let mut scratch = GemmScratch::new();

    println!("gemm (packed vs seed jki), square:");
    let squares: &[usize] = if quick {
        &[256, 512]
    } else {
        &[256, 512, 1024]
    };
    for &n in squares {
        let iters = if n >= 1024 { 3 } else { 5 };
        let (packed, jki) = time_gemm(n, n, n, iters, &mut scratch);
        let fl = flops::gemm(n, n, n);
        println!(
            "  n={n:<5} packed {} ({:.2} Gflop/s)   jki {} ({:.2} Gflop/s)",
            fmt_secs(packed),
            fl / packed / 1e9,
            fmt_secs(jki),
            fl / jki / 1e9,
        );
        metrics.push((format!("gemm_sq{n}_secs"), packed));
        metrics.push((format!("gemm_sq{n}_gflops"), fl / packed / 1e9));
        metrics.push((format!("gemm_sq{n}_speedup_vs_jki"), jki / packed));
    }

    println!("gemm, rectangular (trailing-update shapes):");
    for (m, n, k) in [(1024, 256, 128), (256, 1024, 128), (512, 512, 64)] {
        let (packed, jki) = time_gemm(m, n, k, 5, &mut scratch);
        let fl = flops::gemm(m, n, k);
        println!(
            "  {m}x{n}x{k}: packed {} ({:.2} Gflop/s), {:.2}x vs jki",
            fmt_secs(packed),
            fl / packed / 1e9,
            jki / packed
        );
        metrics.push((format!("gemm_{m}x{n}x{k}_secs"), packed));
        metrics.push((format!("gemm_{m}x{n}x{k}_gflops"), fl / packed / 1e9));
        metrics.push((format!("gemm_{m}x{n}x{k}_speedup_vs_jki"), jki / packed));
    }

    println!("trsm (blocked, n rhs = size):");
    {
        let n = 512;
        let l = unit_lower(n, 20);
        let u = upper(n, 21);
        let b0 = gen::uniform(n, n, 22);
        let mut b = b0.clone();
        let ld = b.ld();
        let left = min_of(5, || {
            b.as_mut_slice().copy_from_slice(b0.as_slice());
            let t0 = std::time::Instant::now();
            dtrsm_left_lower_unit_packed(
                n,
                n,
                l.as_slice(),
                l.ld(),
                b.as_mut_slice(),
                ld,
                &mut scratch,
            );
            std::hint::black_box(&b);
            t0.elapsed().as_secs_f64()
        });
        let right = min_of(5, || {
            b.as_mut_slice().copy_from_slice(b0.as_slice());
            let t0 = std::time::Instant::now();
            dtrsm_right_upper_packed(
                n,
                n,
                u.as_slice(),
                u.ld(),
                b.as_mut_slice(),
                ld,
                &mut scratch,
            );
            std::hint::black_box(&b);
            t0.elapsed().as_secs_f64()
        });
        let fl = flops::trsm(n, n);
        println!(
            "  left {} ({:.2} Gflop/s)   right {} ({:.2} Gflop/s)",
            fmt_secs(left),
            fl / left / 1e9,
            fmt_secs(right),
            fl / right / 1e9
        );
        metrics.push(("trsm_left_512_secs".into(), left));
        metrics.push(("trsm_left_512_gflops".into(), fl / left / 1e9));
        metrics.push(("trsm_right_512_secs".into(), right));
        metrics.push(("trsm_right_512_gflops".into(), fl / right / 1e9));
    }

    println!("panel getrf (recursive LU, tall panels):");
    for (m, n) in [(1024, 128), (2048, 64)] {
        let a = gen::uniform(m, n, 30);
        let mut p = a.clone();
        let ld = p.ld();
        let secs = min_of(5, || {
            p.as_mut_slice().copy_from_slice(a.as_slice());
            let t0 = std::time::Instant::now();
            std::hint::black_box(dgetrf_recursive_packed(
                m,
                n,
                p.as_mut_slice(),
                ld,
                &mut scratch,
            ));
            t0.elapsed().as_secs_f64()
        });
        let fl = flops::getrf(m, n);
        println!(
            "  {m}x{n}: {} ({:.2} Gflop/s)",
            fmt_secs(secs),
            fl / secs / 1e9
        );
        metrics.push((format!("getrf_{m}x{n}_secs"), secs));
        metrics.push((format!("getrf_{m}x{n}_gflops"), fl / secs / 1e9));
    }

    let json = write_flat_json(&metrics);
    std::fs::write(&out, &json).expect("write metrics file");
    println!("wrote {out}");
}
