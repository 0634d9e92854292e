//! Flat-JSON metric files for the record-only metric bins (`kernels`,
//! `serve`).
//!
//! The workspace builds hermetically (no serde), so the bins write the
//! simplest JSON shape that holds a metric set: one object whose values
//! are all numbers, `{"metric_name": 1.25, ...}` ([`write_flat_json`]).
//! Wall-clock numbers measured on different machines are not
//! comparable, so every file carries a `calibration_secs` metric — the
//! time of a fixed single-threaded kernel workload on the same host —
//! for whoever reads two files side by side. Nothing here gates: the
//! repo's one ruler is the `benchmark/` package.

use std::fmt::Write as _;

/// The calibration metric every metric file carries.
pub const CALIBRATION_KEY: &str = "calibration_secs";

/// Minimum of `iters` timed draws of `f` — the estimator every metric
/// bin uses (the minimum filters scheduler noise on shared runners).
pub fn min_of<F: FnMut() -> f64>(iters: usize, mut f: F) -> f64 {
    (0..iters).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// The fixed single-threaded workload behind [`CALIBRATION_KEY`]:
/// repeated *naive* 128×128 matmuls, minimum over several draws. One
/// definition shared by every metric bin, so their `_secs` values can
/// be normalized by the same workload across files and hosts.
pub fn calibration_secs() -> f64 {
    use calu::matrix::{gen, ops};
    let a = gen::uniform(128, 128, 1);
    let b = gen::uniform(128, 128, 2);
    min_of(5, || {
        let t0 = std::time::Instant::now();
        for _ in 0..4 {
            std::hint::black_box(ops::matmul(&a, &b));
        }
        t0.elapsed().as_secs_f64()
    })
}

/// Serialize metrics as a flat JSON object, keys in the given order.
pub fn write_flat_json(pairs: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        // f64 Display prints the shortest round-trip form, which is
        // valid JSON for finite values
        assert!(v.is_finite(), "metric {k} is not finite: {v}");
        let _ = writeln!(out, "  \"{k}\": {v}{comma}");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_one_flat_object_in_the_given_order() {
        let pairs = vec![
            ("calibration_secs".to_string(), 0.015),
            ("steals".to_string(), 42.0),
        ];
        assert_eq!(
            write_flat_json(&pairs),
            "{\n  \"calibration_secs\": 0.015,\n  \"steals\": 42\n}\n"
        );
        assert_eq!(write_flat_json(&[]), "{\n}\n");
    }
}
