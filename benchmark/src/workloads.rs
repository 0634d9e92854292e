//! The seven named workloads and their shapes. Repetition counts are not
//! constants: a pass repeats its workload for `--seconds`.

use calu::Algorithm;

use crate::batch::BatchShape;
use crate::run::{Ctx, EndToEnd, Traced};
use crate::serve::ServeShape;
use crate::solo::SoloShape;
use crate::{batch, serve, solo};

pub enum Workload {
    Solo {
        shape: SoloShape,
        /// Also run the `calu-sim` rung (one workload carries it).
        with_sim: bool,
    },
    Batch(BatchShape),
    Serve(ServeShape),
}

const fn lu(m: usize, n: usize, b: usize) -> SoloShape {
    SoloShape {
        algorithm: Algorithm::Calu,
        m,
        n,
        b,
        degraded: false,
    }
}

/// The workload named `name` at full or smoke size.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    let solo = |shape| Workload::Solo {
        shape,
        with_sim: false,
    };
    Some(match (name, smoke) {
        ("lu_large", false) => Workload::Solo {
            shape: lu(2000, 2000, 100),
            with_sim: true,
        },
        ("lu_large", true) => Workload::Solo {
            shape: lu(240, 240, 40),
            with_sim: true,
        },
        ("lu_fine", false) => solo(lu(1024, 1024, 16)),
        ("lu_fine", true) => solo(lu(128, 128, 8)),
        ("lu_tall", false) => solo(lu(16384, 256, 64)),
        ("lu_tall", true) => solo(lu(1024, 64, 32)),
        ("chol_large", smoke) => {
            let (n, b) = if smoke { (256, 32) } else { (2048, 64) };
            solo(SoloShape {
                algorithm: Algorithm::Cholesky,
                ..lu(n, n, b)
            })
        }
        ("lu_degraded", smoke) => {
            let (n, b) = if smoke { (192, 32) } else { (1536, 64) };
            solo(SoloShape {
                degraded: true,
                ..lu(n, n, b)
            })
        }
        ("batch_small", false) => Workload::Batch(BatchShape {
            items: 256,
            sizes: &[96, 128, 192, 256, 320],
            b: 32,
        }),
        ("batch_small", true) => Workload::Batch(BatchShape {
            items: 15,
            sizes: &[32, 48, 64],
            b: 16,
        }),
        ("serve_mix", false) => Workload::Serve(ServeShape {
            round_jobs: 100,
            interactive: (128, 256),
            batch_n: 512,
            background_n: 384,
            b: 32,
        }),
        ("serve_mix", true) => Workload::Serve(ServeShape {
            round_jobs: 20,
            interactive: (32, 64),
            batch_n: 96,
            background_n: 64,
            b: 16,
        }),
        _ => return None,
    })
}

impl Workload {
    pub fn end_to_end(&self, ctx: &Ctx) -> EndToEnd {
        match self {
            Workload::Solo { shape, .. } => solo::end_to_end(shape, ctx),
            Workload::Batch(shape) => batch::end_to_end(shape, ctx),
            Workload::Serve(shape) => serve::end_to_end(shape, ctx),
        }
    }

    pub fn traced(&self, ctx: &Ctx) -> Traced {
        match self {
            Workload::Solo { shape, with_sim } => solo::traced(shape, *with_sim, ctx),
            Workload::Batch(shape) => batch::traced(shape, ctx),
            Workload::Serve(shape) => serve::traced(shape, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_has_both_sizes() {
        for w in crate::spec::WORKLOADS {
            assert!(by_name(w.name, false).is_some(), "{}", w.name);
            assert!(by_name(w.name, true).is_some(), "{} (smoke)", w.name);
        }
        assert!(by_name("nope", false).is_none());
    }
}
