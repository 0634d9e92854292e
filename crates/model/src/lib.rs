//! The paper's §6 performance model and §7 projections.
//!
//! Theorem 1 bounds the static fraction `f_s` that still allows ideal
//! completion time in the presence of per-core excess work `δ_i`:
//!
//! ```text
//! f_s ≤ 1 − (δ_max − δ_avg) / T_p
//! ```
//!
//! with `T_p = T_1 / p` the ideal parallel time. The extended model adds
//! the critical-path, migration and scheduling-overhead terms to the
//! denominator, and the exascale projection of §7 scales the noise terms
//! with the core count.

mod projection;
mod theorem1;

pub use projection::{dynamic_fraction_projection, ProjectionRow};
pub use theorem1::{max_static_fraction, max_static_fraction_ext, NoiseStats, Overheads};
