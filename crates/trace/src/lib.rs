//! Execution timelines and idle-time metrics.
//!
//! The paper's profiling figures (1, 4, 14, 15) are per-core timelines
//! where white space is idle time. This crate records task spans from
//! either the simulator or the real threaded executor and derives the
//! figures' metrics:
//!
//! * per-core busy/idle accounting and overall utilization,
//! * the "fraction of cores that have gone permanently idle by time t"
//!   curve behind the Fig 14 observation ("90% of threads become idle
//!   after only 60% of the total factorization time"),
//! * ASCII and SVG renderings of the timeline.

mod metrics;
pub mod render;
mod span;
pub mod svg;
mod timeline;

pub use metrics::TimelineMetrics;
pub use span::{SpanKind, TaskSpan};
pub use timeline::Timeline;
