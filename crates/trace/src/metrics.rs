//! Aggregated timeline statistics.

use crate::span::SpanKind;
use crate::timeline::Timeline;

/// Summary statistics of an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineMetrics {
    /// Number of cores.
    pub cores: usize,
    /// Trace makespan (seconds).
    pub makespan: f64,
    /// Mean utilization in `[0, 1]` (busy / makespan, incl. noise).
    pub utilization: f64,
    /// Total idle core-seconds.
    pub total_idle: f64,
    /// Total injected-noise core-seconds.
    pub total_noise: f64,
}

impl TimelineMetrics {
    /// Compute the metrics of a timeline.
    pub fn of(t: &Timeline) -> Self {
        let cores = t.cores();
        let makespan = t.makespan();
        let total_idle: f64 = (0..cores).map(|c| t.idle_time(c)).sum();
        let total_noise: f64 = t
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Noise)
            .map(|s| s.duration())
            .sum();
        Self {
            cores,
            makespan,
            utilization: t.utilization(),
            total_idle,
            total_noise,
        }
    }

    /// Idle fraction of the whole machine-time rectangle.
    pub fn idle_fraction(&self) -> f64 {
        if self.makespan == 0.0 || self.cores == 0 {
            return 0.0;
        }
        self.total_idle / (self.makespan * self.cores as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TaskSpan;

    #[test]
    fn metrics_add_up() {
        let mut t = Timeline::new(2);
        t.push(TaskSpan {
            core: 0,
            start: 0.0,
            end: 8.0,
            kind: SpanKind::Panel,
        });
        t.push(TaskSpan {
            core: 1,
            start: 0.0,
            end: 4.0,
            kind: SpanKind::Update,
        });
        t.push(TaskSpan {
            core: 1,
            start: 4.0,
            end: 6.0,
            kind: SpanKind::Noise,
        });
        let m = TimelineMetrics::of(&t);
        assert_eq!(m.makespan, 8.0);
        assert_eq!(m.total_noise, 2.0);
        assert_eq!(m.total_idle, 2.0);
        // busy 14 over 16 core-seconds
        assert!((m.utilization - 14.0 / 16.0).abs() < 1e-12);
        assert!((m.idle_fraction() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_all_zero() {
        let m = TimelineMetrics::of(&Timeline::new(3));
        assert_eq!(m.total_noise, 0.0);
        assert_eq!(m.idle_fraction(), 0.0);
    }
}
