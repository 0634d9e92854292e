//! Per-core execution timelines.

use crate::span::TaskSpan;

/// A complete execution trace: all spans of all cores.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    cores: usize,
    spans: Vec<TaskSpan>,
    t_end: f64,
}

impl Timeline {
    /// Create an empty timeline for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            cores,
            spans: Vec::new(),
            t_end: 0.0,
        }
    }

    /// A timeline of `spans` recorded on any clock, re-based in place so
    /// the earliest start is 0. Panics if a core index is out of range
    /// or a span is inverted.
    pub fn from_spans(cores: usize, mut spans: Vec<TaskSpan>) -> Self {
        let (mut t0, mut t1, mut valid) = (f64::INFINITY, f64::NEG_INFINITY, true);
        for s in &spans {
            valid &= s.core < cores && s.end >= s.start;
            t0 = t0.min(s.start);
            t1 = t1.max(s.end);
        }
        assert!(valid, "core out of range or inverted span");
        for s in &mut spans {
            s.start -= t0;
            s.end -= t0;
        }
        Self {
            cores,
            t_end: if spans.is_empty() { 0.0 } else { t1 - t0 },
            spans,
        }
    }

    /// Record a span. Panics if the core index is out of range or the
    /// span is inverted.
    pub fn push(&mut self, span: TaskSpan) {
        assert!(span.core < self.cores, "core {} out of range", span.core);
        assert!(span.end >= span.start, "inverted span");
        self.t_end = self.t_end.max(span.end);
        self.spans.push(span);
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// All spans (unsorted).
    pub fn spans(&self) -> &[TaskSpan] {
        &self.spans
    }

    /// Trace end time (max span end).
    pub fn makespan(&self) -> f64 {
        self.t_end
    }

    /// Spans of one core, sorted by start time.
    pub fn core_spans(&self, core: usize) -> Vec<TaskSpan> {
        let mut v: Vec<TaskSpan> = self
            .spans
            .iter()
            .filter(|s| s.core == core)
            .copied()
            .collect();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// Busy time of one core (all spans, including noise/overhead).
    pub(crate) fn busy_time(&self, core: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.core == core)
            .map(|s| s.duration())
            .sum()
    }

    /// Idle time of one core: makespan minus busy time.
    pub(crate) fn idle_time(&self, core: usize) -> f64 {
        (self.makespan() - self.busy_time(core)).max(0.0)
    }

    /// Mean utilization over cores: busy / makespan.
    pub(crate) fn utilization(&self) -> f64 {
        if self.cores == 0 || self.t_end == 0.0 {
            return 0.0;
        }
        let busy: f64 = (0..self.cores).map(|c| self.busy_time(c)).sum();
        busy / (self.t_end * self.cores as f64)
    }

    /// Mean fraction of cores busy during the window
    /// `[t0_frac, t1_frac] · makespan` — the metric behind Fig 14's
    /// "90% of threads become idle after only 60% of the total
    /// factorization time" (low tail busy-fraction = drained cores).
    pub fn busy_fraction_in_window(&self, t0_frac: f64, t1_frac: f64) -> f64 {
        let (t0, t1) = (t0_frac * self.t_end, t1_frac * self.t_end);
        let window = (t1 - t0).max(f64::MIN_POSITIVE);
        if self.cores == 0 {
            return 0.0;
        }
        let busy: f64 = self
            .spans
            .iter()
            .map(|s| (s.end.min(t1) - s.start.max(t0)).max(0.0))
            .sum();
        busy / (window * self.cores as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn span(core: usize, start: f64, end: f64, kind: SpanKind) -> TaskSpan {
        TaskSpan {
            core,
            start,
            end,
            kind,
        }
    }

    fn simple() -> Timeline {
        let mut t = Timeline::new(2);
        t.push(span(0, 0.0, 4.0, SpanKind::Panel));
        t.push(span(0, 4.0, 10.0, SpanKind::Update));
        t.push(span(1, 0.0, 5.0, SpanKind::Update));
        t
    }

    #[test]
    fn from_spans_rebases_like_shifted_pushes() {
        // engine-clock spans, awkward floats: the one-pass build must
        // be the span-by-span shift, to the bit, makespan included
        let raw: Vec<TaskSpan> = (0..50)
            .map(|i| {
                let start = 1234.567 + (i as f64 * 0.3).sin().abs() * 1e-3;
                span(
                    i % 3,
                    start,
                    start + 1e-6 * (i + 1) as f64,
                    SpanKind::Update,
                )
            })
            .collect();
        let t0 = raw.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let mut pushed = Timeline::new(3);
        for s in &raw {
            pushed.push(span(s.core, s.start - t0, s.end - t0, s.kind));
        }
        let built = Timeline::from_spans(3, raw);
        assert_eq!(built.spans(), pushed.spans());
        assert_eq!(built.makespan().to_bits(), pushed.makespan().to_bits());
        assert_eq!(
            built.spans().iter().map(|s| s.start).fold(1.0, f64::min),
            0.0
        );
        let empty = Timeline::from_spans(2, Vec::new());
        assert_eq!((empty.cores(), empty.makespan()), (2, 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_spans_rejects_a_foreign_core() {
        Timeline::from_spans(2, vec![span(2, 0.0, 1.0, SpanKind::Update)]);
    }

    #[test]
    fn busy_idle_accounting() {
        let t = simple();
        assert_eq!(t.makespan(), 10.0);
        assert_eq!(t.busy_time(0), 10.0);
        assert_eq!(t.busy_time(1), 5.0);
        assert_eq!(t.idle_time(1), 5.0);
        assert!((t.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn busy_fraction_windows() {
        let t = simple();
        // window [0, 0.5] = [0, 5]: core0 busy 5, core1 busy 5 -> 1.0
        assert!((t.busy_fraction_in_window(0.0, 0.5) - 1.0).abs() < 1e-12);
        // window [0.5, 1.0] = [5, 10]: core0 busy 5, core1 idle -> 0.5
        assert!((t.busy_fraction_in_window(0.5, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn core_spans_sorted() {
        let mut t = Timeline::new(1);
        t.push(span(0, 5.0, 6.0, SpanKind::Update));
        t.push(span(0, 0.0, 1.0, SpanKind::Panel));
        let v = t.core_spans(0);
        assert!(v[0].start < v[1].start);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_core() {
        let mut t = Timeline::new(1);
        t.push(span(3, 0.0, 1.0, SpanKind::Panel));
    }

    #[test]
    fn empty_timeline_metrics() {
        let t = Timeline::new(4);
        assert_eq!(t.utilization(), 0.0);
        assert_eq!(t.makespan(), 0.0);
    }
}
