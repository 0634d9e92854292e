//! Task span records.

/// What a core was doing during a span — the paper's task taxonomy plus
/// injected OS noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Panel preprocessing / factorization (task P; red in Figure 4).
    Panel,
    /// Panel L-factor tile (task L).
    LFactor,
    /// U tile of the current block row (task U).
    UFactor,
    /// Trailing-matrix update (task S; green in Figure 4).
    Update,
    /// Injected system noise (excess work δ of §6).
    Noise,
    /// Scheduler overhead (dequeue / steal attempts).
    Overhead,
}

impl SpanKind {
    /// One-character code used in the ASCII renderer.
    pub fn code(&self) -> char {
        match self {
            SpanKind::Panel => 'P',
            SpanKind::LFactor => 'L',
            SpanKind::UFactor => 'U',
            SpanKind::Update => 'S',
            SpanKind::Noise => 'n',
            SpanKind::Overhead => 'o',
        }
    }

    /// Fill color used in the SVG renderer.
    pub(crate) fn color(&self) -> &'static str {
        match self {
            SpanKind::Panel => "#d62728",    // red, like Figure 4
            SpanKind::LFactor => "#ff7f0e",  // orange
            SpanKind::UFactor => "#1f77b4",  // blue
            SpanKind::Update => "#2ca02c",   // green, like Figure 4
            SpanKind::Noise => "#7f7f7f",    // grey
            SpanKind::Overhead => "#bcbd22", // olive
        }
    }

    /// Whether the span counts as useful work (vs. noise/overhead).
    pub fn is_work(&self) -> bool {
        matches!(
            self,
            SpanKind::Panel | SpanKind::LFactor | SpanKind::UFactor | SpanKind::Update
        )
    }
}

/// One contiguous interval of activity on a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpan {
    /// Core index.
    pub core: usize,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
    /// Activity kind.
    pub kind: SpanKind,
}

impl TaskSpan {
    /// Span duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let kinds = [
            SpanKind::Panel,
            SpanKind::LFactor,
            SpanKind::UFactor,
            SpanKind::Update,
            SpanKind::Noise,
            SpanKind::Overhead,
        ];
        let mut codes: Vec<char> = kinds.iter().map(|k| k.code()).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
    }

    #[test]
    fn work_classification() {
        assert!(SpanKind::Panel.is_work());
        assert!(SpanKind::Update.is_work());
        assert!(!SpanKind::Noise.is_work());
        assert!(!SpanKind::Overhead.is_work());
    }

    #[test]
    fn duration() {
        let s = TaskSpan {
            core: 0,
            start: 1.5,
            end: 4.0,
            kind: SpanKind::Update,
        };
        assert!((s.duration() - 2.5).abs() < 1e-15);
    }
}
