//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions; they stay in memory until the pass
//! ends and are then written as Chrome trace-event JSON (open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>). Every span names its
//! layer, its parent (or is a root) and the repetition or job it belongs
//! to, so self time — a span's duration minus what its children cover —
//! can be computed per layer.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The layer whose public function the span wraps.
    pub layer: &'static str,
    pub parent: Option<SpanId>,
    /// Repetition or job id shared by every span of one operation.
    pub group: u64,
    /// Display row: 0 for the calling thread, `1 + core` for workers.
    pub lane: usize,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// A standalone re-run of work the program also does inside another
    /// span (a rung), not a measured part of the operation itself.
    pub replica: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a finished span with explicit times.
    pub fn add(&mut self, span: Span) -> SpanId {
        debug_assert!(span.end >= span.start);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Start a span on the calling thread's lane; [`close`](Self::close)
    /// ends it. Opening the parent first keeps parents ahead of their
    /// children in the span list.
    pub fn open(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        group: u64,
    ) -> SpanId {
        let start = self.now();
        self.add(Span {
            name: name.to_string(),
            layer,
            parent,
            group,
            lane: 0,
            start,
            end: start,
            replica: false,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as a leaf span on the calling thread's lane.
    pub fn time<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.open(name, layer, parent, group);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Mark an already recorded span as a replica rung.
    pub fn mark_replica(&mut self, id: SpanId) {
        self.spans[id].replica = true;
    }

    /// Per-span self time: duration minus the part of the span's own
    /// interval that its children cover (overlapping children — worker
    /// lanes running in parallel — count once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start, self.spans[p].end);
                let (a, b) = (s.start.max(lo), s.end.min(hi));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_by(|x, y| x.0.total_cmp(&y.0));
                let mut covered = 0.0;
                let mut cursor = f64::NEG_INFINITY;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.duration() - covered).max(0.0)
            })
            .collect()
    }

    /// Total self time per layer, replicas excluded.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let selfs = self.self_times();
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            if s.replica {
                continue;
            }
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, acc)) => *acc += t,
                None => out.push((s.layer, t)),
            }
        }
        out
    }

    /// The structural promises of the trace file: every parent exists
    /// and was recorded before its child, children share their parent's
    /// repetition/job id, and no span ends before it starts.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(format!("span {i} ({}) names a later parent {p}", s.name));
                }
                if self.spans[p].group != s.group {
                    return Err(format!(
                        "span {i} ({}) has group {} but its parent has {}",
                        s.name, s.group, self.spans[p].group
                    ));
                }
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, `pid` = repetition/job id, `tid` = lane, times in µs.
    pub fn chrome_trace(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::with_capacity(64 + 200 * self.spans.len());
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, (s, self_s)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": {}, \"tid\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"self_us\": {:.3}, \"replica\": {}}}}}",
                s.name,
                s.layer,
                s.start * 1e6,
                s.duration() * 1e6,
                s.group,
                s.lane,
                self_s * 1e6,
                s.replica
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &str, parent: Option<SpanId>, lane: usize, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            layer: "core",
            parent,
            group: 7,
            lane,
            start,
            end,
            replica: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new();
        let root = r.add(span("factor", None, 0, 0.0, 10.0));
        // two worker lanes overlapping on [2, 6]: covered = [1, 8] = 7
        r.add(span("core0", Some(root), 1, 1.0, 6.0));
        r.add(span("core1", Some(root), 2, 2.0, 8.0));
        // a child poking past its parent is clipped, never negative
        r.add(span("late", Some(root), 0, 9.5, 12.0));
        let selfs = r.self_times();
        assert!((selfs[root] - 2.5).abs() < 1e-12, "{selfs:?}");
        assert!(selfs.iter().all(|&t| t >= 0.0));
        assert!(r.validate().is_ok());
        assert_eq!(r.self_time_by_layer().len(), 1);
    }

    #[test]
    fn validate_rejects_foreign_groups_and_forward_parents() {
        let mut r = Recorder::new();
        let root = r.add(span("a", None, 0, 0.0, 1.0));
        let mut bad = span("b", Some(root), 0, 0.1, 0.2);
        bad.group = 8;
        r.add(bad);
        assert!(r.validate().unwrap_err().contains("group"));
        let mut r = Recorder::new();
        r.add(span("a", Some(3), 0, 0.0, 1.0));
        assert!(r.validate().unwrap_err().contains("later parent"));
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let mut r = Recorder::new();
        let root = r.open("rep", "solver", None, 1);
        let (_, kid) = r.time("plan", "solver", Some(root), 1, || 42);
        r.mark_replica(kid);
        r.close(root);
        let doc = Json::parse(&r.chrome_trace()).expect("trace parses");
        let events = doc.get("traceEvents").expect("events").items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("solver"));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("replica").and_then(Json::as_bool), Some(true));
    }
}
