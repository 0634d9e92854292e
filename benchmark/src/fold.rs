//! Folds of what the public API already returns — `Report`, `Timeline` —
//! into per-layer metrics and trace spans. Nothing here runs the program;
//! it only reads what a run handed back.

use calu::trace::{SpanKind, Timeline};
use calu::Report;

use crate::run::Metrics;
use crate::spans::{Recorder, Span, SpanId};
use crate::stats::median;

/// The four task kinds of the paper, in `P L U S` order.
const KINDS: [SpanKind; 4] = [
    SpanKind::Panel,
    SpanKind::LFactor,
    SpanKind::UFactor,
    SpanKind::Update,
];

/// Schedule accounting of one repetition: one report for a solo run, all
/// items of a sweep (or all jobs of a round) summed.
#[derive(Debug, Clone, Default)]
pub struct RepFold {
    /// Engine time of the repetition: the solo makespan, or the sweep's
    /// own wall clock when item makespans overlap.
    pub makespan: f64,
    /// Thread-seconds the reports account for: Σ threads × makespan over
    /// the repetition's reports (co-scheduled items overlap in time, so
    /// this is not threads × the sweep's wall clock).
    pub area: f64,
    pub busy: f64,
    pub idle: f64,
    pub tasks: u64,
    pub static_pops: u64,
    pub dynamic_pops: u64,
    pub stolen_pops: u64,
    pub remote_steal_pops: u64,
    pub failed_steals: u64,
    pub rescued: u64,
    pub lost_workers: usize,
    pub kind_secs: [f64; 4],
    pub kind_count: [u64; 4],
}

impl RepFold {
    pub fn of<'a>(reports: impl IntoIterator<Item = &'a Report>, makespan: f64) -> RepFold {
        let mut f = RepFold {
            makespan,
            ..Default::default()
        };
        for r in reports {
            f.area += r.threads as f64 * r.makespan;
            f.tasks += r.tasks as u64;
            f.idle += r.schedule.total_idle();
            f.busy += r.schedule.threads.iter().map(|t| t.work).sum::<f64>();
            let q = r.schedule.queue_sources();
            f.static_pops += q.local;
            f.dynamic_pops += q.global;
            f.stolen_pops += q.stolen;
            f.remote_steal_pops += r.schedule.steal_locality().remote;
            f.failed_steals += r.schedule.contention().failed_steals;
            f.rescued += r.schedule.total_rescued();
            f.lost_workers = f.lost_workers.max(r.schedule.lost_workers());
            if let Some(tl) = &r.timeline {
                for s in tl.spans() {
                    if let Some(k) = KINDS.iter().position(|kind| *kind == s.kind) {
                        f.kind_secs[k] += s.duration();
                        f.kind_count[k] += 1;
                    }
                }
            }
        }
        f
    }
}

/// `core.*` and `sched.*` metrics folded from the repetitions' reports:
/// medians over repetitions (counts of one input repeat exactly unless
/// scheduling moved work between queues).
pub fn put_schedule(folds: &[RepFold], m: &mut Metrics) {
    let med = |f: &dyn Fn(&RepFold) -> f64| median(&folds.iter().map(f).collect::<Vec<_>>());
    let busy = med(&|f| f.busy);
    let idle = med(&|f| f.idle);
    let tasks = med(&|f| f.tasks as f64);
    let area = med(&|f| f.area).max(f64::MIN_POSITIVE);
    m.put("core.makespan_s", med(&|f| f.makespan));
    m.put("core.busy_s", busy);
    m.put("core.idle_s", idle);
    m.put("core.idle_frac", idle / area);
    m.put("core.utilization", busy / area);
    // what the reports' own work + idle leave unexplained of their
    // threads × makespan rectangles: reported, not fixed
    m.put(
        "core.accounting_gap_frac",
        (busy + idle - area).abs() / area,
    );
    m.put("core.ns_per_task", area / tasks.max(1.0) * 1e9);
    m.put("core.lost_workers", med(&|f| f.lost_workers as f64));
    for (k, name) in [
        "core.task_P_s",
        "core.task_L_s",
        "core.task_U_s",
        "core.task_S_s",
    ]
    .into_iter()
    .enumerate()
    {
        m.put(name, med(&|f| f.kind_secs[k]));
    }
    for (k, name) in [
        "core.task_count_P",
        "core.task_count_L",
        "core.task_count_U",
        "core.task_count_S",
    ]
    .into_iter()
    .enumerate()
    {
        m.put(name, med(&|f| f.kind_count[k] as f64));
    }

    let pops = |f: &RepFold| (f.static_pops + f.dynamic_pops + f.stolen_pops).max(1) as f64;
    m.put("sched.static_pops", med(&|f| f.static_pops as f64));
    m.put("sched.dynamic_pops", med(&|f| f.dynamic_pops as f64));
    m.put("sched.stolen_pops", med(&|f| f.stolen_pops as f64));
    m.put(
        "sched.remote_steal_pops",
        med(&|f| f.remote_steal_pops as f64),
    );
    m.put("sched.failed_steals", med(&|f| f.failed_steals as f64));
    m.put(
        "sched.steal_fail_rate",
        med(&|f| f.failed_steals as f64 / (f.failed_steals + f.stolen_pops).max(1) as f64),
    );
    m.put(
        "sched.dynamic_frac",
        med(&|f| (f.dynamic_pops + f.stolen_pops) as f64 / pops(f)),
    );
    m.put("sched.rescued_tasks", med(&|f| f.rescued as f64));
}

/// Hang the program's own timeline under `parent` (the span around the
/// public call that produced it): one lane span per worker, and under it
/// the worker's task spans with back-to-back tasks of one kind merged
/// into a single `P`/`L`/`U`/`S` span, so a 90k-task run stays loadable.
/// A lane's self time is that worker's idle and dequeue time.
///
/// The program does not expose when its timeline's clock started, so the
/// timeline is placed `offset` seconds into the parent (the caller's
/// estimate of what runs before the DAG), shifted earlier if it would
/// otherwise poke out of the parent's end.
pub fn hang_timeline(rec: &mut Recorder, parent: SpanId, offset: f64, tl: &Timeline) {
    /// Gaps shorter than this between same-kind tasks are a dequeue, not
    /// idleness worth a span boundary.
    const MERGE_GAP: f64 = 5e-6;
    let (p_start, p_end, group) = {
        let p = &rec.spans()[parent];
        (p.start, p.end, p.group)
    };
    let room = (p_end - p_start - tl.makespan()).max(0.0);
    let base = p_start + offset.clamp(0.0, room);
    // timeline seconds → recorder seconds, never past the parent's end
    let at = |t: f64| (base + t).min(p_end);
    for core in 0..tl.cores() {
        let mut spans = tl.core_spans(core);
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
            continue;
        };
        let lane = rec.add(Span {
            name: format!("worker{core}"),
            layer: "core",
            parent: Some(parent),
            group,
            lane: core + 1,
            start: at(first.start),
            end: at(last.end),
            replica: false,
        });
        let mut run: Option<(SpanKind, f64, f64)> = None;
        let flush = |rec: &mut Recorder, (kind, start, end): (SpanKind, f64, f64)| {
            rec.add(Span {
                name: kind.code().to_string(),
                layer: "core",
                parent: Some(lane),
                group,
                lane: core + 1,
                start: at(start),
                end: at(end),
                replica: false,
            });
        };
        for s in &spans {
            match run {
                Some((kind, start, end)) if kind == s.kind && s.start - end < MERGE_GAP => {
                    run = Some((kind, start, s.end.max(end)));
                }
                Some(done) => {
                    flush(rec, done);
                    run = Some((s.kind, s.start, s.end));
                }
                None => run = Some((s.kind, s.start, s.end)),
            }
        }
        if let Some(done) = run {
            flush(rec, done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu::matrix::gen;
    use calu::{MatrixSource, Solver};

    fn traced_report() -> Report {
        Solver::new(MatrixSource::Dense(gen::uniform(96, 96, 1)))
            .tile(16)
            .threads(2)
            .verify(false)
            .trace(true)
            .run()
            .expect("traced run")
    }

    #[test]
    fn fold_counts_every_task_once() {
        let r = traced_report();
        let f = RepFold::of([&r], r.makespan);
        assert_eq!(f.tasks as usize, r.tasks);
        assert_eq!(f.kind_count.iter().sum::<u64>() as usize, r.tasks);
        assert_eq!(
            f.static_pops + f.dynamic_pops + f.stolen_pops,
            r.tasks as u64
        );
        let mut m = Metrics::default();
        put_schedule(&[f.clone(), f], &mut m);
        assert_eq!(m.get("core.makespan_s"), Some(r.makespan));
        assert_eq!(m.get("sched.rescued_tasks"), Some(0.0));
        assert!(m.get("core.utilization").unwrap() > 0.0);
    }

    #[test]
    fn hung_timeline_stays_inside_its_parent_with_one_group() {
        let r = traced_report();
        let tl = r
            .timeline
            .as_ref()
            .expect("trace(true) attaches a timeline");
        let mut rec = Recorder::new();
        let parent = rec.add(Span {
            name: "factor".into(),
            layer: "solver",
            parent: None,
            group: 3,
            lane: 0,
            start: 1.0,
            end: 1.0 + tl.makespan() * 1.5,
            replica: false,
        });
        hang_timeline(&mut rec, parent, 10.0, tl);
        rec.validate().expect("well-formed");
        let p_end = rec.spans()[parent].end;
        assert!(rec.spans().len() > 1 + tl.cores());
        assert!(rec.spans().len() <= 1 + tl.cores() + tl.spans().len());
        for s in &rec.spans()[1..] {
            assert!(s.start >= 1.0 && s.end <= p_end + 1e-12, "{s:?}");
        }
        assert!(rec.self_times().iter().all(|&t| t >= 0.0));
    }
}
