//! Seeded state-machine fuzz of the service's job lifecycle.
//!
//! Each seed drives a small service through a random interleaving of
//! submits (every class, generator and dense specs, some with
//! millisecond deadlines that the watchdog races against the workers),
//! cancels, bounded waits, live reconfigures and dropped handles, takes
//! one crash snapshot of its journal partway through, and ends with a
//! drain. Odd seeds slow worker 0 eightfold, so deadlines fire on queued
//! and running jobs alike. Whatever the interleaving, every accepted job must end
//! exactly once: one terminal event per id, and `DrainSummary` counting
//! each accepted job once. The snapshot, replayed by a fresh service,
//! must re-admit only journaled jobs accepted before it, and none whose
//! terminal event had already arrived — a job's `end` marker is written
//! before its event is sent.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

use calu::core::{CaluConfig, FaultPlan};
use calu::matrix::gen;
use calu::{
    Events, FactorService, JobClass, JobHandle, JobSpec, JournalConfig, ServeError, ServiceConfig,
    ServiceEvent,
};
use calu_rand::Rng;
use calu_serve::JobId;

const SEEDS: u64 = 16;
const OPS: usize = 40;

fn solver(threads: usize, seed: u64) -> CaluConfig {
    let mut cfg = CaluConfig::new(16).with_threads(threads).with_dratio(0.5);
    if seed % 2 == 1 {
        cfg.fault = FaultPlan::off().slow_worker(0, 8.0).with_seed(seed);
    }
    cfg
}

fn journaled_service(path: &Path, threads: usize, seed: u64) -> FactorService {
    let svc = ServiceConfig {
        max_pending: 6,
        journal: Some(JournalConfig {
            path: path.to_path_buf(),
            fsync: false,
        }),
        ..ServiceConfig::default()
    };
    FactorService::new(&solver(threads, seed), svc).expect("spawn the service")
}

fn journal_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "calu-service-fsm-{tag}-{}-{seed}.journal",
        std::process::id()
    ))
}

/// A random spec: a generator (LU or Cholesky) or dense data, 16–96 on
/// a side, one in four with a 1–5 ms deadline. `true` when the journal
/// records it (generator specs only).
fn random_spec(rng: &mut Rng) -> (JobSpec, bool) {
    let n = rng.gen_range(16..97);
    let seed = rng.next_u64();
    let (spec, journaled) = match rng.gen_range(0..3) {
        0 => (JobSpec::uniform(rng.gen_range(n..97), n, seed), true),
        1 => (JobSpec::spd_uniform(n, seed), true),
        _ => (JobSpec::dense(gen::uniform(n, n, seed)), false),
    };
    match rng.gen_range(0..4) {
        0 => {
            let ms = rng.gen_range(1..6) as u64;
            (spec.with_deadline(Duration::from_millis(ms)), journaled)
        }
        _ => (spec, journaled),
    }
}

/// Fold every event received so far into per-id terminal counts.
fn collect(events: &Events, ends: &mut BTreeMap<JobId, usize>) {
    while let Some(event) = events.try_recv() {
        if let ServiceEvent::Job(job) = event {
            *ends.entry(job.id).or_default() += 1;
        }
    }
}

fn assert_each_ended_once(ends: &BTreeMap<JobId, usize>, accepted: &BTreeSet<JobId>, seed: u64) {
    let ended: BTreeSet<JobId> = ends.keys().copied().collect();
    assert_eq!(&ended, accepted, "seed {seed}: ended ids vs accepted ids");
    for (id, n) in ends {
        assert_eq!(*n, 1, "seed {seed}: job {id} ended {n} times");
    }
}

/// What the snapshot knew: the journaled jobs accepted before it, and
/// the jobs whose terminal event had arrived before it.
struct Snapshot {
    journaled: BTreeSet<JobId>,
    ended: BTreeSet<JobId>,
}

fn run_seed(seed: u64) {
    let mut rng = Rng::seed_from_u64(0xF5A1 ^ seed);
    let live = journal_path("live", seed);
    let copy = journal_path("copy", seed);
    let _ = std::fs::remove_file(&live);
    let service = journaled_service(&live, 1 + seed as usize / 2 % 2, seed);
    let events = service.events();
    let mut handles: Vec<JobHandle> = Vec::new();
    let mut accepted = BTreeSet::new();
    let mut journaled = BTreeSet::new();
    let mut ends = BTreeMap::new();
    let mut snapshot = None;
    let snap_at = rng.gen_range(OPS / 4..OPS);
    for op in 0..OPS {
        match rng.gen_range(0..10) {
            0..=3 => {
                let (spec, journal) = random_spec(&mut rng);
                let class = JobClass::ALL[rng.gen_range(0..3)];
                match service.submit(spec, class) {
                    Ok(h) => {
                        accepted.insert(h.id());
                        if journal {
                            journaled.insert(h.id());
                        }
                        handles.push(h);
                    }
                    Err(ServeError::Busy { .. }) => {}
                    Err(e) => panic!("seed {seed}: submit failed: {e}"),
                }
            }
            4 if !handles.is_empty() => {
                let h = &handles[rng.gen_range(0..handles.len())];
                service.cancel(h);
            }
            5 | 6 if !handles.is_empty() => {
                let h = handles.swap_remove(rng.gen_range(0..handles.len()));
                let ms = rng.gen_range(0..4) as u64;
                if let Err(h) = h.wait_timeout(Duration::from_millis(ms)) {
                    handles.push(h);
                }
            }
            7 => {
                let threads = rng.gen_range(1..3);
                service
                    .reconfigure(&solver(threads, seed))
                    .unwrap_or_else(|e| panic!("seed {seed}: reconfigure failed: {e}"));
            }
            8 if !handles.is_empty() => {
                drop(handles.swap_remove(rng.gen_range(0..handles.len())));
            }
            _ => {}
        }
        if op == snap_at {
            // events first: whatever has arrived by now must not replay
            collect(&events, &mut ends);
            let ended = ends.keys().copied().collect();
            std::fs::copy(&live, &copy).expect("snapshot the journal");
            snapshot = Some(Snapshot {
                journaled: journaled.clone(),
                ended,
            });
        }
        collect(&events, &mut ends);
    }
    let summary = service.drain();
    drop(handles);
    for event in events {
        if let ServiceEvent::Job(job) = event {
            *ends.entry(job.id).or_default() += 1;
        }
    }
    assert_each_ended_once(&ends, &accepted, seed);
    assert_eq!(
        summary.completed + summary.cancelled,
        accepted.len() as u64,
        "seed {seed}: {summary:?}"
    );
    assert_eq!(service.pending(), 0, "seed {seed}");
    drop(service);
    let _ = std::fs::remove_file(&live);

    // the crash: a fresh service over the snapshot replays its tail
    let snapshot = snapshot.expect("the snapshot op ran");
    let restarted = journaled_service(&copy, 1, seed);
    let events = restarted.events();
    let replayed: Vec<JobHandle> = restarted.take_replayed();
    let ids: BTreeSet<JobId> = replayed.iter().map(|h| h.id()).collect();
    assert!(
        ids.is_subset(&snapshot.journaled),
        "seed {seed}: replayed {ids:?}, journaled before the snapshot {:?}",
        snapshot.journaled
    );
    assert!(
        ids.is_disjoint(&snapshot.ended),
        "seed {seed}: replayed a job whose end event preceded the snapshot"
    );
    for h in replayed {
        let _ = h.wait();
    }
    let summary = restarted.drain();
    let mut ends = BTreeMap::new();
    for event in events {
        if let ServiceEvent::Job(job) = event {
            *ends.entry(job.id).or_default() += 1;
        }
    }
    assert_each_ended_once(&ends, &ids, seed);
    assert_eq!(
        summary.completed + summary.cancelled,
        ids.len() as u64,
        "seed {seed}: replay {summary:?}"
    );
    assert_eq!(restarted.pending(), 0, "seed {seed}: replay");
    drop(restarted);
    let _ = std::fs::remove_file(&copy);
}

#[test]
fn every_accepted_job_ends_exactly_once() {
    for seed in 0..SEEDS {
        run_seed(seed);
    }
}
