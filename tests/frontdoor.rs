//! Front-door end-to-end: the TCP protocol, live reconfigure and the
//! crash-safe journal through the full facade.
//!
//! The robustness contract under test: a malformed-request storm leaves
//! the listener serving (typed error replies, no panic); reconfigure
//! under load drops zero jobs and keeps JobIds continuous; and a
//! service restarted over its journal re-completes every interrupted
//! job bitwise-identical to an uninterrupted run.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use calu::{
    DrainSummary, JobClass, JobSpec, JobStatus, JournalConfig, MatrixSource, NetConfig, Report,
    ReportService, ServiceConfig, ServiceEvent, Solver,
};

/// The shared service knobs: small tiles, two workers, verification on
/// so every report carries a residual to compare bitwise.
fn solver() -> Solver {
    Solver::new(MatrixSource::shape(64, 64))
        .tile(16)
        .threads(2)
        .dratio(0.5)
        .verify(true)
}

/// Factor bits, pivots and residual bits of `r` must equal `clean`'s.
fn assert_bitwise(r: &Report, clean: &Report, ctx: &str) {
    let (f, fc) = (
        r.factorization.as_ref().unwrap(),
        clean.factorization.as_ref().unwrap(),
    );
    assert_eq!(f.lu.as_slice(), fc.lu.as_slice(), "factor bits, {ctx}");
    assert_eq!(f.perm.pivots(), fc.perm.pivots(), "pivot rows, {ctx}");
    assert_eq!(
        r.residual.unwrap().to_bits(),
        clean.residual.unwrap().to_bits(),
        "residual bits, {ctx}"
    );
}

/// One line-protocol exchange on an established connection.
fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &str) -> String {
    writeln!(writer, "{req}").expect("write request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(
        line.ends_with('\n'),
        "reply to {req:?} was not a full line: {line:?}"
    );
    line.trim().to_string()
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect to listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (
        BufReader::new(stream.try_clone().expect("clone stream")),
        stream,
    )
}

/// A fresh journal path per test, in the target-adjacent temp dir.
fn journal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "calu-frontdoor-{tag}-{}-{seq}.journal",
        std::process::id()
    ))
}

#[test]
fn tcp_submit_status_stats_drain_roundtrip() {
    let listener = solver().listen("127.0.0.1:0").unwrap();
    let (mut reader, mut writer) = connect(listener.local_addr());

    assert_eq!(roundtrip(&mut reader, &mut writer, "ping"), "ok pong");
    let reply = roundtrip(
        &mut reader,
        &mut writer,
        "submit interactive uniform 64 64 7",
    );
    let id: u64 = reply
        .strip_prefix("ok ")
        .unwrap_or_else(|| panic!("expected ok <id>, got {reply:?}"))
        .parse()
        .expect("job id");
    let spd = roundtrip(&mut reader, &mut writer, "submit batch spd 64 9");
    assert!(spd.starts_with("ok "), "spd submit: {spd:?}");

    // poll status to terminal
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = roundtrip(&mut reader, &mut writer, &format!("status {id}"));
        if status == format!("status {id} done") {
            break;
        }
        assert!(
            status.starts_with(&format!("status {id} ")),
            "unexpected status reply {status:?}"
        );
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(2));
    }

    let stats = roundtrip(&mut reader, &mut writer, "stats");
    assert!(stats.starts_with("stats pending="), "stats line: {stats:?}");
    assert!(stats.contains("threads=2"), "stats line: {stats:?}");
    assert!(stats.contains("generation=0"), "stats line: {stats:?}");

    // drain over the wire: the reply carries the summary and the
    // listener shuts itself down
    let drained = roundtrip(&mut reader, &mut writer, "drain");
    assert!(
        drained.starts_with("ok drained completed="),
        "drain reply: {drained:?}"
    );
    listener.shutdown();
    assert!(listener.is_shut_down());
    assert_eq!(listener.service().pending(), 0);
}

#[test]
fn the_stats_reply_names_its_keys_in_one_order() {
    let listener = solver().listen("127.0.0.1:0").unwrap();
    let (mut reader, mut writer) = connect(listener.local_addr());
    let stats = roundtrip(&mut reader, &mut writer, "stats");
    let mut words = stats.split(' ');
    assert_eq!(words.next(), Some("stats"), "stats line: {stats:?}");
    let keys: Vec<&str> = words
        .map(|kv| match kv.split_once('=') {
            Some((key, value)) if !value.is_empty() => key,
            _ => panic!("{kv:?} is not key=value in {stats:?}"),
        })
        .collect();
    assert_eq!(
        keys,
        [
            "pending",
            "queued",
            "threads",
            "generation",
            "lost_workers",
            "accepted",
            "shed",
            "malformed",
            "requests",
            "dratio",
            "small_cutoff",
        ],
        "stats line: {stats:?}"
    );
    listener.shutdown();
}

#[test]
fn malformed_storm_leaves_the_listener_serving() {
    let listener = solver().listen("127.0.0.1:0").unwrap();
    let (mut reader, mut writer) = connect(listener.local_addr());

    // a storm of garbage: every line gets a typed error reply on the
    // same connection — never a disconnect, never a panic
    for req in [
        "frobnicate",
        "submit",
        "submit express uniform 8 8 1",
        "submit batch uniform 8 8",
        "submit batch uniform eight 8 1",
        "submit batch spd 8 1 deadline_ms soon",
        "submit batch uniform 0 8 1",
        "status",
        "status x",
        "status 424242",
        "cancel nope",
        "cancel 424242",
        "stats now please",
    ] {
        let reply = roundtrip(&mut reader, &mut writer, req);
        assert!(
            reply.starts_with("err "),
            "garbage {req:?} must get a typed error, got {reply:?}"
        );
    }

    // an over-long line is answered and discarded without killing the
    // connection
    let long = "x".repeat(8 * 1024);
    let reply = roundtrip(&mut reader, &mut writer, &long);
    assert!(
        reply.starts_with("err malformed line exceeds"),
        "over-long line reply: {reply:?}"
    );

    // the same connection still serves real work
    let reply = roundtrip(
        &mut reader,
        &mut writer,
        "submit interactive uniform 48 48 3",
    );
    assert!(reply.starts_with("ok "), "post-storm submit: {reply:?}");

    // 10 of the storm lines fail to parse, plus the over-long one; the
    // rest are well-formed requests that fail typed (invalid spec,
    // unknown job) without touching the malformed counter
    let stats = listener.stats();
    assert!(
        stats.malformed >= 11,
        "malformed counter saw the storm: {stats:?}"
    );
    listener.service().drain();
    listener.shutdown();
}

#[test]
fn overloaded_listener_sheds_with_a_busy_reply() {
    // one handler, a one-deep accept backlog: with the handler pinned
    // on an idle connection and a second parked, a third arrival must
    // be shed with a typed busy line instead of queueing unboundedly
    let listener = solver()
        .listen_with(
            "127.0.0.1:0",
            ServiceConfig::default(),
            NetConfig {
                max_connections: 1,
                accept_backlog: 1,
                ..NetConfig::default()
            },
        )
        .unwrap();
    let addr = listener.local_addr();

    let (_r1, _w1) = connect(addr); // claimed by the only handler
    std::thread::sleep(Duration::from_millis(50));
    let (_r2, _w2) = connect(addr); // parked in the accept backlog
    std::thread::sleep(Duration::from_millis(50));
    let (mut r3, _w3) = connect(addr); // over the line: shed
    let mut line = String::new();
    r3.read_line(&mut line).expect("read shed reply");
    assert!(
        line.starts_with("busy retry_after_ms="),
        "shed reply: {line:?}"
    );
    let mut eof = String::new();
    assert_eq!(r3.read_line(&mut eof).unwrap(), 0, "shed connection closes");
    assert!(listener.stats().shed >= 1);

    listener.service().drain();
    listener.shutdown();
}

#[test]
fn reconfigure_under_load_drops_zero_jobs_and_keeps_ids_continuous() {
    let service = solver().serve().unwrap();
    let events = service.events();

    // reference factors from an uninterrupted identical-knob run: the
    // reconfigures below change threads and dratio, which change the
    // schedule but (exclusive-writer DAG) never the bits
    let clean: Vec<Report> = (0..18)
        .map(|i| {
            Solver::new(MatrixSource::uniform(96, 500 + i))
                .tile(16)
                .threads(2)
                .dratio(0.5)
                .verify(true)
                .run()
                .unwrap()
        })
        .collect();

    let handles: Vec<_> = (0..18)
        .map(|i| {
            service
                .submit(
                    JobSpec::uniform(96, 96, 500 + i),
                    JobClass::ALL[i as usize % 3],
                )
                .expect("submit under load")
        })
        .collect();
    // ids are assigned continuously at admission
    for (i, h) in handles.iter().enumerate() {
        assert_eq!(h.id(), i as u64 + 1, "continuous JobIds");
    }

    // three back-to-back handovers while the backlog is still draining
    let g1 = solver()
        .threads(3)
        .dratio(0.3)
        .reconfigure(&service)
        .unwrap();
    let g2 = solver()
        .threads(1)
        .dratio(0.8)
        .reconfigure(&service)
        .unwrap();
    let g3 = solver()
        .threads(2)
        .dratio(0.5)
        .reconfigure(&service)
        .unwrap();
    assert_eq!((g1, g2, g3), (1, 2, 3), "generations count handovers");
    assert_eq!(service.generation(), 3);

    // zero dropped: every handle resolves, bitwise-identical to clean
    for (i, h) in handles.into_iter().enumerate() {
        let report = h.wait().unwrap_or_else(|e| panic!("job {i} dropped: {e}"));
        assert_bitwise(&report, &clean[i], &format!("job {i} across handovers"));
    }

    let summary = service.drain();
    assert_eq!(
        summary,
        DrainSummary {
            completed: 18,
            cancelled: 0
        }
    );
    assert_eq!(service.drain(), summary, "drain is idempotent");

    // the event stream ran continuously across the handovers: exactly
    // one terminal event per job, all Done, plus three Reconfigured
    // notices with ascending generations — and then it ended
    let mut done_ids = Vec::new();
    let mut generations = Vec::new();
    for e in events {
        match e {
            ServiceEvent::Job(j) => {
                assert_eq!(j.status, JobStatus::Done, "job {}", j.id);
                done_ids.push(j.id);
            }
            ServiceEvent::Reconfigured { generation } => generations.push(generation),
            other => panic!("unexpected event {other:?}"),
        }
    }
    done_ids.sort_unstable();
    assert_eq!(done_ids, (1..=18).collect::<Vec<_>>(), "one event per job");
    assert_eq!(generations, vec![1, 2, 3]);
}

#[test]
fn events_try_recv_polls_without_blocking() {
    let service = solver().serve().unwrap();
    let events = service.events();
    assert!(events.try_recv().is_none(), "nothing happened yet");
    let h = service
        .submit(JobSpec::uniform(48, 48, 1), JobClass::Interactive)
        .unwrap();
    h.wait().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match events.try_recv() {
            Some(ServiceEvent::Job(j)) => {
                assert_eq!(j.status, JobStatus::Done);
                break;
            }
            Some(other) => panic!("unexpected event {other:?}"),
            None => {
                assert!(Instant::now() < deadline, "terminal event never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    service.drain();
}

#[test]
fn drain_summary_counts_completions_and_cancellations_idempotently() {
    // one worker: a big blocker keeps the victim queued long enough to
    // cancel it deterministically
    let service = Solver::new(MatrixSource::shape(8, 8))
        .tile(16)
        .threads(1)
        .verify(false)
        .serve()
        .unwrap();
    let blocker = service
        .submit(JobSpec::uniform(384, 384, 1), JobClass::Batch)
        .unwrap();
    let victim = service
        .submit(JobSpec::uniform(256, 256, 2), JobClass::Batch)
        .unwrap();
    assert!(service.cancel(&victim), "the queued victim cancels");
    blocker.wait().unwrap();
    let summary = service.drain();
    assert_eq!(
        summary,
        DrainSummary {
            completed: 1,
            cancelled: 1
        }
    );
    assert_eq!(service.drain(), summary, "second drain returns the memo");
}

/// The chaos e2e of the journal: an unclean shutdown mid-batch, then a
/// restart over the same journal, must re-complete every interrupted
/// job bitwise-identical to an uninterrupted run.
///
/// The "crash" is a snapshot of the journal file taken while the batch
/// is still in flight: append-plus-fsync ordering makes a byte-level
/// copy at instant T exactly the file a `kill -9` at T would have left
/// behind (plus, here, a torn trailing line to prove tolerance).
#[test]
fn journal_replay_after_unclean_shutdown_is_bitwise_identical() {
    let live = journal_path("live");
    let crash = journal_path("crash");
    let seeds: Vec<u64> = (900..906).collect();

    // uninterrupted reference factors for the same seeds (threads do
    // not affect the bits, only the tile does — kept at 16 throughout)
    let clean: Vec<Report> = seeds
        .iter()
        .map(|&seed| {
            Solver::new(MatrixSource::uniform(96, seed))
                .tile(16)
                .threads(2)
                .dratio(0.5)
                .verify(true)
                .run()
                .unwrap()
        })
        .collect();

    // first life: a single-worker journaled service with a big blocker
    // in front, so the six victims are deterministically still queued
    // (no `end` markers possible) when the "crash" snapshot is taken
    {
        let service = Solver::new(MatrixSource::shape(8, 8))
            .tile(16)
            .threads(1)
            .dratio(0.5)
            .verify(true)
            .serve_with(ServiceConfig {
                journal: Some(JournalConfig::new(&live)),
                ..ServiceConfig::default()
            })
            .unwrap();
        assert!(service.take_replayed().is_empty(), "fresh journal");
        let blocker = service
            .submit(JobSpec::uniform(512, 512, 899), JobClass::Batch)
            .unwrap();
        let victims: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                service
                    .submit(
                        JobSpec::uniform(96, 96, seed).with_deadline(Duration::from_secs(120)),
                        JobClass::Batch,
                    )
                    .unwrap()
            })
            .collect();
        // the write-ahead contract: every accepted job is on disk NOW,
        // before its completion — this copy is the crash image
        std::fs::copy(&live, &crash).unwrap();
        blocker.wait().unwrap();
        for h in victims {
            h.wait().unwrap();
        }
        service.drain();
        // a clean drain compacts the live journal to empty
        assert_eq!(std::fs::read_to_string(&live).unwrap(), "");
    }

    // a torn trailing line, as a crash mid-append would leave
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&crash)
            .unwrap();
        write!(f, "job 99 bat").unwrap();
    }

    // second life: restart over the crash image (wider pool — replay is
    // schedule-independent) — every interrupted job replays under its
    // original id and factors to the same bits
    let restarted: ReportService = solver()
        .serve_with(ServiceConfig {
            journal: Some(JournalConfig::new(&crash)),
            ..ServiceConfig::default()
        })
        .unwrap();
    let events = restarted.events();
    let replayed = restarted.take_replayed();
    // ids 2..=7 are the victims; the blocker (id 1) replays too unless
    // it finished before the snapshot
    let mut replayed_ids: Vec<u64> = replayed.iter().map(|h| h.id()).collect();
    replayed_ids.sort_unstable();
    for victim_id in 2..=7u64 {
        assert!(
            replayed_ids.contains(&victim_id),
            "queued victim {victim_id} must replay, got {replayed_ids:?}"
        );
    }
    let n_replayed = replayed.len();
    for h in replayed {
        let id = h.id();
        assert_eq!(
            h.dims(),
            if id == 1 { (512, 512) } else { (96, 96) },
            "replayed dims survive the journal"
        );
        let report = h
            .wait()
            .unwrap_or_else(|e| panic!("replayed job {id}: {e}"));
        if id >= 2 {
            assert_bitwise(
                &report,
                &clean[(id - 2) as usize],
                &format!("replayed job {id} vs uninterrupted run"),
            );
        }
    }
    restarted.drain();
    let mut saw_replayed = false;
    for e in events {
        if let ServiceEvent::JournalReplayed { jobs } = e {
            assert_eq!(jobs, n_replayed);
            saw_replayed = true;
        }
    }
    assert!(saw_replayed, "the stream announces the replay");

    // third life: the drained journal has nothing left to replay
    let third = solver()
        .serve_with(ServiceConfig {
            journal: Some(JournalConfig::new(&crash)),
            ..ServiceConfig::default()
        })
        .unwrap();
    assert!(third.take_replayed().is_empty(), "replay is not repeated");
    third.drain();

    let _ = std::fs::remove_file(&live);
    let _ = std::fs::remove_file(&crash);
}
