//! The TCP front door: a hermetic (`std::net`-only) line protocol over
//! a [`FactorService`].
//!
//! [`ServeListener`] binds a `TcpListener` and serves a hand-rolled,
//! line-delimited request/response protocol — no serde, no async
//! runtime, no crates.io. One request per line, one reply line per
//! request, ASCII, space-separated:
//!
//! ```text
//! request                                          reply
//! -------------------------------------------      -------------------------------
//! submit <class> uniform <m> <n> <seed> [deadline_ms <ms>]
//!                                                  ok <id>
//! submit <class> spd <n> <seed> [deadline_ms <ms>] ok <id>
//! status <id>                                      status <id> <state>
//! cancel <id>                                      ok cancelled <id> | ok too-late <id>
//! stats                                            stats pending=<n> queued=<n>
//!                                                    threads=<n> generation=<n>
//!                                                    lost_workers=<n> accepted=<n>
//!                                                    shed=<n> malformed=<n>
//!                                                    requests=<n> dratio=<x>
//!                                                    small_cutoff=<n>
//! ping                                             ok pong
//! drain                                            ok drained completed=<n> cancelled=<n>
//! ```
//!
//! with `<class>` ∈ `interactive|batch|background` and `<state>` ∈
//! `queued|running|done|failed|cancelled`. Error replies are typed
//! lines, never dropped connections:
//!
//! ```text
//! err malformed <detail>     the request line did not parse (the
//!                            connection stays open and keeps serving)
//! err invalid <detail>       parsed, but the spec failed validation
//! err unknown-job <id>       status/cancel for an id this listener
//!                            does not track
//! err shutting-down          the service is draining
//! busy retry_after_ms=<n> pending=<n> quota=<n>
//!                            admission refused; retry after the hint
//! ```
//!
//! Robustness model:
//! * **timeouts** — every accepted connection gets
//!   [`NetConfig::read_timeout`] / [`NetConfig::write_timeout`]; a
//!   silent peer cannot pin a handler thread forever;
//! * **bounded handling with load shedding** — at most
//!   [`NetConfig::max_connections`] handler threads; excess arrivals
//!   beyond the small accept backlog get a one-line `busy` reply
//!   (carrying the service's usual retry hint) and are closed, instead
//!   of queueing unboundedly;
//! * **malformed input** — unparseable requests, unknown commands and
//!   over-long lines ([`NetConfig::max_line_bytes`]) are answered with
//!   `err malformed ...` and the connection keeps serving; nothing a
//!   peer sends can panic the listener;
//! * **drain over the wire** — `drain` runs
//!   [`FactorService::drain`], replies
//!   with the [`DrainSummary`](crate::DrainSummary), and shuts the
//!   listener down.
//!
//! No verb returns a result, so a wire job is admitted without a result
//! slot: the service runs its result hook at completion (the facade's
//! adaptive feedback rides on it) and drops the value there, keeping
//! only the job's status for `status` to read.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

use calu_core::sync::Mutex;
use calu_core::Outcome;

use crate::{
    parse_class, parse_num, retry_hint, spawn, FactorService, JobClass, JobHandle, JobSpec,
    ServeError,
};

/// Connection-handling knobs for one [`ServeListener`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Handler threads — connections served concurrently.
    pub max_connections: usize,
    /// Accepted connections allowed to wait for a free handler before
    /// new arrivals are shed with a `busy` reply.
    pub accept_backlog: usize,
    /// Per-connection read timeout; a peer idle longer is disconnected.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Longest request line honored; anything longer gets
    /// `err malformed` and is discarded (the connection survives).
    pub max_line_bytes: usize,
    /// Jobs the listener tracks for `status`/`cancel`; when full,
    /// terminal entries are evicted.
    pub max_tracked_jobs: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 8,
            accept_backlog: 8,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 1024,
            max_tracked_jobs: 4096,
        }
    }
}

/// Listener-lifetime counters (see [`ServeListener::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted (shed ones included).
    pub accepted: u64,
    /// Connections shed with a `busy` reply at the accept gate.
    pub shed: u64,
    /// Requests answered with `err malformed ...`.
    pub malformed: u64,
    /// Request lines processed.
    pub requests: u64,
}

struct NetShared<R> {
    service: Arc<FactorService<R>>,
    cfg: NetConfig,
    shutdown: AtomicBool,
    /// Accepted connections waiting for a handler.
    backlog: Mutex<VecDeque<TcpStream>>,
    backlog_cv: Condvar,
    /// id → job, for `status`/`cancel` over the wire.
    jobs: Mutex<HashMap<u64, JobHandle<R>>>,
    accepted: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    requests: AtomicU64,
}

/// The TCP front door over one shared [`FactorService`]; see the
/// [module docs](self) for the protocol.
pub struct ServeListener<R = Outcome> {
    shared: Arc<NetShared<R>>,
    local_addr: SocketAddr,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<R: Send + 'static> ServeListener<R> {
    /// Bind `addr` and start serving `service` (shared: the owner may
    /// keep submitting in-process, reconfigure it, or watch its
    /// events). Spawns `cfg.max_connections` handler threads plus one
    /// acceptor.
    pub fn bind(
        service: Arc<FactorService<R>>,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // nonblocking accept so shutdown is prompt without self-connect
        // tricks; the acceptor sleeps between empty polls
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let handlers = cfg.max_connections.max(1);
        let shared = Arc::new(NetShared {
            service,
            cfg,
            shutdown: AtomicBool::new(false),
            backlog: Mutex::new(VecDeque::new()),
            backlog_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        let mut threads: Vec<_> = (0..handlers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                spawn(format!("calu-net-{i}"), move || handler_loop(&shared))
            })
            .collect();
        let acceptor = Arc::clone(&shared);
        threads.push(spawn("calu-net-accept", move || {
            acceptor_loop(listener, &acceptor)
        }));
        Ok(ServeListener {
            shared,
            local_addr,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service behind the front door.
    pub fn service(&self) -> &Arc<FactorService<R>> {
        &self.shared.service
    }

    /// Whether the listener has begun shutting down (a wire `drain`
    /// sets this too).
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            malformed: self.shared.malformed.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
        }
    }
}

impl<R> ServeListener<R> {
    /// Stop accepting, finish in-flight requests, and join every
    /// listener thread. Idempotent; also runs on drop. Does *not* drain
    /// the service — that stays with its owner (or a wire `drain`).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.backlog_cv.notify_all();
        let mut threads = self.threads.lock();
        for h in threads.drain(..) {
            let _ = h.join();
        }
        // anything still parked in the backlog is closed unreplied-to;
        // peers see EOF, the standard "try again" signal
        self.shared.backlog.lock().clear();
    }
}

impl<R> Drop for ServeListener<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long the acceptor sleeps between empty nonblocking polls, and
/// the handlers' condvar wait slice — both short enough that shutdown
/// is prompt.
const POLL_TICK: Duration = Duration::from_millis(2);

fn acceptor_loop<R: Send + 'static>(listener: TcpListener, shared: &NetShared<R>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
                let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
                let _ = stream.set_nodelay(true);
                let mut backlog = shared.backlog.lock();
                if backlog.len() >= shared.cfg.accept_backlog {
                    drop(backlog);
                    shed(stream, shared);
                } else {
                    backlog.push_back(stream);
                    drop(backlog);
                    shared.backlog_cv.notify_one();
                }
            }
            // nothing to accept, or a transient accept error (a
            // per-connection reset): keep listening rather than tearing
            // the front door down
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
    shared.backlog_cv.notify_all();
}

/// Load shedding: one `busy` line with the service's usual retry hint,
/// then close. The peer never hangs on a silent socket.
fn shed<R: Send + 'static>(mut stream: TcpStream, shared: &NetShared<R>) {
    shared.shed.fetch_add(1, Ordering::Relaxed);
    let hint = retry_hint(shared.service.pending(), shared.service.threads());
    let _ = writeln!(stream, "busy retry_after_ms={}", hint.as_millis());
    let _ = stream.shutdown(Shutdown::Both);
}

fn handler_loop<R: Send + 'static>(shared: &NetShared<R>) {
    loop {
        let stream = {
            let mut backlog = shared.backlog.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(s) = backlog.pop_front() {
                    break s;
                }
                backlog = shared
                    .backlog_cv
                    .wait_timeout(backlog, POLL_TICK)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        // connection-level I/O errors (timeout, reset, EOF) just end
        // this connection; the handler thread moves on to the next
        let _ = serve_connection(shared, stream);
    }
}

fn serve_connection<R: Send + 'static>(shared: &NetShared<R>, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let limit = shared.cfg.max_line_bytes as u64;
    let mut line = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        line.clear();
        // +1 so a line of exactly max_line_bytes plus its newline fits
        let n = reader
            .by_ref()
            .take(limit + 1)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(()); // EOF: peer closed cleanly
        }
        let overlong = !line.ends_with(b"\n") && n as u64 == limit + 1;
        let text = String::from_utf8_lossy(&line);
        let tokens: Vec<&str> = text.split_whitespace().collect();
        if tokens.is_empty() && !overlong {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let reply = if overlong {
            Err(format!("line exceeds {limit} bytes"))
        } else {
            handle_request(shared, &tokens)
        };
        let reply = reply.unwrap_or_else(|detail| {
            shared.malformed.fetch_add(1, Ordering::Relaxed);
            format!("err malformed {detail}")
        });
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        if overlong {
            // discard the rest through the next newline and keep serving
            reader.skip_until(b'\n')?;
        } else if tokens == ["drain"] {
            // a wire drain shuts the whole front door down; the reply
            // above already carried the summary
            shared.shutdown.store(true, Ordering::Release);
            shared.backlog_cv.notify_all();
            return Ok(());
        }
    }
}

/// Execute one request; `Err` carries the detail of an `err malformed`
/// reply.
fn handle_request<R: Send + 'static>(
    shared: &NetShared<R>,
    tokens: &[&str],
) -> Result<String, String> {
    let service = &shared.service;
    Ok(match tokens {
        ["submit"] => return Err("submit needs a class".into()),
        ["submit", class, spec @ ..] => {
            submit_reply(shared, parse_class(class)?, JobSpec::parse(spec)?)
        }
        [verb @ ("status" | "cancel"), id] => {
            let id: u64 = parse_num(id, "job id")?;
            // cancel acts under the map lock: it needs the handle and
            // never blocks; an ended job is too late to cancel
            match (*verb, shared.jobs.lock().get(&id)) {
                (_, None) => format!("err unknown-job {id}"),
                ("status", Some(h)) => format!("status {id} {}", h.try_status().token()),
                (_, Some(h)) if service.cancel(h) => format!("ok cancelled {id}"),
                (_, Some(_)) => format!("ok too-late {id}"),
            }
        }
        ["stats"] => {
            // the split fields read off the *current* pool generation,
            // so an adaptive reconfigure is visible over the wire the
            // moment the pool swap lands
            let split = service.current_split();
            format!(
                "stats pending={} queued={} threads={} generation={} lost_workers={} \
                 accepted={} shed={} malformed={} requests={} dratio={:.4} small_cutoff={}",
                service.pending(),
                service.queued(),
                service.threads(),
                service.generation(),
                service.lost_workers(),
                shared.accepted.load(Ordering::Relaxed),
                shared.shed.load(Ordering::Relaxed),
                shared.malformed.load(Ordering::Relaxed),
                shared.requests.load(Ordering::Relaxed),
                split.dratio,
                split.batch_small_cutoff,
            )
        }
        ["ping"] => "ok pong".into(),
        ["drain"] => {
            let summary = service.drain();
            format!(
                "ok drained completed={} cancelled={}",
                summary.completed, summary.cancelled
            )
        }
        [cmd, ..] => return Err(format!("unrecognized command {cmd:?}")),
        [] => return Err("empty request".into()),
    })
}

fn submit_reply<R: Send + 'static>(
    shared: &NetShared<R>,
    class: JobClass,
    spec: JobSpec,
) -> String {
    match shared.service.admit(spec, class, None, false) {
        Ok(handle) => {
            let id = handle.id();
            let mut jobs = shared.jobs.lock();
            // keep the map bounded: terminal entries are only
            // status-query fodder, live ones stay trackable
            let evicted: Vec<_> = if jobs.len() >= shared.cfg.max_tracked_jobs {
                jobs.extract_if(|_, h| h.try_status().is_terminal())
                    .collect()
            } else {
                Vec::new()
            };
            jobs.insert(id, handle);
            drop(jobs);
            drop(evicted);
            format!("ok {id}")
        }
        Err(ServeError::Busy {
            pending,
            quota,
            retry_after_hint,
            ..
        }) => format!(
            "busy retry_after_ms={} pending={pending} quota={quota}",
            retry_after_hint.as_millis()
        ),
        Err(ServeError::ShuttingDown) => "err shutting-down".into(),
        Err(ServeError::Invalid(e)) => format!("err invalid {e}"),
        Err(e) => format!("err failed {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use calu_core::CaluConfig;
    use std::time::Instant;

    /// A job result that counts its drops.
    struct Counted(Arc<AtomicU64>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn results_are_dropped_once_a_poll_sees_their_job_end() {
        let drops = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&drops);
        let cfg = CaluConfig::new(16).with_threads(2);
        let service = FactorService::with_report(&cfg, ServiceConfig::default(), move |_, _| {
            Counted(Arc::clone(&counter))
        })
        .unwrap();
        let listener =
            ServeListener::bind(Arc::new(service), "127.0.0.1:0", NetConfig::default()).unwrap();
        let stream = TcpStream::connect(listener.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut ask = |request: String| {
            writeln!(writer, "{request}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };
        let ids: Vec<u64> = (0..6)
            .map(|seed| {
                let reply = ask(format!("submit batch uniform 48 48 {seed}"));
                reply.strip_prefix("ok ").unwrap().parse().unwrap()
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        for id in &ids {
            while ask(format!("status {id}")) != format!("status {id} done") {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(POLL_TICK);
            }
        }
        // a finishing worker may still hold the job's cell for a moment
        // after publishing `done`; the result goes with the last holder
        while drops.load(Ordering::SeqCst) < ids.len() as u64 {
            assert!(Instant::now() < deadline, "results kept alive by the map");
            std::thread::sleep(POLL_TICK);
        }
        assert!(!listener.is_shut_down());
        for id in &ids {
            assert_eq!(ask(format!("status {id}")), format!("status {id} done"));
        }
        assert_eq!(drops.load(Ordering::SeqCst), ids.len() as u64);
        // hang up first: a handler blocked on an open connection only
        // notices shutdown at its read timeout
        drop((reader, writer));
        listener.shutdown();
        listener.service().drain();
    }
}
