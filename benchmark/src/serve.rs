//! `serve_mix`: the TCP front door under a closed loop.
//!
//! One generator thread multiplexes `C` connections; each holds a window
//! of jobs in flight and, on a fixed tick, submits the next job of the
//! round if its window has room and polls one of its in-flight jobs. A
//! slow server therefore receives less load (closed loop), and the
//! standing window keeps a queue for the class lanes to order. A round
//! ends when all its jobs read `done`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use calu::dag::TaskGraph;
use calu::report::nominal_flops;
use calu::{
    Algorithm, JobClass, JobSpec, JobStatus, JournalConfig, MatrixSource, NetConfig, Report,
    ReportService, ServeListener, ServiceConfig, Solver,
};

use crate::check::{factor_hash, probe_residual, SplitMix};
use crate::fold::{put_schedule, RepFold};
use crate::run::{
    set_up_timed, timed_reps, Ctx, EndToEnd, Metrics, Traced, JOB_TAIL, MIN_REPS, TRACED_REPS,
};
use crate::rungs::{self, At};
use crate::spans::{Recorder, Span};
use crate::stats::{median, percentile};

/// Jobs each connection keeps in flight.
const WINDOW: usize = 4;
/// The generator's clock: one submit and one poll per connection per tick.
const TICK: Duration = Duration::from_micros(200);
/// How often the in-process rung looks at its handles.
const INPROC_TICK: Duration = Duration::from_micros(50);

#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Jobs per round: 70 % interactive, 25 % batch, 5 % background,
    /// the same counts every round whatever the seed.
    pub round_jobs: usize,
    /// Interactive jobs are square uniform matrices with orders spread
    /// evenly over this closed range.
    pub interactive: (usize, usize),
    /// Batch jobs: square uniform, above the co-scheduling cutoff, so
    /// they take the shared-queue route.
    pub batch_n: usize,
    /// Background jobs: SPD (tiled Cholesky).
    pub background_n: usize,
    pub b: usize,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    class: JobClass,
    spd: bool,
    n: usize,
    seed: u64,
}

impl Job {
    fn algorithm(&self) -> Algorithm {
        if self.spd {
            Algorithm::Cholesky
        } else {
            Algorithm::Calu
        }
    }

    fn wire(&self) -> String {
        let class = match self.class {
            JobClass::Interactive => "interactive",
            JobClass::Batch => "batch",
            JobClass::Background => "background",
        };
        if self.spd {
            format!("submit {class} spd {} {}", self.n, self.seed)
        } else {
            format!("submit {class} uniform {} {} {}", self.n, self.n, self.seed)
        }
    }

    fn spec(&self) -> JobSpec {
        if self.spd {
            JobSpec::spd_uniform(self.n, self.seed)
        } else {
            JobSpec::uniform(self.n, self.n, self.seed)
        }
    }

    fn source(&self) -> MatrixSource {
        if self.spd {
            MatrixSource::spd_uniform(self.n, self.seed)
        } else {
            MatrixSource::uniform(self.n, self.seed)
        }
    }

    fn flops(&self) -> f64 {
        nominal_flops(self.algorithm(), self.n, self.n)
    }
}

impl ServeShape {
    /// One round's jobs: fixed counts and sizes, seeded order and data.
    fn round(&self, rng: &mut SplitMix) -> Vec<Job> {
        let background = (self.round_jobs / 20).max(1);
        let batch = self.round_jobs / 4;
        let interactive = self.round_jobs - batch - background;
        let (lo, hi) = self.interactive;
        let mut jobs: Vec<Job> = (0..interactive)
            .map(|i| {
                (
                    JobClass::Interactive,
                    false,
                    lo + (hi - lo) * i / (interactive - 1).max(1),
                )
            })
            .chain((0..batch).map(|_| (JobClass::Batch, false, self.batch_n)))
            .chain((0..background).map(|_| (JobClass::Background, true, self.background_n)))
            .map(|(class, spd, n)| Job {
                class,
                spd,
                n,
                seed: 0,
            })
            .collect();
        rng.shuffle(&mut jobs);
        for job in &mut jobs {
            job.seed = rng.next_u64() >> 1;
        }
        jobs
    }

    fn solver(&self, threads: usize) -> Solver {
        Solver::new(MatrixSource::shape(self.batch_n, self.batch_n))
            .tile(self.b)
            .threads(threads)
            .verify(false)
    }

    /// The same knobs on a solo run of one job: the reference the served
    /// factors must match bit for bit.
    fn solo(&self, job: &Job, threads: usize) -> Solver {
        Solver::new(job.source())
            .algorithm(job.algorithm())
            .tile(self.b)
            .threads(threads)
            .verify(false)
    }
}

/// One client connection speaking the line protocol in lockstep.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn roundtrip(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim())
    }
}

/// A warm front door and its client connections.
struct Door {
    listener: ServeListener<Report>,
    conns: Vec<Conn>,
}

impl Door {
    fn open(shape: &ServeShape, ctx: &Ctx, trace: bool) -> Door {
        let net = NetConfig {
            max_connections: ctx.host.connections,
            // The listener keeps every finished job's factors until its
            // table is full, then evicts the terminal entries on the next
            // submit. Sized to one round, that happens exactly at round
            // boundaries, when no job is in flight: memory stays at one
            // round's factors and no live job is ever evicted (it would
            // read `unknown-job`, not `done`).
            max_tracked_jobs: shape.round_jobs,
            ..NetConfig::default()
        };
        let listener = shape
            .solver(ctx.threads())
            .trace(trace)
            .listen_with("127.0.0.1:0", ServiceConfig::default(), net)
            .expect("bind the front door on loopback");
        let conns = (0..ctx.host.connections)
            .map(|_| Conn::connect(listener.local_addr()).expect("connect to the front door"))
            .collect();
        Door { listener, conns }
    }

    /// Everything before the first timed round: spawn, connect, and one
    /// untimed round to fault in pages and per-worker scratch.
    fn set_up(shape: &ServeShape, ctx: &Ctx, rng: &mut SplitMix, trace: bool) -> Door {
        let mut door = Door::open(shape, ctx, trace);
        run_round(&mut door.conns, &shape.round(rng), Instant::now());
        door
    }

    fn service(&self) -> &ReportService {
        self.listener.service()
    }

    /// Drain the pool, stop the listener, join every thread.
    fn close(self) -> f64 {
        drop(self.conns);
        let t0 = Instant::now();
        self.listener.service().drain();
        let drain_s = t0.elapsed().as_secs_f64();
        self.listener.shutdown();
        drain_s
    }
}

/// What the generator saw of one job; times are seconds since the
/// round's epoch.
#[derive(Debug, Clone, Copy)]
struct JobTrace {
    job: usize,
    conn: usize,
    sent: f64,
    admitted: f64,
    running_seen: Option<f64>,
    last_poll_sent: f64,
    done_seen: f64,
}

#[derive(Debug, Default)]
struct Round {
    wall: f64,
    /// Jobs that were refused, failed or lost.
    failed: u64,
    busy: u64,
    polls: u64,
    submit_rtt: Vec<f64>,
    status_rtt: Vec<f64>,
    done: Vec<JobTrace>,
}

impl Round {
    fn latencies(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.done.iter().map(|t| (t.job, t.done_seen - t.sent))
    }
}

struct Flight {
    id: u64,
    trace: JobTrace,
}

/// Drive one round of `jobs` over `conns` to completion.
fn run_round(conns: &mut [Conn], jobs: &[Job], epoch: Instant) -> Round {
    let now = || epoch.elapsed().as_secs_f64();
    let mut round = Round::default();
    let mut flights: Vec<Vec<Flight>> = conns.iter().map(|_| Vec::new()).collect();
    let mut cursor = vec![0usize; conns.len()];
    let mut next = 0;
    let start = now();
    let mut tick = Instant::now();
    while round.done.len() as u64 + round.failed < jobs.len() as u64 {
        for (c, conn) in conns.iter_mut().enumerate() {
            if flights[c].len() < WINDOW && next < jobs.len() {
                let job = next;
                next += 1;
                let sent = now();
                let reply = conn.roundtrip(&jobs[job].wire());
                let admitted = now();
                round.submit_rtt.push(admitted - sent);
                match reply
                    .ok()
                    .and_then(|r| r.strip_prefix("ok ")?.parse::<u64>().ok())
                {
                    Some(id) => flights[c].push(Flight {
                        id,
                        trace: JobTrace {
                            job,
                            conn: c,
                            sent,
                            admitted,
                            running_seen: None,
                            last_poll_sent: admitted,
                            done_seen: admitted,
                        },
                    }),
                    None => {
                        round.failed += 1;
                        if conn.line.starts_with("busy") {
                            round.busy += 1;
                        }
                    }
                }
            }
            if flights[c].is_empty() {
                continue;
            }
            let k = cursor[c] % flights[c].len();
            let sent = now();
            let reply = conn.roundtrip(&format!("status {}", flights[c][k].id));
            let seen = now();
            round.polls += 1;
            round.status_rtt.push(seen - sent);
            let state = match reply.ok().and_then(|r| r.rsplit(' ').next()) {
                Some("done") => Some(JobStatus::Done),
                Some("running") => Some(JobStatus::Running),
                Some("queued") => Some(JobStatus::Queued),
                // failed, cancelled, unknown-job, or a dead connection
                _ => None,
            };
            flights[c][k].trace.last_poll_sent = sent;
            match state {
                Some(JobStatus::Done) => {
                    let mut trace = flights[c].swap_remove(k).trace;
                    trace.done_seen = seen;
                    round.done.push(trace);
                }
                Some(JobStatus::Running) => {
                    flights[c][k].trace.running_seen.get_or_insert(seen);
                    cursor[c] += 1;
                }
                Some(_) => cursor[c] += 1,
                None => {
                    round.failed += 1;
                    flights[c].swap_remove(k);
                }
            }
        }
        tick += TICK;
        match tick.checked_duration_since(Instant::now()) {
            Some(wait) => std::thread::sleep(wait),
            // running late: no burst of catch-up ticks
            None => tick = Instant::now(),
        }
    }
    round.wall = now() - start;
    round
}

/// Serve `sample` in-process, where the factors are visible, and hold
/// them against a solo run of the same input: the wire carries specs and
/// states but no factors. Returns (largest probe residual, mismatches).
fn check_served_factors(
    service: &ReportService,
    shape: &ServeShape,
    sample: &[Job],
    ctx: &Ctx,
    notes: &mut Vec<String>,
) -> (f64, u64) {
    let mut worst = 0.0f64;
    let mut mismatches = 0;
    for job in sample {
        let served = service
            .submit(job.spec(), job.class)
            .map_err(|e| e.to_string())
            .and_then(|h| h.wait().map_err(|e| e.to_string()));
        let solo = shape
            .solo(job, ctx.threads())
            .run()
            .map_err(|e| e.to_string());
        let (Ok(served), Ok(solo)) = (served, solo) else {
            mismatches += 1;
            notes.push(format!("in-process job n={} did not finish", job.n));
            continue;
        };
        let f = served.factorization.expect("the service returns factors");
        let reference = solo
            .factorization
            .expect("the threaded backend returns factors");
        if factor_hash(&f) != factor_hash(&reference) {
            mismatches += 1;
            notes.push(format!(
                "served factors of n={} differ from a solo run",
                job.n
            ));
        }
        let source = job.source();
        let a = source.materialize().expect("generator sources have data");
        worst = worst.max(probe_residual(job.algorithm(), &a, &f, ctx.seed));
    }
    (worst, mismatches)
}

/// One job of each class, a function of the seed alone (not of how many
/// rounds a pass got through), so the checked residual repeats exactly.
fn one_per_class(shape: &ServeShape, seed: u64) -> Vec<Job> {
    let jobs = shape.round(&mut SplitMix(seed ^ 0x5A4D_504C));
    JobClass::ALL
        .iter()
        .filter_map(|&class| jobs.iter().find(|j| j.class == class).copied())
        .collect()
}

pub fn end_to_end(shape: &ServeShape, ctx: &Ctx) -> EndToEnd {
    let mut out = EndToEnd {
        tail_percentile: JOB_TAIL,
        ..Default::default()
    };
    let mut rng = SplitMix(ctx.seed);
    let mut door = set_up_timed(
        &mut out.setup_s,
        || Door::set_up(shape, ctx, &mut rng, false),
        |previous| {
            previous.close();
        },
    );

    let start = Instant::now();
    while out.wall_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let jobs = shape.round(&mut rng);
        out.flops_per_rep = jobs.iter().map(Job::flops).sum();
        let round = run_round(&mut door.conns, &jobs, Instant::now());
        out.attempted += jobs.len() as u64;
        out.failed += round.failed;
        out.wall_s.push(round.wall);
        out.latency_s.extend(round.latencies().map(|(_, l)| l));
        if round.failed > 0 && out.notes.len() < 4 {
            out.notes.push(format!(
                "{} jobs of a round did not reach done",
                round.failed
            ));
        }
    }
    let sample = one_per_class(shape, ctx.seed);
    let (residual, mismatches) =
        check_served_factors(door.service(), shape, &sample, ctx, &mut out.notes);
    out.attempted += sample.len() as u64;
    out.failed += mismatches;
    out.residual_check = residual;
    door.close();
    out
}

/// One round through `FactorService::submit` and the job handles, with
/// the generator's window but no wire: what the protocol layer adds is
/// the difference to a wire round.
#[derive(Default)]
struct InProc {
    wall: f64,
    failed: u64,
    admit: Vec<f64>,
    queue_wait: Vec<f64>,
    run: Vec<f64>,
    reports: Vec<Report>,
}

fn run_inproc_round(service: &ReportService, jobs: &[Job], window: usize) -> InProc {
    struct Held {
        handle: calu::JobHandle<Report>,
        admitted: Instant,
        running: Option<Instant>,
    }
    let mut out = InProc::default();
    let mut held: Vec<Held> = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    while next < jobs.len() || !held.is_empty() {
        while held.len() < window && next < jobs.len() {
            let job = &jobs[next];
            next += 1;
            let t0 = Instant::now();
            match service.submit(job.spec(), job.class) {
                Ok(handle) => {
                    let admitted = Instant::now();
                    out.admit.push((admitted - t0).as_secs_f64());
                    held.push(Held {
                        handle,
                        admitted,
                        running: None,
                    });
                }
                Err(_) => out.failed += 1,
            }
        }
        let mut k = 0;
        while k < held.len() {
            let now = Instant::now();
            match held[k].handle.try_status() {
                JobStatus::Queued => k += 1,
                JobStatus::Running => {
                    held[k].running.get_or_insert(now);
                    k += 1;
                }
                JobStatus::Done => {
                    let h = held.swap_remove(k);
                    let began = h.running.unwrap_or(now);
                    out.queue_wait.push((began - h.admitted).as_secs_f64());
                    out.run.push((now - began).as_secs_f64());
                    match h.handle.wait() {
                        Ok(report) => out.reports.push(report),
                        Err(_) => out.failed += 1,
                    }
                }
                JobStatus::Failed | JobStatus::Cancelled => {
                    held.swap_remove(k);
                    out.failed += 1;
                }
            }
        }
        std::thread::sleep(INPROC_TICK);
    }
    out.wall = start.elapsed().as_secs_f64();
    out
}

/// The same jobs through `Solver::batch` (LU and Cholesky sweeps apart:
/// a sweep has one algorithm), generators materialized on the workers
/// exactly as the service does.
fn batch_secs(shape: &ServeShape, jobs: &[Job], threads: usize) -> f64 {
    let (spd, lu): (Vec<&Job>, Vec<&Job>) = jobs.iter().partition(|j| j.spd);
    let sources = |js: &[&Job]| js.iter().map(|j| j.source()).collect::<Vec<_>>();
    let (lu, spd) = (sources(&lu), sources(&spd));
    let lu_solver = shape.solver(threads);
    let spd_solver = shape.solver(threads).algorithm(Algorithm::Cholesky);
    median(&timed_reps(0.0, 3, 3, || {
        if !lu.is_empty() {
            std::hint::black_box(lu_solver.batch(&lu).expect("LU sweep"));
        }
        if !spd.is_empty() {
            std::hint::black_box(spd_solver.batch(&spd).expect("Cholesky sweep"));
        }
    }))
}

/// Record one wire job as spans: `job` over its whole life, with
/// `submit`, `queued`, `running` and `reply` beneath it. State changes
/// are seen only when a poll lands, so `queued` and `running` are as
/// fine as the generator's tick.
fn record_job(rec: &mut Recorder, base: f64, group: u64, t: &JobTrace) {
    let mut add = |name: &str, parent, start: f64, end: f64| {
        rec.add(Span {
            name: name.to_string(),
            layer: "serve",
            parent,
            group,
            lane: t.conn + 1,
            start: base + start,
            end: base + end.max(start),
            replica: false,
        })
    };
    let root = add("job", None, t.sent, t.done_seen);
    add("submit", Some(root), t.sent, t.admitted);
    let began = t.running_seen.unwrap_or(t.last_poll_sent).max(t.admitted);
    add("queued", Some(root), t.admitted, began);
    add("running", Some(root), began, t.last_poll_sent);
    add("reply", Some(root), t.last_poll_sent, t.done_seen);
}

pub fn traced(shape: &ServeShape, ctx: &Ctx) -> Traced {
    let mut rec = Recorder::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let threads = ctx.threads();
    let slice = ctx.seconds * 0.004;
    let mut rng = SplitMix(ctx.seed);

    let mut door = Door::set_up(shape, ctx, &mut rng, true);

    // untraced reference rounds
    let mut rounds = Vec::new();
    let mut classes: Vec<(JobClass, f64)> = Vec::new();
    timed_reps(ctx.seconds * 0.25, 3, 200, || {
        let jobs = shape.round(&mut rng);
        let round = run_round(&mut door.conns, &jobs, Instant::now());
        classes.extend(round.latencies().map(|(j, l)| (jobs[j].class, l)));
        rounds.push(round);
    });
    let round_jobs = shape.round_jobs as f64;
    let wall = median(&rounds.iter().map(|r| r.wall).collect::<Vec<_>>());
    let all = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let latencies: Vec<f64> = classes.iter().map(|&(_, l)| l).collect();
    let class_p50 = |class| {
        median(
            &classes
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, l)| l)
                .collect::<Vec<_>>(),
        )
    };
    let polls: u64 = rounds.iter().map(|r| r.polls).sum();
    let done: usize = rounds.iter().map(|r| r.done.len()).sum();
    attempted += rounds.len() as u64 * shape.round_jobs as u64;
    failed += rounds.iter().map(|r| r.failed).sum::<u64>();
    m.put("serve.jobs_per_s", round_jobs / wall);
    m.put("serve.latency_p99_s", percentile(&latencies, 99.0));
    m.put(
        "serve.latency_interactive_p50_s",
        class_p50(JobClass::Interactive),
    );
    m.put("serve.latency_batch_p50_s", class_p50(JobClass::Batch));
    m.put(
        "serve.latency_background_p50_s",
        class_p50(JobClass::Background),
    );
    m.put(
        "serve.busy_replies",
        rounds.iter().map(|r| r.busy).sum::<u64>() as f64,
    );
    m.put("serve.polls_per_job", polls as f64 / done.max(1) as f64);
    m.put("serve.submit_rtt_p50_s", median(&all(&|r| &r.submit_rtt)));
    m.put("serve.status_rtt_p50_s", median(&all(&|r| &r.status_rtt)));
    let pings = timed_reps(0.0, 200, 200, || {
        door.conns[0].roundtrip("ping").expect("ping");
    });
    m.put("serve.ping_rtt_p50_s", median(&pings));

    // traced rounds: one root span per job
    for rep in 0..TRACED_REPS {
        let jobs = shape.round(&mut rng);
        let base = rec.now();
        let round = run_round(&mut door.conns, &jobs, Instant::now());
        attempted += jobs.len() as u64;
        failed += round.failed;
        for t in &round.done {
            let group = (rep as u64 + 1) * 1_000_000 + t.job as u64 + 1;
            record_job(&mut rec, base, group, t);
        }
    }

    // the same mix without the wire, then without the service
    let window = WINDOW * ctx.host.connections;
    let mut inproc = Vec::new();
    let mut sample_jobs = Vec::new();
    timed_reps(ctx.seconds * 0.2, 2, 100, || {
        let jobs = shape.round(&mut rng);
        inproc.push(run_inproc_round(door.service(), &jobs, window));
        sample_jobs = jobs;
    });
    attempted += inproc.len() as u64 * shape.round_jobs as u64;
    failed += inproc.iter().map(|r| r.failed).sum::<u64>();
    let inproc_wall = median(&inproc.iter().map(|r| r.wall).collect::<Vec<_>>());
    let inproc_all = |f: &dyn Fn(&InProc) -> &Vec<f64>| -> Vec<f64> {
        inproc.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    m.put("serve.inproc_jobs_per_s", round_jobs / inproc_wall);
    m.put("serve.net_over_inproc", inproc_wall / wall);
    m.put("serve.admit_p50_s", median(&inproc_all(&|r| &r.admit)));
    m.put(
        "serve.queue_wait_p50_s",
        median(&inproc_all(&|r| &r.queue_wait)),
    );
    m.put("serve.run_p50_s", median(&inproc_all(&|r| &r.run)));
    let batch_wall = batch_secs(shape, &sample_jobs, threads);
    m.put("serve.inproc_over_batch", batch_wall / inproc_wall);
    let folds: Vec<RepFold> = inproc
        .iter()
        .map(|r| RepFold::of(&r.reports, r.wall))
        .collect();
    put_schedule(&folds, &mut m);
    let (residual_check, mismatches) = check_served_factors(
        door.service(),
        shape,
        &one_per_class(shape, ctx.seed),
        ctx,
        &mut notes,
    );
    attempted += JobClass::ALL.len() as u64;
    failed += mismatches;

    // the write path beside the read path: admission with the journal on
    let journal_path = ctx
        .out_dir
        .join(format!("journal_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let journaled = shape
        .solver(threads)
        .serve_with(ServiceConfig {
            journal: Some(JournalConfig::new(&journal_path)),
            ..ServiceConfig::default()
        })
        .expect("spawn the journaled service");
    let small = Job {
        class: JobClass::Interactive,
        spd: false,
        n: shape.interactive.0,
        seed: 1,
    };
    let mut handles = Vec::new();
    let journal_submit = timed_reps(0.0, 32, 32, || {
        handles.push(
            journaled
                .submit(small.spec(), small.class)
                .expect("journaled admission"),
        );
    });
    for h in handles {
        if h.wait().is_err() {
            failed += 1;
        }
    }
    journaled.drain();
    drop(journaled);
    let _ = std::fs::remove_file(&journal_path);
    m.put("serve.journal_submit_p50_s", median(&journal_submit));

    // a live reconfigure with a standing queue
    let solver = shape.solver(threads).trace(true);
    let queued: Vec<_> = sample_jobs
        .iter()
        .take(2 * window)
        .filter_map(|j| door.service().submit(j.spec(), j.class).ok())
        .collect();
    let t0 = Instant::now();
    solver
        .reconfigure(door.service())
        .expect("live reconfigure");
    m.put("serve.reconfigure_stall_s", t0.elapsed().as_secs_f64());
    for h in queued {
        if h.wait().is_err() {
            failed += 1;
        }
    }

    // layer rungs at the mix's shapes
    let plan = solver.plan().expect("workload knobs are valid");
    // each job's own DAG: Cholesky for the `spd` share of the mix
    let build_graphs = || -> Vec<TaskGraph> {
        sample_jobs
            .iter()
            .map(|j| {
                if j.spd {
                    TaskGraph::build_cholesky(j.n, shape.b)
                } else {
                    TaskGraph::build_calu(j.n, j.n, shape.b, plan.leaf_stride())
                }
            })
            .collect()
    };
    let graphs = build_graphs();
    let at = At::root(&mut rec);
    let peak_n = if ctx.smoke { 128 } else { 1024 };
    rungs::kernels(&mut rec, at, shape.b, peak_n, slice, &mut m);
    rungs::kernel_counts(&graphs, &mut m);
    let gen_s = timed_reps(0.0, 3, 3, || {
        std::hint::black_box(calu::matrix::gen::uniform(
            shape.batch_n,
            shape.batch_n,
            ctx.seed,
        ));
    });
    m.put("matrix.gen_s", median(&gen_s));
    let biggest = calu::matrix::gen::uniform(shape.batch_n, shape.batch_n, ctx.seed);
    rungs::matrix(
        &mut rec,
        at,
        &biggest,
        shape.b,
        plan.grid,
        plan.layout(),
        ctx.host.llc_bytes,
        &mut m,
    );
    rungs::dag_shape(&graphs, &mut m);
    let build_s = timed_reps(0.0, 3, 3, || {
        std::hint::black_box(build_graphs());
    });
    let tasks: usize = graphs.iter().map(TaskGraph::len).sum();
    m.put("dag.build_s", median(&build_s));
    m.put(
        "dag.build_ns_per_task",
        median(&build_s) / tasks as f64 * 1e9,
    );
    rungs::sched(
        &mut rec,
        at,
        rungs::largest(&graphs),
        plan.grid,
        ctx.seed,
        slice,
        &mut m,
    );
    rec.close(at.parent);
    let plan_s = timed_reps(0.0, 16, 16, || {
        std::hint::black_box(solver.plan().expect("workload knobs are valid"));
    });
    m.put("solver.plan_s", median(&plan_s));
    m.put_roofline(sample_jobs.iter().map(Job::flops).sum(), wall, threads);

    m.put("serve.requests", door.listener.stats().requests as f64);
    m.put("serve.drain_s", door.close());

    Traced {
        attempted,
        failed,
        notes,
        residual_check,
        metrics: m.0,
        recorder: rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ServeShape = ServeShape {
        round_jobs: 100,
        interactive: (128, 256),
        batch_n: 512,
        background_n: 384,
        b: 32,
    };

    #[test]
    fn rounds_keep_the_mix_and_the_flops_whatever_the_seed() {
        let a = SHAPE.round(&mut SplitMix(1));
        let b = SHAPE.round(&mut SplitMix(2));
        let count = |jobs: &[Job], class| jobs.iter().filter(|j| j.class == class).count();
        assert_eq!(a.len(), 100);
        assert_eq!(count(&a, JobClass::Interactive), 70);
        assert_eq!(count(&a, JobClass::Batch), 25);
        assert_eq!(count(&a, JobClass::Background), 5);
        let flops = |jobs: &[Job]| jobs.iter().map(Job::flops).sum::<f64>();
        // the same multiset of sizes, summed in another order
        assert!((flops(&a) - flops(&b)).abs() < 1e-9 * flops(&a));
        let order = |jobs: &[Job]| jobs.iter().map(|j| j.n).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
        let sizes: Vec<usize> = a
            .iter()
            .filter(|j| j.class == JobClass::Interactive)
            .map(|j| j.n)
            .collect();
        assert_eq!(sizes.iter().min(), Some(&128));
        assert_eq!(sizes.iter().max(), Some(&256));
        assert!(a.iter().all(|j| j.spd == (j.class == JobClass::Background)));
    }

    #[test]
    fn wire_lines_parse_back_as_the_protocol_expects() {
        let lu = Job {
            class: JobClass::Batch,
            spd: false,
            n: 512,
            seed: 9,
        };
        assert_eq!(lu.wire(), "submit batch uniform 512 512 9");
        let spd = Job {
            class: JobClass::Background,
            spd: true,
            n: 384,
            seed: 4,
        };
        assert_eq!(spd.wire(), "submit background spd 384 4");
        let sample = one_per_class(&SHAPE, 3);
        assert_eq!(sample.len(), 3);
        assert_eq!(sample[0].seed, one_per_class(&SHAPE, 3)[0].seed);
    }
}
