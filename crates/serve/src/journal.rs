//! Crash-safe job journal: a line-oriented write-ahead log for
//! [`FactorService`](crate::FactorService).
//!
//! With [`ServiceConfig::journal`](crate::ServiceConfig::journal) set,
//! the service appends one record per accepted generator-spec job
//! *before* admission returns, and one completion marker when the job
//! goes terminal. A service rebuilt over the same path replays the
//! incomplete tail — same [`JobId`]s, classes, kernels
//! and seeds — so every interrupted job factors bitwise-identical to an
//! uninterrupted run (generator sources are seeded and the pool's
//! exclusive-writer discipline makes results schedule-independent).
//!
//! # Format
//!
//! Plain ASCII lines, append-only between compactions:
//!
//! ```text
//! job <id> <class> <kernels> uniform <m> <n> <seed> [deadline_ms <ms>]
//! job <id> <class> <kernels> spd <n> <seed> [deadline_ms <ms>]
//! end <id>
//! ```
//!
//! with `<class>` ∈ `interactive|batch|background` and `<kernels>` ∈
//! `lu|cholesky`. A job is *incomplete* iff its `job` line has no
//! matching `end` line. Unparseable lines — a torn final write from a
//! crash mid-append — are skipped, never fatal. Dense-data jobs are not
//! journaled at all: a matrix moved in by value is not replayable from
//! a line record, and pretending otherwise would corrupt the
//! bitwise-identity contract.
//!
//! # Durability
//!
//! Appends flush and (by default) `sync_data` before returning, so an
//! accepted job survives an immediate process kill. Compaction — at
//! open (dropping completed pairs) and at drain (truncating to empty)
//! — writes a fresh temp file and renames it over the journal, the
//! usual atomic-replace idiom.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use calu_core::sync::Mutex;
use calu_core::KernelSet;
use calu_sched::JobClass;

use crate::{JobId, JobSpec};

/// Where (and how durably) a [`FactorService`](crate::FactorService)
/// journals accepted jobs.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal file; created if absent, replayed if present.
    pub path: PathBuf,
    /// `sync_data` every append (the default). Turning this off keeps
    /// the write-ahead ordering but trades crash durability of the last
    /// few records for speed.
    pub fsync: bool,
}

impl JournalConfig {
    /// Journal at `path` with fsync on.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalConfig {
            path: path.into(),
            fsync: true,
        }
    }
}

/// One parsed `job` line.
pub(crate) struct JournalRecord {
    pub id: JobId,
    pub class: JobClass,
    pub kernels: KernelSet,
    pub source: RecordSource,
    pub deadline: Option<Duration>,
}

/// The replayable (seeded-generator) sources.
pub(crate) enum RecordSource {
    Uniform { m: usize, n: usize, seed: u64 },
    Spd { n: usize, seed: u64 },
}

impl JournalRecord {
    /// The record for an accepted spec, or `None` when the spec is not
    /// journal-replayable (dense data).
    pub(crate) fn from_spec(id: JobId, class: JobClass, spec: &JobSpec) -> Option<Self> {
        use calu_core::Source;
        let source = match &spec.job.source {
            Source::Uniform { m, n, seed } => RecordSource::Uniform {
                m: *m,
                n: *n,
                seed: *seed,
            },
            Source::SpdUniform { n, seed } => RecordSource::Spd { n: *n, seed: *seed },
            Source::Dense(_) | Source::Owned(_) => return None,
        };
        Some(JournalRecord {
            id,
            class,
            kernels: spec.kernels(),
            source,
            deadline: spec.deadline,
        })
    }

    /// Rebuild the admission arguments this record was written from.
    pub(crate) fn into_spec(self) -> (JobSpec, JobClass, JobId) {
        let mut spec = match self.source {
            RecordSource::Uniform { m, n, seed } => JobSpec::uniform(m, n, seed),
            RecordSource::Spd { n, seed } => JobSpec::spd_uniform(n, seed),
        }
        .with_kernels(self.kernels);
        if let Some(d) = self.deadline {
            spec = spec.with_deadline(d);
        }
        (spec, self.class, self.id)
    }

    fn render(&self) -> String {
        let class = class_token(self.class);
        let kernels = kernels_token(self.kernels);
        let mut line = match self.source {
            RecordSource::Uniform { m, n, seed } => {
                format!("job {} {class} {kernels} uniform {m} {n} {seed}", self.id)
            }
            RecordSource::Spd { n, seed } => {
                format!("job {} {class} {kernels} spd {n} {seed}", self.id)
            }
        };
        if let Some(d) = self.deadline {
            line.push_str(&format!(" deadline_ms {}", d.as_millis()));
        }
        line
    }

    /// Parse one `job` line (the tokens after the `job` keyword).
    fn parse(rest: &[&str]) -> Option<Self> {
        let (&id, rest) = rest.split_first()?;
        let id: JobId = id.parse().ok()?;
        let (&class, rest) = rest.split_first()?;
        let class = parse_class(class)?;
        let (&kernels, rest) = rest.split_first()?;
        let kernels = parse_kernels(kernels)?;
        let (&kind, rest) = rest.split_first()?;
        let (source, rest) = match kind {
            "uniform" => {
                let [m, n, seed, rest @ ..] = rest else {
                    return None;
                };
                (
                    RecordSource::Uniform {
                        m: m.parse().ok()?,
                        n: n.parse().ok()?,
                        seed: seed.parse().ok()?,
                    },
                    rest,
                )
            }
            "spd" => {
                let [n, seed, rest @ ..] = rest else {
                    return None;
                };
                (
                    RecordSource::Spd {
                        n: n.parse().ok()?,
                        seed: seed.parse().ok()?,
                    },
                    rest,
                )
            }
            _ => return None,
        };
        let deadline = match rest {
            [] => None,
            ["deadline_ms", ms] => Some(Duration::from_millis(ms.parse().ok()?)),
            _ => return None,
        };
        Some(JournalRecord {
            id,
            class,
            kernels,
            source,
            deadline,
        })
    }
}

fn class_token(class: JobClass) -> &'static str {
    match class {
        JobClass::Interactive => "interactive",
        JobClass::Batch => "batch",
        JobClass::Background => "background",
    }
}

fn parse_class(tok: &str) -> Option<JobClass> {
    match tok {
        "interactive" => Some(JobClass::Interactive),
        "batch" => Some(JobClass::Batch),
        "background" => Some(JobClass::Background),
        _ => None,
    }
}

fn kernels_token(kernels: KernelSet) -> &'static str {
    match kernels {
        KernelSet::CaluLu => "lu",
        KernelSet::Cholesky => "cholesky",
    }
}

fn parse_kernels(tok: &str) -> Option<KernelSet> {
    match tok {
        "lu" => Some(KernelSet::CaluLu),
        "cholesky" => Some(KernelSet::Cholesky),
        _ => None,
    }
}

/// The open journal: an append handle behind a mutex, so sinks on
/// worker threads and submits interleave whole-line.
pub(crate) struct Journal {
    file: Mutex<File>,
    path: PathBuf,
    fsync: bool,
}

impl Journal {
    /// Open (creating if absent) the journal at `cfg.path`, parse it,
    /// compact it down to its incomplete tail, and return that tail as
    /// the replay backlog, ordered by id.
    pub(crate) fn open(cfg: &JournalConfig) -> io::Result<(Journal, Vec<JournalRecord>)> {
        let mut backlog = read_incomplete(&cfg.path)?;
        backlog.sort_by_key(|r| r.id);
        let journal = Journal {
            file: Mutex::new(append_handle(&cfg.path)?),
            path: cfg.path.clone(),
            fsync: cfg.fsync,
        };
        // rewrite the file to exactly the records being replayed, so
        // completed history does not accrete across restarts
        journal.compact(&backlog)?;
        Ok((journal, backlog))
    }

    /// Append one accepted-job record, durably (write-ahead: called
    /// before the pool sees the job).
    pub(crate) fn append_job(&self, rec: &JournalRecord) -> io::Result<()> {
        self.append_line(&rec.render())
    }

    /// Append one completion marker.
    pub(crate) fn append_end(&self, id: JobId) -> io::Result<()> {
        self.append_line(&format!("end {id}"))
    }

    fn append_line(&self, line: &str) -> io::Result<()> {
        let mut file = self.file.lock();
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        if self.fsync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Atomically replace the journal with exactly `records` (empty at
    /// drain: nothing left to replay).
    pub(crate) fn compact(&self, records: &[JournalRecord]) -> io::Result<()> {
        let mut file = self.file.lock();
        let tmp = self.path.with_extension("journal-compact");
        {
            let mut out = File::create(&tmp)?;
            for rec in records {
                out.write_all(rec.render().as_bytes())?;
                out.write_all(b"\n")?;
            }
            out.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // the old handle still points at the unlinked inode; reopen
        *file = append_handle(&self.path)?;
        if self.fsync {
            file.sync_data()?;
        }
        Ok(())
    }
}

fn append_handle(path: &Path) -> io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

/// Parse the journal at `path` (absent file = empty journal) into the
/// records with no completion marker. Unparseable lines — torn tails
/// from a crash mid-append — are skipped.
fn read_incomplete(path: &Path) -> io::Result<Vec<JournalRecord>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut open: Vec<JournalRecord> = Vec::new();
    for line in BufReader::new(file).split(b'\n') {
        let line = line?;
        let line = String::from_utf8_lossy(&line);
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.split_first() {
            Some((&"job", rest)) => {
                if let Some(rec) = JournalRecord::parse(rest) {
                    // a duplicate id keeps the latest record
                    open.retain(|r| r.id != rec.id);
                    open.push(rec);
                }
            }
            Some((&"end", [id])) => {
                if let Ok(id) = id.parse::<JobId>() {
                    open.retain(|r| r.id != id);
                }
            }
            _ => {} // torn or foreign line: tolerated
        }
    }
    Ok(open)
}
