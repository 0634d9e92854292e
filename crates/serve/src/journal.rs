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
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use calu_core::sync::Mutex;
use calu_core::KernelSet;
use calu_sched::JobClass;

use crate::{parse_class, JobId, JobSpec};

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

/// The `<kernels>` word of each kernel set.
const KERNELS: [(KernelSet, &str); 2] =
    [(KernelSet::CaluLu, "lu"), (KernelSet::Cholesky, "cholesky")];

/// One parsed `job` line.
pub(crate) struct JournalRecord {
    pub id: JobId,
    pub class: JobClass,
    pub spec: JobSpec,
}

impl JournalRecord {
    /// Parse one `job` line (the tokens after the `job` keyword).
    fn parse(rest: &[&str]) -> Option<Self> {
        let [id, class, kernels, spec @ ..] = rest else {
            return None;
        };
        let kernels = KERNELS.iter().find(|(_, word)| word == kernels)?.0;
        Some(JournalRecord {
            id: id.parse().ok()?,
            class: parse_class(class).ok()?,
            spec: JobSpec::parse(spec).ok()?.with_kernels(kernels),
        })
    }
}

/// The `job` line for an accepted spec, or `None` when the spec is not
/// journal-replayable (dense data).
fn job_line(id: JobId, class: JobClass, spec: &JobSpec) -> Option<String> {
    let kernels = KERNELS.iter().find(|(k, _)| *k == spec.kernels())?.1;
    Some(format!("job {id} {class} {kernels} {}", spec.render()?))
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

    /// Append one accepted job's record, durably (write-ahead: called
    /// before the pool sees the job). `false` when the spec is not
    /// replayable and nothing was written.
    pub(crate) fn append_job(
        &self,
        id: JobId,
        class: JobClass,
        spec: &JobSpec,
    ) -> io::Result<bool> {
        match job_line(id, class, spec) {
            Some(line) => self.append_line(&line).map(|()| true),
            None => Ok(false),
        }
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
            for line in records
                .iter()
                .filter_map(|r| job_line(r.id, r.class, &r.spec))
            {
                out.write_all(line.as_bytes())?;
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
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut open: Vec<JournalRecord> = Vec::new();
    for line in String::from_utf8_lossy(&bytes).lines() {
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
