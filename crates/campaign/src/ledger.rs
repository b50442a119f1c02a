//! The append-only campaign ledger: every job state transition, durable.
//!
//! One JSONL line per transition, each carrying a CRC-32 of its own body:
//!
//! ```text
//! {"seq":4,"kind":"leased","fp":"00f3…","seed":2,"attempt":1,"worker":0,"sum":"9ad01c22"}
//! ```
//!
//! Crash model: the process can die (`kill -9`) between or *during* line
//! writes. Replay accepts the longest prefix of intact records — a torn or
//! corrupt tail line is discarded (and physically truncated on reopen so
//! appends continue from a clean boundary). Because results are recorded
//! only by `done` records and work is (re)queued by `enqueued`/`retry`
//! records, the recovered state can never show a completed job as pending
//! (no duplicated results) nor a pending job as absent (no lost work):
//! the torn-truncation property test replays the ledger cut at every byte
//! boundary and asserts exactly that.
//!
//! Writes go through a single [`Ledger`] handle (the campaign serialises
//! them behind a mutex), one `write` per record with its newline, and
//! carry strictly increasing sequence numbers — a seq discontinuity ends
//! replay just like a checksum failure. A write that fails is taken back
//! and closes the handle, so a fragment never sits in front of a record.

use crate::spec::JobKey;
use raccd_obs::json::{self, escape_into, Scalar, Value};
use raccd_snap::crc32;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// One ledger record: a job state transition (or a campaign-level note).
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A new job entered the queue. Carries the canonical configuration
    /// line so a resume can re-materialise the work without the submitter.
    Enqueued {
        /// Job key.
        key: JobKey,
        /// Canonical configuration line ([`crate::JobSpec::canonical`]).
        spec: String,
    },
    /// A submitted job matched an existing key (result-cache or queue
    /// hit); nothing new to run.
    Deduped {
        /// Job key.
        key: JobKey,
    },
    /// The queue was saturated; the job was deterministically rejected.
    Shed {
        /// Job key.
        key: JobKey,
    },
    /// A worker took the job.
    Leased {
        /// Job key.
        key: JobKey,
        /// 1-based execution attempt.
        attempt: u32,
        /// Worker index.
        worker: u32,
    },
    /// The job completed; the digest is the cached result.
    Done {
        /// Job key.
        key: JobKey,
        /// Result digest.
        digest: JobDigest,
    },
    /// The job failed (verification, detection, or timeout).
    Failed {
        /// Job key.
        key: JobKey,
        /// Attempt that failed.
        attempt: u32,
        /// Failure description.
        err: String,
    },
    /// A failed job was requeued for another attempt.
    Retry {
        /// Job key.
        key: JobKey,
        /// The attempt about to run (previous attempt + 1).
        attempt: u32,
        /// Backoff delay charged before the requeue, in milliseconds.
        delay_ms: u64,
    },
    /// Campaign-level annotation (reconciliation summary, shutdown marker).
    Note {
        /// Freeform text.
        text: String,
    },
}

/// The protocol-visible outcome of one job, as recorded in `done` records
/// and compared by the differential suite.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobDigest {
    /// Simulated execution cycles.
    pub cycles: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// FNV-1a-64 over the full protocol-visible counter set
    /// ([`crate::stats_digest`]).
    pub stats_digest: u64,
    /// FNV-1a-64, as 16 hex digits, of the shadow checker's canonical
    /// state key, when a checker was attached. The digest, not the key:
    /// the key lists every block the run touched, and a `done` record
    /// carrying it grew the ledger thirtyfold.
    pub state_key: Option<String>,
}

impl Record {
    /// The record's job key, if it names one.
    pub fn key(&self) -> Option<JobKey> {
        match *self {
            Record::Enqueued { key, .. }
            | Record::Deduped { key }
            | Record::Shed { key }
            | Record::Leased { key, .. }
            | Record::Done { key, .. }
            | Record::Failed { key, .. }
            | Record::Retry { key, .. } => Some(key),
            Record::Note { .. } => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Record::Enqueued { .. } => "enqueued",
            Record::Deduped { .. } => "deduped",
            Record::Shed { .. } => "shed",
            Record::Leased { .. } => "leased",
            Record::Done { .. } => "done",
            Record::Failed { .. } => "failed",
            Record::Retry { .. } => "retry",
            Record::Note { .. } => "note",
        }
    }

    /// Append the record's durable line (no newline) to `out`: the body
    /// in stable key order, then the CRC-32 of what stands between the
    /// braces before `,"sum"`. A kind's one free-text member is its last.
    /// (The `Result` is `fmt::Write`'s; writing to a `String` cannot fail.)
    fn render(&self, seq: u64, out: &mut String) -> std::fmt::Result {
        let start = out.len() + 1;
        write!(out, "{{\"seq\":{seq},\"kind\":\"{}\"", self.kind())?;
        if let Some(JobKey { fingerprint, seed }) = self.key() {
            write!(out, ",\"fp\":\"{fingerprint:016x}\",\"seed\":{seed}")?;
        }
        if let Record::Leased { attempt, .. }
        | Record::Failed { attempt, .. }
        | Record::Retry { attempt, .. } = self
        {
            write!(out, ",\"attempt\":{attempt}")?;
        }
        let mut text = None;
        match self {
            Record::Enqueued { spec, .. } => text = Some(("spec", spec)),
            Record::Deduped { .. } | Record::Shed { .. } => {}
            Record::Leased { worker, .. } => write!(out, ",\"worker\":{worker}")?,
            Record::Done { digest: d, .. } => {
                write!(out, ",\"cycles\":{},\"tasks\":{}", d.cycles, d.tasks)?;
                write!(out, ",\"digest\":\"{:016x}\"", d.stats_digest)?;
                match &d.state_key {
                    Some(k) => text = Some(("key", k)),
                    None => out.push_str(",\"key\":null"),
                }
            }
            Record::Failed { err, .. } => text = Some(("err", err)),
            Record::Retry { delay_ms, .. } => write!(out, ",\"delay_ms\":{delay_ms}")?,
            Record::Note { text: t } => text = Some(("text", t)),
        }
        if let Some((name, value)) = text {
            write!(out, ",\"{name}\":")?;
            escape_into(out, value);
        }
        let sum = crc32(&out.as_bytes()[start..]);
        write!(out, ",\"sum\":\"{sum:08x}\"}}")
    }

    /// Render one durable ledger line (no trailing newline).
    pub fn to_line(&self, seq: u64) -> String {
        let mut line = String::new();
        let _ = self.render(seq, &mut line);
        line
    }

    /// Parse and verify one ledger line. `Err` distinguishes corruption
    /// (checksum/format) for the caller's replay-stop decision.
    pub fn parse_line(line: &str) -> Result<(u64, Record), String> {
        Self::parse_with(line, &mut Vec::new())
    }

    /// [`Record::parse_line`] over a caller-kept scratch list: one CRC
    /// pass over the body, one borrowed member walk, and no allocation
    /// beyond the strings the record owns.
    fn parse_with<'a>(line: &'a str, m: &mut Vec<Member<'a>>) -> Result<(u64, Record), String> {
        // The last `,"sum":"`, found from the end, where it stands.
        const SUM: &[u8] = b",\"sum\":\"";
        let at = line
            .as_bytes()
            .windows(SUM.len())
            .rposition(|w| w == SUM)
            .ok_or("missing checksum field")?;
        let (prefix, tail) = (&line[..at], &line[at + SUM.len()..]);
        let sum_hex = tail.strip_suffix("\"}").ok_or("malformed checksum tail")?;
        let sum = u32::from_str_radix(sum_hex, 16).map_err(|_| "bad checksum hex")?;
        let body = prefix.strip_prefix('{').ok_or("missing opening brace")?;
        if crc32(body.as_bytes()) != sum {
            return Err("checksum mismatch".into());
        }
        json::members(body, m).map_err(|e| format!("bad json: {e}"))?;
        let seq = field_u64(m, "seq")?;
        let key = field_hex(m, "fp").and_then(|fingerprint| {
            let seed = field_u64(m, "seed")?;
            Ok(JobKey { fingerprint, seed })
        });
        let rec = match field_str(m, "kind")? {
            "enqueued" => Record::Enqueued {
                key: key?,
                spec: field_str(m, "spec")?.to_string(),
            },
            "deduped" => Record::Deduped { key: key? },
            "shed" => Record::Shed { key: key? },
            "leased" => Record::Leased {
                key: key?,
                attempt: field_u32(m, "attempt")?,
                worker: field_u32(m, "worker")?,
            },
            "done" => Record::Done {
                key: key?,
                digest: JobDigest {
                    cycles: field_u64(m, "cycles")?,
                    tasks: field_u64(m, "tasks")?,
                    stats_digest: field_hex(m, "digest")?,
                    state_key: field_str(m, "key").ok().map(str::to_string),
                },
            },
            "failed" => Record::Failed {
                key: key?,
                attempt: field_u32(m, "attempt")?,
                err: field_str(m, "err")?.to_string(),
            },
            "retry" => Record::Retry {
                key: key?,
                attempt: field_u32(m, "attempt")?,
                delay_ms: field_u64(m, "delay_ms")?,
            },
            "note" => Record::Note {
                text: field_str(m, "text")?.to_string(),
            },
            other => return Err(format!("unknown record kind `{other}`")),
        };
        Ok((seq, rec))
    }
}

/// One `(key, value)` of a ledger line, strings borrowed from the line.
type Member<'a> = (Cow<'a, str>, Scalar<'a>);

fn field<'m, 'a>(m: &'m [Member<'a>], key: &str) -> Option<&'m Scalar<'a>> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// An integer field, exact over the whole `u64` range (seeds and cycle
/// counts above 2^53 must come back as they were written).
fn field_u64(m: &[Member], key: &str) -> Result<u64, String> {
    match field(m, key) {
        Some(Scalar::Plain(Value::Int(n))) => Ok(*n),
        _ => Err(format!("missing/non-integer `{key}`")),
    }
}

fn field_u32(m: &[Member], key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(m, key)?).map_err(|_| format!("`{key}` out of range"))
}

fn field_str<'m>(m: &'m [Member], key: &str) -> Result<&'m str, String> {
    match field(m, key) {
        Some(Scalar::Str(s)) => Ok(s),
        _ => Err(format!("missing/non-string `{key}`")),
    }
}

/// A 64-bit value written as a hex string (`fp`, `digest`).
fn field_hex(m: &[Member], key: &str) -> Result<u64, String> {
    u64::from_str_radix(field_str(m, key)?, 16).map_err(|_| format!("bad {key} hex"))
}

/// Recovered status of one job after replay.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Waiting to run (enqueued, or leased by a run that died, or failed
    /// with retry budget remaining and awaiting its requeue record).
    Queued,
    /// Completed, result cached.
    Done(JobDigest),
    /// Out of retry budget; terminal.
    Failed {
        /// Final failure description.
        err: String,
    },
    /// Rejected by backpressure; terminal, never executed.
    Shed,
}

/// One job's recovered ledger state.
#[derive(Clone, Debug)]
pub struct RecoveredJob {
    /// Current status (last transition wins; a mid-flight `leased` state
    /// recovers to [`JobStatus::Queued`]).
    pub status: JobStatus,
    /// Execution attempts started so far (count of `leased` records).
    pub attempts: u32,
    /// `done` records seen for this key — reconciliation requires ≤ 1.
    pub done_records: u32,
}

/// Everything replay recovers from a ledger file.
#[derive(Clone, Debug, Default)]
pub struct LedgerState {
    /// Per-job recovered state, in key order.
    pub jobs: BTreeMap<JobKey, RecoveredJob>,
    /// Canonical configuration line per fingerprint (from `enqueued`
    /// records) — lets resume re-materialise work.
    pub specs: BTreeMap<u64, String>,
    /// Dedup hits recorded.
    pub dedup_hits: u64,
    /// Next sequence number to write.
    pub next_seq: u64,
    /// Byte length of the valid record prefix (the torn tail beyond it is
    /// discarded).
    pub valid_bytes: u64,
    /// Records successfully replayed.
    pub records: u64,
    /// `true` when a torn or corrupt tail was discarded.
    pub tail_dropped: bool,
}

impl LedgerState {
    /// Replay a ledger image: longest valid prefix wins.
    pub fn replay(bytes: &[u8]) -> LedgerState {
        let mut st = LedgerState::default();
        st.fold(bytes);
        st
    }

    /// Fold the lines of `bytes` past `self.valid_bytes` onto `self`,
    /// which must be the replay of `bytes[..self.valid_bytes]` (the
    /// default state is the replay of nothing). Replay is a left fold over
    /// lines, so this is the replay of all of `bytes`.
    fn fold(&mut self, bytes: &[u8]) {
        let start = self.valid_bytes as usize;
        let rest = &bytes[start..];
        // One UTF-8 check for the whole rest: the first line holding an
        // invalid byte is cut before it, loses its newline, and ends
        // replay just where a per-line check would.
        let text = match std::str::from_utf8(rest) {
            Ok(text) => text,
            Err(e) => std::str::from_utf8(&rest[..e.valid_up_to()]).unwrap_or_default(),
        };
        let mut offset = 0;
        let mut members = Vec::new();
        for line in text.split_inclusive('\n') {
            let Some(body) = line.strip_suffix('\n') else {
                break; // torn final line: no newline commit
            };
            let Ok((seq, rec)) = Record::parse_with(body, &mut members) else {
                break;
            };
            if seq != self.next_seq {
                break; // discontinuity: treat like corruption
            }
            self.apply(&rec);
            self.next_seq = seq + 1;
            self.records += 1;
            offset += line.len();
        }
        self.valid_bytes = (start + offset) as u64;
        self.tail_dropped = start + offset < bytes.len();
    }

    fn apply(&mut self, rec: &Record) {
        match rec {
            Record::Enqueued { key, spec } => {
                self.specs.insert(key.fingerprint, spec.clone());
                self.jobs.entry(*key).or_insert(RecoveredJob {
                    status: JobStatus::Queued,
                    attempts: 0,
                    done_records: 0,
                });
            }
            Record::Deduped { .. } => self.dedup_hits += 1,
            Record::Shed { key } => {
                self.jobs.entry(*key).or_insert(RecoveredJob {
                    status: JobStatus::Shed,
                    attempts: 0,
                    done_records: 0,
                });
            }
            Record::Leased { key, attempt, .. } => {
                if let Some(j) = self.jobs.get_mut(key) {
                    j.attempts = j.attempts.max(*attempt);
                    // A lease that never reached `done`/`failed` recovers
                    // to Queued — the job reruns from scratch.
                    if !matches!(j.status, JobStatus::Done(_)) {
                        j.status = JobStatus::Queued;
                    }
                }
            }
            Record::Done { key, digest } => {
                if let Some(j) = self.jobs.get_mut(key) {
                    j.done_records += 1;
                    j.status = JobStatus::Done(digest.clone());
                }
            }
            Record::Failed { key, err, .. } => {
                if let Some(j) = self.jobs.get_mut(key) {
                    if !matches!(j.status, JobStatus::Done(_)) {
                        j.status = JobStatus::Failed { err: err.clone() };
                    }
                }
            }
            Record::Retry { key, .. } => {
                if let Some(j) = self.jobs.get_mut(key) {
                    if !matches!(j.status, JobStatus::Done(_)) {
                        j.status = JobStatus::Queued;
                    }
                }
            }
            Record::Note { .. } => {}
        }
    }

    /// Keys that must (re)run: queued, mid-lease at the crash, or failed
    /// non-terminally (their retry record was lost with the tail).
    pub fn pending(&self, retry_budget: u32) -> Vec<JobKey> {
        self.jobs
            .iter()
            .filter(|(_, j)| match &j.status {
                JobStatus::Queued => true,
                JobStatus::Failed { .. } => j.attempts < retry_budget.max(1),
                JobStatus::Done(_) | JobStatus::Shed => false,
            })
            .map(|(k, _)| *k)
            .collect()
    }
}

/// Held for the lifetime of a [`Ledger`]: a `<path>.lock` file naming
/// the owning PID. A second writer on the same ledger would interleave
/// sequence numbers and truncate each other's records at replay, so
/// concurrent opens fail fast instead. A lock left behind by `kill -9`
/// names a dead PID and is taken over silently.
struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    fn acquire(ledger_path: &Path) -> std::io::Result<LockGuard> {
        let path = PathBuf::from(format!("{}.lock", ledger_path.display()));
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    f.write_all(std::process::id().to_string().as_bytes())?;
                    return Ok(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if let Some(pid) = holder {
                        // Our own pid counts as live: a second in-process
                        // handle would interleave writes just the same.
                        let alive = Path::new(&format!("/proc/{pid}")).exists();
                        if alive {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WouldBlock,
                                format!("ledger is locked by live pid {pid} ({})", path.display()),
                            ));
                        }
                    }
                    // Stale (dead holder or unparseable): reclaim and
                    // retry the create.
                    std::fs::remove_file(&path).ok();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// How a rendered record reaches the file: `write_all`, except under the
/// failing writer the append-failure tests inject.
type WriteFn = Box<dyn FnMut(&mut File, &[u8]) -> io::Result<()> + Send>;

/// An open, append-only ledger file.
pub struct Ledger {
    file: File,
    write: WriteFn,
    path: PathBuf,
    next_seq: u64,
    /// Byte length of the records written so far.
    committed: u64,
    /// The one buffer every record is rendered into.
    line: String,
    /// The file as the last replay (`open`'s, then each
    /// [`Ledger::replay_file`]'s) read it, up to the end of its last
    /// record, and the state those bytes give.
    image: Vec<u8>,
    state: LedgerState,
    /// The first failed append. It closed the handle: every later append,
    /// and `sync`, reports it again.
    failed: Option<(io::ErrorKind, String)>,
    _lock: LockGuard,
}

impl Ledger {
    /// Open (creating if missing) and recover: replays the file, truncates
    /// any torn tail, and positions appends after the valid prefix. Fails
    /// with [`std::io::ErrorKind::WouldBlock`] if another live process
    /// holds the ledger.
    pub fn open(path: &Path) -> io::Result<(Ledger, LedgerState)> {
        let lock = LockGuard::acquire(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let state = LedgerState::replay(&bytes);
        file.set_len(state.valid_bytes)?;
        file.seek(io::SeekFrom::End(0))?;
        bytes.truncate(state.valid_bytes as usize);
        let ledger = Ledger {
            file,
            write: Box::new(|file, bytes| file.write_all(bytes)),
            path: path.to_path_buf(),
            next_seq: state.next_seq,
            committed: state.valid_bytes,
            line: String::new(),
            image: bytes,
            state: LedgerState {
                tail_dropped: false, // the file ends where its replay did
                ..state.clone()
            },
            failed: None,
            _lock: lock,
        };
        Ok((ledger, state))
    }

    /// Append one record: the line and its newline go out in one write, so
    /// this process never tears a record from its commit. If the write
    /// fails, whatever part of it reached the file is truncated away (the
    /// file still ends on a record) and the handle is closed: no later
    /// record can land behind a fragment, and reopening resumes. The error
    /// names the record.
    pub fn append(&mut self, rec: &Record) -> io::Result<u64> {
        self.check()?;
        let seq = self.next_seq;
        self.line.clear();
        let _ = rec.render(seq, &mut self.line);
        self.line.push('\n');
        if let Err(e) = (self.write)(&mut self.file, self.line.as_bytes()) {
            let _ = self.file.set_len(self.committed);
            let job = rec.key().map_or(String::new(), |k| k.label() + " ");
            let what = format!(
                "ledger append of `{}` {job}failed: {e}; every earlier record is intact, \
                 reopening the ledger resumes",
                rec.kind()
            );
            self.failed = Some((e.kind(), what));
            self.check()?; // which it now is
        }
        self.committed += self.line.len() as u64;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    fn check(&self) -> io::Result<()> {
        match &self.failed {
            Some((kind, what)) => Err(io::Error::new(*kind, what.clone())),
            None => Ok(()),
        }
    }

    /// Re-read the whole file and replay it: the state every byte on disk
    /// gives, and how many records this call parsed. When the file still
    /// starts with the bytes of the last replay, compared byte for byte,
    /// the fold continues from that replay's state over the rest; when it
    /// does not, it starts over. The state is the same either way.
    pub(crate) fn replay_file(&mut self) -> io::Result<(LedgerState, u64)> {
        let mut bytes = std::fs::read(&self.path)?;
        if !bytes.starts_with(&self.image) {
            self.state = LedgerState::default();
        }
        let reused = self.state.records;
        self.state.fold(&bytes);
        let state = self.state.clone();
        bytes.truncate(state.valid_bytes as usize);
        self.image = bytes;
        self.state.tail_dropped = false;
        let parsed = state.records - reused;
        Ok((state, parsed))
    }

    /// Force the file contents to stable storage (used at campaign
    /// milestones; a per-record append is one plain `write`, for
    /// throughput). Like `fsync`, it reports an append that failed before it.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check()?;
        self.file.sync_data()
    }

    /// The ledger's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Next sequence number to be written.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
impl Ledger {
    /// [`Ledger::open`], on a disk that fills up: appends reach the file
    /// until `budget` bytes have gone out, then the write fails mid-record.
    pub(crate) fn open_failing_after(
        path: &Path,
        mut budget: usize,
    ) -> io::Result<(Ledger, LedgerState)> {
        let (mut ledger, state) = Ledger::open(path)?;
        ledger.write = Box::new(move |file, bytes| {
            let n = budget.min(bytes.len());
            budget -= n;
            file.write_all(&bytes[..n])?;
            if n < bytes.len() {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "injected"));
            }
            Ok(())
        });
        Ok((ledger, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64, seed: u64) -> JobKey {
        JobKey {
            fingerprint: fp,
            seed,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Enqueued {
                key: key(0xabc, 1),
                spec: "bench=jacobi scale=test".into(),
            },
            Record::Enqueued {
                key: key(0xabc, 2),
                spec: "bench=jacobi scale=test".into(),
            },
            Record::Deduped { key: key(0xabc, 1) },
            Record::Shed { key: key(0xdef, 9) },
            Record::Leased {
                key: key(0xabc, 1),
                attempt: 1,
                worker: 0,
            },
            Record::Failed {
                key: key(0xabc, 1),
                attempt: 1,
                err: "detected: \"watchdog\"".into(),
            },
            Record::Retry {
                key: key(0xabc, 1),
                attempt: 2,
                delay_ms: 20,
            },
            Record::Leased {
                key: key(0xabc, 1),
                attempt: 2,
                worker: 1,
            },
            Record::Done {
                key: key(0xabc, 1),
                digest: JobDigest {
                    cycles: 12345,
                    tasks: 7,
                    stats_digest: 0x1122334455667788,
                    state_key: Some("mesi:42".into()),
                },
            },
            Record::Note {
                text: "reconciled".into(),
            },
        ]
    }

    /// The line parser this file shipped until the borrowed member walk
    /// replaced it, kept as the reference model: copy the body, build
    /// `json::parse`'s tree, clone the fields out of it.
    fn model_parse_line(line: &str) -> Result<(u64, Record), String> {
        fn u64_of(v: &Value, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing/non-integer `{key}`"))
        }
        fn u32_of(v: &Value, key: &str) -> Result<u32, String> {
            u32::try_from(u64_of(v, key)?).map_err(|_| format!("`{key}` out of range"))
        }
        fn str_of(v: &Value, key: &str) -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing/non-string `{key}`"))
        }
        let (prefix, tail) = line
            .rsplit_once(",\"sum\":\"")
            .ok_or("missing checksum field")?;
        let sum_hex = tail.strip_suffix("\"}").ok_or("malformed checksum tail")?;
        let sum = u32::from_str_radix(sum_hex, 16).map_err(|_| "bad checksum hex")?;
        let body = prefix.strip_prefix('{').ok_or("missing opening brace")?;
        if crc32(body.as_bytes()) != sum {
            return Err("checksum mismatch".into());
        }
        let v = json::parse(&format!("{{{body}}}")).map_err(|e| format!("bad json: {e}"))?;
        let seq = u64_of(&v, "seq")?;
        let kind = str_of(&v, "kind")?;
        let key = || -> Result<JobKey, String> {
            Ok(JobKey {
                fingerprint: u64::from_str_radix(&str_of(&v, "fp")?, 16)
                    .map_err(|_| "bad fp hex".to_string())?,
                seed: u64_of(&v, "seed")?,
            })
        };
        let rec = match kind.as_str() {
            "enqueued" => Record::Enqueued {
                key: key()?,
                spec: str_of(&v, "spec")?,
            },
            "deduped" => Record::Deduped { key: key()? },
            "shed" => Record::Shed { key: key()? },
            "leased" => Record::Leased {
                key: key()?,
                attempt: u32_of(&v, "attempt")?,
                worker: u32_of(&v, "worker")?,
            },
            "done" => Record::Done {
                key: key()?,
                digest: JobDigest {
                    cycles: u64_of(&v, "cycles")?,
                    tasks: u64_of(&v, "tasks")?,
                    stats_digest: u64::from_str_radix(&str_of(&v, "digest")?, 16)
                        .map_err(|_| "bad digest hex".to_string())?,
                    state_key: v.get("key").and_then(Value::as_str).map(str::to_string),
                },
            },
            "failed" => Record::Failed {
                key: key()?,
                attempt: u32_of(&v, "attempt")?,
                err: str_of(&v, "err")?,
            },
            "retry" => Record::Retry {
                key: key()?,
                attempt: u32_of(&v, "attempt")?,
                delay_ms: u64_of(&v, "delay_ms")?,
            },
            "note" => Record::Note {
                text: str_of(&v, "text")?,
            },
            other => return Err(format!("unknown record kind `{other}`")),
        };
        Ok((seq, rec))
    }

    /// `LedgerState::replay` over the model parser, check for check.
    fn model_replay(bytes: &[u8]) -> LedgerState {
        let mut st = LedgerState::default();
        let mut offset = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Ok(text) = std::str::from_utf8(line) else {
                break;
            };
            let Some(text) = text.strip_suffix('\n') else {
                break;
            };
            match model_parse_line(text) {
                Ok((seq, rec)) if seq == st.next_seq => st.apply(&rec),
                _ => break,
            }
            st.next_seq += 1;
            st.records += 1;
            offset += line.len();
        }
        st.valid_bytes = offset as u64;
        st.tail_dropped = offset < bytes.len();
        st
    }

    /// Model and implementation recover the same state from `bytes`.
    fn assert_same_replay(bytes: &[u8]) -> LedgerState {
        let (real, model) = (LedgerState::replay(bytes), model_replay(bytes));
        assert_eq!(format!("{real:?}"), format!("{model:?}"));
        real
    }

    /// `{body,"sum":"<crc of body>"}`: a line whose checksum holds, so the
    /// parser under it is what decides.
    fn sealed(body: &str) -> String {
        format!("{{{body},\"sum\":\"{:08x}\"}}", crc32(body.as_bytes()))
    }

    /// The members of a rendered line, as text (split at the commas that
    /// stand outside a string).
    fn members_of(line: &str) -> Vec<String> {
        let body = &line[1..line.rfind(",\"sum\":\"").unwrap()];
        let (mut out, mut cur) = (Vec::new(), String::new());
        let (mut quoted, mut escaped) = (false, false);
        for c in body.chars() {
            if c == ',' && !quoted {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            quoted ^= c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            cur.push(c);
        }
        out.push(cur);
        out
    }

    /// `"name":value` → `("\"name\"", "value")`; record keys hold no colon.
    fn split_member(m: &str) -> (&str, &str) {
        m.split_once(':').unwrap()
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Free text that leans on everything a JSON string has to carry,
        /// and on the checksum separator itself.
        fn text() -> impl Strategy<Value = String> {
            let pieces = vec![
                "a",
                "Z9",
                " ",
                "\"",
                "\\",
                "\\\"",
                "/",
                "\n",
                "\r",
                "\t",
                "\u{0}",
                "\u{1}",
                "\u{8}",
                "\u{c}",
                "\u{1f}",
                "\u{7f}",
                "é",
                "漢",
                "🦀",
                ",\"sum\":\"",
                "\"}",
                "{",
                "}",
                "[",
                ":",
                ",",
                "\\u0041",
                "null",
            ];
            proptest::collection::vec(proptest::sample::select(pieces), 0..8)
                .prop_map(|v| v.concat())
        }

        /// Integers at the ends of the range and just past an `f64`'s 53 bits.
        fn int() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..4,
                Just((1 << 53) + 1),
                Just(u64::MAX - 1),
                Just(u64::MAX),
                any::<u64>(),
            ]
        }

        fn record() -> impl Strategy<Value = Record> {
            let key = (int(), int()).prop_map(|(fingerprint, seed)| JobKey { fingerprint, seed });
            (0u8..8, key, text(), (int(), int(), int()), any::<bool>()).prop_map(
                |(kind, key, text, (a, b, c), flag)| match kind {
                    0 => Record::Enqueued { key, spec: text },
                    1 => Record::Deduped { key },
                    2 => Record::Shed { key },
                    3 => Record::Leased {
                        key,
                        attempt: a as u32,
                        worker: b as u32,
                    },
                    4 => Record::Done {
                        key,
                        digest: JobDigest {
                            cycles: a,
                            tasks: b,
                            stats_digest: c,
                            state_key: flag.then_some(text),
                        },
                    },
                    5 => Record::Failed {
                        key,
                        attempt: a as u32,
                        err: text,
                    },
                    6 => Record::Retry {
                        key,
                        attempt: a as u32,
                        delay_ms: b,
                    },
                    _ => Record::Note { text },
                },
            )
        }

        /// Values a mutation puts in a member's place, or adds under an
        /// unknown name: wide and non-integer numbers, the other scalar
        /// types, nested values.
        const VALUES: [&str; 14] = [
            "9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
            "4294967296",
            "1.0",
            "1e3",
            "-1",
            "null",
            "true",
            "\"7\"",
            "\"zz\"",
            "[1,{\"a\":\"b,c\"}]",
            "{\"a\":[],\"a2\":{}}",
            "[",
        ];

        /// One rewrite of a line's member list; the caller reseals it.
        fn mutate(mut m: Vec<String>, op: u8, i: usize, j: usize) -> String {
            let (i, v) = (i % m.len(), VALUES[j % VALUES.len()]);
            match op % 9 {
                0 => m.rotate_left(i),
                1 => m.reverse(),
                2 => {
                    let ws = [" ", "\t", "\n", "\r ", "  "][j % 5];
                    for x in &mut m {
                        let (k, val) = split_member(x);
                        *x = format!("{ws}{k}{ws}:{ws}{val}{ws}");
                    }
                }
                3 => m.push(m[i].clone()),
                4 => m.insert(i, format!("\"zzz\":{v}")),
                5 => m[i] = format!("{}:{v}", split_member(&m[i]).0),
                6 => drop(m.remove(i)),
                7 => m.push(format!("\"key\":{v}")),
                _ => m.retain(|x| split_member(x).0 != "\"key\""),
            }
            sealed(&m.join(","))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every record of every kind, at any sequence number: the
            /// line parses back to itself, through both parsers.
            #[test]
            fn every_record_roundtrips_through_both_parsers(rec in record(), seq in int()) {
                let line = rec.to_line(seq);
                prop_assert_eq!(&members_of(&line).join(","), &line[1..line.rfind(",\"sum\":\"").unwrap()]);
                prop_assert_eq!(Record::parse_line(&line), Ok((seq, rec.clone())));
                prop_assert_eq!(model_parse_line(&line), Ok((seq, rec)));
            }

            /// Mutated lines whose checksum still holds: same `Ok`, or
            /// both `Err`.
            #[test]
            fn mutated_lines_get_the_model_s_verdict(
                rec in record(),
                seq in int(),
                // A record has three members or more: two rewrites leave one.
                ops in proptest::collection::vec((any::<u8>(), 0usize..16, 0usize..64), 1..3),
            ) {
                let mut line = rec.to_line(seq);
                for (op, i, j) in ops {
                    line = mutate(members_of(&line), op, i, j);
                    let (real, model) = (Record::parse_line(&line), model_parse_line(&line));
                    prop_assert_eq!(real.clone().ok(), model.clone().ok(), "{}: {:?} / {:?}", line, real, model);
                    prop_assert_eq!(real.is_err(), model.is_err(), "{}", line);
                }
            }

            /// Arbitrary bytes, and a valid ledger with bytes of it
            /// overwritten: replay never panics and agrees with the model.
            #[test]
            fn replay_is_total_and_agrees_with_the_model(
                noise in proptest::collection::vec(any::<u8>(), 0..200),
                recs in proptest::collection::vec(record(), 0..6),
                hits in proptest::collection::vec((0usize..4096, any::<u8>()), 0..3),
            ) {
                assert_same_replay(&noise);
                let mut image = Vec::new();
                for (seq, rec) in recs.iter().enumerate() {
                    image.extend_from_slice(rec.to_line(seq as u64).as_bytes());
                    image.push(b'\n');
                }
                prop_assert_eq!(assert_same_replay(&image).records, recs.len() as u64);
                for (at, byte) in hits {
                    if !image.is_empty() {
                        let at = at % image.len();
                        image[at] = byte;
                    }
                }
                assert_same_replay(&image);
                image.extend_from_slice(&noise);
                assert_same_replay(&image);
            }

            /// Replay is a left fold over lines: the replay of a prefix cut
            /// at any line boundary, folded on over the whole image, is the
            /// replay of the image. So it stays with a seq gap, a torn tail,
            /// and a byte flipped anywhere, inside the prefix included.
            #[test]
            fn a_continued_fold_is_the_full_replay(
                recs in proptest::collection::vec(record(), 0..6),
                gap in 0usize..8,
                torn in (record(), 0usize..128),
                flip in (any::<bool>(), 0usize..4096, 1u8..255),
            ) {
                let mut image = Vec::new();
                for (i, rec) in recs.iter().enumerate() {
                    let seq = i as u64 + u64::from(i >= gap);
                    image.extend_from_slice(rec.to_line(seq).as_bytes());
                    image.push(b'\n');
                }
                let tail = torn.0.to_line(recs.len() as u64);
                image.extend_from_slice(&tail.as_bytes()[..torn.1 % (tail.len() + 1)]);
                if flip.0 && !image.is_empty() {
                    let at = flip.1 % image.len();
                    image[at] ^= flip.2;
                }
                let whole = format!("{:?}", assert_same_replay(&image));
                for k in 0..=image.len() {
                    if k > 0 && image[k - 1] != b'\n' {
                        continue;
                    }
                    let mut st = LedgerState::replay(&image[..k]);
                    st.fold(&image);
                    prop_assert_eq!(&format!("{st:?}"), &whole, "cut at {}", k);
                }
            }
        }
    }

    /// The shape `campaign-dedup` replays: 500 jobs enqueued, leased and
    /// done, then resume rounds of 500 `deduped` and a reconcile note.
    #[test]
    fn benchmark_shaped_ledger_replays_as_the_model_does() {
        let jobs: Vec<JobKey> = (0..500u64)
            .map(|i| {
                key(
                    0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i / 9 + 1),
                    10_000 + i % 9,
                )
            })
            .collect();
        let mut records = Vec::new();
        for k in &jobs {
            records.push(Record::Enqueued {
                key: *k,
                spec: "bench=Jacobi scale=test mode=raccd ratio=4 warmup=2000".into(),
            });
        }
        for (i, k) in jobs.iter().enumerate() {
            records.push(Record::Leased {
                key: *k,
                attempt: 1,
                worker: i as u32 % 2,
            });
            records.push(Record::Done {
                key: *k,
                digest: JobDigest {
                    cycles: 100_000 + i as u64,
                    tasks: 64,
                    stats_digest: k.fingerprint ^ k.seed,
                    state_key: None,
                },
            });
        }
        for _ in 0..3 {
            records.extend(jobs.iter().map(|k| Record::Deduped { key: *k }));
            records.push(Record::Note {
                text: "reconciled done=500 failed=0 shed=0 dup=0 lost=0 mismatch=0".into(),
            });
        }
        let mut image = Vec::new();
        for (seq, rec) in records.iter().enumerate() {
            image.extend_from_slice(rec.to_line(seq as u64).as_bytes());
            image.push(b'\n');
        }
        let st = assert_same_replay(&image);
        assert_eq!(st.records as usize, records.len());
        assert_eq!((st.jobs.len(), st.dedup_hits), (500, 1500));
        assert!(st.pending(3).is_empty() && !st.tail_dropped);
    }

    /// A write that fails after any number of a record's bytes: the
    /// append is an `Err`, the file ends on the record before it, the
    /// handle takes no more, and a reopen finds every earlier record.
    #[test]
    fn failed_append_is_taken_back_at_every_byte() {
        let dir = std::env::temp_dir().join(format!("raccd-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full-disk.jsonl");
        let recs = sample_records();
        let first: usize = recs[..3]
            .iter()
            .zip(0..)
            .map(|(r, i)| r.to_line(i).len() + 1)
            .sum();
        let torn = recs[3].to_line(3).len() + 1;
        for n in 0..torn {
            let _ = std::fs::remove_file(&path);
            let (mut led, _) = Ledger::open_failing_after(&path, first + n).unwrap();
            for rec in &recs[..3] {
                led.append(rec).unwrap();
            }
            let err = led.append(&recs[3]).expect_err("the disk is full");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                first,
                "cut {n}"
            );
            assert!(
                led.append(&recs[4]).is_err(),
                "a closed ledger appends no more"
            );
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, first);
            drop(led);
            let (mut led, st) = Ledger::open(&path).unwrap();
            assert_eq!((st.records, st.tail_dropped), (3, false));
            assert_eq!(led.append(&recs[3]).unwrap(), 3);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn line_roundtrip_every_kind() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let line = rec.to_line(i as u64);
            let (seq, parsed) = Record::parse_line(&line).expect("parses");
            assert_eq!(seq, i as u64);
            assert_eq!(parsed, rec);
        }
    }

    /// Every integer field of every record kind comes back exactly, at
    /// the ends of its range and just past the 53 bits an `f64` holds.
    #[test]
    fn integer_fields_roundtrip_over_their_whole_range() {
        for n in [0, (1 << 53) + 1, u64::MAX] {
            let small = n.min(u32::MAX as u64) as u32;
            let k = key(n, n);
            let records = [
                Record::Enqueued {
                    key: k,
                    spec: "bench=jacobi".into(),
                },
                Record::Deduped { key: k },
                Record::Shed { key: k },
                Record::Leased {
                    key: k,
                    attempt: small,
                    worker: small,
                },
                Record::Done {
                    key: k,
                    digest: JobDigest {
                        cycles: n,
                        tasks: n,
                        stats_digest: n,
                        state_key: None,
                    },
                },
                Record::Failed {
                    key: k,
                    attempt: small,
                    err: "e".into(),
                },
                Record::Retry {
                    key: k,
                    attempt: small,
                    delay_ms: n,
                },
                Record::Note { text: "n".into() },
            ];
            for rec in records {
                assert_eq!(Record::parse_line(&rec.to_line(n)), Ok((n, rec)));
            }
        }
        // A u32 field that does not fit is a parse error, not a truncation.
        let wide = Record::Retry {
            key: key(1, 1),
            attempt: 7,
            delay_ms: 0,
        }
        .to_line(0)
        .replace("\"attempt\":7", "\"attempt\":4294967296");
        let body = &wide[1..wide.rfind(",\"sum\"").unwrap()];
        let line = format!("{{{body},\"sum\":\"{:08x}\"}}", crc32(body.as_bytes()));
        assert_eq!(
            Record::parse_line(&line),
            Err("`attempt` out of range".to_string())
        );
    }

    /// The line checksum is `raccd_snap::crc32` of the body: a ledger
    /// written by any build replays under any other, so a pinned line
    /// keeps its eight hex digits whatever the CRC's implementation.
    #[test]
    fn pinned_lines_keep_their_sums() {
        let note = Record::Note {
            text: "pinned".into(),
        };
        assert_eq!(
            note.to_line(7),
            r#"{"seq":7,"kind":"note","text":"pinned","sum":"551b5962"}"#
        );
        let leased = Record::Leased {
            key: key(0xabc, 1),
            attempt: 2,
            worker: 1,
        };
        assert_eq!(
            leased.to_line(41),
            r#"{"seq":41,"kind":"leased","fp":"0000000000000abc","seed":1,"attempt":2,"worker":1,"sum":"9a2c107c"}"#
        );
    }

    #[test]
    fn corruption_is_rejected() {
        let line = sample_records()[0].to_line(0);
        // Flip one byte in the body: checksum must catch it.
        let mut flipped = line.clone().into_bytes();
        flipped[10] ^= 0x20;
        assert!(Record::parse_line(std::str::from_utf8(&flipped).unwrap()).is_err());
        // Truncated line: structurally invalid.
        assert!(Record::parse_line(&line[..line.len() - 3]).is_err());
    }

    #[test]
    fn replay_recovers_state_machine() {
        let mut bytes = Vec::new();
        for (i, rec) in sample_records().into_iter().enumerate() {
            bytes.extend_from_slice(rec.to_line(i as u64).as_bytes());
            bytes.push(b'\n');
        }
        let st = LedgerState::replay(&bytes);
        assert_eq!(st.records, 10);
        assert!(!st.tail_dropped);
        assert_eq!(st.dedup_hits, 1);
        let done = &st.jobs[&key(0xabc, 1)];
        assert!(matches!(done.status, JobStatus::Done(_)));
        assert_eq!(done.attempts, 2);
        assert_eq!(done.done_records, 1);
        assert_eq!(st.jobs[&key(0xabc, 2)].status, JobStatus::Queued);
        assert_eq!(st.jobs[&key(0xdef, 9)].status, JobStatus::Shed);
        assert_eq!(st.pending(3), vec![key(0xabc, 2)]);
    }

    #[test]
    fn replay_stops_at_seq_discontinuity() {
        let a = Record::Note { text: "a".into() }.to_line(0);
        let skip = Record::Note { text: "b".into() }.to_line(2); // gap
        let bytes = format!("{a}\n{skip}\n");
        let st = LedgerState::replay(bytes.as_bytes());
        assert_eq!(st.records, 1);
        assert!(st.tail_dropped);
        assert_eq!(st.valid_bytes as usize, a.len() + 1);
    }

    #[test]
    fn open_truncates_torn_tail_and_resumes_seq() {
        let dir = std::env::temp_dir().join(format!("raccd-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (mut led, st) = Ledger::open(&path).unwrap();
            assert_eq!(st.next_seq, 0);
            led.append(&Record::Note { text: "one".into() }).unwrap();
            led.append(&Record::Note { text: "two".into() }).unwrap();
        }
        // Simulate a crash mid-write: append half a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"seq\":2,\"kind\":\"note\",\"te").unwrap();
        }
        let (mut led, st) = Ledger::open(&path).unwrap();
        assert_eq!(st.records, 2);
        assert!(st.tail_dropped);
        assert_eq!(led.next_seq(), 2);
        led.append(&Record::Note {
            text: "three".into(),
        })
        .unwrap();
        drop(led);
        let (_, st) = Ledger::open(&path).unwrap();
        assert_eq!(st.records, 3);
        assert!(!st.tail_dropped);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_open_is_refused_stale_lock_reclaimed() {
        let dir = std::env::temp_dir().join(format!("raccd-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("locked.jsonl");
        let lock_path = dir.join("locked.jsonl.lock");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&lock_path);

        // Simulate a *live* foreign holder (PID 1 is always alive).
        std::fs::write(&lock_path, b"1").unwrap();
        let err = Ledger::open(&path).err().expect("live lock must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);

        // A dead holder's lock is stale: reclaimed silently. (A huge PID
        // is a safe stand-in for a dead process.)
        std::fs::write(&lock_path, b"4294967294").unwrap();
        let (led, _) = Ledger::open(&path).unwrap();

        // While held, a second open in this process is refused too…
        let err = Ledger::open(&path).err().expect("held lock must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);

        // …and dropping the ledger releases the lock.
        drop(led);
        assert!(!lock_path.exists());
        let _ = Ledger::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
