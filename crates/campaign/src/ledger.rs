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
//! them behind a mutex), are flushed per record, and carry strictly
//! increasing sequence numbers — a seq discontinuity ends replay just
//! like a checksum failure.

use crate::spec::JobKey;
use raccd_obs::json::{self, Obj, Value};
use raccd_snap::crc32;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
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
    /// Shadow-checker canonical state key, when a checker was attached.
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

    /// Render the record body (no `sum`, no braces) in stable key order.
    fn body(&self, seq: u64) -> String {
        let base = |o: Obj, key: &JobKey| {
            o.str("fp", &format!("{:016x}", key.fingerprint))
                .u64("seed", key.seed)
        };
        let o = Obj::new().u64("seq", seq).str("kind", self.kind());
        let o = match self {
            Record::Enqueued { key, spec } => base(o, key).str("spec", spec),
            Record::Deduped { key } | Record::Shed { key } => base(o, key),
            Record::Leased {
                key,
                attempt,
                worker,
            } => base(o, key)
                .u64("attempt", *attempt as u64)
                .u64("worker", *worker as u64),
            Record::Done { key, digest } => {
                let o = base(o, key)
                    .u64("cycles", digest.cycles)
                    .u64("tasks", digest.tasks)
                    .str("digest", &format!("{:016x}", digest.stats_digest));
                match &digest.state_key {
                    Some(k) => o.str("key", k),
                    None => o.raw("key", "null"),
                }
            }
            Record::Failed { key, attempt, err } => {
                base(o, key).u64("attempt", *attempt as u64).str("err", err)
            }
            Record::Retry {
                key,
                attempt,
                delay_ms,
            } => base(o, key)
                .u64("attempt", *attempt as u64)
                .u64("delay_ms", *delay_ms),
            Record::Note { text } => o.str("text", text),
        };
        // Obj renders `{…}`; the checksum covers the inner body.
        let s = o.render();
        s[1..s.len() - 1].to_string()
    }

    /// Render one durable ledger line (no trailing newline).
    pub fn to_line(&self, seq: u64) -> String {
        let body = self.body(seq);
        format!("{{{body},\"sum\":\"{:08x}\"}}", crc32(body.as_bytes()))
    }

    /// Parse and verify one ledger line. `Err` distinguishes corruption
    /// (checksum/format) for the caller's replay-stop decision.
    pub fn parse_line(line: &str) -> Result<(u64, Record), String> {
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
        let seq = field_u64(&v, "seq")?;
        let kind = field_str(&v, "kind")?;
        let key = || -> Result<JobKey, String> {
            Ok(JobKey {
                fingerprint: u64::from_str_radix(&field_str(&v, "fp")?, 16)
                    .map_err(|_| "bad fp hex".to_string())?,
                seed: field_u64(&v, "seed")?,
            })
        };
        let rec = match kind.as_str() {
            "enqueued" => Record::Enqueued {
                key: key()?,
                spec: field_str(&v, "spec")?,
            },
            "deduped" => Record::Deduped { key: key()? },
            "shed" => Record::Shed { key: key()? },
            "leased" => Record::Leased {
                key: key()?,
                attempt: field_u32(&v, "attempt")?,
                worker: field_u32(&v, "worker")?,
            },
            "done" => Record::Done {
                key: key()?,
                digest: JobDigest {
                    cycles: field_u64(&v, "cycles")?,
                    tasks: field_u64(&v, "tasks")?,
                    stats_digest: u64::from_str_radix(&field_str(&v, "digest")?, 16)
                        .map_err(|_| "bad digest hex".to_string())?,
                    state_key: v.get("key").and_then(Value::as_str).map(str::to_string),
                },
            },
            "failed" => Record::Failed {
                key: key()?,
                attempt: field_u32(&v, "attempt")?,
                err: field_str(&v, "err")?,
            },
            "retry" => Record::Retry {
                key: key()?,
                attempt: field_u32(&v, "attempt")?,
                delay_ms: field_u64(&v, "delay_ms")?,
            },
            "note" => Record::Note {
                text: field_str(&v, "text")?,
            },
            other => return Err(format!("unknown record kind `{other}`")),
        };
        Ok((seq, rec))
    }
}

/// An integer field, exact over the whole `u64` range (seeds and cycle
/// counts above 2^53 must come back as they were written).
fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing/non-integer `{key}`"))
}

fn field_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(v, key)?).map_err(|_| format!("`{key}` out of range"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/non-string `{key}`"))
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
#[derive(Debug, Default)]
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
        let mut offset = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let complete = line.ends_with(b"\n");
            let text = match std::str::from_utf8(line) {
                Ok(t) => t.trim_end_matches('\n'),
                Err(_) => break,
            };
            if !complete {
                break; // torn final line: no newline commit
            }
            let Ok((seq, rec)) = Record::parse_line(text) else {
                break;
            };
            if seq != st.next_seq {
                break; // discontinuity: treat like corruption
            }
            st.apply(&rec);
            st.next_seq = seq + 1;
            st.records += 1;
            offset += line.len();
        }
        st.valid_bytes = offset as u64;
        st.tail_dropped = offset < bytes.len();
        st
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

/// An open, append-only ledger file.
pub struct Ledger {
    file: File,
    path: PathBuf,
    next_seq: u64,
    _lock: LockGuard,
}

impl Ledger {
    /// Open (creating if missing) and recover: replays the file, truncates
    /// any torn tail, and positions appends after the valid prefix. Fails
    /// with [`std::io::ErrorKind::WouldBlock`] if another live process
    /// holds the ledger.
    pub fn open(path: &Path) -> std::io::Result<(Ledger, LedgerState)> {
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
        file.seek(std::io::SeekFrom::End(0))?;
        let ledger = Ledger {
            file,
            path: path.to_path_buf(),
            next_seq: state.next_seq,
            _lock: lock,
        };
        Ok((ledger, state))
    }

    /// Append one record durably (flushed before return).
    pub fn append(&mut self, rec: &Record) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let line = rec.to_line(seq);
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Force the file contents to stable storage (used at campaign
    /// milestones; per-record appends are flush-only for throughput).
    pub fn sync(&mut self) -> std::io::Result<()> {
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
