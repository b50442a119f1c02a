//! The campaign orchestrator: ledger-backed admission, pooled execution,
//! retries, and reconciliation.
//!
//! A [`Campaign`] drives batches of [`JobSpec`]s to completion:
//!
//! 1. **Admission** ([`Campaign::submit`]): each seeded job is
//!    fingerprinted and checked against everything the ledger already
//!    knows. Known keys dedup (a completed job's cached digest is the
//!    result — it is never re-executed); new keys are admitted up to the
//!    `queue_cap` backpressure bound and deterministically *shed* beyond
//!    it. Every decision is a durable ledger record before it takes
//!    effect.
//! 2. **Execution** ([`Campaign::run`]): admitted jobs are leased to the
//!    worker pool seed-major, so the workers start on different
//!    configurations. A job warm-starts from the shared [`SnapshotPool`]
//!    when its spec has a warm-up phase; with no fault plane attached,
//!    every seed of a configuration is the same simulation, so the pool
//!    runs it once per process and answers the other seeds' attempts
//!    with its digest.
//!    Failures (fault detection, per-job timeout, worker panic) burn one
//!    attempt; attempts below the retry budget are requeued after a
//!    bounded-exponential backoff, the rest become terminal `failed`
//!    records.
//! 3. **Reconciliation** ([`Campaign::reconcile`]): the ledger file is
//!    re-read from disk, its replay continued over what was appended
//!    since the last one, and compared against the in-memory result
//!    cache — at most one `done` per key, no admitted key unaccounted.
//!
//! Crash safety falls out of the record ordering: results exist only as
//! `done` records, so a `kill -9` anywhere leaves each job either
//! completed-with-result or recoverable-as-queued. [`Campaign::open`] on
//! the survivor ledger resumes with zero duplicated and zero lost work.
//! A ledger append that fails (a full disk) is the same crash, met in
//! person: memory changes only after its record is written, the failure
//! closes the ledger and stops the pool, and [`Campaign::run`] returns it.

use crate::ledger::{JobDigest, JobStatus, Ledger, LedgerState, Record};
use crate::pool::{panic_message, CancelToken, PoolCtx, PoolTask, WorkerPool};
use crate::snappool::{SnapPoolStats, SnapshotPool};
use crate::spec::{JobKey, JobSpec};
use crate::stats_digest;
use raccd_core::Driver;
use raccd_fault::{Backoff, FaultPlan, Watchdog};
use raccd_obs::json::Obj;
use raccd_obs::{CampaignAction, Event};
use raccd_workloads::all_benchmarks;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Tunables of one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Backpressure bound: maximum jobs admitted but not yet terminal.
    /// Submissions beyond it are deterministically shed.
    pub queue_cap: usize,
    /// Maximum execution attempts per job (1 = no retries).
    pub retry_budget: u32,
    /// Campaign-level retry backoff, in **milliseconds** (host time).
    pub backoff: Backoff,
    /// Per-job no-progress timeout in host milliseconds (0 = disabled).
    /// A job whose driver retires no task for this long is aborted.
    pub timeout_ms: u64,
    /// Supervision slice in simulated cycles: how often a running job
    /// polls for cancellation / timeout.
    pub slice: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 1024,
            retry_budget: 3,
            backoff: Backoff { base: 2, cap: 50 },
            timeout_ms: 0,
            slice: 50_000,
        }
    }
}

/// Outcome counters of one [`Campaign::submit`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitSummary {
    /// Jobs admitted to the queue.
    pub admitted: u64,
    /// Jobs whose key the campaign already knew (cache/queue hit).
    pub deduped: u64,
    /// Jobs rejected by backpressure.
    pub shed: u64,
}

/// In-memory mirror of the ledger's job state (the ledger is the truth;
/// this is the fast path).
#[derive(Default)]
struct CampState {
    /// Configuration per fingerprint (for scheduling and resume).
    specs: BTreeMap<u64, JobSpec>,
    /// Today's fingerprint of a replayed spec → the fingerprint the ledger
    /// knows it by, where the two differ: an older build fingerprinted
    /// the line with `engine=parallel:<n>` in it, which names the same
    /// work as `engine=serial` now that there is one event loop.
    legacy_fp: BTreeMap<u64, u64>,
    /// Last-known status per key.
    status: BTreeMap<JobKey, JobStatus>,
    /// Attempts started per key (survives resume).
    attempts: BTreeMap<JobKey, u32>,
    /// Admitted-but-not-terminal count (the backpressure gauge).
    pending: u64,
    dedup_hits: u64,
    shed: u64,
    /// Execution attempts leased by *this process*.
    executions: u64,
    retries: u64,
}

struct Inner {
    config: CampaignConfig,
    ledger: Mutex<Ledger>,
    pool: WorkerPool,
    snaps: SnapshotPool,
    state: Mutex<CampState>,
    events: Mutex<Vec<Event>>,
    start: Instant,
}

/// A crash-safe simulation campaign over one ledger file.
pub struct Campaign {
    inner: Arc<Inner>,
}

impl Inner {
    fn state(&self) -> MutexGuard<'_, CampState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append a ledger record. A failure closes the ledger for good (see
    /// [`Ledger::append`]); the error names the record.
    fn append(&self, rec: &Record) -> io::Result<u64> {
        self.ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(rec)
    }

    fn emit(&self, action: CampaignAction, key: JobKey) {
        let queue_depth = self.state().pending as u32;
        let ev = Event::Campaign {
            cycle: self.start.elapsed().as_millis() as u64,
            action,
            fingerprint: key.fingerprint,
            seed: key.seed,
            queue_depth,
        };
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ev);
    }
}

impl Campaign {
    /// Open (or resume) the campaign whose ledger lives at `path`. A
    /// pre-existing ledger is replayed: completed jobs load the result
    /// cache, mid-flight and queued jobs become pending again, and
    /// attempt counts carry over so retry budgets keep their meaning
    /// across the crash.
    pub fn open(path: &Path, config: CampaignConfig) -> io::Result<Campaign> {
        Campaign::resume(Ledger::open(path)?, config)
    }

    fn resume(opened: (Ledger, LedgerState), config: CampaignConfig) -> io::Result<Campaign> {
        let (ledger, replayed) = opened;
        let mut st = CampState {
            dedup_hits: replayed.dedup_hits,
            ..CampState::default()
        };
        for (fp, canonical) in &replayed.specs {
            let spec = JobSpec::parse(canonical)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let today = spec.fingerprint();
            if today != *fp && !replayed.specs.contains_key(&today) {
                st.legacy_fp.insert(today, *fp);
            }
            st.specs.insert(*fp, spec);
        }
        for (key, job) in &replayed.jobs {
            let status = match &job.status {
                // A non-terminal failure's requeue record died with the
                // tail: it is pending again, attempts preserved.
                JobStatus::Failed { .. } if job.attempts < config.retry_budget.max(1) => {
                    JobStatus::Queued
                }
                other => other.clone(),
            };
            if matches!(status, JobStatus::Queued) {
                st.pending += 1;
            }
            if matches!(status, JobStatus::Shed) {
                st.shed += 1;
            }
            st.attempts.insert(*key, job.attempts);
            st.status.insert(*key, status);
        }
        let inner = Arc::new(Inner {
            pool: WorkerPool::new(config.workers, config.queue_cap.max(1)),
            config,
            ledger: Mutex::new(ledger),
            snaps: SnapshotPool::default(),
            state: Mutex::new(st),
            events: Mutex::new(Vec::new()),
            start: Instant::now(),
        });
        Ok(Campaign { inner })
    }

    /// Submit a batch: dedup against everything the ledger knows, admit
    /// up to the backpressure bound, shed the rest. Each decision is
    /// durable before this returns.
    ///
    /// A spec the campaign cannot run (an unknown bench, a fault plan or a
    /// field that does not parse) is refused with `InvalidInput` before
    /// any record is written.
    pub fn submit(&self, spec: &JobSpec) -> io::Result<SubmitSummary> {
        let invalid = |e| io::Error::new(io::ErrorKind::InvalidInput, e);
        spec.bench_idx().map_err(invalid)?;
        let canonical = spec.canonical();
        let mut out = SubmitSummary::default();
        for mut key in spec.keys() {
            let mut st = self.inner.state();
            if let Some(&known) = st.legacy_fp.get(&key.fingerprint) {
                key.fingerprint = known;
            }
            // Every key shares the fingerprint, so only the first can be
            // new. `canonical` keeps a fault plan that does not parse
            // verbatim; parsing the line back refuses it with its error.
            if let Entry::Vacant(slot) = st.specs.entry(key.fingerprint) {
                slot.insert(JobSpec::parse(&canonical).map_err(invalid)?);
            }
            if st.status.contains_key(&key) {
                self.inner.append(&Record::Deduped { key })?;
                st.dedup_hits += 1;
                drop(st);
                self.inner.emit(CampaignAction::Dedup, key);
                out.deduped += 1;
            } else if st.pending >= self.inner.config.queue_cap as u64 {
                self.inner.append(&Record::Shed { key })?;
                st.status.insert(key, JobStatus::Shed);
                st.shed += 1;
                drop(st);
                self.inner.emit(CampaignAction::Shed, key);
                out.shed += 1;
            } else {
                self.inner.append(&Record::Enqueued {
                    key,
                    spec: canonical.clone(),
                })?;
                st.status.insert(key, JobStatus::Queued);
                st.pending += 1;
                drop(st);
                self.inner.emit(CampaignAction::Enqueue, key);
                out.admitted += 1;
            }
        }
        Ok(out)
    }

    /// Execute every pending job to a terminal state (done, or failed
    /// with the retry budget spent), then reconcile ledger against
    /// results and return the campaign report.
    pub fn run(&self) -> io::Result<CampaignReport> {
        let mut queued: Vec<(JobKey, u32)> = {
            let st = self.inner.state();
            st.status
                .iter()
                .filter(|(_, s)| matches!(s, JobStatus::Queued))
                .map(|(k, _)| (*k, st.attempts.get(k).copied().unwrap_or(0) + 1))
                .collect()
        };
        // Seed-major: concurrent workers start on different configurations,
        // and a configuration's later seeds find its run pooled.
        queued.sort_unstable_by_key(|(k, _)| (k.seed, k.fingerprint));
        for (key, attempt) in queued {
            schedule(&self.inner, key, attempt);
        }
        self.inner.pool.drain();
        // `run_one` catches job panics itself; anything surfacing here
        // escaped the per-job boundary (bookkeeping bugs). A worker's
        // failed append closed the ledger: the note or the `sync` reports it.
        for (label, msg) in self.inner.pool.take_panics() {
            self.inner.append(&Record::Note {
                text: format!("worker panic [{label}]: {msg}"),
            })?;
        }
        self.inner
            .ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sync()?;
        let reconcile = self.reconcile()?;
        Ok(self.report(reconcile))
    }

    /// Cooperatively cancel: queued leases are dropped, running jobs
    /// abort at their next supervision slice. Cancelled work writes no
    /// terminal record — exactly like a crash, it resumes as queued.
    pub fn cancel(&self) {
        self.inner.pool.cancel();
    }

    /// Replay the ledger from disk (every byte read and compared, only the
    /// records appended since the last replay parsed) and prove it
    /// consistent with the in-memory result cache.
    pub fn reconcile(&self) -> io::Result<ReconcileReport> {
        let (replay, replayed) = self
            .inner
            .ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .replay_file()?;
        let mut rep = ReconcileReport {
            replayed,
            ..ReconcileReport::default()
        };
        {
            let st = self.inner.state();
            for (key, job) in &replay.jobs {
                match &job.status {
                    JobStatus::Done(digest) => {
                        rep.done += 1;
                        if job.done_records > 1 {
                            rep.duplicate_completions += 1;
                        }
                        match st.status.get(key) {
                            Some(JobStatus::Done(d)) if d == digest => {}
                            _ => rep.mismatches += 1,
                        }
                    }
                    JobStatus::Queued => rep.lost_jobs += 1,
                    JobStatus::Failed { .. } => rep.failed += 1,
                    JobStatus::Shed => rep.shed += 1,
                }
            }
            for (key, status) in &st.status {
                if matches!(status, JobStatus::Done(_)) && !replay.jobs.contains_key(key) {
                    rep.mismatches += 1;
                }
            }
        }
        rep.consistent =
            rep.duplicate_completions == 0 && rep.lost_jobs == 0 && rep.mismatches == 0;
        self.inner.append(&Record::Note {
            text: format!(
                "reconciled done={} failed={} shed={} dup={} lost={} mismatch={}",
                rep.done,
                rep.failed,
                rep.shed,
                rep.duplicate_completions,
                rep.lost_jobs,
                rep.mismatches
            ),
        })?;
        Ok(rep)
    }

    fn report(&self, reconcile: ReconcileReport) -> CampaignReport {
        let st = self.inner.state();
        let snaps = self.inner.snaps.stats();
        let mut done = 0;
        let mut failed = 0;
        for s in st.status.values() {
            match s {
                JobStatus::Done(_) => done += 1,
                JobStatus::Failed { .. } => failed += 1,
                _ => {}
            }
        }
        CampaignReport {
            jobs: st.status.len() as u64,
            done,
            failed,
            shed: st.shed,
            dedup_hits: st.dedup_hits,
            executions: st.executions,
            retries: st.retries,
            snap: snaps,
            elapsed_ms: self.inner.start.elapsed().as_millis() as u64,
            reconcile,
        }
    }

    /// The cached result digests, in key order.
    pub fn results(&self) -> Vec<(JobKey, JobDigest)> {
        self.inner
            .state()
            .status
            .iter()
            .filter_map(|(k, s)| match s {
                JobStatus::Done(d) => Some((*k, d.clone())),
                _ => None,
            })
            .collect()
    }

    /// Terminal failures, in key order.
    pub fn failures(&self) -> Vec<(JobKey, String)> {
        self.inner
            .state()
            .status
            .iter()
            .filter_map(|(k, s)| match s {
                JobStatus::Failed { err } => Some((*k, err.clone())),
                _ => None,
            })
            .collect()
    }

    /// The campaign lifecycle event stream recorded so far (feed to
    /// [`raccd_obs::write_events_jsonl`] /
    /// [`raccd_obs::write_campaign_depth_csv`]).
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Lease `key` to the pool for execution attempt `attempt`.
fn schedule(inner: &Arc<Inner>, key: JobKey, attempt: u32) {
    let captured = Arc::clone(inner);
    // Past the admission gate, scheduling bypasses the pool's own bound:
    // the in-flight volume is already capped at `queue_cap × retry_budget`.
    inner.pool.submit_unbounded(PoolTask {
        label: format!("campaign {}", key.label()),
        run: Box::new(move |ctx| {
            // A failed append closed the ledger, and `Campaign::run` will
            // say so; workers have no error channel, they stop leasing.
            if run_one(&captured, ctx, key, attempt).is_err() {
                captured.pool.cancel();
            }
        }),
    });
}

/// One execution attempt, on a worker thread: lease → run → done/retry.
/// Each record is written before memory learns of it; `Err` is a failed
/// ledger append, after which nothing more is recorded.
fn run_one(inner: &Arc<Inner>, ctx: &PoolCtx, key: JobKey, attempt: u32) -> io::Result<()> {
    if ctx.cancel.cancelled() {
        return Ok(()); // lease never taken; resumes as queued
    }
    let spec = inner.state().specs.get(&key.fingerprint).cloned();
    let Some(spec) = spec else {
        let text = format!("no spec for {}", key.label());
        return inner.append(&Record::Note { text }).map(drop);
    };
    inner.append(&Record::Leased {
        key,
        attempt,
        worker: ctx.worker,
    })?;
    {
        let mut st = inner.state();
        st.executions += 1;
        st.attempts.insert(key, attempt);
    }
    inner.emit(CampaignAction::Lease, key);

    let result = catch_unwind(AssertUnwindSafe(|| {
        execute_job(inner, &spec, key.seed, &ctx.cancel)
    }))
    .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(&*p))));

    match result {
        Ok(digest) => {
            let status = JobStatus::Done(digest.clone());
            inner.append(&Record::Done { key, digest })?;
            {
                let mut st = inner.state();
                st.status.insert(key, status);
                st.pending -= 1;
            }
            inner.emit(CampaignAction::Complete, key);
        }
        // Cancellation is crash-shaped on purpose: no terminal record,
        // the dangling lease recovers to queued on resume.
        Err(e) if e == "cancelled" => {}
        Err(err) => {
            inner.append(&Record::Failed {
                key,
                attempt,
                err: err.clone(),
            })?;
            if attempt < inner.config.retry_budget {
                let delay_ms = inner.config.backoff.delay(attempt);
                if delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                inner.append(&Record::Retry {
                    key,
                    attempt: attempt + 1,
                    delay_ms,
                })?;
                inner.state().retries += 1;
                inner.emit(CampaignAction::Retry, key);
                schedule(inner, key, attempt + 1);
            } else {
                {
                    let mut st = inner.state();
                    st.status.insert(key, JobStatus::Failed { err });
                    st.pending -= 1;
                }
                inner.emit(CampaignAction::Fail, key);
            }
        }
    }
    Ok(())
}

/// The seed a job's fault plane is reseeded with, `None` when no plane is
/// attached, by the spec's `plan` or by `RACCD_FAULT_SPEC` (as
/// `Machine::fault_plan` would report). This is the one place a job's seed
/// reaches its run.
fn reseed(plan: Option<FaultPlan>, seed: u64) -> Option<u64> {
    plan.or_else(FaultPlan::forced_from_env).map(|_| seed)
}

/// Execute one seeded job under campaign supervision. A seed acts only
/// through [`reseed`], so when that is `None` every seed is the same run:
/// the pool runs it once, cold, and shares its digest. Otherwise a spec
/// with a warm-up phase starts from the shared pool's image, the prefix
/// its seeds have in common.
fn execute_job(
    inner: &Inner,
    spec: &JobSpec,
    seed: u64,
    cancel: &CancelToken,
) -> Result<JobDigest, String> {
    let fingerprint = spec.fingerprint();
    let plan = spec.fault_plan();
    let reseed = reseed(plan, seed);
    let run = || {
        let idx = spec.bench_idx()?;
        let scale = spec.scale;
        let cfg = spec.machine_config();
        let mode = spec.mode;
        let build = move || all_benchmarks(scale)[idx].build();
        let driver = if spec.warmup > 0 && reseed.is_some() {
            let warmup = spec.warmup;
            let snap = inner.snaps.get_or_build(fingerprint, || {
                let mut warm = Driver::new(cfg, mode, build(), plan, None);
                warm.run_until(warmup, None);
                warm.snapshot()
            });
            Driver::restore(cfg, mode, build(), &snap).map_err(|e| format!("restore: {e:?}"))?
        } else {
            Driver::new(cfg, mode, build(), plan, None)
        };
        finish_supervised(
            driver,
            reseed,
            inner.config.slice,
            inner.config.timeout_ms,
            Some(cancel),
        )
    };
    match reseed {
        Some(_) => run(),
        None => inner.snaps.get_or_run(fingerprint, run),
    }
}

/// Shared tail of the warm and cold execution paths: reseed the fault
/// plane, if [`reseed`] gave a seed, at the warm-up boundary (the
/// convention `campaign_differential` proves bit-identical between
/// restored and cold drivers) and run to the end
/// under supervision: between slices of at most `slice` heap cycles the
/// cancel token and the per-job progress watchdog are polled on the
/// simulating thread. An abort stops the driver at a slice boundary and
/// drops it whole — mid-program it cannot be torn down into output — so
/// an aborted attempt yields nothing, exactly like a crash at that point.
fn finish_supervised(
    mut driver: Driver,
    reseed: Option<u64>,
    slice: u64,
    timeout_ms: u64,
    cancel: Option<&CancelToken>,
) -> Result<JobDigest, String> {
    if let Some(seed) = reseed {
        driver.reseed_faults(seed);
    }
    let started = Instant::now();
    let mut watchdog = (timeout_ms > 0).then(|| Watchdog::new(timeout_ms));
    let mut last_done = 0usize;
    while let Some(t) = driver.next_time() {
        if !driver.run_until(t.saturating_add(slice.max(1)), None) {
            break;
        }
        if cancel.is_some_and(CancelToken::cancelled) {
            return Err("cancelled".into());
        }
        if let Some(w) = watchdog.as_mut() {
            let now = started.elapsed().as_millis() as u64;
            let done = driver.completed_tasks();
            if done > last_done {
                last_done = done;
                w.note_progress(now);
            }
            if w.expired(now) {
                return Err(format!("timeout: no task retired within {timeout_ms}ms"));
            }
        }
    }
    let state_key = driver.shadow_state_key();
    let out = driver.finish(None);
    if let Some(d) = out.fault.as_ref().and_then(|f| f.detected) {
        return Err(format!("detected: {d:?}"));
    }
    Ok(JobDigest {
        cycles: out.stats.cycles,
        tasks: out.stats.tasks_executed,
        stats_digest: stats_digest(&out.stats),
        state_key,
    })
}

/// The serial oracle for the differential suite: execute `(spec, seed)`
/// cold (no snapshot pool) with no pool, no ledger, no timeout. Campaign
/// results must be bit-identical to this.
pub fn execute_job_direct(spec: &JobSpec, seed: u64) -> Result<JobDigest, String> {
    let idx = spec.bench_idx()?;
    let cfg = spec.machine_config();
    let plan = spec.fault_plan();
    let build = all_benchmarks(spec.scale)[idx].build();
    let mut driver = Driver::new(cfg, spec.mode, build, plan, None);
    if spec.warmup > 0 {
        driver.run_until(spec.warmup, None);
    }
    finish_supervised(driver, reseed(plan, seed), u64::MAX, 0, None)
}

/// Ledger-versus-results consistency proof (see [`Campaign::reconcile`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Jobs the ledger shows completed.
    pub done: u64,
    /// Jobs the ledger shows terminally failed.
    pub failed: u64,
    /// Jobs the ledger shows shed.
    pub shed: u64,
    /// Keys with more than one `done` record (must be 0).
    pub duplicate_completions: u64,
    /// Admitted keys still non-terminal in the ledger (must be 0 after a
    /// completed run; non-zero means work remains, e.g. after `cancel`).
    pub lost_jobs: u64,
    /// Ledger/memory digest disagreements (must be 0).
    pub mismatches: u64,
    /// All invariants held.
    pub consistent: bool,
    /// Records this reconcile parsed rather than carried over from the
    /// last replay of the same ledger handle.
    pub replayed: u64,
}

/// End-of-run campaign summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// Distinct job keys the campaign knows (done + failed + shed + pending).
    pub jobs: u64,
    /// Completed jobs with cached digests.
    pub done: u64,
    /// Terminal failures.
    pub failed: u64,
    /// Jobs shed by backpressure.
    pub shed: u64,
    /// Submissions answered from the cache/queue.
    pub dedup_hits: u64,
    /// Execution attempts this process leased. `snap.shared` of them were
    /// answered from the pool; the rest ran the driver.
    pub executions: u64,
    /// Campaign-level retries performed.
    pub retries: u64,
    /// Shared-pool counters: image hits and misses, and shared runs.
    pub snap: SnapPoolStats,
    /// Host wall-clock since [`Campaign::open`], in milliseconds.
    pub elapsed_ms: u64,
    /// The reconciliation verdict.
    pub reconcile: ReconcileReport,
}

impl CampaignReport {
    /// Render as a single JSON object (the campaign bin's report file).
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("jobs", self.jobs)
            .u64("done", self.done)
            .u64("failed", self.failed)
            .u64("shed", self.shed)
            .u64("dedup_hits", self.dedup_hits)
            .u64("executions", self.executions)
            .u64("shared", self.snap.shared)
            .u64("retries", self.retries)
            .u64("snap_hits", self.snap.hits)
            .u64("snap_misses", self.snap.misses)
            .u64("elapsed_ms", self.elapsed_ms)
            .u64(
                "duplicate_completions",
                self.reconcile.duplicate_completions,
            )
            .u64("lost_jobs", self.reconcile.lost_jobs)
            .u64("mismatches", self.reconcile.mismatches)
            .bool("consistent", self.reconcile.consistent)
            .u64("replayed", self.reconcile.replayed)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_core::CoherenceMode;
    use raccd_workloads::Scale;

    /// An attempt that fails pools nothing: the next seed of the same
    /// fault-free configuration runs the driver, and only after its success
    /// are later seeds answered from the pool.
    #[test]
    fn a_failed_attempt_is_not_pooled() {
        let dir = std::env::temp_dir().join(format!("raccd-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = CampaignConfig {
            workers: 1,
            slice: 1,
            ..CampaignConfig::default()
        };
        let camp = Campaign::open(&dir.join("unpooled.jsonl"), config).unwrap();
        let spec = JobSpec::new("Jacobi", Scale::Test, CoherenceMode::Raccd);
        let inner = &camp.inner;
        let cancelled = CancelToken::default();
        cancelled.cancel();
        let live = CancelToken::default();
        let shared = || inner.snaps.stats().shared;
        assert_eq!(
            execute_job(inner, &spec, 1, &cancelled),
            Err("cancelled".into())
        );
        let second = execute_job(inner, &spec, 2, &live).unwrap();
        assert_eq!(second, execute_job_direct(&spec, 2).unwrap());
        assert_eq!(shared(), 0, "the failed attempt pooled a run");
        let third = execute_job(inner, &spec, 3, &cancelled);
        let sharing = FaultPlan::forced_from_env().is_none();
        assert_eq!(third.is_ok(), sharing, "{third:?}");
        assert_eq!(shared(), u64::from(sharing));
    }

    /// A disk that fills up at any byte of any record of a two-job run:
    /// `run` (or the `submit` before it) returns the error naming the
    /// record, the file ends on a record, and rerunning on the same ledger
    /// finishes with nothing lost and nothing executed twice.
    #[test]
    fn a_failed_append_at_every_byte_is_a_typed_resumable_error() {
        let dir = std::env::temp_dir().join(format!("raccd-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full-disk.jsonl");
        let config = CampaignConfig {
            workers: 1,
            ..CampaignConfig::default()
        };
        let mut spec = JobSpec::new("MD5", Scale::Test, CoherenceMode::Raccd);
        spec.seed_hi = 2;
        // What one attempt leaves behind: `Err` with the ledger's bytes, or
        // the report of a run that got through.
        let attempt = |budget: Option<usize>| -> Result<CampaignReport, (io::Error, Vec<u8>)> {
            let opened = match budget {
                Some(n) => Ledger::open_failing_after(&path, n),
                None => Ledger::open(&path),
            };
            let camp = Campaign::resume(opened.unwrap(), config.clone()).unwrap();
            let report = camp.submit(&spec).and_then(|_| camp.run());
            drop(camp);
            report.map_err(|e| (e, std::fs::read(&path).unwrap()))
        };

        let _ = std::fs::remove_file(&path);
        let clean = attempt(None).expect("an unfailing disk");
        assert_eq!((clean.done, clean.executions), (2, 2));
        let image = std::fs::read(&path).unwrap();
        // enqueued ×2, (leased, done) ×2, the reconcile note.
        assert_eq!(LedgerState::replay(&image).records, 7);

        for budget in 0..image.len() {
            std::fs::remove_file(&path).unwrap();
            let (err, left) = attempt(Some(budget)).expect_err("the disk is full");
            assert_eq!(
                err.kind(),
                io::ErrorKind::StorageFull,
                "cut {budget}: {err}"
            );
            assert!(err.to_string().contains("ledger append of `"), "{err}");
            // The file holds whole records only: all that fit the budget.
            let kept = LedgerState::replay(&left);
            assert!(!kept.tail_dropped && left.len() <= budget, "cut {budget}");
            assert_eq!(left, image[..left.len()], "cut {budget}");
            let next = image[left.len()..].iter().position(|&b| b == b'\n');
            assert!(left.len() + next.unwrap() + 1 > budget, "cut {budget}");

            let done_before = kept.jobs.values().filter(|j| j.done_records > 0).count() as u64;
            let resumed = attempt(None).expect("the rerun has room");
            assert!(
                resumed.reconcile.consistent,
                "cut {budget}: {}",
                resumed.to_json()
            );
            assert_eq!((resumed.jobs, resumed.done), (2, 2), "cut {budget}");
            assert_eq!(resumed.executions, 2 - done_before, "cut {budget}");
        }
        std::fs::remove_file(&path).ok();
    }
}
