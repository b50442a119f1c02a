#![warn(missing_docs)]

//! Crash-safe simulation campaign service.
//!
//! Sweeping the paper's evaluation matrix means thousands of independent
//! simulator runs; a campaign that dies at job 8,000 of 10,000 must not
//! redo — or worse, double-count — the first 7,999. This crate provides
//! the durable job-queue engine behind the `campaign` binary:
//!
//! * [`spec`] — [`JobSpec`] batches (configuration × seed range), rendered
//!   canonically and fingerprinted with FNV-1a-64 so identical work dedups
//!   seed-by-seed across batches.
//! * [`ledger`] — the append-only JSONL [`Ledger`]: every job transition
//!   (`enqueued → leased → done/failed/retry`) is a checksummed, durable
//!   record. Replay takes the longest valid prefix, so a `kill -9`
//!   mid-write costs at most the torn final line — never a completed
//!   result, never a queued job.
//! * [`pool`] — the [`WorkerPool`]: persistent workers over a bounded
//!   queue with deterministic shedding, labelled panic capture and
//!   cooperative cancellation. `raccd-bench`'s batch helpers ride the same
//!   pool.
//! * [`snappool`] — the shared [`SnapshotPool`]: each configuration's
//!   warm-up is simulated once and restored per seed, and a fault-free
//!   configuration's whole run is simulated once and shared by its seeds.
//! * [`service`] — the [`Campaign`] orchestrator tying the above together,
//!   plus [`execute_job_direct`], the cold serial oracle the differential
//!   suite compares campaign results against bit-for-bit.

pub mod ledger;
pub mod pool;
pub mod service;
pub mod snappool;
pub mod spec;

pub use ledger::{JobDigest, JobStatus, Ledger, LedgerState, Record, RecoveredJob};
pub use pool::{CancelToken, PoolCtx, PoolTask, WorkerPool};
pub use raccd_snap::fnv1a64;
pub use service::{
    execute_job_direct, Campaign, CampaignConfig, CampaignReport, ReconcileReport, SubmitSummary,
};
pub use snappool::{SnapPoolStats, SnapshotPool};
pub use spec::{mode_label, JobKey, JobSpec};

/// FNV-1a-64 over the protocol-visible counter set of a run
/// ([`raccd_sim::Stats::protocol_counters_le`]) — the counters
/// `raccd-bench`'s sweep checksum folds, so campaign digests and bench
/// checksums witness the same state.
pub fn stats_digest(s: &raccd_sim::Stats) -> u64 {
    fnv1a64(&s.protocol_counters_le())
}
