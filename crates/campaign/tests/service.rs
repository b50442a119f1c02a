//! Integration tests of the campaign orchestrator: dedup, shared runs of
//! fault-free seeds, refused specs, deterministic backpressure shedding at
//! 10k+ submissions, retry-to-terminal failure, cooperative cancel +
//! resume, and torn-tail resume — each reconciled against the ledger.

use raccd_campaign::execute_job_direct;
use raccd_campaign::{
    Campaign, CampaignConfig, JobSpec, JobStatus, LedgerState, ReconcileReport, Record,
    SubmitSummary,
};
use raccd_core::CoherenceMode;
use raccd_fault::{Backoff, FaultPlan};
use raccd_workloads::Scale;
use std::collections::HashSet;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raccd-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn spec(bench: &str, seeds: u64) -> JobSpec {
    let mut s = JobSpec::new(bench, Scale::Test, CoherenceMode::Raccd);
    s.seed_hi = seeds;
    s
}

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        workers: 2,
        queue_cap: 1024,
        retry_budget: 2,
        backoff: Backoff { base: 1, cap: 2 },
        timeout_ms: 0,
        slice: 10_000,
    }
}

#[test]
fn dedup_answers_resubmission_from_the_cache() {
    let path = scratch("dedup.jsonl");
    let camp = Campaign::open(&path, quick_config()).unwrap();
    let s = spec("Jacobi", 3);
    assert_eq!(
        camp.submit(&s).unwrap(),
        SubmitSummary {
            admitted: 3,
            deduped: 0,
            shed: 0
        }
    );
    // Resubmitting while queued already dedups: the key is known.
    assert_eq!(camp.submit(&s).unwrap().deduped, 3);
    let report = camp.run().unwrap();
    assert_eq!(report.done, 3);
    assert_eq!(report.executions, 3);
    assert!(report.reconcile.consistent, "{}", report.to_json());
    // Resubmitting after completion dedups against the result cache —
    // run() again performs zero new executions.
    assert_eq!(camp.submit(&s).unwrap().deduped, 3);
    let report = camp.run().unwrap();
    assert_eq!(report.done, 3);
    assert_eq!(report.executions, 3, "completed jobs were re-executed");
    assert_eq!(report.dedup_hits, 6);
}

/// With no fault plane attached a seed changes nothing, so one driver run
/// answers every seed of the configuration; a plane, even a delay-only one
/// that is never detected, gives each seed its own run and digest. The
/// environment's plane counts as attached, as it does for the machine.
#[test]
fn fault_free_seeds_share_one_run_and_faulty_seeds_run_their_own() {
    let config = CampaignConfig {
        workers: 1,
        ..quick_config()
    };
    let shares = FaultPlan::forced_from_env().is_none();
    let free = spec("Jacobi", 4);
    let mut delayed = free.clone();
    delayed.fault = Some("delay=0.005:16".into());
    for (name, s, shared) in [
        ("shared.jsonl", &free, if shares { 3 } else { 0 }),
        ("unshared.jsonl", &delayed, 0),
    ] {
        let camp = Campaign::open(&scratch(name), config.clone()).unwrap();
        camp.submit(s).unwrap();
        let report = camp.run().unwrap();
        assert!(report.reconcile.consistent, "{}", report.to_json());
        assert_eq!((report.done, report.executions), (4, 4), "{name}");
        assert_eq!(report.snap.shared, shared, "{name}");
        assert!(report.to_json().contains(&format!("\"shared\":{shared},")));
        let results = camp.results();
        for (key, digest) in &results {
            assert_eq!(*digest, execute_job_direct(s, key.seed).unwrap(), "{name}");
        }
        let distinct: HashSet<_> = results.iter().map(|(_, d)| d.stats_digest).collect();
        let expect = if s.fault.is_some() || !shares { 4 } else { 1 };
        assert_eq!(distinct.len(), expect, "{name}: distinct digests");
    }
}

/// A fault plan that does not parse is refused with its own error before
/// any record is written, not carried to a panic.
#[test]
fn an_unparseable_fault_plan_is_refused_without_a_record() {
    let path = scratch("bad-fault.jsonl");
    let camp = Campaign::open(&path, quick_config()).unwrap();
    let mut s = spec("MD5", 2);
    s.fault = Some("drop=banana".into());
    let err = camp.submit(&s).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let plan_err = FaultPlan::from_spec("drop=banana").unwrap_err();
    assert_eq!(err.to_string(), format!("fault: {plan_err}"));
    s.fault = None;
    s.ratio = 0;
    let err = camp.submit(&s).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(err.to_string(), "bad ratio `0`");
    let report = camp.run().unwrap();
    assert_eq!((report.jobs, report.executions), (0, 0));
    assert!(report.reconcile.consistent, "{}", report.to_json());
    // Only the reconcile's own note reached the ledger.
    assert_eq!(
        LedgerState::replay(&std::fs::read(&path).unwrap()).records,
        1
    );
}

#[test]
fn saturation_sheds_deterministically_beyond_the_cap() {
    let path = scratch("shed.jsonl");
    let cap = 40u64;
    let total = 12_000u64;
    let config = CampaignConfig {
        queue_cap: cap as usize,
        ..quick_config()
    };
    let camp = Campaign::open(&path, config.clone()).unwrap();
    let s = spec("Jacobi", total);
    let sum = camp.submit(&s).unwrap();
    assert_eq!(sum.admitted, cap);
    assert_eq!(sum.shed, total - cap);
    // Deterministic: admission is a pure function of submission order, so
    // exactly the first `cap` seeds run and every later seed is shed.
    let replay = LedgerState::replay(&std::fs::read(&path).unwrap());
    for (key, job) in &replay.jobs {
        let expect = if key.seed <= cap {
            JobStatus::Queued
        } else {
            JobStatus::Shed
        };
        assert_eq!(job.status, expect, "seed {}", key.seed);
    }
    let report = camp.run().unwrap();
    assert_eq!(report.jobs, total);
    assert_eq!(report.done, cap);
    assert_eq!(report.shed, total - cap);
    assert_eq!(report.executions, cap, "shed jobs must never execute");
    assert!(report.reconcile.consistent, "{}", report.to_json());
    drop(camp);

    // Shed is terminal: a resume (same process would dedup; a fresh one
    // replays) neither runs nor re-admits the shed jobs.
    let camp = Campaign::open(&path, config).unwrap();
    assert_eq!(camp.submit(&s).unwrap().deduped, total);
    let report = camp.run().unwrap();
    assert_eq!(report.executions, 0);
    assert_eq!(report.done, cap);
    assert_eq!(report.shed, total - cap);
    assert!(report.reconcile.consistent, "{}", report.to_json());
}

#[test]
fn failing_job_burns_retries_then_lands_terminal() {
    let path = scratch("retry.jsonl");
    let camp = Campaign::open(&path, quick_config()).unwrap();
    // Every message dropped with a one-retry budget: detection is
    // guaranteed and identical on every attempt.
    let mut s = spec("Jacobi", 1);
    s.fault = Some("drop=1;retry_budget=1".to_string());
    camp.submit(&s).unwrap();
    let report = camp.run().unwrap();
    assert_eq!(report.done, 0);
    assert_eq!(report.failed, 1);
    assert_eq!(report.retries, 1, "retry_budget=2 ⇒ exactly one requeue");
    assert_eq!(report.executions, 2, "both attempts actually ran");
    assert!(report.reconcile.consistent, "{}", report.to_json());
    let (_, err) = &camp.failures()[0];
    assert!(err.contains("detected"), "unexpected failure: {err}");
}

#[test]
fn cancel_then_resume_loses_and_duplicates_nothing() {
    let path = scratch("cancel.jsonl");
    let total = 8u64;
    let config = CampaignConfig {
        workers: 1,
        ..quick_config()
    };
    let camp = Campaign::open(&path, config.clone()).unwrap();
    camp.submit(&spec("Jacobi", total)).unwrap();
    let first = std::thread::scope(|scope| {
        let runner = scope.spawn(|| camp.run().unwrap());
        // Cancel somewhere mid-run; every interleaving below must hold.
        std::thread::sleep(std::time::Duration::from_millis(40));
        camp.cancel();
        runner.join().unwrap()
    });
    assert!(first.done <= total);
    assert_eq!(first.reconcile.duplicate_completions, 0);
    drop(camp);

    // Resume on the survivor ledger: exactly the unfinished jobs run.
    let camp = Campaign::open(&path, config).unwrap();
    let second = camp.run().unwrap();
    assert_eq!(second.done, total);
    assert_eq!(
        second.executions,
        total - first.done,
        "resume re-ran a completed job or dropped a pending one"
    );
    assert!(second.reconcile.consistent, "{}", second.to_json());
    assert_eq!(second.reconcile.duplicate_completions, 0);
    assert_eq!(second.reconcile.lost_jobs, 0);
}

#[test]
fn torn_tail_resume_is_clean() {
    let path = scratch("torn.jsonl");
    let s = spec("Gauss", 2);
    {
        let camp = Campaign::open(&path, quick_config()).unwrap();
        camp.submit(&s).unwrap();
        let report = camp.run().unwrap();
        assert_eq!(report.done, 2);
    }
    // Crash mid-append: half a record at the tail.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"seq\":99,\"kind\":\"enqu").unwrap();
    }
    let camp = Campaign::open(&path, quick_config()).unwrap();
    assert_eq!(camp.submit(&s).unwrap().deduped, 2);
    let report = camp.run().unwrap();
    assert_eq!(report.executions, 0, "cached results were re-executed");
    assert_eq!(report.done, 2);
    assert!(report.reconcile.consistent, "{}", report.to_json());
}

/// A ledger written before the epoch-parallel engine was deleted: its
/// spec lines say `engine=parallel:2` and its keys carry the fingerprint
/// of that line (computed on the last build that had the engine). It
/// reopens, its jobs run on the one event loop, and the same work
/// submitted today dedups against it instead of running twice.
#[test]
fn ledger_with_parallel_engine_spec_lines_resumes_and_dedups() {
    use raccd_campaign::{JobKey, Ledger, Record};
    const LEGACY_FP: u64 = 0x821e_ff80_fbf7_2bbd;
    let path = scratch("legacy-engine.jsonl");
    let today = spec("Jacobi", 2);
    let legacy_line = today
        .canonical()
        .replace("engine=serial", "engine=parallel:2");
    assert_ne!(today.fingerprint(), LEGACY_FP);
    {
        let (mut ledger, _) = Ledger::open(&path).unwrap();
        for seed in 1..=2 {
            let key = JobKey {
                fingerprint: LEGACY_FP,
                seed,
            };
            let spec = legacy_line.clone();
            ledger.append(&Record::Enqueued { key, spec }).unwrap();
        }
    }
    let camp = Campaign::open(&path, quick_config()).unwrap();
    assert_eq!(
        camp.submit(&today).unwrap(),
        SubmitSummary {
            admitted: 0,
            deduped: 2,
            shed: 0
        }
    );
    let report = camp.run().unwrap();
    assert_eq!((report.done, report.executions), (2, 2));
    assert!(report.reconcile.consistent, "{}", report.to_json());
    for (key, digest) in camp.results() {
        assert_eq!(key.fingerprint, LEGACY_FP, "the ledger's key is kept");
        assert_eq!(digest, execute_job_direct(&today, key.seed).unwrap());
    }
    drop(camp);

    // And once more over the completed ledger: pure cache hits.
    let camp = Campaign::open(&path, quick_config()).unwrap();
    assert_eq!(camp.submit(&today).unwrap().deduped, 2);
    let report = camp.run().unwrap();
    assert_eq!((report.done, report.executions), (2, 0));
    assert!(report.reconcile.consistent, "{}", report.to_json());
}

/// A seed above 2^53 is the same job when the ledger is read back: the
/// first process reconciles, and a second process over the same ledger
/// finds the result cached and executes nothing.
#[test]
fn seed_beyond_f64_precision_resumes_from_the_cache() {
    let path = scratch("wide-seed.jsonl");
    let mut s = spec("Jacobi", 1);
    (s.seed_lo, s.seed_hi) = ((1 << 53) + 1, (1 << 53) + 1);
    for executions in [1, 0] {
        let camp = Campaign::open(&path, quick_config()).unwrap();
        camp.submit(&s).unwrap();
        let report = camp.run().unwrap();
        assert_eq!((report.done, report.executions), (1, executions));
        assert!(report.reconcile.consistent, "{}", report.to_json());
    }
}

fn lines(path: &std::path::Path) -> u64 {
    let image = std::fs::read(path).unwrap();
    image.iter().filter(|&&b| b == b'\n').count() as u64
}

/// The reconcile inside `run()` parses what was appended since the last
/// replay and no more: everything on the cold run, only the resubmission's
/// `deduped` records on a resume round.
#[test]
fn a_resume_round_parses_only_what_it_appended() {
    let path = scratch("resume-round.jsonl");
    let s = spec("Jacobi", 3);
    let camp = Campaign::open(&path, quick_config()).unwrap();
    camp.submit(&s).unwrap();
    let cold = camp.run().unwrap();
    // enqueued ×3, (leased, done) ×3, and the reconcile's own note after.
    assert_eq!(cold.reconcile.replayed, 9, "{}", cold.to_json());
    assert_eq!(lines(&path), 10);
    drop(camp);
    for round in 0..3 {
        let opened = lines(&path);
        let camp = Campaign::open(&path, quick_config()).unwrap();
        assert_eq!(camp.submit(&s).unwrap().deduped, 3);
        let report = camp.run().unwrap();
        assert!(report.reconcile.consistent, "{}", report.to_json());
        assert_eq!(report.executions, 0);
        let appended = lines(&path) - opened - 1; // the note follows the replay
        assert_eq!(
            (appended, report.reconcile.replayed),
            (3, 3),
            "round {round}"
        );
        assert!(report.to_json().ends_with(",\"replayed\":3}"));
    }
}

/// A `done` line rewritten on disk behind the campaign's back, with another
/// digest and a resealed checksum, is a mismatch: the byte compare sees the
/// file no longer starts with what the last replay read, and the replay
/// starts over instead of continuing from a state the file no longer gives.
#[test]
fn a_rewritten_done_line_is_a_mismatch() {
    let path = scratch("rewritten.jsonl");
    let camp = Campaign::open(&path, quick_config()).unwrap();
    camp.submit(&spec("MD5", 2)).unwrap();
    let report = camp.run().unwrap();
    assert!(report.reconcile.consistent, "{}", report.to_json());
    let text = std::fs::read_to_string(&path).unwrap();
    let mut image: Vec<String> = text.lines().map(str::to_string).collect();
    let at = image
        .iter()
        .position(|l| l.contains("\"kind\":\"done\""))
        .unwrap();
    let Ok((seq, Record::Done { key, mut digest })) = Record::parse_line(&image[at]) else {
        panic!("not a done line: {}", image[at]);
    };
    digest.stats_digest ^= 1;
    image[at] = Record::Done { key, digest }.to_line(seq);
    std::fs::write(&path, image.join("\n") + "\n").unwrap();
    let mismatch = ReconcileReport {
        done: 2,
        mismatches: 1,
        consistent: false,
        replayed: 7,
        ..ReconcileReport::default()
    };
    assert_eq!(camp.reconcile().unwrap(), mismatch);
    // The rewritten file is now what the last replay read: the next one
    // continues over the note the last one appended, with the same verdict.
    let again = camp.reconcile().unwrap();
    assert_eq!(
        again,
        ReconcileReport {
            replayed: 1,
            ..mismatch
        }
    );
}

#[test]
fn lifecycle_events_track_queue_depth() {
    let path = scratch("events.jsonl");
    let camp = Campaign::open(&path, quick_config()).unwrap();
    camp.submit(&spec("Jacobi", 4)).unwrap();
    camp.run().unwrap();
    let events = camp.events();
    use raccd_obs::{CampaignAction, Event};
    let actions: Vec<CampaignAction> = events
        .iter()
        .filter_map(|e| match e {
            Event::Campaign { action, .. } => Some(*action),
            _ => None,
        })
        .collect();
    assert_eq!(
        actions
            .iter()
            .filter(|a| matches!(a, CampaignAction::Enqueue))
            .count(),
        4
    );
    assert_eq!(
        actions
            .iter()
            .filter(|a| matches!(a, CampaignAction::Complete))
            .count(),
        4
    );
    // The depth gauge ends drained.
    let last_depth = events
        .iter()
        .rev()
        .find_map(|e| match e {
            Event::Campaign { queue_depth, .. } => Some(*queue_depth),
            _ => None,
        })
        .unwrap();
    assert_eq!(last_depth, 0);
}
