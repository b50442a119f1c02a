//! Campaign-versus-oracle differential: every digest a campaign caches
//! must be bit-identical (`Stats` digest + shadow state key) to a cold
//! serial run of the same `(spec, seed)` — across coherence modes, warm
//! starts from the shared snapshot pool, a live fault plane, and a
//! crash/resume in the middle of the campaign.

use raccd_campaign::{execute_job_direct, Campaign, CampaignConfig, JobDigest, JobKey, JobSpec};
use raccd_core::CoherenceMode;
use raccd_fault::Backoff;
use raccd_workloads::Scale;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raccd-campdiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn config() -> CampaignConfig {
    CampaignConfig {
        workers: 2,
        queue_cap: 256,
        retry_budget: 1,
        backoff: Backoff { base: 1, cap: 2 },
        timeout_ms: 0,
        slice: 10_000,
    }
}

/// A spread of specs covering the paths that could plausibly diverge:
/// all three coherence modes, a warm-started batch (snapshot-pool restore
/// versus the oracle's cold warm-up), a live fault plane, and both at
/// once (every seed reseeds the plane at the shared warm-up boundary).
fn matrix() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for mode in [
        CoherenceMode::FullCoh,
        CoherenceMode::PageTable,
        CoherenceMode::Raccd,
    ] {
        let mut s = JobSpec::new("Jacobi", Scale::Test, mode);
        s.seed_hi = 2;
        specs.push(s);
    }
    let mut warm = JobSpec::new("Gauss", Scale::Test, CoherenceMode::Raccd);
    warm.warmup = 2_000;
    warm.seed_hi = 3;
    specs.push(warm);
    let mut faulty = JobSpec::new("Jacobi", Scale::Test, CoherenceMode::Raccd);
    faulty.set("fault", "delay=5e-4:16;dup=1e-4").unwrap();
    faulty.seed_hi = 2;
    specs.push(faulty.clone());
    faulty.warmup = 2_000;
    faulty.seed_hi = 3;
    specs.push(faulty);
    specs
}

fn oracle(specs: &[JobSpec]) -> BTreeMap<JobKey, JobDigest> {
    let mut out = BTreeMap::new();
    for spec in specs {
        for key in spec.keys() {
            let digest = execute_job_direct(spec, key.seed)
                .unwrap_or_else(|e| panic!("oracle {}: {e}", key.label()));
            out.insert(key, digest);
        }
    }
    out
}

fn assert_matches_oracle(results: &[(JobKey, JobDigest)], expect: &BTreeMap<JobKey, JobDigest>) {
    assert_eq!(results.len(), expect.len(), "result-set size differs");
    for (key, digest) in results {
        let want = &expect[key];
        assert_eq!(
            digest,
            want,
            "campaign digest diverged from serial oracle for {}",
            key.label()
        );
    }
}

#[test]
fn campaign_results_match_the_serial_oracle() {
    let specs = matrix();
    let expect = oracle(&specs);
    let camp = Campaign::open(&scratch("diff.jsonl"), config()).unwrap();
    for s in &specs {
        camp.submit(s).unwrap();
    }
    let report = camp.run().unwrap();
    assert_eq!(report.failed, 0, "failures: {:?}", camp.failures());
    assert!(report.reconcile.consistent, "{}", report.to_json());
    assert!(
        report.snap.misses >= 1,
        "warm-started batch never touched the snapshot pool"
    );
    assert_matches_oracle(&camp.results(), &expect);
}

#[test]
fn crash_resume_campaign_is_bit_identical_to_uninterrupted() {
    let specs = matrix();
    let expect = oracle(&specs);
    let total = expect.len() as u64;

    // Interrupted run: cancel mid-flight (crash-shaped — dangling leases,
    // no terminal records), reopen the survivor ledger, finish.
    let path = scratch("crash.jsonl");
    let cfg = CampaignConfig {
        workers: 1,
        ..config()
    };
    let first = {
        let camp = Campaign::open(&path, cfg.clone()).unwrap();
        for s in &specs {
            camp.submit(s).unwrap();
        }
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| camp.run().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(30));
            camp.cancel();
            runner.join().unwrap()
        })
    };
    assert_eq!(first.reconcile.duplicate_completions, 0);

    let camp = Campaign::open(&path, cfg).unwrap();
    // The resubmission a restarted driver would perform: pure dedup.
    for s in &specs {
        assert_eq!(camp.submit(s).unwrap().admitted, 0);
    }
    let second = camp.run().unwrap();
    assert_eq!(second.done, total);
    // A lease in flight at the cancel burns an execution without a result
    // (exactly like a crash); beyond that, the resume runs precisely the
    // jobs the first run didn't complete.
    assert_eq!(
        second.executions,
        total - first.done,
        "crash/resume duplicated a completed job or dropped a pending one"
    );
    assert!(second.reconcile.consistent, "{}", second.to_json());
    assert_matches_oracle(&camp.results(), &expect);
}
