//! The crash-safe campaign driver: batches of simulation jobs through the
//! `raccd-campaign` service, durable against `kill -9`.
//!
//! ```text
//! cargo run --release -p raccd-bench --bin campaign -- \
//!     --ledger runs/campaign.jsonl \
//!     [--gen N | --spec "bench=Jacobi scale=test mode=raccd seeds=1..8" | --spec-file F] \
//!     [--scale test|bench] [--workers N] [--queue-cap N] [--retries N] \
//!     [--timeout-ms N] [--dedup-probe] [--report F] [--events F] \
//!     [--depth-csv F]
//! ```
//!
//! **Resume = rerun the same command.** Opening an existing ledger replays
//! it: completed jobs come back as cached results, mid-flight leases as
//! queued work, and resubmitting the same specs is absorbed by dedup — so
//! a campaign killed anywhere finishes with zero duplicated executions and
//! zero lost jobs (the report's reconciliation block proves it; exit code
//! 1 if it cannot).
//!
//! `--gen N` expands a deterministic N-job matrix (benchmarks × {fullcoh,
//! pt, raccd} × ratios {4, 8}, warm-started, seeds split evenly) — the CI
//! soak uses it. `--dedup-probe` submits every spec a second time after
//! admission; the second pass must dedup completely (EXPERIMENTS.md's
//! dedup methodology reads the hit count off the report). Campaign
//! throughput is timed by the repo benchmark's `campaign-dedup` workload,
//! not here.

use raccd_bench::bench_names;
use raccd_bench::cli::{die, Cli};
use raccd_campaign::{Campaign, CampaignConfig, JobSpec};
use raccd_core::CoherenceMode;
use raccd_obs::{write_campaign_depth_csv, write_events_jsonl};
use raccd_workloads::Scale;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Deterministic `--gen` matrix: spread `n` seeded jobs evenly over the
/// benchmark × mode × ratio grid, warm-started and fault-free, so each
/// configuration is one driver run whose digest its seeds share.
fn gen_matrix(scale: Scale, n: u64) -> Vec<JobSpec> {
    let names = bench_names(scale);
    let modes = [
        CoherenceMode::FullCoh,
        CoherenceMode::PageTable,
        CoherenceMode::Raccd,
    ];
    let ratios = [4usize, 8];
    let mut configs = Vec::new();
    for name in &names {
        for &mode in &modes {
            for &ratio in &ratios {
                let mut s = JobSpec::new(name, scale, mode);
                s.ratio = ratio;
                s.warmup = 2_000;
                configs.push(s);
            }
        }
    }
    let nc = configs.len() as u64;
    configs
        .into_iter()
        .enumerate()
        .filter_map(|(i, mut s)| {
            let count = n / nc + u64::from((i as u64) < n % nc);
            (count > 0).then(|| {
                s.seed_lo = 1;
                s.seed_hi = count;
                s
            })
        })
        .collect()
}

fn main() {
    let cli = Cli::from_env(
        &[
            "--scale",
            "--ledger",
            "--spec",
            "--spec-file",
            "--gen",
            "--workers",
            "--queue-cap",
            "--retries",
            "--timeout-ms",
            "--report",
            "--events",
            "--depth-csv",
        ],
        &["--dedup-probe"],
    );

    let ledger = PathBuf::from(cli.value("--ledger").unwrap_or("campaign.jsonl"));
    let scale = cli.scale;
    let mut config = CampaignConfig::default();
    config.workers = cli.number_or("--workers", config.workers);
    config.queue_cap = cli.number_or("--queue-cap", config.queue_cap);
    config.retry_budget = cli.number_or("--retries", config.retry_budget);
    config.timeout_ms = cli.number_or("--timeout-ms", 120_000);

    let mut specs: Vec<JobSpec> = Vec::new();
    for line in cli.values("--spec") {
        specs.push(JobSpec::parse(line).unwrap_or_else(|e| die(&format!("--spec: {e}"))));
    }
    if let Some(f) = cli.value("--spec-file") {
        let text =
            std::fs::read_to_string(f).unwrap_or_else(|e| die(&format!("--spec-file {f}: {e}")));
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            specs.push(
                JobSpec::parse(line).unwrap_or_else(|e| die(&format!("--spec-file {f}: {e}"))),
            );
        }
    }
    specs.extend(gen_matrix(scale, cli.number_or("--gen", 0)));

    let campaign = Campaign::open(&ledger, config)
        .unwrap_or_else(|e| die(&format!("opening ledger {}: {e}", ledger.display())));

    let mut admitted = 0u64;
    let mut deduped = 0u64;
    let mut shed = 0u64;
    let mut submit = |spec: &JobSpec| {
        let s = campaign
            .submit(spec)
            .unwrap_or_else(|e| die(&format!("submit {}: {e}", spec.render())));
        admitted += s.admitted;
        deduped += s.deduped;
        shed += s.shed;
    };
    for spec in &specs {
        submit(spec);
    }
    if cli.has("--dedup-probe") {
        // Second pass over the same batch: everything must dedup.
        for spec in &specs {
            submit(spec);
        }
    }
    eprintln!(
        "campaign: {} admitted, {} deduped, {} shed (ledger {})",
        admitted,
        deduped,
        shed,
        ledger.display()
    );

    let report = campaign
        .run()
        .unwrap_or_else(|e| die(&format!("campaign run: {e}")));
    println!("{}", report.to_json());
    if let Some(p) = cli.value("--report") {
        std::fs::write(p, report.to_json() + "\n")
            .unwrap_or_else(|e| die(&format!("--report {p}: {e}")));
    }
    let export = |flag: &str, write: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
        if let Some(p) = cli.value(flag) {
            File::create(p)
                .map(BufWriter::new)
                .and_then(|mut w| write(&mut w).and_then(|()| w.flush()))
                .unwrap_or_else(|e| die(&format!("{flag} {p}: {e}")));
        }
    };
    export("--events", &|w| {
        write_events_jsonl(&[], &campaign.events(), w)
    });
    export("--depth-csv", &|w| {
        write_campaign_depth_csv(&campaign.events(), w)
    });

    if !report.reconcile.consistent {
        eprintln!("campaign: reconciliation FAILED: {}", report.to_json());
        std::process::exit(1);
    }
}
