//! `campaign-dedup`: the campaign service over a ledger in a temp dir —
//! a cold batch, then rounds of "resume = rerun the same command".

use crate::bench::{ratio, Bench, Layers, Rep, TracedPass, TRACED_REP};
use crate::sim::count_layers;
use crate::trace::Tracer;
use raccd_campaign::{
    execute_job_direct, fnv1a64, stats_digest, Campaign, CampaignConfig, CampaignReport, JobKey,
    JobSpec, Ledger, LedgerState, Record,
};
use raccd_core::{CoherenceMode, Experiment};
use raccd_sim::Stats;
use raccd_workloads::{all_benchmarks, Scale};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seeded jobs per cold batch.
const JOBS: u64 = 500;
/// Resume rounds per rep, sized so the job bodies stay under half of
/// `wall_s` (`campaign.body_share`).
const RESUME_ROUNDS: u64 = 20;
const QUEUE_CAP: usize = 8192;
/// Records appended, and fingerprints taken, by the layer probes.
const PROBE_OPS: u64 = 20_000;

/// One configuration of the matrix, with what a direct run of it gives.
struct Config {
    spec: JobSpec,
    /// Stats of the serial oracle: `Experiment::run`, verified.
    stats: Stats,
    digest: u64,
}

pub struct CampaignBench {
    configs: Vec<Config>,
    /// The oracle's Stats summed over every seeded job of a batch.
    batch_stats: Stats,
    dir: PathBuf,
    workers: usize,
    ledgers: u64,
    /// Ledger bytes and the cold run's report of the latest rep.
    last_ledger: Vec<u8>,
    last_report: Option<CampaignReport>,
}

/// The `--gen` matrix shape of the `campaign` binary: every benchmark ×
/// {fullcoh, pt, raccd} × ratios {4, 8} at test scale, warm-started, with
/// `n` seeds spread evenly and the seed ranges starting after `base`.
fn matrix(n: u64, base: u64) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for w in all_benchmarks(Scale::Test) {
        for mode in [
            CoherenceMode::FullCoh,
            CoherenceMode::PageTable,
            CoherenceMode::Raccd,
        ] {
            for ratio in [4, 8] {
                let mut s = JobSpec::new(w.name(), Scale::Test, mode);
                s.ratio = ratio;
                s.warmup = 2_000;
                specs.push(s);
            }
        }
    }
    let nc = specs.len() as u64;
    for (i, s) in specs.iter_mut().enumerate() {
        let count = n / nc + u64::from((i as u64) < n % nc);
        s.seed_lo = base + 1;
        s.seed_hi = base + count;
    }
    specs.retain(|s| s.seed_hi >= s.seed_lo);
    specs
}

pub fn campaign_dedup(seed: u64, tmp: &Path) -> CampaignBench {
    let workloads = all_benchmarks(Scale::Test);
    let configs: Vec<Config> = matrix(JOBS, seed.wrapping_mul(10_000) % 1_000_000_000)
        .into_iter()
        .map(|spec| {
            let idx = spec.bench_idx().expect("matrix names its own benchmarks");
            let run =
                Experiment::new(spec.machine_config(), spec.mode).run(workloads[idx].as_ref());
            assert!(
                run.verified,
                "oracle run of {} failed: {:?}",
                spec.render(),
                run.verify_error
            );
            Config {
                digest: stats_digest(&run.stats),
                stats: run.stats,
                spec,
            }
        })
        .collect();
    let mut batch_stats = Stats::default();
    for c in &configs {
        for _ in 0..c.spec.njobs() {
            batch_stats.merge(&c.stats);
        }
    }
    CampaignBench {
        configs,
        batch_stats,
        dir: tmp.to_path_buf(),
        workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        ledgers: 0,
        last_ledger: Vec::new(),
        last_report: None,
    }
}

impl CampaignBench {
    fn config(&self) -> CampaignConfig {
        CampaignConfig {
            workers: self.workers,
            queue_cap: QUEUE_CAP,
            ..CampaignConfig::default()
        }
    }

    fn jobs(&self) -> u64 {
        self.configs.iter().map(|c| c.spec.njobs()).sum()
    }
}

impl Bench for CampaignBench {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let whole = tr.begin("bench.rep");
        let mut rep = Rep::default();
        self.ledgers += 1;
        let path = self.dir.join(format!("ledger-{}.jsonl", self.ledgers));

        // Cold: open an empty ledger, submit every spec, run, reconcile.
        let s = tr.begin("campaign.open");
        let campaign =
            Campaign::open(&path, self.config()).unwrap_or_else(|e| panic!("campaign open: {e}"));
        rep.part(tr.end(s));
        let s = tr.begin("campaign.submit");
        let mut admitted = 0;
        for c in &self.configs {
            let sum = campaign
                .submit(&c.spec)
                .unwrap_or_else(|e| panic!("campaign submit: {e}"));
            admitted += sum.admitted;
        }
        rep.part(tr.end_units(s, self.jobs()));
        let s = tr.begin("campaign.run");
        let report = campaign
            .run()
            .unwrap_or_else(|e| panic!("campaign run: {e}"));
        rep.sim_part(tr.end_units(s, report.executions));
        let s = tr.begin("campaign.reconcile");
        let reconcile = campaign
            .reconcile()
            .unwrap_or_else(|e| panic!("campaign reconcile: {e}"));
        rep.part(tr.end(s));
        rep.check(report.reconcile.consistent && reconcile.consistent, || {
            format!("cold run does not reconcile: {}", report.to_json())
        });

        // Every job done, with the digest a direct run gives.
        let t = Instant::now();
        let results: BTreeMap<JobKey, u64> = campaign
            .results()
            .into_iter()
            .map(|(k, d)| (k, d.stats_digest))
            .collect();
        let mut folded = Vec::new();
        for c in &self.configs {
            for key in c.spec.keys() {
                let got = results.get(&key).copied();
                rep.check(got == Some(c.digest), || {
                    format!(
                        "{}: digest {got:x?}, direct run {:x}",
                        key.label(),
                        c.digest
                    )
                });
                folded.extend(got.unwrap_or(0).to_le_bytes());
            }
        }
        rep.digests.push(fnv1a64(&folded));
        rep.stats = self.batch_stats.clone();
        rep.refs = rep.stats.refs_processed;
        rep.jobs = admitted.min(report.done);
        drop(campaign);
        rep.part(t.elapsed().as_secs_f64());

        // Resume: reopen (replaying the growing ledger), resubmit all,
        // run, reconcile. Everything must dedup and nothing execute.
        let s = tr.begin("campaign.resume");
        for round in 0..RESUME_ROUNDS {
            let t = Instant::now();
            let campaign = Campaign::open(&path, self.config())
                .unwrap_or_else(|e| panic!("campaign reopen: {e}"));
            let mut deduped = 0;
            for c in &self.configs {
                let sum = campaign
                    .submit(&c.spec)
                    .unwrap_or_else(|e| panic!("campaign resubmit: {e}"));
                deduped += sum.deduped;
            }
            let report = campaign
                .run()
                .unwrap_or_else(|e| panic!("campaign resume run: {e}"));
            rep.jobs += deduped;
            rep.attempted += self.jobs();
            rep.failed += self.jobs() - deduped;
            rep.check(
                report.reconcile.consistent && report.executions == 0,
                || format!("resume round {round}: {}", report.to_json()),
            );
            drop(campaign);
            rep.part(t.elapsed().as_secs_f64());
        }
        tr.end_units(s, RESUME_ROUNDS);

        if tr.is_on() {
            self.last_ledger =
                std::fs::read(&path).unwrap_or_else(|e| panic!("campaign read ledger: {e}"));
            self.last_report = Some(report);
        }
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("campaign remove ledger: {e}"));
        rep.close(tr.end(whole));
        rep.cell_ms.push(rep.wall_s * 1e3);
        rep
    }

    fn layers(&mut self, tr: &mut Tracer, pass: &TracedPass<'_>, out: &mut Layers) {
        count_layers(&pass.rep.stats, out);
        let totals = tr.totals(Some(TRACED_REP));
        let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.secs());
        let jobs = self.jobs() as f64;
        out.set(
            "campaign.submit_us_per_job",
            secs("campaign.submit") * 1e6 / jobs,
        );
        out.set("campaign.run_s", secs("campaign.run"));
        out.set("campaign.resume_s", secs("campaign.resume"));
        out.set("campaign.reconcile_s", secs("campaign.reconcile"));
        out.set("bench.cell_ms_p50", pass.rep.wall_s * 1e3);
        out.set("bench.cell_ms_p90", pass.rep.wall_s * 1e3);
        let deduped = (pass.rep.jobs as f64 - jobs).max(0.0);
        out.set("campaign.dedup_ratio", ratio(deduped, pass.rep.jobs as f64));
        if let Some(r) = &self.last_report {
            out.set(
                "campaign.snap_hit_ratio",
                ratio(r.snap.hits as f64, (r.snap.hits + r.snap.misses) as f64),
            );
            out.set("campaign.executions", r.executions as f64);
            out.set("campaign.retries", r.retries as f64);
        }

        // The layers on their own: ledger append, ledger replay,
        // fingerprinting, and the job bodies without the service.
        let path = self.dir.join("probe.jsonl");
        let (mut ledger, _) = Ledger::open(&path).expect("open probe ledger");
        let t = Instant::now();
        for seed in 0..PROBE_OPS {
            let key = JobKey {
                fingerprint: 0x9E37_79B9_7F4A_7C15,
                seed,
            };
            ledger
                .append(&Record::Deduped { key })
                .expect("probe append");
        }
        out.set(
            "campaign.ledger_append_us",
            t.elapsed().as_secs_f64() * 1e6 / PROBE_OPS as f64,
        );
        drop(ledger);
        std::fs::remove_file(&path).expect("remove probe ledger");

        let lines = self.last_ledger.iter().filter(|&&b| b == b'\n').count();
        let t = Instant::now();
        let replayed = LedgerState::replay(black_box(&self.last_ledger));
        let replay_s = t.elapsed().as_secs_f64();
        assert_eq!(
            replayed.records as usize, lines,
            "probe replay dropped lines"
        );
        out.set(
            "campaign.ledger_replay_lines_per_s",
            ratio(lines as f64, replay_s),
        );

        let t = Instant::now();
        for i in 0..PROBE_OPS as usize {
            black_box(black_box(&self.configs[i % self.configs.len()].spec).fingerprint());
        }
        out.set(
            "campaign.fingerprint_ns",
            t.elapsed().as_secs_f64() * 1e9 / PROBE_OPS as f64,
        );

        // Each configuration's body twice over; the second, with the host's
        // caches and allocator warm as they are inside a running pool,
        // stands for every seed of that configuration.
        let mut bodies_s = 0.0;
        for c in &self.configs {
            let mut secs = 0.0;
            for _ in 0..2 {
                let t = Instant::now();
                let direct = execute_job_direct(&c.spec, c.spec.seed_lo);
                secs = t.elapsed().as_secs_f64();
                assert_eq!(direct.map(|d| d.stats_digest), Ok(c.digest));
            }
            bodies_s += secs * c.spec.njobs() as f64;
        }
        out.set(
            "campaign.body_share",
            ratio(bodies_s / self.workers as f64, pass.rep.wall_s),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_spreads_the_jobs_and_offsets_the_seeds() {
        let specs = matrix(JOBS, 70_000);
        assert_eq!(specs.len(), 9 * 3 * 2);
        assert_eq!(specs.iter().map(JobSpec::njobs).sum::<u64>(), JOBS);
        assert!(specs.iter().all(|s| s.seed_lo == 70_001 && s.warmup > 0));
        let few = matrix(5, 0);
        assert_eq!(few.len(), 5);
        assert!(few.iter().all(|s| s.njobs() == 1));
    }
}
