//! Telemetry inspector: run one benchmark with the full recorder attached,
//! print an event summary, and optionally dump the complete artifact set.
//!
//! ```text
//! cargo run --release -p raccd-bench --bin trace -- \
//!     [--scale test|bench] [--bench Jacobi] [--mode RaCCD] [--head 20] \
//!     [--protocol mesi|mesif|moesi] [--topology mesh|numa2] \
//!     [--interval 4096] [--telemetry out/] \
//!     [--snapshot file.rsnp [--snapshot-at CYCLE]] [--restore file.rsnp]
//! ```
//!
//! With `--telemetry <dir>` the run writes `trace.json` (Chrome Trace
//! Format — load it at <https://ui.perfetto.dev>), `events.jsonl`,
//! `series.csv` and `histograms.txt` into the directory, then re-parses
//! the JSON artifacts to prove they are well-formed.
//!
//! The summary ends with a `# perf:` host-throughput line (the wall time
//! of the simulation itself; where that time went is the repo benchmark's
//! `run --workload W --trace 1`).
//!
//! With `--snapshot <file>` the run pauses at `--snapshot-at` cycles
//! (default 10000) and writes a whole-machine checkpoint before finishing
//! normally. With `--restore <file>` the run revives that checkpoint —
//! same benchmark, scale and mode required — and finishes from there;
//! final stats and the shadow state key are identical to the uninterrupted
//! run (telemetry covers only the resumed half).

use raccd_bench::cli::{die, Cli, SIM_FLAGS};
use raccd_bench::{bench_names, write_telemetry};
use raccd_core::{CoherenceMode, Driver};
use raccd_obs::{event_json, json, Recorder, RecorderConfig};
use raccd_sim::Stats;
use raccd_snap::Snapshot;
use std::collections::BTreeMap;

fn main() {
    let own = [
        "--telemetry",
        "--bench",
        "--mode",
        "--head",
        "--interval",
        "--snapshot",
        "--snapshot-at",
        "--restore",
    ];
    let flags = [&SIM_FLAGS[..], &own].concat();
    let cli = Cli::from_env(&flags, &[]);
    let scale = cli.scale;
    let names = bench_names(scale);
    let bench_idx = cli.benches(&names).map_or(3, |b| b[0]); // default: Jacobi
    let mode = cli.modes("--mode").map_or(CoherenceMode::Raccd, |m| m[0]);
    let head: usize = cli.number_or("--head", 20);
    let interval: u64 = cli.number_or("--interval", RecorderConfig::default().sample_interval);
    let telemetry = cli.telemetry.clone();

    let mut cfg = cli.cfg;
    cfg.record_events = true;

    let snapshot_path = cli.value("--snapshot");
    let snapshot_at: u64 = cli.number_or("--snapshot-at", 10_000);
    let restore_path = cli.value("--restore");

    let workloads = raccd_workloads::all_benchmarks(scale);
    let program = workloads[bench_idx].build();
    eprintln!(
        "tracing {} under {mode} at scale {scale} ({} protocol, {} topology)...",
        names[bench_idx],
        cfg.protocol.label(),
        cfg.topology.label(),
    );
    let mut rec = Recorder::new(RecorderConfig {
        sample_interval: interval,
        buffer_events: true,
    });
    let t0 = std::time::Instant::now();
    let out = if let Some(path) = &restore_path {
        let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("--restore {path}: {e}")));
        let snap = Snapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| die(&format!("--restore {path}: not a usable snapshot: {e}")));
        let driver = Driver::restore(cfg, mode, program, &snap)
            .unwrap_or_else(|e| die(&format!("--restore {path}: does not fit this run: {e}")));
        eprintln!(
            "restored {path}: {} tasks done, resuming at cycle {}",
            driver.completed_tasks(),
            driver.next_time().unwrap_or(0)
        );
        driver.finish(Some(&mut rec))
    } else {
        let mut driver = Driver::new(cfg, mode, program, None, Some(&mut rec));
        if let Some(path) = &snapshot_path {
            driver.run_until(snapshot_at, Some(&mut rec));
            let snap = driver.snapshot();
            std::fs::write(path, snap.to_bytes())
                .unwrap_or_else(|e| die(&format!("--snapshot {path}: {e}")));
            eprintln!(
                "wrote snapshot {path} at cycle {} ({} tasks done, hash {:016x})",
                driver.next_time().unwrap_or(snapshot_at),
                driver.completed_tasks(),
                snap.content_hash()
            );
        }
        driver.finish(Some(&mut rec))
    };
    let wall = t0.elapsed().as_secs_f64();

    // Summary by event kind (tags from `Event::kind`).
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in rec.events() {
        *counts.entry(ev.kind()).or_insert(0) += 1;
    }
    println!("# event summary ({} events total)", rec.events().len());
    for (kind, n) in &counts {
        println!("{kind}\t{n}");
    }
    println!();
    println!(
        "# time-series: {} samples at interval {} cycles",
        rec.samples().len(),
        rec.sample_interval()
    );
    println!(
        "# mean dir occupancy: sampler {:.4} vs stats {:.4}",
        rec.mean_dir_occupancy(),
        out.stats.dir_avg_occupancy
    );
    println!(
        "# latencies (p50<=): mem {} wake-to-dispatch {} bank-wait {}",
        rec.hist_mem_latency.quantile_ceil(0.5),
        rec.hist_wake_to_dispatch.quantile_ceil(0.5),
        rec.hist_bank_wait.quantile_ceil(0.5),
    );
    println!(
        "{}",
        perf_line(&format!("{}/{mode}", names[bench_idx]), &out.stats, wall)
    );
    println!();
    println!("# first {head} events (JSONL)");
    for ev in rec.events().iter().take(head) {
        println!("{}", event_json(rec.names(), ev));
    }

    if let Some(dir) = telemetry {
        write_telemetry(&rec, &dir)
            .unwrap_or_else(|e| panic!("writing telemetry to {}: {e}", dir.display()));
        // Re-parse the JSON artifacts: proof they are well-formed.
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        let doc = json::parse(&trace).expect("trace.json is valid JSON");
        let n_trace = doc
            .get("traceEvents")
            .expect("traceEvents key")
            .items()
            .len();
        let jsonl = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        let mut n_lines = 0usize;
        for line in jsonl.lines() {
            json::parse(line).expect("every events.jsonl line is valid JSON");
            n_lines += 1;
        }
        assert_eq!(n_lines, rec.events().len());
        println!();
        println!(
            "wrote {}: trace.json ({n_trace} trace events), events.jsonl ({n_lines} lines), series.csv ({} rows), histograms.txt",
            dir.display(),
            rec.samples().len()
        );
        println!("load trace.json at https://ui.perfetto.dev");
    }
}

/// The `# perf:` line: the run's wall time and its simulated cycles,
/// replayed references and NoC messages per host second.
fn perf_line(name: &str, stats: &Stats, wall: f64) -> String {
    let rate = |n: u64| fmt_si(if wall > 0.0 { n as f64 / wall } else { 0.0 });
    format!(
        "# perf: {name} wall={wall:.3}s cycles/s={} refs/s={} events/s={}",
        rate(stats.cycles),
        rate(stats.refs_processed),
        rate(stats.noc_traffic),
    )
}

/// A rate with an SI suffix (K/M/G).
fn fmt_si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}K", v / 1e3)
    } else {
        format!("{:.1}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_line_is_a_comment_with_si_rates() {
        let stats = Stats {
            cycles: 1_000_000,
            refs_processed: 250_000,
            noc_traffic: 40_000,
            ..Stats::default()
        };
        assert_eq!(
            perf_line("jacobi/raccd", &stats, 0.5),
            "# perf: jacobi/raccd wall=0.500s cycles/s=2.00M refs/s=500.00K events/s=80.00K"
        );
        // A zero wall time never divides by zero.
        assert_eq!(
            perf_line("z", &stats, 0.0),
            "# perf: z wall=0.000s cycles/s=0.0 refs/s=0.0 events/s=0.0"
        );
        assert_eq!(fmt_si(3.5e9), "3.50G");
        assert_eq!(fmt_si(12.5), "12.5");
    }
}
