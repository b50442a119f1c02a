//! Generic sweep CLI: run any benchmark × mode × directory-ratio matrix and
//! print every metric as TSV.
//!
//! ```text
//! cargo run --release -p raccd-bench --bin sweep -- \
//!     [--scale test|bench|paper] [--bench Jacobi,...] [--ratios 1,8,256] \
//!     [--modes FullCoh,PT,TLB,RaCCD] [--adr] [--smt N] [--wt] \
//!     [--protocol mesi|mesif|moesi] [--topology mesh|numa2] \
//!     [--sched fifo|steal|priority|locality|quantum] \
//!     [--contention] [--permuted] [--telemetry out/] \
//!     [--engine serial|parallel [--threads N]]
//! ```
//!
//! With `--telemetry <dir>` every job additionally runs with a recorder and
//! writes its artifact set (Perfetto trace, JSONL events, CSV time-series,
//! histogram report) into a per-job subdirectory of `dir`.

use raccd_bench::{
    bench_names, config_from_args, engine_from_args, run_jobs, scale_from_args,
    telemetry_dir_from_args, Job,
};
use raccd_core::CoherenceMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args(&args);
    let names = bench_names(scale);

    let pick = |flag: &str| -> Option<Vec<String>> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.split(',').map(|x| x.to_string()).collect())
    };

    let bench_sel: Vec<usize> = pick("--bench")
        .map(|sel| {
            sel.iter()
                .map(|n| {
                    names
                        .iter()
                        .position(|b| b.eq_ignore_ascii_case(n))
                        .unwrap_or_else(|| panic!("unknown benchmark {n}; have {names:?}"))
                })
                .collect()
        })
        .unwrap_or_else(|| (0..names.len()).collect());

    let ratios: Vec<usize> = pick("--ratios")
        .map(|r| r.iter().map(|x| x.parse().expect("ratio")).collect())
        .unwrap_or_else(|| raccd_sim::DIR_RATIOS.to_vec());

    let modes: Vec<CoherenceMode> = pick("--modes")
        .map(|m| {
            m.iter()
                .map(|x| match x.to_ascii_lowercase().as_str() {
                    "fullcoh" => CoherenceMode::FullCoh,
                    "pt" | "pagetable" => CoherenceMode::PageTable,
                    "tlb" | "tlbclass" => CoherenceMode::TlbClass,
                    "raccd" => CoherenceMode::Raccd,
                    other => panic!("unknown mode {other}"),
                })
                .collect()
        })
        .unwrap_or_else(|| CoherenceMode::ALL.to_vec());

    let adr = args.iter().any(|a| a == "--adr");
    let mut base_cfg = config_from_args(scale, &args);
    if let Some(v) = pick("--smt").and_then(|v| v.first().cloned()) {
        base_cfg = base_cfg.with_smt(v.parse().expect("smt ways"));
    }
    if args.iter().any(|a| a == "--wt") {
        base_cfg = base_cfg.with_write_through(true);
    }
    if args.iter().any(|a| a == "--contention") {
        base_cfg = base_cfg.with_contention(true);
    }
    if args.iter().any(|a| a == "--permuted") {
        base_cfg.permuted_pages = true;
    }

    let engine = engine_from_args(&args);
    let mut jobs = Vec::new();
    for &b in &bench_sel {
        for &mode in &modes {
            for &ratio in &ratios {
                jobs.push(Job {
                    bench_idx: b,
                    mode,
                    ratio,
                    adr,
                    engine,
                });
            }
        }
    }

    let telemetry = telemetry_dir_from_args(&args);
    eprintln!(
        "running {} simulations at scale {scale} ({} protocol, {} topology)...",
        jobs.len(),
        base_cfg.protocol.label(),
        base_cfg.topology.label(),
    );
    println!(
        "# machine: protocol={} topology={} sched={} ncores={}",
        base_cfg.protocol.label(),
        base_cfg.topology.label(),
        base_cfg.sched.label(),
        base_cfg.ncores,
    );
    let t0 = std::time::Instant::now();
    let results = run_jobs(scale, base_cfg, &jobs, telemetry.as_deref());
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if let Some(dir) = &telemetry {
        eprintln!("telemetry artifacts under {}", dir.display());
    }

    println!(
        "benchmark\tmode\tratio\tadr\tcycles\tdir_accesses\tdir_evictions\tllc_hit_ratio\tnoc_traffic\tl1_writebacks\tdir_occupancy\tnc_pct\ttasks\trefs\tutilization"
    );
    for r in &results {
        let s = &r.result.stats;
        println!(
            "{}\t{}\t1:{}\t{}\t{}\t{}\t{}\t{:.4}\t{}\t{}\t{:.4}\t{:.1}\t{}\t{}\t{:.3}",
            r.name,
            r.job.mode,
            r.job.ratio,
            r.job.adr,
            s.cycles,
            s.dir_accesses,
            s.dir_evictions,
            s.llc_hit_ratio(),
            s.noc_traffic,
            s.l1_writebacks,
            s.dir_avg_occupancy,
            r.result.census.noncoherent_pct(),
            r.result.tasks,
            s.refs_processed,
            s.utilization(),
        );
    }
}
