//! Generic sweep CLI: run any benchmark × mode × directory-ratio matrix and
//! print every metric as TSV.
//!
//! ```text
//! cargo run --release -p raccd-bench --bin sweep -- \
//!     [--scale test|bench|paper] [--bench Jacobi,...] [--ratios 1,8,256] \
//!     [--modes FullCoh,PT,TLB,RaCCD] [--adr] [--smt N] [--wt] \
//!     [--protocol mesi|mesif|moesi] [--topology mesh|numa2] \
//!     [--sched fifo|steal|priority|locality|quantum] \
//!     [--contention] [--permuted] [--telemetry out/]
//! ```
//!
//! With `--telemetry <dir>` every job additionally runs with a recorder and
//! writes its artifact set (Perfetto trace, JSONL events, CSV time-series,
//! histogram report) into a per-job subdirectory of `dir`. A job listed
//! twice (`--ratios 1,1`) is simulated once and printed twice.

use raccd_bench::bench_names;
use raccd_bench::cli::{die, Cli, SIM_FLAGS};
use raccd_bench::figures::{machine_header, simulate, Cell};
use raccd_core::CoherenceMode;

fn main() {
    let own = ["--telemetry", "--bench", "--ratios", "--modes", "--smt"];
    let flags = [&SIM_FLAGS[..], &own].concat();
    let cli = Cli::from_env(&flags, &["--adr", "--wt", "--contention", "--permuted"]);
    let scale = cli.spec.scale;
    let names = bench_names(scale);
    let bench_sel = cli
        .benches(&names)
        .unwrap_or_else(|| (0..names.len()).collect());
    let all_ratios = raccd_sim::DIR_RATIOS.map(|r| r.to_string()).join(",");
    let ratios = cli.value("--ratios").unwrap_or(&all_ratios);
    let modes = cli
        .modes("--modes")
        .unwrap_or_else(|| CoherenceMode::ALL.to_vec());

    let mut cells = Vec::new();
    for &bench in &bench_sel {
        for &mode in &modes {
            for ratio in ratios.split(',') {
                let mut spec = cli.spec.clone();
                (spec.bench, spec.mode) = (names[bench].clone(), mode);
                let checked = spec.set("ratio", ratio);
                let checked = checked.and_then(|()| spec.machine_config().check());
                checked.unwrap_or_else(|e| die(&format!("--ratios: {e}")));
                cells.push(Cell { spec, rep: 0 });
            }
        }
    }

    eprintln!(
        "running {} simulations at scale {scale} ({} protocol, {} topology)...",
        cells.len(),
        cli.spec.protocol.label(),
        cli.spec.topology.label(),
    );
    print!("{}", machine_header(&cli.spec.machine_config()));
    let t0 = std::time::Instant::now();
    let results = simulate(&cells, cli.telemetry.as_deref());
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if let Some(dir) = &cli.telemetry {
        eprintln!("telemetry artifacts under {}", dir.display());
    }

    println!(
        "benchmark\tmode\tratio\tadr\tcycles\tdir_accesses\tdir_evictions\tllc_hit_ratio\tnoc_traffic\tl1_writebacks\tdir_occupancy\tnc_pct\ttasks\trefs\tutilization"
    );
    for cell in &cells {
        let run = results.get(cell);
        let (spec, s) = (&cell.spec, &run.stats);
        println!(
            "{}\t{}\t1:{}\t{}\t{}\t{}\t{}\t{:.4}\t{}\t{}\t{:.4}\t{:.1}\t{}\t{}\t{:.3}",
            spec.bench,
            spec.mode,
            spec.ratio,
            spec.adr,
            s.cycles,
            s.dir_accesses,
            s.dir_evictions,
            s.llc_hit_ratio(),
            s.noc_traffic,
            s.l1_writebacks,
            s.dir_avg_occupancy,
            run.census.noncoherent_pct(),
            run.tasks,
            s.refs_processed,
            s.utilization(),
        );
    }
}
