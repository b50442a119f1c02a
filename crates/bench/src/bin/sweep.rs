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

/// A `flag` value that counts something the machine divides by
/// (`--ratios`, `--smt`): an integer of at least 1, or exit 2.
fn positive(flag: &str, text: &str) -> usize {
    match text.parse() {
        Ok(n) if n > 0 => n,
        _ => die(&format!("{flag}: bad number `{text}` (want 1 or more)")),
    }
}

fn main() {
    let own = ["--telemetry", "--bench", "--ratios", "--modes", "--smt"];
    let flags = [&SIM_FLAGS[..], &own].concat();
    let cli = Cli::from_env(&flags, &["--adr", "--wt", "--contention", "--permuted"]);
    let scale = cli.scale;
    let names = bench_names(scale);
    let bench_sel = cli
        .benches(&names)
        .unwrap_or_else(|| (0..names.len()).collect());
    let ratios: Vec<usize> = match cli.value("--ratios") {
        Some(sel) => sel.split(',').map(|x| positive("--ratios", x)).collect(),
        None => raccd_sim::DIR_RATIOS.to_vec(),
    };
    let modes = cli
        .modes("--modes")
        .unwrap_or_else(|| CoherenceMode::ALL.to_vec());

    let mut base_cfg = cli
        .cfg
        .with_adr(cli.has("--adr"))
        .with_smt(
            cli.value("--smt")
                .map_or(cli.cfg.smt_ways, |v| positive("--smt", v)),
        )
        .with_write_through(cli.has("--wt"))
        .with_contention(cli.has("--contention"));
    base_cfg.permuted_pages = cli.has("--permuted");

    let mut cells = Vec::new();
    for &bench in &bench_sel {
        for &mode in &modes {
            for &ratio in &ratios {
                cells.push(Cell {
                    bench,
                    mode,
                    cfg: base_cfg.with_dir_ratio(ratio),
                    rep: 0,
                });
            }
        }
    }

    eprintln!(
        "running {} simulations at scale {scale} ({} protocol, {} topology)...",
        cells.len(),
        base_cfg.protocol.label(),
        base_cfg.topology.label(),
    );
    print!("{}", machine_header(&base_cfg));
    let t0 = std::time::Instant::now();
    let results = simulate(&cells, scale, cli.telemetry.as_deref());
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if let Some(dir) = &cli.telemetry {
        eprintln!("telemetry artifacts under {}", dir.display());
    }

    println!(
        "benchmark\tmode\tratio\tadr\tcycles\tdir_accesses\tdir_evictions\tllc_hit_ratio\tnoc_traffic\tl1_writebacks\tdir_occupancy\tnc_pct\ttasks\trefs\tutilization"
    );
    for cell in &cells {
        let run = results.get(cell);
        let s = &run.stats;
        println!(
            "{}\t{}\t1:{}\t{}\t{}\t{}\t{}\t{:.4}\t{}\t{}\t{:.4}\t{:.1}\t{}\t{}\t{:.3}",
            names[cell.bench],
            cell.mode,
            cell.cfg.dir_ratio,
            cell.cfg.adr,
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
