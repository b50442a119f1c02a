//! Every paper table, figure and ablation from one simulation pass.
//!
//! ```text
//! cargo run --release -p raccd-bench --bin figures -- \
//!     [study...] [section...] [--scale test|bench|paper] [--out DIR] \
//!     [--protocol mesi|mesif|moesi] [--topology mesh|numa2] \
//!     [--sched fifo|steal|priority|locality|quantum] \
//!     [--telemetry DIR] [--chart]
//! ```
//!
//! Studies: `table1 table2 table3 fig2 fig6 fig7 fig8 fig9_10 overheads
//! energy_report ablations` (default: all). Sections narrow a study:
//! `fig7 accesses|llc|noc|energy`, `ablations ncrt|wt|adr|stack|smt|tlb|
//! sched|contention|jitterless`. The selected studies' cells are pooled,
//! each distinct (benchmark, system, machine) is simulated once, and
//! every study renders from the shared results. Studies print to stdout
//! in table order, or with `--out DIR` each into `DIR/<study>.txt`.
//! `fig2` and `fig8` draw bar charts on `--chart`; `--telemetry DIR`
//! dumps one artifact set per simulation.

use raccd_bench::cli::{check_fault_env, die, Cli, SIM_FLAGS};
use raccd_bench::figures::{select, simulate, Cell, Selected};
use std::io::Write;
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = [&SIM_FLAGS[..], &["--telemetry", "--out"]].concat();
    let cli = Cli::parse(&argv, &flags, &["--chart"]).unwrap_or_else(|e| die(&e));
    check_fault_env();
    let plan = select(&cli).unwrap_or_else(|e| die(&e));
    let cells: Vec<Cell> = plan.iter().flat_map(Selected::cells).collect();

    let t0 = std::time::Instant::now();
    let results = simulate(&cells, cli.scale, cli.telemetry.as_deref());
    eprintln!(
        "figures: {} simulations for {} requested cells in {:.1}s",
        results.executed(),
        cells.len(),
        t0.elapsed().as_secs_f64()
    );

    let out_dir = cli.value("--out").map(Path::new);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    for selected in &plan {
        let text = selected.render(&results);
        match out_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.txt", selected.study.name));
                std::fs::write(&path, text)
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            }
            None => std::io::stdout()
                .write_all(&text)
                .expect("writing to stdout"),
        }
    }
}
