//! Directory sizing study: how far can the directory shrink before each
//! system collapses, and what Adaptive Directory Reduction buys.
//!
//! A miniature of Figures 6 and 9/10 on one benchmark.
//!
//! ```text
//! cargo run --release --example directory_sizing
//! ```

use raccd::core::{CoherenceMode, Experiment};
use raccd::energy::EnergyModel;
use raccd::sim::{MachineConfig, DIR_RATIOS};
use raccd::workloads::{jacobi::Jacobi, Scale, Workload};

fn main() {
    // A mid-sized Jacobi: big enough (~512 KiB working set) that the small
    // directory configurations actually feel capacity pressure.
    let workload = Jacobi {
        n: 256,
        iters: 2,
        blocks: 16,
        ..Jacobi::new(Scale::Test)
    };
    let base = MachineConfig::scaled();
    println!("workload: {} ({})\n", workload.name(), workload.problem());

    println!("Static directory reduction (cycles normalised to FullCoh 1:1):");
    let full_base = Experiment::new(base, CoherenceMode::FullCoh)
        .run(&workload)
        .stats
        .cycles as f64;
    print!("{:<9}", "ratio");
    for r in DIR_RATIOS {
        print!("1:{r:<7}");
    }
    println!();
    for mode in CoherenceMode::ALL {
        print!("{:<9}", mode.label());
        for ratio in DIR_RATIOS {
            let run = Experiment::new(base.with_dir_ratio(ratio), mode).run(&workload);
            print!("{:<9.3}", run.stats.cycles as f64 / full_base);
        }
        println!();
    }

    println!("\nAdaptive directory reduction (RaCCD, 1:1 design size):");
    let model = EnergyModel::default();
    let energy = |hist: &[(u64, u64)]| -> f64 {
        hist.iter()
            .map(|&(sz, n)| model.dir_access_pj(sz * base.ncores as u64) * n as f64)
            .sum()
    };
    let fixed = Experiment::new(base, CoherenceMode::Raccd).run(&workload);
    let adr =
        Experiment::new(MachineConfig { adr: true, ..base }, CoherenceMode::Raccd).run(&workload);
    println!(
        "  fixed 1:1 : {} cycles, dir dynamic energy {:.0} pJ",
        fixed.stats.cycles,
        energy(&fixed.stats.dir_access_hist)
    );
    println!(
        "  with ADR  : {} cycles, dir dynamic energy {:.0} pJ ({} reconfigurations)",
        adr.stats.cycles,
        energy(&adr.stats.dir_access_hist),
        adr.stats.adr_reconfigs
    );
    let saving = 1.0 - energy(&adr.stats.dir_access_hist) / energy(&fixed.stats.dir_access_hist);
    println!(
        "  ADR saves {:.0}% of directory dynamic energy",
        100.0 * saving
    );
}
