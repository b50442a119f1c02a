//! Figures 9 & 10: performance and directory dynamic energy with Adaptive
//! Directory Reduction — FullCoh 1:1, PT 1:1, RaCCD 1:1 and RaCCD+ADR,
//! normalised to FullCoh 1:1 per benchmark.
//!
//! Paper reference points: RaCCD+ADR performance ≈ RaCCD 1:1 (resizing
//! overhead negligible, few reconfigurations); ADR cuts directory dynamic
//! energy 13–78 % (avg 50 %) vs RaCCD 1:1 and 72 % vs PT 1:1; overall 86 %
//! saving vs FullCoh 1:1.

use raccd_bench::{bench_names, config_from_args, mean, run_matrix, scale_from_args};
use raccd_core::{CoherenceMode, Engine};
use raccd_energy::EnergyModel;
use raccd_sim::Stats;

fn dir_energy_pj(stats: &Stats, ncores: usize) -> f64 {
    let model = EnergyModel::default();
    stats
        .dir_access_hist
        .iter()
        .map(|&(per_bank, n)| model.dir_access_pj(per_bank * ncores as u64) * n as f64)
        .sum()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args(&args);
    let names = bench_names(scale);
    let cfg = config_from_args(scale, &args);

    let modes = [
        (CoherenceMode::FullCoh, false),
        (CoherenceMode::PageTable, false),
        (CoherenceMode::Raccd, false),
        (CoherenceMode::Raccd, true),
    ];
    let results = run_matrix(
        "fig9/10",
        scale,
        cfg,
        names.len(),
        &modes,
        &[1],
        Engine::Serial,
    );

    println!("# Figure 9: normalised performance with adaptive directory reduction");
    println!("benchmark\tFullCoh\tPT\tRaCCD\tRaCCD+ADR\treconfigs");
    let mut perf_avgs = [const { Vec::new() }; 4];
    let mut energy_avgs = [const { Vec::new() }; 4];
    let mut energy_rows = Vec::new();
    for quad in results.chunks(4) {
        let base_cycles = quad[0].result.stats.cycles as f64;
        let base_energy = dir_energy_pj(&quad[0].result.stats, cfg.ncores).max(1e-12);
        let perf: Vec<f64> = quad
            .iter()
            .map(|r| r.result.stats.cycles as f64 / base_cycles)
            .collect();
        let energy: Vec<f64> = quad
            .iter()
            .map(|r| (dir_energy_pj(&r.result.stats, cfg.ncores) / base_energy).max(0.0))
            .collect();
        println!(
            "{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{}",
            quad[0].name, perf[0], perf[1], perf[2], perf[3], quad[3].result.stats.adr_reconfigs
        );
        energy_rows.push((quad[0].name.clone(), energy.clone()));
        for i in 0..4 {
            perf_avgs[i].push(perf[i]);
            energy_avgs[i].push(energy[i]);
        }
    }
    println!(
        "Average\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t-",
        mean(&perf_avgs[0]),
        mean(&perf_avgs[1]),
        mean(&perf_avgs[2]),
        mean(&perf_avgs[3])
    );
    println!("# paper: RaCCD+ADR ≈ RaCCD 1:1 (<2% avg difference vs FullCoh, Kmeans excepted)");
    println!();
    println!("# Figure 10: normalised directory dynamic energy with ADR");
    println!("benchmark\tFullCoh\tPT\tRaCCD\tRaCCD+ADR");
    for (name, e) in &energy_rows {
        println!("{name}\t{:.3}\t{:.3}\t{:.3}\t{:.3}", e[0], e[1], e[2], e[3]);
    }
    println!(
        "Average\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
        mean(&energy_avgs[0]),
        mean(&energy_avgs[1]),
        mean(&energy_avgs[2]),
        mean(&energy_avgs[3])
    );
    println!("# paper: ADR saves 50% vs RaCCD 1:1, 72% vs PT 1:1, 86% vs FullCoh 1:1");
}
