//! §V-A5 component-energy report: full-processor dynamic-energy breakdown
//! (directory / LLC / NoC / rest) for FullCoh and RaCCD at 1:1 and 1:256,
//! plus RaCCD's component savings.
//!
//! Paper reference points: at the baseline the directory is 1.55 % of
//! processor energy, the NoC 15 %, the LLC 26 %; at 1:256 RaCCD saves 35 %
//! of NoC and 19 % of LLC dynamic energy vs FullCoh.

use raccd_bench::{bench_names, config_for_scale, mean, run_jobs, scale_from_args, Job};
use raccd_core::CoherenceMode;
use raccd_energy::{EnergyBreakdown, EnergyModel};
use raccd_sim::Stats;

fn breakdown(model: &EnergyModel, s: &Stats, ncores: usize, llc_kib: f64) -> EnergyBreakdown {
    let hist: Vec<(u64, u64)> = s
        .dir_access_hist
        .iter()
        .map(|&(per_bank, n)| (per_bank * ncores as u64, n))
        .collect();
    model.breakdown(
        &hist,
        s.llc_hits + s.llc_misses,
        llc_kib,
        s.noc_traffic,
        s.cycles,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args(&args);
    let names = bench_names(scale);
    let cfg = config_for_scale(scale);
    let llc_kib = (cfg.llc_entries_total() * 64) as f64 / 1024.0;
    let model = EnergyModel::default();

    let mut jobs = Vec::new();
    for b in 0..names.len() {
        for (mode, ratio) in [
            (CoherenceMode::FullCoh, 1usize),
            (CoherenceMode::Raccd, 1),
            (CoherenceMode::FullCoh, 256),
            (CoherenceMode::Raccd, 256),
        ] {
            jobs.push(Job {
                bench_idx: b,
                mode,
                ratio,
                adr: false,
                engine: raccd_core::Engine::Serial,
            });
        }
    }
    eprintln!(
        "energy_report: {} simulations at scale {scale}...",
        jobs.len()
    );
    let results = run_jobs(scale, cfg, &jobs, None);

    println!(
        "# Component dynamic-energy fractions at FullCoh 1:1 (paper: dir 1.55%, NoC 15%, LLC 26%)"
    );
    let mut dir_f = Vec::new();
    let mut noc_f = Vec::new();
    let mut llc_f = Vec::new();
    for quad in results.chunks(4) {
        let b = breakdown(&model, &quad[0].result.stats, cfg.ncores, llc_kib);
        dir_f.push(100.0 * b.directory_pj / b.total_pj());
        noc_f.push(100.0 * b.noc_pj / b.total_pj());
        llc_f.push(100.0 * b.llc_pj / b.total_pj());
    }
    println!(
        "directory {:.2}%  NoC {:.1}%  LLC {:.1}%",
        mean(&dir_f),
        mean(&noc_f),
        mean(&llc_f)
    );
    println!();
    println!("# RaCCD component savings vs FullCoh (positive = RaCCD lower)");
    println!("benchmark\tdir@1:1\tnoc@1:256\tllc@1:256");
    let mut noc_savings = Vec::new();
    let mut llc_savings = Vec::new();
    for quad in results.chunks(4) {
        let f1 = breakdown(&model, &quad[0].result.stats, cfg.ncores, llc_kib);
        let r1 = breakdown(&model, &quad[1].result.stats, cfg.ncores, llc_kib);
        let f256 = breakdown(&model, &quad[2].result.stats, cfg.ncores, llc_kib);
        let r256 = breakdown(&model, &quad[3].result.stats, cfg.ncores, llc_kib);
        let dir_sav = 100.0 * (1.0 - r1.directory_pj / f1.directory_pj.max(1e-12));
        let noc_sav = 100.0 * (1.0 - r256.noc_pj / f256.noc_pj.max(1e-12));
        let llc_sav = 100.0 * (1.0 - r256.llc_pj / f256.llc_pj.max(1e-12));
        println!(
            "{}\t{:.1}\t{:.1}\t{:.1}",
            quad[0].name, dir_sav, noc_sav, llc_sav
        );
        noc_savings.push(noc_sav);
        llc_savings.push(llc_sav);
    }
    println!(
        "Average\t-\t{:.1}\t{:.1}",
        mean(&noc_savings),
        mean(&llc_savings)
    );
    println!("# paper: at 1:256 RaCCD saves 35% of NoC and 19% of LLC dynamic energy");
}
