//! Figure 7: metrics by directory size — (a) directory accesses,
//! (b) LLC hit ratio, (c) NoC traffic, (d) directory dynamic energy.
//!
//! Usage: `fig7 [--scale ...] [--engine serial|parallel [--threads N]]
//! [--protocol mesi|mesif|moesi] [--topology mesh|numa2]
//! [accesses|llc|noc|energy]` — with no metric argument all four sections
//! print. The engine only changes how simulations are advanced; the
//! figures are bit-identical either way. `--protocol`/`--topology` select
//! the coherence-protocol variant and NoC shape, so the same sweep runs
//! over {MESI, MESIF, MOESI} × {mesh, numa2}.
//!
//! Paper reference points: RaCCD needs only ~26 % of FullCoh's directory
//! accesses; FullCoh LLC hit rate collapses 56 %→24 % by 1:256 while
//! RaCCD holds 51 %; NoC traffic grows 91 % for FullCoh at 1:256 vs 15 %
//! for RaCCD; RaCCD's directory dynamic energy is 71–80 % below FullCoh.

use raccd_bench::{
    bench_names, config_from_args, engine_from_args, mean, run_matrix, scale_from_args,
};
use raccd_core::CoherenceMode;
use raccd_energy::EnergyModel;
use raccd_sim::{Stats, DIR_RATIOS};
use std::collections::HashMap;

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
    let which: Vec<&str> = {
        let sel: Vec<&str> = args
            .iter()
            .skip(1)
            .filter(|a| ["accesses", "llc", "noc", "energy"].contains(&a.as_str()))
            .map(|a| a.as_str())
            .collect();
        if sel.is_empty() {
            vec!["accesses", "llc", "noc", "energy"]
        } else {
            sel
        }
    };

    let modes: Vec<(CoherenceMode, bool)> =
        CoherenceMode::ALL.iter().map(|&m| (m, false)).collect();
    let results = run_matrix(
        "fig7",
        scale,
        cfg,
        names.len(),
        &modes,
        &DIR_RATIOS,
        engine_from_args(&args),
    );

    let mut by_key: HashMap<(usize, CoherenceMode, usize), &Stats> = HashMap::new();
    for r in &results {
        by_key.insert((r.job.bench_idx, r.job.mode, r.job.ratio), &r.result.stats);
    }

    type Metric = Box<dyn Fn(&Stats) -> f64>;
    let sections: [(&str, &str, Metric, bool); 4] = [
        (
            "accesses",
            "Figure 7a: directory accesses (normalised to FullCoh 1:1)",
            Box::new(|s: &Stats| s.dir_accesses as f64),
            true,
        ),
        (
            "llc",
            "Figure 7b: LLC hit ratio (absolute)",
            Box::new(|s: &Stats| s.llc_hit_ratio()),
            false,
        ),
        (
            "noc",
            "Figure 7c: NoC traffic (normalised to FullCoh 1:1)",
            Box::new(|s: &Stats| s.noc_traffic as f64),
            true,
        ),
        (
            "energy",
            "Figure 7d: directory dynamic energy (normalised to FullCoh 1:1)",
            Box::new(move |s: &Stats| dir_energy_pj(s, cfg.ncores)),
            true,
        ),
    ];

    for (key, title, metric, normalise) in &sections {
        if !which.contains(key) {
            continue;
        }
        println!("# {title}");
        let header: Vec<String> = std::iter::once("benchmark/mode".to_string())
            .chain(DIR_RATIOS.iter().map(|r| format!("1:{r}")))
            .collect();
        println!("{}", header.join("\t"));
        let mut avgs: HashMap<(CoherenceMode, usize), Vec<f64>> = HashMap::new();
        for (b, name) in names.iter().enumerate() {
            let base = if *normalise {
                metric(by_key[&(b, CoherenceMode::FullCoh, 1)]).max(1e-12)
            } else {
                1.0
            };
            for mode in CoherenceMode::ALL {
                let mut row = vec![format!("{name}/{mode}")];
                for &ratio in &DIR_RATIOS {
                    // `.max(0.0)` normalises IEEE −0.0 from empty counters.
                    let v = (metric(by_key[&(b, mode, ratio)]) / base).max(0.0);
                    avgs.entry((mode, ratio)).or_default().push(v);
                    row.push(format!("{v:.3}"));
                }
                println!("{}", row.join("\t"));
            }
        }
        for mode in CoherenceMode::ALL {
            let mut row = vec![format!("Average/{mode}")];
            for &ratio in &DIR_RATIOS {
                row.push(format!("{:.3}", mean(&avgs[&(mode, ratio)])));
            }
            println!("{}", row.join("\t"));
        }
        println!();
    }
}
