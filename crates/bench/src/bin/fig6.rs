//! Figure 6: "Normalised cycles by directory size" — execution cycles for
//! FullCoh / PT / RaCCD over the seven 1:N directory configurations, each
//! benchmark normalised to its FullCoh 1:1 run.
//!
//! Paper reference points: halving the directory already costs FullCoh
//! 22 % on average and 71 % at 1:256; PT loses 15 % at 1:8; RaCCD loses
//! only 0.9 % at 1:8 and ~10 % at 1:256.

use raccd_bench::{bench_names, config_from_args, mean, run_matrix, scale_from_args};
use raccd_core::{CoherenceMode, Engine};
use raccd_sim::DIR_RATIOS;
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args(&args);
    let names = bench_names(scale);

    let modes: Vec<(CoherenceMode, bool)> =
        CoherenceMode::ALL.iter().map(|&m| (m, false)).collect();
    let results = run_matrix(
        "fig6",
        scale,
        config_from_args(scale, &args),
        names.len(),
        &modes,
        &DIR_RATIOS,
        Engine::Serial,
    );

    // cycles[(bench, mode, ratio)]
    let mut cycles: HashMap<(usize, CoherenceMode, usize), u64> = HashMap::new();
    for r in &results {
        cycles.insert(
            (r.job.bench_idx, r.job.mode, r.job.ratio),
            r.result.stats.cycles,
        );
    }

    println!(
        "# Figure 6: normalised cycles by directory size (baseline: FullCoh 1:1 per benchmark)"
    );
    let header: Vec<String> = std::iter::once("benchmark/mode".to_string())
        .chain(DIR_RATIOS.iter().map(|r| format!("1:{r}")))
        .collect();
    println!("{}", header.join("\t"));
    let mut avgs: HashMap<(CoherenceMode, usize), Vec<f64>> = HashMap::new();
    for (b, name) in names.iter().enumerate() {
        let base = cycles[&(b, CoherenceMode::FullCoh, 1)] as f64;
        for mode in CoherenceMode::ALL {
            let mut row = vec![format!("{name}/{mode}")];
            for &ratio in &DIR_RATIOS {
                let v = cycles[&(b, mode, ratio)] as f64 / base;
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
    println!(
        "# paper: FullCoh avg 1.22 @1:2, 1.71 @1:256; PT 1.15 @1:8; RaCCD 1.009 @1:8, 1.10 @1:256"
    );
}
