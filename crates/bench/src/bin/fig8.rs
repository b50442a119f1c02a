//! Figure 8: "Average occupancy of the directory" — time-weighted average
//! directory occupancy per benchmark under FullCoh, PT and RaCCD at 1:1.
//!
//! Paper reference points: FullCoh 65.7 %, PT 20.3 %, RaCCD 10.8 % on
//! average.

use raccd_bench::chart::{chart_requested, grouped_bar_chart};
use raccd_bench::{bench_names, config_from_args, mean, run_matrix, scale_from_args};
use raccd_core::{CoherenceMode, Engine};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args(&args);
    let names = bench_names(scale);

    let modes: Vec<(CoherenceMode, bool)> =
        CoherenceMode::ALL.iter().map(|&m| (m, false)).collect();
    let results = run_matrix(
        "fig8",
        scale,
        config_from_args(scale, &args),
        names.len(),
        &modes,
        &[1],
        Engine::Serial,
    );

    println!("# Figure 8: average directory occupancy (%), 1:1 directory");
    println!("benchmark\tFullCoh\tPT\tRaCCD");
    let mut avgs = [Vec::new(), Vec::new(), Vec::new()];
    for trio in results.chunks(3) {
        let vals: Vec<f64> = trio
            .iter()
            .map(|r| 100.0 * r.result.stats.dir_avg_occupancy)
            .collect();
        println!(
            "{}\t{:.1}\t{:.1}\t{:.1}",
            trio[0].name, vals[0], vals[1], vals[2]
        );
        for i in 0..3 {
            avgs[i].push(vals[i]);
        }
    }
    println!(
        "Average\t{:.1}\t{:.1}\t{:.1}",
        mean(&avgs[0]),
        mean(&avgs[1]),
        mean(&avgs[2])
    );
    println!("# paper: FullCoh 65.7, PT 20.3, RaCCD 10.8");

    if chart_requested(&args) {
        let groups: Vec<(String, Vec<f64>)> = results
            .chunks(3)
            .map(|trio| {
                (
                    trio[0].name.clone(),
                    trio.iter()
                        .map(|r| 100.0 * r.result.stats.dir_avg_occupancy)
                        .collect(),
                )
            })
            .collect();
        println!();
        print!(
            "{}",
            grouped_bar_chart(
                "Figure 8: average directory occupancy (%)",
                &["FullCoh", "PT", "RaCCD"],
                &groups,
                50
            )
        );
    }
}
