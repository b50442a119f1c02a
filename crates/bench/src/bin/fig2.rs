//! Figure 2: "Percentage of non-coherent cache blocks" — PT vs RaCCD per
//! benchmark plus the average, extended with the §II-B TLB-based
//! temporarily-private classifier for comparison.
//!
//! Paper reference points: RaCCD averages 78.6 % non-coherent blocks,
//! 2.9× the 26.9 % identified by PT; JPEG is ~0 % under RaCCD. The TLB
//! column is this reproduction's extension (the paper discusses but does
//! not plot it): it recovers temporarily-private data like RaCCD, at the
//! §II-B hardware costs RaCCD avoids.

use raccd_bench::chart::{chart_requested, grouped_bar_chart};
use raccd_bench::{bench_names, config_from_args, mean, run_matrix, scale_from_args};
use raccd_core::{CoherenceMode, Engine};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args(&args);
    let names = bench_names(scale);

    let modes = [
        (CoherenceMode::PageTable, false),
        (CoherenceMode::TlbClass, false),
        (CoherenceMode::Raccd, false),
    ];
    let results = run_matrix(
        "fig2",
        scale,
        config_from_args(scale, &args),
        names.len(),
        &modes,
        &[1],
        Engine::Serial,
    );

    println!("# Figure 2: percentage of non-coherent cache blocks (1:1 directory)");
    println!("benchmark\tPT\tTLB\tRaCCD");
    let mut pt_all = Vec::new();
    let mut tlb_all = Vec::new();
    let mut rc_all = Vec::new();
    for trio in results.chunks(3) {
        let pt = trio[0].result.census.noncoherent_pct();
        let tlb = trio[1].result.census.noncoherent_pct();
        let rc = trio[2].result.census.noncoherent_pct();
        println!("{}\t{:.1}\t{:.1}\t{:.1}", trio[0].name, pt, tlb, rc);
        pt_all.push(pt);
        tlb_all.push(tlb);
        rc_all.push(rc);
    }
    println!(
        "Average\t{:.1}\t{:.1}\t{:.1}",
        mean(&pt_all),
        mean(&tlb_all),
        mean(&rc_all)
    );
    println!("# paper: PT avg 26.9, RaCCD avg 78.6 (RaCCD 2.9x PT); JPEG ~0 under RaCCD");

    if chart_requested(&args) {
        let groups: Vec<(String, Vec<f64>)> = results
            .chunks(3)
            .map(|trio| {
                (
                    trio[0].name.clone(),
                    trio.iter()
                        .map(|r| r.result.census.noncoherent_pct())
                        .collect(),
                )
            })
            .collect();
        println!();
        print!(
            "{}",
            grouped_bar_chart(
                "Figure 2: % non-coherent blocks",
                &["PT", "TLB", "RaCCD"],
                &groups,
                50
            )
        );
    }
}
