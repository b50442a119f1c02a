//! One criterion bench per figure/table family, each running the relevant
//! experiment end-to-end at `Scale::Test` so `cargo bench` exercises the
//! whole evaluation matrix quickly. The `figures` binary's studies
//! (fig2/fig6/fig7/fig8/fig9_10/table3/overheads) produce the actual
//! figures at `--scale bench`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use raccd_core::{CoherenceMode, Experiment};
use raccd_sim::MachineConfig;
use raccd_workloads::{all_benchmarks, jacobi::Jacobi, Scale};

fn cfg() -> MachineConfig {
    MachineConfig::scaled()
}

fn bench_fig2_census(c: &mut Criterion) {
    c.bench_function("fig2_census_point", |b| {
        let w = Jacobi::new(Scale::Test);
        b.iter(|| {
            let run = Experiment::new(cfg(), CoherenceMode::Raccd).run(&w);
            black_box(run.census.noncoherent_pct())
        })
    });
}

fn bench_fig6_cycles(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_point");
    for (mode, ratio) in [
        (CoherenceMode::FullCoh, 1usize),
        (CoherenceMode::FullCoh, 256),
        (CoherenceMode::Raccd, 256),
    ] {
        g.bench_function(format!("{mode}_1to{ratio}"), |b| {
            let w = Jacobi::new(Scale::Test);
            let c2 = cfg().with_dir_ratio(ratio);
            b.iter(|| black_box(Experiment::new(c2, mode).run(&w).stats.cycles))
        });
    }
    g.finish();
}

fn bench_fig7_metrics(c: &mut Criterion) {
    c.bench_function("fig7_metric_collection", |b| {
        let w = Jacobi::new(Scale::Test);
        b.iter(|| {
            let run = Experiment::new(cfg(), CoherenceMode::PageTable).run(&w);
            black_box((
                run.stats.dir_accesses,
                run.stats.llc_hit_ratio(),
                run.stats.noc_traffic,
            ))
        })
    });
}

fn bench_fig8_occupancy(c: &mut Criterion) {
    c.bench_function("fig8_occupancy_point", |b| {
        let w = Jacobi::new(Scale::Test);
        b.iter(|| {
            black_box(
                Experiment::new(cfg(), CoherenceMode::FullCoh)
                    .run(&w)
                    .stats
                    .dir_avg_occupancy,
            )
        })
    });
}

fn bench_fig9_10_adr(c: &mut Criterion) {
    c.bench_function("fig9_10_adr_point", |b| {
        let w = Jacobi::new(Scale::Test);
        let c2 = cfg().with_adr(true);
        b.iter(|| {
            let run = Experiment::new(c2, CoherenceMode::Raccd).run(&w);
            black_box((run.stats.cycles, run.stats.adr_reconfigs))
        })
    });
}

fn bench_workload_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads_raccd");
    g.sample_size(10);
    let names: Vec<String> = all_benchmarks(Scale::Test)
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    for (i, name) in names.iter().enumerate() {
        g.bench_function(name, |b| {
            b.iter(|| {
                let ws = all_benchmarks(Scale::Test);
                black_box(
                    Experiment::new(cfg(), CoherenceMode::Raccd)
                        .run(ws[i].as_ref())
                        .stats
                        .cycles,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    figures,
    bench_fig2_census,
    bench_fig6_cycles,
    bench_fig7_metrics,
    bench_fig8_occupancy,
    bench_fig9_10_adr,
    bench_workload_sweep
);
criterion_main!(figures);
