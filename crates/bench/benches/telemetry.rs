//! Telemetry overhead: the same simulation with the recorder detached
//! (`None` at every hook site) and attached. The detached run must stay
//! within the <2 % overhead budget of DESIGN.md §Observability — the hooks
//! are a single branch on a niche-optimised `Option<&mut Recorder>`.

use criterion::{criterion_group, criterion_main, Criterion};
use raccd_core::{run, CoherenceMode, RunOptions};
use raccd_obs::{Recorder, RecorderConfig};
use raccd_sim::MachineConfig;
use raccd_workloads::{all_benchmarks, Scale};

fn telemetry(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);

    g.bench_function("disabled", |b| {
        b.iter(|| {
            let w = &all_benchmarks(Scale::Test)[3]; // Jacobi
            run(
                MachineConfig::scaled(),
                CoherenceMode::Raccd,
                w.build(),
                RunOptions::default(),
            )
            .stats
            .cycles
        })
    });

    g.bench_function("enabled", |b| {
        b.iter(|| {
            let w = &all_benchmarks(Scale::Test)[3];
            let mut cfg = MachineConfig::scaled();
            cfg.record_events = true;
            let mut rec = Recorder::new(RecorderConfig::default());
            let opts = RunOptions {
                recorder: Some(&mut rec),
                ..RunOptions::default()
            };
            run(cfg, CoherenceMode::Raccd, w.build(), opts).stats.cycles
        })
    });

    g.finish();
}

criterion_group!(benches, telemetry);
criterion_main!(benches);
