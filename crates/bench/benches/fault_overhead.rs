//! Fault-plane overhead: the same simulation with no plane attached,
//! with a zero-rate plane (resilience machinery armed, nothing injected
//! — must be perf-neutral: every protocol path keeps the plane behind a
//! single never-taken branch), and with a light mixed NoC plan for scale.

use criterion::{criterion_group, criterion_main, Criterion};
use raccd_core::{run, CoherenceMode, RunOptions};
use raccd_sim::{FaultPlan, MachineConfig};
use raccd_workloads::{all_benchmarks, Scale};

fn with_plan(plan: FaultPlan) -> RunOptions<'static> {
    RunOptions {
        faults: Some(plan),
        ..RunOptions::default()
    }
}

fn fault_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_overhead");
    g.sample_size(10);

    g.bench_function("no_plane", |b| {
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

    g.bench_function("zero_rate_plane", |b| {
        b.iter(|| {
            let w = &all_benchmarks(Scale::Test)[3];
            run(
                MachineConfig::scaled(),
                CoherenceMode::Raccd,
                w.build(),
                with_plan(FaultPlan::default()),
            )
            .stats
            .cycles
        })
    });

    g.bench_function("light_noc_faults", |b| {
        let plan = FaultPlan::from_spec("seed=42;drop=0.005;corrupt=0.002;delay=0.01:16")
            .expect("valid spec");
        b.iter(|| {
            let w = &all_benchmarks(Scale::Test)[3];
            run(
                MachineConfig::scaled(),
                CoherenceMode::Raccd,
                w.build(),
                with_plan(plan),
            )
            .stats
            .cycles
        })
    });

    g.finish();
}

criterion_group!(benches, fault_overhead);
criterion_main!(benches);
