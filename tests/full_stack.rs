//! Cross-crate integration: every benchmark through the full simulator
//! under every coherence mode, with functional verification.

use raccd::core::{CoherenceMode, Experiment};
use raccd::sim::MachineConfig;
use raccd::workloads::{all_benchmarks, Scale};

#[test]
fn all_benchmarks_all_modes_verify() {
    for w in all_benchmarks(Scale::Test) {
        for mode in CoherenceMode::ALL {
            let run = Experiment::new(MachineConfig::scaled(), mode).run(w.as_ref());
            assert!(
                run.verified,
                "{} under {mode}: {:?}",
                w.name(),
                run.verify_error
            );
            assert!(run.stats.cycles > 0, "{}: no cycles simulated", w.name());
            assert!(run.tasks > 1, "{}: degenerate task count", w.name());
            assert_eq!(
                run.stats.tasks_executed as usize,
                run.tasks,
                "{}: task accounting mismatch",
                w.name()
            );
        }
    }
}

#[test]
fn functional_result_identical_across_modes() {
    // Coherence deactivation must never change program semantics: the
    // simulated memory verifies against the same host reference under all
    // three systems and all directory sizes.
    for w in all_benchmarks(Scale::Test) {
        for ratio in [1usize, 256] {
            let cfg = MachineConfig::scaled().with_dir_ratio(ratio);
            for mode in CoherenceMode::ALL {
                let run = Experiment::new(cfg, mode).run(w.as_ref());
                assert!(
                    run.verified,
                    "{} under {mode} 1:{ratio}: {:?}",
                    w.name(),
                    run.verify_error
                );
            }
        }
    }
}

#[test]
fn runs_are_deterministic() {
    for w in all_benchmarks(Scale::Test).iter().take(3) {
        let cfg = MachineConfig::scaled();
        let a = Experiment::new(cfg, CoherenceMode::Raccd).run(w.as_ref());
        let b = Experiment::new(cfg, CoherenceMode::Raccd).run(w.as_ref());
        assert_eq!(a.stats.cycles, b.stats.cycles, "{}", w.name());
        assert_eq!(a.stats.dir_accesses, b.stats.dir_accesses);
        assert_eq!(a.stats.noc_traffic, b.stats.noc_traffic);
        assert_eq!(a.census, b.census);
    }
}

#[test]
fn adr_preserves_functional_results() {
    for w in all_benchmarks(Scale::Test) {
        let cfg = MachineConfig {
            adr: true,
            ..MachineConfig::scaled()
        };
        let run = Experiment::new(cfg, CoherenceMode::Raccd).run(w.as_ref());
        assert!(run.verified, "{} + ADR: {:?}", w.name(), run.verify_error);
    }
}

#[test]
fn ncrt_latency_zero_also_works() {
    // §V-C compares against an ideal zero-latency NCRT.
    let mut cfg = MachineConfig::scaled();
    cfg.lat.ncrt = 0;
    for w in all_benchmarks(Scale::Test).iter().take(2) {
        let run = Experiment::new(cfg, CoherenceMode::Raccd).run(w.as_ref());
        assert!(run.verified);
    }
}

#[test]
fn paper_machine_geometry_runs() {
    // The Table I machine (32 MiB LLC, 524288-entry directory) must also
    // simulate correctly, if more slowly.
    let run = Experiment::new(MachineConfig::paper(), CoherenceMode::Raccd)
        .run(all_benchmarks(Scale::Test)[3].as_ref()); // Jacobi
    assert!(run.verified);
    assert_eq!(run.stats.dir_evictions, 0, "huge directory never evicts");
}
