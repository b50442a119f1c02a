//! SMT extension tests (§III-E): hardware threads share the L1, NC lines
//! carry a thread id, and `raccd_invalidate` flushes selectively.

use raccd::core::{CoherenceMode, Experiment};
use raccd::sim::MachineConfig;
use raccd::workloads::{all_benchmarks, jacobi::Jacobi, Scale};

#[test]
fn smt2_all_benchmarks_verify() {
    let cfg = MachineConfig {
        smt_ways: 2,
        ..MachineConfig::scaled()
    };
    for w in all_benchmarks(Scale::Test) {
        for mode in CoherenceMode::ALL {
            let run = Experiment::new(cfg, mode).run(w.as_ref());
            assert!(
                run.verified,
                "{} under {mode} SMT2: {:?}",
                w.name(),
                run.verify_error
            );
        }
    }
}

#[test]
fn smt4_runs_and_verifies() {
    let cfg = MachineConfig {
        smt_ways: 4,
        ..MachineConfig::scaled()
    };
    let w = Jacobi::new(Scale::Test);
    let run = Experiment::new(cfg, CoherenceMode::Raccd).run(&w);
    assert!(run.verified, "{:?}", run.verify_error);
}

#[test]
fn selective_flush_preserves_sibling_lines() {
    // With selective invalidation the sibling thread's NC working set
    // survives task boundaries, so strictly fewer NC lines are flushed
    // in total than with a whole-cache flush (§III-E's motivation).
    let w = Jacobi::new(Scale::Test);
    let base = MachineConfig {
        smt_ways: 2,
        ..MachineConfig::scaled()
    };

    let mut sel = base;
    sel.smt_selective_flush = true;
    let mut full = base;
    full.smt_selective_flush = false;

    let sel_run = Experiment::new(sel, CoherenceMode::Raccd).run(&w);
    let full_run = Experiment::new(full, CoherenceMode::Raccd).run(&w);
    assert!(sel_run.verified && full_run.verified);
    assert!(
        sel_run.stats.nc_lines_flushed <= full_run.stats.nc_lines_flushed,
        "selective {} vs full {}",
        sel_run.stats.nc_lines_flushed,
        full_run.stats.nc_lines_flushed
    );
}

#[test]
fn smt_is_deterministic() {
    let cfg = MachineConfig {
        smt_ways: 2,
        ..MachineConfig::scaled()
    };
    let w = Jacobi::new(Scale::Test);
    let a = Experiment::new(cfg, CoherenceMode::Raccd).run(&w);
    let b = Experiment::new(cfg, CoherenceMode::Raccd).run(&w);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.dir_accesses, b.stats.dir_accesses);
}
