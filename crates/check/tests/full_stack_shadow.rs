//! Full-stack runs with the shadow checker attached: real benchmarks,
//! real runtime (registration, invalidation, scheduling), every coherence
//! mode — the oracle must stay silent end to end.
//!
//! The fail-fast checker inside the machine panics (with a recent-event
//! dump) on the first invariant violation, so a passing test here means
//! zero violations across every load/store of the whole program, plus a
//! clean final mirror-versus-machine audit from `Machine::finalize`.

use raccd_core::{run, CoherenceMode, Experiment, RunOptions};
use raccd_runtime::Workload;
use raccd_sim::MachineConfig;
use raccd_workloads::{cholesky::Cholesky, histo::Histo, jacobi::Jacobi, Scale};

fn shadow_cfg() -> MachineConfig {
    MachineConfig {
        shadow_check: true,
        ..MachineConfig::scaled()
    }
}

fn run_checked(w: &dyn Workload, cfg: MachineConfig, mode: CoherenceMode) {
    let out = run(cfg, mode, w.build(), RunOptions::default());
    let report = out
        .check
        .expect("shadow checker must have been attached and produce a report");
    assert!(
        report.violations.is_empty(),
        "{} under {mode}: {:?}",
        w.name(),
        report.violations
    );
    assert!(report.stats.reads_checked > 0, "oracle saw no reads");
    assert!(report.stats.audits > 0, "final audit did not run");
    w.verify(&out.mem)
        .unwrap_or_else(|e| panic!("{} under {mode} failed verify: {e}", w.name()));
}

/// Jacobi under all four coherence modes with the oracle attached.
#[test]
fn jacobi_all_modes_shadow_clean() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    for mode in CoherenceMode::ALL {
        run_checked(&w, shadow_cfg(), mode);
    }
}

/// Cholesky (the richest dependence structure) under RaCCD and baseline.
#[test]
fn cholesky_shadow_clean() {
    let w = Cholesky {
        tiles: 3,
        t: 6,
        seed: 5,
    };
    for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
        run_checked(&w, shadow_cfg(), mode);
    }
}

/// A reduction-heavy workload on a reduced, ADR-managed directory — the
/// paper's headline configuration — with the oracle watching.
#[test]
fn histo_reduced_directory_adr_shadow_clean() {
    let w = Histo::new(Scale::Test);
    let cfg = MachineConfig {
        adr: true,
        ..shadow_cfg().with_dir_ratio(16)
    };
    run_checked(&w, cfg, CoherenceMode::Raccd);
}

/// The `Experiment` front door honours `shadow_check` too (the checker
/// rides inside the machine; a violation would panic the run).
#[test]
fn experiment_api_with_shadow_checker() {
    let w = Jacobi {
        n: 16,
        iters: 1,
        blocks: 2,
        ..Jacobi::new(Scale::Test)
    };
    let r = Experiment::new(shadow_cfg(), CoherenceMode::Raccd).run(&w);
    assert!(r.verified, "{:?}", r.verify_error);
}
