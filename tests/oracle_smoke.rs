//! Tier-1 reach: one cheap case per oracle layer, so the root
//! `cargo test -q` (which runs only this facade package) drives the driver
//! through every layer the workspace suites cover in depth — the shadow
//! checker, the fault plane, snapshot/restore and the run options.
//! Test-scale Jacobi under RaCCD throughout;
//! the deep versions live in `crates/check/tests` and `crates/core/tests`.

use raccd::core::{run, CoherenceMode, Driver, DriverOutput, RunOptions};
use raccd::obs::Recorder;
use raccd::runtime::Program;
use raccd::sim::{FaultPlan, MachineConfig};
use raccd::workloads::{jacobi::Jacobi, Scale, Workload};

const MODE: CoherenceMode = CoherenceMode::Raccd;

fn cfg() -> MachineConfig {
    MachineConfig {
        shadow_check: true,
        ..MachineConfig::scaled()
    }
}

fn program() -> Program {
    Jacobi::new(Scale::Test).build()
}

/// Step a run to its end by hand, so the shadow checker's final
/// `state_key` can be read before `finish` tears the machine down.
fn finish_keyed(mut d: Driver) -> (Option<String>, DriverOutput) {
    while d.step(None) {}
    let key = d.shadow_state_key();
    (key, d.finish(None))
}

fn reference() -> (Option<String>, DriverOutput) {
    finish_keyed(Driver::new(cfg(), MODE, program(), None, None))
}

#[test]
fn shadow_checked_run_is_clean_and_verifies() {
    let (key, out) = reference();
    assert!(key.is_some(), "checker attached");
    let report = out.check.expect("checker attached");
    assert!(report.clean(), "violations: {:?}", report.violations);
    Jacobi::new(Scale::Test).verify(&out.mem).expect("verifies");
}

#[test]
fn recovered_faults_leave_the_outcome_alone() {
    let (_, clean) = reference();
    // A zero-rate plan arms the whole resilience machinery and must be
    // neutral to the last counter.
    let armed = RunOptions {
        faults: Some(FaultPlan::default()),
        ..RunOptions::default()
    };
    assert_eq!(run(cfg(), MODE, program(), armed).stats, clean.stats);
    // Injected NoC faults cost cycles, never correctness.
    let plan = FaultPlan::from_spec("seed=42;drop=0.02;corrupt=0.01;delay=0.02:32").unwrap();
    let faulty = RunOptions {
        faults: Some(plan),
        ..RunOptions::default()
    };
    let out = run(cfg(), MODE, program(), faulty);
    let report = out.fault.expect("plane attached");
    assert!(report.recovered(), "{report:?}");
    assert!(report.stats.injected > 0, "faults were actually injected");
    assert!(out.check.expect("checker attached").clean());
    Jacobi::new(Scale::Test).verify(&out.mem).expect("verifies");
    assert_eq!(out.stats.tasks_executed, clean.stats.tasks_executed);
    assert_eq!(out.stats.refs_processed, clean.stats.refs_processed);
    assert!(out.stats.cycles >= clean.stats.cycles);
}

#[test]
fn mid_run_snapshot_restores_to_the_same_end() {
    let (key, whole) = reference();
    let mut paused = Driver::new(cfg(), MODE, program(), None, None);
    assert!(paused.run_until(whole.stats.cycles / 2, None), "mid-run");
    let snap = paused.snapshot();
    let restored = Driver::restore(cfg(), MODE, program(), &snap).expect("restore");
    for resumed in [restored, paused] {
        let (rkey, out) = finish_keyed(resumed);
        assert_eq!(out.stats, whole.stats);
        assert_eq!(rkey, key);
    }
}

/// The recorder only observes.
#[test]
fn recorded_run_equals_plain() {
    let (_, plain) = reference();
    let mut rec = Recorder::default();
    let opts = RunOptions {
        recorder: Some(&mut rec),
        ..RunOptions::default()
    };
    let out = run(cfg(), MODE, program(), opts);
    assert_eq!(out.stats, plain.stats);
    assert_eq!(rec.hist_mem_latency.count(), out.stats.refs_processed);
}
