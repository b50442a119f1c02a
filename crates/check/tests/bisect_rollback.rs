//! The two snapshot consumers inside the oracle, end to end:
//!
//! * the divergence bisector — identical runs never diverge; runs under
//!   different fault seeds do, and the first divergent cycle is located
//!   and dumped with both last-agreeing checkpoints;
//! * checkpoint-rollback recovery — a detected fault is absorbed by
//!   restoring the last good checkpoint with a reseeded fault plane, and
//!   a fault that is baked into every checkpoint (so replay cannot dodge
//!   it) exhausts the rollback budget and surfaces the detection.

use raccd_check::{bisect_divergence, parse, BisectSide, GraphParams, RandomGraph};
use raccd_core::{run_resilient, CoherenceMode, DetectReason, Driver, RollbackPolicy};
use raccd_runtime::Program;
use raccd_sim::{FaultPlan, MachineConfig};

fn make_small(seed: u64) -> impl Fn() -> Program {
    move || RandomGraph::new(GraphParams::small(seed)).build()
}

#[test]
fn identical_sides_never_diverge() {
    let make = make_small(7);
    let side = |label| BisectSide {
        label,
        cfg: MachineConfig::scaled(),
        mode: CoherenceMode::Raccd,
        plan: None,
        make: &make,
    };
    assert!(
        bisect_divergence(&side("a"), &side("b"), 1_000_000, 512).is_none(),
        "two builds of the same deterministic run must agree at every probe"
    );
}

#[test]
fn different_fault_seeds_diverge_and_dump() {
    let make = make_small(7);
    let plan = |seed| FaultPlan {
        seed,
        straggle: 0.5,
        straggle_cycles: 2_000,
        dir_loss: 1e-3,
        ..FaultPlan::default()
    };
    let cfg = MachineConfig::scaled().with_dir_ratio(4);
    let side = |label, seed| BisectSide {
        label,
        cfg,
        mode: CoherenceMode::Raccd,
        plan: Some(plan(seed)),
        make: &make,
    };
    let div = bisect_divergence(&side("seed1", 1), &side("seed2", 2), 1_000_000, 512)
        .expect("different fault seeds must perturb coherence state");
    assert!(div.last_agree < div.cycle);
    assert_ne!(div.key_a, div.key_b);
    let report = div.dump.expect("counterexample dumped");
    let text = std::fs::read_to_string(&report).expect("report readable");
    assert!(text.contains("first divergent probe"));
    // Both last-agreeing checkpoints sit next to the report, decodable,
    // and restore on the machine its `cfg` line names.
    let mut machines = text.lines().filter(|l| l.starts_with("cfg"));
    for side in ["a", "b"] {
        let snap = report.with_file_name(format!(
            "{}_{side}.rsnp",
            report.file_stem().unwrap().to_str().unwrap()
        ));
        let bytes = std::fs::read(&snap).expect("checkpoint dumped");
        let snap = raccd_snap::Snapshot::from_bytes(&bytes).expect("checkpoint decodes");
        let line = machines.next().expect("a cfg line per checkpoint");
        assert_eq!(line, "cfg ratio=4");
        let (named, _, _) = parse(&format!("# raccd-check trace v2\n{line}\n")).expect("parses");
        let named = MachineConfig {
            shadow_check: true,
            ..named
        };
        Driver::restore(named, CoherenceMode::Raccd, make(), &snap).expect("restores");
    }
}

#[test]
fn rollback_recovers_a_detected_drop_storm() {
    // Pinned scenario: under seed 6 this drop rate exhausts a message
    // retry budget (fatal latch -> MsgRetryBudget detection); restoring
    // the last good checkpoint with a reseeded plane dodges the storm and
    // the run completes with nothing detected.
    let plan = FaultPlan {
        seed: 6,
        drop: 0.1,
        retry_budget: 3,
        backoff_base: 16,
        backoff_cap: 256,
        ..FaultPlan::default()
    };
    let make = make_small(3);
    let policy = RollbackPolicy {
        checkpoint_interval: 2_000,
        max_rollbacks: 5,
    };
    let out = run_resilient(
        MachineConfig::scaled(),
        CoherenceMode::Raccd,
        &make,
        plan,
        policy,
        None,
    );
    let f = out.fault.expect("fault report");
    assert_eq!(f.detected, None, "rollback absorbed the detection");
    assert_eq!(f.rollbacks, 1, "exactly one rollback was needed");
    assert_eq!(out.tasks, 12, "every task retired after recovery");
}

#[test]
fn rollback_gives_up_when_the_fault_is_in_every_checkpoint() {
    // A certain task failure with zero retry budget: the failure point is
    // rolled at dispatch and lives inside the `Running` state, so every
    // checkpoint taken after dispatch replays it verbatim — rollback
    // cannot help, and after `max_rollbacks` attempts the detection must
    // surface rather than loop forever.
    let plan = FaultPlan {
        seed: 1,
        task_fail: 1.0,
        task_retry_budget: 0,
        ..FaultPlan::default()
    };
    let make = make_small(3);
    let policy = RollbackPolicy {
        checkpoint_interval: 1,
        max_rollbacks: 3,
    };
    let out = run_resilient(
        MachineConfig::scaled(),
        CoherenceMode::Raccd,
        &make,
        plan,
        policy,
        None,
    );
    let f = out.fault.expect("fault report");
    assert!(
        matches!(f.detected, Some(DetectReason::TaskRetryBudget { .. })),
        "the unrecoverable detection stays visible: {:?}",
        f.detected
    );
    assert_eq!(f.rollbacks, 3, "the whole rollback budget was spent");
}

#[test]
fn rollback_without_a_checkpoint_surfaces_detection_immediately() {
    // Same unrecoverable plan, but the checkpoint interval is so long
    // that detection precedes the first checkpoint: there is nothing to
    // roll back to, so the run gives up with zero rollbacks.
    let plan = FaultPlan {
        seed: 1,
        task_fail: 1.0,
        task_retry_budget: 0,
        ..FaultPlan::default()
    };
    let make = make_small(3);
    let policy = RollbackPolicy {
        checkpoint_interval: 500,
        max_rollbacks: 3,
    };
    let out = run_resilient(
        MachineConfig::scaled(),
        CoherenceMode::Raccd,
        &make,
        plan,
        policy,
        None,
    );
    let f = out.fault.expect("fault report");
    assert!(f.detected.is_some());
    assert_eq!(f.rollbacks, 0);
}
