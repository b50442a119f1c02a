//! Regression: a hand-built two-core message-drop deadlock is *detected*
//! (never silently wrong), and the dumped trace replays to the same stuck
//! state.
//!
//! The synchronous NoC cannot literally deadlock — a message that
//! exhausts its retry budget is force-delivered and the plane latches its
//! fatal flag — so "stuck" here means: the fatal latch at machine level,
//! and the progress watchdog at driver level when the retry storm pushes
//! cycle time past the no-progress threshold before any task can retire.

use raccd_check::{
    parse, replay, serialize, write_counterexample, CheckedMachine, GraphParams, RandomGraph,
    TraceOp,
};
use raccd_core::{run, CoherenceMode, DetectReason, RunOptions};
use raccd_sim::{FaultPlan, MachineConfig};

// Smallest legal mesh (the machine requires one core per tile); the
// hand-built deadlock only ever touches cores 0 and 1.
fn two_core_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::scaled();
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg
}

/// Core 0 and core 1 ping-pong ownership of one block while every
/// coherence message is dropped: the invalidation/fill traffic burns the
/// whole retry budget on the very first exchange.
fn deadlock_ops() -> Vec<TraceOp> {
    vec![
        TraceOp::Access {
            core: 0,
            block: 0x40,
            write: true,
            nc: false,
        },
        TraceOp::Access {
            core: 1,
            block: 0x40,
            write: true,
            nc: false,
        },
        TraceOp::Access {
            core: 0,
            block: 0x40,
            write: false,
            nc: false,
        },
    ]
}

#[test]
fn watchdog_fires_on_message_drop_stall() {
    // Driver level: most messages dropped, with a retry budget far beyond
    // what any message needs (so the fatal latch never fires) and a long
    // backoff. Every miss burns tens of thousands of cycles in retries,
    // so simulated time blows past the watchdog threshold before any task
    // can retire its full trace — a drop-induced stall only the progress
    // watchdog can detect.
    let plan = FaultPlan::from_spec(
        "seed=3;drop=0.9;retry_budget=1000000;backoff=4096:4096;watchdog=50000",
    )
    .unwrap();
    let program = RandomGraph::new(GraphParams::small(1)).build();
    let opts = RunOptions {
        faults: Some(plan),
        ..RunOptions::default()
    };
    let out = run(two_core_cfg(), CoherenceMode::Raccd, program, opts);

    let report = out.fault.expect("fault report present");
    assert!(
        matches!(report.detected, Some(DetectReason::Watchdog { .. })),
        "expected watchdog detection, got {:?}",
        report.detected
    );
    assert_eq!(out.stats.watchdog_fires, 1);
    assert_eq!(report.tasks_completed, 0, "stall precedes any completion");
}

#[test]
fn dumped_deadlock_trace_replays_to_same_stuck_state() {
    let cfg = two_core_cfg();
    let plan = FaultPlan::from_spec("seed=7;drop=1;retry_budget=2").unwrap();

    let mut m = CheckedMachine::with_faults(cfg, plan);
    for op in deadlock_ops() {
        m.apply(op);
    }
    assert!(m.stalled(), "certain drop must exhaust the retry budget");
    let key = m.state_key();
    assert!(
        m.drain_violations().is_empty(),
        "force-delivery keeps the protocol consistent even when stuck"
    );

    // Dump with the fault directive, parse the dump back, replay: the
    // replay must reach the same stuck state (same fingerprint, same
    // fatal latch, still invariant-clean).
    let text = serialize(&cfg, Some(&plan), &deadlock_ops());
    let (cfg2, plan2, ops2) = parse(&text).expect("own dump must parse");
    assert_eq!(plan2, Some(plan), "fault directive survives the round trip");
    let mut replayed = replay(cfg2, plan2.as_ref(), &ops2);
    assert!(replayed.stalled());
    assert_eq!(replayed.state_key(), key);
    assert!(replayed.drain_violations().is_empty());
}

#[test]
fn deadlock_counterexample_file_round_trips() {
    let cfg = two_core_cfg();
    let plan = FaultPlan::from_spec("seed=7;drop=1;retry_budget=2").unwrap();
    let ops = deadlock_ops();

    let path =
        write_counterexample(&cfg, Some(&plan), &ops, "deadlock", &[]).expect("dump must succeed");
    let text = std::fs::read_to_string(&path).expect("dump must be readable");
    let (cfg2, plan2, ops2) = parse(&text).expect("dump must parse");
    assert_eq!(ops2, ops);
    let mut replayed = replay(cfg2, plan2.as_ref(), &ops2);
    assert!(replayed.stalled());
    assert!(replayed.drain_violations().is_empty());
    std::fs::remove_file(path).ok();
}
