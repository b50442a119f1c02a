//! The full fault campaign: 100+ seeded (workload × fault-plan)
//! combinations closing the loop between the fault plane and the oracle.
//!
//! Every combination must land in one of two buckets:
//!
//! * recovered — completed bit-identical to its fault-free twin with a
//!   clean collecting shadow checker, or
//! * detected — aborted loudly by the watchdog or a recovery budget.
//!
//! Silent corruption — a completed run whose memory, read checksums or
//! checker report differ from the twin — fails the campaign.

use raccd_check::{parse, run_campaign, standard_plans, Expectation, GraphParams, Verdict};
use raccd_sim::{MachineConfig, ProtocolKind};

fn small_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::scaled();
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg
}

#[test]
fn campaign_yields_zero_silent_corruptions() {
    let plans = standard_plans();
    let seeds: Vec<u64> = (1..=8).collect();
    let rep = run_campaign(small_cfg(), GraphParams::small(0), &seeds, &plans);

    assert_eq!(rep.outcomes.len(), seeds.len() * plans.len());
    assert!(
        rep.outcomes.len() >= 100,
        "campaign must cover at least 100 combinations, got {}",
        rep.outcomes.len()
    );

    let silent = rep.silent_corruptions();
    assert!(silent.is_empty(), "silent corruptions:\n{:#?}", silent);
    let fails = rep.expectation_failures(&plans);
    assert!(fails.is_empty(), "expectation failures:\n{fails:#?}");

    let (recovered, detected, silent) = rep.counts();
    assert_eq!(silent, 0);
    let detect_plans = plans
        .iter()
        .filter(|p| p.expect == Expectation::Detect)
        .count();
    assert!(
        detected >= detect_plans * seeds.len(),
        "every unrecoverable plan must be detected on every seed \
         ({detected} detected < {} expected)",
        detect_plans * seeds.len()
    );
    assert!(
        recovered >= (plans.len() - detect_plans) * seeds.len() / 2,
        "most recoverable plans should actually recover ({recovered} recovered)"
    );
}

/// A detection dump names the machine it ran on in a trace `cfg` line
/// that reads back to that machine.
#[test]
fn a_detection_dump_names_its_machine() {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("raccd-detection-dump-{pid}"));
    std::env::set_var("RACCD_CHECK_DUMP_DIR", &dir);
    let cfg = MachineConfig {
        protocol: ProtocolKind::Moesi,
        ..small_cfg()
    };
    let mut plans = standard_plans();
    plans.retain(|p| p.name == "drop-storm");
    let rep = run_campaign(cfg, GraphParams::small(0), &[1], &plans);
    assert_eq!(rep.counts().1, 1, "drop-storm is detected");
    let dump = dir.join(format!("campaign-drop-storm-seed1-{pid}.txt"));
    let dump = std::fs::read_to_string(dump).expect("detection dumped");
    let line = dump
        .lines()
        .find(|l| l.starts_with("cfg"))
        .expect("a cfg line");
    assert_eq!(line, "cfg protocol=moesi mesh_k=2");
    let (back, _, _) = parse(&format!("# raccd-check trace v2\n{line}\n")).expect("parses");
    assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_task_failures_prove_idempotent_reexecution() {
    // The task-fail plan at rate 0.4 over 12-task graphs: recovery means
    // tasks *were* re-executed and memory still matched the twin — the
    // oracle-level statement of RaCCD's retry idempotence (NC lines are
    // invalidated before the retry, so a re-run cannot observe its own
    // partial timing state).
    let plans = standard_plans();
    let task_fail = plans
        .iter()
        .find(|p| p.name == "task-fail")
        .copied()
        .unwrap();
    let seeds: Vec<u64> = (1..=6).collect();
    let rep = run_campaign(small_cfg(), GraphParams::small(0), &seeds, &[task_fail]);

    assert!(rep.silent_corruptions().is_empty());
    assert!(
        rep.recovered_task_retries() > 0,
        "campaign never exercised task re-execution"
    );
    for o in &rep.outcomes {
        if let Verdict::Recovered = o.verdict {
            let r = o.report.expect("fault report present");
            assert_eq!(r.tasks_completed, 12, "recovered runs retire every task");
        }
    }
}

#[test]
fn degradation_plan_falls_back_and_still_matches() {
    let plans = standard_plans();
    let storm = plans
        .iter()
        .find(|p| p.name == "storm-degrade")
        .copied()
        .unwrap();
    let seeds: Vec<u64> = (1..=4).collect();
    let rep = run_campaign(small_cfg(), GraphParams::small(0), &seeds, &[storm]);

    assert!(rep.silent_corruptions().is_empty());
    let degraded = rep
        .outcomes
        .iter()
        .filter(|o| o.report.is_some_and(|r| r.degraded))
        .count();
    assert!(
        degraded > 0,
        "sustained NCRT storms must trip the RaCCD→full-coherence fallback"
    );
}
