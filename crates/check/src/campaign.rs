//! Seeded fault campaigns: the closed loop between the fault plane and
//! the coherence oracle.
//!
//! A campaign crosses seeded random task-parallel workloads (see
//! [`crate::taskgen`]) with a matrix of [`FaultPlan`]s and demands, for
//! every combination, one of exactly two outcomes:
//!
//! * **Recovered** — the run completed; its final memory image and every
//!   per-task read checksum are bit-identical to a fault-free twin of the
//!   same workload seed, and the collecting shadow checker reports zero
//!   invariant violations on both sides. When the plan injected task
//!   failures, recovery exercised task re-execution — which is only sound
//!   because RaCCD invalidates a task's non-coherent lines before the
//!   retry, making re-execution idempotent (the campaign asserts exactly
//!   that: retries happened *and* memory still matches).
//! * **Detected** — the run was aborted loudly: the progress watchdog
//!   fired, a message retry budget was exhausted, or a task exhausted its
//!   re-execution budget. A replayable description of the combination is
//!   dumped to the counterexample directory.
//!
//! Anything else — a completed run whose memory, read log or checker
//! report differs from the twin — is a **silent corruption**, the one
//! outcome the resilience machinery exists to rule out.

use crate::diff::first_mem_diff;
use crate::taskgen::{GraphParams, RandomGraph};
use crate::trace::{cfg_line, dump_dir};
use raccd_core::{run, CoherenceMode, DetectReason, FaultReport, RunOptions};
use raccd_mem::SimMemory;
use raccd_sim::{CheckReport, FaultPlan, MachineConfig};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

/// What a plan is expected to do to a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Every injection is recoverable: the run must complete and match
    /// its fault-free twin bit for bit.
    Recover,
    /// The plan exceeds the recovery budgets by construction: the run
    /// must end *detected* (watchdog / retry budget / task budget) —
    /// never complete with wrong results.
    Detect,
}

/// One named plan of the campaign matrix.
#[derive(Clone, Copy, Debug)]
pub struct CampaignPlan {
    /// Short name used in reports and dump file names.
    pub name: &'static str,
    /// The outcome this plan must produce.
    pub expect: Expectation,
    /// The injection plan (its `seed` is re-derived per combination).
    pub plan: FaultPlan,
}

/// The verdict of one (workload seed × plan) combination.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Completed, bit-identical to the fault-free twin, clean checker.
    Recovered,
    /// Aborted loudly with this reason.
    Detected(DetectReason),
    /// Completed with results that differ from the twin, or with shadow
    /// checker violations: the failure mode the machinery must rule out.
    SilentCorruption(String),
}

/// One combination's full result.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Seed of the generated workload graph.
    pub workload_seed: u64,
    /// Name of the plan that was injected.
    pub plan_name: &'static str,
    /// The exact plan, rendered as a replayable spec string.
    pub spec: String,
    /// The verdict.
    pub verdict: Verdict,
    /// The driver's fault report (injection counters, degradation flag).
    pub report: Option<FaultReport>,
}

/// Aggregated campaign results.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Every combination's outcome, in execution order.
    pub outcomes: Vec<CampaignOutcome>,
}

impl CampaignReport {
    /// Combinations that ended in silent corruption (must be empty).
    pub fn silent_corruptions(&self) -> Vec<&CampaignOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.verdict, Verdict::SilentCorruption(_)))
            .collect()
    }

    /// Combinations whose verdict contradicts their plan's expectation:
    /// a `Detect` plan that was not detected, or a `Recover` plan that
    /// corrupted silently. (`Recover` plans that end *detected* are
    /// tolerated — loud is always acceptable.)
    pub fn expectation_failures(&self, plans: &[CampaignPlan]) -> Vec<String> {
        let expect = |name: &str| {
            plans
                .iter()
                .find(|p| p.name == name)
                .map(|p| p.expect)
                .unwrap_or(Expectation::Recover)
        };
        self.outcomes
            .iter()
            .filter_map(|o| match (expect(o.plan_name), &o.verdict) {
                (Expectation::Detect, Verdict::Detected(_)) => None,
                (Expectation::Detect, v) => Some(format!(
                    "seed {} plan {} ({}): expected detection, got {v:?}",
                    o.workload_seed, o.plan_name, o.spec
                )),
                (Expectation::Recover, Verdict::SilentCorruption(why)) => Some(format!(
                    "seed {} plan {} ({}): silent corruption: {why}",
                    o.workload_seed, o.plan_name, o.spec
                )),
                (Expectation::Recover, _) => None,
            })
            .collect()
    }

    /// `(recovered, detected, silent)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for o in &self.outcomes {
            match o.verdict {
                Verdict::Recovered => c.0 += 1,
                Verdict::Detected(_) => c.1 += 1,
                Verdict::SilentCorruption(_) => c.2 += 1,
            }
        }
        c
    }

    /// Total task re-executions across every recovered combination —
    /// the campaign's evidence that idempotent retry actually ran.
    pub fn recovered_task_retries(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.verdict, Verdict::Recovered))
            .filter_map(|o| o.report.as_ref())
            .map(|r| r.task_retries)
            .sum()
    }
}

/// The standard campaign matrix: per-site recoverable plans, a mixed NoC
/// plan, a degradation plan, and three by-construction-unrecoverable
/// plans that must be detected. Rates are sized for the small generated
/// graphs (a few thousand messages per run).
pub fn standard_plans() -> Vec<CampaignPlan> {
    let p = |name, expect, spec: &str| CampaignPlan {
        name,
        expect,
        plan: FaultPlan::from_spec(spec).unwrap_or_else(|e| panic!("plan {name}: {e}")),
    };
    use Expectation::{Detect, Recover};
    vec![
        p("baseline", Recover, ""),
        p("drop-light", Recover, "drop=0.02"),
        p("dup", Recover, "dup=0.05"),
        p("corrupt", Recover, "corrupt=0.02"),
        p("delay", Recover, "delay=0.05:32"),
        p(
            "noc-mixed",
            Recover,
            "drop=0.01;dup=0.02;corrupt=0.01;delay=0.03:24",
        ),
        p("dir-loss", Recover, "dirloss=0.02"),
        p("task-fail", Recover, "taskfail=0.4"),
        p("straggler", Recover, "straggle=0.2:2000"),
        p("windowed-burst", Recover, "drop=0.3;window=0:20000"),
        p(
            "storm-degrade",
            Recover,
            "storm=0.9:100000;degrade=1000000:4:1000000",
        ),
        p("drop-storm", Detect, "drop=1;retry_budget=2"),
        p("task-crashloop", Detect, "taskfail=1;task_budget=1"),
        p("hang", Detect, "straggle=1:500000;watchdog=100000"),
    ]
}

/// A fault-free reference execution of one workload seed.
struct Twin {
    mem: SimMemory,
    reads: Vec<(String, u64)>,
    check: Option<CheckReport>,
}

fn run_twin(cfg: MachineConfig, params: GraphParams) -> Twin {
    let log = Rc::new(RefCell::new(Vec::new()));
    let program = RandomGraph::new(params).build_logged(Rc::clone(&log));
    let out = run(cfg, CoherenceMode::Raccd, program, RunOptions::default());
    let mut reads = log.borrow().clone();
    reads.sort();
    Twin {
        mem: out.mem,
        reads,
        check: out.check,
    }
}

/// Run one (workload seed × plan) combination under RaCCD with the
/// collecting shadow checker attached and judge the outcome against the
/// fault-free `twin`.
fn run_one(
    cfg: MachineConfig,
    params: GraphParams,
    cplan: &CampaignPlan,
    plan: FaultPlan,
    twin: &Twin,
) -> CampaignOutcome {
    let log = Rc::new(RefCell::new(Vec::new()));
    let program = RandomGraph::new(params).build_logged(Rc::clone(&log));
    let opts = RunOptions {
        faults: Some(plan),
        ..RunOptions::default()
    };
    let out = run(cfg, CoherenceMode::Raccd, program, opts);
    let report = out.fault;
    let spec = plan.to_spec();

    let verdict = match report.as_ref().and_then(|r| r.detected) {
        Some(reason) => {
            let _ = dump_detection(&cfg, params, &spec, cplan.name, reason);
            Verdict::Detected(reason)
        }
        None => {
            let mut reads = log.borrow().clone();
            reads.sort();
            let mut problems: Vec<String> = Vec::new();
            if let Some(diff) = first_mem_diff(&out.mem, &twin.mem) {
                problems.push(format!("memory differs from twin: {diff}"));
            }
            if reads != twin.reads {
                problems.push("task read checksums differ from twin".into());
            }
            for (side, check) in [("faulty", &out.check), ("twin", &twin.check)] {
                match check {
                    Some(r) if !r.clean() => {
                        problems.push(format!(
                            "{side} checker unclean: {} violations",
                            r.violations.len()
                        ));
                    }
                    Some(_) => {}
                    None => problems.push(format!("{side} run had no shadow checker")),
                }
            }
            if problems.is_empty() {
                Verdict::Recovered
            } else {
                Verdict::SilentCorruption(problems.join("; "))
            }
        }
    };

    CampaignOutcome {
        workload_seed: params.seed,
        plan_name: cplan.name,
        spec,
        verdict,
        report,
    }
}

/// Dump a replayable description of a detected combination next to the
/// trace-level counterexamples: machine (a trace `cfg` line), workload
/// shape, fault spec and reason.
fn dump_detection(
    cfg: &MachineConfig,
    params: GraphParams,
    spec: &str,
    plan_name: &str,
    reason: DetectReason,
) -> std::io::Result<PathBuf> {
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let text = format!(
        "# raccd-check campaign detection\n\
         # rerun: RandomGraph(GraphParams below) under CoherenceMode::Raccd\n\
         {}\n\
         graph seed={} layers={} width={} fan_in={} words={}\n\
         fault spec={spec}\n\
         # detected: {reason:?}\n",
        cfg_line(cfg),
        params.seed,
        params.layers,
        params.width,
        params.fan_in,
        params.words,
    );
    let path = dir.join(format!(
        "campaign-{plan_name}-seed{}-{}.txt",
        params.seed,
        std::process::id()
    ));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Cross `seeds` workloads (shape from `base`, seed substituted) with
/// `plans`. Each combination gets its own derived fault seed so no two
/// runs share an injection stream; one fault-free twin per workload seed
/// serves as the bit-identity reference for all its combinations.
pub fn run_campaign(
    mut cfg: MachineConfig,
    base: GraphParams,
    seeds: &[u64],
    plans: &[CampaignPlan],
) -> CampaignReport {
    // A detected corruption is reported, not a panic of the harness.
    cfg.shadow_collect = true;
    let mut report = CampaignReport::default();
    for &seed in seeds {
        let params = GraphParams { seed, ..base };
        let twin = run_twin(cfg, params);
        for (idx, cplan) in plans.iter().enumerate() {
            let plan = FaultPlan {
                seed: seed.wrapping_mul(1000).wrapping_add(idx as u64 + 1),
                ..cplan.plan
            };
            report
                .outcomes
                .push(run_one(cfg, params, cplan, plan, &twin));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::scaled();
        cfg.ncores = 4;
        cfg.mesh_k = 2;
        cfg
    }

    #[test]
    fn single_combo_recovers() {
        let plans = standard_plans();
        let noc = plans
            .iter()
            .find(|p| p.name == "noc-mixed")
            .copied()
            .unwrap();
        let rep = run_campaign(small_cfg(), GraphParams::small(0), &[5], &[noc]);
        assert_eq!(rep.outcomes.len(), 1);
        assert!(
            matches!(rep.outcomes[0].verdict, Verdict::Recovered),
            "{:?}",
            rep.outcomes[0]
        );
        let r = rep.outcomes[0].report.expect("fault report present");
        assert!(r.stats.injected > 0, "plan must actually inject");
    }

    #[test]
    fn single_combo_detects() {
        let plans = standard_plans();
        let storm = plans
            .iter()
            .find(|p| p.name == "drop-storm")
            .copied()
            .unwrap();
        let rep = run_campaign(small_cfg(), GraphParams::small(0), &[5], &[storm]);
        assert!(
            matches!(
                rep.outcomes[0].verdict,
                Verdict::Detected(DetectReason::MsgRetryBudget)
            ),
            "{:?}",
            rep.outcomes[0]
        );
        assert!(rep.expectation_failures(&plans).is_empty());
    }
}
