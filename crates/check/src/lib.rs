#![warn(missing_docs)]

//! The coherence correctness oracle around the RaCCD machine model.
//!
//! Three attack angles, layered on the shadow golden-memory checker that
//! lives inside `raccd-sim` ([`raccd_sim::ShadowChecker`]):
//!
//! * [`harness`] — a [`harness::CheckedMachine`] wraps a machine with a
//!   violation-collecting shadow checker and applies trace operations,
//!   so any failure is immediately a replayable trace.
//! * [`trace`] — the counterexample format: a tiny text serialisation of
//!   (machine knobs, operation sequence) with parse / replay / greedy
//!   minimisation / dump-to-disk helpers. A violation anywhere in this
//!   crate leaves a file a test helper can re-run verbatim.
//! * [`mod@explore`] — exhaustive breadth-first enumeration of *all*
//!   interleavings of a few cores over a few blocks, deduplicated by the
//!   checker's canonical state fingerprint, asserting every invariant in
//!   every reachable state.
//! * [`taskgen`] + [`diff`] — seeded random task-parallel programs run
//!   end-to-end under RaCCD and under full MESI coherence; final memory
//!   images must match bit for bit and every per-task read value must be
//!   coherent.
//! * [`bisect`] — divergence bisection: two runs expected to evolve
//!   identically are probed by shadow state key; on disagreement the
//!   bisector restores the last agreeing whole-machine checkpoint
//!   (`raccd-snap`) and refines, pinpointing the first divergent cycle
//!   without ever re-simulating a prefix.
//! * [`campaign`] — seeded fault campaigns closing the loop with the
//!   fault plane (`raccd-fault`): workload × fault-plan matrices where
//!   every recovered run must be bit-identical to its fault-free twin and
//!   every unrecoverable plan must be *detected*, never silently wrong.

pub mod bisect;
pub mod campaign;
pub mod diff;
pub mod explore;
pub mod harness;
pub mod taskgen;
pub mod trace;

pub use bisect::{bisect_divergence, BisectSide, Divergence};
pub use campaign::{
    run_campaign, standard_plans, CampaignOutcome, CampaignPlan, CampaignReport, Expectation,
    Verdict,
};
pub use diff::{run_differential, DiffOutcome};
pub use explore::{explore, ExploreConfig, ExploreResult};
pub use harness::CheckedMachine;
pub use taskgen::{GraphParams, RandomGraph};
pub use trace::{cfg_line, minimize, parse, replay, serialize, write_counterexample, TraceOp};
