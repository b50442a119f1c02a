//! What every workload gives the measuring loop.

use crate::names;
use crate::trace::Tracer;
use raccd_sim::Stats;
use std::collections::BTreeMap;

/// Host seconds of one piece of a rep. Every rep of a workload does the
/// same pieces of work in the same order, so piece `i` of one rep
/// compares with piece `i` of another.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Part {
    pub secs: f64,
    /// Whether the piece belongs to the simulate phase (`refs_per_s`).
    pub sim: bool,
}

/// The outcome of one rep: host timings, checked operations, and the
/// simulated statistics, which must not differ between reps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Host seconds for the whole rep.
    pub wall_s: f64,
    /// Host seconds of the rep's simulate phase(s).
    pub sim_s: f64,
    /// The rep cut into pieces that add up to `wall_s`.
    pub parts: Vec<Part>,
    /// Simulated references processed in `sim_s`.
    pub refs: u64,
    /// Jobs that reached a checked outcome.
    pub jobs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (empty on a clean rep).
    pub errors: Vec<String>,
    /// Simulated statistics summed over the rep's runs.
    pub stats: Stats,
    /// One Stats digest per cell; compared with rep 0 and the golden.
    pub digests: Vec<u64>,
    /// Per-cell statistics and host milliseconds (simulator workloads).
    pub cell_stats: Vec<Stats>,
    pub cell_ms: Vec<f64>,
}

impl Rep {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Note a piece outside the simulate phase; returns its seconds.
    pub fn part(&mut self, secs: f64) -> f64 {
        self.parts.push(Part { secs, sim: false });
        secs
    }

    /// Note a piece of the simulate phase; returns its seconds.
    pub fn sim_part(&mut self, secs: f64) -> f64 {
        self.parts.push(Part { secs, sim: true });
        self.sim_s += secs;
        secs
    }

    /// End the rep after `wall_s` seconds: whatever the noted pieces do
    /// not cover (checks, bookkeeping) becomes the last piece.
    pub fn close(&mut self, wall_s: f64) {
        let covered: f64 = self.parts.iter().map(|p| p.secs).sum();
        self.part((wall_s - covered).max(0.0));
        self.wall_s = wall_s;
    }

    /// Whether `other` simulated exactly what this rep did.
    pub fn same_simulation(&self, other: &Rep) -> bool {
        self.digests == other.digests && self.stats == other.stats && self.refs == other.refs
    }
}

/// Per-layer metric values by name; names outside [`names::PER_LAYER`]
/// are a bug in the harness.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            names::per_layer(name).is_some(),
            "{name} is not a per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value reported for `name`: 0 for a layer the workload did not
    /// exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What the traced pass knows when it asks a workload for its layers.
pub struct TracedPass<'a> {
    /// The one traced rep (spans of rep [`TRACED_REP`] in the tracer).
    pub rep: &'a Rep,
    /// Median `wall_s` of the untraced baseline reps.
    pub untraced_wall_s: f64,
}

/// Rep number the traced rep's spans carry; replay and twin spans that
/// follow it carry higher numbers.
pub const TRACED_REP: u32 = 0;
pub const REPLAY_REP: u32 = 1;

pub trait Bench {
    /// Run the workload once: generate nothing new, simulate, check.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;

    /// Fill the per-layer metrics after the traced rep: read its spans,
    /// replay the layers on their own, run the twins.
    fn layers(&mut self, tr: &mut Tracer, pass: &TracedPass<'_>, out: &mut Layers);
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
