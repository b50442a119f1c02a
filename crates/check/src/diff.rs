//! RaCCD-on / RaCCD-off differential execution.
//!
//! The same seeded random program (see [`crate::taskgen`]) is run once
//! under [`CoherenceMode::Raccd`] and once under the fully-coherent
//! baseline, both with the shadow checker attached. The two runs may
//! schedule tasks differently (their timing differs), but because the
//! generated graphs carry honest dependence annotations, correctness
//! demands:
//!
//! 1. bit-identical final memory images,
//! 2. identical per-task read checksums (every value every task observed),
//! 3. a clean shadow-checker report on both sides — no invariant
//!    violations, no excused stale reads, no NC/coherent write races.

use crate::taskgen::{GraphParams, RandomGraph};
use raccd_core::{run, CoherenceMode, RunOptions};
use raccd_mem::SimMemory;
use raccd_sim::{CheckReport, MachineConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything one differential run produced.
#[derive(Debug)]
pub struct DiffOutcome {
    /// Seed of the generated graph.
    pub seed: u64,
    /// Tasks executed (identical on both sides by construction).
    pub tasks: usize,
    /// First final-memory difference, as `alloc[word]: raccd != fullcoh`.
    pub mem_mismatch: Option<String>,
    /// First per-task read-checksum difference.
    pub read_mismatch: Option<String>,
    /// Shadow-checker report of the RaCCD run.
    pub raccd_check: Option<CheckReport>,
    /// Shadow-checker report of the fully-coherent run.
    pub fullcoh_check: Option<CheckReport>,
}

impl DiffOutcome {
    /// All three differential criteria hold.
    pub fn is_clean(&self) -> bool {
        self.mem_mismatch.is_none()
            && self.read_mismatch.is_none()
            && self.raccd_check.as_ref().is_some_and(CheckReport::clean)
            && self.fullcoh_check.as_ref().is_some_and(CheckReport::clean)
    }

    /// Human-readable failure description (empty when clean).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        if let Some(m) = &self.mem_mismatch {
            s.push_str(&format!("seed {}: memory differs: {m}\n", self.seed));
        }
        if let Some(m) = &self.read_mismatch {
            s.push_str(&format!("seed {}: task reads differ: {m}\n", self.seed));
        }
        for (side, rep) in [
            ("raccd", &self.raccd_check),
            ("fullcoh", &self.fullcoh_check),
        ] {
            match rep {
                Some(r) if !r.clean() => s.push_str(&format!(
                    "seed {}: {side} checker unclean: {} violations, {} stale excused, \
                     {} nc write races\n",
                    self.seed,
                    r.violations.len(),
                    r.stats.stale_excused,
                    r.stats.nc_write_races
                )),
                Some(_) => {}
                None => s.push_str(&format!("seed {}: {side} run had no checker\n", self.seed)),
            }
        }
        s
    }
}

/// Compare two final memory images word by word over every allocation.
pub(crate) fn first_mem_diff(a: &SimMemory, b: &SimMemory) -> Option<String> {
    assert_eq!(a.allocations().len(), b.allocations().len());
    for ((name, ra), (_, rb)) in a.allocations().iter().zip(b.allocations()) {
        assert_eq!(ra, rb, "allocation layout must match");
        for w in 0..ra.len / 8 {
            let va = a.read_u64(ra.start.offset(w * 8));
            let vb = b.read_u64(rb.start.offset(w * 8));
            if va != vb {
                return Some(format!("{name}[{w}]: {va:#x} != {vb:#x}"));
            }
        }
    }
    None
}

fn run_one(
    mut cfg: MachineConfig,
    mode: CoherenceMode,
    params: GraphParams,
) -> (SimMemory, Vec<(String, u64)>, Option<CheckReport>) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let program = RandomGraph::new(params).build_logged(Rc::clone(&log));
    cfg.shadow_check = true;
    let out = run(cfg, mode, program, RunOptions::default());
    let mut reads = log.borrow().clone();
    reads.sort();
    (out.mem, reads, out.check)
}

/// Run the differential: same program under RaCCD and under full MESI
/// coherence, shadow checker attached to both machines.
pub fn run_differential(cfg: MachineConfig, params: GraphParams) -> DiffOutcome {
    let (mem_r, reads_r, check_r) = run_one(cfg, CoherenceMode::Raccd, params);
    let (mem_f, reads_f, check_f) = run_one(cfg, CoherenceMode::FullCoh, params);

    let read_mismatch = (reads_r != reads_f).then(|| {
        reads_r
            .iter()
            .zip(&reads_f)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{}:{:#x} != {}:{:#x}", a.0, a.1, b.0, b.1))
            .unwrap_or_else(|| "read logs differ in length".into())
    });

    DiffOutcome {
        seed: params.seed,
        tasks: RandomGraph::new(params).task_count(),
        mem_mismatch: first_mem_diff(&mem_r, &mem_f),
        read_mismatch,
        raccd_check: check_r,
        fullcoh_check: check_f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_seed_differential_is_clean() {
        let mut cfg = MachineConfig::scaled();
        cfg.ncores = 4;
        cfg.mesh_k = 2;
        let out = run_differential(cfg, GraphParams::small(42));
        assert!(out.is_clean(), "{}", out.describe());
        assert_eq!(out.tasks, 12);
    }
}
