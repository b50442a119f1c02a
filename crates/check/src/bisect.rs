//! Divergence bisector: pinpoint the first cycle at which two runs that
//! *should* evolve identically stop agreeing.
//!
//! Both sides run with the shadow checker attached and are compared by
//! [`raccd_sim::ShadowChecker::state_key`] — the canonical fingerprint of
//! all shadow coherence state (L1 mirrors, golden memory versions, NCRT
//! mirrors, directory/LLC probes). Because simulation is forward-only,
//! plain binary search would re-simulate prefixes from scratch; instead
//! the bisector snapshots both sides at every agreeing probe and, on the
//! first disagreeing probe, *restores* the last agreeing checkpoint and
//! re-probes the window at finer granularity. Each refinement round costs
//! one restore instead of a rerun from cycle 0, so the first divergent
//! cycle is located to single-probe precision in `O(log)` rounds.
//!
//! The primary in-repo customer is the snapshot subsystem itself: a side
//! that checkpoints and immediately restores itself every interval must
//! stay bit-identical to an uninterrupted side; any `Snap` impl that
//! forgets a field shows up as a divergence at the first post-restore
//! probe, localised for free. It is equally useful for any two
//! configurations expected to be observationally identical (e.g. a
//! scheduling refactor, or a fault plan whose window never opens).
//!
//! On divergence, both sides' last-agreeing checkpoints plus a report are
//! dumped to `$RACCD_CHECK_DUMP_DIR` (or `target/raccd-check-counterexamples/`)
//! so CI can attach the counterexample as an artifact.

use crate::trace::{cfg_line, dump_dir};
use raccd_core::{CoherenceMode, Driver};
use raccd_fault::FaultPlan;
use raccd_runtime::Program;
use raccd_sim::MachineConfig;
use raccd_snap::Snapshot;
use std::path::PathBuf;

/// One side of a bisection: how to (re)build its driver from scratch.
pub struct BisectSide<'a> {
    /// Label used in reports and dump file names.
    pub label: &'a str,
    /// Machine configuration (shadow checking is forced on).
    pub cfg: MachineConfig,
    /// Coherence mode.
    pub mode: CoherenceMode,
    /// Fault plan, if the side runs under injection.
    pub plan: Option<FaultPlan>,
    /// Deterministic program builder; called for the initial run and for
    /// every restore.
    pub make: &'a dyn Fn() -> Program,
}

impl BisectSide<'_> {
    /// The side's machine, shadow checked.
    fn cfg(&self) -> MachineConfig {
        let mut cfg = self.cfg;
        cfg.shadow_check = true;
        cfg
    }

    fn fresh(&self) -> Driver {
        Driver::new(self.cfg(), self.mode, (self.make)(), self.plan, None)
    }

    fn revive(&self, snap: &Snapshot) -> Result<Driver, raccd_snap::SnapError> {
        Driver::restore(self.cfg(), self.mode, (self.make)(), snap)
    }
}

/// A located divergence.
#[derive(Debug)]
pub struct Divergence {
    /// First probed cycle at which the state keys differ.
    pub cycle: u64,
    /// Last probed cycle at which they still agreed.
    pub last_agree: u64,
    /// Side A's state key at `cycle`.
    pub key_a: String,
    /// Side B's state key at `cycle`.
    pub key_b: String,
    /// Where the counterexample (both last-agreeing checkpoints plus a
    /// report) was dumped, if dumping succeeded.
    pub dump: Option<PathBuf>,
}

/// Search the first cycle `<= max_cycle` at which the two sides' shadow
/// state keys differ. `coarse` is the initial probe stride (it is refined
/// by 8x per round down to single-cycle probes); `None` means the sides
/// never diverged over any probed point.
pub fn bisect_divergence(
    a: &BisectSide,
    b: &BisectSide,
    max_cycle: u64,
    coarse: u64,
) -> Option<Divergence> {
    let mut da = a.fresh();
    let mut db = b.fresh();
    let mut lo = 0u64;
    // Checkpoints of the last agreeing probe, for window refinement.
    let mut ck_a = da.snapshot();
    let mut ck_b = db.snapshot();
    let mut step = coarse.max(1);
    loop {
        let c = lo.saturating_add(step).min(max_cycle);
        let live_a = da.run_until(c, None);
        let live_b = db.run_until(c, None);
        let key_a = da.shadow_state_key().expect("side A has a shadow checker");
        let key_b = db.shadow_state_key().expect("side B has a shadow checker");
        if key_a == key_b {
            if (!live_a && !live_b) || c >= max_cycle {
                return None;
            }
            lo = c;
            ck_a = da.snapshot();
            ck_b = db.snapshot();
            continue;
        }
        if step == 1 {
            let dump = dump_divergence(a, b, &ck_a, &ck_b, lo, c, &key_a, &key_b).ok();
            return Some(Divergence {
                cycle: c,
                last_agree: lo,
                key_a,
                key_b,
                dump,
            });
        }
        // Disagreement inside (lo, c]: rewind both sides to the last
        // agreeing checkpoint and re-probe the window at finer stride.
        step = (step / 8).max(1);
        da = a.revive(&ck_a).expect("restoring side A checkpoint");
        db = b.revive(&ck_b).expect("restoring side B checkpoint");
    }
}

#[allow(clippy::too_many_arguments)]
fn dump_divergence(
    a: &BisectSide,
    b: &BisectSide,
    ck_a: &Snapshot,
    ck_b: &Snapshot,
    last_agree: u64,
    cycle: u64,
    key_a: &str,
    key_b: &str,
) -> std::io::Result<PathBuf> {
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("bisect_{}_vs_{}_{cycle}", a.label, b.label);
    std::fs::write(dir.join(format!("{stem}_a.rsnp")), ck_a.to_bytes())?;
    std::fs::write(dir.join(format!("{stem}_b.rsnp")), ck_b.to_bytes())?;
    let report = dir.join(format!("{stem}.txt"));
    std::fs::write(
        &report,
        format!(
            "divergence between '{}' and '{}'\n\
             last agreeing probe: cycle {last_agree}\n\
             first divergent probe: cycle {cycle}\n\
             key A: {key_a}\n\
             key B: {key_b}\n\
             checkpoints of the last agreeing state: {stem}_a.rsnp / {stem}_b.rsnp\n\
             # machine of {stem}_a.rsnp (shadow checked)\n{}\n\
             # machine of {stem}_b.rsnp (shadow checked)\n{}\n",
            a.label,
            b.label,
            cfg_line(&a.cfg),
            cfg_line(&b.cfg),
        ),
    )?;
    Ok(report)
}
