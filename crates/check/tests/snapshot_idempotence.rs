//! Property: snapshot → restore → snapshot is byte-identical.
//!
//! Every section of the archive is produced by some component's
//! `Snap::save`; re-snapshotting a restored driver re-runs every
//! component's `save` on the state its `load` produced. Byte equality of
//! the two archives therefore proves `save ∘ load = id` for *every*
//! component simultaneously, over states actually reachable by real runs
//! — a `Snap` impl that drops, reorders or renormalises a field fails
//! here for whatever (seed, pause cycle) reaches it first.

use proptest::prelude::*;
use raccd_check::{GraphParams, RandomGraph};
use raccd_core::{CoherenceMode, Driver};
use raccd_sim::{FaultPlan, MachineConfig, SchedKind};

fn roundtrip(seed: u64, k: u64, plan: Option<FaultPlan>) -> (Vec<u8>, Vec<u8>) {
    let make = || RandomGraph::new(GraphParams::small(seed)).build();
    let cfg = MachineConfig {
        shadow_check: true,
        ..MachineConfig::scaled()
    };
    let mut d = Driver::new(cfg, CoherenceMode::Raccd, make(), plan, None);
    d.run_until(k, None);
    let s1 = d.snapshot();
    let d2 = Driver::restore(cfg, CoherenceMode::Raccd, make(), &s1).expect("restore");
    let s2 = d2.snapshot();
    (s1.to_bytes(), s2.to_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snapshot_restore_snapshot_is_byte_identical(seed in 1u64..64, k in 1u64..40_000) {
        let (a, b) = roundtrip(seed, k, None);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn snapshot_idempotence_holds_under_fault_injection(seed in 1u64..32, k in 1u64..40_000) {
        let plan = FaultPlan {
            seed,
            drop: 1e-3,
            delay: 1e-3,
            dir_loss: 1e-3,
            task_fail: 1e-3,
            straggle: 1e-2,
            straggle_cycles: 500,
            ..FaultPlan::default()
        };
        let (a, b) = roundtrip(seed, k, Some(plan));
        prop_assert_eq!(a, b);
    }
}

/// Tiny quantum so the quantum policy actually parks tasks mid-run: the
/// `driver/sched`, `driver/parked` and `driver/quantum_start` sections all
/// carry live (non-default) state at the pause point.
fn sched_cfg(sched: SchedKind) -> MachineConfig {
    MachineConfig {
        shadow_check: true,
        sched,
        sched_quantum: 300,
        ..MachineConfig::scaled()
    }
}

/// Per-policy variant of the byte-identity property: every scheduler's
/// snapshot body — including mid-preemption states with parked tasks and a
/// non-empty audit log — must survive `save ∘ load` unchanged.
#[test]
fn snapshot_idempotence_holds_for_every_scheduler_policy() {
    for sched in SchedKind::ALL {
        for (seed, k) in [(3u64, 2_000u64), (11, 9_000), (23, 25_000)] {
            let make = || RandomGraph::new(GraphParams::small(seed)).build();
            let cfg = sched_cfg(sched);
            let mut d = Driver::new(cfg, CoherenceMode::Raccd, make(), None, None);
            d.run_until(k, None);
            let s1 = d.snapshot();
            let d2 = Driver::restore(cfg, CoherenceMode::Raccd, make(), &s1).expect("restore");
            let s2 = d2.snapshot();
            assert_eq!(
                s1.to_bytes(),
                s2.to_bytes(),
                "{sched} at (seed {seed}, k {k})"
            );
        }
    }
}

/// Resume equivalence per policy: pausing mid-run, round-tripping the
/// archive through bytes and finishing must match the uninterrupted run —
/// same shadow state key, same `Stats` (including the scheduler counters
/// and preemption totals) — for every policy.
#[test]
fn restore_and_finish_matches_uninterrupted_for_every_scheduler_policy() {
    let seed = 7u64;
    let make = || RandomGraph::new(GraphParams::small(seed)).build();
    for sched in SchedKind::ALL {
        let cfg = sched_cfg(sched);
        let mut reference = Driver::new(cfg, CoherenceMode::Raccd, make(), None, None);
        while reference.step(None) {}
        let ref_key = reference
            .shadow_state_key()
            .expect("shadow checker attached");
        let ref_out = reference.finish(None);

        let k = ref_out.stats.cycles / 2;
        let mut part1 = Driver::new(cfg, CoherenceMode::Raccd, make(), None, None);
        part1.run_until(k, None);
        let bytes = part1.snapshot().to_bytes();
        let snap = raccd_snap::Snapshot::from_bytes(&bytes).expect("archive decodes");
        let mut part2 = Driver::restore(cfg, CoherenceMode::Raccd, make(), &snap).expect("restore");
        while part2.step(None) {}
        let split_key = part2.shadow_state_key().expect("shadow checker attached");
        let split_out = part2.finish(None);

        assert_eq!(split_key, ref_key, "{sched} split at {k}: shadow state key");
        assert_eq!(
            split_out.stats, ref_out.stats,
            "{sched} split at {k}: stats"
        );
        assert_eq!(
            split_out.audit, ref_out.audit,
            "{sched} split at {k}: audit log"
        );
    }
}
