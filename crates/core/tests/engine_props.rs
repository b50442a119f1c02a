//! Property tests for the epoch-parallel engine (DESIGN.md §12).
//!
//! Three families:
//! * **Planner soundness + maximality** — pure `plan_epoch` inputs: every
//!   planned turn starts strictly below the conservative lookahead horizon
//!   (the earliest instant an earlier planned turn could emit a cross-core
//!   message), on a distinct core; and the plan is the *maximal* such
//!   prefix. Since speculation itself is message-free by construction
//!   (workers touch only their shard clone), this is exactly the "no
//!   message crosses an epoch below the horizon" invariant.
//! * **Merge-order invariance** — shuffling the worker submission order
//!   (the deterministic analogue of adversarial OS scheduling) and varying
//!   the thread count must not change a single output bit.
//! * **Mid-epoch snapshot round-trip** — pausing an epoch-parallel run at
//!   an arbitrary cycle, snapshotting, restoring and re-snapshotting is
//!   byte-identical.

use proptest::prelude::*;
use raccd_core::{plan_epoch, CoherenceMode, Driver, Engine, PlanTurn};
use raccd_sim::MachineConfig;
use raccd_workloads::{jacobi::Jacobi, Workload};

fn quad_core() -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_shadow_check(true);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg
}

fn small_jacobi(seed: u64) -> Jacobi {
    Jacobi {
        n: 16,
        iters: 1,
        blocks: 4,
        seed,
    }
}

/// Horizon of a planned prefix: the earliest time any of its turns could
/// re-enter the heap (and hence send a message).
fn horizon(turns: &[PlanTurn]) -> u64 {
    turns
        .iter()
        .map(|t| t.t.saturating_add(t.min_cost))
        .min()
        .unwrap_or(u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: every planned turn is eligible, on a distinct core, and
    /// starts below the horizon of the turns planned before it.
    /// Maximality: the first unplanned turn violates one of those.
    #[test]
    fn planner_is_sound_and_maximal(
        raw in proptest::collection::vec(
            (0u64..40, 0usize..10, any::<bool>(), 0u64..200), 0..20)
    ) {
        let mut t = 0u64;
        let turns: Vec<PlanTurn> = raw
            .iter()
            .map(|&(dt, core, eligible, min_cost)| {
                t += dt;
                PlanTurn { t, core, eligible, min_cost }
            })
            .collect();
        let n = plan_epoch(&turns);
        prop_assert!(n <= turns.len());
        let mut cores = std::collections::HashSet::new();
        for (j, turn) in turns[..n].iter().enumerate() {
            prop_assert!(turn.eligible, "planned turn {j} ineligible");
            prop_assert!(cores.insert(turn.core), "core {} planned twice", turn.core);
            if j > 0 {
                prop_assert!(
                    turn.t < horizon(&turns[..j]),
                    "turn {j} at t={} is not below the lookahead horizon {}",
                    turn.t,
                    horizon(&turns[..j])
                );
            }
        }
        if n < turns.len() && n < 64 {
            let next = &turns[n];
            let violates = !next.eligible
                || next.core >= 64
                || cores.contains(&next.core)
                || (n > 0 && next.t >= horizon(&turns[..n]));
            prop_assert!(violates, "plan stopped at {n} without cause");
        }
    }

    /// Thread count and worker scheduling (as a seeded submission shuffle)
    /// are invisible: the final shadow state key and the full driver
    /// snapshot match the serial oracle bit for bit.
    #[test]
    fn merge_order_invariant_under_shuffle_and_threads(
        seed in 1u64..500,
        threads in 2usize..8,
        salt: u64,
    ) {
        let cfg = quad_core();
        let w = small_jacobi(seed);
        let mut serial = Driver::new(cfg, CoherenceMode::Raccd, w.build(), None, None);
        while serial.run_until(u64::MAX, None) {}
        let mut par = Driver::new(cfg, CoherenceMode::Raccd, w.build(), None, None);
        par.set_engine(Engine::EpochParallel { threads });
        par.worker_pool_mut().expect("parallel engine").set_shuffle(salt);
        while par.run_until(u64::MAX, None) {}
        prop_assert_eq!(par.shadow_state_key(), serial.shadow_state_key());
        prop_assert_eq!(par.snapshot().to_bytes(), serial.snapshot().to_bytes());
    }

    /// Snapshot → restore → snapshot taken while the epoch-parallel engine
    /// is mid-run is byte-identical, and the restored driver finishes to
    /// the same state under either engine.
    #[test]
    fn mid_epoch_snapshot_roundtrips(
        seed in 1u64..200,
        k in 1u64..30_000,
        threads in 1usize..5,
    ) {
        let cfg = quad_core();
        let w = small_jacobi(seed);
        let engine = Engine::EpochParallel { threads };
        let mut d = Driver::new(cfg, CoherenceMode::Raccd, w.build(), None, None);
        d.set_engine(engine);
        d.run_until(k, None);
        let s1 = d.snapshot();
        let d2 = Driver::restore(cfg, CoherenceMode::Raccd, w.build(), &s1).expect("restore");
        prop_assert_eq!(s1.to_bytes(), d2.snapshot().to_bytes());
        // The restored driver, resumed under the parallel engine, lands on
        // the same final state as the original resumed serially.
        let mut d2 = d2;
        d2.set_engine(engine);
        d.set_engine(Engine::Serial);
        while d2.run_until(u64::MAX, None) {}
        while d.run_until(u64::MAX, None) {}
        prop_assert_eq!(d2.shadow_state_key(), d.shadow_state_key());
        prop_assert_eq!(d2.snapshot().to_bytes(), d.snapshot().to_bytes());
    }
}
