//! Randomised state-machine testing of the oracle-instrumented machine.
//!
//! Complements the exhaustive explorer: where `tests/explorer.rs` closes
//! tiny state spaces completely, this drives *longer* operation sequences
//! over more cores/blocks/configurations than BFS can afford, using the
//! dependent-strategy combinators (`prop_flat_map`, `sample::select`,
//! `prop_filter`) the proptest shim grew for exactly this shape of test.
//! Any violation is minimised and dumped as a replayable counterexample
//! before the test fails.

use proptest::prelude::*;
use proptest::sample;
use raccd_check::{minimize, replay, serialize, write_counterexample, CheckedMachine, TraceOp};
use raccd_mem::{BLOCK_SHIFT, PAGE_SHIFT};
use raccd_sim::MachineConfig;

fn tiny(dir_ratio: usize, wt: bool) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_dir_ratio(dir_ratio);
    cfg.l1_write_through = wt;
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.llc_entries_per_bank = 32; // small enough to force LLC replacement
    cfg.l1_bytes = 512; // 8 lines/core: heavy L1 eviction traffic
    cfg
}

/// One operation addressed at the given core/block working sets.
fn op_strategy(cores: Vec<usize>, blocks: Vec<u64>) -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        8 => (
            sample::select(cores.clone()),
            sample::select(blocks.clone()),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(core, block, write, nc)| TraceOp::Access {
                core,
                block,
                write,
                nc
            }),
        1 => sample::select(cores.clone()).prop_map(|core| TraceOp::FlushNc { core }),
        1 => (sample::select(cores), sample::select(blocks)).prop_map(|(core, block)| {
            TraceOp::FlushPage {
                core,
                page: (block << BLOCK_SHIFT) >> PAGE_SHIFT,
            }
        }),
    ]
}

/// Pick the scenario shape first (how many cores and blocks are in play),
/// then generate an operation sequence over exactly that alphabet — the
/// dependency `prop_flat_map` exists for. At least one store is required
/// (`prop_filter`): all-load traces cannot exercise SWMR.
fn scenario() -> impl Strategy<Value = Vec<TraceOp>> {
    (2usize..5, 1usize..5)
        .prop_flat_map(|(ncores, nblocks)| {
            let cores: Vec<usize> = (0..ncores).collect();
            // Spread blocks across pages and home banks.
            let blocks: Vec<u64> = (0..nblocks as u64).map(|i| 0x40 + i * 67).collect();
            proptest::collection::vec(op_strategy(cores, blocks), 1..120)
        })
        .prop_filter("need at least one store", |ops| {
            ops.iter()
                .any(|op| matches!(op, TraceOp::Access { write: true, .. }))
        })
}

fn run_and_report(cfg: MachineConfig, ops: &[TraceOp]) {
    let mut m = CheckedMachine::new(cfg);
    for &op in ops {
        m.apply(op);
    }
    let violations = m.into_violations();
    if !violations.is_empty() {
        let minimal = minimize(cfg, ops);
        let remaining = replay(cfg, None, &minimal).into_violations();
        let path = write_counterexample(&cfg, None, &minimal, "fuzz", &remaining).ok();
        panic!(
            "oracle violations {violations:?}\nminimised to {} ops (dump: {path:?}):\n{}",
            minimal.len(),
            serialize(&cfg, None, &minimal)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Long random interleavings on an eviction-heavy write-back machine.
    #[test]
    fn random_traffic_writeback_oracle_clean(
        ops in scenario(),
        dir_ratio in sample::select(vec![1usize, 8, 32]),
    ) {
        run_and_report(tiny(dir_ratio, false), &ops);
    }

    /// The same under write-through L1s.
    #[test]
    fn random_traffic_writethrough_oracle_clean(
        ops in scenario(),
        dir_ratio in sample::select(vec![1usize, 32]),
    ) {
        run_and_report(tiny(dir_ratio, true), &ops);
    }

    /// With ADR resizing the directory mid-traffic.
    #[test]
    fn random_traffic_adr_oracle_clean(ops in scenario()) {
        let cfg = MachineConfig { adr: true, ..tiny(8, false) };
        run_and_report(cfg, &ops);
    }
}
