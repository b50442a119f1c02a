//! Exhaustive exploration of the MESIF and MOESI protocol variants.
//!
//! Mirrors `explorer.rs` for the non-default protocols: the two-core,
//! one-block configurations close their entire reachable state space in
//! debug builds (the Forward/Owned states enlarge the graph — 129 states
//! vs MESI's 117 — but it stays tiny), while the two-block directory-storm
//! configurations are frontier-bounded for debug test time and run to
//! full closure in the release-mode `explore_probe` example (the CI
//! `explorer-closure` matrix job). Every visited state is checked under
//! the full invariant set, including the MESIF fwd-unique/fwd-desync and
//! MOESI dirty-SWMR extensions.

use raccd_check::{explore, ExploreConfig};
use raccd_sim::{MachineConfig, ProtocolKind, Topology};

fn tiny(protocol: ProtocolKind) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_dir_ratio(32);
    cfg.protocol = protocol;
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.llc_entries_per_bank = 32;
    cfg.dir_ways = 1;
    cfg
}

fn assert_clean(r: &raccd_check::ExploreResult) {
    assert!(
        r.violations.is_empty(),
        "explorer found invariant violations (counterexamples dumped): {:?}",
        r.violations
            .iter()
            .map(|(seq, v)| format!("{v} after {seq:?}"))
            .collect::<Vec<_>>()
    );
}

fn one_block(protocol: ProtocolKind) -> raccd_check::ExploreResult {
    explore(&ExploreConfig {
        cfg: tiny(protocol),
        cores: vec![0, 1],
        blocks: vec![0x40],
        flush_nc: true,
        flush_pages: true,
        max_depth: 64,
        max_states: 100_000,
    })
}

fn two_blocks_bounded(protocol: ProtocolKind) -> raccd_check::ExploreResult {
    explore(&ExploreConfig {
        cfg: tiny(protocol),
        cores: vec![0, 1],
        blocks: vec![0x40, 0x44],
        flush_nc: true,
        flush_pages: true,
        max_depth: 64,
        max_states: 2_500,
    })
}

/// MESIF 2c/1b: full closure. The extra states over MESI are the F-holder
/// configurations (fwd pointer hand-offs on every GetS and PutF evictions).
#[test]
fn mesif_two_cores_one_block_closes_clean() {
    let r = one_block(ProtocolKind::Mesif);
    assert_clean(&r);
    assert!(
        r.exhausted,
        "MESIF state space must close ({} states)",
        r.states
    );
    assert_eq!(r.states, 129, "MESIF 2c/1b closure size (MESI: 117)");
}

/// MOESI 2c/1b: full closure. The extra states are the O-holder
/// configurations (M→O downgrades with the dirty line staying on-chip).
#[test]
fn moesi_two_cores_one_block_closes_clean() {
    let r = one_block(ProtocolKind::Moesi);
    assert_clean(&r);
    assert!(
        r.exhausted,
        "MOESI state space must close ({} states)",
        r.states
    );
    assert_eq!(r.states, 129, "MOESI 2c/1b closure size (MESI: 117)");
}

/// MESIF 2c/2b under a 1-entry directory bank (eviction storm recalls the
/// F holder). Bounded frontier in debug; full closure in `explore_probe`.
#[test]
fn mesif_two_blocks_directory_eviction_storm_clean() {
    let r = two_blocks_bounded(ProtocolKind::Mesif);
    assert_clean(&r);
    assert!(r.states >= 2_500, "bounded frontier not reached");
}

/// MOESI 2c/2b: dir evictions must write the O line back (recall path).
#[test]
fn moesi_two_blocks_directory_eviction_storm_clean() {
    let r = two_blocks_bounded(ProtocolKind::Moesi);
    assert_clean(&r);
    assert!(r.states >= 2_500, "bounded frontier not reached");
}

/// Cross-socket MESIF on the 2-socket NUMA topology: cores 0 (socket 0)
/// and 4 (socket 1) share one block through the inter-socket link. The
/// protocol graph must close exactly as on a single mesh — topology
/// changes latencies and traffic accounting, never reachability.
#[test]
fn mesif_cross_socket_numa2_closes_clean() {
    let r = explore(&ExploreConfig {
        cfg: tiny(ProtocolKind::Mesif).with_topology(Topology::Numa2),
        cores: vec![0, 4],
        blocks: vec![0x40],
        flush_nc: true,
        flush_pages: true,
        max_depth: 64,
        max_states: 100_000,
    });
    assert_clean(&r);
    assert!(r.exhausted, "cross-socket state space must close");
    assert_eq!(r.states, 129, "same closure as on a single mesh");
}
