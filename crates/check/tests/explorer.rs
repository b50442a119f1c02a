//! Exhaustive protocol exploration against the shadow checker.
//!
//! The two-core/one-block configurations close their entire state space
//! here (every reachable protocol state visited, every invariant checked
//! in each). The larger configurations are bounded for debug-build test
//! time; the `explore_probe` example runs them to full closure in release
//! mode (CI's examples step), where they also finish clean.

use raccd_check::{explore, ExploreConfig};
use raccd_sim::MachineConfig;

fn tiny(dir_ratio: usize, dir_ways: usize, wt: bool, adr: bool) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_dir_ratio(dir_ratio);
    (cfg.l1_write_through, cfg.adr) = (wt, adr);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.llc_entries_per_bank = 32;
    cfg.dir_ways = dir_ways;
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

/// Config A: write-back, 1-entry directory bank (maximum dir pressure on
/// a single block). Full closure: every interleaving of 2 cores ×
/// {coherent,NC} × {read,write} × flushes over one block.
#[test]
fn two_cores_one_block_writeback_closes_clean() {
    let r = explore(&ExploreConfig {
        cfg: tiny(32, 1, false, false),
        cores: vec![0, 1],
        blocks: vec![0x40],
        flush_nc: true,
        flush_pages: true,
        max_depth: 64,
        max_states: 100_000,
    });
    assert_clean(&r);
    assert!(
        r.exhausted,
        "state space must close (got {} states)",
        r.states
    );
    assert_eq!(r.states, 117, "MESI 2c/1b write-back closure size");
}

/// Config B: the same alphabet under write-through L1s (no dirty lines,
/// different writeback paths). Also fully closed.
#[test]
fn two_cores_one_block_writethrough_closes_clean() {
    let r = explore(&ExploreConfig {
        cfg: tiny(32, 1, true, false),
        cores: vec![0, 1],
        blocks: vec![0x40],
        flush_nc: true,
        flush_pages: true,
        max_depth: 64,
        max_states: 100_000,
    });
    assert_clean(&r);
    assert!(r.exhausted);
    assert_eq!(r.states, 63, "MESI 2c/1b write-through closure size");
}

/// Config C: two blocks sharing the single directory entry — every second
/// coherent fill evicts the other block's entry (dir-evict storm with
/// recall invalidations). Bounded frontier in debug builds.
#[test]
fn two_blocks_directory_eviction_storm_clean() {
    let r = explore(&ExploreConfig {
        cfg: tiny(32, 1, false, false),
        cores: vec![0, 1],
        blocks: vec![0x40, 0x44],
        flush_nc: true,
        flush_pages: true,
        max_depth: 64,
        max_states: 2_500,
    });
    assert_clean(&r);
    assert!(r.states >= 2_500, "bounded frontier not reached");
}

/// Config D: ADR enabled on a 4-entry directory bank that can shrink to a
/// single entry and regrow — resizes interleave with every access kind.
/// The stranded-sharer invariant (resize never silently drops a tracked
/// sharer) is exercised on every shrink.
#[test]
fn adr_resize_interleavings_clean() {
    let r = explore(&ExploreConfig {
        cfg: tiny(8, 1, false, true),
        cores: vec![0, 1],
        blocks: vec![0x40, 0x44],
        flush_nc: true,
        flush_pages: false,
        max_depth: 64,
        max_states: 2_500,
    });
    assert_clean(&r);
    assert!(r.states >= 2_500);
}

/// Config E: three cores over two blocks — the bounded 3-core frontier
/// (full breadth to depth 4: every interleaving of the 26-op alphabet).
#[test]
fn three_cores_two_blocks_bounded_frontier_clean() {
    let r = explore(&ExploreConfig {
        cfg: tiny(32, 1, false, false),
        cores: vec![0, 1, 2],
        blocks: vec![0x40, 0x44],
        flush_nc: true,
        flush_pages: false,
        max_depth: 4,
        max_states: 3_000,
    });
    assert_clean(&r);
    assert!(r.states >= 1_000);
}
