//! Exhaustive protocol exploration against the shadow checker: every
//! scenario the explorer runs, and the number of states each one pins.
//!
//! A release build runs each row unbounded. It must reach exactly its
//! pinned number of states with zero violations, and every row without
//! a depth bound must exhaust its state space: every reachable protocol
//! state visited, every invariant checked in each. The reachable graph
//! is part of a protocol's definition, so a refactor that moves a count
//! changed a transition. A debug build stops each row at
//! [`DEBUG_BOUND`] states, so the rows pinned below it still close.

use raccd_check::{explore, parse, ExploreConfig};

/// States a debug build explores per row.
const DEBUG_BOUND: usize = 2_500;

/// No depth bound: the row runs until its frontier empties.
const CLOSE: usize = usize::MAX;

/// Explore one row and check it against its pinned size. `machine` is
/// the row's keys of a counterexample trace's `cfg` line, on a 2×2 mesh
/// with 32-entry LLC banks and one-way directory banks, a geometry that
/// never evicts by capacity.
fn run(
    machine: &str,
    cores: &[usize],
    blocks: &[u64],
    flush_pages: bool,
    max_depth: usize,
    pinned: usize,
) {
    let line = format!("# raccd-check trace v2\ncfg mesh_k=2 llc=32 dir_ways=1 {machine}\n");
    let (cfg, _, _) = parse(&line).expect("scenario machine");
    let max_states = if cfg!(debug_assertions) {
        DEBUG_BOUND
    } else {
        usize::MAX
    };
    let r = explore(&ExploreConfig {
        cfg,
        cores: cores.to_vec(),
        blocks: blocks.to_vec(),
        flush_pages,
        max_depth,
        max_states,
    });
    assert!(
        r.violations.is_empty(),
        "explorer found invariant violations (counterexamples dumped): {:?}",
        r.violations
            .iter()
            .map(|(seq, v)| format!("{v} after {seq:?}"))
            .collect::<Vec<_>>()
    );
    assert_eq!(r.states, pinned.min(max_states), "`{machine}`: states");
    let closes = max_depth == CLOSE && pinned < max_states;
    assert_eq!(r.exhausted, closes, "`{machine}`: exhausted");
}

/// One `#[test]` per row.
macro_rules! scenarios {
    ($($name:ident: $machine:literal, $cores:expr, $blocks:expr, $pages:literal,
       $depth:expr, $states:literal;)*) => {
        $(#[test]
        fn $name() {
            run($machine, &$cores, &$blocks, $pages, $depth, $states);
        })*
    };
}

// Columns: machine keys, cores, physical blocks, page flushes in the
// alphabet, depth bound, pinned states. Blocks 0x40 and 0x44 share the
// one directory entry of their bank, so every second coherent fill of
// a 2-block row evicts the other block's entry and recalls its copies.
scenarios! {
    // A: write-back, the most directory pressure one block can make.
    mesi_a_writeback: "ratio=32", [0, 1], [0x40], true, CLOSE, 117;
    // B: write-through L1s, so no dirty lines and other writeback paths.
    mesi_b_writethrough: "ratio=32 wt=1", [0, 1], [0x40], true, CLOSE, 63;
    // C: the directory-eviction storm.
    mesi_c_dir_storm: "ratio=32", [0, 1], [0x40, 0x44], true, CLOSE, 22_851;
    // D: ADR shrinks a 4-entry bank to one entry and regrows it between
    // accesses; every shrink checks that no tracked sharer is stranded.
    mesi_d_adr: "ratio=8 adr=1", [0, 1], [0x40, 0x44], false, CLOSE, 13_871;
    // E: three cores, every interleaving to depth 6; unclosed.
    mesi_e_three_cores: "ratio=32", [0, 1, 2], [0x40, 0x44], false, 6, 118_451;
    // The F- and O-holder states enlarge MESI's graphs; the checker adds
    // the fwd-unique, fwd-desync and dirty-SWMR invariants.
    mesif_2c1b: "ratio=32 protocol=mesif", [0, 1], [0x40], true, CLOSE, 129;
    mesif_2c2b: "ratio=32 protocol=mesif", [0, 1], [0x40, 0x44], true, CLOSE, 24_735;
    moesi_2c1b: "ratio=32 protocol=moesi", [0, 1], [0x40], true, CLOSE, 129;
    moesi_2c2b: "ratio=32 protocol=moesi", [0, 1], [0x40, 0x44], true, CLOSE, 25_155;
    // Cores 0 and 4 sit on different sockets: a topology changes
    // latencies and traffic, never reachability, so the graph is the
    // single-mesh one.
    mesif_numa2: "ratio=32 protocol=mesif topology=numa2", [0, 4], [0x40], true, CLOSE, 129;
}
