//! Full-closure run of the exhaustive explorer (release-mode CI gate).
//!
//! Runs every exploration scenario of `tests/explorer.rs` *unbounded*:
//! the four closed configurations must exhaust their entire reachable
//! state space with zero invariant violations, and the 3-core frontier
//! must stay clean to depth 6. The in-tree tests bound the larger
//! configurations for debug-build speed; this example is the
//! release-mode complement (`cargo run --release -p raccd-check
//! --example explore_probe`) and exits non-zero on any violation, failed
//! closure, or a visited-state count that differs from the pinned one
//! (the protocol's reachable graph is part of its definition: a refactor
//! that moves a count changed a transition).

use raccd_check::{explore, ExploreConfig};
use raccd_sim::{MachineConfig, ProtocolKind};
use std::time::Instant;

fn tiny(dir_ratio: usize, dir_ways: usize, wt: bool, adr: bool) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_dir_ratio(dir_ratio);
    (cfg.l1_write_through, cfg.adr) = (wt, adr);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.llc_entries_per_bank = 32;
    cfg.dir_ways = dir_ways;
    cfg
}

fn main() {
    let scenarios: Vec<(&str, usize, ExploreConfig)> = vec![
        (
            "A 2c/1b wb 1-entry dir",
            117,
            ExploreConfig {
                cfg: tiny(32, 1, false, false),
                cores: vec![0, 1],
                blocks: vec![0x40],
                flush_nc: true,
                flush_pages: true,
                max_depth: 64,
                max_states: 1_000_000,
            },
        ),
        (
            "B 2c/1b wt",
            63,
            ExploreConfig {
                cfg: tiny(32, 1, true, false),
                cores: vec![0, 1],
                blocks: vec![0x40],
                flush_nc: true,
                flush_pages: true,
                max_depth: 64,
                max_states: 1_000_000,
            },
        ),
        (
            "C 2c/2b dir storm",
            22_851,
            ExploreConfig {
                cfg: tiny(32, 1, false, false),
                cores: vec![0, 1],
                blocks: vec![0x40, 0x44],
                flush_nc: true,
                flush_pages: true,
                max_depth: 64,
                max_states: 1_000_000,
            },
        ),
        (
            "D adr",
            13_871,
            ExploreConfig {
                cfg: tiny(8, 1, false, true),
                cores: vec![0, 1],
                blocks: vec![0x40, 0x44],
                flush_nc: true,
                flush_pages: false,
                max_depth: 64,
                max_states: 1_000_000,
            },
        ),
        (
            "E 3c/2b bounded",
            118_451,
            ExploreConfig {
                cfg: tiny(32, 1, false, false),
                cores: vec![0, 1, 2],
                blocks: vec![0x40, 0x44],
                flush_nc: true,
                flush_pages: false,
                max_depth: 6,
                max_states: 1_000_000,
            },
        ),
    ];
    // Per-protocol closures: MESIF and MOESI rerun the fully-closing
    // 2-core scenarios — the F/O states enlarge the graph, but it must
    // still close with zero violations (fwd-unique, dirty-SWMR and
    // fwd-desync invariants checked in every visited state).
    let mut scenarios = scenarios;
    for protocol in [ProtocolKind::Mesif, ProtocolKind::Moesi] {
        let two_blocks = if protocol == ProtocolKind::Mesif {
            24_735
        } else {
            25_155
        };
        for (tag, states, blocks) in [
            ("2c/1b", 129, vec![0x40]),
            ("2c/2b", two_blocks, vec![0x40, 0x44]),
        ] {
            let name = format!("{} {tag} wb", protocol.label().to_uppercase());
            scenarios.push((
                Box::leak(name.into_boxed_str()),
                states,
                ExploreConfig {
                    cfg: MachineConfig {
                        protocol,
                        ..tiny(32, 1, false, false)
                    },
                    cores: vec![0, 1],
                    blocks,
                    flush_nc: true,
                    flush_pages: true,
                    max_depth: 64,
                    max_states: 1_000_000,
                },
            ));
        }
    }
    let mut failed = false;
    for (name, states, ec) in scenarios {
        let t = Instant::now();
        let r = explore(&ec);
        println!(
            "{name}: states={} ops={} exhausted={} violations={} in {:?}",
            r.states,
            r.ops_applied,
            r.exhausted,
            r.violations.len(),
            t.elapsed()
        );
        for (seq, v) in r.violations.iter().take(3) {
            println!("  [{v}] after {} ops: {seq:?}", seq.len());
        }
        // The depth-bounded 3-core scenario cannot exhaust; all others must.
        let closure_expected = !name.starts_with('E');
        if !r.violations.is_empty() || (closure_expected && !r.exhausted) {
            failed = true;
        }
        if r.states != states {
            println!("  expected {states} states");
            failed = true;
        }
    }
    if failed {
        eprintln!("exploration FAILED: violations, incomplete closure or a moved state count");
        std::process::exit(1);
    }
}
