//! RaCCD-on vs RaCCD-off differential testing over random task graphs.
//!
//! The acceptance bar: ≥ 100 seeded random programs whose final memory
//! images and per-task read values are bit-identical between
//! [`CoherenceMode::Raccd`](raccd_core::CoherenceMode) and the
//! fully-coherent baseline, with a clean shadow-checker report on both
//! sides of every run.

use raccd_check::{run_differential, GraphParams};
use raccd_sim::MachineConfig;

fn quad_core() -> MachineConfig {
    let mut cfg = MachineConfig::scaled();
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg
}

/// 100 seeds × (RaCCD, FullCoh): identical memory, identical reads, clean
/// checkers.
#[test]
fn hundred_random_graphs_raccd_equals_fullcoh() {
    let mut failures = String::new();
    for seed in 0..100 {
        let out = run_differential(quad_core(), GraphParams::small(seed));
        if !out.is_clean() {
            failures.push_str(&out.describe());
        }
    }
    assert!(failures.is_empty(), "{failures}");
}

/// Wider, deeper graphs with more cross-task sharing, on a small LLC that
/// forces eviction traffic mid-run.
#[test]
fn stressed_graphs_stay_differentially_clean() {
    let mut cfg = quad_core();
    cfg.llc_entries_per_bank = 64;
    for seed in [7, 1234, 0xDEAD] {
        let params = GraphParams {
            seed,
            layers: 4,
            width: 6,
            fan_in: 3,
            words: 48,
        };
        let out = run_differential(cfg, params);
        assert!(out.is_clean(), "{}", out.describe());
        assert_eq!(out.tasks, 24);
    }
}

/// Write-through private caches change every store's protocol path but
/// must not change a single architectural value.
#[test]
fn write_through_differential_clean() {
    let cfg = MachineConfig {
        l1_write_through: true,
        ..quad_core()
    };
    for seed in 100..110 {
        let out = run_differential(cfg, GraphParams::small(seed));
        assert!(out.is_clean(), "{}", out.describe());
    }
}

/// ADR resizing under RaCCD (shrunken directories are RaCCD's payoff —
/// §III-D) must also preserve the differential.
#[test]
fn adr_differential_clean() {
    let cfg = MachineConfig {
        adr: true,
        ..quad_core().with_dir_ratio(8)
    };
    for seed in 200..210 {
        let out = run_differential(cfg, GraphParams::small(seed));
        assert!(out.is_clean(), "{}", out.describe());
    }
}
