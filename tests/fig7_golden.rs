//! The fig7 golden: a fig7 sub-sweep (three pinned workloads × {RaCCD,
//! FullCoh} × every directory ratio) pinned to a committed checksum, plain
//! and with the shadow checker attached.
//!
//! If the golden moves, a simulator change altered protocol-visible
//! counters; update the constant *only* after confirming that the change
//! is a model change.

use raccd::core::CoherenceMode;
use raccd::sim::{MachineConfig, DIR_RATIOS};
use raccd::workloads::Scale;
use raccd_bench::figures::{simulate, Cell};

/// Committed golden: fig7-sweep checksum at Test scale on the
/// `MachineConfig::scaled()` machine (see `Results::checksum` for the
/// folded fields).
const GOLDEN_CHECKSUM: u64 = 0x438C_1BAE_BC50_BA8B;

/// The pinned sub-matrix: Jacobi, Histo, MD5 under both coherence systems
/// at every directory ratio.
const WORKLOADS: [usize; 3] = [3, 2, 7];
const MODES: [CoherenceMode; 2] = [CoherenceMode::Raccd, CoherenceMode::FullCoh];

fn sweep(shadow: bool) -> u64 {
    let mut cfg = MachineConfig::scaled();
    cfg.shadow_check |= shadow;
    let mut cells = Vec::new();
    for &bench in &WORKLOADS {
        for mode in MODES {
            for &ratio in &DIR_RATIOS {
                cells.push(Cell {
                    bench,
                    mode,
                    cfg: cfg.with_dir_ratio(ratio),
                    rep: 0,
                });
            }
        }
    }
    simulate(&cells, Scale::Test, None).checksum(&cells)
}

#[test]
fn serial_sweep_matches_committed_golden() {
    assert_eq!(
        sweep(false),
        GOLDEN_CHECKSUM,
        "fig7 sweep moved off the committed golden — a simulator change \
         altered protocol-visible counters"
    );
}

#[test]
fn sweep_checksum_holds_under_shadow_checking() {
    // `cfg.shadow_check` force-attaches the fail-fast coherence checker —
    // the in-process equivalent of running under `RACCD_SHADOW_CHECK=1` —
    // and must perturb nothing.
    assert_eq!(sweep(true), GOLDEN_CHECKSUM);
}
