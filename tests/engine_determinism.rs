//! Thread-count determinism regression: the epoch-parallel engine's
//! headline guarantee is that worker count is *invisible* in simulated
//! outcomes. These tests pin a fig7 sub-sweep (three pinned workloads ×
//! {RaCCD, FullCoh} × every directory ratio) to a committed golden
//! checksum and require every thread count from 1 to 8 — and the
//! shadow-checked variant — to reproduce it bit for bit.
//!
//! If the golden moves, a simulator change altered protocol-visible
//! counters; update the constant *only* after confirming the serial
//! engine agrees (these tests fail together in that case, which is the
//! signal that the change is a model change, not an engine bug).

use raccd::core::{CoherenceMode, Engine};
use raccd::sim::{MachineConfig, DIR_RATIOS};
use raccd::workloads::Scale;
use raccd_bench::figures::{simulate, Cell};

/// Committed golden: serial fig7-sweep checksum at Test scale on the
/// `MachineConfig::scaled()` machine (see `Results::checksum` for the
/// folded fields).
const GOLDEN_SERIAL_CHECKSUM: u64 = 0x438C_1BAE_BC50_BA8B;

/// The pinned sub-matrix: Jacobi, Histo, MD5 under both coherence systems
/// at every directory ratio.
const WORKLOADS: [usize; 3] = [3, 2, 7];
const MODES: [CoherenceMode; 2] = [CoherenceMode::Raccd, CoherenceMode::FullCoh];

fn sweep(engine: Engine, shadow: bool) -> u64 {
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
    simulate(&cells, Scale::Test, engine, None).checksum(&cells)
}

#[test]
fn serial_sweep_matches_committed_golden() {
    assert_eq!(
        sweep(Engine::Serial, false),
        GOLDEN_SERIAL_CHECKSUM,
        "serial fig7 sweep moved off the committed golden — a simulator \
         change altered protocol-visible counters"
    );
}

#[test]
fn sweep_checksum_is_thread_count_invariant() {
    for threads in 1..=8 {
        assert_eq!(
            sweep(Engine::EpochParallel { threads }, false),
            GOLDEN_SERIAL_CHECKSUM,
            "epoch-parallel sweep at {threads} thread(s) diverged from the \
             serial golden"
        );
    }
}

#[test]
fn sweep_checksum_holds_under_shadow_checking() {
    // `cfg.shadow_check` force-attaches the fail-fast coherence checker —
    // the in-process equivalent of running under `RACCD_SHADOW_CHECK=1` —
    // and must perturb nothing.
    assert_eq!(sweep(Engine::Serial, true), GOLDEN_SERIAL_CHECKSUM);
    assert_eq!(
        sweep(Engine::EpochParallel { threads: 4 }, true),
        GOLDEN_SERIAL_CHECKSUM
    );
}
