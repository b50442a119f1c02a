//! The fig7 golden: a fig7 sub-sweep (three pinned workloads × {RaCCD,
//! FullCoh} × every directory ratio) pinned to a committed checksum, plain
//! and with the shadow checker attached.
//!
//! If the golden moves, a simulator change altered protocol-visible
//! counters; update the constant *only* after confirming that the change
//! is a model change.

use raccd::core::{CoherenceMode, Experiment};
use raccd::sim::{MachineConfig, DIR_RATIOS};
use raccd::workloads::{all_benchmarks, Scale};
use raccd_bench::figures::{simulate, Cell};
use raccd_campaign::JobSpec;

/// Committed golden: fig7-sweep checksum at Test scale on the
/// `MachineConfig::scaled()` machine (see `Results::checksum` for the
/// folded fields).
const GOLDEN_CHECKSUM: u64 = 0x438C_1BAE_BC50_BA8B;

/// The pinned sub-matrix: Jacobi, Histo, MD5 under both coherence systems
/// at every directory ratio.
const WORKLOADS: [&str; 3] = ["Jacobi", "Histo", "MD5"];
const MODES: [CoherenceMode; 2] = [CoherenceMode::Raccd, CoherenceMode::FullCoh];

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in WORKLOADS {
        for mode in MODES {
            for ratio in DIR_RATIOS {
                let mut spec = JobSpec::new(bench, Scale::Test, mode);
                spec.ratio = ratio;
                cells.push(Cell { spec, rep: 0 });
            }
        }
    }
    cells
}

#[test]
fn serial_sweep_matches_committed_golden() {
    let cells = cells();
    assert_eq!(
        simulate(&cells, None).checksum(&cells),
        GOLDEN_CHECKSUM,
        "fig7 sweep moved off the committed golden — a simulator change \
         altered protocol-visible counters"
    );
}

#[test]
fn sweep_checksum_holds_under_shadow_checking() {
    // `cfg.shadow_check` force-attaches the fail-fast coherence checker —
    // the in-process equivalent of running under `RACCD_SHADOW_CHECK=1` —
    // and must perturb nothing: every cell's folded counters equal the
    // plain run's, so the checked sweep folds to the golden too.
    let cells = cells();
    let plain = simulate(&cells, None);
    assert_eq!(plain.checksum(&cells), GOLDEN_CHECKSUM);
    let workloads = all_benchmarks(Scale::Test);
    for cell in &cells {
        let cfg = MachineConfig {
            shadow_check: true,
            ..cell.spec.machine_config()
        };
        let w = &workloads[cell.spec.bench_idx().unwrap()];
        let run = Experiment::new(cfg, cell.spec.mode).run(w.as_ref());
        assert!(run.verified, "{}: {:?}", cell.key(), run.verify_error);
        assert_eq!(
            run.stats.protocol_counters_le(),
            plain.get(cell).stats.protocol_counters_le(),
            "{}",
            cell.key()
        );
    }
}
