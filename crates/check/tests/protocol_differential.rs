//! Per-protocol × per-topology sweep under the shadow checker.
//!
//! For every coherence protocol ({MESI, MESIF, MOESI}) on every NoC
//! topology ({mesh, numa2}), each workload under RaCCD and under full
//! coherence runs to the end with the fail-fast shadow checker attached
//! (its `state_key` renders the protocol-specific F/O line states and the
//! directory's forward pointer) and the recorder on, and must finish with
//! a clean report and a verified result. Two more tests show that the
//! variants are variants.

use raccd_core::{CoherenceMode, Driver, DriverOutput, Recorder};
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, ProtocolKind, Topology};
use raccd_snap::fnv1a64;
use raccd_workloads::{histo::Histo, jacobi::Jacobi, Scale};

/// Tiny shadow-checked machine: 2×2 mesh per socket, so `numa2` runs
/// eight cores split across the inter-socket link.
fn tiny(protocol: ProtocolKind, topology: Topology) -> MachineConfig {
    let cfg = MachineConfig {
        shadow_check: true,
        mesh_k: 2,
        protocol,
        ..MachineConfig::scaled()
    };
    cfg.with_topology(topology)
}

fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Jacobi {
            n: 24,
            iters: 2,
            blocks: 4,
            ..Jacobi::new(Scale::Test)
        }),
        Box::new(Histo::new(Scale::Test)),
    ]
}

/// Run `w` to the end with the recorder on; the shadow `state_key` is
/// read before `finish` tears the machine down.
fn run_checked(
    w: &dyn Workload,
    cfg: MachineConfig,
    mode: CoherenceMode,
) -> (Option<String>, DriverOutput) {
    let mut rec = Recorder::default();
    let mut driver = Driver::new(cfg, mode, w.build(), None, Some(&mut rec));
    while driver.step(Some(&mut rec)) {}
    let key = driver.shadow_state_key();
    let out = driver.finish(Some(&mut rec));
    assert!(!rec.events().is_empty(), "recorder was on");
    (key, out)
}

/// Run every cell of one (protocol, topology) under the checker and
/// return the fold of its `Stats` bytes, shadow keys and final memories.
fn sweep(protocol: ProtocolKind, topology: Topology) -> u64 {
    let fold = |acc: u64, v: u64| (acc ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let cfg = tiny(protocol, topology);
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let what = format!("{} {protocol}@{topology} under {mode}", w.name());
            let (key, out) = run_checked(w.as_ref(), cfg, mode);
            let key = key.unwrap_or_else(|| panic!("{what}: shadow checker attached"));
            let report = out.check.as_ref().expect("shadow checker attached");
            assert!(report.clean(), "{what}: {:?}", report.violations);
            w.verify(&out.mem).unwrap_or_else(|e| panic!("{what}: {e}"));
            for digest in [
                fnv1a64(&raccd_snap::encode(&out.stats)),
                fnv1a64(key.as_bytes()),
                fnv1a64(&raccd_snap::encode(&out.mem)),
            ] {
                acc = fold(acc, digest);
            }
        }
    }
    acc
}

#[test]
fn mesi_mesh_runs_clean_under_the_checker() {
    assert_eq!(
        sweep(ProtocolKind::Mesi, Topology::Mesh),
        0x3C25_5484_74B2_DDAC
    );
}

#[test]
fn mesi_numa2_runs_clean_under_the_checker() {
    assert_eq!(
        sweep(ProtocolKind::Mesi, Topology::Numa2),
        0x0107_F4F2_C2A8_6905
    );
}

#[test]
fn mesif_mesh_runs_clean_under_the_checker() {
    assert_eq!(
        sweep(ProtocolKind::Mesif, Topology::Mesh),
        0x61F7_A9B4_270A_F0B1
    );
}

#[test]
fn mesif_numa2_runs_clean_under_the_checker() {
    assert_eq!(
        sweep(ProtocolKind::Mesif, Topology::Numa2),
        0xC530_A0C5_2E91_3E97
    );
}

#[test]
fn moesi_mesh_runs_clean_under_the_checker() {
    assert_eq!(
        sweep(ProtocolKind::Moesi, Topology::Mesh),
        0xB779_9D92_7FF4_F413
    );
}

#[test]
fn moesi_numa2_runs_clean_under_the_checker() {
    assert_eq!(
        sweep(ProtocolKind::Moesi, Topology::Numa2),
        0x3418_23F9_E78C_AB0A
    );
}

/// The variants must actually *be* variants: under FullCoh the three
/// protocols route a sharing-heavy workload differently (MESIF's clean
/// F-supplies and MOESI's writeback-free O downgrades change the traffic
/// mix), so their Stats must not all coincide.
#[test]
fn protocols_differentiate_under_fullcoh() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    let stats: Vec<_> = ProtocolKind::ALL
        .iter()
        .map(|&p| {
            run_checked(&w, tiny(p, Topology::Mesh), CoherenceMode::FullCoh)
                .1
                .stats
        })
        .collect();
    assert!(
        stats.iter().any(|s| s != &stats[0]),
        "MESI, MESIF and MOESI produced identical Stats on a sharing workload"
    );
}

/// numa2 must actually cross the link: the same workload on the same
/// protocol reports cross-link message crossings only on the 2-socket
/// topology, and its cycle count differs from the single mesh.
#[test]
fn numa2_differentiates_from_mesh() {
    let w = Histo::new(Scale::Test);
    let run = |topology| {
        let cfg = tiny(ProtocolKind::Mesi, topology);
        run_checked(&w, cfg, CoherenceMode::FullCoh).1.stats
    };
    assert_ne!(
        run(Topology::Mesh).cycles,
        run(Topology::Numa2).cycles,
        "inter-socket link latency must be visible in cycles"
    );
}
