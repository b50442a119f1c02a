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

fn sweep(protocol: ProtocolKind, topology: Topology) {
    let cfg = tiny(protocol, topology);
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let what = format!("{} {protocol}@{topology} under {mode}", w.name());
            let (key, out) = run_checked(w.as_ref(), cfg, mode);
            assert!(key.is_some(), "{what}: shadow checker attached");
            let report = out.check.expect("shadow checker attached");
            assert!(report.clean(), "{what}: {:?}", report.violations);
            w.verify(&out.mem).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

#[test]
fn mesi_mesh_runs_clean_under_the_checker() {
    sweep(ProtocolKind::Mesi, Topology::Mesh);
}

#[test]
fn mesi_numa2_runs_clean_under_the_checker() {
    sweep(ProtocolKind::Mesi, Topology::Numa2);
}

#[test]
fn mesif_mesh_runs_clean_under_the_checker() {
    sweep(ProtocolKind::Mesif, Topology::Mesh);
}

#[test]
fn mesif_numa2_runs_clean_under_the_checker() {
    sweep(ProtocolKind::Mesif, Topology::Numa2);
}

#[test]
fn moesi_mesh_runs_clean_under_the_checker() {
    sweep(ProtocolKind::Moesi, Topology::Mesh);
}

#[test]
fn moesi_numa2_runs_clean_under_the_checker() {
    sweep(ProtocolKind::Moesi, Topology::Numa2);
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
