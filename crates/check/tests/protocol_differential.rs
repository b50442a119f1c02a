//! Per-protocol × per-topology engine differential.
//!
//! The engine bit-identity contract is protocol- and topology-blind: for
//! every coherence protocol ({MESI, MESIF, MOESI}) on every NoC topology
//! ({mesh, numa2}), the epoch-parallel engine must reproduce the serial
//! oracle exactly — same `Stats`, same shadow-checker `state_key` (which
//! renders the protocol-specific F/O line states and the directory's
//! forward pointer, so a protocol-path divergence cannot hide). Any
//! divergence dumps a replayable counterexample recipe to
//! `$RACCD_CHECK_DUMP_DIR` (or `target/raccd-check-counterexamples/`).

use raccd_core::{CoherenceMode, Driver, DriverOutput, Engine, Recorder};
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, ProtocolKind, Topology};
use raccd_workloads::{histo::Histo, jacobi::Jacobi, Scale};
use std::path::PathBuf;

const THREADS: [usize; 2] = [2, 4];

/// Tiny shadow-checked machine: 2×2 mesh per socket, so `numa2` runs
/// eight cores split across the inter-socket link.
fn tiny(protocol: ProtocolKind, topology: Topology) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_shadow_check(true);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.with_protocol(protocol).with_topology(topology)
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

struct EngineRun {
    key: Option<String>,
    out: DriverOutput,
    rec: Recorder,
}

fn run_engine(
    w: &dyn Workload,
    cfg: MachineConfig,
    mode: CoherenceMode,
    engine: Engine,
) -> EngineRun {
    let mut rec = Recorder::default();
    let mut driver = Driver::new(cfg, mode, w.build(), None, Some(&mut rec));
    driver.set_engine(engine);
    while driver.step(Some(&mut rec)) {}
    let key = driver.shadow_state_key();
    let out = driver.finish(Some(&mut rec));
    EngineRun { key, out, rec }
}

fn dump_dir() -> PathBuf {
    match std::env::var_os("RACCD_CHECK_DUMP_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("raccd-check-counterexamples"),
    }
}

fn dump_counterexample(
    w: &dyn Workload,
    protocol: ProtocolKind,
    topology: Topology,
    mode: CoherenceMode,
    threads: usize,
    detail: &str,
) -> String {
    let dir = dump_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!(
        "protocol-diff-{}-{}-{}-{mode}-t{threads}-{}.txt",
        w.name(),
        protocol.label(),
        topology.label(),
        std::process::id()
    ));
    let text = format!(
        "# parallel-vs-serial divergence (protocol variant)\n\
         workload = {}\nprotocol = {protocol}\ntopology = {topology}\n\
         mode = {mode}\nthreads = {threads}\n\
         # reproduce: cargo test -p raccd-check --test protocol_differential\n\
         {detail}\n",
        w.name(),
    );
    let _ = std::fs::write(&path, text);
    format!("{} (counterexample: {})", detail, path.display())
}

fn sweep(protocol: ProtocolKind, topology: Topology) {
    let cfg = tiny(protocol, topology);
    let mut failures = String::new();
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let serial = run_engine(w.as_ref(), cfg, mode, Engine::Serial);
            assert!(serial.key.is_some(), "shadow checker attached");
            for threads in THREADS {
                let par = run_engine(w.as_ref(), cfg, mode, Engine::EpochParallel { threads });
                let mut detail = String::new();
                if par.out.stats != serial.out.stats {
                    detail.push_str(&format!(
                        "Stats diverged:\n  serial: {:?}\n  par{threads}: {:?}\n",
                        serial.out.stats, par.out.stats
                    ));
                }
                if par.key != serial.key {
                    detail.push_str(&format!(
                        "shadow state_key diverged:\n  serial: {:?}\n  par{threads}: {:?}\n",
                        serial.key, par.key
                    ));
                }
                if par.rec.events() != serial.rec.events() {
                    detail.push_str("telemetry event stream diverged\n");
                }
                if !detail.is_empty() {
                    failures.push_str(&format!(
                        "{} {protocol}@{topology} under {mode}: {}\n",
                        w.name(),
                        dump_counterexample(w.as_ref(), protocol, topology, mode, threads, &detail)
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures}");
}

#[test]
fn mesi_mesh_parallel_matches_serial() {
    sweep(ProtocolKind::Mesi, Topology::Mesh);
}

#[test]
fn mesi_numa2_parallel_matches_serial() {
    sweep(ProtocolKind::Mesi, Topology::Numa2);
}

#[test]
fn mesif_mesh_parallel_matches_serial() {
    sweep(ProtocolKind::Mesif, Topology::Mesh);
}

#[test]
fn mesif_numa2_parallel_matches_serial() {
    sweep(ProtocolKind::Mesif, Topology::Numa2);
}

#[test]
fn moesi_mesh_parallel_matches_serial() {
    sweep(ProtocolKind::Moesi, Topology::Mesh);
}

#[test]
fn moesi_numa2_parallel_matches_serial() {
    sweep(ProtocolKind::Moesi, Topology::Numa2);
}

/// The variants must actually *be* variants: under FullCoh the three
/// protocols route a sharing-heavy workload differently (MESIF's clean
/// F-supplies and MOESI's writeback-free O downgrades change the traffic
/// mix), so their serial Stats must not all coincide.
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
            run_engine(
                &w,
                tiny(p, Topology::Mesh),
                CoherenceMode::FullCoh,
                Engine::Serial,
            )
            .out
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
    let mesh = run_engine(
        &w,
        tiny(ProtocolKind::Mesi, Topology::Mesh),
        CoherenceMode::FullCoh,
        Engine::Serial,
    );
    let numa = run_engine(
        &w,
        tiny(ProtocolKind::Mesi, Topology::Numa2),
        CoherenceMode::FullCoh,
        Engine::Serial,
    );
    assert_ne!(
        mesh.out.stats.cycles, numa.out.stats.cycles,
        "inter-socket link latency must be visible in cycles"
    );
}
