//! Counterexample trace round-trips, replay determinism and minimisation.

use raccd_check::{minimize, parse, replay, serialize, CheckedMachine, TraceOp};
use raccd_sim::{MachineConfig, ProtocolKind, Topology};

fn tiny() -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_dir_ratio(32);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.llc_entries_per_bank = 32;
    cfg.dir_ways = 1;
    cfg
}

fn sample_ops() -> Vec<TraceOp> {
    vec![
        TraceOp::Access {
            core: 0,
            block: 0x40,
            write: false,
            nc: false,
        },
        TraceOp::Access {
            core: 1,
            block: 0x40,
            write: true,
            nc: false,
        },
        TraceOp::Access {
            core: 1,
            block: 0x44,
            write: true,
            nc: true,
        },
        TraceOp::FlushNc { core: 1 },
        TraceOp::FlushPage { core: 0, page: 0x1 },
        TraceOp::Access {
            core: 0,
            block: 0x40,
            write: false,
            nc: false,
        },
    ]
}

/// serialize → parse → replay reproduces the exact machine end state the
/// directly-applied trace reaches (fingerprint equality).
#[test]
fn serialized_trace_replays_to_identical_state() {
    let cfg = tiny();
    let ops = sample_ops();

    let mut direct = CheckedMachine::new(cfg);
    for &op in &ops {
        direct.apply(op);
    }
    let want_key = direct.state_key();
    assert!(direct.drain_violations().is_empty());

    let text = serialize(&cfg, None, &ops);
    let (cfg2, _, ops2) = parse(&text).expect("own output must parse");
    assert_eq!(ops, ops2);
    let mut replayed = CheckedMachine::new(cfg2);
    for &op in &ops2 {
        replayed.apply(op);
    }
    assert_eq!(replayed.state_key(), want_key, "replay diverged");
}

/// A trace keeps the protocol and the topology it ran on: a MOESI run on
/// two sockets (eight cores, a dirty line owned across the link) replays
/// to the state it reached, where a trace without them replayed MESI on
/// one socket or could not build the machine at all.
#[test]
fn moesi_on_numa2_replays_to_its_own_state() {
    let cfg = MachineConfig {
        protocol: ProtocolKind::Moesi,
        ..tiny()
    }
    .with_topology(Topology::Numa2);
    let access = |core, block, write| TraceOp::Access {
        core,
        block,
        write,
        nc: false,
    };
    let ops = [
        access(0, 0x40, true),
        access(5, 0x40, false),
        access(7, 0x48, true),
        access(2, 0x48, false),
        access(6, 0x40, false),
    ];
    let mut direct = CheckedMachine::new(cfg);
    for &op in &ops {
        direct.apply(op);
    }
    let text = serialize(&cfg, None, &ops);
    assert!(
        text.contains("\ncfg ratio=32 protocol=moesi topology=numa2 mesh_k=2 llc=32 dir_ways=1\n"),
        "{text}"
    );
    let (cfg2, plan, ops2) = parse(&text).expect("own output must parse");
    assert_eq!(format!("{cfg2:?}"), format!("{cfg:?}"));
    let mut replayed = replay(cfg2, plan.as_ref(), &ops2);
    assert_eq!(replayed.state_key(), direct.state_key());
    assert!(replayed.drain_violations().is_empty());
}

/// `replay` on a clean trace returns no violations, twice in a row
/// (replays must not perturb global state).
#[test]
fn replay_is_deterministic_and_clean() {
    let cfg = tiny();
    let ops = sample_ops();
    assert!(replay(cfg, None, &ops).into_violations().is_empty());
    assert!(replay(cfg, None, &ops).into_violations().is_empty());
}

/// Minimising a clean trace is the identity (nothing to shrink toward).
#[test]
fn minimize_leaves_clean_traces_alone() {
    let cfg = tiny();
    let ops = sample_ops();
    assert_eq!(minimize(cfg, &ops), ops);
}

/// A counterexample file written by the dump helper parses and replays.
#[test]
fn dumped_counterexample_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("raccd-check-test-{}", std::process::id()));
    // Scope the env override to this test binary; the explorer tests run
    // in other processes.
    std::env::set_var("RACCD_CHECK_DUMP_DIR", &dir);
    let cfg = tiny();
    let ops = sample_ops();
    let path = raccd_check::write_counterexample(&cfg, None, &ops, "roundtrip", &[])
        .expect("dump must succeed");
    let text = std::fs::read_to_string(&path).expect("dump file exists");
    let (cfg2, _, ops2) = parse(&text).expect("dump must parse");
    assert_eq!(ops, ops2);
    assert!(replay(cfg2, None, &ops2).into_violations().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
