//! End-to-end snapshot fidelity: a run that checkpoints at cycle `k`,
//! serialises the checkpoint to bytes, decodes it back, restores and
//! finishes must be indistinguishable from the uninterrupted run — same
//! shadow state key, same `Stats`, same task count, same telemetry event
//! counts — across every workload and every evaluated system.

use raccd_core::{CoherenceMode, Driver};
use raccd_fault::{FaultPlan, FaultPlane};
use raccd_obs::{Recorder, RecorderConfig};
use raccd_protocol::{DirEntry, DirectoryBank};
use raccd_sim::{MachineConfig, ProtocolKind, SchedKind, Topology};
use raccd_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use raccd_workloads::{all_benchmarks, Scale};

fn cfg() -> MachineConfig {
    MachineConfig {
        shadow_check: true,
        ..MachineConfig::scaled()
    }
}

/// Run to completion, returning (state key, output) — the key must be read
/// before `finish` tears the machine down.
fn run_to_end(mut driver: Driver) -> (String, raccd_core::DriverOutput) {
    while driver.step(None) {}
    let key = driver.shadow_state_key().expect("shadow checker attached");
    (key, driver.finish(None))
}

/// Snapshot at `k`, round-trip the snapshot through bytes, restore into a
/// freshly built program, finish.
fn run_split(
    mode: CoherenceMode,
    make: &dyn Fn() -> raccd_runtime::Program,
    plan: Option<FaultPlan>,
    k: u64,
) -> (String, raccd_core::DriverOutput) {
    let mut part1 = Driver::new(cfg(), mode, make(), plan, None);
    part1.run_until(k, None);
    let snap = part1.snapshot();
    let bytes = snap.to_bytes();
    let snap = Snapshot::from_bytes(&bytes).expect("snapshot decodes from its own bytes");
    let part2 = Driver::restore(cfg(), mode, make(), &snap).expect("snapshot restores");
    run_to_end(part2)
}

#[test]
fn restore_and_finish_matches_uninterrupted_everywhere() {
    let benches = all_benchmarks(Scale::Test);
    for w in &benches {
        for mode in [
            CoherenceMode::Raccd,
            CoherenceMode::PageTable,
            CoherenceMode::FullCoh,
        ] {
            let (ref_key, ref_out) = run_to_end(Driver::new(cfg(), mode, w.build(), None, None));
            let k = ref_out.stats.cycles / 2;
            let (split_key, split_out) = run_split(mode, &|| w.build(), None, k);
            let tag = format!("{} under {mode:?} split at {k}", w.name());
            assert_eq!(split_key, ref_key, "{tag}: shadow state key");
            assert_eq!(split_out.stats, ref_out.stats, "{tag}: stats");
            assert_eq!(split_out.tasks, ref_out.tasks, "{tag}: tasks");
            assert_eq!(split_out.edges, ref_out.edges, "{tag}: edges");
        }
    }
}

#[test]
fn restore_preserves_fault_machinery_mid_campaign() {
    let benches = all_benchmarks(Scale::Test);
    let w = &benches[0];
    let plan = FaultPlan {
        drop: 3e-4,
        dup: 1e-4,
        delay: 5e-4,
        dir_loss: 1e-4,
        task_fail: 3e-4,
        straggle: 1e-3,
        ..FaultPlan::default()
    };
    let (ref_key, ref_out) = run_to_end(Driver::new(
        cfg(),
        CoherenceMode::Raccd,
        w.build(),
        Some(plan),
        None,
    ));
    let k = ref_out.stats.cycles / 2;
    let (split_key, split_out) = run_split(CoherenceMode::Raccd, &|| w.build(), Some(plan), k);
    assert_eq!(split_key, ref_key, "faulty split: shadow state key");
    assert_eq!(split_out.stats, ref_out.stats, "faulty split: stats");
    let rf = ref_out.fault.expect("fault report");
    let sf = split_out.fault.expect("fault report");
    assert_eq!(sf.stats, rf.stats, "faulty split: fault counters");
    assert_eq!(sf.detected, rf.detected, "faulty split: detection");
    assert_eq!(sf.degraded, rf.degraded, "faulty split: degrade latch");
}

#[test]
fn restore_preserves_telemetry_event_stream_counts() {
    let benches = all_benchmarks(Scale::Test);
    let w = &benches[3]; // Jacobi: exercises wakeup chains and NC fills
    let mut cfg = cfg();
    cfg.record_events = true;
    let rc = || {
        Recorder::new(RecorderConfig {
            sample_interval: 2048,
            buffer_events: true,
        })
    };

    let mut ref_rec = rc();
    let driver = Driver::new(
        cfg,
        CoherenceMode::Raccd,
        w.build(),
        None,
        Some(&mut ref_rec),
    );
    let ref_out = driver.finish(Some(&mut ref_rec));

    // The split run shares ONE recorder across both halves, so the merged
    // stream must count exactly like the uninterrupted one.
    let k = ref_out.stats.cycles / 2;
    let mut split_rec = rc();
    let mut part1 = Driver::new(
        cfg,
        CoherenceMode::Raccd,
        w.build(),
        None,
        Some(&mut split_rec),
    );
    part1.run_until(k, Some(&mut split_rec));
    let snap = part1.snapshot();
    let part2 = Driver::restore(cfg, CoherenceMode::Raccd, w.build(), &snap).expect("restore");
    let split_out = part2.finish(Some(&mut split_rec));

    assert_eq!(split_out.stats, ref_out.stats, "stats across split");
    assert_eq!(
        split_rec.events().len(),
        ref_rec.events().len(),
        "total telemetry events"
    );
    let count_by_kind = |rec: &Recorder| {
        let mut m = std::collections::BTreeMap::new();
        for ev in rec.events() {
            *m.entry(ev.kind()).or_insert(0u64) += 1;
        }
        m
    };
    assert_eq!(
        count_by_kind(&split_rec),
        count_by_kind(&ref_rec),
        "per-kind telemetry event counts"
    );
}

#[test]
fn restore_rejects_mismatched_shape() {
    let benches = all_benchmarks(Scale::Test);
    let w = &benches[0];
    let mut d = Driver::new(cfg(), CoherenceMode::Raccd, w.build(), None, None);
    d.run_until(1_000, None);
    let snap = d.snapshot();
    // Wrong mode.
    assert!(Driver::restore(cfg(), CoherenceMode::FullCoh, w.build(), &snap).is_err());
    // Wrong machine configuration.
    let other = cfg().with_dir_ratio(8);
    assert!(Driver::restore(other, CoherenceMode::Raccd, w.build(), &snap).is_err());
    // Corrupted bytes fail the section CRC.
    let mut bytes = snap.to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    assert!(Snapshot::from_bytes(&bytes).is_err());
}

/// A CRC-valid archive can still name a core the machine does not have.
/// Restoring one used to succeed and the run died later, indexing
/// `Machine::cores` out of bounds on the first downgrade, invalidation or
/// page flush aimed at that core; restore now refuses it.
#[test]
fn restore_rejects_entries_naming_absent_cores() {
    let benches = all_benchmarks(Scale::Test);
    let cg = &benches[0];
    let base = MachineConfig::scaled();
    let snapshot = |cfg, mode| {
        let mut d = Driver::new(cfg, mode, cg.build(), None, None);
        d.run_until(4_000, None);
        d.snapshot()
    };
    // Restore what a reader of the crafted archive's own bytes would see.
    let restore = |cfg, mode, snap: &Snapshot| {
        let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("crafted archive is well-formed");
        Driver::restore(cfg, mode, cg.build(), &snap).err()
    };

    // Directory entries: the owner, the MESIF forwarder, one sharer bit.
    let mesif = MachineConfig {
        protocol: ProtocolKind::Mesif,
        ..base
    };
    type Edit = fn(&mut DirEntry) -> bool;
    let edits: [(MachineConfig, Edit); 3] = [
        (base, |e| e.owner.replace(200).is_some()),
        (mesif, |e| e.fwd.replace(200).is_some()),
        (base, |e| {
            e.sharers |= 1 << 63;
            true
        }),
    ];
    for (cfg, edit) in edits {
        let mut snap = snapshot(cfg, CoherenceMode::FullCoh);
        let mut dir: Vec<DirectoryBank> = snap.get("machine/dir").expect("directory section");
        let mut edited = 0;
        for bank in &mut dir {
            let blocks: Vec<_> = bank.iter().map(|(block, _)| block).collect();
            for block in blocks {
                edited += edit(bank.lookup(block).expect("resident")) as usize;
            }
        }
        assert!(edited > 0, "the archive held an entry to corrupt");
        snap.put("machine/dir", &dir);
        assert_eq!(
            restore(cfg, CoherenceMode::FullCoh, &snap),
            Some(SnapError::Invalid("directory entry core"))
        );
    }

    // The PT classifier: every private page becomes private to core 200
    // (`PageState` is crate-private, so patch its bytes: a map of page to
    // tag 0 + core or tag 1, then the transition count).
    let mut snap = snapshot(base, CoherenceMode::PageTable);
    let (mut r, mut w) = (
        SnapReader::new(snap.raw("driver/pt").expect("PT section")),
        SnapWriter::new(),
    );
    let pages = r.u64().unwrap();
    w.u64(pages);
    for _ in 0..pages {
        w.u64(r.u64().unwrap());
        let tag = r.u8().unwrap();
        w.u8(tag);
        if tag == 0 {
            r.u8().unwrap();
            w.u8(200);
        }
    }
    w.u64(r.u64().unwrap());
    assert_eq!(r.remaining(), 0);
    snap.put_raw("driver/pt", w.into_bytes());
    assert_eq!(
        restore(base, CoherenceMode::PageTable, &snap),
        Some(SnapError::Invalid("page owner core"))
    );
}

/// The five machines whose archives [`archive_bytes_are_pinned`] folds.
/// Every one attaches the shadow checker (so `RACCD_SHADOW_CHECK=1`
/// changes no archive); between them they cover ADR, the three protocols,
/// the five ready-queue policies, both topologies, SMT, write-through,
/// bank contention, permuted frames and recorded events.
fn pinned_machines() -> [MachineConfig; 5] {
    let base = cfg();
    let quantum = MachineConfig {
        protocol: ProtocolKind::Mesif,
        sched: SchedKind::Quantum,
        l1_write_through: true,
        sched_quantum: 500,
        record_events: true,
        ..base
    };
    let numa = MachineConfig {
        sched: SchedKind::Locality,
        bank_contention: true,
        permuted_pages: true,
        ..base.with_topology(Topology::Numa2)
    };
    [
        base,
        MachineConfig {
            adr: true,
            dir_ratio: 16,
            sched: SchedKind::Priority,
            ..base
        },
        MachineConfig {
            protocol: ProtocolKind::Moesi,
            sched: SchedKind::Steal,
            smt_ways: 2,
            ..base
        },
        quantum,
        numa,
    ]
}

/// The wire layout of every record a driver archive holds, pinned: two
/// mid-run archives (cycles 3 000 and 9 000) of every benchmark under every
/// coherence mode on each of [`pinned_machines`], with and without a fault
/// plan that has injected by the second of them, folded into one `u64`.
/// The constant was read at the commit before the `Snap` impls became
/// `snap_record!` / `snap_enum!` declarations; a change to any field's
/// order, width or tag moves it.
#[test]
fn archive_bytes_are_pinned() {
    let plan = FaultPlan {
        seed: 7,
        drop: 0.01,
        dup: 0.005,
        corrupt: 0.005,
        delay: 0.02,
        dir_loss: 0.002,
        storm: 0.01,
        task_fail: 0.02,
        straggle: 0.05,
        ..FaultPlan::default()
    };
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let mut archives = 0;
    for w in &all_benchmarks(Scale::Test) {
        for mode in CoherenceMode::EXTENDED {
            for cfg in pinned_machines() {
                for plan in [None, Some(plan)] {
                    let mut d = Driver::new(cfg, mode, w.build(), plan, None);
                    for k in [3_000, 9_000] {
                        d.run_until(k, None);
                        let s = d.snapshot();
                        if plan.is_some() && k == 9_000 {
                            let plane: FaultPlane = s.get("machine/faults").expect("plane saved");
                            assert!(plane.stats.injected > 0, "{} {mode:?}", w.name());
                        }
                        fold = (fold ^ s.content_hash()).wrapping_mul(0x0000_0100_0000_01B3);
                        archives += 1;
                    }
                }
            }
        }
    }
    assert_eq!(archives, 9 * 4 * 5 * 2 * 2);
    assert_eq!(fold, 0xED9D_7103_BEEA_B588, "fold of {archives} archives");
}
