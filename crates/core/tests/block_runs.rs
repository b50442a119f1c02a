//! Byte-stream tasks replay long runs of references to one 64-byte block:
//! runs that cross the driver's 64-reference batch boundary, runs an
//! injected task failure cuts short, runs with a store to a block other
//! cores hold in S (an upgrade), runs of stores under write-through and on
//! SMT siblings. Every coherence mode on four machines, with and without
//! certain task failure, must end in the pinned `Stats`, shadow
//! `state_key` and final archive.

use raccd_core::{CoherenceMode, Driver, DriverOutput};
use raccd_mem::addr::VRange;
use raccd_protocol::ProtocolKind;
use raccd_runtime::{Dep, Program, ProgramBuilder};
use raccd_sim::{CoherenceEvent, FaultPlan, MachineConfig};
use raccd_snap::fnv1a64;

const CHUNKS: u64 = 8;
/// Each scanner owns a 1 KiB region and streams `CHUNK` bytes of it,
/// starting `SKEW` bytes in, so no run is block- or batch-aligned.
const REGION: u64 = 1024;
const CHUNK: u64 = 700;
const SKEW: u64 = 5;

/// Eight scanners read a shared 256-byte header and their own chunk byte
/// by byte and write the chunk's running sum back byte by byte; then four
/// bumpers, chained on the header, read into its first block, store in the
/// middle of that run and read on.
fn byte_stream_program() -> Program {
    let mut b = ProgramBuilder::new();
    let header = b.alloc("header", 256);
    let data = b.alloc("data", CHUNKS * REGION);
    for i in 0..256 {
        b.mem().write_u8(header.start.offset(i), i as u8);
    }
    for i in 0..CHUNKS * REGION {
        b.mem().write_u8(data.start.offset(i), (i * 7) as u8);
    }
    let region = move |c: u64| VRange::new(data.start.offset(c * REGION), REGION);
    for c in 0..CHUNKS {
        b.task(
            "scan",
            vec![Dep::input(header), Dep::inout(region(c))],
            move |ctx| {
                let mut acc = 0u8;
                for i in 0..header.len {
                    acc = acc.wrapping_add(ctx.read_u8(header.start.offset(i)));
                }
                for i in 0..CHUNK {
                    let at = region(c).start.offset(SKEW + i);
                    acc = acc.wrapping_add(ctx.read_u8(at));
                    ctx.write_u8(at, acc);
                }
            },
        );
    }
    for k in 0..4u64 {
        b.task("bump", vec![Dep::inout(header)], move |ctx| {
            let mut acc = k as u8;
            for i in 0..40 {
                acc ^= ctx.read_u8(header.start.offset(i));
            }
            ctx.write_u8(header.start.offset(40 + k), acc);
            for i in 41..64 {
                acc ^= ctx.read_u8(header.start.offset(i));
            }
            ctx.write_u8(header.start.offset(64 + k), acc);
        });
    }
    b.finish()
}

/// What a run ends in: its output, the shadow state key and the FNV of the
/// final archive (taken with the checker attached, so it covers the
/// checker's mirror too).
fn run(
    cfg: MachineConfig,
    mode: CoherenceMode,
    plan: Option<FaultPlan>,
) -> (DriverOutput, u64, u64) {
    let mut d = Driver::new(
        MachineConfig {
            shadow_check: true,
            ..cfg
        },
        mode,
        byte_stream_program(),
        plan,
        None,
    );
    while d.step(None) {}
    let key = d.shadow_state_key().expect("checker attached");
    let archive = fnv1a64(&d.snapshot().to_bytes());
    (d.finish(None), fnv1a64(key.as_bytes()), archive)
}

fn machines() -> [(&'static str, MachineConfig); 4] {
    let mut base = MachineConfig::scaled();
    base.record_events = true;
    [
        ("mesi", base),
        (
            "moesi",
            MachineConfig {
                protocol: ProtocolKind::Moesi,
                ..base
            },
        ),
        (
            "write-through",
            MachineConfig {
                l1_write_through: true,
                ..base
            },
        ),
        (
            "smt2",
            MachineConfig {
                smt_ways: 2,
                ..base
            },
        ),
    ]
}

#[test]
fn same_block_runs_are_pinned() {
    let certain_failure = FaultPlan {
        seed: 3,
        task_fail: 1.0,
        task_retry_budget: 8,
        ..FaultPlan::default()
    };
    let fold = |acc: u64, v: u64| (acc ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    let basis = 0xcbf2_9ce4_8422_2325u64;
    let (mut stats, mut keys, mut archives) = (basis, basis, basis);
    let mut cases = 0;
    for (name, cfg) in machines() {
        for mode in CoherenceMode::EXTENDED {
            for plan in [None, Some(certain_failure)] {
                let what = format!("{name} / {mode:?} / failing {}", plan.is_some());
                let (out, key, archive) = run(cfg, mode, plan);
                let check = out.check.as_ref().expect("checker attached");
                assert!(
                    check.violations.is_empty(),
                    "{what}: {:?}",
                    check.violations
                );
                let digest = fnv1a64(&raccd_snap::encode(&out.stats));
                println!("{what}: stats {digest:#018x} key {key:#018x} archive {archive:#018x}");
                match plan {
                    None => assert_eq!(out.tasks, 12, "{what}"),
                    Some(_) => assert!(out.stats.task_retries > 0, "{what}"),
                }
                let upgrades = out
                    .events
                    .iter()
                    .filter(|te| matches!(te.ev, CoherenceEvent::Upgrade { .. }));
                if mode == CoherenceMode::FullCoh && plan.is_none() {
                    assert!(upgrades.count() > 0, "{what}: a store met a Shared line");
                }
                if name == "write-through" {
                    assert!(out.stats.write_throughs > 0, "{what}");
                }
                stats = fold(stats, digest);
                keys = fold(keys, key);
                archives = fold(archives, archive);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 4 * 4 * 2);
    assert_eq!(
        (stats, keys, archives),
        (
            0x52D6_7126_30E4_2DB3,
            0x3EE3_E65B_E60C_E9E5,
            0xD023_89D8_BEDF_B2CE
        ),
        "folds over {cases} runs"
    );
}
