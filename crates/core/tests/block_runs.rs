//! Byte-stream tasks replay long runs of references to one 64-byte block:
//! runs that cross the driver's 64-reference batch boundary, runs an
//! injected task failure cuts short, runs with a store to a block other
//! cores hold in S (an upgrade), runs of stores under write-through and on
//! SMT siblings. Every coherence mode on four machines, with and without
//! certain task failure, must end in the pinned `Stats`, shadow
//! `state_key` and final archive.
//!
//! Stencil-and-gather tasks are the opposite shape: every 64-reference
//! batch interleaves several blocks, a few references each, the way the
//! Jacobi sweeps do, with gathers that miss the TLB mid-batch. They are
//! pinned the same way, plain, under quantum preemption and with task
//! failures landing inside batches.
//!
//! Mixed tasks switch shape mid-batch, a run giving way to interleaved
//! blocks and interleaved blocks to a run, with stores inside runs (to a
//! Shared line among them) and task failures landing inside runs; they
//! are pinned the same way.

use raccd_core::{CoherenceMode, Driver, DriverOutput};
use raccd_mem::addr::VRange;
use raccd_protocol::ProtocolKind;
use raccd_runtime::{Dep, Program, ProgramBuilder};
use raccd_sched::SchedKind;
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
    program: fn() -> Program,
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
        program(),
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
                let (out, key, archive) = run(byte_stream_program, cfg, mode, plan);
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

/// Grid rows and columns (`f32`): a row is four blocks.
const ROWS: u64 = 34;
const COLS: u64 = 64;
/// Rows per stencil task, and sweeps.
const BAND: u64 = 2;
const SWEEPS: u64 = 3;
/// The gathered vector spans four pages, so gathers miss the TLB.
const XLEN: u64 = 4096;
/// One gather per this many stencil points.
const GATHER_EVERY: u64 = 4;

/// Three Jacobi-style sweeps between two grids, each point a 5-point
/// stencil, every fourth point also a CSR-style gather `x[idx[k]]`. A
/// batch then holds four to ten blocks: three source rows, the
/// destination row, the index row and the gathered blocks. The sweeps
/// alternate the grids, so a task stores into rows it or a neighbour read
/// in the sweep before (under FullCoh, a store to an S line).
fn stencil_gather_program() -> Program {
    let mut b = ProgramBuilder::new();
    let row_bytes = COLS * 4;
    let grids = [
        b.alloc("A", ROWS * row_bytes),
        b.alloc("B", ROWS * row_bytes),
    ];
    let x = b.alloc("x", XLEN * 4);
    let nidx = ROWS * COLS / GATHER_EVERY;
    let idx = b.alloc("idx", nidx * 4);
    for i in 0..ROWS * COLS {
        let v = ((i * 37) % 101) as f32 / 16.0;
        b.mem().write_f32(grids[0].start.offset(i * 4), v);
        b.mem().write_f32(grids[1].start.offset(i * 4), v);
    }
    for i in 0..XLEN {
        b.mem().write_f32(x.start.offset(i * 4), (i % 13) as f32);
    }
    for k in 0..nidx {
        let target = (k * 1031 + (k >> 3) * 67) % XLEN;
        b.mem().write_u32(idx.start.offset(k * 4), target as u32);
    }
    let rows = move |g: VRange, r0: u64, r1: u64| {
        VRange::new(g.start.offset(r0 * row_bytes), (r1 - r0) * row_bytes)
    };
    for sweep in 0..SWEEPS {
        let (src, dst) = (
            grids[(sweep % 2) as usize],
            grids[(sweep % 2 + 1) as usize % 2],
        );
        for r0 in (1..ROWS - 1).step_by(BAND as usize) {
            let r1 = (r0 + BAND).min(ROWS - 1);
            let deps = vec![
                Dep::input(rows(src, r0 - 1, r1 + 1)),
                Dep::input(x),
                Dep::input(idx),
                Dep::output(rows(dst, r0, r1)),
            ];
            b.task("stencil", deps, move |ctx| {
                let at = |g: VRange, r: u64, c: u64| g.start.offset((r * COLS + c) * 4);
                for r in r0..r1 {
                    for c in 1..COLS - 1 {
                        let mut v = 0.25
                            * (ctx.read_f32(at(src, r - 1, c))
                                + ctx.read_f32(at(src, r + 1, c))
                                + ctx.read_f32(at(src, r, c - 1))
                                + ctx.read_f32(at(src, r, c + 1)));
                        let k = r * COLS + c;
                        if k.is_multiple_of(GATHER_EVERY) {
                            let j = ctx.read_u32(idx.start.offset(k / GATHER_EVERY * 4));
                            v += ctx.read_f32(x.start.offset(j as u64 * 4)) / 64.0;
                        }
                        ctx.write_f32(at(dst, r, c), v);
                    }
                }
            });
        }
    }
    b.finish()
}

#[test]
fn interleaved_block_batches_are_pinned() {
    let failures = FaultPlan {
        seed: 11,
        task_fail: 0.3,
        task_retry_budget: 16,
        ..FaultPlan::default()
    };
    let fold = |acc: u64, v: u64| (acc ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    let basis = 0xcbf2_9ce4_8422_2325u64;
    let (mut stats, mut keys, mut archives) = (basis, basis, basis);
    let mut cases = 0;
    for (name, base) in machines() {
        let quantum = MachineConfig {
            sched: SchedKind::Quantum,
            sched_quantum: 600,
            ..base
        };
        for mode in CoherenceMode::EXTENDED {
            for (variant, cfg, plan) in [
                ("plain", base, None),
                ("quantum", quantum, None),
                ("failing", base, Some(failures)),
            ] {
                let what = format!("{name} / {mode:?} / {variant}");
                let (out, key, archive) = run(stencil_gather_program, cfg, mode, plan);
                let check = out.check.as_ref().expect("checker attached");
                assert!(
                    check.violations.is_empty(),
                    "{what}: {:?}",
                    check.violations
                );
                let digest = fnv1a64(&raccd_snap::encode(&out.stats));
                println!("{what}: stats {digest:#018x} key {key:#018x} archive {archive:#018x}");
                assert_eq!(out.tasks as u64, SWEEPS * (ROWS - 2) / BAND, "{what}");
                assert!(out.stats.tlb_misses > 0, "{what}");
                match variant {
                    "quantum" => assert!(out.stats.preemptions > 0, "{what}"),
                    "failing" => assert!(out.stats.task_retries > 0, "{what}"),
                    _ => {}
                }
                if mode == CoherenceMode::FullCoh && variant == "plain" {
                    let upgrades = out
                        .events
                        .iter()
                        .filter(|te| matches!(te.ev, CoherenceEvent::Upgrade { .. }));
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
    assert_eq!(cases, 4 * 4 * 3);
    assert_eq!(
        (stats, keys, archives),
        (
            0xBD49_EB3B_E4EE_0DAE,
            0xF6DC_23FD_2325_400B,
            0x727D_C717_0B4B_6C58
        ),
        "folds over {cases} runs"
    );
}

/// Mixers (more than the SMT machine's 32 contexts, so quantum preemption
/// finds work waiting), and the segments each replays.
const MIXERS: u64 = 40;
const SEGMENTS: u64 = 16;
/// The table the interleaved stretches read spans four pages of `u32`.
const TABLE: u64 = 4096;

/// The mixers alternate a same-block run with an interleaved stretch, of
/// lengths that drift from segment to segment, so one 64-reference batch
/// opens in a run and switches to interleaved blocks, and another opens
/// interleaved and switches to a run. A run reads bytes of one
/// header block, or of one block of the mixer's own region with a store
/// in its middle; an interleaved step reads the table (across pages) and
/// the header and stores into the own region, three blocks a step. Then
/// four bumpers, chained on the header every mixer read, run through each
/// header block with a store in the middle of the run: under FullCoh a
/// store to a Shared line inside a run.
fn mixed_program() -> Program {
    let mut b = ProgramBuilder::new();
    let header = b.alloc("header", 512);
    let table = b.alloc("table", TABLE * 4);
    let own = b.alloc("own", MIXERS * REGION);
    for i in 0..header.len {
        b.mem().write_u8(header.start.offset(i), (i * 3) as u8);
    }
    for i in 0..TABLE {
        b.mem()
            .write_u32(table.start.offset(i * 4), (i * 2_654_435_761) as u32);
    }
    let region = move |m: u64| VRange::new(own.start.offset(m * REGION), REGION);
    for m in 0..MIXERS {
        let deps = vec![Dep::input(header), Dep::input(table), Dep::inout(region(m))];
        b.task("mix", deps, move |ctx| {
            let mut acc = m as u32;
            for s in 0..SEGMENTS {
                let run = 4 + (s * 7 + m * 3) % 29;
                let own_run = s % 3 == 2;
                let block = if own_run {
                    region(m).start.offset((s * 64) % REGION)
                } else {
                    header.start.offset((s % 8) * 64)
                };
                for i in 0..run {
                    let at = block.offset((i * 2 + s) % 64);
                    if own_run && i == run / 2 {
                        ctx.write_u8(at, acc as u8);
                    } else {
                        acc = acc.wrapping_add(ctx.read_u8(at) as u32);
                    }
                }
                for i in 0..2 + (s * 5 + m) % 13 {
                    let k = (s * 131 + i * 37 + m * 17) % TABLE;
                    acc ^= ctx.read_u32(table.start.offset(k * 4));
                    let h = header.start.offset((i * 67 + s) % header.len);
                    acc = acc.wrapping_add(ctx.read_u8(h) as u32);
                    let o = ((s * 16 + i) * 68) % REGION;
                    ctx.write_u32(region(m).start.offset(o), acc);
                }
            }
        });
    }
    for k in 0..4u64 {
        b.task(
            "bump",
            vec![Dep::inout(header), Dep::input(table)],
            move |ctx| {
                let mut acc = k as u32;
                for blk in 0..header.len / 64 {
                    let base = header.start.offset(blk * 64);
                    for i in 0..24 {
                        acc ^= ctx.read_u8(base.offset(i)) as u32;
                    }
                    ctx.write_u8(base.offset(24 + k), acc as u8);
                    for i in 30..50 {
                        acc ^= ctx.read_u8(base.offset(i)) as u32;
                    }
                    for i in 0..3 + blk * 2 {
                        let t = (blk * 512 + i * 97 + k * 13) % TABLE;
                        acc ^= ctx.read_u32(table.start.offset(t * 4));
                        let h = header.start.offset(((i + blk) % 8) * 64 + i);
                        acc ^= ctx.read_u8(h) as u32;
                    }
                }
            },
        );
    }
    b.finish()
}

#[test]
fn mixed_batches_are_pinned() {
    let failures = FaultPlan {
        seed: 5,
        task_fail: 0.5,
        task_retry_budget: 16,
        ..FaultPlan::default()
    };
    let fold = |acc: u64, v: u64| (acc ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    let basis = 0xcbf2_9ce4_8422_2325u64;
    let (mut stats, mut keys, mut archives) = (basis, basis, basis);
    let mut cases = 0;
    for (name, base) in machines() {
        let quantum = MachineConfig {
            sched: SchedKind::Quantum,
            sched_quantum: 600,
            ..base
        };
        for mode in CoherenceMode::EXTENDED {
            for (variant, cfg, plan) in [
                ("plain", base, None),
                ("quantum", quantum, None),
                ("failing", base, Some(failures)),
            ] {
                let what = format!("{name} / {mode:?} / {variant}");
                let (out, key, archive) = run(mixed_program, cfg, mode, plan);
                let check = out.check.as_ref().expect("checker attached");
                assert!(
                    check.violations.is_empty(),
                    "{what}: {:?}",
                    check.violations
                );
                let digest = fnv1a64(&raccd_snap::encode(&out.stats));
                println!("{what}: stats {digest:#018x} key {key:#018x} archive {archive:#018x}");
                assert_eq!(out.tasks as u64, MIXERS + 4, "{what}");
                match variant {
                    "quantum" => assert!(out.stats.preemptions > 0, "{what}"),
                    "failing" => assert!(out.stats.task_retries > 0, "{what}"),
                    _ => {}
                }
                if mode == CoherenceMode::FullCoh && variant == "plain" {
                    let upgrades = out
                        .events
                        .iter()
                        .filter(|te| matches!(te.ev, CoherenceEvent::Upgrade { .. }));
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
    assert_eq!(cases, 4 * 4 * 3);
    assert_eq!(
        (stats, keys, archives),
        (
            0x3FC6_20A0_1AC7_084E,
            0xAA25_369F_F1CA_63A8,
            0x581B_50D8_CB79_8051
        ),
        "folds over {cases} runs"
    );
}
