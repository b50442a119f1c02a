//! The shadow checker's observable output on one fixed trace, pinned.
//!
//! A short operation sequence covers coherent and NC fills, an NC write
//! race, directory evictions (blocks 0x40 and 0x44 share their bank's one
//! directory entry), `raccd_invalidate` with and without its flush, and
//! the NC→coherent and coherent→NC transitions, under each protocol. The
//! test pins three things a refactor of the checker's storage must leave
//! alone: the checker's snapshot section (`machine/checker`), its
//! `state_key` string and the violation codes it reports.

use raccd_check::{parse, TraceOp};
use raccd_mem::{BlockAddr, PageNum, BLOCK_SIZE};
use raccd_sim::{CheckEvent, L1LookupResult, Machine, ShadowChecker};
use raccd_snap::fnv1a64;

/// One step: a trace operation, or a runtime note the driver would send.
enum Step {
    Op(TraceOp),
    Note(CheckEvent),
}

fn access(core: usize, block: u64, write: bool, nc: bool) -> Step {
    Step::Op(TraceOp::Access {
        core,
        block,
        write,
        nc,
    })
}

/// `raccd_invalidate` as the driver runs it: flush, then the note.
fn invalidate(core: usize) -> [Step; 2] {
    [
        Step::Op(TraceOp::FlushNc { core }),
        Step::Note(CheckEvent::NcInvalidate { core }),
    ]
}

fn register(core: usize, block: u64) -> Step {
    let lo = block * BLOCK_SIZE;
    Step::Note(CheckEvent::NcrtLoaded {
        core,
        ranges: vec![(lo, lo + BLOCK_SIZE)],
    })
}

fn steps() -> Vec<Step> {
    let mut s = vec![
        Step::Note(CheckEvent::DisciplineOn),
        register(1, 0x48),
        access(0, 0x40, false, false),
        access(1, 0x40, false, false),
        access(1, 0x48, true, true),
        // Unregistered at core 0: an nc-discipline violation, and a stale
        // read excused by core 1's newer NC copy.
        access(0, 0x48, false, true),
        // Races core 0's NC copy.
        access(1, 0x48, true, true),
        // 0x44 takes 0x40's directory entry and recalls its copies, then
        // 0x40 takes it back.
        access(0, 0x44, true, false),
        access(1, 0x40, true, false),
        access(0, 0x40, false, false),
    ];
    s.extend(invalidate(1));
    // Core 0 still holds its NC copy of 0x48: a leftover violation.
    s.push(Step::Note(CheckEvent::NcInvalidate { core: 0 }));
    s.extend(invalidate(0));
    s.extend([
        access(2, 0x48, false, false),
        register(3, 0x48),
        access(3, 0x48, true, true),
        Step::Op(TraceOp::FlushPage { core: 0, page: 0x1 }),
        access(2, 0x44, false, false),
    ]);
    s.extend(invalidate(3));
    // A dirty owner downgraded by two readers: S, F or O by protocol.
    s.extend([
        access(0, 0x40, true, false),
        access(1, 0x40, false, false),
        access(2, 0x40, false, false),
    ]);
    s
}

/// Run [`steps`] on `machine`'s keys, audit, and return the section
/// digest, the `state_key` digest and the violation codes.
fn run(machine: &str) -> (u64, u64, Vec<&'static str>) {
    let line = format!("# raccd-check trace v2\ncfg mesh_k=2 llc=32 dir_ways=1 {machine}\n");
    let (cfg, _, _) = parse(&line).expect("machine keys");
    let mut m = Machine::new(cfg);
    m.attach_checker(Box::new(ShadowChecker::collecting(&cfg)));
    for (i, step) in steps().into_iter().enumerate() {
        let now = 100 * (i as u64 + 1);
        match step {
            Step::Note(ev) => m.check_note(ev),
            Step::Op(TraceOp::Access {
                core,
                block,
                write,
                nc,
            }) => {
                let b = BlockAddr(block);
                if let L1LookupResult::Miss = m.l1_lookup(core, b, write, now) {
                    m.miss_fill(core, b, write, nc, now);
                }
            }
            Step::Op(TraceOp::FlushNc { core }) => {
                m.flush_nc(core, now);
            }
            Step::Op(TraceOp::FlushPage { core, page }) => {
                m.flush_page(core, PageNum(page), PageNum(page), now);
            }
        }
    }
    m.shadow_audit();
    let section = fnv1a64(
        m.snapshot()
            .raw("machine/checker")
            .expect("checker section"),
    );
    let key = fnv1a64(m.shadow_state_key().expect("checker attached").as_bytes());
    let sink = m.checker_mut().expect("checker attached");
    let sc = sink.as_any_mut().downcast_mut::<ShadowChecker>();
    let codes = sc.expect("a ShadowChecker").take_violations();
    (section, key, codes.iter().map(|v| v.code).collect())
}

#[test]
fn checker_output_is_pinned_under_every_protocol() {
    for (machine, want_section, want_key) in [
        ("ratio=32", 0x7a29_1555_5715_3772, 0xfbdd_366c_35c8_3684),
        (
            "ratio=32 protocol=mesif",
            0xa4b9_0e22_0fd8_42a6,
            0xe385_c6b7_f25f_1291,
        ),
        (
            "ratio=32 protocol=moesi",
            0x28be_2d55_33cb_f21a,
            0x75d4_fa8e_ab2e_b4b5,
        ),
    ] {
        let (section, key, codes) = run(machine);
        assert_eq!(
            codes,
            ["nc-discipline", "nc-discipline"],
            "`{machine}`: codes"
        );
        assert_eq!(section, want_section, "`{machine}`: checker section");
        assert_eq!(key, want_key, "`{machine}`: state_key");
    }
}
