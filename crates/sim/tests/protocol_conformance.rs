//! Protocol-conformance tests: exact event sequences for the canonical
//! coherence scenarios, via the event recorder.

use raccd_mem::VAddr;
use raccd_sim::{CoherenceEvent, L1LookupResult, Machine, MachineConfig};

fn machine() -> Machine {
    let mut cfg = MachineConfig::scaled();
    cfg.record_events = true;
    Machine::new(cfg)
}

fn access(m: &mut Machine, core: usize, vaddr: u64, write: bool, nc: bool, now: u64) {
    let (paddr, _) = m.translate(core, VAddr(vaddr));
    let block = paddr.block();
    if let L1LookupResult::Miss = m.l1_lookup(core, block, write, now) {
        m.miss_fill(core, block, write, nc, now);
    }
}

fn block_of(m: &mut Machine, vaddr: u64) -> raccd_mem::BlockAddr {
    m.translate(0, VAddr(vaddr)).0.block()
}

/// The recorded protocol events without their cycle stamps (these tests
/// assert on sequence, not timing).
fn untimed(m: &Machine) -> Vec<CoherenceEvent> {
    m.events().iter().map(|te| te.ev).collect()
}

#[test]
fn read_read_write_sequence() {
    let mut m = machine();
    let a = 0x10_0000u64;
    access(&mut m, 0, a, false, false, 0); // GetS → E (fill)
    access(&mut m, 1, a, false, false, 1); // GetS → S (forward from owner)
    access(&mut m, 0, a, true, false, 2); // write hit S → upgrade
    let b = block_of(&mut m, a);
    assert_eq!(
        untimed(&m),
        [
            CoherenceEvent::CoherentFill {
                core: 0,
                block: b,
                write: false,
                from_owner: false
            },
            CoherenceEvent::CoherentFill {
                core: 1,
                block: b,
                write: false,
                from_owner: true
            },
            CoherenceEvent::Upgrade { core: 0, block: b },
        ]
    );
}

#[test]
fn nc_lifecycle_sequence() {
    let mut m = machine();
    let a = 0x20_0000u64;
    access(&mut m, 2, a, true, true, 0); // NC write fill
    m.flush_nc(2, 1); // raccd_invalidate
    access(&mut m, 3, a, false, false, 2); // coherent read → NC→coherent
    access(&mut m, 4, a, false, true, 3); // NC read → coherent→NC
    let b = block_of(&mut m, a);
    assert_eq!(
        untimed(&m),
        [
            CoherenceEvent::NcFill {
                core: 2,
                block: b,
                write: true
            },
            CoherenceEvent::FlushNc { core: 2, lines: 1 },
            CoherenceEvent::NcToCoherent { block: b },
            CoherenceEvent::CoherentFill {
                core: 3,
                block: b,
                write: false,
                from_owner: false
            },
            CoherenceEvent::CoherentToNc { block: b },
            CoherenceEvent::NcFill {
                core: 4,
                block: b,
                write: false
            },
        ]
    );
}

#[test]
fn write_write_forwards_dirty_data() {
    let mut m = machine();
    let a = 0x30_0000u64;
    access(&mut m, 0, a, true, false, 0); // M in core 0
    access(&mut m, 1, a, true, false, 1); // GetX: data from owner
    let b = block_of(&mut m, a);
    assert_eq!(
        untimed(&m),
        [
            CoherenceEvent::CoherentFill {
                core: 0,
                block: b,
                write: true,
                from_owner: false
            },
            CoherenceEvent::CoherentFill {
                core: 1,
                block: b,
                write: true,
                from_owner: true
            },
        ]
    );
}

#[test]
fn dir_eviction_event_emitted_under_pressure() {
    let mut cfg = MachineConfig::scaled().with_dir_ratio(256);
    cfg.record_events = true;
    cfg.llc_entries_per_bank = 64;
    let mut m = Machine::new(cfg);
    for i in 0..64u64 {
        access(&mut m, 0, 0x10_0000 + i * 1024, false, false, i);
    }
    assert!(m
        .events()
        .iter()
        .any(|e| matches!(e.ev, CoherenceEvent::DirEviction { .. })));
}

#[test]
fn recording_disabled_by_default() {
    let mut m = Machine::new(MachineConfig::scaled());
    access(&mut m, 0, 0x10_0000, true, false, 0);
    m.flush_nc(0, 1);
    assert!(m.events().is_empty());
}

#[test]
fn take_events_empties_log() {
    let mut m = machine();
    access(&mut m, 0, 0x10_0000, false, false, 0);
    assert!(!m.take_events().is_empty());
    assert!(m.events().is_empty());
}
