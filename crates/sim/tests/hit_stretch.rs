//! Deferred hits against the references they stand for. Two machines
//! built alike get the same references: one replays them one by one
//! through `translate` + `l1_lookup`, the other defers them into
//! stretches of blocks through `probe_hit` and applies each stretch with
//! `commit_hits`, blocks in ascending order of last use, as the driver
//! does. Both end with the same archive (shadow mirror included), cycles,
//! state key and checker events. `probe_hit` refuses exactly the
//! references that would not simply hit, and a refusal changes nothing.

use proptest::prelude::*;
use raccd_cache::L1State;
use raccd_mem::{MemRef, VAddr, BLOCK_SHIFT};
use raccd_sim::{
    BlockHits, CheckEvent, CheckReport, CheckSink, L1LookupResult, Machine, MachineConfig,
    ProtocolKind,
};
use std::cell::RefCell;
use std::rc::Rc;

fn cfg(protocol: ProtocolKind, write_through: bool) -> MachineConfig {
    MachineConfig {
        protocol,
        l1_write_through: write_through,
        shadow_check: true,
        ..MachineConfig::scaled()
    }
}

/// Slots three blocks apart over two pages.
fn slot_addr(slot: u64) -> u64 {
    0x10_0000 + slot * 192
}

/// One full reference: translate, look up, fill on a miss.
fn access(m: &mut Machine, core: usize, vaddr: u64, write: bool, nc: bool, now: u64) {
    let (paddr, _) = m.translate(core, VAddr(vaddr));
    if let L1LookupResult::Miss = m.l1_lookup(core, paddr.block(), write, now) {
        m.miss_fill(core, paddr.block(), write, nc, now);
    }
}

/// A load that fills from wherever the block is, at cycle `core`.
fn read(m: &mut Machine, core: usize, vaddr: u64) {
    access(m, core, vaddr, false, false, core as u64);
}

/// One deferred reference, the way it is replayed on its own.
fn single(m: &mut Machine, core: usize, r: MemRef, now: u64) -> u64 {
    let (paddr, tlb) = m.translate(core, r.addr());
    let L1LookupResult::Hit { cycles, .. } = m.l1_lookup(core, paddr.block(), r.is_write(), now)
    else {
        panic!("a deferred reference hits: {r:?}");
    };
    m.stats.refs_processed += 1;
    tlb + cycles
}

/// Cycles of a reference that hits in the TLB and the L1.
fn one_hit(protocol: ProtocolKind, write_through: bool) -> u64 {
    let lat = cfg(protocol, write_through).lat;
    lat.tlb + lat.l1
}

fn archive(m: &Machine) -> Vec<u8> {
    m.snapshot().to_bytes()
}

/// The open stretch of deferred hits on one core, kept as the driver
/// keeps it: each block touched, with its hits so far, and the length.
#[derive(Default)]
struct Stretch {
    blocks: Vec<BlockHits>,
    len: u64,
}

impl Stretch {
    /// Defer `r` as a plain hit and send the checker its `L1Hit` and
    /// `OpEnd`, or refuse it with nothing changed: its page is not in the
    /// TLB, its block not in the L1, or it stores to a line that cannot
    /// take the store locally.
    fn defer(&mut self, m: &mut Machine, core: usize, r: MemRef) -> bool {
        let (vblock, write) = (r.addr().0 >> BLOCK_SHIFT, r.is_write());
        let found = self.blocks.iter().position(|h| h.vblock == vblock);
        let h = match found {
            Some(i) => self.blocks[i],
            None => match m.probe_hit(core, r.addr()) {
                Some(h) => h,
                None => return false,
            },
        };
        if write && !h.store_local {
            return false;
        }
        let i = found.unwrap_or_else(|| {
            self.blocks.push(h);
            self.blocks.len() - 1
        });
        let h = &mut self.blocks[i];
        (h.n, h.last, h.stored) = (h.n + 1, self.len, h.stored | write);
        self.len += 1;
        let (block, nc) = (h.block, h.nc);
        m.check_note(CheckEvent::L1Hit {
            core,
            block,
            write,
            nc,
        });
        m.check_note(CheckEvent::OpEnd);
        true
    }

    /// Apply the stretch, blocks in ascending order of last use, and
    /// empty it.
    fn commit(&mut self, m: &mut Machine, core: usize) {
        if self.len > 0 {
            self.blocks.sort_unstable_by_key(|h| h.last);
            m.commit_hits(core, &self.blocks, self.len);
        }
        self.blocks.clear();
        self.len = 0;
    }
}

/// A checker sink that keeps every event it is sent.
struct Log(Rc<RefCell<Vec<String>>>);

impl CheckSink for Log {
    fn on_event(&mut self, ev: &CheckEvent) {
        self.0.borrow_mut().push(format!("{ev:?}"));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn finish(&mut self) -> CheckReport {
        CheckReport {
            stats: Default::default(),
            violations: Vec::new(),
        }
    }
}

type Events = Rc<RefCell<Vec<String>>>;

/// Replace `m`'s shadow checker with an event log.
fn log_to(m: &mut Machine) -> Events {
    let log = Events::default();
    m.attach_checker(Box::new(Log(log.clone())));
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `warm` runs on every core, then `heads` on `core` brings some of
    /// the stretch's blocks into its L1. A reference the stretch refuses
    /// commits the stretch and is replayed in full on both machines, as
    /// the driver replays it; `cut` commits early, as a full stretch or
    /// a batch end does. `loads_only` keeps stores out of the references.
    #[test]
    fn a_stretch_leaves_what_its_references_leave(
        warm in proptest::collection::vec((0..4usize, 0..20u64, any::<bool>(), any::<bool>()), 0..60),
        core in 0..4usize,
        heads in proptest::collection::vec((0..8u64, any::<bool>(), any::<bool>()), 0..8),
        refs in proptest::collection::vec((0..8u64, 0..64u64, any::<bool>(), 0..4u8, 0..8u8), 1..80),
        loads_only: bool,
        protocol in 0..3usize,
        write_through: bool,
        log: bool,
    ) {
        let protocol = ProtocolKind::ALL[protocol];
        let build = || {
            let mut m = Machine::new(cfg(protocol, write_through));
            for (i, &(c, slot, write, nc)) in warm.iter().enumerate() {
                access(&mut m, c, slot_addr(slot), write, nc, i as u64 * 10);
            }
            for (i, &(slot, write, nc)) in heads.iter().enumerate() {
                access(&mut m, core, slot_addr(slot), write, nc, 9_000 + i as u64);
            }
            m
        };
        let (mut one, mut singles) = (build(), build());
        let logs = log.then(|| (log_to(&mut one), log_to(&mut singles)));
        let hit = one_hit(protocol, write_through);
        let (mut st, now) = (Stretch::default(), 10_000);
        let (mut deferred, mut want) = (0, 0);
        for &(slot, off, write, size, cut) in &refs {
            let base = slot_addr(slot) & !63;
            let r = MemRef::heap(VAddr(base + off), write && !loads_only, 1 << size);
            if st.defer(&mut one, core, r) {
                deferred += hit;
                want += single(&mut singles, core, r, now);
            } else {
                st.commit(&mut one, core);
                for m in [&mut one, &mut singles] {
                    access(m, core, r.addr().0, r.is_write(), false, now);
                }
            }
            if cut == 0 {
                st.commit(&mut one, core);
            }
        }
        st.commit(&mut one, core);
        prop_assert_eq!(deferred, want);
        prop_assert_eq!(one.shadow_state_key(), singles.shadow_state_key());
        prop_assert!(archive(&one) == archive(&singles), "archives differ");
        if let Some((one_log, singles_log)) = logs {
            prop_assert!(*one_log.borrow() == *singles_log.borrow(), "checker events differ");
        }
    }
}

/// Each way a reference is refused, and each kind of line that takes a
/// run of them, all in one block: a refused reference leaves the archive
/// and the checker's log as they were, and the references deferred
/// before it leave what they would one by one, each reference's `L1Hit`
/// and `OpEnd` sent in order.
#[test]
fn references_are_refused_exactly_where_they_would_not_simply_hit() {
    const A: u64 = 0x10_0000;
    const B: u64 = 0x10_0040;
    const C: u64 = 0x10_0080;
    let loads = [(8, false, 3), (16, false, 3)];
    let stores = [(8, false, 3), (9, true, 0), (24, false, 2)];
    use ProtocolKind::{Mesi, Mesif, Moesi};
    type Setup = fn(&mut Machine);
    // (what, protocol, write-through, setup, block, its state on core 0,
    // references, index of the one refused)
    type Case<'a> = (
        &'a str,
        ProtocolKind,
        bool,
        Setup,
        u64,
        Option<L1State>,
        &'a [(u64, bool, u8)],
        Option<usize>,
    );
    let cases: [Case; 11] = [
        (
            "page not in the TLB",
            Mesi,
            false,
            |_| {},
            A,
            None,
            &loads,
            Some(0),
        ),
        (
            "block not in the L1",
            Mesi,
            false,
            |m| read(m, 0, A),
            B,
            None,
            &loads,
            Some(0),
        ),
        (
            "store to a Shared line",
            Mesi,
            false,
            |m| {
                read(m, 0, C);
                read(m, 1, C);
            },
            C,
            Some(L1State::Shared),
            &stores,
            Some(1),
        ),
        (
            "store to a Forward line",
            Mesif,
            false,
            |m| {
                read(m, 1, C);
                read(m, 0, C);
            },
            C,
            Some(L1State::Forward),
            &stores,
            Some(1),
        ),
        (
            "store to an Owned line",
            Moesi,
            false,
            |m| {
                access(m, 0, C, true, false, 0);
                read(m, 1, C);
            },
            C,
            Some(L1State::Owned),
            &stores,
            Some(1),
        ),
        (
            "store under write-through",
            Mesi,
            true,
            |m| access(m, 0, A, true, false, 0),
            A,
            None,
            &stores,
            Some(1),
        ),
        (
            "loads of a Shared line",
            Mesi,
            false,
            |m| {
                read(m, 0, C);
                read(m, 1, C);
            },
            C,
            Some(L1State::Shared),
            &loads,
            None,
        ),
        (
            "loads of an Owned line",
            Moesi,
            false,
            |m| {
                access(m, 0, C, true, false, 0);
                read(m, 1, C);
            },
            C,
            Some(L1State::Owned),
            &loads,
            None,
        ),
        (
            "stores to an Exclusive line",
            Mesi,
            false,
            |m| read(m, 0, A),
            A,
            Some(L1State::Exclusive),
            &stores,
            None,
        ),
        (
            "stores to a Modified line",
            Mesi,
            false,
            |m| access(m, 0, A, true, false, 0),
            A,
            Some(L1State::Modified),
            &stores,
            None,
        ),
        (
            "stores to an NC line",
            Mesi,
            false,
            |m| access(m, 0, B, false, true, 0),
            B,
            None,
            &stores,
            None,
        ),
    ];
    for (what, protocol, write_through, setup, base, state, refs, refused) in cases {
        let build = || {
            let mut m = Machine::new(cfg(protocol, write_through));
            setup(&mut m);
            let log = log_to(&mut m);
            (m, log)
        };
        let ((mut one, one_log), (mut singles, singles_log)) = (build(), build());
        if let Some(state) = state {
            let block = one.probe_hit(0, VAddr(base)).expect("set up").block;
            assert_eq!(
                one.l1(0).probe(block).map(|l| l.state),
                Some(state),
                "{what}"
            );
        }
        let mut st = Stretch::default();
        let (mut deferred, mut want) = (0, 0);
        let hit = one_hit(protocol, write_through);
        let mut stop = None;
        for (i, &(off, write, size)) in refs.iter().enumerate() {
            let r = MemRef::heap(VAddr(base + off), write, 1 << size);
            let before = archive(&one);
            if !st.defer(&mut one, 0, r) {
                assert!(archive(&one) == before, "{what}: a refusal moved state");
                stop = Some(i);
                break;
            }
            deferred += hit;
            want += single(&mut singles, 0, r, 5);
        }
        assert_eq!(stop, refused, "{what}");
        st.commit(&mut one, 0);
        let accepted = refused.unwrap_or(refs.len());
        assert_eq!(deferred, want, "{what}");
        assert_eq!(one_log.borrow().len(), 2 * accepted, "{what}");
        assert_eq!(*one_log.borrow(), *singles_log.borrow(), "{what}");
        assert!(archive(&one) == archive(&singles), "{what}");
    }
}
