//! `Machine::hit_run` against the references it stands for. Two machines
//! built alike, one given a run's references one by one through
//! `translate` + `l1_lookup`, the other the run in one `hit_run`, end with
//! the same archive (shadow mirror included), cycles, state key and checker
//! events; a run `hit_run` refuses leaves its machine's archive as it was.

use proptest::prelude::*;
use raccd_mem::{MemRef, VAddr};
use raccd_sim::{
    CheckEvent, CheckReport, CheckSink, L1LookupResult, Machine, MachineConfig, ProtocolKind,
};
use std::cell::RefCell;
use std::rc::Rc;

fn cfg(moesi: bool, write_through: bool) -> MachineConfig {
    let protocol = if moesi {
        ProtocolKind::Moesi
    } else {
        ProtocolKind::Mesi
    };
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

/// One reference of an accepted run, the way it is replayed on its own.
fn single(m: &mut Machine, core: usize, r: MemRef, now: u64) -> u64 {
    let (paddr, tlb) = m.translate(core, r.addr());
    let L1LookupResult::Hit { cycles, .. } = m.l1_lookup(core, paddr.block(), r.is_write(), now)
    else {
        panic!("a run hit_run accepts is all hits: {r:?}");
    };
    m.stats.refs_processed += 1;
    tlb + cycles
}

fn archive(m: &Machine) -> Vec<u8> {
    m.snapshot().to_bytes()
}

type Warm = (usize, u64, bool, bool);

fn warmed(warm: &[Warm], moesi: bool, write_through: bool) -> Machine {
    let mut m = Machine::new(cfg(moesi, write_through));
    for (i, &(core, slot, write, nc)) in warm.iter().enumerate() {
        access(&mut m, core, slot_addr(slot), write, nc, i as u64 * 10);
    }
    m
}

/// A run's references: (offset in the block, store, log2 size).
type Run = [(u64, bool, u8)];

fn refs_at(base: u64, run: &Run) -> Vec<MemRef> {
    run.iter()
        .map(|&(off, write, size)| MemRef::heap(VAddr(base + off), write, 1 << size))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `head` replays one reference to the block first, as the driver does
    /// before every run; `loads_only` keeps stores out of the run.
    #[test]
    fn a_run_leaves_what_its_references_leave(
        warm in proptest::collection::vec((0..4usize, 0..20u64, any::<bool>(), any::<bool>()), 0..60),
        core in 0..4usize,
        slot in 0..24u64,
        head: bool,
        head_write: bool,
        head_nc: bool,
        run in proptest::collection::vec((0..64u64, any::<bool>(), 0..4u8), 1..40),
        loads_only: bool,
        moesi: bool,
        write_through: bool,
    ) {
        let base = slot_addr(slot) & !63;
        let build = || {
            let mut m = warmed(&warm, moesi, write_through);
            if head {
                access(&mut m, core, base, head_write, head_nc, 9_000);
            }
            m
        };
        let (mut singles, mut one) = (build(), build());
        let run: Vec<_> = run.iter().map(|&(off, w, size)| (off, w && !loads_only, size)).collect();
        let refs = refs_at(base, &run);
        let before = archive(&one);
        let now = 10_000;
        match one.hit_run(core, VAddr(base), &refs) {
            Some(cycles) => {
                let want: u64 = refs.iter().map(|&r| single(&mut singles, core, r, now)).sum();
                prop_assert_eq!(cycles, want);
                prop_assert_eq!(one.shadow_state_key(), singles.shadow_state_key());
                prop_assert!(archive(&one) == archive(&singles), "archives differ");
            }
            None => prop_assert!(archive(&one) == before, "a refused run moved state"),
        }
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

/// Each way a run is refused, and each kind of run accepted, with the
/// accepted ones sending the checker each reference's `L1Hit` and `OpEnd`
/// in order.
#[test]
fn runs_are_refused_exactly_where_a_reference_would_not_simply_hit() {
    const A: u64 = 0x10_0000;
    const B: u64 = 0x10_0040;
    const C: u64 = 0x10_0080;
    let loads = [(8, false, 3), (16, false, 3)];
    let stores = [(8, false, 3), (9, true, 0), (24, false, 2)];
    // (what, write-through, setup, block, run, accepted)
    type Setup = fn(&mut Machine);
    let cases: [(&str, bool, Setup, u64, &Run, bool); 7] = [
        ("page not in the TLB", false, |_| {}, A, &loads, false),
        (
            "block not in the L1",
            false,
            |m| access(m, 0, A, false, false, 0),
            B,
            &loads,
            false,
        ),
        (
            "store to a Shared line",
            false,
            |m| {
                access(m, 0, C, false, false, 0);
                access(m, 1, C, false, false, 1);
            },
            C,
            &stores,
            false,
        ),
        (
            "store under write-through",
            true,
            |m| access(m, 0, A, true, false, 0),
            A,
            &stores,
            false,
        ),
        (
            "loads of a Shared line",
            false,
            |m| {
                access(m, 0, C, false, false, 0);
                access(m, 1, C, false, false, 1);
            },
            C,
            &loads,
            true,
        ),
        (
            "stores to an Exclusive line",
            false,
            |m| access(m, 0, A, false, false, 0),
            A,
            &stores,
            true,
        ),
        (
            "stores to an NC line",
            false,
            |m| access(m, 0, B, false, true, 0),
            B,
            &stores,
            true,
        ),
    ];
    for (what, write_through, setup, base, run, accepted) in cases {
        let refs = refs_at(base, run);
        let build = || {
            let mut m = Machine::new(cfg(false, write_through));
            setup(&mut m);
            let log = Rc::new(RefCell::new(Vec::new()));
            m.attach_checker(Box::new(Log(log.clone())));
            (m, log)
        };
        let ((mut one, one_log), (mut singles, singles_log)) = (build(), build());
        let before = archive(&one);
        let got = one.hit_run(0, VAddr(base), &refs);
        assert_eq!(got.is_some(), accepted, "{what}");
        if !accepted {
            assert!(archive(&one) == before, "{what}: a refused run moved state");
            assert!(one_log.borrow().is_empty(), "{what}");
            continue;
        }
        let want: u64 = refs.iter().map(|&r| single(&mut singles, 0, r, 5)).sum();
        assert_eq!(got, Some(want), "{what}");
        assert_eq!(one_log.borrow().len(), 2 * refs.len(), "{what}");
        assert_eq!(*one_log.borrow(), *singles_log.borrow(), "{what}");
        assert!(archive(&one) == archive(&singles), "{what}");
    }
}
