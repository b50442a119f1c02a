//! Property-based fuzzing of the machine's coherence invariants.
//!
//! Arbitrary interleavings of coherent and non-coherent accesses from all
//! cores — plus flushes and page flushes — must never break the
//! directory⇔LLC inclusivity invariant or the L1⊆LLC inclusion for
//! coherent lines, under any protocol, directory size, write policy, or
//! SMT tagging.

use proptest::prelude::*;
use proptest::sample::select;
use raccd_mem::VAddr;
use raccd_sim::{L1LookupResult, Machine, MachineConfig, ProtocolKind};

/// One fuzz operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// (core, addr-slot, write, nc-request)
    Access(usize, u64, bool, bool),
    /// raccd_invalidate on a core.
    FlushNc(usize),
    /// PT-style page flush of the page holding a slot.
    FlushPage(usize, u64),
}

fn op_strategy(ncores: usize, slots: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..ncores, 0..slots, any::<bool>(), any::<bool>())
            .prop_map(|(c, s, w, nc)| Op::Access(c, s, w, nc)),
        1 => (0..ncores).prop_map(Op::FlushNc),
        1 => (0..ncores, 0..slots).prop_map(|(c, s)| Op::FlushPage(c, s)),
    ]
}

/// Map a slot to a virtual address: 48 slots spread over 3 pages so pages,
/// blocks and L1 sets all collide frequently.
fn slot_addr(slot: u64) -> u64 {
    0x10_0000 + slot * 256
}

fn tiny_cfg(protocol: ProtocolKind, dir_ratio: usize, write_through: bool) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_dir_ratio(dir_ratio);
    cfg.protocol = protocol;
    cfg.l1_write_through = write_through;
    cfg.llc_entries_per_bank = 32; // force LLC replacement too
    cfg.l1_bytes = 512; // 8 lines: heavy L1 eviction traffic
    cfg
}

fn apply(m: &mut Machine, op: Op, now: u64) {
    match op {
        Op::Access(core, slot, write, nc) => {
            let (paddr, _) = m.translate(core, VAddr(slot_addr(slot)));
            let block = paddr.block();
            if let L1LookupResult::Miss = m.l1_lookup(core, block, write, now) {
                m.miss_fill(core, block, write, nc, now);
            }
        }
        Op::FlushNc(core) => {
            m.flush_nc(core, now);
        }
        Op::FlushPage(core, slot) => {
            let (paddr, _) = m.translate(core, VAddr(slot_addr(slot)));
            m.flush_page(core, paddr.page(), VAddr(slot_addr(slot)).page(), now);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_random_traffic(
        ops in proptest::collection::vec(op_strategy(16, 48), 1..400),
        protocol in select(ProtocolKind::ALL.to_vec()),
        dir_ratio in prop_oneof![Just(1usize), Just(4), Just(64)],
        write_through: bool,
    ) {
        let mut m = Machine::new(tiny_cfg(protocol, dir_ratio, write_through));
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut m, op, i as u64 * 10);
            if i % 32 == 0 {
                m.check_invariants();
            }
        }
        m.check_invariants();
    }

    /// The same data accessed alternately coherently and non-coherently
    /// keeps transitioning (§III-E) without ever violating inclusivity.
    #[test]
    fn coherent_nc_ping_pong(rounds in 1usize..40) {
        let mut m = Machine::new(tiny_cfg(ProtocolKind::Mesi, 4, false));
        for r in 0..rounds {
            let nc = r % 2 == 0;
            let core = r % 16;
            for slot in 0..8u64 {
                apply(&mut m, Op::Access(core, slot, r % 3 == 0, nc), r as u64 * 100);
            }
            if nc {
                m.flush_nc(core, r as u64 * 100 + 50);
            }
            m.check_invariants();
        }
    }

    /// Statistics sanity under arbitrary traffic: hits+misses == lookups,
    /// fills ≤ misses, and finalize never panics.
    #[test]
    fn stats_are_consistent(
        ops in proptest::collection::vec(op_strategy(4, 16), 1..200),
        protocol in select(ProtocolKind::ALL.to_vec()),
    ) {
        let mut m = Machine::new(tiny_cfg(protocol, 1, false));
        let mut accesses = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            if matches!(op, Op::Access(..)) {
                accesses += 1;
            }
            apply(&mut m, op, i as u64);
        }
        let stats = m.finalize(ops.len() as u64 * 10);
        prop_assert_eq!(stats.l1_hits + stats.l1_misses, accesses);
        prop_assert!(stats.nc_fills + stats.coherent_fills <= stats.l1_misses);
        prop_assert!(stats.llc_hit_ratio() >= 0.0 && stats.llc_hit_ratio() <= 1.0);
    }
}

/// Named regression for the seed committed in
/// `machine_fuzz.proptest-regressions`: a page flush between two reads of
/// the same block by the same core once desynchronised the L1 from the
/// directory. The offline proptest shim does not read regression files,
/// so the shrunken case is pinned here deterministically — and the shadow
/// checker (when attached) revalidates the full data-value/inclusion
/// invariant set over it.
#[test]
fn regression_page_flush_between_rereads() {
    // cc c8b938c0…: ops = [Access(14, 21, false, false), FlushPage(14, 16),
    // Access(14, 21, false, false)], dir_ratio = 1, write_through = false
    let ops = [
        Op::Access(14, 21, false, false),
        Op::FlushPage(14, 16),
        Op::Access(14, 21, false, false),
    ];
    let mut m = Machine::new(tiny_cfg(ProtocolKind::Mesi, 1, false));
    for (i, &op) in ops.iter().enumerate() {
        apply(&mut m, op, i as u64 * 10);
        m.check_invariants();
    }
    let stats = m.finalize(100);
    assert_eq!(stats.l1_hits + stats.l1_misses, 2);
}
