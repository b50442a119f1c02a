//! Property tests of [`DirectoryBank`] allocation, deallocation and ADR
//! resizing against a flat reference model.
//!
//! The mirror is a `HashMap<block, holders>`: every `allocate` adds, every
//! `deallocate` removes, and every eviction the bank reports removes its
//! victim. The properties:
//!
//! 1. occupancy never exceeds capacity, at every step;
//! 2. **every** eviction is surfaced — the bank's resident set equals the
//!    mirror exactly after any operation sequence (a silently dropped
//!    entry would orphan LLC lines and sharers);
//! 3. the powered-capacity integral is monotone non-decreasing in `now`
//!    and grows at exactly `capacity` entry·cycles per cycle between
//!    reconfigurations.

use proptest::prelude::*;
use proptest::sample;
use raccd_mem::BlockAddr;
use raccd_protocol::directory::{DirEntry, DirectoryBank};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug)]
enum DirOp {
    /// Allocate `block` with `holder` recorded as a sharer.
    Alloc(u64, usize),
    /// Deallocate `block`.
    Dealloc(u64),
    /// Resize to `sets` sets (× the bank's associativity in entries).
    Resize(usize),
}

fn op_strategy(blocks: u64) -> impl Strategy<Value = DirOp> {
    prop_oneof![
        6 => (0..blocks, 0usize..16).prop_map(|(b, c)| DirOp::Alloc(b, c)),
        2 => (0..blocks).prop_map(DirOp::Dealloc),
        1 => sample::select(vec![1usize, 2, 4, 8, 16]).prop_map(DirOp::Resize),
    ]
}

/// Drive a bank and the flat mirror through one op, checking the
/// occupancy bound and eviction surfacing at every step. `Resize` sets
/// counts are scaled by `ways` so every size is legal for the bank.
fn step(
    bank: &mut DirectoryBank,
    mirror: &mut HashMap<u64, u64>,
    op: DirOp,
    now: u64,
    ways: usize,
) {
    match op {
        DirOp::Alloc(b, core) => {
            let block = BlockAddr(b);
            if bank.probe(block).is_some() {
                // Already resident: protocol-level sharer update only.
                bank.lookup(block).expect("probed").sharers |= 1 << core;
                mirror.insert(b, bank.probe(block).expect("probed").all_holders());
            } else {
                let mut e = DirEntry::uncached();
                e.sharers |= 1 << core;
                let holders = e.all_holders();
                if let Some(ev) = bank.allocate(block, now, e) {
                    let gone = mirror.remove(&ev.block.0);
                    assert!(
                        gone.is_some(),
                        "evicted {:?} was not in the reference model",
                        ev.block
                    );
                    assert_eq!(
                        gone.unwrap(),
                        ev.entry.all_holders(),
                        "eviction surfaced wrong holder set"
                    );
                }
                mirror.insert(b, holders);
            }
        }
        DirOp::Dealloc(b) => {
            let got = bank.deallocate(BlockAddr(b), now);
            assert_eq!(got.is_some(), mirror.remove(&b).is_some());
        }
        DirOp::Resize(sets) => {
            for ev in bank.resize(sets * ways, now) {
                assert!(
                    mirror.remove(&ev.block.0).is_some(),
                    "resize dropped unknown block {:?}",
                    ev.block
                );
            }
        }
    }
    assert!(
        bank.occupancy() <= bank.capacity(),
        "occupancy {} > capacity {}",
        bank.occupancy(),
        bank.capacity()
    );
}

/// The bank's resident set must equal the mirror exactly, holders
/// included.
fn assert_mirror(bank: &DirectoryBank, mirror: &HashMap<u64, u64>) {
    let resident: HashMap<u64, u64> = bank.iter().map(|(b, e)| (b.0, e.all_holders())).collect();
    assert_eq!(resident, *mirror);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random alloc/dealloc/resize sequences: no entry appears or vanishes
    /// without being surfaced, under both associativities the machine uses.
    #[test]
    fn bank_matches_flat_model(
        ops in proptest::collection::vec(op_strategy(64), 1..200),
        ways in sample::select(vec![1usize, 4]),
    ) {
        let mut bank = DirectoryBank::new(8 * ways, ways, 0);
        let mut mirror = HashMap::new();
        for (i, &op) in ops.iter().enumerate() {
            step(&mut bank, &mut mirror, op, i as u64 * 10, ways);
            assert_mirror(&bank, &mirror);
        }
    }

    /// The capacity integral is monotone in `now` and advances by exactly
    /// `capacity` per cycle while the size is stable.
    #[test]
    fn capacity_integral_monotone(
        ops in proptest::collection::vec(op_strategy(32), 1..100),
        stride in 1u64..50,
    ) {
        let mut bank = DirectoryBank::new(16, 2, 0);
        let mut mirror = HashMap::new();
        let mut last = 0u128;
        let mut now = 0u64;
        for &op in &ops {
            now += stride;
            let int_before = bank.capacity_integral(now);
            assert!(int_before >= last, "integral regressed");
            step(&mut bank, &mut mirror, op, now, 2);
            // Querying again at the same instant adds nothing…
            let int_after = bank.capacity_integral(now);
            assert_eq!(int_after, int_before, "tick at same now must be idempotent");
            // …and advancing by dt adds dt × current capacity.
            let dt = 7;
            now += dt;
            let expect = int_after + dt as u128 * bank.capacity() as u128;
            assert_eq!(bank.capacity_integral(now), expect);
            last = expect;
        }
    }

    /// Occupancy bound specifically across shrinks to the minimum size.
    #[test]
    fn shrink_to_minimum_never_overflows(
        blocks in proptest::collection::vec(0u64..64, 1..40),
    ) {
        let mut bank = DirectoryBank::new(16, 1, 0);
        let mut mirror = HashMap::new();
        for (i, &b) in blocks.iter().enumerate() {
            step(&mut bank, &mut mirror, DirOp::Alloc(b, i % 8), i as u64, 1);
        }
        for (i, &sets) in [8usize, 4, 2, 1].iter().enumerate() {
            step(&mut bank, &mut mirror, DirOp::Resize(sets), 1000 + i as u64, 1);
            assert_mirror(&bank, &mirror);
            assert!(bank.capacity() == sets);
        }
    }
}
