//! Per-core TLB model.
//!
//! Table I: "ITLB / DTLB: each 256 entries fully-associative (1 cycle)".
//! We model the DTLB (instruction fetch is not simulated). Replacement is
//! true LRU — affordable for a fully-associative structure of this size in
//! a functional simulator.
//!
//! The TLB is consulted once per simulated reference, so the host-side
//! layout is built for that path: a flat slot array, a table of slot hints
//! indexed by a hash of the page number and checked first (a page used
//! since its hint was overwritten never probes a map), and a [`FibMap`]
//! index for everything else. The victim scan over the slots runs only on
//! a fill into a full TLB.

use crate::addr::PageNum;
use crate::hash::{FibMap, FIB_MUL};
use raccd_snap::SnapError;

/// One resident translation.
#[derive(Clone, Copy, Debug)]
struct Slot {
    vpage: PageNum,
    ppage: PageNum,
    /// Last-use stamp; unique among the resident slots.
    stamp: u64,
}

/// A resident translation's place in its [`Tlb`], from [`Tlb::peek_slot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbSlot(usize);

/// Fully-associative, LRU TLB holding virtual→physical page translations.
#[derive(Clone, Debug)]
pub struct Tlb {
    capacity: usize,
    /// Resident translations, at most `capacity`, in no particular order.
    slots: Vec<Slot>,
    /// vpage → position in `slots`.
    index: FibMap<PageNum, usize>,
    /// Position, truncated, of the slot used last among the pages sharing
    /// a [`hint_of`] value. Only a hint: [`Tlb::find`] checks the slot's
    /// page, so removals need not repair it.
    hints: [u16; HINTS],
    stamp: u64,
    hits: u64,
    misses: u64,
}

/// Size of the hint table: Table I's entry count, so a full TLB has one
/// hint per resident page on average.
const HINTS: usize = 256;

/// A page's place in the hint table: the top eight bits of its Fibonacci
/// product, which every bit of the page number reaches. The low bits are
/// the page number's own, permuted: arrays a multiple of 256 pages apart
/// would share hints row for row.
#[inline]
fn hint_of(vpage: PageNum) -> usize {
    (vpage.0.wrapping_mul(FIB_MUL) >> 56) as usize
}

impl Tlb {
    /// Create a TLB with the given entry count (Table I: 256). All its
    /// storage is allocated here: sixteen TLBs growing entry by entry
    /// fragment the heap enough to show in a run's peak RSS.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Tlb {
            capacity,
            slots: Vec::with_capacity(capacity),
            index: FibMap::with_capacity_and_hasher(capacity, Default::default()),
            hints: [0; HINTS],
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Position of `vpage`'s slot, if resident.
    #[inline]
    fn find(&self, vpage: PageNum) -> Option<usize> {
        let i = self.hints[hint_of(vpage)] as usize;
        match self.slots.get(i) {
            Some(s) if s.vpage == vpage => Some(i),
            _ => self.index.get(&vpage).copied(),
        }
    }

    /// Look up a translation, updating LRU state and hit/miss counters.
    /// Returns the cached physical page on a hit.
    #[inline]
    pub fn lookup(&mut self, vpage: PageNum) -> Option<PageNum> {
        self.stamp += 1;
        let Some(i) = self.find(vpage) else {
            self.misses += 1;
            return None;
        };
        self.hints[hint_of(vpage)] = i as u16;
        self.slots[i].stamp = self.stamp;
        self.hits += 1;
        Some(self.slots[i].ppage)
    }

    /// Peek without touching LRU or counters.
    pub fn peek(&self, vpage: PageNum) -> Option<PageNum> {
        self.find(vpage).map(|i| self.slots[i].ppage)
    }

    /// [`Tlb::peek`] that also names `vpage`'s slot, for
    /// [`Tlb::commit_hits`]. A slot stays `vpage`'s until the next fill,
    /// invalidation or flush.
    #[inline]
    pub fn peek_slot(&self, vpage: PageNum) -> Option<(TlbSlot, PageNum)> {
        self.find(vpage).map(|i| (TlbSlot(i), self.slots[i].ppage))
    }

    /// Account `n` hits to `slot` deferred over a stretch of lookups that
    /// began at the current stamp, the last of them the stretch's
    /// `last`-th (from 0): the slot's last-use stamp and its page's hint
    /// as that lookup left them, and `n` more hits. The stamp itself
    /// moves on in [`Tlb::advance`], once per stretch. Committing each
    /// page of a stretch in ascending `last`, then advancing by the
    /// stretch's length, leaves what its lookups would: every stamp and
    /// hint is written last by the page's, or the hint's, last use.
    #[inline]
    pub fn commit_hits(&mut self, slot: TlbSlot, last: u64, n: u64) {
        let s = &mut self.slots[slot.0];
        s.stamp = self.stamp + last + 1;
        self.hints[hint_of(s.vpage)] = slot.0 as u16;
        self.hits += n;
    }

    /// Advance the stamp past a stretch of `n` lookups
    /// (see [`Tlb::commit_hits`]).
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.stamp += n;
    }

    /// Install a translation after a miss (page walk), evicting LRU if full.
    pub fn fill(&mut self, vpage: PageNum, ppage: PageNum) {
        let _ = self.fill_evicting(vpage, ppage);
    }

    /// Install a translation, returning the `(vpage, ppage)` evicted to
    /// make room (if any). TLB-based classifiers need the victim to keep
    /// TLB–L1 inclusivity (§II-B of the paper).
    pub fn fill_evicting(&mut self, vpage: PageNum, ppage: PageNum) -> Option<(PageNum, PageNum)> {
        self.stamp += 1;
        let new = Slot {
            vpage,
            ppage,
            stamp: self.stamp,
        };
        if let Some(i) = self.find(vpage) {
            self.slots[i] = new;
            self.hints[hint_of(vpage)] = i as u16;
            return None;
        }
        let mut evicted = None;
        if self.slots.len() >= self.capacity {
            // Evict the least-recently-used entry.
            let lru = *(self.slots.iter().min_by_key(|s| s.stamp)).expect("capacity is non-zero");
            self.invalidate(lru.vpage);
            evicted = Some((lru.vpage, lru.ppage));
        }
        let i = self.slots.len();
        self.hints[hint_of(vpage)] = i as u16;
        self.index.insert(vpage, i);
        self.slots.push(new);
        evicted
    }

    /// Last-use stamp of an entry (decay predictors compare stamps).
    pub fn last_use(&self, vpage: PageNum) -> Option<u64> {
        self.find(vpage).map(|i| self.slots[i].stamp)
    }

    /// Current use stamp (monotonic access counter).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Invalidate one translation (TLB shootdown; used by the PT baseline's
    /// private→shared transitions).
    pub fn invalidate(&mut self, vpage: PageNum) -> bool {
        let Some(i) = self.index.remove(&vpage) else {
            return false;
        };
        self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            self.index.insert(moved.vpage, i);
        }
        true
    }

    /// Drop every translation.
    pub fn flush_all(&mut self) {
        self.slots.clear();
        self.index.clear();
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// (hits, misses) counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Wire format: capacity, the entries as a map `vpage → (ppage, stamp)` in
/// ascending vpage order, then stamp, hits, misses. The slot order and the
/// hint table are host-side layout and are not saved.
// Hand-written: a format trick (slots saved as a sorted map) and derived
// fields (`index`, the hint table).
impl raccd_snap::Snap for Tlb {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        self.capacity.save(w);
        let mut entries: Vec<(u64, (u64, u64))> =
            (self.slots.iter().map(|s| (s.vpage.0, (s.ppage.0, s.stamp)))).collect();
        entries.sort_unstable();
        entries.save(w);
        w.u64(self.stamp);
        w.u64(self.hits);
        w.u64(self.misses);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, SnapError> {
        use raccd_snap::Snap;
        let capacity: usize = Snap::load(r)?;
        if capacity == 0 {
            return Err(SnapError::Invalid("zero TLB capacity"));
        }
        let entries: Vec<(u64, (u64, u64))> = Snap::load(r)?;
        if entries.len() > capacity {
            return Err(SnapError::Invalid("TLB over capacity"));
        }
        // Pre-sized like a new TLB, but not on an archive's say-so beyond
        // what it holds or any real TLB has.
        let mut tlb = Tlb::new(capacity.min(entries.len().max(4096)));
        tlb.capacity = capacity;
        (tlb.stamp, tlb.hits, tlb.misses) = (r.u64()?, r.u64()?, r.u64()?);
        for (i, (vpage, (ppage, stamp))) in entries.into_iter().enumerate() {
            let (vpage, ppage) = (PageNum(vpage), PageNum(ppage));
            if stamp > tlb.stamp {
                return Err(SnapError::Invalid("TLB entry stamp above the saved stamp"));
            }
            if tlb.index.insert(vpage, i).is_some() {
                return Err(SnapError::Invalid("duplicate TLB entry"));
            }
            tlb.slots.push(Slot {
                vpage,
                ppage,
                stamp,
            });
        }
        Ok(tlb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;
    use raccd_snap::{decode, encode, Snap, SnapWriter};

    proptest! {
        /// A stretch of hits committed per block, in ascending order of
        /// each block's last reference, then one advance by the stretch's
        /// length, leaves what its lookups leave: every slot's stamp, the
        /// hint table, the counters and the next fill's victim. Several
        /// blocks share a page, so a page is committed once per block.
        #[test]
        fn committing_at_last_use_equals_the_lookups(
            capacity in 1usize..40,
            warm in proptest::collection::vec((0u64..60, any::<bool>()), 0..200),
            stretch in proptest::collection::vec((any::<u64>(), 0u64..4), 1..120),
        ) {
            let mut tlb = Tlb::new(capacity);
            for &(v, fill) in &warm {
                if fill {
                    tlb.fill(PageNum(v), PageNum(v + 1000));
                } else {
                    tlb.lookup(PageNum(v));
                }
            }
            tlb.fill(PageNum(60), PageNum(1060));
            let resident: Vec<PageNum> = tlb.slots.iter().map(|s| s.vpage).collect();
            // (page, block within it), each page one the TLB holds.
            let refs: Vec<(PageNum, u64)> = stretch
                .iter()
                .map(|&(p, b)| (resident[(p % resident.len() as u64) as usize], b))
                .collect();
            let mut looked = tlb.clone();
            for &(v, _) in &refs {
                prop_assert!(looked.lookup(v).is_some());
            }
            // Per block: its slot, hits and last position.
            let mut blocks: Vec<((PageNum, u64), TlbSlot, u64, u64)> = Vec::new();
            for (k, &key) in refs.iter().enumerate() {
                match blocks.iter_mut().find(|b| b.0 == key) {
                    Some(b) => (b.2, b.3) = (b.2 + 1, k as u64),
                    None => {
                        let (slot, _) = tlb.peek_slot(key.0).expect("resident");
                        blocks.push((key, slot, 1, k as u64));
                    }
                }
            }
            blocks.sort_unstable_by_key(|b| b.3);
            let mut committed = tlb.clone();
            for &(_, slot, n, last) in &blocks {
                committed.commit_hits(slot, last, n);
            }
            committed.advance(refs.len() as u64);
            prop_assert_eq!(encode(&committed), encode(&looked));
            prop_assert_eq!(committed.hints, looked.hints);
            let stamps = |t: &Tlb| t.slots.iter().map(|s| (s.vpage, s.stamp)).collect::<Vec<_>>();
            prop_assert_eq!(stamps(&committed), stamps(&looked));
            prop_assert_eq!(
                committed.fill_evicting(PageNum(999), PageNum(1)),
                looked.fill_evicting(PageNum(999), PageNum(1))
            );
        }
    }

    /// The `HashMap` TLB this one replaced, kept as the reference model:
    /// same results, counters, stamps and snapshot bytes, step for step.
    struct ModelTlb {
        capacity: usize,
        /// vpage → (ppage, last-use stamp)
        entries: std::collections::HashMap<u64, (u64, u64)>,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl ModelTlb {
        fn new(capacity: usize) -> Self {
            ModelTlb {
                capacity,
                entries: Default::default(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }
        fn lookup(&mut self, vpage: PageNum) -> Option<PageNum> {
            self.stamp += 1;
            let stamp = self.stamp;
            if let Some(entry) = self.entries.get_mut(&vpage.0) {
                entry.1 = stamp;
                self.hits += 1;
                Some(PageNum(entry.0))
            } else {
                self.misses += 1;
                None
            }
        }
        fn peek(&self, vpage: PageNum) -> Option<PageNum> {
            self.entries.get(&vpage.0).map(|&(p, _)| PageNum(p))
        }
        fn fill_evicting(&mut self, vpage: PageNum, ppage: PageNum) -> Option<(PageNum, PageNum)> {
            let mut evicted = None;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&vpage.0) {
                if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &(_, s))| s) {
                    if let Some((p, _)) = self.entries.remove(&victim) {
                        evicted = Some((PageNum(victim), PageNum(p)));
                    }
                }
            }
            self.stamp += 1;
            self.entries.insert(vpage.0, (ppage.0, self.stamp));
            evicted
        }
        fn last_use(&self, vpage: PageNum) -> Option<u64> {
            self.entries.get(&vpage.0).map(|&(_, s)| s)
        }
        fn invalidate(&mut self, vpage: PageNum) -> bool {
            self.entries.remove(&vpage.0).is_some()
        }
        fn bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.capacity.save(&mut w);
            self.entries.save(&mut w);
            w.u64(self.stamp);
            w.u64(self.hits);
            w.u64(self.misses);
            w.into_bytes()
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Lookup(u64),
        Fill(u64, u64),
        Peek(u64),
        LastUse(u64),
        Invalidate(u64),
        Flush,
        /// Replace the TLB by its own archive, loaded: another slot order
        /// and an empty hint table, on which nothing may depend.
        Reload,
    }

    /// Apply `ops` to a `Tlb` and to the model side by side: results,
    /// victims, counters, stamps and archive bytes agree after every one.
    fn run_against_model(capacity: usize, ops: impl IntoIterator<Item = Op>) {
        let mut tlb = Tlb::new(capacity);
        let mut model = ModelTlb::new(capacity);
        for (step, op) in ops.into_iter().enumerate() {
            let ctx = format!("capacity {capacity}, step {step}: {op:?}");
            match op {
                Op::Lookup(v) => {
                    assert_eq!(tlb.lookup(PageNum(v)), model.lookup(PageNum(v)), "{ctx}")
                }
                Op::Fill(v, p) => assert_eq!(
                    tlb.fill_evicting(PageNum(v), PageNum(p)),
                    model.fill_evicting(PageNum(v), PageNum(p)),
                    "{ctx}"
                ),
                Op::Peek(v) => assert_eq!(tlb.peek(PageNum(v)), model.peek(PageNum(v)), "{ctx}"),
                Op::LastUse(v) => assert_eq!(
                    tlb.last_use(PageNum(v)),
                    model.last_use(PageNum(v)),
                    "{ctx}"
                ),
                Op::Invalidate(v) => assert_eq!(
                    tlb.invalidate(PageNum(v)),
                    model.invalidate(PageNum(v)),
                    "{ctx}"
                ),
                Op::Flush => {
                    tlb.flush_all();
                    model.entries.clear();
                }
                Op::Reload => tlb = decode(&encode(&tlb)).expect("own archive loads"),
            }
            assert_eq!(tlb.stats(), (model.hits, model.misses), "{ctx}");
            assert_eq!(tlb.stamp(), model.stamp, "{ctx}");
            assert_eq!(tlb.len(), model.entries.len(), "{ctx}");
            assert_eq!(encode(&tlb), model.bytes(), "{ctx}");
        }
    }

    /// The first `n` pages that share page 0's entry of the hint table.
    fn colliding_pages(n: usize) -> Vec<u64> {
        (0..)
            .filter(|&p| hint_of(PageNum(p)) == 0)
            .take(n)
            .collect()
    }

    #[test]
    fn flat_tlb_matches_the_hashmap_model_step_for_step() {
        let colliding = colliding_pages(12);
        for (capacity, pages, seed) in [
            (1, (0..4).collect(), 1),
            (2, (0..6).collect(), 2),
            (256, (0..400).collect(), 3),
            (256, (0..64).collect::<Vec<u64>>(), 4),
            (1, colliding.clone(), 5),
            (2, colliding.clone(), 6),
            (4, colliding.clone(), 7),
            (256, colliding, 8),
        ] {
            let mut rng = SplitMix64::new(seed);
            run_against_model(
                capacity,
                (0..6000).map(|step| {
                    // Streaks of one page, as reference streams have,
                    // between uniformly drawn ones.
                    let v = match rng.next_below(3) {
                        0 => pages[0],
                        _ => pages[rng.next_below(pages.len() as u64) as usize],
                    };
                    match rng.next_below(40) {
                        _ if step % 97 == 96 => Op::Reload,
                        0..=19 => Op::Lookup(v),
                        20..=29 => Op::Fill(v, v + 0x1000 + rng.next_below(2)),
                        30..=33 => Op::Peek(v),
                        34..=36 => Op::LastUse(v),
                        37..=38 => Op::Invalidate(v),
                        // Rare enough that a 256-entry TLB still fills up.
                        _ if rng.next_below(20) == 0 => Op::Flush,
                        _ => Op::Peek(v),
                    }
                }),
            );
        }
    }

    /// The cases a hint can go stale in, spelled out: the page it names is
    /// invalidated and `swap_remove` moves another into its slot, the TLB
    /// is flushed and refilled, an archive is loaded.
    #[test]
    fn stale_hints_are_caught_by_the_page_compare() {
        let c = colliding_pages(3);
        for [a, b, c] in [[c[0], c[1], c[2]], [1, 2, 3]] {
            let script = [
                Op::Fill(a, 101),
                Op::Fill(b, 102),
                Op::Fill(c, 103),
                Op::Lookup(a),
                // `c` moves into the slot `a`'s hint names.
                Op::Invalidate(a),
                Op::Lookup(a),
                Op::Lookup(c),
                Op::Lookup(b),
                Op::Peek(a),
                Op::Fill(a, 104),
                Op::LastUse(c),
                // Every hint now names a slot that is gone.
                Op::Flush,
                Op::Lookup(b),
                Op::Fill(b, 105),
                Op::Fill(c, 106),
                Op::Lookup(b),
                Op::Reload,
                Op::Lookup(b),
                Op::Lookup(c),
                Op::Lookup(a),
                Op::Fill(a, 107),
                Op::Invalidate(c),
                Op::Lookup(a),
            ];
            for capacity in [1, 2, 4] {
                run_against_model(capacity, script);
            }
        }
    }

    /// A hint is sixteen bits whatever capacity a TLB or an archive names;
    /// past that it names the wrong slot, which the page compare refuses.
    #[test]
    fn hints_truncate_harmlessly_in_an_oversized_tlb() {
        let n = (1 << 16) + 5000;
        let mut tlb = Tlb::new(1 << 17);
        for p in 0..n {
            tlb.fill(PageNum(p), PageNum(p + 1));
        }
        tlb = decode(&encode(&tlb)).expect("own archive loads");
        for p in (0..n).rev() {
            assert_eq!(tlb.lookup(PageNum(p)), Some(PageNum(p + 1)));
            assert_eq!(
                tlb.lookup(PageNum(p)),
                Some(PageNum(p + 1)),
                "through its hint"
            );
        }
        assert_eq!(tlb.stats(), (2 * n, 0));
    }

    /// An archive with the given entries, as the encoder lays it out.
    fn archive(capacity: u64, entries: &[(u64, u64, u64)], stamp: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(capacity);
        w.u64(entries.len() as u64);
        for &(v, p, s) in entries {
            w.u64(v);
            w.u64(p);
            w.u64(s);
        }
        w.u64(stamp);
        w.u64(0);
        w.u64(0);
        w.into_bytes()
    }

    #[test]
    fn load_rejects_malformed_archives_without_panicking() {
        use raccd_snap::SnapError::{Eof, Invalid};
        let load = |bytes: &[u8]| decode::<Tlb>(bytes).map(|t| t.len());
        assert_eq!(load(&archive(4, &[(1, 101, 1), (2, 102, 2)], 2)), Ok(2));
        // Not in vpage order: no encoder writes this, but it is a valid
        // set of entries and re-encodes sorted.
        let unsorted = archive(4, &[(2, 102, 2), (1, 101, 1)], 2);
        let tlb: Tlb = decode(&unsorted).expect("order is not an invariant");
        assert_eq!(encode(&tlb), archive(4, &[(1, 101, 1), (2, 102, 2)], 2));
        assert_eq!(
            load(&archive(4, &[(1, 101, 1), (1, 102, 2)], 2)),
            Err(Invalid("duplicate TLB entry"))
        );
        assert_eq!(
            load(&archive(1, &[(1, 101, 1), (2, 102, 2)], 2)),
            Err(Invalid("TLB over capacity"))
        );
        assert_eq!(
            load(&archive(4, &[(1, 101, 1), (2, 102, 9)], 8)),
            Err(Invalid("TLB entry stamp above the saved stamp"))
        );
        assert_eq!(load(&archive(0, &[], 0)), Err(Invalid("zero TLB capacity")));
        // A huge capacity or length allocates nothing up front.
        assert_eq!(load(&archive(u64::MAX >> 1, &[], 0)), Ok(0));
        let mut lying = archive(u64::MAX >> 1, &[(1, 101, 1)], 1);
        lying[8..16].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
        assert_eq!(load(&lying), Err(Eof));
        let whole = archive(4, &[(1, 101, 1), (2, 102, 2)], 2);
        for cut in 0..whole.len() {
            assert!(load(&whole[..cut]).is_err(), "truncated at {cut}");
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(PageNum(1)), None);
        tlb.fill(PageNum(1), PageNum(100));
        assert_eq!(tlb.lookup(PageNum(1)), Some(PageNum(100)));
        assert_eq!(tlb.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageNum(1), PageNum(101));
        tlb.fill(PageNum(2), PageNum(102));
        // Touch page 1 so page 2 becomes LRU.
        assert!(tlb.lookup(PageNum(1)).is_some());
        tlb.fill(PageNum(3), PageNum(103));
        assert_eq!(tlb.peek(PageNum(2)), None, "LRU entry evicted");
        assert!(tlb.peek(PageNum(1)).is_some());
        assert!(tlb.peek(PageNum(3)).is_some());
    }

    #[test]
    fn refill_existing_does_not_evict() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageNum(1), PageNum(101));
        tlb.fill(PageNum(2), PageNum(102));
        tlb.fill(PageNum(1), PageNum(101));
        assert_eq!(tlb.len(), 2);
        assert!(tlb.peek(PageNum(2)).is_some());
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(8);
        tlb.fill(PageNum(1), PageNum(101));
        tlb.fill(PageNum(2), PageNum(102));
        assert!(tlb.invalidate(PageNum(1)));
        assert!(!tlb.invalidate(PageNum(1)));
        assert_eq!(tlb.len(), 1);
        tlb.flush_all();
        assert!(tlb.is_empty());
    }

    #[test]
    fn fill_evicting_reports_victim() {
        let mut tlb = Tlb::new(2);
        assert_eq!(tlb.fill_evicting(PageNum(1), PageNum(101)), None);
        assert_eq!(tlb.fill_evicting(PageNum(2), PageNum(102)), None);
        let evicted = tlb.fill_evicting(PageNum(3), PageNum(103));
        assert_eq!(evicted, Some((PageNum(1), PageNum(101))));
        // Refilling an existing entry evicts nothing.
        assert_eq!(tlb.fill_evicting(PageNum(3), PageNum(103)), None);
    }

    #[test]
    fn last_use_stamps_are_monotonic() {
        let mut tlb = Tlb::new(4);
        tlb.fill(PageNum(1), PageNum(101));
        let s1 = tlb.last_use(PageNum(1)).unwrap();
        tlb.fill(PageNum(2), PageNum(102));
        let s2 = tlb.last_use(PageNum(2)).unwrap();
        assert!(s2 > s1);
        assert!(tlb.stamp() >= s2);
        assert_eq!(tlb.last_use(PageNum(9)), None);
    }

    #[test]
    fn capacity_is_respected() {
        let mut tlb = Tlb::new(256);
        for i in 0..1000 {
            tlb.fill(PageNum(i), PageNum(i + 5000));
        }
        assert_eq!(tlb.len(), 256);
        // Most-recent 256 pages resident.
        assert!(tlb.peek(PageNum(999)).is_some());
        assert!(tlb.peek(PageNum(0)).is_none());
    }
}
