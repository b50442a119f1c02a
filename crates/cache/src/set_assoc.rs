//! Generic set-associative array with tree pseudo-LRU replacement.
//!
//! Used for the L1 data caches, the LLC banks, and the sparse directory
//! banks. Keys are full block (or entry) identifiers; the set index is
//! `(key >> index_shift) % sets` (a mask when `sets` is a power of two, as
//! every shipped geometry is), where `index_shift` lets banked structures
//! skip the bank-interleaving bits. Tags store the whole key, which is what
//! allows Adaptive Directory Reduction to resize the set count at run time
//! (§III-D: "the tag has to work for the smallest possible directory size").

use crate::plru::TreePlru;

/// One valid line: full key plus payload.
#[derive(Clone, Debug)]
pub struct Line<T> {
    /// Full key (e.g. physical block number).
    pub key: u64,
    /// Payload (cache-line state, directory entry, …).
    pub data: T,
}

/// A set-associative array of `sets × ways` lines.
///
/// ```
/// use raccd_cache::SetAssoc;
/// let mut arr: SetAssoc<&str> = SetAssoc::new(2, 2, 0);
/// assert!(arr.insert(4, "a").is_none());
/// assert!(arr.insert(6, "b").is_none()); // same set (even keys), 2 ways
/// let (victim_key, _) = arr.insert(8, "c").expect("set full: PLRU evicts");
/// assert_eq!(victim_key, 4);
/// ```
#[derive(Clone, Debug)]
pub struct SetAssoc<T> {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two; `None` keeps the `%` for
    /// the explorer's odd geometries. Derived from `sets`, never saved.
    set_mask: Option<u64>,
    ways: usize,
    index_shift: u32,
    lines: Vec<Option<Line<T>>>,
    plru: Vec<TreePlru>,
    occupied: usize,
}

fn set_mask(sets: usize) -> Option<u64> {
    sets.is_power_of_two().then(|| sets as u64 - 1)
}

/// Widest set a [`TreePlru`] can order: its 63 internal nodes fit a `u64`.
const MAX_WAYS: usize = 64;

fn valid_ways(ways: usize) -> bool {
    ways.is_power_of_two() && ways <= MAX_WAYS
}

impl<T> SetAssoc<T> {
    /// Create an array. `sets` and `ways` must be non-zero; `ways` a power
    /// of two no larger than 64 (the PLRU tree's width). `index_shift`
    /// strips bank-select bits before set indexing.
    pub fn new(sets: usize, ways: usize, index_shift: u32) -> Self {
        assert!(sets > 0, "sets must be non-zero");
        assert!(
            valid_ways(ways),
            "ways must be a power of two no larger than {MAX_WAYS}"
        );
        SetAssoc {
            sets,
            set_mask: set_mask(sets),
            ways,
            index_shift,
            lines: (0..sets * ways).map(|_| None).collect(),
            plru: vec![TreePlru::new(); sets],
            occupied: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Key bits stripped before set indexing (the bank-select bits).
    pub fn index_shift(&self) -> u32 {
        self.index_shift
    }

    /// Total line slots.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        let index = key >> self.index_shift;
        (match self.set_mask {
            Some(mask) => index & mask,
            None => index % self.sets as u64,
        }) as usize
    }

    #[inline]
    fn slot_range(&self, set: usize) -> core::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Where `key` lives, as `(set, index into lines)`: the one tag scan
    /// every lookup shares.
    #[inline]
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        let set = self.set_of(key);
        let range = self.slot_range(set);
        let way = self.lines[range.clone()]
            .iter()
            .position(|l| matches!(l, Some(l) if l.key == key))?;
        Some((set, range.start + way))
    }

    /// Mutable lookup without touching replacement state.
    pub fn probe_mut(&mut self, key: u64) -> Option<&mut T> {
        let (_, at) = self.find(key)?;
        self.lines[at].as_mut().map(|l| &mut l.data)
    }

    /// Look up a key without touching replacement state.
    pub fn probe(&self, key: u64) -> Option<&T> {
        let (_, at) = self.find(key)?;
        self.lines[at].as_ref().map(|l| &l.data)
    }

    /// Mutable lookup, updating PLRU on hit.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (set, at) = self.find(key)?;
        self.plru[set].touch(at - set * self.ways, self.ways);
        self.lines[at].as_mut().map(|l| &mut l.data)
    }

    /// Insert a line, evicting the PLRU victim if the set is full.
    /// Returns the evicted `(key, data)` if any. If `key` is already
    /// present its payload is replaced (no eviction).
    pub fn insert(&mut self, key: u64, data: T) -> Option<(u64, T)> {
        let set = self.set_of(key);
        let range = self.slot_range(set);
        let lines = &mut self.lines[range];
        // The way holding `key`, else the first invalid way, else the PLRU
        // victim, from one scan: it runs to the end of the set unless it
        // meets `key`, which may sit behind an invalid way.
        let mut free = None;
        let mut present = None;
        for (w, slot) in lines.iter().enumerate() {
            match slot {
                Some(l) if l.key == key => {
                    present = Some(w);
                    break;
                }
                None if free.is_none() => free = Some(w),
                _ => {}
            }
        }
        let w = present
            .or(free)
            .unwrap_or_else(|| self.plru[set].victim(self.ways));
        let old = lines[w].replace(Line { key, data });
        self.plru[set].touch(w, self.ways);
        match old {
            Some(victim) if present.is_none() => Some((victim.key, victim.data)),
            Some(_) => None,
            None => {
                self.occupied += 1;
                None
            }
        }
    }

    /// Remove a line, returning its payload.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (_, at) = self.find(key)?;
        self.occupied -= 1;
        self.lines[at].take().map(|l| l.data)
    }

    /// Iterate over all valid lines.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.lines.iter().flatten().map(|l| (l.key, &l.data))
    }

    /// Mutable iteration over all valid lines.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.lines
            .iter_mut()
            .flatten()
            .map(|l| (l.key, &mut l.data))
    }

    /// Remove every line for which `pred` returns true, collecting them.
    /// Used for cache-walk flushes (`raccd_invalidate`, PT page flushes).
    pub fn drain_matching(&mut self, mut pred: impl FnMut(u64, &T) -> bool) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        for slot in self.lines.iter_mut() {
            if let Some(l) = slot {
                if pred(l.key, &l.data) {
                    let l = slot.take().unwrap();
                    out.push((l.key, l.data));
                }
            }
        }
        self.occupied -= out.len();
        out
    }

    /// Resize the number of sets (Adaptive Directory Reduction). All lines
    /// are re-inserted under the new indexing; lines that no longer fit are
    /// returned as evictions. Associativity is unchanged (§III-D: "we only
    /// change its number of sets while keeping the associativity constant").
    pub fn resize_sets(&mut self, new_sets: usize) -> Vec<(u64, T)> {
        assert!(new_sets > 0);
        let old = core::mem::replace(self, SetAssoc::new(new_sets, self.ways, self.index_shift));
        let mut evicted = Vec::new();
        for line in old.lines.into_iter().flatten() {
            if let Some(e) = self.insert(line.key, line.data) {
                evicted.push(e);
            }
        }
        evicted
    }
}

// Hand-written: generic over its payload (`snap_record!` declares concrete
// types).
impl<T: raccd_snap::Snap> raccd_snap::Snap for Line<T> {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        w.u64(self.key);
        self.data.save(w);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        Ok(Line {
            key: r.u64()?,
            data: T::load(r)?,
        })
    }
}

/// An array's line slots, set after set.
type Slots<T> = Vec<Option<Line<T>>>;

/// Decode the `Vec<Option<Line<T>>>` of an array in place, counting its
/// occupied slots as it goes: the bytes `Vec::load` reads, with each run
/// of empty slots (one `0` byte apiece, almost every slot of a warm-start
/// archive) consumed by [`raccd_snap::SnapReader::zeros`] and appended
/// with one `resize_with`. The reservation is `load_vec`'s cap, so the
/// stream's length prefix never sizes an allocation by itself.
fn load_lines<T: raccd_snap::Snap>(
    r: &mut raccd_snap::SnapReader,
) -> Result<(Slots<T>, usize), raccd_snap::SnapError> {
    use raccd_snap::Snap;
    let n = r.len_prefix()?;
    let mut lines = Vec::with_capacity(raccd_snap::reserve_cap::<Option<Line<T>>>(n));
    let mut occupied = 0;
    while lines.len() < n {
        let empty = r.zeros(n - lines.len());
        lines.resize_with(lines.len() + empty, || None);
        if lines.len() < n {
            let slot: Option<Line<T>> = Snap::load(r)?;
            occupied += usize::from(slot.is_some());
            lines.push(slot);
        }
    }
    Ok((lines, occupied))
}

// Hand-written: `set_mask` is derived from `sets`, not saved, the line
// vector decodes its empty slots in bulk, and the geometry is checked
// before any lookup can index with it.
impl<T: raccd_snap::Snap> raccd_snap::Snap for SetAssoc<T> {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        self.sets.save(w);
        self.ways.save(w);
        w.u32(self.index_shift);
        self.lines.save(w);
        self.plru.save(w);
        self.occupied.save(w);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        use raccd_snap::Snap;
        let sets: usize = Snap::load(r)?;
        let ways: usize = Snap::load(r)?;
        let index_shift = r.u32()?;
        let (lines, counted) = load_lines(r)?;
        let plru: Vec<TreePlru> = Snap::load(r)?;
        let occupied: usize = Snap::load(r)?;
        if sets == 0
            || !valid_ways(ways)
            || sets.checked_mul(ways) != Some(lines.len())
            || plru.len() != sets
            || occupied != counted
        {
            return Err(raccd_snap::SnapError::Invalid("set-assoc geometry"));
        }
        Ok(SetAssoc {
            sets,
            set_mask: set_mask(sets),
            ways,
            index_shift,
            lines,
            plru,
            occupied,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut a: SetAssoc<u32> = SetAssoc::new(4, 2, 0);
        assert_eq!(a.insert(10, 1), None);
        assert_eq!(a.insert(20, 2), None);
        assert_eq!(a.get_mut(10), Some(&mut 1));
        assert_eq!(a.probe(20), Some(&2));
        assert_eq!(a.occupancy(), 2);
        assert_eq!(a.remove(10), Some(1));
        assert_eq!(a.get_mut(10), None);
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn eviction_on_conflict() {
        // 1 set, 2 ways: third distinct key evicts.
        let mut a: SetAssoc<u32> = SetAssoc::new(1, 2, 0);
        a.insert(1, 10);
        a.insert(2, 20);
        let evicted = a.insert(3, 30);
        assert!(evicted.is_some());
        assert_eq!(a.occupancy(), 2);
        // The most recently inserted key must survive.
        assert!(a.probe(3).is_some());
    }

    #[test]
    fn reinsert_same_key_replaces_payload() {
        let mut a: SetAssoc<u32> = SetAssoc::new(2, 2, 0);
        a.insert(5, 1);
        assert_eq!(a.insert(5, 2), None);
        assert_eq!(a.probe(5), Some(&2));
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn index_shift_skips_bank_bits() {
        // With shift 4 and 2 sets, keys 0x00 and 0x10 land in different sets
        // even though key%2 would be equal.
        let mut a: SetAssoc<u32> = SetAssoc::new(2, 1, 4);
        a.insert(0x00, 1);
        let e = a.insert(0x10, 2);
        assert!(e.is_none(), "different sets, no eviction");
        assert!(a.probe(0x00).is_some() && a.probe(0x10).is_some());
    }

    #[test]
    fn mask_and_modulo_indexing_agree() {
        for (sets, shift) in [(1, 0), (2, 4), (8, 0), (256, 0), (1 << 12, 4)] {
            let masked: SetAssoc<u64> = SetAssoc::new(sets, 2, shift);
            assert_eq!(masked.set_mask, Some(sets as u64 - 1));
            let mut modulo = masked.clone();
            modulo.set_mask = None;
            let mut key = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..2000u64 {
                key = key.rotate_left(7) ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
                for k in [key, i, u64::MAX - i] {
                    assert_eq!(
                        masked.set_of(k),
                        modulo.set_of(k),
                        "{sets} sets, key {k:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn odd_set_counts_keep_working_across_resizes() {
        let mut a: SetAssoc<u64> = SetAssoc::new(3, 2, 0);
        assert_eq!(a.set_mask, None);
        for k in 0..6u64 {
            assert_eq!(a.insert(k, k), None, "keys 0..6 spread two per set");
        }
        assert_eq!(
            a.insert(6, 6).map(|(k, _)| k % 3),
            Some(0),
            "set 0 overflows"
        );
        // pow2 → odd → pow2: the mask follows the set count each time.
        let mut a: SetAssoc<u64> = SetAssoc::new(4, 2, 0);
        for k in 0..8u64 {
            a.insert(k, k * 10);
        }
        let mut gone = a.resize_sets(3);
        assert_eq!(a.set_mask, None);
        assert_eq!(a.occupancy() + gone.len(), 8);
        gone.extend(a.resize_sets(8));
        assert_eq!(a.set_mask, Some(7));
        for k in 0..8u64 {
            let want = (!gone.iter().any(|&(g, _)| g == k)).then_some(k * 10);
            assert_eq!(a.probe(k).copied(), want, "key {k}");
            assert_eq!(a.get_mut(k).copied(), want, "key {k}");
        }
        assert_eq!(
            gone.len(),
            2,
            "8 lines into 3 sets × 2 ways, then room for all"
        );
        assert_eq!(a.insert(8, 80), None, "set 0 of 8 has a free way");
        assert_eq!(a.probe(8), Some(&80));
    }

    /// An archive can name a geometry the array cannot run: a `sets ×
    /// ways` that overflows (its empty line vector then matches the wrapped
    /// product, and the first lookup indexes past it), or a set wider than
    /// the PLRU tree (whose touch would shift past its 64 bits). Both are
    /// refused as a typed error.
    #[test]
    fn load_refuses_geometries_it_cannot_run() {
        use raccd_snap::{Snap, SnapError, SnapWriter};
        let payload = |sets: usize, ways: usize, lines: usize| {
            let mut w = SnapWriter::new();
            sets.save(&mut w);
            ways.save(&mut w);
            w.u32(0);
            vec![None::<Line<u32>>; lines].save(&mut w);
            vec![TreePlru::new(); sets].save(&mut w);
            0usize.save(&mut w);
            w.into_bytes()
        };
        for (sets, ways, lines) in [(2, 1 << 63, 0), (1, 128, 128)] {
            assert_eq!(
                raccd_snap::decode::<SetAssoc<u32>>(&payload(sets, ways, lines)).err(),
                Some(SnapError::Invalid("set-assoc geometry")),
                "{sets} sets × {ways} ways"
            );
        }
        let widest: SetAssoc<u32> = raccd_snap::decode(&payload(2, 64, 128)).expect("64 ways load");
        assert_eq!(widest.capacity(), 128);
    }

    #[test]
    #[should_panic(expected = "no larger than 64")]
    fn new_refuses_sets_wider_than_the_plru_tree() {
        let _ = SetAssoc::<u32>::new(1, 128, 0);
    }

    #[test]
    fn lru_behaviour_within_set() {
        let mut a: SetAssoc<u32> = SetAssoc::new(1, 2, 0);
        a.insert(1, 1);
        a.insert(2, 2);
        a.get_mut(1); // 2 becomes victim
        let (k, _) = a.insert(3, 3).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn drain_matching_flushes() {
        let mut a: SetAssoc<bool> = SetAssoc::new(4, 2, 0);
        for k in 0..8u64 {
            a.insert(k, k % 2 == 0);
        }
        let drained = a.drain_matching(|_, &nc| nc);
        assert_eq!(drained.len(), 4);
        assert_eq!(a.occupancy(), 4);
        assert!(a.iter().all(|(_, &nc)| !nc));
    }

    #[test]
    fn resize_preserves_fitting_lines() {
        let mut a: SetAssoc<u64> = SetAssoc::new(8, 2, 0);
        for k in 0..8u64 {
            a.insert(k, k * 10);
        }
        let evicted = a.resize_sets(4);
        // 8 lines into 4 sets × 2 ways = exactly capacity; all should fit.
        assert!(evicted.is_empty());
        assert_eq!(a.occupancy(), 8);
        for k in 0..8u64 {
            assert_eq!(a.probe(k), Some(&(k * 10)));
        }
    }

    #[test]
    fn resize_smaller_evicts_overflow() {
        let mut a: SetAssoc<u64> = SetAssoc::new(8, 2, 0);
        for k in 0..16u64 {
            a.insert(k, k);
        }
        let evicted = a.resize_sets(2);
        assert_eq!(evicted.len(), 16 - 4);
        assert_eq!(a.occupancy(), 4);
    }

    #[test]
    fn resize_larger_keeps_everything() {
        let mut a: SetAssoc<u64> = SetAssoc::new(2, 2, 0);
        for k in 0..4u64 {
            a.insert(k, k);
        }
        let evicted = a.resize_sets(8);
        assert!(evicted.is_empty());
        assert_eq!(a.occupancy(), 4);
    }

    proptest! {
        /// Occupancy never exceeds capacity, and a probe right after insert
        /// always hits.
        #[test]
        fn occupancy_invariant(keys in proptest::collection::vec(0u64..256, 1..200)) {
            let mut a: SetAssoc<u64> = SetAssoc::new(8, 4, 0);
            for &k in &keys {
                a.insert(k, k);
                prop_assert_eq!(a.probe(k), Some(&k));
                prop_assert!(a.occupancy() <= a.capacity());
            }
        }

        /// After any insert sequence, every resident key is found in the set
        /// its index maps to, and distinct resident keys are unique.
        #[test]
        fn resident_keys_unique(keys in proptest::collection::vec(0u64..64, 1..300)) {
            let mut a: SetAssoc<u64> = SetAssoc::new(4, 2, 0);
            for &k in &keys {
                a.insert(k, k);
            }
            let resident: Vec<u64> = a.iter().map(|(k, _)| k).collect();
            let mut sorted = resident.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), resident.len());
        }

        /// Resizing to any power-of-two set count and back never duplicates
        /// or invents keys.
        #[test]
        fn resize_roundtrip_no_invention(
            keys in proptest::collection::vec(0u64..512, 1..100),
            shrink in 0u32..4,
        ) {
            let mut a: SetAssoc<u64> = SetAssoc::new(16, 2, 0);
            for &k in &keys {
                a.insert(k, k);
            }
            let before: std::collections::HashSet<u64> = a.iter().map(|(k, _)| k).collect();
            let evicted = a.resize_sets(16 >> shrink);
            let after: std::collections::HashSet<u64> = a.iter().map(|(k, _)| k).collect();
            let evicted_keys: std::collections::HashSet<u64> =
                evicted.iter().map(|&(k, _)| k).collect();
            // after ∪ evicted == before, disjoint union.
            prop_assert!(after.is_disjoint(&evicted_keys));
            let union: std::collections::HashSet<u64> =
                after.union(&evicted_keys).copied().collect();
            prop_assert_eq!(union, before);
        }
    }
}
