//! One sparse, inclusive directory bank.
//!
//! The directory is banked per tile (Table I: 32768 entries/core in the
//! paper's 1:1 configuration; our scaled default is 2048/core — see
//! `raccd-sim::config`). Each bank is an 8-way set-associative array of
//! [`DirEntry`]s keyed by physical block number.
//!
//! Accounting kept here feeds three figures:
//! * **accesses** — Figure 7a;
//! * **time-integrated occupancy** — Figure 8 ("average occupancy of the
//!   directory during the execution");
//! * **per-size access histogram + powered-capacity integral** — Figures
//!   7d/10 via `raccd-energy` (dynamic energy depends on the *current*
//!   directory size under ADR).

use crate::error::ProtocolError;
use crate::mesi::EntryState;
use raccd_cache::SetAssoc;
use raccd_mem::BlockAddr;

/// A directory entry (alias of the MESI tracking state).
pub type DirEntry = EntryState;

/// A victim evicted from the directory to make room for a new entry.
/// Inclusivity demands the corresponding LLC line (and any private copies)
/// be invalidated by the caller.
#[derive(Clone, Copy, Debug)]
pub struct DirEviction {
    /// The block whose entry was evicted.
    pub block: BlockAddr,
    /// Its tracking state at eviction (holders must be invalidated).
    pub entry: DirEntry,
}

/// One directory bank with statistics.
#[derive(Clone, Debug)]
pub struct DirectoryBank {
    arr: SetAssoc<DirEntry>,
    ways: usize,
    bank_bits: u32,
    // --- statistics ---
    accesses: u64,
    allocations: u64,
    evictions: u64,
    /// (entries_capacity, accesses) histogram for size-dependent energy.
    access_hist: Vec<(u64, u64)>,
    /// ∫ occupancy dt and ∫ capacity dt for Figure 8 / leakage.
    occ_integral: u128,
    cap_integral: u128,
    last_event: u64,
}

impl DirectoryBank {
    /// Create a bank with `entries` capacity, `ways` associativity and
    /// `bank_bits` low block bits skipped for set indexing.
    ///
    /// Panics on an impossible geometry; [`DirectoryBank::try_new`] is
    /// the fallible variant.
    pub fn new(entries: usize, ways: usize, bank_bits: u32) -> Self {
        Self::try_new(entries, ways, bank_bits).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether a bank of `entries` at `ways` can exist: the entry count a
    /// positive multiple of the associativity. [`DirectoryBank::try_new`]
    /// and [`DirectoryBank::try_resize`] refuse exactly what this does.
    pub fn geometry(entries: usize, ways: usize) -> Result<(), ProtocolError> {
        if ways == 0 || entries < ways || !entries.is_multiple_of(ways) {
            return Err(ProtocolError::BadGeometry { entries, ways });
        }
        Ok(())
    }

    /// Fallible [`DirectoryBank::new`]: rejects what
    /// [`DirectoryBank::geometry`] does.
    pub fn try_new(entries: usize, ways: usize, bank_bits: u32) -> Result<Self, ProtocolError> {
        Self::geometry(entries, ways)?;
        Ok(DirectoryBank {
            arr: SetAssoc::new(entries / ways, ways, bank_bits),
            ways,
            bank_bits,
            accesses: 0,
            allocations: 0,
            evictions: 0,
            access_hist: Vec::new(),
            occ_integral: 0,
            cap_integral: 0,
            last_event: 0,
        })
    }

    /// Current entry capacity (changes under ADR).
    pub fn capacity(&self) -> usize {
        self.arr.capacity()
    }

    /// Resident entries.
    pub fn occupancy(&self) -> usize {
        self.arr.occupancy()
    }

    /// Advance the occupancy/capacity integrals to `now`.
    #[inline]
    pub fn tick(&mut self, now: u64) {
        if now > self.last_event {
            let dt = (now - self.last_event) as u128;
            self.occ_integral += dt * self.arr.occupancy() as u128;
            self.cap_integral += dt * self.arr.capacity() as u128;
            self.last_event = now;
        }
    }

    /// Record one directory access (lookup or update) at time `now`.
    #[inline]
    pub fn record_access(&mut self, now: u64) {
        self.tick(now);
        self.accesses += 1;
        let cap = self.arr.capacity() as u64;
        match self.access_hist.last_mut() {
            Some((c, n)) if *c == cap => *n += 1,
            _ => self.access_hist.push((cap, 1)),
        }
    }

    /// Look up an entry, updating replacement state (does not count an
    /// access — callers decide what constitutes a protocol access).
    #[inline]
    pub fn lookup(&mut self, block: BlockAddr) -> Option<&mut DirEntry> {
        self.arr.get_mut(block.0)
    }

    /// Probe without side effects.
    pub fn probe(&self, block: BlockAddr) -> Option<&DirEntry> {
        self.arr.probe(block.0)
    }

    /// Allocate an entry for `block` (installing a coherent line in the
    /// LLC). If the set is full the PLRU victim is evicted and returned;
    /// the caller must invalidate the victim's LLC line and private copies.
    #[inline]
    pub fn allocate(&mut self, block: BlockAddr, now: u64, entry: DirEntry) -> Option<DirEviction> {
        self.tick(now);
        self.allocations += 1;

        self.arr.insert(block.0, entry).map(|(k, e)| {
            self.evictions += 1;
            DirEviction {
                block: BlockAddr(k),
                entry: e,
            }
        })
    }

    /// Remove the entry for `block` (LLC eviction of a coherent line, or a
    /// coherent→non-coherent transition, §III-E).
    #[inline]
    pub fn deallocate(&mut self, block: BlockAddr, now: u64) -> Option<DirEntry> {
        self.tick(now);
        self.arr.remove(block.0)
    }

    /// Resize to `new_entries` (ADR). Entries that no longer fit are
    /// returned; the caller must treat them as inclusion victims.
    ///
    /// Panics on an impossible geometry; [`DirectoryBank::try_resize`] is
    /// the fallible variant.
    pub fn resize(&mut self, new_entries: usize, now: u64) -> Vec<DirEviction> {
        self.try_resize(new_entries, now)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`DirectoryBank::resize`]: rejects what
    /// [`DirectoryBank::geometry`] does.
    pub fn try_resize(
        &mut self,
        new_entries: usize,
        now: u64,
    ) -> Result<Vec<DirEviction>, ProtocolError> {
        Self::geometry(new_entries, self.ways)?;
        self.tick(now);
        let evicted = self.arr.resize_sets(new_entries / self.ways);
        self.evictions += evicted.len() as u64;
        Ok(evicted
            .into_iter()
            .map(|(k, e)| DirEviction {
                block: BlockAddr(k),
                entry: e,
            })
            .collect())
    }

    /// Total accesses recorded (Figure 7a).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total entry allocations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total inclusion evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Per-capacity access histogram `(entries, accesses)` for energy.
    pub fn access_histogram(&self) -> &[(u64, u64)] {
        &self.access_hist
    }

    /// Average occupancy fraction over `[0, now]`, after a final `tick`.
    pub fn avg_occupancy(&mut self, now: u64) -> f64 {
        self.tick(now);
        if self.cap_integral == 0 {
            return 0.0;
        }
        self.occ_integral as f64 / self.cap_integral as f64
    }

    /// ∫ powered-capacity dt in entry·cycles (leakage under Gated-Vdd).
    pub fn capacity_integral(&mut self, now: u64) -> u128 {
        self.tick(now);
        self.cap_integral
    }

    /// Iterate resident entries (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &DirEntry)> {
        self.arr.iter().map(|(k, e)| (BlockAddr(k), e))
    }

    /// Bank-bit count used for indexing (needed when ADR rebuilds banks).
    pub fn bank_bits(&self) -> u32 {
        self.bank_bits
    }

    /// Associativity (constant across ADR resizes).
    pub fn ways(&self) -> usize {
        self.ways
    }
}

// `ways` and `bank_bits` are saved beside the array they describe: an ADR
// resize divides by `ways` and rebuilds the array with `bank_bits`, so a
// bank whose copies disagree with its array's is refused.
raccd_snap::snap_record!(
    DirectoryBank {
        arr,
        ways,
        bank_bits,
        accesses,
        allocations,
        evictions,
        access_hist,
        occ_integral,
        cap_integral,
        last_event,
    }
    where |d| d.ways == d.arr.ways() && d.bank_bits == d.arr.index_shift(),
    "directory geometry"
);

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> DirectoryBank {
        DirectoryBank::new(16, 8, 0)
    }

    #[test]
    fn allocate_until_eviction() {
        let mut d = bank();
        // 2 sets × 8 ways; blocks 0,2,4,... land in set 0.
        for i in 0..8u64 {
            assert!(d
                .allocate(BlockAddr(i * 2), 0, DirEntry::uncached())
                .is_none());
        }
        let ev = d.allocate(BlockAddr(16 * 2), 0, DirEntry::uncached());
        assert!(ev.is_some());
        assert_eq!(d.evictions(), 1);
        assert_eq!(d.allocations(), 9);
    }

    #[test]
    fn occupancy_integral_tracks_time() {
        let mut d = bank();
        d.allocate(BlockAddr(1), 0, DirEntry::uncached());
        // 1 entry of 16 capacity for 100 cycles → 1/16 average.
        let avg = d.avg_occupancy(100);
        assert!((avg - 1.0 / 16.0).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn occupancy_integral_piecewise() {
        let mut d = bank();
        d.allocate(BlockAddr(1), 0, DirEntry::uncached());
        d.allocate(BlockAddr(2), 50, DirEntry::uncached());
        // [0,50): 1 entry; [50,100): 2 entries → avg = (50+100)/(100·16)
        let avg = d.avg_occupancy(100);
        assert!((avg - 150.0 / 1600.0).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn access_histogram_splits_on_resize() {
        let mut d = bank();
        d.record_access(0);
        d.record_access(1);
        let _ = d.resize(8, 10);
        d.record_access(11);
        assert_eq!(d.access_histogram(), &[(16, 2), (8, 1)]);
        assert_eq!(d.accesses(), 3);
    }

    #[test]
    fn resize_down_evicts_overflow() {
        let mut d = bank();
        for i in 0..16u64 {
            d.allocate(BlockAddr(i), 0, DirEntry::uncached());
        }
        let evicted = d.resize(8, 10);
        assert_eq!(evicted.len(), 8);
        assert_eq!(d.occupancy(), 8);
        assert_eq!(d.capacity(), 8);
    }

    #[test]
    fn deallocate_removes_entry() {
        let mut d = bank();
        d.allocate(BlockAddr(3), 0, DirEntry::uncached());
        assert!(d.deallocate(BlockAddr(3), 5).is_some());
        assert!(d.probe(BlockAddr(3)).is_none());
        assert_eq!(d.occupancy(), 0);
    }

    #[test]
    fn bad_geometry_is_a_typed_error_not_a_panic() {
        use crate::error::ProtocolError;
        assert_eq!(
            DirectoryBank::try_new(10, 8, 0).unwrap_err(),
            ProtocolError::BadGeometry {
                entries: 10,
                ways: 8
            }
        );
        assert!(DirectoryBank::try_new(0, 0, 0).is_err());
        let mut d = bank();
        assert_eq!(
            d.try_resize(12, 0).unwrap_err(),
            ProtocolError::BadGeometry {
                entries: 12,
                ways: 8
            }
        );
        // The bank is untouched after a rejected resize.
        assert_eq!(d.capacity(), 16);
        assert!(d.try_resize(8, 0).is_ok());
    }

    /// A bank's `ways` and `bank_bits` must describe its array: a bank
    /// that says 3 ways over an 8-way array, or another shift than its
    /// array's, would panic at its first ADR resize and is refused.
    #[test]
    fn load_refuses_a_geometry_its_array_contradicts() {
        use raccd_snap::{decode, encode, SnapError};
        let mut d = DirectoryBank::new(64, 8, 4);
        d.allocate(BlockAddr(0x30), 1, DirEntry::uncached());
        let bytes = encode(&d);
        let at = encode(&d.arr).len();
        assert!(decode::<DirectoryBank>(&bytes).is_ok());
        let mut three_ways = bytes.clone();
        three_ways[at] = 3;
        let mut shift = bytes.clone();
        shift[at + 8] = 5;
        for bad in [three_ways, shift] {
            assert_eq!(
                decode::<DirectoryBank>(&bad).err(),
                Some(SnapError::Invalid("directory geometry"))
            );
        }
    }

    #[test]
    fn capacity_integral_reflects_resize() {
        let mut d = bank();
        d.tick(0);
        let _ = d.resize(8, 100);
        let integral = d.capacity_integral(200);
        assert_eq!(integral, 16 * 100 + 8 * 100);
    }
}
