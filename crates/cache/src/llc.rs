//! One bank of the shared last-level cache.
//!
//! Table I: "Shared unified 32 MB, banked 2 MB/core, 64 B/line, 15 cycles,
//! 8-way, pseudoLRU". Blocks are interleaved across banks by low block bits;
//! each bank indexes its sets with those bits stripped (`index_shift`).
//!
//! Lines carry the **NC attribute**: a non-coherent block may reside in the
//! LLC with no directory entry (that is exactly how RaCCD relieves directory
//! capacity pressure). Coherent lines are kept directory-inclusive by the
//! protocol layer.

use crate::set_assoc::SetAssoc;
use raccd_mem::BlockAddr;

/// A resident LLC line.
#[derive(Clone, Copy, Debug)]
pub struct LlcLine {
    /// Dirty with respect to main memory.
    pub dirty: bool,
    /// Non-coherent: present in the LLC without a directory entry.
    pub nc: bool,
}

/// One LLC bank.
#[derive(Clone, Debug)]
pub struct LlcBank {
    arr: SetAssoc<LlcLine>,
    hits: u64,
    misses: u64,
}

impl LlcBank {
    /// Build a bank holding `entries` lines with `ways` associativity;
    /// `bank_bits` low block-address bits select the bank and are skipped
    /// when indexing.
    pub fn new(entries: usize, ways: usize, bank_bits: u32) -> Self {
        assert!(entries >= ways && entries.is_multiple_of(ways));
        LlcBank {
            arr: SetAssoc::new(entries / ways, ways, bank_bits),
            hits: 0,
            misses: 0,
        }
    }

    /// Whether this bank has the sets, ways and index shift that
    /// [`LlcBank::new`]`(entries, ways, bank_bits)` builds (a restored bank
    /// is checked against its machine's configuration).
    pub fn has_geometry(&self, entries: usize, ways: usize, bank_bits: u32) -> bool {
        self.arr.ways() == ways
            && self.arr.capacity() == entries
            && self.arr.index_shift() == bank_bits
    }

    /// Lines this bank can hold.
    pub fn capacity(&self) -> usize {
        self.arr.capacity()
    }

    /// Resident lines.
    pub fn occupancy(&self) -> usize {
        self.arr.occupancy()
    }

    /// Look up a block, updating PLRU and counters.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> Option<&mut LlcLine> {
        let hit = self.arr.get_mut(block.0);
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Count a miss the caller already knows of, without the tag scan:
    /// what [`LlcBank::access`] leaves for an absent block (a miss changes
    /// no replacement state).
    #[inline]
    pub fn note_miss(&mut self, block: BlockAddr) {
        debug_assert!(
            self.arr.probe(block.0).is_none(),
            "noted a miss on resident {block:?}"
        );
        self.misses += 1;
    }

    /// Probe without statistics.
    pub fn probe(&self, block: BlockAddr) -> Option<&LlcLine> {
        self.arr.probe(block.0)
    }

    /// Mutable probe without hit/miss accounting or PLRU update — used for
    /// off-critical-path state updates (write-back dirty marking,
    /// NC-attribute transitions).
    #[inline]
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut LlcLine> {
        self.arr.probe_mut(block.0)
    }

    /// Install a block, returning the replaced victim if the set was full.
    #[inline]
    pub fn fill(&mut self, block: BlockAddr, line: LlcLine) -> Option<(BlockAddr, LlcLine)> {
        self.arr
            .insert(block.0, line)
            .map(|(k, l)| (BlockAddr(k), l))
    }

    /// Remove a block (directory-inclusion victim or NC→coherent overhaul).
    #[inline]
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LlcLine> {
        self.arr.remove(block.0)
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Iterate resident blocks (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &LlcLine)> {
        self.arr.iter().map(|(k, l)| (BlockAddr(k), l))
    }
}

raccd_snap::snap_record!(LlcLine { dirty, nc });
raccd_snap::snap_record!(LlcBank { arr, hits, misses });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_interleaving_uses_shifted_index() {
        // 16 banks → bank_bits = 4. Two blocks that differ only in bank
        // bits would alias without the shift; with it they use consecutive
        // sets when divided by 16.
        let mut bank = LlcBank::new(16, 8, 4);
        // Blocks 0x00 and 0x100 belong to bank 0 (low 4 bits zero); sets
        // (0x00>>4)%2=0 and (0x100>>4)%2=0 — same set. 8 ways hold both.
        for i in 0..8u64 {
            assert!(bank
                .fill(
                    BlockAddr(i << 5),
                    LlcLine {
                        dirty: false,
                        nc: false
                    }
                )
                .is_none());
        }
        let evicted = bank.fill(
            BlockAddr(8 << 5),
            LlcLine {
                dirty: false,
                nc: false,
            },
        );
        assert!(evicted.is_some(), "9th line in an 8-way set evicts");
    }

    #[test]
    fn hit_miss_counting() {
        let mut bank = LlcBank::new(64, 8, 0);
        assert!(bank.access(BlockAddr(5)).is_none());
        bank.fill(
            BlockAddr(5),
            LlcLine {
                dirty: false,
                nc: true,
            },
        );
        assert!(bank.access(BlockAddr(5)).is_some());
        assert_eq!(bank.stats(), (1, 1));
        let before = raccd_snap::encode(&bank.arr);
        bank.note_miss(BlockAddr(6));
        assert_eq!(bank.stats(), (1, 2));
        assert_eq!(
            raccd_snap::encode(&bank.arr),
            before,
            "a miss moves no line"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "noted a miss on resident")]
    fn note_miss_on_a_resident_block_trips_the_debug_check() {
        let mut bank = LlcBank::new(64, 8, 0);
        let line = LlcLine {
            dirty: false,
            nc: false,
        };
        bank.fill(BlockAddr(5), line);
        bank.note_miss(BlockAddr(5));
    }

    #[test]
    fn nc_attribute_round_trips() {
        let mut bank = LlcBank::new(64, 8, 0);
        bank.fill(
            BlockAddr(9),
            LlcLine {
                dirty: true,
                nc: true,
            },
        );
        let line = bank.probe(BlockAddr(9)).unwrap();
        assert!(line.dirty && line.nc);
        let removed = bank.invalidate(BlockAddr(9)).unwrap();
        assert!(removed.nc);
        assert_eq!(bank.occupancy(), 0);
    }
}
