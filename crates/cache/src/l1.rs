//! Private L1 data cache model.
//!
//! Each line carries a MESI state (Invalid ⇒ not resident), a dirty flag and
//! the RaCCD **NC bit** (§III-C1). Write-back, write-allocate; clean
//! evictions are silent (Table I: "MESI with blocking states, silent
//! evictions"). Non-coherent lines are outside the protocol: they are
//! installed by NC responses, evicted silently when clean, written back with
//! the NC variant when dirty, and flushed wholesale by `raccd_invalidate`.

use crate::set_assoc::SetAssoc;
use raccd_mem::BlockAddr;

/// Coherence state of a resident L1 line (Invalid ⇒ absent from the array).
///
/// `Modified`/`Exclusive`/`Shared` are the baseline MESI lattice; the
/// `Forward` (MESIF) and `Owned` (MOESI) extensions only occur when the
/// machine runs the corresponding protocol kind — a MESI machine never
/// installs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1State {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly other copies, clean.
    Shared,
    /// Forward (MESIF): clean like Shared, but this copy is the
    /// designated cache-to-cache supplier for read fills. Replacement
    /// notifies the directory (PutF) instead of dropping silently.
    Forward,
    /// Owned (MOESI): dirty like Modified, but read-only — other Shared
    /// copies may exist. The only up-to-date on-chip version; supplies
    /// read fills and writes back on replacement or invalidation.
    Owned,
}

/// A resident L1 line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Line {
    /// MESI state. For NC lines the state is kept (E on fill, M after a
    /// write) but the directory knows nothing about it.
    pub state: L1State,
    /// RaCCD non-coherent bit. Immutable while the line is resident: it is
    /// written by the fill that installs the line and goes away with it
    /// (only *LLC* lines flip their NC bit in place). The Figure 2 census
    /// relies on this to record a block at fill time only, and the shadow
    /// checker fails an L1 hit whose bit differs from its fill's.
    pub nc: bool,
    /// Hardware-thread id that installed an NC line (§III-E: "the
    /// non-coherent bit per block … can be extended to store the thread ID
    /// of the block", 1–3 extra bits for 2–8-way SMT). 0 on non-SMT cores.
    pub tid: u8,
}

impl L1Line {
    /// Whether the line holds data newer than the LLC copy (M, or the
    /// MOESI dirty-shared O).
    pub fn dirty(&self) -> bool {
        matches!(self.state, L1State::Modified | L1State::Owned)
    }
}

/// Private L1 data cache (one per core).
#[derive(Clone, Debug)]
pub struct L1Cache {
    arr: SetAssoc<L1Line>,
    hits: u64,
    misses: u64,
}

impl L1Cache {
    /// Build from geometry: `size_bytes / 64` lines, `ways` associativity.
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        let lines = (size_bytes / raccd_mem::BLOCK_SIZE) as usize;
        assert!(lines >= ways && lines.is_multiple_of(ways));
        L1Cache {
            arr: SetAssoc::new(lines / ways, ways, 0),
            hits: 0,
            misses: 0,
        }
    }

    /// Whether this cache has the sets, ways and index shift that
    /// [`L1Cache::new`]`(size_bytes, ways)` builds (a restored cache is
    /// checked against its machine's configuration).
    pub fn has_geometry(&self, size_bytes: u64, ways: usize) -> bool {
        let lines = (size_bytes / raccd_mem::BLOCK_SIZE) as usize;
        self.arr.ways() == ways && self.arr.capacity() == lines && self.arr.index_shift() == 0
    }

    /// Total line slots (the length of a `raccd_invalidate` cache walk).
    pub fn num_lines(&self) -> usize {
        self.arr.capacity()
    }

    /// Resident line count.
    pub fn occupancy(&self) -> usize {
        self.arr.occupancy()
    }

    /// Look up a block, updating PLRU and hit/miss counters.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> Option<&mut L1Line> {
        self.access_n(block, 1)
    }

    /// Look up a block for `n` consecutive references: what `n`
    /// [`L1Cache::access`]es leave, `n` hits with one PLRU touch (a repeat
    /// touch of one way changes nothing), or `n` misses.
    #[inline]
    pub fn access_n(&mut self, block: BlockAddr, n: u64) -> Option<&mut L1Line> {
        let hit = self.arr.get_mut(block.0);
        if hit.is_some() {
            self.hits += n;
        } else {
            self.misses += n;
        }
        hit
    }

    /// Probe without statistics or PLRU effects.
    pub fn probe(&self, block: BlockAddr) -> Option<&L1Line> {
        self.arr.probe(block.0)
    }

    /// Mutable probe without hit/miss accounting or PLRU update (state
    /// transitions on a line already counted as hit).
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut L1Line> {
        self.arr.probe_mut(block.0)
    }

    /// Install a block after a miss. Returns the evicted victim, if any.
    #[inline]
    pub fn fill(&mut self, block: BlockAddr, line: L1Line) -> Option<(BlockAddr, L1Line)> {
        self.arr
            .insert(block.0, line)
            .map(|(k, l)| (BlockAddr(k), l))
    }

    /// Invalidate one block (directory-initiated Inv, LLC inclusion victim,
    /// PT page flush member). Returns the line if it was present.
    #[inline]
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<L1Line> {
        self.arr.remove(block.0)
    }

    /// Protocol-directed downgrade on a forwarded GetS: M/E → `to`
    /// (Shared under MESI/MESIF, Owned for a dirty MOESI owner). Returns
    /// whether the data was dirty before the transition.
    pub fn downgrade_to(&mut self, block: BlockAddr, to: L1State) -> Option<bool> {
        self.arr.get_mut(block.0).map(|l| {
            let was_dirty = l.dirty();
            l.state = to;
            was_dirty
        })
    }

    /// Remove and return every line `pred` selects (one cache walk).
    fn flush(
        &mut self,
        mut pred: impl FnMut(BlockAddr, &L1Line) -> bool,
    ) -> Vec<(BlockAddr, L1Line)> {
        let drained = self.arr.drain_matching(|k, l| pred(BlockAddr(k), l));
        drained
            .into_iter()
            .map(|(k, l)| (BlockAddr(k), l))
            .collect()
    }

    /// `raccd_invalidate`: remove every NC line (all hardware threads).
    /// Returns the flushed lines (dirty ones need NC write-backs). The
    /// caller charges one cycle per line *slot* walked — use
    /// [`L1Cache::num_lines`].
    pub fn flush_nc(&mut self) -> Vec<(BlockAddr, L1Line)> {
        self.flush(|_, l| l.nc)
    }

    /// Selective `raccd_invalidate` for SMT cores (§III-E): flush only the
    /// NC lines installed by hardware thread `tid`, leaving the sibling
    /// thread's non-coherent working set cached.
    pub fn flush_nc_thread(&mut self, tid: u8) -> Vec<(BlockAddr, L1Line)> {
        self.flush(|_, l| l.nc && l.tid == tid)
    }

    /// PT private→shared transition: flush all blocks of one physical page.
    pub fn flush_page(&mut self, page: raccd_mem::PageNum) -> Vec<(BlockAddr, L1Line)> {
        self.flush(|b, _| b.page() == page)
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Iterate resident blocks (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L1Line)> {
        self.arr.iter().map(|(k, l)| (BlockAddr(k), l))
    }
}

raccd_snap::snap_enum!(L1State, "L1 state tag" {
    0 => Modified,
    1 => Exclusive,
    2 => Shared,
    3 => Forward,
    4 => Owned,
});
raccd_snap::snap_record!(L1Line { state, nc, tid });
raccd_snap::snap_record!(L1Cache { arr, hits, misses });

#[cfg(test)]
mod tests {
    use super::*;

    fn line(state: L1State, nc: bool) -> L1Line {
        L1Line { state, nc, tid: 0 }
    }

    #[test]
    fn geometry_matches_table1() {
        // 32 KiB, 2-way, 64 B lines → 512 lines, 256 sets.
        let l1 = L1Cache::new(32 * 1024, 2);
        assert_eq!(l1.num_lines(), 512);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut l1 = L1Cache::new(4096, 2);
        let b = BlockAddr(42);
        assert!(l1.access(b).is_none());
        l1.fill(b, line(L1State::Exclusive, false));
        assert!(l1.access(b).is_some());
        assert_eq!(l1.stats(), (1, 1));
    }

    #[test]
    fn flush_nc_removes_only_nc_lines() {
        let mut l1 = L1Cache::new(4096, 2);
        l1.fill(BlockAddr(1), line(L1State::Exclusive, true));
        l1.fill(BlockAddr(2), line(L1State::Shared, false));
        l1.fill(BlockAddr(3), line(L1State::Modified, true));
        let flushed = l1.flush_nc();
        assert_eq!(flushed.len(), 2);
        assert!(flushed.iter().any(|&(b, l)| b == BlockAddr(3) && l.dirty()));
        assert!(l1.probe(BlockAddr(2)).is_some());
        assert!(l1.probe(BlockAddr(1)).is_none());
        assert_eq!(l1.occupancy(), 1);
    }

    #[test]
    fn flush_nc_thread_is_selective() {
        let mut l1 = L1Cache::new(4096, 2);
        l1.fill(
            BlockAddr(1),
            L1Line {
                state: L1State::Exclusive,
                nc: true,
                tid: 0,
            },
        );
        l1.fill(
            BlockAddr(2),
            L1Line {
                state: L1State::Modified,
                nc: true,
                tid: 1,
            },
        );
        l1.fill(
            BlockAddr(3),
            L1Line {
                state: L1State::Shared,
                nc: false,
                tid: 0,
            },
        );
        let flushed = l1.flush_nc_thread(1);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, BlockAddr(2));
        assert!(l1.probe(BlockAddr(1)).is_some(), "sibling's NC line kept");
        assert!(l1.probe(BlockAddr(3)).is_some(), "coherent line kept");
    }

    #[test]
    fn flush_page_removes_page_blocks() {
        let mut l1 = L1Cache::new(32 * 1024, 2);
        // Page p contains blocks p*64 .. p*64+63.
        let page = raccd_mem::PageNum(5);
        l1.fill(BlockAddr(5 * 64 + 3), line(L1State::Shared, false));
        l1.fill(BlockAddr(5 * 64 + 9), line(L1State::Modified, false));
        l1.fill(BlockAddr(6 * 64), line(L1State::Shared, false));
        let flushed = l1.flush_page(page);
        assert_eq!(flushed.len(), 2);
        assert_eq!(l1.occupancy(), 1);
    }

    #[test]
    fn every_l1_state_snap_roundtrips_byte_identically() {
        use L1State::*;
        // Fixed tags: re-encoding the decoded value must be byte-identical,
        // and the tag assignment is part of the snapshot format (Forward=3,
        // Owned=4 appended after the MESI trio — old snapshots stay valid).
        for (state, tag) in [
            (Modified, 0u8),
            (Exclusive, 1),
            (Shared, 2),
            (Forward, 3),
            (Owned, 4),
        ] {
            let bytes = raccd_snap::encode(&state);
            assert_eq!(bytes, vec![tag], "{state:?} encodes as its fixed tag");
            let back: L1State = raccd_snap::decode(&bytes).expect("decodes");
            assert_eq!(back, state);
            assert_eq!(raccd_snap::encode(&back), bytes, "re-encode byte-identical");
        }
        assert!(
            raccd_snap::decode::<L1State>(&[5]).is_err(),
            "unknown tag rejected"
        );
        // Full lines in the new states round-trip too, NC bit and all.
        for state in [Forward, Owned] {
            for nc in [false, true] {
                let l = L1Line { state, nc, tid: 3 };
                let bytes = raccd_snap::encode(&l);
                let back: L1Line = raccd_snap::decode(&bytes).expect("decodes");
                assert_eq!(back, l);
                assert_eq!(raccd_snap::encode(&back), bytes);
            }
        }
    }

    #[test]
    fn downgrade_reports_dirtiness() {
        let mut l1 = L1Cache::new(4096, 2);
        l1.fill(BlockAddr(7), line(L1State::Modified, false));
        assert_eq!(l1.downgrade_to(BlockAddr(7), L1State::Shared), Some(true));
        assert_eq!(l1.probe(BlockAddr(7)).unwrap().state, L1State::Shared);
        assert_eq!(l1.downgrade_to(BlockAddr(99), L1State::Shared), None);
    }

    #[test]
    fn eviction_returns_victim() {
        // 2 sets × 2 ways (256 B): blocks 0,2,4 share set 0.
        let mut l1 = L1Cache::new(256, 2);
        assert!(l1
            .fill(BlockAddr(0), line(L1State::Exclusive, false))
            .is_none());
        assert!(l1
            .fill(BlockAddr(2), line(L1State::Modified, false))
            .is_none());
        let victim = l1.fill(BlockAddr(4), line(L1State::Exclusive, false));
        assert!(victim.is_some());
    }
}
