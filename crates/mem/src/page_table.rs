//! Simulated page table and physical frame allocator.
//!
//! The paper runs on full-system Linux and notes (§III-C2) that "the
//! unmodified Linux kernel allocates the contiguous virtual memory pages of
//! the data sets of the benchmarks to contiguous physical pages". The
//! default [`FrameAllocPolicy::Contiguous`] reproduces that behaviour;
//! [`FrameAllocPolicy::Permuted`] scatters frames pseudo-randomly so tests
//! and benches can exercise the NCRT region-collapsing path of Figure 5.

use crate::addr::{PAddr, PageNum, VAddr};
use crate::hash::{FibMap, FibSet};
use crate::rng::SplitMix64;

/// How virtual pages are assigned physical frames on first touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameAllocPolicy {
    /// Contiguous virtual pages get contiguous physical frames (the case the
    /// paper observes under Linux).
    Contiguous,
    /// Frames are drawn from a pseudo-random permutation; contiguous virtual
    /// pages usually map to non-contiguous frames, forcing the NCRT to hold
    /// multiple collapsed regions per task dependence.
    Permuted,
}

/// A flat simulated page table: virtual page number → physical frame number.
///
/// Translation is demand-mapped: the first lookup of an unmapped page
/// allocates a frame according to the policy (modelling the OS page-fault
/// handler). A page-walk latency is *not* charged here — the timing model in
/// `raccd-sim` charges it on TLB misses.
#[derive(Clone, Debug)]
pub struct PageTable {
    map: FibMap<u64, u64>,
    /// The frames the permuted allocator handed out (the values of `map`),
    /// for its reuse check; not saved, rebuilt on load.
    used: FibSet<u64>,
    policy: FrameAllocPolicy,
    next_frame: u64,
    rng: SplitMix64,
    /// Base physical frame number; keeps physical addresses away from 0 so
    /// address-arithmetic bugs surface as obvious failures.
    base_frame: u64,
}

impl PageTable {
    /// Create a page table with the given allocation policy.
    pub fn new(policy: FrameAllocPolicy) -> Self {
        PageTable {
            map: FibMap::default(),
            used: FibSet::default(),
            policy,
            next_frame: 0,
            rng: SplitMix64::new(0xD15E_A5E0_0FAC_CDD0),
            base_frame: 0x100,
        }
    }

    /// Translate a virtual page, demand-mapping it if necessary.
    pub fn translate_page(&mut self, vpage: PageNum) -> PageNum {
        if let Some(&f) = self.map.get(&vpage.0) {
            return PageNum(f);
        }
        let frame = self.alloc_frame();
        self.map.insert(vpage.0, frame);
        PageNum(frame)
    }

    /// Translate a full virtual address to a physical address.
    pub fn translate(&mut self, vaddr: VAddr) -> PAddr {
        vaddr.on_frame(self.translate_page(vaddr.page()))
    }

    fn alloc_frame(&mut self) -> u64 {
        match self.policy {
            FrameAllocPolicy::Contiguous => {
                // First-touch order but stable under re-touch: derive from a
                // monotonically growing frame counter, anchored so that
                // consecutive vpages touched consecutively get consecutive
                // frames (the common case for our bump-allocated heaps).
                let f = self.base_frame + self.next_frame;
                self.next_frame += 1;
                f
            }
            FrameAllocPolicy::Permuted => {
                // Pseudo-random frame with linear probing against reuse.
                // The frame space is kept sparse (48-bit worth of frames is
                // ample) so collisions are vanishingly rare; probe anyway.
                loop {
                    let candidate = self.base_frame + self.rng.next_below(1 << 28);
                    if self.used.insert(candidate) {
                        return candidate;
                    }
                }
            }
        }
    }
}

raccd_snap::snap_enum!(FrameAllocPolicy, "frame alloc policy tag" { 0 => Contiguous, 1 => Permuted });

// Hand-written: `used` is derived from the map's values, not saved.
impl raccd_snap::Snap for PageTable {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        self.map.save(w);
        self.policy.save(w);
        w.u64(self.next_frame);
        self.rng.save(w);
        w.u64(self.base_frame);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        use raccd_snap::Snap;
        let map: FibMap<u64, u64> = Snap::load(r)?;
        Ok(PageTable {
            used: map.values().copied().collect(),
            map,
            policy: Snap::load(r)?,
            next_frame: r.u64()?,
            rng: Snap::load(r)?,
            base_frame: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VRange;
    use crate::addr::PAGE_SIZE;

    #[test]
    fn contiguous_policy_maps_sequential_pages_contiguously() {
        let mut pt = PageTable::new(FrameAllocPolicy::Contiguous);
        let f0 = pt.translate_page(PageNum(0xaa));
        let f1 = pt.translate_page(PageNum(0xab));
        let f2 = pt.translate_page(PageNum(0xac));
        assert_eq!(f1.0, f0.0 + 1);
        assert_eq!(f2.0, f1.0 + 1);
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(FrameAllocPolicy::Contiguous);
        let a = pt.translate(VAddr(0x12345));
        let b = pt.translate(VAddr(0x12345));
        assert_eq!(a, b);
    }

    #[test]
    fn offsets_preserved_through_translation() {
        let mut pt = PageTable::new(FrameAllocPolicy::Contiguous);
        let p = pt.translate(VAddr(0x3_0123));
        assert_eq!(p.0 & (PAGE_SIZE - 1), 0x123);
    }

    #[test]
    fn permuted_policy_scatters_frames() {
        let mut pt = PageTable::new(FrameAllocPolicy::Permuted);
        let frames: Vec<u64> = (0..16).map(|i| pt.translate_page(PageNum(i)).0).collect();
        // At least one adjacent pair must be non-contiguous (overwhelmingly
        // all of them are).
        assert!(frames.windows(2).any(|w| w[1] != w[0] + 1));
        // And all frames distinct.
        let mut sorted = frames.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), frames.len());
    }

    /// The frame-reuse check used to scan every mapped frame per new page;
    /// the set that replaced it must hand out the same frames in the same
    /// order. Digests taken from the scanning allocator (PR 13).
    #[test]
    fn permuted_frames_match_the_scanning_allocator() {
        let vpage = |i: u64| {
            PageNum(if i.is_multiple_of(2) {
                i / 2
            } else {
                0x8_0000 + i / 2
            })
        };
        let mut pt = PageTable::new(FrameAllocPolicy::Permuted);
        let mut frames = Vec::new();
        for i in 0..20_000 {
            if i == 10_000 {
                // A restored table rebuilds its used-frame set.
                pt = raccd_snap::decode(&raccd_snap::encode(&pt)).expect("own archive loads");
            }
            frames.extend_from_slice(&pt.translate_page(vpage(i)).0.to_le_bytes());
        }
        assert_eq!(raccd_snap::fnv1a64(&frames), 0x91ad_5ff6_0785_fb66);
        assert_eq!(
            raccd_snap::fnv1a64(&raccd_snap::encode(&pt)),
            0x0b59_cb2b_f3c4_7a8b
        );
        assert_eq!(pt.used.len(), 20_000);
    }

    #[test]
    fn range_pages_translate_consistently() {
        let mut pt = PageTable::new(FrameAllocPolicy::Contiguous);
        let r = VRange::new(VAddr(0xaa044), 0xad088 - 0xaa044);
        let frames: Vec<u64> = r.pages().map(|p| pt.translate_page(p).0).collect();
        assert_eq!(frames.len(), 4);
        assert!(frames.windows(2).all(|w| w[1] == w[0] + 1));
    }
}
