//! The TLB-based temporarily-private classifier the paper positions RaCCD
//! against (§II-B, citing TokenTLB and related work \[10\]–\[12\]).
//!
//! Classification lives in the TLB entries:
//!
//! * On a TLB miss, a **TLB-to-TLB miss resolution** broadcast asks every
//!   other core whether it holds the page. If nobody does, the page is
//!   classified *private* to the missing core; otherwise *shared* — and any
//!   holder still treating it as private is downgraded (its cached blocks
//!   of the page are flushed).
//! * Unlike the OS page-table scheme, classification *recovers*: once all
//!   TLB entries for a page are gone, the next miss may re-classify it
//!   private — that is what captures temporarily-private data.
//! * The accuracy limit is **dead time**: a stale TLB entry in a previous
//!   owner makes the resolution see a "holder" that will never touch the
//!   page again. The optional **decay** predictor invalidates entries that
//!   have not been used for `decay_threshold` TLB accesses during
//!   resolution, at the price of extra TLB misses later (§II-B: "this
//!   solution introduces performance overheads due to extra TLB misses").
//! * The whole scheme requires **TLB–L1 inclusivity**: evicting a TLB entry
//!   flushes the page's blocks from that core's L1.
//!
//! RaCCD needs none of this machinery — that is the paper's point — but
//! implementing it lets the reproduction quantify the comparison.

use raccd_mem::{FibMap, PAddr, VAddr};
use raccd_sim::Machine;

/// Per-core-and-page classification state for the TLB-based scheme.
#[derive(Clone, Debug)]
pub struct TlbClassifier {
    /// (core, vpage) → classified private? Mirrors the private/shared bit
    /// each TLB entry would carry.
    class: FibMap<(usize, u64), bool>,
    /// Enable the decay predictor.
    pub decay: bool,
    /// Entries idle for more than this many TLB accesses count as decayed.
    pub decay_threshold: u64,
    /// TLB-to-TLB resolution rounds performed.
    resolutions: u64,
    /// Decay invalidations performed.
    decay_invalidations: u64,
}

/// Result of a classified translation.
#[derive(Clone, Copy, Debug)]
pub struct TlbClassOutcome {
    /// Physical address.
    pub paddr: PAddr,
    /// Cycles charged (TLB, page walk, resolution, flushes).
    pub cycles: u64,
    /// Whether accesses to this page from this core are non-coherent.
    pub private: bool,
}

impl Default for TlbClassifier {
    fn default() -> Self {
        TlbClassifier {
            class: FibMap::default(),
            decay: true,
            decay_threshold: 4096,
            resolutions: 0,
            decay_invalidations: 0,
        }
    }
}

impl TlbClassifier {
    /// Fresh classifier with the decay predictor enabled.
    pub fn new() -> Self {
        TlbClassifier::default()
    }

    /// TLB-to-TLB resolution rounds performed so far.
    pub fn resolutions(&self) -> u64 {
        self.resolutions
    }

    /// Decay invalidations performed so far.
    pub fn decay_invalidations(&self) -> u64 {
        self.decay_invalidations
    }

    /// Translate `vaddr` for `core`, maintaining the TLB-resident
    /// classification. Replaces `Machine::translate` under this mode.
    pub fn translate(
        &mut self,
        m: &mut Machine,
        core: usize,
        vaddr: VAddr,
        now: u64,
    ) -> TlbClassOutcome {
        let vpage = vaddr.page();
        let mut cycles = m.cfg.lat.tlb;

        if let Some(ppage) = m.tlb_mut(core).lookup(vpage) {
            let private = *self.class.get(&(core, vpage.0)).unwrap_or(&false);
            return TlbClassOutcome {
                paddr: vaddr.on_frame(ppage),
                cycles,
                private,
            };
        }

        // TLB miss: page walk + TLB-to-TLB miss resolution broadcast.
        cycles += m.cfg.lat.page_walk;
        let ppage = m.page_table.translate_page(vpage);
        cycles += m.broadcast_round(core);
        self.resolutions += 1;

        // Find live holders; decay-invalidate stale ones.
        let ncores = m.cfg.ncores;
        let mut holders: Vec<usize> = Vec::new();
        for other in (0..ncores).filter(|&o| o != core) {
            let Some(last_use) = m.tlb(other).last_use(vpage) else {
                continue;
            };
            if self.decay && m.tlb(other).stamp() - last_use > self.decay_threshold {
                // Decayed entry: invalidate it (and, for inclusivity, the
                // holder's cached blocks of the page).
                m.tlb_mut(other).invalidate(vpage);
                cycles += m.flush_page(other, ppage, vpage, now);
                self.class.remove(&(other, vpage.0));
                self.decay_invalidations += 1;
            } else {
                holders.push(other);
            }
        }

        let private = holders.is_empty();
        if !private {
            // Downgrade any holder still classified private: its blocks of
            // the page were non-coherent and must be flushed (§II-B).
            for h in holders {
                if self.class.get(&(h, vpage.0)).copied().unwrap_or(false) {
                    cycles += m.flush_page(h, ppage, vpage, now);
                    self.class.insert((h, vpage.0), false);
                }
            }
        }
        self.class.insert((core, vpage.0), private);

        // Fill the TLB; the victim drags its page out of the L1
        // (TLB–L1 inclusivity).
        if let Some((ev_vpage, ev_ppage)) = m.tlb_mut(core).fill_evicting(vpage, ppage) {
            cycles += m.flush_page(core, ev_ppage, ev_vpage, now);
            self.class.remove(&(core, ev_vpage.0));
        }

        TlbClassOutcome {
            paddr: vaddr.on_frame(ppage),
            cycles,
            private,
        }
    }
}

raccd_snap::snap_record!(TlbClassifier {
    class,
    decay,
    decay_threshold,
    resolutions,
    decay_invalidations,
});

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_sim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::scaled())
    }

    #[test]
    fn first_touch_is_private() {
        let mut m = machine();
        let mut c = TlbClassifier::new();
        let out = c.translate(&mut m, 0, VAddr(0x40_0000), 0);
        assert!(out.private);
        assert_eq!(c.resolutions(), 1);
        // Second access hits the TLB: still private, no new resolution.
        let out2 = c.translate(&mut m, 0, VAddr(0x40_0040), 1);
        assert!(out2.private);
        assert_eq!(c.resolutions(), 1);
        assert!(out2.cycles < out.cycles);
    }

    #[test]
    fn second_core_sees_shared_and_downgrades_owner() {
        let mut m = machine();
        let mut c = TlbClassifier::new();
        assert!(c.translate(&mut m, 0, VAddr(0x40_0000), 0).private);
        let out = c.translate(&mut m, 1, VAddr(0x40_0000), 1);
        assert!(!out.private, "live holder in core 0's TLB");
        // Core 0's classification also flipped to shared.
        let again = c.translate(&mut m, 0, VAddr(0x40_0000), 2);
        assert!(!again.private);
    }

    #[test]
    fn classification_recovers_after_tlb_eviction() {
        // The defining improvement over PT: once the first owner's TLB
        // entry is gone, a later core re-classifies the page private.
        let mut cfg = MachineConfig::scaled();
        cfg.tlb_entries = 2; // tiny TLB forces eviction
        let mut m = Machine::new(cfg);
        let mut c = TlbClassifier::new();
        assert!(c.translate(&mut m, 0, VAddr(0x40_0000), 0).private);
        // Evict page 0x400 from core 0's TLB by touching two other pages.
        c.translate(&mut m, 0, VAddr(0x40_1000), 1);
        c.translate(&mut m, 0, VAddr(0x40_2000), 2);
        // Core 1 now classifies it private again — unlike PT.
        let out = c.translate(&mut m, 1, VAddr(0x40_0000), 3);
        assert!(out.private, "temporarily-private page recovered");
    }

    #[test]
    fn decay_removes_dead_time() {
        let mut m = machine();
        let mut c = TlbClassifier::new();
        c.decay_threshold = 4;
        assert!(c.translate(&mut m, 0, VAddr(0x40_0000), 0).private);
        // Core 0 touches other pages: its 0x400 entry decays (stays in the
        // TLB, but idle beyond the threshold).
        for i in 1..8u64 {
            c.translate(&mut m, 0, VAddr(0x40_0000 + i * 0x1000), i);
        }
        let out = c.translate(&mut m, 1, VAddr(0x40_0000), 100);
        assert!(out.private, "decayed entry must not count as a holder");
        assert!(c.decay_invalidations() > 0);
    }

    #[test]
    fn without_decay_dead_time_misclassifies() {
        let mut m = machine();
        let mut c = TlbClassifier::new();
        c.decay = false;
        assert!(c.translate(&mut m, 0, VAddr(0x40_0000), 0).private);
        for i in 1..8u64 {
            c.translate(&mut m, 0, VAddr(0x40_0000 + i * 0x1000), i);
        }
        let out = c.translate(&mut m, 1, VAddr(0x40_0000), 100);
        assert!(!out.private, "stale entry causes the §II-B dead-time error");
    }

    /// On a TLB hit the classifier is `Machine::translate` plus a read of
    /// the page's class: same address, cycles and machine state, and no
    /// state of its own changed. The driver accounts the rest of a
    /// same-block run without calling it.
    #[test]
    fn a_hit_is_a_plain_translate_and_a_class_read() {
        let mut m = machine();
        let mut c = TlbClassifier::new();
        for (now, (core, addr)) in [(0, 0x40_0000), (1, 0x40_0000), (0, 0x41_0000)]
            .into_iter()
            .enumerate()
        {
            let head = c.translate(&mut m, core, VAddr(addr), now as u64);
            let (mine, archive) = (raccd_snap::encode(&c), m.snapshot());
            let mut plain = Machine::restore(m.cfg, &archive).expect("own archive");
            let hit = c.translate(&mut m, core, VAddr(addr + 8), 9);
            assert_eq!(
                (hit.paddr, hit.cycles),
                plain.translate(core, VAddr(addr + 8))
            );
            assert_eq!(hit.private, head.private);
            assert_eq!(raccd_snap::encode(&c), mine);
            assert!(m.snapshot().to_bytes() == plain.snapshot().to_bytes());
        }
    }

    #[test]
    fn resolution_costs_more_than_plain_walk() {
        let mut m = machine();
        let mut c = TlbClassifier::new();
        let classified = c.translate(&mut m, 0, VAddr(0x40_0000), 0).cycles;
        let (_, plain) = m.translate(1, VAddr(0x41_0000));
        assert!(
            classified > plain,
            "broadcast round must cost extra: {classified} vs {plain}"
        );
    }
}
