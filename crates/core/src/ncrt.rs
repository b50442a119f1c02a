//! The Non-Coherent Region Table (§III-C1) and `raccd_register` (§III-C2).
//!
//! One NCRT per core holds the physical address ranges of the executing
//! task's inputs and outputs. Entries are `(start, end)` physical addresses
//! (42-bit in Table I). Private-cache misses look the address up to decide
//! between the coherent and non-coherent request variants.
//!
//! `raccd_register` receives a *virtual* range and iteratively translates
//! it page by page through the TLB, collapsing runs of contiguous physical
//! pages into single NCRT entries — Figure 5's example needs 4 TLB accesses
//! and registers 2 collapsed regions. "If no space is available in the
//! NCRT, the non-coherent memory region is not registered and accesses to
//! this region happen as in the baseline coherent architecture."

use raccd_mem::addr::VRange;
use raccd_mem::{PAddr, VAddr, PAGE_SIZE};
use raccd_sim::{Machine, RuntimeCosts};

/// Per-core Non-Coherent Region Table.
///
/// ```
/// use raccd_core::Ncrt;
/// use raccd_mem::PAddr;
/// let mut ncrt = Ncrt::new(32); // Table I: 32 entries per core
/// ncrt.insert(0x1000, 0x3000);
/// assert!(ncrt.lookup(PAddr(0x2FFF)));
/// assert!(!ncrt.lookup(PAddr(0x3000)));
/// ncrt.clear(); // raccd_invalidate clears the table at task end
/// assert!(ncrt.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Ncrt {
    /// Registered `(start, end)` physical byte ranges, end exclusive.
    entries: Vec<(u64, u64)>,
    capacity: usize,
}

raccd_snap::snap_record!(
    Ncrt { entries, capacity }
    where |t| t.capacity > 0 && t.entries.len() <= t.capacity,
    "NCRT capacity"
);

/// Outcome of registering one task dependence.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegisterOutcome {
    /// Cycles the `raccd_register` instruction took (iterative TLB walk).
    pub cycles: u64,
    /// NCRT entries created (collapsed physical ranges).
    pub entries_added: usize,
    /// TLB lookups performed (one per virtual page, Figure 5).
    pub tlb_lookups: usize,
    /// Whether any sub-range was dropped because the table was full.
    pub overflowed: bool,
}

impl Ncrt {
    /// Create a table with `capacity` entries (Table I: 32).
    pub fn new(capacity: usize) -> Self {
        Ncrt {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether `paddr` falls in any registered region. Models the 1-cycle
    /// associative search of the hardware table (the cycle is charged by
    /// the caller on every private-cache miss).
    #[inline]
    pub fn lookup(&self, paddr: PAddr) -> bool {
        self.entries
            .iter()
            .any(|&(s, e)| paddr.0 >= s && paddr.0 < e)
    }

    /// Insert a physical range; returns false (and drops it) when full.
    pub fn insert(&mut self, start: u64, end: u64) -> bool {
        debug_assert!(start < end);
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push((start, end));
        true
    }

    /// `raccd_invalidate` side effect: the table is cleared when the task
    /// finishes (the regions belong to the finished task only).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The registered physical ranges (start inclusive, end exclusive) —
    /// exactly what [`Ncrt::lookup`] consults. The shadow coherence
    /// checker mirrors these for its registration-discipline invariant.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Execute `raccd_register(initial_address, size)` for a virtual range:
    /// iterative TLB translation with contiguous-physical-page collapsing
    /// (Figure 5). Registers the collapsed physical ranges in this table.
    pub fn register_region(
        &mut self,
        machine: &mut Machine,
        core: usize,
        range: VRange,
        costs: &RuntimeCosts,
    ) -> RegisterOutcome {
        let mut out = RegisterOutcome {
            cycles: costs.register_base,
            ..RegisterOutcome::default()
        };
        if range.len == 0 {
            return out;
        }
        let end_vaddr = VAddr(range.start.0 + range.len);

        // Current collapsed run: physical [run_start, run_end).
        let mut run: Option<(u64, u64)> = None;
        let flush_run =
            |run: &mut Option<(u64, u64)>, this: &mut Ncrt, out: &mut RegisterOutcome| {
                if let Some((s, e)) = run.take() {
                    if this.insert(s, e) {
                        out.entries_added += 1;
                    } else {
                        out.overflowed = true;
                    }
                }
            };

        for vpage in range.pages() {
            // Byte range this vpage contributes, translated with one
            // TLB access (a page walk on a miss), as Figure 5 walks.
            let page_lo = vpage.base_vaddr().0.max(range.start.0);
            let page_hi = (vpage.base_vaddr().0 + PAGE_SIZE).min(end_vaddr.0);
            let (PAddr(p_lo), cycles) = machine.translate(core, VAddr(page_lo));
            out.cycles += cycles + costs.register_per_page;
            out.tlb_lookups += 1;
            let p_hi = p_lo + (page_hi - page_lo);

            match run {
                Some((_, e)) if e == p_lo => {
                    // Contiguous physical continuation: extend the run.
                    run = run.map(|(s, _)| (s, p_hi));
                }
                Some(_) => {
                    flush_run(&mut run, self, &mut out);
                    run = Some((p_lo, p_hi));
                }
                None => run = Some((p_lo, p_hi)),
            }
        }
        flush_run(&mut run, self, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_mem::{FrameAllocPolicy, PageNum, PageTable};
    use raccd_sim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::scaled())
    }

    #[test]
    fn lookup_hits_inside_ranges_only() {
        let mut n = Ncrt::new(4);
        assert!(n.insert(0x1000, 0x2000));
        assert!(!n.lookup(PAddr(0xFFF)));
        assert!(n.lookup(PAddr(0x1000)));
        assert!(n.lookup(PAddr(0x1FFF)));
        assert!(!n.lookup(PAddr(0x2000)));
    }

    #[test]
    fn capacity_enforced() {
        let mut n = Ncrt::new(2);
        assert!(n.insert(0, 1));
        assert!(n.insert(2, 3));
        assert!(!n.insert(4, 5), "third insert must be dropped");
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn clear_empties_table() {
        let mut n = Ncrt::new(4);
        n.insert(0, 10);
        n.clear();
        assert!(n.is_empty());
        assert!(!n.lookup(PAddr(5)));
    }

    #[test]
    fn register_contiguous_mapping_collapses_to_one_entry() {
        // Contiguous frame policy ⇒ the whole multi-page range is one
        // physical run ⇒ 1 NCRT entry, one TLB access per page.
        let mut m = machine();
        let mut n = Ncrt::new(32);
        let costs = RuntimeCosts::default();
        let range = VRange::new(VAddr(0xaa044), 0xad088 - 0xaa044);
        let out = n.register_region(&mut m, 0, range, &costs);
        assert_eq!(out.tlb_lookups, 4, "Figure 5: 4 virtual pages");
        assert_eq!(out.entries_added, 1);
        assert!(!out.overflowed);
        assert!(out.cycles > costs.register_base);
    }

    #[test]
    fn register_figure5_permuted_mapping_collapses_runs() {
        // Figure 5's example: virtual pages 0xaa..0xad map to physical
        // 0xb2, 0xb3, 0xb7, 0xb8 — two contiguous runs ⇒ 2 NCRT entries
        // from 4 TLB accesses.
        let mut pt = PageTable::new(FrameAllocPolicy::Contiguous);
        // Pre-touch in an order that produces the paper's layout:
        // allocate filler so 0xaa→frame f, 0xab→f+1, then a gap, then
        // 0xac→g, 0xad→g+1 with g != f+2.
        pt.translate_page(PageNum(0xaa));
        pt.translate_page(PageNum(0xab));
        pt.translate_page(PageNum(0x500)); // creates the discontinuity
        pt.translate_page(PageNum(0xac));
        pt.translate_page(PageNum(0xad));
        let mut m = Machine::with_page_table(MachineConfig::scaled(), pt);
        let mut n = Ncrt::new(32);
        let out = n.register_region(
            &mut m,
            0,
            VRange::new(VAddr(0xaa044), 0xad088 - 0xaa044),
            &RuntimeCosts::default(),
        );
        assert_eq!(out.tlb_lookups, 4);
        assert_eq!(out.entries_added, 2, "two collapsed physical runs");
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn register_respects_byte_offsets() {
        let mut m = machine();
        let mut n = Ncrt::new(32);
        let range = VRange::new(VAddr(0x30_0100), 0x200);
        n.register_region(&mut m, 0, range, &RuntimeCosts::default());
        // The physical range must cover exactly the 0x200 bytes at the
        // translated location.
        let (p, _) = m.translate(0, VAddr(0x30_0100));
        assert!(n.lookup(p));
        assert!(n.lookup(PAddr(p.0 + 0x1FF)));
        assert!(!n.lookup(PAddr(p.0 + 0x200)));
        assert!(!n.lookup(PAddr(p.0 - 1)));
    }

    #[test]
    fn overflow_drops_region_but_reports_it() {
        let mut pt = PageTable::new(FrameAllocPolicy::Permuted);
        // Permuted frames: every page is its own run.
        let _ = &mut pt;
        let mut m = Machine::with_page_table(MachineConfig::scaled(), pt);
        let mut n = Ncrt::new(2);
        let out = n.register_region(
            &mut m,
            0,
            VRange::new(VAddr(0x40_0000), 16 * PAGE_SIZE),
            &RuntimeCosts::default(),
        );
        assert!(out.overflowed);
        assert_eq!(n.len(), 2, "only the first two runs fit");
    }

    #[test]
    fn empty_range_is_a_cheap_noop() {
        let mut m = machine();
        let mut n = Ncrt::new(4);
        let out = n.register_region(
            &mut m,
            0,
            VRange::new(VAddr(0x50_0000), 0),
            &RuntimeCosts::default(),
        );
        assert_eq!(out.entries_added, 0);
        assert_eq!(out.tlb_lookups, 0);
        assert!(n.is_empty());
    }
}
