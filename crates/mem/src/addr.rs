//! Address newtypes and cache/page arithmetic.
//!
//! The simulated machine follows the paper's Table I: 64-byte cache blocks
//! and 42-bit physical addresses. Pages are 4 KiB (the `0x1000` page size
//! shown in Figure 5).

/// Cache block (line) size in bytes.
pub const BLOCK_SIZE: u64 = 64;
/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 6;
/// Page size in bytes (Figure 5 uses `0x1000`).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Width of a physical address in bits (Table I / §III-C1).
pub const PHYS_ADDR_BITS: u32 = 42;

/// A virtual address in the simulated address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

/// A physical address in the simulated machine (42 bits used).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

/// A physical cache-block number (physical address >> [`BLOCK_SHIFT`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

/// A page number, virtual or physical depending on context.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNum(pub u64);

impl VAddr {
    /// The virtual page containing this address.
    #[inline]
    pub fn page(self) -> PageNum {
        PageNum(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// The physical address this one translates to when its page maps to
    /// `frame`.
    #[inline]
    pub fn on_frame(self, frame: PageNum) -> PAddr {
        PAddr((frame.0 << PAGE_SHIFT) | self.page_offset())
    }

    /// Address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }
}

impl PAddr {
    /// The physical cache block containing this address.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// The physical page containing this address.
    #[inline]
    pub fn page(self) -> PageNum {
        PageNum(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the cache block.
    #[inline]
    pub fn block_offset(self) -> u64 {
        self.0 & (BLOCK_SIZE - 1)
    }
}

impl BlockAddr {
    /// First byte address of the block.
    #[inline]
    pub fn base(self) -> PAddr {
        PAddr(self.0 << BLOCK_SHIFT)
    }

    /// The page containing this block.
    #[inline]
    pub fn page(self) -> PageNum {
        PageNum(self.0 >> (PAGE_SHIFT - BLOCK_SHIFT))
    }
}

impl PageNum {
    /// First byte address of the page (as a physical address).
    #[inline]
    pub fn base_paddr(self) -> PAddr {
        PAddr(self.0 << PAGE_SHIFT)
    }

    /// First byte address of the page (as a virtual address).
    #[inline]
    pub fn base_vaddr(self) -> VAddr {
        VAddr(self.0 << PAGE_SHIFT)
    }
}

/// Number of cache blocks per page.
pub const BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;

impl core::fmt::Debug for VAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "V{:#x}", self.0)
    }
}
impl core::fmt::Debug for PAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}
impl core::fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}
impl core::fmt::Debug for PageNum {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Pg{:#x}", self.0)
    }
}

/// Inclusive-start, exclusive-end range of virtual addresses.
///
/// This is the unit the runtime communicates through `raccd_register`
/// (§III-A: "initial address, size").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VRange {
    /// First byte of the range.
    pub start: VAddr,
    /// Length in bytes (must be > 0 for a meaningful range).
    pub len: u64,
}

impl VRange {
    /// Create a range from a start address and byte length.
    #[inline]
    pub fn new(start: VAddr, len: u64) -> Self {
        VRange { start, len }
    }

    /// One-past-the-end address.
    #[inline]
    pub fn end(self) -> VAddr {
        VAddr(self.start.0 + self.len)
    }

    /// Whether `addr` falls inside the range.
    #[inline]
    pub fn contains(self, addr: VAddr) -> bool {
        addr.0 >= self.start.0 && addr.0 < self.start.0 + self.len
    }

    /// Whether two ranges overlap in at least one byte.
    #[inline]
    pub fn overlaps(self, other: VRange) -> bool {
        self.start.0 < other.end().0 && other.start.0 < self.end().0
    }

    /// Iterator over the virtual pages the range touches.
    pub fn pages(self) -> impl Iterator<Item = PageNum> {
        let first = self.start.page().0;
        let last = if self.len == 0 {
            first
        } else {
            VAddr(self.start.0 + self.len - 1).page().0
        };
        (first..=last).map(PageNum)
    }
}

// Hand-written: tuple structs (`snap_record!` lists fields by name).
macro_rules! snap_newtype {
    ($ty:ident) => {
        impl raccd_snap::Snap for $ty {
            fn save(&self, w: &mut raccd_snap::SnapWriter) {
                w.u64(self.0);
            }
            fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
                Ok($ty(r.u64()?))
            }
        }
    };
}

snap_newtype!(VAddr);
snap_newtype!(PAddr);
snap_newtype!(BlockAddr);
snap_newtype!(PageNum);

raccd_snap::snap_record!(VRange { start, len });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_page_arithmetic() {
        let a = PAddr(0x1_2345);
        assert_eq!(a.block(), BlockAddr(0x1_2345 >> 6));
        assert_eq!(a.page(), PageNum(0x12));
        assert_eq!(a.block_offset(), 0x1_2345 & 63);
        assert_eq!(BlockAddr(5).base(), PAddr(5 * 64));
        assert_eq!(PageNum(3).base_paddr(), PAddr(3 * 4096));
    }

    #[test]
    fn blocks_per_page_is_consistent() {
        assert_eq!(BLOCKS_PER_PAGE, 64);
        assert_eq!(BLOCK_SIZE * BLOCKS_PER_PAGE, PAGE_SIZE);
    }

    #[test]
    fn vrange_contains_and_overlaps() {
        let r = VRange::new(VAddr(100), 50);
        assert!(r.contains(VAddr(100)));
        assert!(r.contains(VAddr(149)));
        assert!(!r.contains(VAddr(150)));
        assert!(!r.contains(VAddr(99)));

        let s = VRange::new(VAddr(149), 10);
        let t = VRange::new(VAddr(150), 10);
        assert!(r.overlaps(s));
        assert!(!r.overlaps(t));
        assert!(s.overlaps(r));
    }

    #[test]
    fn vrange_page_iteration() {
        // Figure 5: range 0xaa044 .. 0xad088 covers 4 virtual pages.
        let r = VRange::new(VAddr(0xaa044), 0xad088 - 0xaa044);
        let pages: Vec<_> = r.pages().collect();
        assert_eq!(
            pages,
            vec![PageNum(0xaa), PageNum(0xab), PageNum(0xac), PageNum(0xad)]
        );
    }

    #[test]
    fn empty_range_touches_one_page() {
        let r = VRange::new(VAddr(0x5000), 0);
        assert_eq!(r.pages().count(), 1);
        assert!(!r.contains(VAddr(0x5000)));
    }

    #[test]
    fn block_page_relation() {
        let b = BlockAddr(0x12345);
        assert_eq!(b.page(), PageNum(0x12345 >> 6));
        assert_eq!(b.base().page(), b.page());
    }
}
