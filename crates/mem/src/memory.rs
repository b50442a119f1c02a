//! Byte-accurate simulated memory with a bump allocator.
//!
//! Unlike pure trace-driven cache simulators, workloads in this
//! reproduction *really compute*: every task reads and writes bytes in a
//! [`SimMemory`], so MD5 digests, stencil values and cluster centroids can
//! be validated against host-side references. The timing model observes the
//! same addresses, so functional and timing behaviour cannot drift apart.
//!
//! Virtual layout: a single heap starting at [`SimMemory::HEAP_BASE`], grown
//! by [`SimMemory::alloc`]. The backing store is a flat `Vec<u8>` indexed by
//! `vaddr - HEAP_BASE`.

use crate::addr::{VAddr, VRange, PAGE_SIZE};

/// The simulated application address space plus its byte backing store.
#[derive(Clone, Debug, Default)]
pub struct SimMemory {
    data: Vec<u8>,
    allocs: Vec<(String, VRange)>,
}

impl SimMemory {
    /// Base virtual address of the simulated heap. Non-zero so that address
    /// arithmetic bugs don't silently alias allocation 0, and high enough
    /// that up to 255 per-context stack regions (16 KiB strides from
    /// 0x1000) fit below it.
    pub const HEAP_BASE: u64 = 0x40_0000;

    /// Create an empty address space.
    pub fn new() -> Self {
        SimMemory::default()
    }

    /// Allocate `len` bytes, page-aligned, and zero-fill them. The name is
    /// kept for diagnostics (it mirrors the arrays in the paper's Table II
    /// problem sets).
    pub fn alloc(&mut self, name: &str, len: u64) -> VRange {
        // Page-align every allocation: the PT baseline classifies at page
        // granularity, and unaligned co-tenancy of two arrays in one page
        // would conflate their classifications (the paper's §II-B
        // "misclassified blocks" effect is evaluated separately).
        let start = VAddr(Self::HEAP_BASE + self.data.len() as u64);
        let padded = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.data.resize(self.data.len() + padded as usize, 0u8);
        let range = VRange::new(start, len);
        self.allocs.push((name.to_string(), range));
        range
    }

    /// Named allocations made so far, in allocation order.
    pub fn allocations(&self) -> &[(String, VRange)] {
        &self.allocs
    }

    /// Total allocated bytes (padded to pages).
    pub fn footprint(&self) -> u64 {
        self.data.len() as u64
    }

    #[inline]
    fn index(&self, addr: VAddr, len: usize) -> usize {
        let off = addr
            .0
            .checked_sub(Self::HEAP_BASE)
            .expect("address below heap base") as usize;
        assert!(
            off + len <= self.data.len(),
            "simulated access out of bounds: {addr:?}+{len} (heap {} bytes)",
            self.data.len()
        );
        off
    }

    /// Read a byte slice.
    #[inline]
    pub fn bytes(&self, addr: VAddr, len: usize) -> &[u8] {
        let i = self.index(addr, len);
        &self.data[i..i + len]
    }

    /// Write a byte slice.
    #[inline]
    pub fn write_bytes(&mut self, addr: VAddr, src: &[u8]) {
        let i = self.index(addr, src.len());
        self.data[i..i + src.len()].copy_from_slice(src);
    }
}

macro_rules! typed_access {
    ($read:ident, $write:ident, $ty:ty) => {
        impl SimMemory {
            /// Read one value of the primitive type at `addr`
            /// (little-endian, matching x86).
            #[inline]
            pub fn $read(&self, addr: VAddr) -> $ty {
                let i = self.index(addr, core::mem::size_of::<$ty>());
                <$ty>::from_le_bytes(
                    self.data[i..i + core::mem::size_of::<$ty>()]
                        .try_into()
                        .unwrap(),
                )
            }

            /// Write one value of the primitive type at `addr`.
            #[inline]
            pub fn $write(&mut self, addr: VAddr, v: $ty) {
                let i = self.index(addr, core::mem::size_of::<$ty>());
                self.data[i..i + core::mem::size_of::<$ty>()].copy_from_slice(&v.to_le_bytes());
            }
        }
    };
}

typed_access!(read_u8, write_u8, u8);
typed_access!(read_u16, write_u16, u16);
typed_access!(read_u32, write_u32, u32);
typed_access!(read_u64, write_u64, u64);
typed_access!(read_i32, write_i32, i32);
typed_access!(read_f32, write_f32, f32);
typed_access!(read_f64, write_f64, f64);

raccd_snap::snap_record!(SimMemory { data, allocs });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_zeroed() {
        let mut m = SimMemory::new();
        let a = m.alloc("a", 100);
        let b = m.alloc("b", 5000);
        assert_eq!(a.start.0 % PAGE_SIZE, 0);
        assert_eq!(b.start.0 % PAGE_SIZE, 0);
        assert_eq!(b.start.0, a.start.0 + PAGE_SIZE); // 100 B padded to 1 page
        assert!(m.bytes(a.start, 100).iter().all(|&x| x == 0));
        assert_eq!(m.allocations().len(), 2);
    }

    #[test]
    fn typed_roundtrip() {
        let mut m = SimMemory::new();
        let a = m.alloc("t", 64);
        m.write_f32(a.start, 3.5);
        m.write_f64(a.start.offset(8), -1.25);
        m.write_u32(a.start.offset(16), 0xDEADBEEF);
        m.write_u64(a.start.offset(24), u64::MAX - 1);
        m.write_u8(a.start.offset(32), 0xAB);
        m.write_i32(a.start.offset(36), -42);
        m.write_u16(a.start.offset(40), 0x1234);
        assert_eq!(m.read_f32(a.start), 3.5);
        assert_eq!(m.read_f64(a.start.offset(8)), -1.25);
        assert_eq!(m.read_u32(a.start.offset(16)), 0xDEADBEEF);
        assert_eq!(m.read_u64(a.start.offset(24)), u64::MAX - 1);
        assert_eq!(m.read_u8(a.start.offset(32)), 0xAB);
        assert_eq!(m.read_i32(a.start.offset(36)), -42);
        assert_eq!(m.read_u16(a.start.offset(40)), 0x1234);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = SimMemory::new();
        let a = m.alloc("buf", 256);
        let src: Vec<u8> = (0..=255).collect();
        m.write_bytes(a.start, &src);
        assert_eq!(m.bytes(a.start, 256), &src[..]);
    }

    /// The flat store is saved as a plain `Vec<u8>` now that byte vectors
    /// take the codec's bulk path; the archive bytes are what the
    /// hand-rolled `u64 len ++ bytes` form wrote.
    #[test]
    fn snapshot_bytes_are_len_prefixed_store_then_allocations() {
        use raccd_snap::{decode, encode, Snap, SnapWriter};
        let mut m = SimMemory::new();
        let a = m.alloc("grid", 5000);
        let b = m.alloc("κ-means", 100);
        m.write_u64(a.start.offset(4096), 0x0123_4567_89ab_cdef);
        m.write_bytes(b.start, &[0xab; 100]);

        let mut model = SnapWriter::new();
        model.u64(m.data.len() as u64);
        model.bytes(&m.data);
        m.allocs.save(&mut model);
        let model = model.into_bytes();
        let bytes = encode(&m);
        assert_eq!(bytes, model);
        assert_eq!(bytes.len(), 8 + 3 * 4096 + 8 + (8 + 4 + 16) + (8 + 8 + 16));
        // Digest of the same memory's archive taken from the hand-rolled form.
        assert_eq!(raccd_snap::fnv1a64(&bytes), 0xa312_6b40_fde7_bb5d);

        let back: SimMemory = decode(&bytes).unwrap();
        assert_eq!(back.data, m.data);
        assert_eq!(back.allocs, m.allocs);
        assert_eq!(encode(&back), bytes);
        for cut in [0, 7, 8, 4096, bytes.len() - 1] {
            assert!(decode::<SimMemory>(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut m = SimMemory::new();
        let a = m.alloc("x", 8);
        let _ = m.read_u64(a.start.offset(PAGE_SIZE));
    }

    #[test]
    #[should_panic(expected = "below heap base")]
    fn below_heap_base_panics() {
        let m = SimMemory::new();
        let _ = m.read_u8(VAddr(0));
    }

    #[test]
    fn footprint_counts_pages() {
        let mut m = SimMemory::new();
        m.alloc("a", 1);
        m.alloc("b", PAGE_SIZE + 1);
        assert_eq!(m.footprint(), 3 * PAGE_SIZE);
    }
}
