//! Packed memory-reference records.
//!
//! Task bodies emit one [`MemRef`] per architectural load/store. The
//! record is packed into a single `u64` so large traces stay cheap:
//!
//! ```text
//! bits  0..=47   virtual address (48 bits is ample for the simulated heap)
//! bit   48       write flag
//! bits  49..=51  log2(access size in bytes), 0..=3 → 1,2,4,8 bytes
//! bit   52       stack flag: the address is an offset into the executing
//!                core's private stack region (task-local scratch — not
//!                part of any annotated dependence, so coherent under
//!                RaCCD but typically private under the PT baseline)
//! ```

use crate::addr::{VAddr, BLOCK_SIZE};
use raccd_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// One memory reference of a task body.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MemRef(u64);

const WRITE_BIT: u64 = 1 << 48;
const SIZE_SHIFT: u32 = 49;
const STACK_BIT: u64 = 1 << 52;
const ADDR_MASK: u64 = (1 << 48) - 1;

impl MemRef {
    /// A heap access of `size` bytes (1, 2, 4 or 8) at `addr`.
    #[inline]
    pub fn heap(addr: VAddr, write: bool, size: u8) -> Self {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        debug_assert!(addr.0 <= ADDR_MASK);
        let mut bits = addr.0 & ADDR_MASK;
        if write {
            bits |= WRITE_BIT;
        }
        bits |= (size.trailing_zeros() as u64) << SIZE_SHIFT;
        MemRef(bits)
    }

    /// A task-local stack access at byte offset `offset` within the
    /// executing core's stack region.
    #[inline]
    pub fn stack(offset: u64, write: bool) -> Self {
        let mut r = Self::heap(VAddr(offset), write, 8);
        r.0 |= STACK_BIT;
        r
    }

    /// The virtual address (or stack offset when [`MemRef::is_stack`]).
    #[inline]
    pub fn addr(self) -> VAddr {
        VAddr(self.0 & ADDR_MASK)
    }

    /// Whether this is a store.
    #[inline]
    pub fn is_write(self) -> bool {
        self.0 & WRITE_BIT != 0
    }

    /// Access size in bytes.
    #[inline]
    pub fn size(self) -> u8 {
        1 << ((self.0 >> SIZE_SHIFT) & 0x7)
    }

    /// Whether the address is a stack offset rather than a heap address.
    #[inline]
    pub fn is_stack(self) -> bool {
        self.0 & STACK_BIT != 0
    }

    /// Whether `other` starts in the 64-byte block `self` starts in, in the
    /// same address space. A stack region starts on a page boundary, so
    /// two offsets in one block are two addresses in one block.
    #[inline]
    pub fn same_block(self, other: MemRef) -> bool {
        (self.0 ^ other.0) & (ADDR_MASK & !(BLOCK_SIZE - 1) | STACK_BIT) == 0
    }

    /// The packed representation, for serialization.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

// Hand-written: a tuple struct with bulk `save_slice` / `load_vec` overrides.
impl Snap for MemRef {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(MemRef(r.u64()?))
    }
    fn save_slice(vs: &[Self], w: &mut SnapWriter) {
        w.words(vs.iter().map(|r| r.0.to_le_bytes()));
    }
    fn load_vec(r: &mut SnapReader, n: usize) -> Result<Vec<Self>, SnapError> {
        Ok(u64::load_vec(r, n)?.into_iter().map(MemRef).collect())
    }
}

impl core::fmt::Debug for MemRef {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}{}{:?}/{}",
            if self.is_stack() { "stk:" } else { "" },
            if self.is_write() { "W" } else { "R" },
            self.addr(),
            self.size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn heap_roundtrip() {
        let r = MemRef::heap(VAddr(0x12_3456_789A), true, 4);
        assert_eq!(r.addr(), VAddr(0x12_3456_789A));
        assert!(r.is_write());
        assert_eq!(r.size(), 4);
        assert!(!r.is_stack());
    }

    #[test]
    fn stack_roundtrip() {
        let r = MemRef::stack(0x40, false);
        assert!(r.is_stack());
        assert!(!r.is_write());
        assert_eq!(r.addr(), VAddr(0x40));
        assert_eq!(r.size(), 8);
    }

    #[test]
    fn same_block_ignores_offset_size_and_direction_but_not_the_space() {
        let at = |a: u64, write, size| MemRef::heap(VAddr(a), write, size);
        let head = at(0x40_0040, false, 8);
        for other in [
            at(0x40_0040, true, 1),
            at(0x40_007F, false, 1),
            at(0x40_0078, true, 8),
        ] {
            assert!(head.same_block(other), "{other:?}");
        }
        for other in [
            at(0x40_003F, false, 8),
            at(0x40_0080, false, 8),
            at(0x80_0040, false, 8),
            MemRef::stack(0x40_0040, false),
        ] {
            assert!(!head.same_block(other), "{other:?}");
        }
        assert!(MemRef::stack(0x48, true).same_block(MemRef::stack(0x40, false)));
        assert!(!MemRef::stack(0x80, true).same_block(MemRef::stack(0x40, false)));
    }

    #[test]
    fn is_one_word() {
        assert_eq!(core::mem::size_of::<MemRef>(), 8);
    }

    /// `Vec<MemRef>` is most of a mid-run archive (`driver/running`), so it
    /// goes through the bulk `save_slice` / `load_vec` hooks; the bytes are
    /// the element loop's, a length prefix and one little-endian u64 a
    /// reference.
    #[test]
    fn vectors_encode_as_the_element_loop() {
        let refs: Vec<MemRef> = (0..37u64)
            .map(|i| match i % 3 {
                0 => MemRef::stack(i * 8, i % 2 == 0),
                _ => MemRef::heap(VAddr(0x40_0000 + i * 0x1234_5678), i % 2 == 1, 1 << (i % 4)),
            })
            .collect();
        for n in [0, 1, 8, refs.len()] {
            let refs = refs[..n].to_vec();
            let mut model = SnapWriter::new();
            model.u64(n as u64);
            for r in &refs {
                r.save(&mut model);
            }
            let bytes = raccd_snap::encode(&refs);
            assert_eq!(bytes, model.into_bytes());
            assert_eq!(bytes.len(), 8 + 8 * n);
            assert_eq!(raccd_snap::decode::<Vec<MemRef>>(&bytes), Ok(refs));
            for cut in 0..bytes.len() {
                let got = raccd_snap::decode::<Vec<MemRef>>(&bytes[..cut]);
                assert_eq!(got, Err(SnapError::Eof), "cut {cut} of {n} refs");
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_any(addr in 0u64..(1 << 48), write: bool, size_log in 0u8..4) {
            let size = 1u8 << size_log;
            let r = MemRef::heap(VAddr(addr), write, size);
            prop_assert_eq!(r.addr().0, addr);
            prop_assert_eq!(r.is_write(), write);
            prop_assert_eq!(r.size(), size);
        }
    }
}
