//! The one hasher behind every map keyed by simulated addresses.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci (multiply-xor) hashing for maps keyed by simulated page and
/// block numbers. The keys are mostly consecutive and never
/// attacker-chosen, so SipHash's collision resistance buys nothing on
/// the per-reference and per-miss paths. Nothing may depend on a map's
/// iteration order: snapshots write entries in sorted key order.
#[derive(Clone, Copy, Debug, Default)]
pub struct FibHasher(u64);

/// A `HashMap` hashed by [`FibHasher`]; the keys must be made of `u64` and
/// `usize` fields only.
pub type FibMap<K, V> = HashMap<K, V, BuildHasherDefault<FibHasher>>;

/// The set twin of [`FibMap`].
pub type FibSet<K> = HashSet<K, BuildHasherDefault<FibHasher>>;

/// 2⁶⁴ / φ, the Fibonacci multiplier.
pub(crate) const FIB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FibHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("FibHasher keys are u64 and usize fields only");
    }
    fn write_u64(&mut self, v: u64) {
        // Folding the state in lets a `(core, page)` tuple hash field by
        // field; a lone `u64` starts from zero.
        let h = (self.0 ^ v).wrapping_mul(FIB_MUL);
        self.0 = h ^ (h >> 32);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageNum;
    use std::hash::BuildHasher;

    #[test]
    fn page_block_and_core_page_keys_all_hash() {
        let mut pages: FibMap<PageNum, u64> = FibMap::default();
        let mut blocks: FibMap<u64, bool> = FibMap::default();
        let mut per_core: FibMap<(usize, u64), bool> = FibMap::default();
        for i in 0..10_000u64 {
            pages.insert(PageNum(i), i);
            blocks.insert(i << 6, i % 2 == 0);
            per_core.insert((i as usize % 16, i / 16), i % 3 == 0);
        }
        assert_eq!(
            (pages.len(), blocks.len(), per_core.len()),
            (10_000, 10_000, 10_000)
        );
        assert_eq!(pages[&PageNum(77)], 77);
        assert!(blocks[&(78 << 6)]);
        assert_eq!(per_core.get(&(3, 0)), Some(&true));
        // Field order matters in a tuple key, and a lone u64 hashes as it
        // did when the TLB owned this hasher.
        let h = std::hash::BuildHasherDefault::<FibHasher>::default();
        assert_ne!(h.hash_one((1usize, 2u64)), h.hash_one((2usize, 1u64)));
        let m = 5u64.wrapping_mul(FIB_MUL);
        assert_eq!(h.hash_one(5u64), m ^ (m >> 32));
    }
}
