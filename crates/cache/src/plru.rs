//! Tree pseudo-LRU replacement policy.
//!
//! The paper's caches and directory use "pseudoLRU" (Table I). This is the
//! classic binary-tree PLRU: one bit per internal node points towards the
//! *colder* half. A touch flips the bits on the root-to-leaf path away from
//! the touched way; the victim is found by following the bits downward.
//!
//! Associativity must be a power of two (2-way L1, 8-way LLC/directory).

/// Tree pseudo-LRU state for one cache set. Supports up to 64 ways.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreePlru {
    /// Internal-node bits, heap-indexed: node 1 is the root, children of
    /// node `i` are `2i` and `2i+1`. Bit set ⇒ the cold side is the right
    /// child.
    bits: u64,
}

impl TreePlru {
    /// Fresh state (victim defaults to way 0).
    pub fn new() -> Self {
        TreePlru::default()
    }

    /// Record a use of `way`, steering the tree away from it.
    /// `ways` must be a power of two, at most 64, and the same value on
    /// every call. The walk goes up from the leaf, node `ways + way`: each
    /// ancestor's bit is set (cold side right) and then cleared again when
    /// the path came from its right child, with a mask and a shift per
    /// level and no branch on the way.
    #[inline]
    pub fn touch(&mut self, way: usize, ways: usize) {
        debug_assert!(ways.is_power_of_two() && ways <= 64 && way < ways);
        let mut child = ways + way;
        let mut bits = self.bits;
        while child > 1 {
            let node = child >> 1;
            bits = (bits | (1 << node)) ^ (((child & 1) as u64) << node);
            child = node;
        }
        self.bits = bits;
    }

    /// The way the tree currently designates as victim: follow the bits
    /// down from the root, appending each to the node index, until a leaf,
    /// node `ways + way`.
    #[inline]
    pub fn victim(&self, ways: usize) -> usize {
        debug_assert!(ways.is_power_of_two() && ways <= 64);
        let mut node = 1usize;
        while node < ways {
            node = 2 * node + ((self.bits >> node) & 1) as usize;
        }
        node - ways
    }
}

// Hand-written: one `u64` per set, so a set-assoc array's trees go as one
// bulk copy of the same bytes, the way `u64` slices do.
impl raccd_snap::Snap for TreePlru {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        w.u64(self.bits);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        Ok(TreePlru { bits: r.u64()? })
    }
    fn save_slice(vs: &[Self], w: &mut raccd_snap::SnapWriter) {
        w.words(vs.iter().map(|p| p.bits.to_le_bytes()));
    }
    fn load_vec(
        r: &mut raccd_snap::SnapReader,
        n: usize,
    ) -> Result<Vec<Self>, raccd_snap::SnapError> {
        Ok(r.words(n)?
            .iter()
            .map(|w| TreePlru {
                bits: u64::from_le_bytes(*w),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_way_alternates() {
        let mut p = TreePlru::new();
        assert_eq!(p.victim(2), 0);
        p.touch(0, 2);
        assert_eq!(p.victim(2), 1);
        p.touch(1, 2);
        assert_eq!(p.victim(2), 0);
    }

    #[test]
    fn victim_is_never_most_recently_touched() {
        for ways in [2usize, 4, 8, 16] {
            let mut p = TreePlru::new();
            for i in 0..1000 {
                let way = (i * 7 + 3) % ways;
                p.touch(way, ways);
                assert_ne!(
                    p.victim(ways),
                    way,
                    "PLRU victim equals MRU way for ways={ways}"
                );
            }
        }
    }

    #[test]
    fn round_robin_touch_cycles_victims() {
        // Touching ways 0..n-1 in order leaves way 0 as victim (true-LRU
        // behaviour on sequential fill).
        for ways in [2usize, 4, 8] {
            let mut p = TreePlru::new();
            for w in 0..ways {
                p.touch(w, ways);
            }
            assert_eq!(p.victim(ways), 0);
        }
    }

    #[test]
    fn all_ways_reachable_as_victims() {
        let ways = 8;
        let mut seen = [false; 8];
        let mut p = TreePlru::new();
        for i in 0..200 {
            let v = p.victim(ways);
            seen[v] = true;
            p.touch(v, ways);
            p.touch((v + i) % ways, ways);
        }
        assert!(seen.iter().all(|&s| s), "some way never chosen: {seen:?}");
    }
}
