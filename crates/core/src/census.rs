//! The non-coherent block census behind Figure 2.
//!
//! "In Figure 2 a block is marked as coherent if it is ever accessed as
//! coherent during the execution." The census tracks, per physical block
//! touched, whether any access to it was coherent; the non-coherent
//! percentage is then `blocks never accessed coherently / blocks touched`.

use raccd_mem::{BlockAddr, FibMap};

/// Per-block ever-accessed / ever-coherent tracking.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// block → ever accessed coherently.
    blocks: FibMap<u64, bool>,
}

/// Aggregated census results.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CensusSummary {
    /// Distinct physical blocks touched.
    pub total_blocks: u64,
    /// Blocks never accessed coherently.
    pub noncoherent_blocks: u64,
}

impl CensusSummary {
    /// Figure 2's metric: percentage of non-coherent blocks.
    pub fn noncoherent_pct(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            100.0 * self.noncoherent_blocks as f64 / self.total_blocks as f64
        }
    }
}

impl Census {
    /// Empty census.
    pub fn new() -> Self {
        Census::default()
    }

    /// Record one access. `coherent` is whether the access used the
    /// coherent path (a coherent L1 hit or a coherent fill).
    #[inline]
    pub fn record(&mut self, block: BlockAddr, coherent: bool) {
        let e = self.blocks.entry(block.0).or_insert(false);
        *e |= coherent;
    }

    /// Summarise.
    pub fn summary(&self) -> CensusSummary {
        let total = self.blocks.len() as u64;
        let coherent = self.blocks.values().filter(|&&c| c).count() as u64;
        CensusSummary {
            total_blocks: total,
            noncoherent_blocks: total - coherent,
        }
    }
}

raccd_snap::snap_record!(Census { blocks });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ever_coherent_sticks() {
        let mut c = Census::new();
        c.record(BlockAddr(1), false);
        c.record(BlockAddr(1), true);
        c.record(BlockAddr(1), false);
        let s = c.summary();
        assert_eq!(s.total_blocks, 1);
        assert_eq!(s.noncoherent_blocks, 0);
    }

    #[test]
    fn percentage() {
        let mut c = Census::new();
        for b in 0..8u64 {
            c.record(BlockAddr(b), b < 2); // 2 coherent, 6 non-coherent
        }
        let s = c.summary();
        assert_eq!(s.total_blocks, 8);
        assert_eq!(s.noncoherent_blocks, 6);
        assert!((s.noncoherent_pct() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn empty_census_is_zero() {
        assert_eq!(Census::new().summary().noncoherent_pct(), 0.0);
    }
}
