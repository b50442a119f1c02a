//! The non-coherent block census behind Figure 2.
//!
//! "In Figure 2 a block is marked as coherent if it is ever accessed as
//! coherent during the execution." The census tracks, per physical block
//! touched, whether any access to it was coherent; the non-coherent
//! percentage is then `blocks never accessed coherently / blocks touched`.
//!
//! Data sets sit on contiguous pages (§III-C2), so the state is kept per
//! page: two 64-bit masks over a page's blocks, one map entry per page
//! instead of one per block.

use raccd_mem::{BlockAddr, FibMap};
use raccd_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Per-block ever-accessed / ever-coherent tracking.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// `block >> 6` → (blocks touched, blocks ever accessed coherently),
    /// bit `block & 63` of each. The second is a subset of the first.
    pages: FibMap<u64, (u64, u64)>,
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
        let (touched, ever_coherent) = self.pages.entry(block.0 >> 6).or_default();
        *touched |= 1 << (block.0 & 63);
        *ever_coherent |= (coherent as u64) << (block.0 & 63);
    }

    /// Summarise.
    pub fn summary(&self) -> CensusSummary {
        let total: u64 = self.pages.values().map(|p| p.0.count_ones() as u64).sum();
        let coherent: u64 = self.pages.values().map(|p| p.1.count_ones() as u64).sum();
        CensusSummary {
            total_blocks: total,
            noncoherent_blocks: total - coherent,
        }
    }
}

/// Wire format: that of the per-block map this replaced, a count and then
/// `(block: u64, ever coherent: bool)` in ascending block order.
// Hand-written: a format trick (page masks saved as a per-block map).
impl Snap for Census {
    fn save(&self, w: &mut SnapWriter) {
        let mut pages: Vec<(u64, (u64, u64))> = self.pages.iter().map(|(&k, &v)| (k, v)).collect();
        pages.sort_unstable();
        w.u64(self.summary().total_blocks);
        for (page, (touched, ever_coherent)) in pages {
            for bit in (0..64).filter(|bit| touched >> bit & 1 == 1) {
                w.u64(page << 6 | bit);
                w.u8((ever_coherent >> bit & 1) as u8);
            }
        }
    }
    /// Accepts what `save` writes and nothing else: block keys strictly
    /// ascending, so none comes twice.
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        // `n` is at most the bytes left, so this reserves less than the
        // archive's own size.
        let mut census = Census {
            pages: FibMap::with_capacity_and_hasher(n / 64, Default::default()),
        };
        let mut prev = None;
        for _ in 0..n {
            let (block, coherent) = (r.u64()?, bool::load(r)?);
            if prev.is_some_and(|p| p >= block) {
                return Err(SnapError::Invalid("census keys"));
            }
            prev = Some(block);
            census.record(BlockAddr(block), coherent);
        }
        Ok(census)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_mem::SplitMix64;
    use raccd_snap::{decode, encode};

    /// The per-block map this census replaced, kept as the reference
    /// model: same summary and snapshot bytes, record for record.
    type ModelCensus = FibMap<u64, bool>;

    #[test]
    fn page_masks_match_the_per_block_model_record_for_record() {
        // Both sides of a page boundary, bit 63 of a mask, the highest
        // frames the permuted policy hands out, the top of the key space.
        let bases = [0, 60, 4000, (1 << 34) - 70, u64::MAX - 140];
        for seed in 1..=6 {
            let mut rng = SplitMix64::new(seed);
            let (mut census, mut model) = (Census::new(), ModelCensus::default());
            for step in 0..3000 {
                let block = bases[rng.next_below(5) as usize] + rng.next_below(140);
                // Repeats of a block bring both flags in both orders.
                let coherent = rng.next_below(if seed % 2 == 0 { 2 } else { 8 }) == 0;
                census.record(BlockAddr(block), coherent);
                *model.entry(block).or_insert(false) |= coherent;
                if step % 40 != 0 {
                    continue;
                }
                let ever_coherent = model.values().filter(|&&c| c).count();
                let summary = CensusSummary {
                    total_blocks: model.len() as u64,
                    noncoherent_blocks: (model.len() - ever_coherent) as u64,
                };
                assert_eq!(census.summary(), summary, "seed {seed}, step {step}");
                let bytes = encode(&census);
                assert_eq!(bytes, encode(&model), "seed {seed}, step {step}");
                // Carry on from the loaded copy: a lossy load shows later.
                census = decode(&bytes).expect("own archive loads");
                assert_eq!(
                    census.summary(),
                    summary,
                    "seed {seed}, step {step}: reloaded"
                );
                assert_eq!(
                    encode(&census),
                    bytes,
                    "seed {seed}, step {step}: re-encode"
                );
            }
        }
    }

    /// An archive with the given pairs, as the encoder lays it out.
    fn archive(pairs: &[(u64, u8)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(pairs.len() as u64);
        for &(block, coherent) in pairs {
            w.u64(block);
            w.u8(coherent);
        }
        w.into_bytes()
    }

    #[test]
    fn load_accepts_what_save_writes_and_nothing_else() {
        use SnapError::{Eof, Invalid, TrailingBytes};
        let load = |bytes: &[u8]| decode::<Census>(bytes).map(|c| c.summary());
        let summary = |total_blocks, noncoherent_blocks| CensusSummary {
            total_blocks,
            noncoherent_blocks,
        };
        assert_eq!(load(&archive(&[])), Ok(summary(0, 0)));
        let whole = archive(&[(5, 0), (6, 1), (63, 0), (64, 1), (1 << 40, 0)]);
        assert_eq!(load(&whole), Ok(summary(5, 3)));
        for (what, pairs) in [
            ("duplicate", &[(5, 0), (5, 1)][..]),
            ("duplicate after others", &[(4, 1), (70, 0), (70, 0)]),
            ("descending", &[(6, 0), (5, 1)]),
            ("descending across pages", &[(64, 0), (5, 0)]),
            ("back on an earlier page", &[(5, 0), (64, 0), (6, 0)]),
        ] {
            assert_eq!(load(&archive(pairs)), Err(Invalid("census keys")), "{what}");
        }
        assert_eq!(load(&archive(&[(5, 2)])), Err(Invalid("bool byte not 0/1")));
        for cut in 0..whole.len() {
            assert_eq!(load(&whole[..cut]), Err(Eof), "truncated at {cut}");
        }
        // A count beyond the bytes that follow allocates nothing.
        let mut lying = whole.clone();
        lying[..8].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
        assert_eq!(load(&lying), Err(Eof));
        lying[..8].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(load(&lying), Err(TrailingBytes));
    }

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
