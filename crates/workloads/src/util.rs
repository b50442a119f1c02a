//! Shared helpers for workload implementations.

use raccd_mem::addr::VRange;
use raccd_mem::{SimMemory, VAddr};

/// A row-major 2-D `f32` matrix view over a simulated allocation.
#[derive(Clone, Copy, Debug)]
pub struct GridF32 {
    /// Base address of element (0,0).
    pub base: VAddr,
    /// Number of columns (row stride in elements).
    pub cols: u64,
}

impl GridF32 {
    /// View over an allocation.
    pub fn new(range: VRange, cols: u64) -> Self {
        GridF32 {
            base: range.start,
            cols,
        }
    }

    /// Address of element `(row, col)`.
    #[inline]
    pub fn at(&self, row: u64, col: u64) -> VAddr {
        self.base.offset((row * self.cols + col) * 4)
    }

    /// Contiguous range covering rows `[r0, r1)`.
    pub fn rows(&self, r0: u64, r1: u64) -> VRange {
        debug_assert!(r0 <= r1);
        VRange::new(
            self.base.offset(r0 * self.cols * 4),
            (r1 - r0) * self.cols * 4,
        )
    }

    /// Contiguous range covering one row.
    pub fn row(&self, r: u64) -> VRange {
        self.rows(r, r + 1)
    }
}

/// Write `vals` back to back from `at` in one store, each value through
/// its `to_le_bytes` (`le`): how builders lay their input arrays down.
pub fn write_slice<T: Copy, const N: usize>(
    mem: &mut SimMemory,
    at: VAddr,
    vals: &[T],
    le: fn(T) -> [u8; N],
) {
    let bytes: Vec<[u8; N]> = vals.iter().map(|&v| le(v)).collect();
    mem.write_bytes(at, bytes.as_flattened());
}

/// Split `n` items into `chunks` nearly equal contiguous ranges
/// `[start, end)`; the first `n % chunks` ranges get one extra item.
pub fn chunk_ranges(n: u64, chunks: u64) -> Vec<(u64, u64)> {
    assert!(chunks > 0);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks as usize);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + u64::from(c < extra);
        out.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_mem::VAddr;

    #[test]
    fn grid_addressing() {
        let g = GridF32::new(VRange::new(VAddr(0x1000), 4 * 16), 4);
        assert_eq!(g.at(0, 0), VAddr(0x1000));
        assert_eq!(g.at(1, 0), VAddr(0x1000 + 16));
        assert_eq!(g.at(2, 3), VAddr(0x1000 + (2 * 4 + 3) * 4));
        let r = g.rows(1, 3);
        assert_eq!(r.start, VAddr(0x1010));
        assert_eq!(r.len, 32);
        assert_eq!(g.row(2).len, 16);
    }

    #[test]
    fn chunks_cover_exactly() {
        for (n, c) in [(100u64, 7u64), (16, 16), (5, 8), (1, 1), (64, 4)] {
            let ranges = chunk_ranges(n, c);
            assert_eq!(ranges.len(), c as usize);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
                assert!(w[0].1 >= w[0].0);
            }
            // Sizes differ by at most 1.
            let sizes: Vec<u64> = ranges.iter().map(|&(a, b)| b - a).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1);
        }
    }
}
