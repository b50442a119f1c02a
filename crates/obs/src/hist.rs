//! Log2-bucketed latency histograms.
//!
//! Cycle-latency distributions in the simulator span four orders of
//! magnitude (a 2-cycle L1 hit to a multi-thousand-cycle PT page flush), so
//! fixed-width buckets either blur the fast path or truncate the tail.
//! Power-of-two buckets give constant relative resolution with a 65-slot
//! array and a branch-free `leading_zeros` bucket index.

/// A histogram whose bucket `i` counts values `v` with
/// `bucket_floor(i) <= v < bucket_floor(i+1)` where `bucket_floor(0) = 0`,
/// `bucket_floor(1) = 1`, and `bucket_floor(i) = 2^(i-1)` beyond that.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist::new()
    }
}

impl Log2Hist {
    /// Empty histogram.
    pub fn new() -> Self {
        Log2Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index of a value: 0 for 0, otherwise `bit_length(v)`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `v` `n` times.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.max = self.max.max(if n > 0 { v } else { 0 });
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-quantile,
    /// `q` in `[0, 1]`. An upper bound because per-bucket positions are not
    /// retained. Returns 0 when empty.
    pub fn quantile_ceil(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values in [floor(i), floor(i+1)).
                return if i == 64 {
                    self.max
                } else {
                    Self::bucket_floor(i + 1) - 1
                };
            }
        }
        self.max
    }

    /// Accumulate another histogram into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Render as an aligned text table with a bar per bucket.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "# {title}: n={} mean={:.1} p50<={} p99<={} max={}\n",
            self.count,
            self.mean(),
            self.quantile_ceil(0.50),
            self.quantile_ceil(0.99),
            self.max
        );
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let hi = if i == 64 {
                u64::MAX
            } else {
                Self::bucket_floor(i + 1) - 1
            };
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            out.push_str(&format!(
                "{:>12}..{:<12} {:>10} {}\n",
                Self::bucket_floor(i),
                hi,
                n,
                bar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 1);
        assert_eq!(Log2Hist::bucket_of(2), 2);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 3);
        assert_eq!(Log2Hist::bucket_of(1023), 10);
        assert_eq!(Log2Hist::bucket_of(1024), 11);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 64);
        for i in 1..64 {
            // floor(i) really is the smallest value landing in bucket i.
            assert_eq!(Log2Hist::bucket_of(Log2Hist::bucket_floor(i)), i);
            assert_eq!(Log2Hist::bucket_of(Log2Hist::bucket_floor(i) - 1), i - 1);
        }
    }

    #[test]
    fn mean_and_quantiles() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert!((h.mean() - 1110.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile_ceil(0.5) <= 7, "median value is 3");
        assert_eq!(h.quantile_ceil(1.0), 1023, "p100 bucket holds 1000");
        assert_eq!(Log2Hist::new().quantile_ceil(0.5), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        a.record(5);
        b.record(5);
        b.record(700);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 710);
        assert_eq!(a.max(), 700);
        assert_eq!((a.buckets[3], a.buckets[10]), (2, 1));
    }

    #[test]
    fn record_n_is_n_records() {
        for (v, n) in [(0, 3), (3, 1), (3, 0), (700, 5), (u64::MAX, 2)] {
            let (mut once, mut each) = (Log2Hist::new(), Log2Hist::new());
            once.record(9);
            each.record(9);
            once.record_n(v, n);
            for _ in 0..n {
                each.record(v);
            }
            assert_eq!(once, each, "{v} × {n}");
        }
    }

    #[test]
    fn render_contains_stats() {
        let mut h = Log2Hist::new();
        h.record(10);
        let r = h.render("latency");
        assert!(r.contains("latency"));
        assert!(r.contains("n=1"));
        assert!(r.contains('#'));
    }
}
