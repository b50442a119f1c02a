//! Deterministic pseudo-random number generation for workload data.
//!
//! Benchmarks must produce bit-identical inputs across runs and platforms so
//! that (a) simulations are reproducible and (b) functional results can be
//! checked against host-side reference implementations. A tiny SplitMix64
//! generator keeps that guarantee independent of external crate version
//! churn (see DESIGN.md §5).

/// SplitMix64 generator (Steele, Lea & Flood; public-domain reference
/// constants). Passes BigCrush when used as a 64-bit stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa bits of a u32, scaled.
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform double in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift reduction; the slight modulo bias is
    /// irrelevant for workload generation.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

raccd_snap::snap_record!(SplitMix64 { state });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 reference implementation.
        let mut rng = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let f = rng.next_f32();
            assert!((0.0..1.0).contains(&f));
            let d = rng.next_f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(99);
        let mut v: Vec<u32> = (0..257).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257).collect::<Vec<_>>());
        // And it actually moved something.
        assert_ne!(v, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
