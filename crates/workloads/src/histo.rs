//! **Histo** — "computes a cumulative histogram for all pixels of an image
//! using a cross-weave scan" (Table II: 1000×1000-pixel image, 50 bins).
//!
//! The cross-weave structure scans the image twice with orthogonal
//! partitionings: a *horizontal weave* of row-band tasks and a *vertical
//! weave* of column-band tasks, each producing partial histograms that are
//! merged by binary reduction trees; the final task cross-checks the two
//! weaves and emits the cumulative (prefix-summed) histogram. Every image
//! page is therefore touched by several different cores — the
//! temporarily-private/shared pattern that makes PT classify Histo's data
//! coherent while RaCCD keeps it non-coherent (Figure 2).

use crate::scale::Scale;
use raccd_mem::addr::VRange;
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The cumulative-histogram benchmark.
pub struct Histo {
    /// Image side (pixels); the image is `side × side` bytes.
    pub side: u64,
    /// Histogram bins.
    pub bins: u64,
    /// Band tasks per weave (power of two for the reduction trees).
    pub chunks: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl Histo {
    /// Configure for a scale (Paper: 1000×1000 pixels, 50 bins).
    pub fn new(scale: Scale) -> Self {
        Histo {
            side: scale.pick(128, 1024, 1000),
            bins: 50,
            chunks: scale.pick(8, 32, 64),
            seed: 0x4157,
        }
    }

    /// Total pixels.
    pub fn pixels(&self) -> u64 {
        self.side * self.side
    }

    fn image(&self) -> Vec<u8> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.pixels()).map(|_| rng.next_u32() as u8).collect()
    }

    fn reference(&self) -> Vec<u32> {
        let mut hist = vec![0u32; self.bins as usize];
        for p in self.image() {
            hist[(p as u64 * self.bins / 256) as usize] += 1;
        }
        for i in 1..hist.len() {
            hist[i] += hist[i - 1];
        }
        hist
    }
}

impl Workload for Histo {
    fn name(&self) -> &str {
        "Histo"
    }

    fn problem(&self) -> String {
        format!(
            "{}x{} pixel image, {} bins",
            self.side, self.side, self.bins
        )
    }

    fn build(&self) -> Program {
        assert!(self.chunks.is_power_of_two());
        let bins = self.bins;
        let side = self.side;
        let mut b = ProgramBuilder::new();
        let img = b.alloc("image", self.pixels());
        // Partial histograms for both weaves, each padded to a cache-line
        // multiple so independent tasks never false-share a block.
        let hist_bytes = bins * 4;
        let hist_stride = hist_bytes.next_multiple_of(64);
        let partials_h = b.alloc("partials_h", self.chunks * hist_stride);
        let partials_v = b.alloc("partials_v", self.chunks * hist_stride);
        let cumulative = b.alloc("cumulative", hist_bytes);

        b.mem().write_bytes(img.start, &self.image());

        let part_h =
            move |c: u64| VRange::new(partials_h.start.offset(c * hist_stride), hist_bytes);
        let part_v =
            move |c: u64| VRange::new(partials_v.start.offset(c * hist_stride), hist_bytes);

        // Horizontal weave: row-band tasks over contiguous image slices.
        for (c, (r0, r1)) in crate::util::chunk_ranges(side, self.chunks)
            .into_iter()
            .enumerate()
        {
            let c = c as u64;
            let band = VRange::new(img.start.offset(r0 * side), (r1 - r0) * side);
            let part = part_h(c);
            b.task(
                "histo_hweave",
                vec![Dep::input(band), Dep::output(part)],
                move |ctx| {
                    let mut local = vec![0u32; bins as usize];
                    for o in 0..band.len {
                        let px = ctx.read_u8(band.start.offset(o)) as u64;
                        local[(px * bins / 256) as usize] += 1;
                    }
                    for (i, v) in local.into_iter().enumerate() {
                        ctx.write_u32(part.start.offset(i as u64 * 4), v);
                    }
                },
            );
        }

        // Vertical weave: column-band tasks re-scan the image with the
        // orthogonal partitioning (strided reads across every row).
        for (c, (x0, x1)) in crate::util::chunk_ranges(side, self.chunks)
            .into_iter()
            .enumerate()
        {
            let c = c as u64;
            let part = part_v(c);
            b.task(
                "histo_vweave",
                vec![Dep::input(img), Dep::output(part)],
                move |ctx| {
                    let mut local = vec![0u32; bins as usize];
                    for r in 0..side {
                        for x in x0..x1 {
                            let px = ctx.read_u8(img.start.offset(r * side + x)) as u64;
                            local[(px * bins / 256) as usize] += 1;
                        }
                    }
                    for (i, v) in local.into_iter().enumerate() {
                        ctx.write_u32(part.start.offset(i as u64 * 4), v);
                    }
                },
            );
        }

        // Binary reduction tree for each weave, into partial 0.
        for part_fn in [
            Box::new(part_h) as Box<dyn Fn(u64) -> VRange>,
            Box::new(part_v),
        ] {
            let mut stride = 1;
            while stride < self.chunks {
                let mut c = 0;
                while c + stride < self.chunks {
                    let dst = part_fn(c);
                    let src = part_fn(c + stride);
                    b.task(
                        "histo_merge",
                        vec![Dep::inout(dst), Dep::input(src)],
                        move |ctx| {
                            for i in 0..bins {
                                let a = ctx.read_u32(dst.start.offset(i * 4));
                                let x = ctx.read_u32(src.start.offset(i * 4));
                                ctx.write_u32(dst.start.offset(i * 4), a + x);
                            }
                        },
                    );
                    c += stride * 2;
                }
                stride *= 2;
            }
        }

        // Final: cross-check the weaves and emit the cumulative histogram.
        let total_h = part_h(0);
        let total_v = part_v(0);
        b.task(
            "histo_scan",
            vec![
                Dep::input(total_h),
                Dep::input(total_v),
                Dep::output(cumulative),
            ],
            move |ctx| {
                let mut acc = 0u64;
                for i in 0..bins {
                    let h = ctx.read_u32(total_h.start.offset(i * 4)) as u64;
                    let v = ctx.read_u32(total_v.start.offset(i * 4)) as u64;
                    // The weaves count the same pixels; (h+v)/2 == h when
                    // they agree and a wrong value when they don't, so
                    // functional verification catches any divergence.
                    acc += (h + v) / 2;
                    ctx.write_u32(cumulative.start.offset(i * 4), acc as u32);
                }
            },
        );
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = self.reference();
        let base = mem.allocations()[3].1.start;
        for (i, &want) in expect.iter().enumerate() {
            let got = mem.read_u32(base.offset(i as u64 * 4));
            if got != want {
                return Err(format!("bin {i}: got {got}, want {want}"));
            }
        }
        if *expect.last().unwrap() as u64 != self.pixels() {
            return Err("reference is self-inconsistent".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_run_matches_reference() {
        let w = Histo::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("exact histogram");
    }

    #[test]
    fn task_structure() {
        let w = Histo::new(Scale::Test);
        let p = w.build();
        // 2 weaves of `chunks` tasks + 2 merge trees of (chunks-1) + 1 scan.
        assert_eq!(p.graph.len() as u64, 2 * w.chunks + 2 * (w.chunks - 1) + 1);
        // All weave tasks start ready (readers never block readers).
        assert_eq!(p.graph.initially_ready().len() as u64, 2 * w.chunks);
    }

    #[test]
    fn cumulative_last_bin_counts_all_pixels() {
        let w = Histo::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        let base = p.mem.allocations()[3].1.start;
        let last = p.mem.read_u32(base.offset((w.bins - 1) * 4));
        assert_eq!(last as u64, w.pixels());
    }

    #[test]
    fn weaves_count_identically() {
        let w = Histo::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        let h_base = p.mem.allocations()[1].1.start;
        let v_base = p.mem.allocations()[2].1.start;
        for i in 0..w.bins {
            assert_eq!(
                p.mem.read_u32(h_base.offset(i * 4)),
                p.mem.read_u32(v_base.offset(i * 4)),
                "bin {i} differs between weaves"
            );
        }
    }

    #[test]
    fn bins_partition_the_byte_range() {
        let w = Histo::new(Scale::Test);
        for px in 0..=255u64 {
            let bin = px * w.bins / 256;
            assert!(bin < w.bins);
        }
        // Both extremes are used: byte 0 → bin 0, byte 255 → last bin.
        let low = |px: u64| px * w.bins / 256;
        assert_eq!(low(0), 0);
        assert_eq!(low(255), w.bins - 1);
    }
}
