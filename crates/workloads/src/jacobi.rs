//! **Jacobi** — "solves the stationary heat diffusion problem using the
//! iterative Jacobi method with a 5-element stencil" (Table II: 2-D matrix
//! N² = 2359296, 10 iterations).
//!
//! Two grids alternate as source/destination. Each iteration is decomposed
//! into row-block tasks: `in` the source block plus one halo row on each
//! side, `out` the destination block. Consecutive iterations read blocks
//! produced by *different* cores under the dynamic scheduler — the
//! temporarily-private pattern that separates RaCCD from PT in Figure 2.

use crate::reference;
use crate::scale::Scale;
use crate::util::{write_slice, GridF32};
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The Jacobi benchmark.
#[derive(Debug)]
pub struct Jacobi {
    /// Grid is `n × n` f32.
    pub n: u64,
    /// Jacobi sweeps.
    pub iters: u64,
    /// Row-block tasks per sweep.
    pub blocks: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl Jacobi {
    /// Configure for a scale (Paper: N² = 2359296 ⇒ n = 1536, 10 iters).
    pub fn new(scale: Scale) -> Self {
        Jacobi {
            n: scale.pick(48, 384, 1536),
            iters: scale.pick(2, 3, 10),
            blocks: scale.pick(8, 32, 48),
            seed: 0x01AC_B0B1,
        }
    }

    fn init_grid(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.n * self.n).map(|_| rng.next_f32()).collect()
    }

    /// Host reference: the same sweeps over plain vectors.
    fn reference(&self) -> Vec<f32> {
        let n = self.n as usize;
        let mut src = self.init_grid();
        let mut dst = src.clone();
        for _ in 0..self.iters {
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    dst[i * n + j] = 0.25
                        * (src[(i - 1) * n + j]
                            + src[(i + 1) * n + j]
                            + src[i * n + j - 1]
                            + src[i * n + j + 1]);
                }
            }
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }
}

impl Workload for Jacobi {
    fn name(&self) -> &str {
        "Jacobi"
    }

    fn problem(&self) -> String {
        format!("2D Matrix N2 = {}, {} iters.", self.n * self.n, self.iters)
    }

    fn build(&self) -> Program {
        let n = self.n;
        let mut b = ProgramBuilder::new();
        let a_range = b.alloc("A", n * n * 4);
        let b_range = b.alloc("B", n * n * 4);
        let ga = GridF32::new(a_range, n);
        let gb = GridF32::new(b_range, n);

        // Initialise A (and mirror into B so untouched boundary rows match).
        let init = self.init_grid();
        write_slice(b.mem(), ga.base, &init, f32::to_le_bytes);
        write_slice(b.mem(), gb.base, &init, f32::to_le_bytes);

        for it in 0..self.iters {
            let (src, dst) = if it % 2 == 0 { (ga, gb) } else { (gb, ga) };
            for (r0, r1) in crate::util::chunk_ranges(n, self.blocks) {
                let halo_lo = r0.saturating_sub(1);
                let halo_hi = (r1 + 1).min(n);
                let deps = vec![
                    Dep::input(src.rows(halo_lo, halo_hi)),
                    Dep::output(dst.rows(r0, r1)),
                ];
                b.task("jacobi", deps, move |ctx| {
                    for i in r0..r1 {
                        if i == 0 || i == n - 1 {
                            // Boundary rows: carry values forward.
                            for j in 0..n {
                                let v = ctx.read_f32(src.at(i, j));
                                ctx.write_f32(dst.at(i, j), v);
                            }
                            continue;
                        }
                        // Boundary columns carry forward; interior stencil.
                        let v = ctx.read_f32(src.at(i, 0));
                        ctx.write_f32(dst.at(i, 0), v);
                        for j in 1..n - 1 {
                            let s = 0.25
                                * (ctx.read_f32(src.at(i - 1, j))
                                    + ctx.read_f32(src.at(i + 1, j))
                                    + ctx.read_f32(src.at(i, j - 1))
                                    + ctx.read_f32(src.at(i, j + 1)));
                            ctx.write_f32(dst.at(i, j), s);
                        }
                        let v = ctx.read_f32(src.at(i, n - 1));
                        ctx.write_f32(dst.at(i, n - 1), v);
                    }
                });
            }
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = reference::shared(self, Jacobi::reference);
        let n = self.n;
        // After `iters` sweeps the result lives in A if iters is even
        // (final swap semantics), else in B.
        let final_alloc = if self.iters.is_multiple_of(2) { 0 } else { 1 };
        let base = mem.allocations()[final_alloc].1.start;
        let grid = GridF32::new(raccd_mem::addr::VRange::new(base, n * n * 4), n);
        for i in 0..n {
            for j in 0..n {
                let got = mem.read_f32(grid.at(i, j));
                let want = expect[(i * n + j) as usize];
                if got != want {
                    return Err(format!("({i},{j}): got {got}, want {want}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_run_matches_reference_bitwise() {
        let w = Jacobi::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("bitwise match");
    }

    #[test]
    fn task_count_is_blocks_times_iters() {
        let w = Jacobi::new(Scale::Test);
        let p = w.build();
        assert_eq!(p.graph.len() as u64, w.blocks * w.iters);
        assert!(p.graph.edges() > 0, "iterations must chain");
    }

    #[test]
    fn stencil_smooths_values() {
        // After enough sweeps, interior variance must shrink.
        let w = Jacobi {
            n: 32,
            iters: 6,
            blocks: 4,
            seed: 7,
        };
        let before = w.init_grid();
        let after = w.reference();
        let var = |v: &[f32]| {
            let n = w.n as usize;
            let inner: Vec<f32> = (1..n - 1)
                .flat_map(|i| (1..n - 1).map(move |j| v[i * n + j]))
                .collect();
            let mean = inner.iter().sum::<f32>() / inner.len() as f32;
            inner.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / inner.len() as f32
        };
        assert!(var(&after) < var(&before) * 0.5);
    }

    #[test]
    fn odd_iters_land_in_second_array() {
        let w = Jacobi {
            n: 16,
            iters: 1,
            blocks: 2,
            seed: 9,
        };
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("odd-iteration placement");
    }
}
