//! **Gauss** — "solves the stationary heat diffusion problem using the
//! iterative Gauss-Seidel method with a 4-element stencil" (Table II: 2-D
//! matrix N² = 2359296, 10 iterations).
//!
//! In-place sweeps over row blocks. Task `(it, b)` carries
//! `inout` on its rows, `in` on the halo row above (already updated this
//! sweep) and below (still holding the previous sweep's values), which
//! yields the classic pipelined-wavefront TDG across iterations and is
//! bit-identical to the sequential algorithm.

use crate::scale::Scale;
use crate::util::{write_slice, GridF32};
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The Gauss-Seidel benchmark.
pub struct Gauss {
    /// Grid is `n × n` f32.
    pub n: u64,
    /// Sweeps.
    pub iters: u64,
    /// Row-block tasks per sweep.
    pub blocks: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl Gauss {
    /// Configure for a scale (Paper: N² = 2359296, 10 iterations).
    pub fn new(scale: Scale) -> Self {
        Gauss {
            n: scale.pick(48, 384, 1536),
            iters: scale.pick(2, 3, 10),
            blocks: scale.pick(8, 32, 48),
            seed: 0x6A55,
        }
    }

    fn init_grid(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.n * self.n).map(|_| rng.next_f32()).collect()
    }

    fn reference(&self) -> Vec<f32> {
        let n = self.n as usize;
        let mut g = self.init_grid();
        for _ in 0..self.iters {
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    g[i * n + j] = 0.25
                        * (g[(i - 1) * n + j]
                            + g[(i + 1) * n + j]
                            + g[i * n + j - 1]
                            + g[i * n + j + 1]);
                }
            }
        }
        g
    }
}

impl Workload for Gauss {
    fn name(&self) -> &str {
        "Gauss"
    }

    fn problem(&self) -> String {
        format!("2D Matrix N2 = {}, {} iters.", self.n * self.n, self.iters)
    }

    fn build(&self) -> Program {
        let n = self.n;
        let mut b = ProgramBuilder::new();
        let range = b.alloc("G", n * n * 4);
        let g = GridF32::new(range, n);
        write_slice(b.mem(), g.base, &self.init_grid(), f32::to_le_bytes);

        for _it in 0..self.iters {
            for (r0, r1) in crate::util::chunk_ranges(n, self.blocks) {
                let mut deps = vec![Dep::inout(g.rows(r0, r1))];
                if r0 > 0 {
                    deps.push(Dep::input(g.row(r0 - 1)));
                }
                if r1 < n {
                    deps.push(Dep::input(g.row(r1)));
                }
                b.task("gauss", deps, move |ctx| {
                    for i in r0..r1 {
                        if i == 0 || i == n - 1 {
                            continue;
                        }
                        for j in 1..n - 1 {
                            let s = 0.25
                                * (ctx.read_f32(g.at(i - 1, j))
                                    + ctx.read_f32(g.at(i + 1, j))
                                    + ctx.read_f32(g.at(i, j - 1))
                                    + ctx.read_f32(g.at(i, j + 1)));
                            ctx.write_f32(g.at(i, j), s);
                        }
                    }
                });
            }
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = self.reference();
        let n = self.n;
        let base = mem.allocations()[0].1.start;
        let g = GridF32::new(raccd_mem::addr::VRange::new(base, n * n * 4), n);
        for i in 0..n {
            for j in 0..n {
                let got = mem.read_f32(g.at(i, j));
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
    fn functional_run_matches_sequential_gauss_seidel_bitwise() {
        let w = Gauss::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("bitwise match");
    }

    #[test]
    fn pipelined_wavefront_edges_exist() {
        let w = Gauss::new(Scale::Test);
        let p = w.build();
        assert_eq!(p.graph.len() as u64, w.blocks * w.iters);
        // Blocks within a sweep chain (RAW on the halo row), and sweeps
        // chain onto each other: far more edges than a fork-join version.
        assert!(p.graph.edges() as u64 >= w.blocks * w.iters - 1);
    }

    #[test]
    fn differs_from_jacobi_semantics() {
        // Gauss-Seidel consumes already-updated upper rows; ensure our
        // reference really is different from a Jacobi sweep on the same
        // data (guards against accidentally implementing Jacobi twice).
        let w = Gauss {
            n: 16,
            iters: 1,
            blocks: 2,
            seed: 0x6A55,
        };
        let n = w.n as usize;
        let src = w.init_grid();
        let gs = w.reference();
        let mut jacobi = src.clone();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                jacobi[i * n + j] = 0.25
                    * (src[(i - 1) * n + j]
                        + src[(i + 1) * n + j]
                        + src[i * n + j - 1]
                        + src[i * n + j + 1]);
            }
        }
        assert_ne!(gs, jacobi);
    }
}
