//! **RedBlack** — "solves the stationary heat diffusion problem with a
//! 4-element stencil" using red/black ordering (Table II: 2-D matrix
//! N² = 2359296, 10 iterations).
//!
//! Each sweep has two phases: red cells (`(i+j)` even) update from black
//! neighbours, then black cells update from the fresh red values. Row-block
//! tasks within a phase are mutually independent (they only read their
//! halo rows), so each phase is embarrassingly parallel and the result is
//! order-independent — bit-identical to the sequential reference.

use crate::reference;
use crate::scale::Scale;
use crate::util::{write_slice, GridF32};
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The red-black Gauss-Seidel benchmark.
#[derive(Debug)]
pub struct RedBlack {
    /// Grid is `n × n` f32.
    pub n: u64,
    /// Sweeps (each = red phase + black phase).
    pub iters: u64,
    /// Row-block tasks per phase.
    pub blocks: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl RedBlack {
    /// Configure for a scale (Paper: N² = 2359296, 10 iterations).
    pub fn new(scale: Scale) -> Self {
        RedBlack {
            n: scale.pick(48, 384, 1536),
            iters: scale.pick(2, 3, 10),
            blocks: scale.pick(8, 32, 48),
            seed: 0x6EDB,
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
            for colour in 0..2usize {
                for i in 1..n - 1 {
                    for j in 1..n - 1 {
                        if (i + j) % 2 == colour {
                            g[i * n + j] = 0.25
                                * (g[(i - 1) * n + j]
                                    + g[(i + 1) * n + j]
                                    + g[i * n + j - 1]
                                    + g[i * n + j + 1]);
                        }
                    }
                }
            }
        }
        g
    }
}

impl Workload for RedBlack {
    fn name(&self) -> &str {
        "RedBlack"
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
            for colour in 0..2u64 {
                for (r0, r1) in crate::util::chunk_ranges(n, self.blocks) {
                    let mut deps = vec![Dep::inout(g.rows(r0, r1))];
                    if r0 > 0 {
                        deps.push(Dep::input(g.row(r0 - 1)));
                    }
                    if r1 < n {
                        deps.push(Dep::input(g.row(r1)));
                    }
                    b.task("redblack", deps, move |ctx| {
                        for i in r0..r1 {
                            if i == 0 || i == n - 1 {
                                continue;
                            }
                            let start_j = 1 + (1 + i + colour) % 2;
                            let mut j = start_j;
                            while j < n - 1 {
                                let s = 0.25
                                    * (ctx.read_f32(g.at(i - 1, j))
                                        + ctx.read_f32(g.at(i + 1, j))
                                        + ctx.read_f32(g.at(i, j - 1))
                                        + ctx.read_f32(g.at(i, j + 1)));
                                ctx.write_f32(g.at(i, j), s);
                                j += 2;
                            }
                        }
                    });
                }
            }
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = reference::shared(self, RedBlack::reference);
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
    fn functional_run_matches_reference_bitwise() {
        let w = RedBlack::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("bitwise match");
    }

    #[test]
    fn colour_indexing_covers_each_parity() {
        // For row i, colour 0 (red = (i+j) even) starts at j with
        // (i+j) % 2 == 0 and steps by 2.
        for i in 1..5u64 {
            for colour in 0..2u64 {
                let start_j = 1 + (1 + i + colour) % 2;
                assert_eq!(
                    (i + start_j) % 2,
                    colour,
                    "row {i} colour {colour} starts at {start_j}"
                );
            }
        }
    }

    #[test]
    fn two_phases_per_iteration() {
        let w = RedBlack::new(Scale::Test);
        let p = w.build();
        assert_eq!(p.graph.len() as u64, 2 * w.blocks * w.iters);
    }

    #[test]
    fn phases_pipeline_through_halo_rows() {
        // Range-granularity dependences make block b+1 wait on block b's
        // halo read (WAR), yielding the pipelined-wavefront TDG typical of
        // row-blocked stencils: exactly the first red task starts ready.
        let w = RedBlack {
            n: 48,
            iters: 1,
            blocks: 6,
            seed: 1,
        };
        let p = w.build();
        assert_eq!(p.graph.initially_ready(), vec![0]);
        assert!(p.graph.edges() >= 2 * w.blocks as usize - 1);
    }
}
