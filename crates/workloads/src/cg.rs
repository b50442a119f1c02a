//! **CG** — "the conjugate gradient algorithm for solving large sparse
//! systems of linear equations" (Table II: 3-D matrix N³ = 884736,
//! 3 iterations).
//!
//! The system is the 7-point Poisson operator on a g×g×g grid, stored in
//! CSR. Each CG iteration decomposes into: per-chunk SpMV tasks, per-chunk
//! partial dot products, a scalar reduction task, fused AXPY+residual-dot
//! chunk tasks, a second scalar task, and per-chunk direction updates —
//! the classic task-parallel CG dependence pattern, with `p`, `q`, `r`,
//! `x` migrating between cores every iteration (temporarily private data).
//!
//! All reductions fold partials in chunk order with f64 accumulators, so
//! the simulated result is bit-identical to the host reference.

use crate::reference;
use crate::scale::Scale;
use crate::util::{chunk_ranges, write_slice};
use raccd_mem::addr::VRange;
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The conjugate-gradient benchmark.
#[derive(Debug)]
pub struct Cg {
    /// Grid edge; the matrix has `g³` rows.
    pub g: u64,
    /// CG iterations.
    pub iters: u64,
    /// Chunk tasks per vector operation.
    pub chunks: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

/// CSR matrix built on the host (also written into simulated memory).
struct Csr {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f32>,
}

impl Cg {
    /// Configure for a scale (Paper: N³ = 884736 ⇒ g = 96, 3 iterations).
    pub fn new(scale: Scale) -> Self {
        Cg {
            g: scale.pick(8, 24, 96),
            iters: 3,
            chunks: scale.pick(4, 16, 16),
            seed: 0xC6,
        }
    }

    fn n(&self) -> u64 {
        self.g * self.g * self.g
    }

    /// 7-point Poisson matrix: diagonal 6+1, −1 to each grid neighbour.
    fn matrix(&self) -> Csr {
        let g = self.g as usize;
        let n = g * g * g;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for z in 0..g {
            for y in 0..g {
                for x in 0..g {
                    let idx = |x: usize, y: usize, z: usize| (z * g + y) * g + x;
                    let mut push = |c: usize, v: f32| {
                        col_idx.push(c as u32);
                        vals.push(v);
                    };
                    // Ascending column order keeps SpMV accumulation
                    // deterministic and cache-friendly.
                    if z > 0 {
                        push(idx(x, y, z - 1), -1.0);
                    }
                    if y > 0 {
                        push(idx(x, y - 1, z), -1.0);
                    }
                    if x > 0 {
                        push(idx(x - 1, y, z), -1.0);
                    }
                    push(idx(x, y, z), 7.0);
                    if x + 1 < g {
                        push(idx(x + 1, y, z), -1.0);
                    }
                    if y + 1 < g {
                        push(idx(x, y + 1, z), -1.0);
                    }
                    if z + 1 < g {
                        push(idx(x, y, z + 1), -1.0);
                    }
                    row_ptr.push(col_idx.len() as u32);
                }
            }
        }
        Csr {
            row_ptr,
            col_idx,
            vals,
        }
    }

    fn rhs(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.n()).map(|_| rng.next_f32()).collect()
    }

    /// Host reference CG with identical chunking and fold order.
    /// Returns (x, r, rs_history).
    fn reference(&self) -> (Vec<f32>, Vec<f32>, Vec<f64>) {
        let csr = self.matrix();
        let n = self.n() as usize;
        let b = self.rhs();
        let mut x = vec![0f32; n];
        let mut r = b.clone();
        let mut p = b;
        let mut q = vec![0f32; n];
        let chunks = chunk_ranges(self.n(), self.chunks);

        let dot = |a: &[f32], bb: &[f32]| -> f64 {
            let mut total = 0f64;
            for &(c0, c1) in &chunks {
                let mut part = 0f64;
                for i in c0 as usize..c1 as usize {
                    part += (a[i] * bb[i]) as f64;
                }
                total += part;
            }
            total
        };

        let mut rs_old = dot(&r, &r);
        let mut history = vec![rs_old];
        for _ in 0..self.iters {
            #[allow(clippy::needless_range_loop)] // row indexes three CSR arrays
            for &(c0, c1) in &chunks {
                for row in c0 as usize..c1 as usize {
                    let mut acc = 0f32;
                    for e in csr.row_ptr[row] as usize..csr.row_ptr[row + 1] as usize {
                        acc += csr.vals[e] * p[csr.col_idx[e] as usize];
                    }
                    q[row] = acc;
                }
            }
            let pq = dot(&p, &q);
            let alpha = rs_old / pq;
            let mut rs_new = 0f64;
            for &(c0, c1) in &chunks {
                let mut part = 0f64;
                for i in c0 as usize..c1 as usize {
                    x[i] += alpha as f32 * p[i];
                    r[i] -= alpha as f32 * q[i];
                    part += (r[i] * r[i]) as f64;
                }
                rs_new += part;
            }
            let beta = rs_new / rs_old;
            for &(c0, c1) in &chunks {
                for i in c0 as usize..c1 as usize {
                    p[i] = r[i] + beta as f32 * p[i];
                }
            }
            rs_old = rs_new;
            history.push(rs_new);
        }
        (x, r, history)
    }
}

impl Workload for Cg {
    fn name(&self) -> &str {
        "CG"
    }

    fn problem(&self) -> String {
        format!("3D Matrix N3 = {}, {} iters.", self.n(), self.iters)
    }

    fn build(&self) -> Program {
        let n = self.n();
        let csr = self.matrix();
        let nnz = csr.vals.len() as u64;
        let mut b = ProgramBuilder::new();

        let row_ptr = b.alloc("row_ptr", (n + 1) * 4);
        let col_idx = b.alloc("col_idx", nnz * 4);
        let vals = b.alloc("vals", nnz * 4);
        let xv = b.alloc("x", n * 4);
        let rv = b.alloc("r", n * 4);
        let pv = b.alloc("p", n * 4);
        let qv = b.alloc("q", n * 4);
        // Partials: [chunks f64 dot parts][chunks f64 rr parts], one cache
        // line per partial to avoid false sharing between chunk tasks.
        let parts = b.alloc("partials", self.chunks * 64 * 2);
        // Scalars: rs_old, alpha, beta (f64 each).
        let scalars = b.alloc("scalars", 24);

        write_slice(b.mem(), row_ptr.start, &csr.row_ptr, u32::to_le_bytes);
        write_slice(b.mem(), col_idx.start, &csr.col_idx, u32::to_le_bytes);
        write_slice(b.mem(), vals.start, &csr.vals, f32::to_le_bytes);
        let rhs = self.rhs();
        write_slice(b.mem(), rv.start, &rhs, f32::to_le_bytes);
        write_slice(b.mem(), pv.start, &rhs, f32::to_le_bytes);
        let mut rs0 = 0f64;
        for &(c0, c1) in &chunk_ranges(n, self.chunks) {
            let mut part = 0f64;
            for i in c0..c1 {
                let v = rhs[i as usize];
                part += (v * v) as f64;
            }
            rs0 += part;
        }
        b.mem().write_f64(scalars.start, rs0);

        let chunks = chunk_ranges(n, self.chunks);
        let vec_chunk = move |base: VRange, c0: u64, c1: u64| {
            VRange::new(base.start.offset(c0 * 4), (c1 - c0) * 4)
        };
        let nchunks = self.chunks;
        let pq_part = move |c: u64| VRange::new(parts.start.offset(c * 64), 8);
        let rr_part = move |c: u64| VRange::new(parts.start.offset((nchunks + c) * 64), 8);

        for _it in 0..self.iters {
            // SpMV: q_chunk = A[rows] · p.
            for &(c0, c1) in &chunks {
                let rp = VRange::new(row_ptr.start.offset(c0 * 4), (c1 - c0 + 1) * 4);
                let e0 = csr.row_ptr[c0 as usize] as u64;
                let e1 = csr.row_ptr[c1 as usize] as u64;
                let ci = VRange::new(col_idx.start.offset(e0 * 4), (e1 - e0) * 4);
                let vl = VRange::new(vals.start.offset(e0 * 4), (e1 - e0) * 4);
                let deps = vec![
                    Dep::input(rp),
                    Dep::input(ci),
                    Dep::input(vl),
                    Dep::input(pv),
                    Dep::output(vec_chunk(qv, c0, c1)),
                ];
                b.task("cg_spmv", deps, move |ctx| {
                    for row in c0..c1 {
                        let s = ctx.read_u32(row_ptr.start.offset(row * 4)) as u64;
                        let e = ctx.read_u32(row_ptr.start.offset((row + 1) * 4)) as u64;
                        let mut acc = 0f32;
                        for k in s..e {
                            let col = ctx.read_u32(col_idx.start.offset(k * 4)) as u64;
                            let v = ctx.read_f32(vals.start.offset(k * 4));
                            acc += v * ctx.read_f32(pv.start.offset(col * 4));
                        }
                        ctx.write_f32(qv.start.offset(row * 4), acc);
                    }
                });
            }
            // Partial p·q dots.
            for (c, &(c0, c1)) in chunks.iter().enumerate() {
                let c = c as u64;
                let deps = vec![
                    Dep::input(vec_chunk(pv, c0, c1)),
                    Dep::input(vec_chunk(qv, c0, c1)),
                    Dep::output(pq_part(c)),
                ];
                b.task("cg_dot_pq", deps, move |ctx| {
                    let mut part = 0f64;
                    for i in c0..c1 {
                        part += (ctx.read_f32(pv.start.offset(i * 4))
                            * ctx.read_f32(qv.start.offset(i * 4)))
                            as f64;
                    }
                    ctx.write_f64(pq_part(c).start, part);
                });
            }
            // alpha = rs_old / Σ pq.
            {
                let all_pq = VRange::new(parts.start, nchunks * 64);
                b.task(
                    "cg_alpha",
                    vec![Dep::input(all_pq), Dep::inout(scalars)],
                    move |ctx| {
                        let mut pq = 0f64;
                        for c in 0..nchunks {
                            pq += ctx.read_f64(pq_part(c).start);
                        }
                        let rs_old = ctx.read_f64(scalars.start);
                        ctx.write_f64(scalars.start.offset(8), rs_old / pq);
                    },
                );
            }
            // Fused AXPY + residual partial dot.
            for (c, &(c0, c1)) in chunks.iter().enumerate() {
                let c = c as u64;
                let deps = vec![
                    Dep::input(scalars),
                    Dep::input(vec_chunk(pv, c0, c1)),
                    Dep::input(vec_chunk(qv, c0, c1)),
                    Dep::inout(vec_chunk(xv, c0, c1)),
                    Dep::inout(vec_chunk(rv, c0, c1)),
                    Dep::output(rr_part(c)),
                ];
                b.task("cg_axpy", deps, move |ctx| {
                    let alpha = ctx.read_f64(scalars.start.offset(8)) as f32;
                    let mut part = 0f64;
                    for i in c0..c1 {
                        let pi = ctx.read_f32(pv.start.offset(i * 4));
                        let qi = ctx.read_f32(qv.start.offset(i * 4));
                        let xi = ctx.read_f32(xv.start.offset(i * 4)) + alpha * pi;
                        let ri = ctx.read_f32(rv.start.offset(i * 4)) - alpha * qi;
                        ctx.write_f32(xv.start.offset(i * 4), xi);
                        ctx.write_f32(rv.start.offset(i * 4), ri);
                        part += (ri * ri) as f64;
                    }
                    ctx.write_f64(rr_part(c).start, part);
                });
            }
            // beta = rs_new / rs_old; rs_old = rs_new.
            {
                let all_rr = VRange::new(parts.start.offset(nchunks * 64), nchunks * 64);
                b.task(
                    "cg_beta",
                    vec![Dep::input(all_rr), Dep::inout(scalars)],
                    move |ctx| {
                        let mut rs_new = 0f64;
                        for c in 0..nchunks {
                            rs_new += ctx.read_f64(rr_part(c).start);
                        }
                        let rs_old = ctx.read_f64(scalars.start);
                        ctx.write_f64(scalars.start.offset(16), rs_new / rs_old);
                        ctx.write_f64(scalars.start, rs_new);
                    },
                );
            }
            // p = r + beta·p.
            for &(c0, c1) in &chunks {
                let deps = vec![
                    Dep::input(scalars),
                    Dep::input(vec_chunk(rv, c0, c1)),
                    Dep::inout(vec_chunk(pv, c0, c1)),
                ];
                b.task("cg_pupdate", deps, move |ctx| {
                    let beta = ctx.read_f64(scalars.start.offset(16)) as f32;
                    for i in c0..c1 {
                        let ri = ctx.read_f32(rv.start.offset(i * 4));
                        let pi = ctx.read_f32(pv.start.offset(i * 4));
                        ctx.write_f32(pv.start.offset(i * 4), ri + beta * pi);
                    }
                });
            }
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = reference::shared(self, Cg::reference);
        let (x, r, history) = &*expect;
        let x_base = mem.allocations()[3].1.start;
        let r_base = mem.allocations()[4].1.start;
        for i in 0..self.n() {
            let got = mem.read_f32(x_base.offset(i * 4));
            if got != x[i as usize] {
                return Err(format!("x[{i}]: got {got}, want {}", x[i as usize]));
            }
            let got_r = mem.read_f32(r_base.offset(i * 4));
            if got_r != r[i as usize] {
                return Err(format!("r[{i}]: got {got_r}, want {}", r[i as usize]));
            }
        }
        // CG on an SPD system must shrink the residual.
        if history.last().unwrap() >= history.first().unwrap() {
            return Err("residual did not decrease".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let w = Cg::new(Scale::Test);
        let csr = w.matrix();
        let n = w.n() as usize;
        // Build a dense map and check A[i][j] == A[j][i].
        let mut entries = std::collections::HashMap::new();
        for i in 0..n {
            for e in csr.row_ptr[i] as usize..csr.row_ptr[i + 1] as usize {
                entries.insert((i, csr.col_idx[e] as usize), csr.vals[e]);
            }
        }
        for (&(i, j), &v) in &entries {
            assert_eq!(entries.get(&(j, i)), Some(&v), "asymmetric at ({i},{j})");
        }
    }

    #[test]
    fn matrix_is_diagonally_dominant() {
        let w = Cg::new(Scale::Test);
        let csr = w.matrix();
        for i in 0..w.n() as usize {
            let mut diag = 0f32;
            let mut off = 0f32;
            for e in csr.row_ptr[i] as usize..csr.row_ptr[i + 1] as usize {
                if csr.col_idx[e] as usize == i {
                    diag = csr.vals[e];
                } else {
                    off += csr.vals[e].abs();
                }
            }
            assert!(diag > off, "row {i} not dominant");
        }
    }

    #[test]
    fn residual_decreases_monotonically() {
        let w = Cg::new(Scale::Test);
        let (_, _, history) = w.reference();
        for w2 in history.windows(2) {
            assert!(w2[1] < w2[0], "residual grew: {} → {}", w2[0], w2[1]);
        }
    }

    #[test]
    fn functional_run_matches_reference_bitwise() {
        let w = Cg::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("bitwise CG");
    }

    #[test]
    fn task_count_per_iteration() {
        let w = Cg::new(Scale::Test);
        let p = w.build();
        // Per iteration: chunks spmv + chunks dot + 1 + chunks axpy + 1 +
        // chunks pupdate.
        let per_iter = 4 * w.chunks + 2;
        assert_eq!(p.graph.len() as u64, w.iters * per_iter);
    }
}
