//! **Cholesky** — the paper's motivating example (Figure 1): a tiled
//! right-looking Cholesky factorisation expressed as `potrf` / `trsm` /
//! `syrk` / `gemm` tasks with `in`/`inout` dependences.
//!
//! The matrix is stored as a grid of `t × t` tiles (row-major within each
//! tile), so every task dependence is a small set of contiguous ranges —
//! exactly the array sections of the OpenMP code in Figure 1.

use crate::scale::Scale;
use crate::util::write_slice;
use raccd_mem::addr::VRange;
use raccd_mem::{SimMemory, SplitMix64, VAddr};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The tiled Cholesky workload.
pub struct Cholesky {
    /// Tiles per side.
    pub tiles: u64,
    /// Tile edge (elements).
    pub t: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl Cholesky {
    /// Configure for a scale.
    pub fn new(scale: Scale) -> Self {
        Cholesky {
            tiles: scale.pick(3, 6, 12),
            t: scale.pick(16, 32, 64),
            seed: 0xC401,
        }
    }

    /// Matrix size in elements per side.
    pub fn n(&self) -> u64 {
        self.tiles * self.t
    }

    /// A deterministic symmetric positive-definite matrix:
    /// `A = M·Mᵀ + n·I` with random `M`.
    fn spd_matrix(&self) -> Vec<f64> {
        let n = self.n() as usize;
        let mut rng = SplitMix64::new(self.seed);
        let m: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut a = vec![0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0f64;
                for k in 0..n {
                    s += m[i * n + k] * m[j * n + k];
                }
                a[i * n + j] = s;
                a[j * n + i] = s;
            }
            a[i * n + i] += n as f64;
        }
        a
    }
}

/// Tile-level kernels, shared by task bodies (through `TileIo`) and tests.
mod kernels {
    /// `potrf`: in-place Cholesky of a tile (lower triangle).
    pub fn potrf(a: &mut [f64], t: usize) {
        for j in 0..t {
            let mut d = a[j * t + j];
            for k in 0..j {
                d -= a[j * t + k] * a[j * t + k];
            }
            let d = d.sqrt();
            a[j * t + j] = d;
            for i in j + 1..t {
                let mut s = a[i * t + j];
                for k in 0..j {
                    s -= a[i * t + k] * a[j * t + k];
                }
                a[i * t + j] = s / d;
            }
            // Zero the strictly-upper part for a clean L.
            for i in 0..j {
                a[i * t + j] = 0.0;
            }
        }
    }

    /// `trsm`: B ← B · L⁻ᵀ for diagonal tile L.
    pub fn trsm(l: &[f64], b: &mut [f64], t: usize) {
        for i in 0..t {
            for j in 0..t {
                let mut s = b[i * t + j];
                for k in 0..j {
                    s -= b[i * t + k] * l[j * t + k];
                }
                b[i * t + j] = s / l[j * t + j];
            }
        }
    }

    /// `syrk`: C ← C − A·Aᵀ (lower triangle updated fully for simplicity).
    pub fn syrk(a: &[f64], c: &mut [f64], t: usize) {
        for i in 0..t {
            for j in 0..t {
                let mut s = 0f64;
                for k in 0..t {
                    s += a[i * t + k] * a[j * t + k];
                }
                c[i * t + j] -= s;
            }
        }
    }

    /// `gemm`: C ← C − A·Bᵀ.
    pub fn gemm(a: &[f64], b: &[f64], c: &mut [f64], t: usize) {
        for i in 0..t {
            for j in 0..t {
                let mut s = 0f64;
                for k in 0..t {
                    s += a[i * t + k] * b[j * t + k];
                }
                c[i * t + j] -= s;
            }
        }
    }
}

impl Workload for Cholesky {
    fn name(&self) -> &str {
        "Cholesky"
    }

    fn problem(&self) -> String {
        format!(
            "{}x{} matrix in {}x{} tiles of {}",
            self.n(),
            self.n(),
            self.tiles,
            self.tiles,
            self.t
        )
    }

    fn build(&self) -> Program {
        let t = self.t;
        let tiles = self.tiles;
        let tile_elems = t * t;
        let tile_bytes = tile_elems * 8;
        let mut b = ProgramBuilder::new();
        let mat = b.alloc("A_tiles", tiles * tiles * tile_bytes);

        let tile_range = move |i: u64, j: u64| {
            VRange::new(mat.start.offset((i * tiles + j) * tile_bytes), tile_bytes)
        };

        // Scatter the SPD matrix into tile-major layout.
        let a = self.spd_matrix();
        let n = self.n();
        for (i, row) in (0..).zip(a.chunks_exact(n as usize)) {
            for (tj, seg) in row.chunks_exact(t as usize).enumerate() {
                let at = tile_range(i / t, tj as u64).start.offset((i % t) * t * 8);
                write_slice(b.mem(), at, seg, f64::to_le_bytes);
            }
        }

        let ts = t as usize;
        let read_tile = move |ctx: &mut raccd_runtime::TaskCtx<'_>, r: VRange| -> Vec<f64> {
            (0..ts * ts)
                .map(|e| ctx.read_f64(r.start.offset(e as u64 * 8)))
                .collect()
        };
        let write_tile = move |ctx: &mut raccd_runtime::TaskCtx<'_>, r: VRange, v: &[f64]| {
            for (e, &x) in v.iter().enumerate() {
                ctx.write_f64(r.start.offset(e as u64 * 8), x);
            }
        };

        // Right-looking tiled Cholesky — the task graph of Figure 1.
        for k in 0..tiles {
            let akk = tile_range(k, k);
            b.task("potrf", vec![Dep::inout(akk)], move |ctx| {
                let mut tile = read_tile(ctx, akk);
                kernels::potrf(&mut tile, ts);
                write_tile(ctx, akk, &tile);
            });
            for i in k + 1..tiles {
                let aik = tile_range(i, k);
                b.task("trsm", vec![Dep::input(akk), Dep::inout(aik)], move |ctx| {
                    let l = read_tile(ctx, akk);
                    let mut tile = read_tile(ctx, aik);
                    kernels::trsm(&l, &mut tile, ts);
                    write_tile(ctx, aik, &tile);
                });
            }
            for i in k + 1..tiles {
                let aik = tile_range(i, k);
                let aii = tile_range(i, i);
                b.task("syrk", vec![Dep::input(aik), Dep::inout(aii)], move |ctx| {
                    let a = read_tile(ctx, aik);
                    let mut c = read_tile(ctx, aii);
                    kernels::syrk(&a, &mut c, ts);
                    write_tile(ctx, aii, &c);
                });
                for j in k + 1..i {
                    let ajk = tile_range(j, k);
                    let aij = tile_range(i, j);
                    b.task(
                        "gemm",
                        vec![Dep::input(aik), Dep::input(ajk), Dep::inout(aij)],
                        move |ctx| {
                            let a = read_tile(ctx, aik);
                            let bb = read_tile(ctx, ajk);
                            let mut c = read_tile(ctx, aij);
                            kernels::gemm(&a, &bb, &mut c, ts);
                            write_tile(ctx, aij, &c);
                        },
                    );
                }
            }
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        // Reconstruct L from the lower tiles and check ‖L·Lᵀ − A‖ ≈ 0.
        let n = self.n();
        let t = self.t;
        let tiles = self.tiles;
        let tile_bytes = t * t * 8;
        let base = mem.allocations()[0].1.start;
        let read = |i: u64, j: u64| -> f64 {
            let (ti, tj) = (i / t, j / t);
            let addr: VAddr =
                base.offset((ti * tiles + tj) * tile_bytes + ((i % t) * t + (j % t)) * 8);
            mem.read_f64(addr)
        };
        let a = self.spd_matrix();
        let mut max_rel = 0f64;
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0f64;
                for k in 0..=j {
                    s += read(i, k) * read(j, k);
                }
                let want = a[(i * n + j) as usize];
                let rel = (s - want).abs() / want.abs().max(1.0);
                max_rel = max_rel.max(rel);
            }
        }
        if max_rel < 1e-8 {
            Ok(())
        } else {
            Err(format!("‖L·Lᵀ − A‖ rel error {max_rel:e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::kernels::*;
    use super::*;

    #[test]
    fn potrf_factors_small_spd() {
        // A = [[4,2],[2,3]] → L = [[2,0],[1,√2]].
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        potrf(&mut a, 2);
        assert!((a[0] - 2.0).abs() < 1e-12);
        assert!((a[1]).abs() < 1e-12, "upper zeroed");
        assert!((a[2] - 1.0).abs() < 1e-12);
        assert!((a[3] - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn trsm_inverts_potrf_step() {
        // For B = A (2×2), after potrf(L) and trsm, B·? — check identity:
        // trsm solves B := B·L⁻ᵀ, so (B·L⁻ᵀ)·Lᵀ = B.
        let mut l = vec![4.0, 0.0, 2.0, 3.0];
        potrf(&mut l, 2);
        let orig = vec![1.0, 2.0, 3.0, 4.0];
        let mut b = orig.clone();
        trsm(&l, &mut b, 2);
        // Multiply back: b · Lᵀ.
        let mut back = [0.0; 4];
        for i in 0..2 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..2 {
                    // (Lᵀ)[k][j] = L[j][k]
                    s += b[i * 2 + k] * l[j * 2 + k];
                }
                back[i * 2 + j] = s;
            }
        }
        for (g, w) in back.iter().zip(&orig) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn functional_factorisation_verifies() {
        let w = Cholesky::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("L·Lᵀ = A");
    }

    #[test]
    fn task_graph_matches_figure1_shape() {
        let w = Cholesky::new(Scale::Test);
        let p = w.build();
        let nt = w.tiles;
        // potrf: nt, trsm: nt(nt-1)/2, syrk: nt(nt-1)/2,
        // gemm: Σ_k Σ_{i>k} (i-k-1) = nt(nt-1)(nt-2)/6.
        let expect = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(p.graph.len() as u64, expect);
        // Only the first potrf is initially ready.
        assert_eq!(p.graph.initially_ready(), vec![0]);
    }
}
