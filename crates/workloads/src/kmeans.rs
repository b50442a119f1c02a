//! **Kmeans** — "implements the Kmeans clustering algorithm" (Table II:
//! 150000 points, 30 dims, 6 clusters, 3 iterations).
//!
//! Per iteration: chunk tasks assign points to the nearest centroid and
//! accumulate per-chunk sums/counts; one update task folds the partial
//! sums (in chunk order, so the result is bit-deterministic) into new
//! centroids. The centroids are re-read by every chunk task each iteration
//! and the chunk→core mapping changes under the dynamic scheduler — and
//! the end-of-task flush of RaCCD hurts the L1 reuse of exactly this data,
//! which is why Kmeans is the paper's one benchmark where RaCCD 1:1 loses
//! a few percent (§V-A1).

use crate::reference;
use crate::scale::Scale;
use crate::util::write_slice;
use raccd_mem::addr::VRange;
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The K-means benchmark.
#[derive(Debug)]
pub struct Kmeans {
    /// Number of points.
    pub n: u64,
    /// Dimensions per point.
    pub dims: u64,
    /// Clusters.
    pub k: u64,
    /// Lloyd iterations.
    pub iters: u64,
    /// Assignment chunk tasks per iteration.
    pub chunks: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl Kmeans {
    /// Configure for a scale (Paper: 150000 pts, 30 dims, 6 clusters, 3 it).
    pub fn new(scale: Scale) -> Self {
        Kmeans {
            n: scale.pick(512, 24576, 150_000),
            dims: scale.pick(4, 8, 30),
            k: 6,
            iters: 3,
            chunks: scale.pick(4, 16, 16),
            seed: 0x4EA6,
        }
    }

    fn points(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.n * self.dims).map(|_| rng.next_f32()).collect()
    }

    fn initial_centroids(&self, pts: &[f32]) -> Vec<f32> {
        // First k points, the classic deterministic seeding.
        pts[..(self.k * self.dims) as usize].to_vec()
    }

    /// Host reference with identical chunking and fold order.
    fn reference(&self) -> (Vec<f32>, Vec<u32>) {
        let d = self.dims as usize;
        let k = self.k as usize;
        let pts = self.points();
        let mut cents = self.initial_centroids(&pts);
        let mut assign = vec![0u32; self.n as usize];
        for _ in 0..self.iters {
            // Per-chunk partials, folded in chunk order.
            let mut sums = vec![0f32; k * d];
            let mut counts = vec![0u32; k];
            for (p0, p1) in crate::util::chunk_ranges(self.n, self.chunks) {
                let mut csums = vec![0f32; k * d];
                let mut ccounts = vec![0u32; k];
                for p in p0..p1 {
                    let p = p as usize;
                    let best = nearest(&pts[p * d..(p + 1) * d], &cents, k, d);
                    assign[p] = best as u32;
                    for j in 0..d {
                        csums[best * d + j] += pts[p * d + j];
                    }
                    ccounts[best] += 1;
                }
                for i in 0..k * d {
                    sums[i] += csums[i];
                }
                for i in 0..k {
                    counts[i] += ccounts[i];
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for j in 0..d {
                        cents[c * d + j] = sums[c * d + j] / counts[c] as f32;
                    }
                }
            }
        }
        (cents, assign)
    }
}

/// Index of the nearest centroid (ties → lowest index).
fn nearest(p: &[f32], cents: &[f32], k: usize, d: usize) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for c in 0..k {
        let mut dist = 0f32;
        for j in 0..d {
            let t = p[j] - cents[c * d + j];
            dist += t * t;
        }
        if dist < best_d {
            best_d = dist;
            best = c;
        }
    }
    best
}

impl Workload for Kmeans {
    fn name(&self) -> &str {
        "Kmeans"
    }

    fn problem(&self) -> String {
        format!(
            "{} pts., {} dims, {} clusters, {} iters.",
            self.n, self.dims, self.k, self.iters
        )
    }

    fn build(&self) -> Program {
        let (n, d, k) = (self.n, self.dims, self.k);
        let mut b = ProgramBuilder::new();
        let pts = b.alloc("points", n * d * 4);
        let cents = b.alloc("centroids", k * d * 4);
        let assign = b.alloc("assign", n * 4);
        // Per-chunk partial buffers: [k*d f32 sums][k u32 counts] each,
        // padded to a cache-line multiple to avoid false sharing between
        // independent chunk tasks.
        let part_bytes = (k * d + k) * 4;
        let part_stride = part_bytes.next_multiple_of(64);
        let partials = b.alloc("partials", self.chunks * part_stride);

        let host_pts = self.points();
        write_slice(b.mem(), pts.start, &host_pts, f32::to_le_bytes);
        let host_cents = self.initial_centroids(&host_pts);
        write_slice(b.mem(), cents.start, &host_cents, f32::to_le_bytes);

        let part_range =
            move |c: u64| VRange::new(partials.start.offset(c * part_stride), part_bytes);
        let pt_addr = move |p: u64, j: u64| pts.start.offset((p * d + j) * 4);
        let cent_addr = move |c: u64, j: u64| cents.start.offset((c * d + j) * 4);

        for _it in 0..self.iters {
            let chunk_list = crate::util::chunk_ranges(n, self.chunks);
            // Assignment tasks.
            for (c, &(p0, p1)) in chunk_list.iter().enumerate() {
                let c = c as u64;
                let chunk_pts = VRange::new(pts.start.offset(p0 * d * 4), (p1 - p0) * d * 4);
                let chunk_assign = VRange::new(assign.start.offset(p0 * 4), (p1 - p0) * 4);
                let part = part_range(c);
                b.task(
                    "kmeans_assign",
                    vec![
                        Dep::input(chunk_pts),
                        Dep::input(cents),
                        Dep::output(chunk_assign),
                        Dep::output(part),
                    ],
                    move |ctx| {
                        let kd = (k * d) as usize;
                        let mut sums = vec![0f32; kd];
                        let mut counts = vec![0u32; k as usize];
                        // Read the centroids once into registers/locals.
                        let mut cvals = vec![0f32; kd];
                        for c in 0..k {
                            for j in 0..d {
                                cvals[(c * d + j) as usize] = ctx.read_f32(cent_addr(c, j));
                            }
                        }
                        for p in p0..p1 {
                            let mut pv = vec![0f32; d as usize];
                            for j in 0..d {
                                pv[j as usize] = ctx.read_f32(pt_addr(p, j));
                            }
                            let best = nearest(&pv, &cvals, k as usize, d as usize);
                            ctx.write_u32(assign.start.offset(p * 4), best as u32);
                            for j in 0..d as usize {
                                sums[best * d as usize + j] += pv[j];
                            }
                            counts[best] += 1;
                        }
                        for (i, v) in sums.iter().enumerate() {
                            ctx.write_f32(part.start.offset(i as u64 * 4), *v);
                        }
                        for (i, v) in counts.iter().enumerate() {
                            ctx.write_u32(part.start.offset((kd + i) as u64 * 4), *v);
                        }
                    },
                );
            }
            // Update task: fold partials in chunk order.
            let mut deps: Vec<Dep> = (0..self.chunks)
                .map(|c| Dep::input(part_range(c)))
                .collect();
            deps.push(Dep::inout(cents));
            let chunks = self.chunks;
            b.task("kmeans_update", deps, move |ctx| {
                let kd = (k * d) as usize;
                let mut sums = vec![0f32; kd];
                let mut counts = vec![0u32; k as usize];
                for c in 0..chunks {
                    let part = part_range(c);
                    for (i, s) in sums.iter_mut().enumerate() {
                        *s += ctx.read_f32(part.start.offset(i as u64 * 4));
                    }
                    for (i, n) in counts.iter_mut().enumerate() {
                        *n += ctx.read_u32(part.start.offset((kd + i) as u64 * 4));
                    }
                }
                for c in 0..k {
                    if counts[c as usize] > 0 {
                        for j in 0..d {
                            ctx.write_f32(
                                cent_addr(c, j),
                                sums[(c * d + j) as usize] / counts[c as usize] as f32,
                            );
                        }
                    }
                }
            });
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = reference::shared(self, Kmeans::reference);
        let (cents, assign) = &*expect;
        let cent_base = mem.allocations()[1].1.start;
        for (i, &want) in cents.iter().enumerate() {
            let got = mem.read_f32(cent_base.offset(i as u64 * 4));
            if got != want {
                return Err(format!("centroid[{i}]: got {got}, want {want}"));
            }
        }
        let assign_base = mem.allocations()[2].1.start;
        for (i, &want) in assign.iter().enumerate() {
            let got = mem.read_u32(assign_base.offset(i as u64 * 4));
            if got != want {
                return Err(format!("assign[{i}]: got {got}, want {want}"));
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
        let w = Kmeans::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("bitwise match");
    }

    #[test]
    fn nearest_breaks_ties_low() {
        let cents = [0.0, 0.0, 0.0, 0.0]; // two identical 2-D centroids
        assert_eq!(nearest(&[1.0, 1.0], &cents, 2, 2), 0);
    }

    #[test]
    fn update_fits_ncrt() {
        // chunks + 1 dependences on the update task must fit the 32-entry
        // NCRT of Table I.
        let w = Kmeans::new(Scale::Bench);
        assert!(w.chunks < 32);
    }

    #[test]
    fn task_count() {
        let w = Kmeans::new(Scale::Test);
        let p = w.build();
        assert_eq!(p.graph.len() as u64, w.iters * (w.chunks + 1));
    }

    #[test]
    fn every_point_assigned_a_valid_cluster() {
        let w = Kmeans::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        let assign_base = p.mem.allocations()[2].1.start;
        for i in 0..w.n {
            let a = p.mem.read_u32(assign_base.offset(i * 4));
            assert!((a as u64) < w.k);
        }
    }
}
