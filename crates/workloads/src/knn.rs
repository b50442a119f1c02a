//! **KNN** — "implements the K-nearest neighbours algorithm" (Table II:
//! 16384 training points, 8192 points to classify, 4 dims, 4 classes).
//!
//! The training set is *shared read-only* data: every chunk task reads all
//! of it. PT classifies those pages shared (coherent) after the second
//! core touches them; RaCCD registers them as task inputs and keeps them
//! non-coherent — one of the structural differences Figure 2 measures.

use crate::reference;
use crate::scale::Scale;
use crate::util::write_slice;
use raccd_mem::addr::VRange;
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// The k-nearest-neighbours benchmark.
#[derive(Debug)]
pub struct Knn {
    /// Training points.
    pub train: u64,
    /// Query points to classify.
    pub queries: u64,
    /// Dimensions.
    pub dims: u64,
    /// Classes.
    pub classes: u64,
    /// Neighbours considered.
    pub k: u64,
    /// Chunk tasks.
    pub chunks: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl Knn {
    /// Configure for a scale (Paper: 16384 train, 8192 classify, 4 dims,
    /// 4 classes).
    pub fn new(scale: Scale) -> Self {
        Knn {
            train: scale.pick(256, 2048, 16384),
            queries: scale.pick(128, 1024, 8192),
            dims: 4,
            classes: 4,
            k: 4,
            chunks: scale.pick(4, 16, 32),
            seed: 0x4A11,
        }
    }

    fn train_data(&self) -> (Vec<f32>, Vec<u8>) {
        let mut rng = SplitMix64::new(self.seed);
        let pts: Vec<f32> = (0..self.train * self.dims)
            .map(|_| rng.next_f32())
            .collect();
        // Labels correlate with the first coordinate so classification is
        // non-trivial but learnable.
        let labels: Vec<u8> = (0..self.train as usize)
            .map(|i| {
                let x = pts[i * self.dims as usize];
                ((x * self.classes as f32) as u64).min(self.classes - 1) as u8
            })
            .collect();
        (pts, labels)
    }

    fn query_data(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(self.seed ^ 0xFFFF);
        (0..self.queries * self.dims)
            .map(|_| rng.next_f32())
            .collect()
    }

    fn classifier(&self) -> Classifier {
        Classifier {
            dims: self.dims as usize,
            k: self.k as usize,
            best: Vec::with_capacity(self.k as usize + 1),
            votes: vec![0; self.classes as usize],
        }
    }

    fn reference(&self) -> Vec<u8> {
        let (train, labels) = self.train_data();
        let queries = self.query_data();
        let mut knn = self.classifier();
        let per_query = queries.chunks_exact(self.dims as usize);
        per_query
            .map(|q| knn.classify(q, &train, &labels))
            .collect()
    }
}

impl Workload for Knn {
    fn name(&self) -> &str {
        "KNN"
    }

    fn problem(&self) -> String {
        format!(
            "{} training pts, {} pts to classify, {} dims, {} classes",
            self.train, self.queries, self.dims, self.classes
        )
    }

    fn build(&self) -> Program {
        let d = self.dims;
        let mut b = ProgramBuilder::new();
        let train = b.alloc("train", self.train * d * 4);
        let labels = b.alloc("labels", self.train);
        let queries = b.alloc("queries", self.queries * d * 4);
        // Output labels as u32 with one cache-line-aligned stripe per chunk
        // task, so independent tasks never false-share a block.
        let chunk_list = crate::util::chunk_ranges(self.queries, self.chunks);
        let max_chunk = chunk_list.iter().map(|&(a, z)| z - a).max().unwrap();
        let out_stride = (max_chunk * 4).next_multiple_of(64);
        let out = b.alloc("out", self.chunks * out_stride);

        let (tdata, tlabels) = self.train_data();
        write_slice(b.mem(), train.start, &tdata, f32::to_le_bytes);
        b.mem().write_bytes(labels.start, &tlabels);
        write_slice(b.mem(), queries.start, &self.query_data(), f32::to_le_bytes);

        let (ntrain, dims) = (self.train, self.dims);
        for (c, &(q0, q1)) in chunk_list.iter().enumerate() {
            let mut knn = self.classifier();
            let qchunk = VRange::new(queries.start.offset(q0 * d * 4), (q1 - q0) * d * 4);
            let ochunk = VRange::new(out.start.offset(c as u64 * out_stride), (q1 - q0) * 4);
            b.task(
                "knn",
                vec![
                    Dep::input(train),
                    Dep::input(labels),
                    Dep::input(qchunk),
                    Dep::output(ochunk),
                ],
                move |ctx| {
                    // Stream the training set through the context once per
                    // chunk (the cache hierarchy does the reuse).
                    let mut tdata = vec![0f32; (ntrain * dims) as usize];
                    for i in 0..tdata.len() as u64 {
                        tdata[i as usize] = ctx.read_f32(train.start.offset(i * 4));
                    }
                    let mut tlabels = vec![0u8; ntrain as usize];
                    for i in 0..ntrain {
                        tlabels[i as usize] = ctx.read_u8(labels.start.offset(i));
                    }
                    let mut qv = vec![0f32; dims as usize];
                    for q in q0..q1 {
                        for j in 0..dims {
                            qv[j as usize] = ctx.read_f32(queries.start.offset((q * dims + j) * 4));
                        }
                        let label = knn.classify(&qv, &tdata, &tlabels);
                        ctx.write_u32(ochunk.start.offset((q - q0) * 4), label as u32);
                    }
                },
            );
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = reference::shared(self, Knn::reference);
        let base = mem.allocations()[3].1.start;
        let chunk_list = crate::util::chunk_ranges(self.queries, self.chunks);
        let max_chunk = chunk_list.iter().map(|&(a, z)| z - a).max().unwrap();
        let out_stride = (max_chunk * 4).next_multiple_of(64);
        for (c, &(q0, q1)) in chunk_list.iter().enumerate() {
            for q in q0..q1 {
                let got = mem.read_u32(base.offset(c as u64 * out_stride + (q - q0) * 4));
                let want = expect[q as usize] as u32;
                if got != want {
                    return Err(format!("query {q}: got class {got}, want {want}"));
                }
            }
        }
        Ok(())
    }
}

/// Exact k-NN over one query at a time; task bodies and the reference
/// share it, and its neighbour list and vote counts are allocated once.
struct Classifier {
    dims: usize,
    k: usize,
    best: Vec<(f32, usize)>,
    votes: Vec<u32>,
}

impl Classifier {
    fn classify(&mut self, q: &[f32], train: &[f32], labels: &[u8]) -> u8 {
        // Selection: the k smallest distances in order, ties broken by
        // lower index. Points come in index order, so once the list is
        // full a point no closer than its last entry can never enter.
        self.best.clear();
        for (t, point) in train.chunks_exact(self.dims).enumerate() {
            let mut dist = 0f32;
            for (a, b) in q.iter().zip(point) {
                let diff = a - b;
                dist += diff * diff;
            }
            let full = self.best.len() == self.k;
            if full && self.best.last().is_some_and(|&(bd, _)| dist >= bd) {
                continue;
            }
            let closer = self.best.iter().position(|&(bd, _)| dist < bd);
            let at = closer.unwrap_or(self.best.len());
            self.best.insert(at, (dist, t));
            self.best.truncate(self.k);
        }
        // Majority vote, ties → lowest class id.
        self.votes.fill(0);
        for &(_, t) in &self.best {
            self.votes[labels[t] as usize] += 1;
        }
        let mut win = 0usize;
        for c in 1..self.votes.len() {
            if self.votes[c] > self.votes[win] {
                win = c;
            }
        }
        win as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_run_matches_reference() {
        let w = Knn::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("labels match");
    }

    #[test]
    fn classification_is_sane() {
        // A query identical to a training point must get that point's
        // label when k = 1.
        let w = Knn {
            train: 64,
            queries: 1,
            dims: 4,
            classes: 4,
            k: 1,
            chunks: 1,
            seed: 0x4A11,
        };
        let (train, labels) = w.train_data();
        let q: Vec<f32> = train[0..4].to_vec();
        assert_eq!(w.classifier().classify(&q, &train, &labels), labels[0]);
    }

    #[test]
    fn all_chunk_tasks_independent() {
        let w = Knn::new(Scale::Test);
        let p = w.build();
        assert_eq!(p.graph.len() as u64, w.chunks);
        assert_eq!(p.graph.initially_ready().len() as u64, w.chunks);
        assert_eq!(p.graph.edges(), 0);
    }

    #[test]
    fn labels_span_multiple_classes() {
        let w = Knn::new(Scale::Test);
        let got = w.reference();
        let distinct: std::collections::HashSet<u8> = got.into_iter().collect();
        assert!(distinct.len() >= 2, "classifier should not be constant");
    }
}
