#![warn(missing_docs)]

//! The benchmarks of the paper's Table II, as task-parallel programs.
//!
//! Every benchmark *really computes* on the simulated byte store and is
//! verified against a host-side reference implementation, so the memory
//! traces the timing model sees are the true access patterns of the
//! algorithms:
//!
//! | Module      | Paper benchmark | Pattern |
//! |-------------|-----------------|---------|
//! | [`cg`]      | CG              | sparse SpMV + dot-product reductions |
//! | [`gauss`]   | Gauss           | in-place Gauss–Seidel, pipelined row blocks |
//! | [`histo`]   | Histo           | per-chunk partial histograms + tree reduction + prefix scan |
//! | [`jacobi`]  | Jacobi          | 5-point stencil over two alternating grids |
//! | [`jpeg`]    | JPEG            | IDCT-based MCU decoding, **no task annotations** (worst case for RaCCD, §II-D) |
//! | [`kmeans`]  | Kmeans          | assignment chunks + centroid reduction per iteration |
//! | [`knn`]     | KNN             | shared read-only training set, per-chunk classification |
//! | [`md5`]     | MD5             | streaming hash of independent buffers (RFC 1321) |
//! | [`redblack`]| RedBlack        | red/black phases over one grid |
//! | [`cholesky`]| Figure 1        | tiled right-looking Cholesky (potrf/trsm/syrk/gemm) |
//!
//! Problem sizes come in three [`Scale`]s; `Paper` matches Table II,
//! `Bench` is the proportionally scaled default (DESIGN.md §2), `Test` is
//! tiny for unit tests.
//!
//! The nine Table II benchmarks compute each input's host reference once
//! per process and share it between every run verified against it
//! (`reference.rs`); Cholesky checks its residual on the simulated output.

pub mod cg;
pub mod cholesky;
pub mod gauss;
pub mod histo;
pub mod jacobi;
pub mod jpeg;
pub mod kmeans;
pub mod knn;
pub mod md5;
pub mod redblack;
mod reference;
pub mod scale;
pub mod util;

pub use raccd_runtime::Workload;
pub use scale::Scale;

/// All nine Table II benchmarks at a given scale, in the paper's order.
pub fn all_benchmarks(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(cg::Cg::new(scale)),
        Box::new(gauss::Gauss::new(scale)),
        Box::new(histo::Histo::new(scale)),
        Box::new(jacobi::Jacobi::new(scale)),
        Box::new(jpeg::Jpeg::new(scale)),
        Box::new(kmeans::Kmeans::new(scale)),
        Box::new(knn::Knn::new(scale)),
        Box::new(md5::Md5Bench::new(scale)),
        Box::new(redblack::RedBlack::new(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_present_in_paper_order() {
        let names: Vec<String> = all_benchmarks(Scale::Test)
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(
            names,
            ["CG", "Gauss", "Histo", "Jacobi", "JPEG", "Kmeans", "KNN", "MD5", "RedBlack"]
        );
    }

    #[test]
    fn every_benchmark_runs_functionally_and_verifies() {
        for w in all_benchmarks(Scale::Test) {
            let mut p = w.build();
            assert!(p.graph.len() > 1, "{} should be multi-task", w.name());
            p.run_functional();
            if let Err(e) = w.verify(&p.mem) {
                panic!("{} failed verification: {e}", w.name());
            }
        }
    }
}
