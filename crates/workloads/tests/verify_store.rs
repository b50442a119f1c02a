//! `verify` reads each input's host reference from a store shared by the
//! whole process. These tests pin that the store cannot hide a wrong
//! answer: a second `verify` of a corrupted run fails with the same text
//! a freshly computed reference gives, and inputs that differ in any
//! field, the seed included, never share a reference.

use raccd_runtime::Workload;
use raccd_workloads::*;

/// The nine benchmarks at test scale, in paper order, with `delta` added
/// to each one's input seed.
fn reseeded(delta: u64) -> Vec<Box<dyn Workload>> {
    macro_rules! nine {
        ($($m:ident::$ty:ident),*) => {
            vec![$({
                let base = $m::$ty::new(Scale::Test);
                Box::new($m::$ty { seed: base.seed + delta, ..base }) as Box<dyn Workload>
            }),*]
        };
    }
    nine!(
        cg::Cg,
        gauss::Gauss,
        histo::Histo,
        jacobi::Jacobi,
        jpeg::Jpeg,
        kmeans::Kmeans,
        knn::Knn,
        md5::Md5Bench,
        redblack::RedBlack
    )
}

/// Byte offset of element (2,3) of a test-scale 48×48 `f32` grid.
const GRID_2_3: u64 = (2 * 48 + 3) * 4;

/// Per benchmark, in paper order: the output allocation, the byte in it
/// whose lowest bit is flipped, and the error `verify` must then return.
const FLIPS: [(usize, u64, &str); 9] = [
    (3, 5 * 4, "x[5]: got 0.15003923, want 0.15003924"),
    (0, GRID_2_3, "(2,3): got 0.44771978, want 0.44771975"),
    (3, 7 * 4, "bin 7: got 2701, want 2700"),
    (0, GRID_2_3, "(2,3): got 0.30821165, want 0.30821162"),
    (1, 3 * 768 + 5, "MCU 3: pixel mismatch"),
    (1, 2 * 4, "centroid[2]: got 0.7165622, want 0.71656215"),
    (3, 4, "query 1: got class 0, want 1"),
    (1, 2 * 64, "buffer 2: digest mismatch"),
    (0, GRID_2_3, "(2,3): got 0.58433783, want 0.5843379"),
];

#[test]
fn a_corrupted_output_fails_against_the_stored_reference() {
    let mut errors = Vec::new();
    for (w, (alloc, offset, _)) in all_benchmarks(Scale::Test).iter().zip(FLIPS) {
        let mut p = w.build();
        p.run_functional();
        assert_eq!(w.verify(&p.mem), Ok(()), "{}", w.name());
        let at = p.mem.allocations()[alloc].1.start.offset(offset);
        let byte = p.mem.bytes(at, 1)[0];
        p.mem.write_bytes(at, &[byte ^ 1]);
        errors.push(w.verify(&p.mem).err().unwrap_or_default());
    }
    let want: Vec<&str> = FLIPS.iter().map(|&(_, _, e)| e).collect();
    assert_eq!(errors, want);
}

#[test]
fn inputs_differing_only_in_seed_keep_their_own_references() {
    let (ones, twos) = (reseeded(1), reseeded(2));
    for (one, two) in ones.iter().zip(&twos) {
        let name = one.name();
        let (mut p1, mut p2) = (one.build(), two.build());
        p1.run_functional();
        p2.run_functional();
        assert_eq!(one.verify(&p1.mem), Ok(()), "{name} seed+1");
        assert_eq!(two.verify(&p2.mem), Ok(()), "{name} seed+2");
        assert!(
            one.verify(&p2.mem).is_err(),
            "{name}: seed+1 accepts seed+2's run"
        );
        assert!(
            two.verify(&p1.mem).is_err(),
            "{name}: seed+2 accepts seed+1's run"
        );
    }
}
