//! The interface benchmarks implement.
//!
//! A workload knows how to build its task-parallel [`Program`] (allocating
//! and initialising inputs, creating annotated tasks) and how to verify the
//! functional output afterwards — every benchmark in this reproduction
//! really computes, so verification compares simulated-memory results
//! against host-side references.

use crate::builder::Program;
use raccd_mem::SimMemory;

/// A benchmark: program factory plus functional verifier.
pub trait Workload {
    /// Short name (matches the paper's Figure labels, e.g. "Jacobi").
    fn name(&self) -> &str;

    /// Build the program: allocate data, initialise inputs, create tasks.
    fn build(&self) -> Program;

    /// Check the functional output in `mem` after all tasks ran, element
    /// by element against a host-side reference. Returns
    /// `Err(description)` naming the first mismatch.
    ///
    /// The reference depends on the workload's parameters alone, not on
    /// `mem`, so an implementation may compute it once per process and
    /// share it between calls: the nine `raccd-workloads` benchmarks key
    /// theirs by their parameter struct's `Debug` string. Every call still
    /// reads and compares every output element of `mem`.
    fn verify(&self, mem: &SimMemory) -> Result<(), String>;

    /// Human-readable problem-set description (the paper's Table II row).
    fn problem(&self) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::region::Dep;

    struct Doubler;

    impl Workload for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn build(&self) -> Program {
            let mut b = ProgramBuilder::new();
            let buf = b.alloc("v", 8);
            let addr = buf.start;
            b.mem().write_u64(addr, 21);
            b.task("double", vec![Dep::inout(buf)], move |ctx| {
                let v = ctx.read_u64(addr);
                ctx.write_u64(addr, v * 2);
            });
            b.finish()
        }
        fn verify(&self, mem: &SimMemory) -> Result<(), String> {
            let got = mem.read_u64(raccd_mem::VAddr(SimMemory::HEAP_BASE));
            if got == 42 {
                Ok(())
            } else {
                Err(format!("expected 42, got {got}"))
            }
        }
    }

    #[test]
    fn workload_roundtrip() {
        let w = Doubler;
        let mut p = w.build();
        assert!(w.verify(&p.mem).is_err(), "not yet run");
        p.run_functional();
        assert!(w.verify(&p.mem).is_ok());
    }
}
