//! Property tests of the simulation driver: for arbitrary task programs,
//! the timed multicore execution must be functionally identical to the
//! sequential reference execution, deterministic, and complete.

use proptest::prelude::*;
use raccd_core::{run, CoherenceMode, DriverOutput, RunOptions};
use raccd_mem::addr::VRange;
use raccd_runtime::{Dep, DepDir, Program, ProgramBuilder};
use raccd_sim::MachineConfig;

/// Description of one generated task: which slots it reads and which slot
/// it writes, plus an operation selector.
#[derive(Clone, Debug)]
struct TaskSpec {
    reads: Vec<u8>,
    write: u8,
    op: u8,
    inout: bool,
}

const SLOTS: u64 = 12;
const SLOT_BYTES: u64 = 256; // 4 blocks per slot

fn task_strategy() -> impl Strategy<Value = TaskSpec> {
    (
        proptest::collection::vec(0u8..SLOTS as u8, 0..3),
        0u8..SLOTS as u8,
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(reads, write, op, inout)| TaskSpec {
            reads,
            write,
            op,
            inout,
        })
}

/// Build the same program twice (closures cannot be cloned).
fn build(specs: &[TaskSpec]) -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc("slots", SLOTS * SLOT_BYTES);
    // Seed all slots with distinct values.
    for s in 0..SLOTS {
        for w in 0..SLOT_BYTES / 8 {
            b.mem()
                .write_u64(data.start.offset(s * SLOT_BYTES + w * 8), s * 1000 + w);
        }
    }
    let slot = move |i: u8| VRange::new(data.start.offset(i as u64 * SLOT_BYTES), SLOT_BYTES);
    for spec in specs.iter().cloned() {
        let mut deps: Vec<Dep> = spec.reads.iter().map(|&r| Dep::input(slot(r))).collect();
        deps.push(Dep {
            range: slot(spec.write),
            dir: if spec.inout {
                DepDir::InOut
            } else {
                DepDir::Out
            },
        });
        b.task("fuzz", deps, move |ctx| {
            // Fold all read slots plus the op selector into the write slot.
            let mut acc = spec.op as u64;
            for &r in &spec.reads {
                for w in 0..SLOT_BYTES / 8 {
                    acc = acc
                        .rotate_left(7)
                        .wrapping_add(ctx.read_u64(slot(r).start.offset(w * 8)));
                }
            }
            let out = slot(spec.write);
            for w in 0..SLOT_BYTES / 8 {
                let prev = if spec.inout {
                    ctx.read_u64(out.start.offset(w * 8))
                } else {
                    0
                };
                ctx.write_u64(out.start.offset(w * 8), prev ^ acc.wrapping_add(w));
            }
        });
    }
    b.finish()
}

fn simulate(cfg: MachineConfig, mode: CoherenceMode, program: Program) -> DriverOutput {
    run(cfg, mode, program, RunOptions::default())
}

fn memory_image(mem: &raccd_mem::SimMemory) -> Vec<u8> {
    let base = mem.allocations()[0].1;
    mem.bytes(base.start, (SLOTS * SLOT_BYTES) as usize)
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The timed multicore run computes exactly what the sequential
    /// reference computes, under every coherence mode: coherence
    /// deactivation must never change semantics.
    #[test]
    fn timed_run_equals_functional_run(
        specs in proptest::collection::vec(task_strategy(), 1..25),
    ) {
        let mut reference = build(&specs);
        reference.run_functional();
        let want = memory_image(&reference.mem);

        for mode in CoherenceMode::ALL {
            let out = simulate(MachineConfig::scaled(), mode, build(&specs));
            prop_assert_eq!(
                &memory_image(&out.mem),
                &want,
                "mode {} diverged from sequential reference",
                mode
            );
            prop_assert_eq!(out.tasks, specs.len());
        }
    }

    /// Determinism: identical programs produce identical statistics.
    #[test]
    fn timed_run_is_deterministic(
        specs in proptest::collection::vec(task_strategy(), 1..15),
    ) {
        let a = simulate(MachineConfig::scaled(), CoherenceMode::Raccd, build(&specs));
        let b = simulate(MachineConfig::scaled(), CoherenceMode::Raccd, build(&specs));
        prop_assert_eq!(a.stats.cycles, b.stats.cycles);
        prop_assert_eq!(a.stats.dir_accesses, b.stats.dir_accesses);
        prop_assert_eq!(a.stats.noc_traffic, b.stats.noc_traffic);
        prop_assert_eq!(a.stats.l1_hits, b.stats.l1_hits);
    }

    /// Tiny directories change timing but never semantics.
    #[test]
    fn directory_size_does_not_change_semantics(
        specs in proptest::collection::vec(task_strategy(), 1..12),
        ratio in prop_oneof![Just(8usize), Just(256)],
    ) {
        let mut reference = build(&specs);
        reference.run_functional();
        let want = memory_image(&reference.mem);
        let cfg = MachineConfig::scaled().with_dir_ratio(ratio);
        let out = simulate(cfg, CoherenceMode::Raccd, build(&specs));
        prop_assert_eq!(memory_image(&out.mem), want);
    }

    /// SMT execution is also semantics-preserving.
    #[test]
    fn smt_does_not_change_semantics(
        specs in proptest::collection::vec(task_strategy(), 1..12),
    ) {
        let mut reference = build(&specs);
        reference.run_functional();
        let want = memory_image(&reference.mem);
        let cfg = MachineConfig { smt_ways: 2, ..MachineConfig::scaled() };
        let out = simulate(cfg, CoherenceMode::Raccd, build(&specs));
        prop_assert_eq!(memory_image(&out.mem), want);
    }
}
