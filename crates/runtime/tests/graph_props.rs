//! Property tests of TDG construction: for arbitrary dependence patterns
//! the graph must be acyclic (every task eventually completes), respect
//! program order on conflicting accesses, and never lose tasks; and for
//! arbitrary byte ranges the region-run map must find exactly the edges a
//! block-by-block walk finds.

use proptest::prelude::*;
use raccd_mem::addr::VRange;
use raccd_mem::VAddr;
use raccd_runtime::{Dep, DepDir, TaskGraph};
use std::collections::HashMap;

#[derive(Clone, Debug)]
struct SpecDep {
    slot: u8,
    dir: u8, // 0 = in, 1 = out, 2 = inout
}

fn deps_strategy() -> impl Strategy<Value = Vec<SpecDep>> {
    proptest::collection::vec(
        (0u8..10, 0u8..3).prop_map(|(slot, dir)| SpecDep { slot, dir }),
        0..4,
    )
}

fn build(specs: &[Vec<SpecDep>]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let slot = |i: u8| VRange::new(VAddr(0x10_0000 + i as u64 * 4096), 4096);
    for deps in specs {
        let d: Vec<Dep> = deps
            .iter()
            .map(|sd| Dep {
                range: slot(sd.slot),
                dir: match sd.dir {
                    0 => DepDir::In,
                    1 => DepDir::Out,
                    _ => DepDir::InOut,
                },
            })
            .collect();
        g.add_task("t", d, Box::new(|_| {}));
    }
    g
}

/// Drain the graph in topological order; returns completion order.
fn drain(g: &mut TaskGraph) -> Vec<usize> {
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = g
        .initially_ready()
        .into_iter()
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::new();
    while let Some(std::cmp::Reverse(t)) = ready.pop() {
        order.push(t);
        for n in g.complete(t) {
            ready.push(std::cmp::Reverse(n));
        }
    }
    order
}

proptest! {
    /// Every generated graph is acyclic and complete: all tasks drain.
    #[test]
    fn graphs_always_drain(specs in proptest::collection::vec(deps_strategy(), 1..40)) {
        let mut g = build(&specs);
        let n = g.len();
        let order = drain(&mut g);
        prop_assert_eq!(order.len(), n, "some task never became ready");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Writers to the same slot complete in program order (WAW respected),
    /// and no reader of a slot runs before the last program-order writer
    /// that precedes it (RAW respected).
    #[test]
    fn conflicting_accesses_respect_program_order(
        specs in proptest::collection::vec(deps_strategy(), 1..30),
    ) {
        let mut g = build(&specs);
        let order = drain(&mut g);
        let mut pos = vec![0usize; order.len()];
        for (p, &t) in order.iter().enumerate() {
            pos[t] = p;
        }
        for slot in 0u8..10 {
            let mut last_writer: Option<usize> = None;
            for (tid, deps) in specs.iter().enumerate() {
                let writes = deps.iter().any(|d| d.slot == slot && d.dir != 0);
                let reads = deps.iter().any(|d| d.slot == slot && d.dir != 1);
                if let Some(w) = last_writer {
                    if (writes || reads) && tid != w {
                        prop_assert!(
                            pos[w] < pos[tid],
                            "task {tid} touched slot {slot} before its writer {w}"
                        );
                    }
                }
                if writes {
                    last_writer = Some(tid);
                }
            }
        }
    }

    /// Edge count is stable under re-construction (determinism) and zero
    /// for fully-disjoint tasks.
    #[test]
    fn construction_is_deterministic(specs in proptest::collection::vec(deps_strategy(), 1..25)) {
        let a = build(&specs);
        let b = build(&specs);
        prop_assert_eq!(a.edges(), b.edges());
        prop_assert_eq!(a.initially_ready(), b.initially_ready());
    }

    /// Tasks touching pairwise-disjoint slots never gain edges.
    #[test]
    fn disjoint_tasks_are_independent(n in 1usize..10) {
        let specs: Vec<Vec<SpecDep>> = (0..n)
            .map(|i| vec![SpecDep { slot: i as u8, dir: 2 }])
            .collect();
        let g = build(&specs);
        prop_assert_eq!(g.edges(), 0);
        prop_assert_eq!(g.initially_ready().len(), n);
    }
}

const DIRS: [DepDir; 3] = [DepDir::In, DepDir::Out, DepDir::InOut];

/// Byte ranges inside a 24-block arena with unaligned starts and lengths:
/// nested, partially overlapping, adjacent (a start picked on the previous
/// dep's end) and zero-length ones all come up within a few tasks.
fn ranged_tasks() -> impl Strategy<Value = Vec<Vec<(u64, u64, bool, u8)>>> {
    let len = prop_oneof![1 => Just(0u64), 3 => 1u64..130, 2 => 1u64..900];
    let dep = (0u64..1536, len, any::<bool>(), 0u8..3);
    proptest::collection::vec(proptest::collection::vec(dep, 0..5), 1..40)
}

fn ranged_deps(specs: &[Vec<(u64, u64, bool, u8)>]) -> Vec<Vec<Dep>> {
    let mut prev_end = 0x10_0000;
    let mut tasks = Vec::new();
    for spec in specs {
        let mut deps = Vec::new();
        for &(off, len, adjacent, dir) in spec {
            let start = if adjacent { prev_end } else { 0x10_0000 + off };
            prev_end = start + len;
            deps.push(Dep {
                range: VRange::new(VAddr(start), len),
                dir: DIRS[dir as usize],
            });
        }
        tasks.push(deps);
    }
    tasks
}

/// The reference model: the last writer and the readers since that write
/// of every 64-byte block on its own, a zero-length range counting as its
/// start block. Returns each task's dependents, in insertion order.
fn per_block_dependents(tasks: &[Vec<Dep>]) -> Vec<Vec<usize>> {
    let mut blocks: HashMap<u64, (Option<usize>, Vec<usize>)> = HashMap::new();
    let mut dependents = vec![Vec::new(); tasks.len()];
    for (id, deps) in tasks.iter().enumerate() {
        let mut preds = Vec::new();
        for dep in deps {
            let first = dep.range.start.0 / 64;
            let last = (dep.range.start.0 + dep.range.len.max(1) - 1) / 64;
            for b in first..=last {
                let (writer, readers) = blocks.entry(b).or_default();
                preds.extend(*writer);
                if dep.dir.writes() {
                    preds.append(readers);
                    *writer = Some(id);
                } else {
                    readers.push(id);
                }
            }
        }
        preds.sort_unstable();
        preds.dedup();
        for p in preds.into_iter().filter(|&p| p != id) {
            dependents[p].push(id);
        }
    }
    dependents
}

fn assert_matches_per_block_model(tasks: &[Vec<Dep>]) {
    let mut g = TaskGraph::new();
    for deps in tasks {
        g.add_task("t", deps.clone(), Box::new(|_| {}));
    }
    let want = per_block_dependents(tasks);
    for (id, w) in want.iter().enumerate() {
        assert_eq!(g.dependents(id), &w[..], "dependents of task {id}");
    }
    assert_eq!(g.edges(), want.iter().map(Vec::len).sum::<usize>());
    let mut blocked = vec![false; tasks.len()];
    want.iter().flatten().for_each(|&d| blocked[d] = true);
    let ready: Vec<usize> = (0..tasks.len()).filter(|&t| !blocked[t]).collect();
    assert_eq!(g.initially_ready(), ready);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Region runs are an encoding of the per-block rule, not a second
    /// rule: same edges, same dependent lists in the same order, same
    /// initially-ready set.
    #[test]
    fn region_runs_equal_the_per_block_model(specs in ranged_tasks()) {
        assert_matches_per_block_model(&ranged_deps(&specs));
    }
}

/// The shapes the random cases are meant to hit, each by hand: a run split
/// in its middle, at its first and at its last block, a gap between two
/// runs filled by a third range, and a zero-length range, which registers
/// on the block its start lies in.
#[test]
fn hand_made_splits_gaps_and_empty_ranges_match_the_model() {
    let r = |start: u64, len: u64| VRange::new(VAddr(0x10_0000 + start), len);
    let cases: Vec<Vec<Vec<Dep>>> = vec![
        vec![
            vec![Dep::output(r(0, 640))],
            vec![Dep::input(r(200, 100))],
            vec![Dep::inout(r(0, 1))],
            vec![Dep::output(r(639, 1))],
            vec![Dep::input(r(0, 640))],
        ],
        vec![
            vec![Dep::output(r(0, 64)), Dep::output(r(256, 64))],
            vec![Dep::input(r(32, 300))],
            vec![Dep::output(r(128, 64))],
        ],
        vec![
            vec![Dep::output(r(127, 0))],
            vec![Dep::input(r(64, 64))],
            vec![Dep::input(r(128, 64))],
            vec![Dep::inout(r(128, 0)), Dep::input(r(128, 0))],
        ],
    ];
    for tasks in &cases {
        assert_matches_per_block_model(tasks);
    }
    // Pinned outright: an empty range is not empty to the TDG.
    let mut g = TaskGraph::new();
    g.add_task("w", vec![Dep::output(r(127, 0))], Box::new(|_| {}));
    g.add_task("same block", vec![Dep::input(r(64, 1))], Box::new(|_| {}));
    g.add_task("next block", vec![Dep::input(r(128, 1))], Box::new(|_| {}));
    assert_eq!(g.dependents(0), &[1]);
    assert_eq!(g.initially_ready(), vec![0, 2]);
}
