//! Property tests: no scheduling policy loses or duplicates tasks, and
//! every pop sequence is a deterministic function of the operation
//! sequence — including under adversarial (shuffled) worker pop order.

use proptest::prelude::*;
use raccd_sched::{build, PreemptRecord, SchedKind, SchedParams};
use std::collections::BTreeMap;

/// Mixed push/pop op: `push` pushes `task` from `ctx`, otherwise `ctx`
/// pops.
#[derive(Clone, Copy, Debug)]
struct Op {
    push: bool,
    ctx: usize,
    task: usize,
}

fn params(nctx: usize, numa: bool) -> SchedParams {
    SchedParams {
        nctx,
        // Split the contexts across two sockets when `numa`, else flat.
        ctx_socket: (0..nctx)
            .map(|c| if numa { c * 2 / nctx.max(1) } else { 0 })
            .collect(),
        // Arbitrary but fixed priority table so `priority` exercises
        // non-trivial ordering.
        priorities: (0..64).map(|t| (t as u64 * 7) % 13).collect(),
        quantum: 4096,
    }
}

/// Apply `ops`, then drain with the given rotational pop order. Returns
/// (multiset of pushed tasks, exact pop sequence).
fn run(
    kind: SchedKind,
    p: &SchedParams,
    ops: &[Op],
    drain_order: &[usize],
) -> (BTreeMap<usize, usize>, Vec<usize>) {
    let mut s = build(kind, p);
    let mut pushed: BTreeMap<usize, usize> = BTreeMap::new();
    let mut popped = Vec::new();
    for op in ops {
        let ctx = op.ctx % p.nctx;
        if op.push {
            *pushed.entry(op.task).or_insert(0) += 1;
            s.push(ctx, op.task);
        } else if let Some(t) = s.pop(ctx) {
            popped.push(t);
        }
    }
    // Drain to empty, cycling the (possibly adversarial) worker order.
    let mut i = 0;
    while !s.is_empty() {
        let ctx = drain_order[i % drain_order.len()] % p.nctx;
        if let Some(t) = s.pop(ctx) {
            popped.push(t);
        }
        i += 1;
        assert!(i < 100_000, "drain did not terminate");
    }
    let c = s.counters();
    assert_eq!(c.popped, popped.len() as u64, "popped counter is exact");
    assert_eq!(
        c.pushed,
        pushed.values().sum::<usize>() as u64,
        "pushed counter is exact"
    );
    assert_eq!(c.local_pops + c.steals, c.popped, "pop split is exact");
    (pushed, popped)
}

fn multiset(seq: &[usize]) -> BTreeMap<usize, usize> {
    let mut m = BTreeMap::new();
    for &t in seq {
        *m.entry(t).or_insert(0) += 1;
    }
    m
}

proptest! {
    /// Multiset of pushed tasks == multiset of popped tasks at drain,
    /// for every policy, on flat and NUMA socket maps.
    #[test]
    fn no_policy_loses_or_duplicates_tasks(
        nctx in 1usize..8,
        numa: bool,
        raw in proptest::collection::vec((any::<bool>(), 0usize..8, 0usize..64), 0..200),
    ) {
        let ops: Vec<Op> = raw
            .iter()
            .map(|&(push, ctx, task)| Op { push, ctx, task })
            .collect();
        let p = params(nctx, numa);
        let order: Vec<usize> = (0..nctx).collect();
        for kind in SchedKind::ALL {
            let (pushed, popped) = run(kind, &p, &ops, &order);
            prop_assert_eq!(&multiset(&popped), &pushed, "{} conservation", kind);
        }
    }

    /// The same operation sequence produces bit-identical pop sequences
    /// across runs.
    #[test]
    fn pop_order_is_deterministic_across_runs(
        nctx in 1usize..8,
        numa: bool,
        raw in proptest::collection::vec((any::<bool>(), 0usize..8, 0usize..64), 0..200),
    ) {
        let ops: Vec<Op> = raw
            .iter()
            .map(|&(push, ctx, task)| Op { push, ctx, task })
            .collect();
        let p = params(nctx, numa);
        let order: Vec<usize> = (0..nctx).collect();
        for kind in SchedKind::ALL {
            let (_, a) = run(kind, &p, &ops, &order);
            let (_, b) = run(kind, &p, &ops, &order);
            prop_assert_eq!(a, b, "{} determinism", kind);
        }
    }

    /// Adversarial worker order: shuffling which context drains next
    /// (the scheduler-side analogue of `WorkerPool::set_shuffle`) may
    /// permute the pop sequence but must still conserve the multiset.
    #[test]
    fn conservation_holds_under_shuffled_worker_order(
        nctx in 2usize..8,
        numa: bool,
        rot in 1usize..8,
        raw in proptest::collection::vec((any::<bool>(), 0usize..8, 0usize..64), 0..200),
    ) {
        let ops: Vec<Op> = raw
            .iter()
            .map(|&(push, ctx, task)| Op { push, ctx, task })
            .collect();
        let p = params(nctx, numa);
        let plain: Vec<usize> = (0..nctx).collect();
        // A rotated-and-strided order stands in for an adversarial
        // shuffle while staying reproducible.
        let shuffled: Vec<usize> = (0..nctx).map(|i| (i * rot + rot) % nctx).collect();
        for kind in SchedKind::ALL {
            let (pushed, a) = run(kind, &p, &ops, &plain);
            let (_, b) = run(kind, &p, &ops, &shuffled);
            prop_assert_eq!(&multiset(&a), &pushed, "{} plain-order conservation", kind);
            prop_assert_eq!(&multiset(&b), &pushed, "{} shuffled-order conservation", kind);
        }
    }

    /// The quantum audit log is append-only and replays exactly.
    #[test]
    fn quantum_audit_log_replays_deterministically(
        recs in proptest::collection::vec((0u64..1_000_000, 0usize..64, 0usize..8), 0..50),
    ) {
        let p = params(4, false);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut s = build(SchedKind::Quantum, &p);
            for (i, &(cycle, task, ctx)) in recs.iter().enumerate() {
                s.push(ctx, task);
                s.note_preempt(PreemptRecord {
                    cycle,
                    task,
                    ctx,
                    pos: i * 64,
                    remaining: task,
                });
            }
            runs.push(s.audit().to_vec());
        }
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(runs[0].len(), recs.len());
    }
}
