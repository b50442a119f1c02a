#![warn(missing_docs)]

//! Task scheduling policies for the RaCCD reproduction.
//!
//! The paper's premise (§II-B) is that *dynamic schedulers migrate tasks
//! between cores*, turning private data into temporarily private data —
//! which is exactly the data RaCCD deactivates coherence for. How much
//! migration happens, and therefore how much NCRT re-registration churn
//! RaCCD pays, is a policy decision. The five policies are two data
//! shapes — one central queue, or one queue per context — so they share
//! one concrete [`ReadyQueue`] whose [`SchedKind`] (mirroring
//! `raccd-protocol`'s `ProtocolKind`) picks the pop rule:
//!
//! * **[`SchedKind::Fifo`]** — one central FIFO ready queue shared by
//!   every hardware context (the original `CentralFifo`). Maximum
//!   migration pressure: a woken task runs on whichever context drains it.
//! * **[`SchedKind::Steal`]** — per-context deques, owner pops LIFO,
//!   thieves scan `(ctx + d) % n` and pop FIFO (the original
//!   `WorkStealing`). On a 2-socket `numa2` machine the scan is
//!   NUMA-aware: same-socket victims are preferred over cross-socket
//!   ones, in the same rotational order. A single-socket mesh degenerates
//!   to the original scan byte for byte.
//! * **[`SchedKind::Priority`]** — central queue drained in critical-path
//!   order: dependency depth towards the graph's sinks, computed once
//!   from the task graph, deterministic tie-break by lowest `TaskId`.
//! * **[`SchedKind::Locality`]** — per-context FIFO queues indexed by the
//!   *waker* context; the owner drains its own queue first, then
//!   same-socket neighbours, then the whole machine. Tasks preferentially
//!   run where their inputs were produced, cutting `task_migrations` and
//!   NCRT re-registration churn.
//! * **[`SchedKind::Quantum`]** — central FIFO plus deterministic
//!   cycle-quantum preemption: the driver consults [`ReadyQueue::quantum`]
//!   after each mem-ref batch and requeues tasks that exceeded their
//!   quantum, appending a [`PreemptRecord`] to an append-only audit log
//!   that snapshots and replays deterministically.
//!
//! Every policy keeps the same [`SchedCounters`] and serialises behind a
//! one-byte kind tag via [`save`]/[`load`]. The section bodies keep the
//! layouts of the per-policy types this struct replaced (the `fifo` and
//! `steal` bodies are the original `ReadyQueue`/`StealQueues` encodings),
//! so pre-existing `driver/sched` snapshot sections decode unchanged.

use raccd_snap::Snap;
use std::collections::VecDeque;

mod kind;

pub use kind::SchedKind;

/// Task identifier: index into the program's `TaskGraph` (alias-compatible
/// with `raccd_runtime::TaskId`).
pub type TaskId = usize;

/// Unified scheduling counters, identical across policies.
///
/// `pushed`/`popped` count every task entering/leaving the ready
/// structure; `local_pops` and `steals` split `popped` by whether the
/// popping context drained its own queue or raided another's (central
/// policies report every pop as local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Tasks pushed into the ready structure.
    pub pushed: u64,
    /// Tasks popped out of the ready structure.
    pub popped: u64,
    /// Pops served from the popping context's own queue.
    pub local_pops: u64,
    /// Pops served by raiding another context's queue.
    pub steals: u64,
}

/// One quantum-preemption decision, appended to the policy's audit log.
///
/// The log is append-only, serialised with the scheduler, and replays
/// deterministically: the same program on the same machine produces the
/// same record sequence, run after run and across snapshot/restore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreemptRecord {
    /// Cycle at which the preemption was decided.
    pub cycle: u64,
    /// The preempted task.
    pub task: TaskId,
    /// Hardware context the task was running on.
    pub ctx: usize,
    /// Mem-ref position the task had reached (it resumes here).
    pub pos: usize,
    /// Mem-refs still outstanding at preemption.
    pub remaining: usize,
}

raccd_snap::snap_record!(PreemptRecord {
    cycle,
    task,
    ctx,
    pos,
    remaining,
});

/// Machine-shape inputs a policy needs but does not serialise: they are
/// all derivable from the `MachineConfig` and task graph, so the driver
/// rebuilds them on restore and only the queue contents travel in the
/// snapshot.
#[derive(Clone, Debug, Default)]
pub struct SchedParams {
    /// Number of hardware contexts (`ncores * smt_ways`).
    pub nctx: usize,
    /// Socket of each context (`core / (mesh_k * mesh_k)`; all zero on a
    /// single-socket mesh).
    pub ctx_socket: Vec<usize>,
    /// Critical-path priority per task (empty unless the kind is
    /// [`SchedKind::Priority`]; missing ids default to priority 0).
    pub priorities: Vec<u64>,
    /// Preemption quantum in cycles (used by [`SchedKind::Quantum`]).
    pub quantum: u64,
}

impl SchedParams {
    /// Params for a flat machine: `nctx` contexts on one socket, no
    /// priorities, quantum `q`. Enough for every policy but `priority`.
    pub fn flat(nctx: usize, quantum: u64) -> SchedParams {
        SchedParams {
            nctx,
            ctx_socket: vec![0; nctx],
            priorities: Vec::new(),
            quantum,
        }
    }
}

/// The ready structure: where woken tasks wait and which context runs
/// them next.
///
/// The driver calls `push(ctx, task)` with the *waker's* context (or a
/// round-robin seed for initially-ready tasks) and `pop(ctx)` with the
/// context looking for work. All state is deterministic: no policy
/// consults wall-clock time or OS identity, so identical runs observe
/// identical pop sequences.
#[derive(Clone, Debug)]
pub struct ReadyQueue {
    kind: SchedKind,
    /// One queue for the central policies (`fifo`, `priority`,
    /// `quantum`), one per context for `steal` and `locality`.
    queues: Vec<VecDeque<TaskId>>,
    counters: SchedCounters,
    /// `quantum`'s append-only preemption log (empty otherwise).
    audit: Vec<PreemptRecord>,
    // Rebuilt from [`SchedParams`], never serialised:
    /// Context → socket.
    sockets: Vec<usize>,
    /// Task → critical-path priority (`priority` only).
    priorities: Vec<u64>,
    /// Quantum length in cycles (`quantum` only).
    quantum: u64,
}

impl ReadyQueue {
    fn with_queues(kind: SchedKind, params: &SchedParams, queues: Vec<VecDeque<TaskId>>) -> Self {
        ReadyQueue {
            kind,
            queues,
            counters: SchedCounters::default(),
            audit: Vec::new(),
            sockets: params.ctx_socket.clone(),
            priorities: params.priorities.clone(),
            quantum: params.quantum,
        }
    }

    /// The registry tag of this policy.
    pub fn kind(&self) -> SchedKind {
        self.kind
    }

    /// Enqueue `task`, woken (or seeded) by context `ctx`: on the waker's
    /// queue, or on the central one.
    pub fn push(&mut self, ctx: usize, task: TaskId) {
        self.counters.pushed += 1;
        let q = if self.kind.per_context() { ctx } else { 0 };
        self.queues[q].push_back(task);
    }

    /// Next task for context `ctx` to run, if any.
    pub fn pop(&mut self, ctx: usize) -> Option<TaskId> {
        let own = if self.kind.per_context() { ctx } else { 0 };
        let local = match self.kind {
            // The owner pops its own deque LIFO (hot caches).
            SchedKind::Steal => self.queues[own].pop_back(),
            // Deepest critical path first, ties broken by lowest id, so
            // the pop sequence is a pure function of the graph.
            SchedKind::Priority => {
                let prio = |t: TaskId| self.priorities.get(t).copied().unwrap_or(0);
                let ready = &self.queues[own];
                let mut best = 0;
                for i in 1..ready.len() {
                    let (t, b) = (ready[i], ready[best]);
                    if prio(t) > prio(b) || (prio(t) == prio(b) && t < b) {
                        best = i;
                    }
                }
                self.queues[own].remove(best)
            }
            SchedKind::Fifo | SchedKind::Locality | SchedKind::Quantum => {
                self.queues[own].pop_front()
            }
        };
        let task = match local {
            Some(t) => {
                self.counters.local_pops += 1;
                t
            }
            // Raid another context's oldest task (a central queue has no
            // victims to scan).
            None => {
                let victim = scan_victims(&self.queues, &self.sockets, ctx)?;
                self.counters.steals += 1;
                self.queues[victim].pop_front()?
            }
        };
        self.counters.popped += 1;
        Some(task)
    }

    /// Every queued task, queue by queue.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.queues.iter().flatten().copied()
    }

    /// Tasks currently queued.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether no task is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push/pop/steal counters.
    pub fn counters(&self) -> SchedCounters {
        self.counters
    }

    /// Preemption quantum in cycles, if this policy preempts.
    pub fn quantum(&self) -> Option<u64> {
        (self.kind == SchedKind::Quantum).then_some(self.quantum)
    }

    /// Append a preemption decision to the audit log (no-op for
    /// non-preempting policies).
    pub fn note_preempt(&mut self, rec: PreemptRecord) {
        if self.kind == SchedKind::Quantum {
            self.audit.push(rec);
        }
    }

    /// The append-only preemption audit log (empty for non-preempting
    /// policies).
    pub fn audit(&self) -> &[PreemptRecord] {
        &self.audit
    }
}

/// Build a fresh scheduler of the given kind.
pub fn build(kind: SchedKind, params: &SchedParams) -> ReadyQueue {
    let nqueues = if kind.per_context() { params.nctx } else { 1 };
    assert!(nqueues > 0, "{kind} needs at least one context");
    ReadyQueue::with_queues(kind, params, vec![VecDeque::new(); nqueues])
}

/// Serialise a scheduler: one kind tag byte, then the policy body in the
/// layout its kind has always had — central: queue, `pushed`, `popped`
/// (then `quantum`'s audit log); per-context: deques, `steals`,
/// `local_pops` (the other two counters follow from them and the queued
/// remainder).
// Hand-written: a format trick (one layout per kind, two of four counters
// derived) and shape fields rebuilt from `SchedParams`, not saved.
pub fn save(sched: &ReadyQueue, w: &mut raccd_snap::SnapWriter) {
    sched.kind.save(w);
    let c = sched.counters;
    if sched.kind.per_context() {
        sched.queues.save(w);
        w.u64(c.steals);
        w.u64(c.local_pops);
    } else {
        sched.queues[0].save(w);
        w.u64(c.pushed);
        w.u64(c.popped);
    }
    if sched.kind == SchedKind::Quantum {
        sched.audit.save(w);
    }
}

/// Deserialise a scheduler saved by [`save`]. Non-serialised shape
/// (sockets, priorities, quantum) is rebuilt from `params`.
pub fn load(
    r: &mut raccd_snap::SnapReader,
    params: &SchedParams,
) -> Result<ReadyQueue, raccd_snap::SnapError> {
    let kind = SchedKind::load(r)?;
    let queues: Vec<VecDeque<TaskId>> = if kind.per_context() {
        Snap::load(r)?
    } else {
        vec![Snap::load(r)?]
    };
    if queues.is_empty() || (kind.per_context() && queues.len() != params.nctx) {
        return Err(raccd_snap::SnapError::Invalid("ready queue count"));
    }
    let mut sched = ReadyQueue::with_queues(kind, params, queues);
    let (a, b) = (r.u64()?, r.u64()?);
    sched.counters = if kind.per_context() {
        let popped = a.saturating_add(b);
        SchedCounters {
            pushed: popped.saturating_add(sched.len() as u64),
            popped,
            local_pops: b,
            steals: a,
        }
    } else {
        SchedCounters {
            pushed: a,
            popped: b,
            local_pops: b,
            steals: 0,
        }
    };
    if kind == SchedKind::Quantum {
        sched.audit = Snap::load(r)?;
    }
    Ok(sched)
}

/// Critical-path priority of every task: `1 +` the longest chain of
/// dependents below it (sinks get 1). Relies on the `TaskGraph` invariant
/// that every dependence edge points from a lower to a higher `TaskId`,
/// so one reverse sweep suffices. `dependents(id)` must yield each task's
/// direct dependents.
pub fn critical_path_priorities<'a, F>(ntasks: usize, dependents: F) -> Vec<u64>
where
    F: Fn(usize) -> &'a [TaskId],
{
    let mut prio = vec![0u64; ntasks];
    for id in (0..ntasks).rev() {
        let below = dependents(id).iter().map(|&d| prio[d]).max().unwrap_or(0);
        prio[id] = 1 + below;
    }
    prio
}

/// Two-pass victim scan in `(ctx + d) % n` rotational order, same-socket
/// victims first, then cross-socket. On a one-socket machine the first
/// pass visits every victim in exactly the legacy order. Returns the
/// first victim index whose deque is non-empty.
fn scan_victims(deques: &[VecDeque<TaskId>], sockets: &[usize], ctx: usize) -> Option<usize> {
    let n = deques.len();
    let home = sockets.get(ctx).copied().unwrap_or(0);
    for pass in 0..2 {
        for d in 1..n {
            let victim = (ctx + d) % n;
            let same = sockets.get(victim).copied().unwrap_or(0) == home;
            if (pass == 0) == same && !deques[victim].is_empty() {
                return Some(victim);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_snap::{SnapReader, SnapWriter};

    fn drain(s: &mut ReadyQueue, ctx: usize) -> Vec<TaskId> {
        let mut out = Vec::new();
        while let Some(t) = s.pop(ctx) {
            out.push(t);
        }
        out
    }

    #[test]
    fn fifo_preserves_push_order_and_counts() {
        let params = SchedParams::flat(4, 0);
        let mut s = build(SchedKind::Fifo, &params);
        for t in [3usize, 1, 4, 1, 5] {
            s.push(t % 4, t);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(drain(&mut s, 0), vec![3, 1, 4, 1, 5]);
        let c = s.counters();
        assert_eq!((c.pushed, c.popped, c.local_pops, c.steals), (5, 5, 5, 0));
        assert!(s.is_empty());
    }

    #[test]
    fn steal_owner_pops_lifo_thief_pops_fifo() {
        let params = SchedParams::flat(4, 0);
        let mut s = build(SchedKind::Steal, &params);
        for t in 0..3 {
            s.push(0, t);
        }
        // Owner sees its own deque newest-first.
        assert_eq!(s.pop(0), Some(2));
        // A thief raids the victim's oldest task.
        assert_eq!(s.pop(2), Some(0));
        assert_eq!(s.pop(1), Some(1));
        let c = s.counters();
        assert_eq!((c.pushed, c.popped, c.local_pops, c.steals), (3, 3, 1, 2));
    }

    #[test]
    fn steal_scan_order_is_deterministic() {
        // ctx 1 scans victims 2, 3, 0 in that order.
        let params = SchedParams::flat(4, 0);
        let mut s = build(SchedKind::Steal, &params);
        s.push(0, 10);
        s.push(3, 30);
        assert_eq!(s.pop(1), Some(30));
        assert_eq!(s.pop(1), Some(10));
        assert_eq!(s.pop(1), None);
    }

    #[test]
    fn numa_steal_prefers_same_socket_victims() {
        // Four contexts, two sockets: {0, 1} on socket 0, {2, 3} on
        // socket 1. Context 3's legacy scan order is 0, 1, 2 — but with
        // socket awareness it must raid its socket-mate 2 first.
        let numa = SchedParams {
            nctx: 4,
            ctx_socket: vec![0, 0, 1, 1],
            priorities: Vec::new(),
            quantum: 0,
        };
        let mut s = build(SchedKind::Steal, &numa);
        s.push(0, 10);
        s.push(2, 20);
        assert_eq!(s.pop(3), Some(20), "same-socket victim wins");
        assert_eq!(s.pop(3), Some(10), "cross-socket steal still happens");

        // On one socket the exact legacy rotational order is preserved.
        let flat = SchedParams::flat(4, 0);
        let mut s = build(SchedKind::Steal, &flat);
        s.push(0, 10);
        s.push(2, 20);
        assert_eq!(s.pop(3), Some(10), "legacy (ctx + d) % n order");
    }

    #[test]
    fn priority_drains_critical_path_first_with_id_tiebreak() {
        // A diamond 0 -> {1, 2} -> 3 plus a free task 4: priorities are
        // 0:3, 1:2, 2:2, 3:1, 4:1.
        let deps: Vec<Vec<usize>> = vec![vec![1, 2], vec![3], vec![3], vec![], vec![]];
        let prio = critical_path_priorities(5, |id| deps[id].as_slice());
        assert_eq!(prio, vec![3, 2, 2, 1, 1]);
        let params = SchedParams {
            nctx: 2,
            ctx_socket: vec![0, 0],
            priorities: prio,
            quantum: 0,
        };
        let mut s = build(SchedKind::Priority, &params);
        for t in [4usize, 3, 2, 1, 0] {
            s.push(0, t);
        }
        // Deepest critical path first; equal depths break by lowest id.
        assert_eq!(drain(&mut s, 0), vec![0, 1, 2, 3, 4]);
        let c = s.counters();
        assert_eq!((c.pushed, c.popped), (5, 5));
    }

    #[test]
    fn locality_prefers_own_queue_then_socket_then_global() {
        let params = SchedParams {
            nctx: 4,
            ctx_socket: vec![0, 0, 1, 1],
            priorities: Vec::new(),
            quantum: 0,
        };
        let mut s = build(SchedKind::Locality, &params);
        s.push(1, 11); // woken by ctx 1 (socket 0)
        s.push(2, 22); // woken by ctx 2 (socket 1)
        s.push(3, 33); // woken by ctx 3 (socket 1)
                       // Own queue first, FIFO.
        assert_eq!(s.pop(3), Some(33));
        // Then the same-socket neighbour (ctx 2), not the nearer-in-scan
        // remote queues.
        assert_eq!(s.pop(3), Some(22));
        // ctx 0 drains its socket-mate ctx 1.
        assert_eq!(s.pop(0), Some(11));
        // Global fallback: ctx 1 (socket 0) raids socket 1 when its own
        // socket is dry.
        s.push(2, 44);
        assert_eq!(s.pop(1), Some(44));
        let c = s.counters();
        assert_eq!((c.pushed, c.popped, c.local_pops, c.steals), (4, 4, 1, 3));
    }

    #[test]
    fn quantum_is_fifo_with_an_audit_log() {
        let params = SchedParams::flat(2, 5000);
        let mut s = build(SchedKind::Quantum, &params);
        assert_eq!(s.quantum(), Some(5000));
        s.push(0, 7);
        s.push(1, 8);
        s.note_preempt(PreemptRecord {
            cycle: 123,
            task: 7,
            ctx: 0,
            pos: 64,
            remaining: 10,
        });
        assert_eq!(s.pop(0), Some(7));
        assert_eq!(s.audit().len(), 1);
        assert_eq!(s.audit()[0].task, 7);
        // Non-preempting policies ignore audit entirely.
        let mut f = build(SchedKind::Fifo, &params);
        assert_eq!(f.quantum(), None);
        f.note_preempt(PreemptRecord {
            cycle: 0,
            task: 0,
            ctx: 0,
            pos: 0,
            remaining: 0,
        });
        assert!(f.audit().is_empty());
    }

    #[test]
    fn legacy_fifo_and_steal_bodies_are_byte_identical() {
        // fifo: tag 0, then exactly the legacy ReadyQueue encoding
        // (queue, pushed, popped).
        let params = SchedParams::flat(3, 0);
        let mut s = build(SchedKind::Fifo, &params);
        s.push(0, 5);
        s.push(1, 9);
        assert_eq!(s.pop(2), Some(5));
        let mut w = SnapWriter::new();
        save(&s, &mut w);
        let mut expect = SnapWriter::new();
        expect.u8(0);
        let legacy: VecDeque<usize> = VecDeque::from(vec![9usize]);
        legacy.save(&mut expect);
        expect.u64(2); // pushed
        expect.u64(1); // popped
        assert_eq!(w.into_bytes(), expect.into_bytes());

        // steal: tag 1, then exactly the legacy StealQueues encoding
        // (deques, steals, local_pops).
        let mut s = build(SchedKind::Steal, &params);
        s.push(0, 5);
        s.push(1, 9);
        assert_eq!(s.pop(2), Some(5)); // steal
        assert_eq!(s.pop(1), Some(9)); // local
        let mut w = SnapWriter::new();
        save(&s, &mut w);
        let mut expect = SnapWriter::new();
        expect.u8(1);
        let deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); 3];
        deques.save(&mut expect);
        expect.u64(1); // steals
        expect.u64(1); // local_pops
        assert_eq!(w.into_bytes(), expect.into_bytes());
    }

    #[test]
    fn priority_locality_and_quantum_bodies_keep_their_layouts() {
        // The bodies the per-policy types wrote before they became one
        // struct: priority = tag 2, ready list, pushed, popped; locality =
        // tag 3, the steal layout; quantum = tag 4, the fifo layout plus
        // the audit log.
        let params = SchedParams {
            nctx: 3,
            ctx_socket: vec![0; 3],
            priorities: vec![1, 5, 3, 4],
            quantum: 64,
        };
        let rec = PreemptRecord {
            cycle: 7,
            task: 2,
            ctx: 1,
            pos: 64,
            remaining: 9,
        };
        let run = |kind: SchedKind| {
            let mut s = build(kind, &params);
            for t in 0..4 {
                s.push(t % 3, t);
            }
            let first = s.pop(2);
            s.note_preempt(rec);
            let mut w = SnapWriter::new();
            save(&s, &mut w);
            (first, w.into_bytes())
        };

        let (first, bytes) = run(SchedKind::Priority);
        assert_eq!(first, Some(1));
        let mut expect = SnapWriter::new();
        expect.u8(2);
        vec![0usize, 2, 3].save(&mut expect);
        expect.u64(4); // pushed
        expect.u64(1); // popped
        assert_eq!(bytes, expect.into_bytes());

        let (first, bytes) = run(SchedKind::Locality);
        assert_eq!(first, Some(2));
        let mut expect = SnapWriter::new();
        expect.u8(3);
        let deques: Vec<VecDeque<usize>> = vec![[0, 3].into(), [1].into(), [].into()];
        deques.save(&mut expect);
        expect.u64(0); // steals
        expect.u64(1); // local_pops
        assert_eq!(bytes, expect.into_bytes());

        let (first, bytes) = run(SchedKind::Quantum);
        assert_eq!(first, Some(0));
        let mut expect = SnapWriter::new();
        expect.u8(4);
        VecDeque::from([1usize, 2, 3]).save(&mut expect);
        expect.u64(4); // pushed
        expect.u64(1); // popped
        vec![rec].save(&mut expect);
        assert_eq!(bytes, expect.into_bytes());
    }

    #[test]
    fn every_policy_roundtrips_through_save_load() {
        let params = SchedParams {
            nctx: 4,
            ctx_socket: vec![0, 0, 1, 1],
            priorities: vec![3, 2, 2, 1, 1],
            quantum: 777,
        };
        for kind in SchedKind::ALL {
            let mut s = build(kind, &params);
            for t in 0..5 {
                s.push(t % 4, t);
            }
            let _ = s.pop(1);
            let _ = s.pop(2);
            s.note_preempt(PreemptRecord {
                cycle: 9,
                task: 1,
                ctx: 2,
                pos: 64,
                remaining: 3,
            });
            let mut w = SnapWriter::new();
            save(&s, &mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let mut restored = load(&mut r, &params).unwrap();
            assert_eq!(r.remaining(), 0, "{kind}: trailing bytes");
            assert_eq!(restored.kind(), kind);
            assert_eq!(restored.len(), s.len(), "{kind}: queued count");
            assert_eq!(restored.counters(), s.counters(), "{kind}: counters");
            assert_eq!(restored.audit(), s.audit(), "{kind}: audit log");
            // Restored schedulers drain in the same order.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            while let Some(t) = s.pop(3) {
                a.push(t);
            }
            while let Some(t) = restored.pop(3) {
                b.push(t);
            }
            assert_eq!(a, b, "{kind}: drain order after restore");
        }
    }

    #[test]
    fn load_rejects_a_deque_count_that_is_not_the_machines() {
        let mut s = build(SchedKind::Locality, &SchedParams::flat(3, 0));
        s.push(2, 7);
        let mut w = SnapWriter::new();
        save(&s, &mut w);
        let bytes = w.into_bytes();
        for nctx in [2, 4] {
            let got = load(&mut SnapReader::new(&bytes), &SchedParams::flat(nctx, 0));
            assert!(got.is_err(), "{nctx} contexts must not adopt 3 deques");
        }
        assert!(load(&mut SnapReader::new(&bytes), &SchedParams::flat(3, 0)).is_ok());
    }

    #[test]
    fn steal_load_rejects_empty_deques() {
        let params = SchedParams::flat(0, 0);
        let mut w = SnapWriter::new();
        SchedKind::Steal.save(&mut w);
        let deques: Vec<VecDeque<usize>> = Vec::new();
        deques.save(&mut w);
        w.u64(0);
        w.u64(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(load(&mut r, &params).is_err());
    }
}
