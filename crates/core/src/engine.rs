//! The epoch-parallel simulation engine.
//!
//! The serial driver interleaves cores through a time-ordered heap; each
//! turn replays up to [`BATCH`] references. The leading run of references
//! that hit in a core's *private* structures (TLB + L1) touches nothing
//! shared — and on the workloads the paper evaluates that prefix is ~95%
//! of all references. This engine exploits that: it plans an **epoch** (a
//! prefix of upcoming turns on distinct cores), speculates every turn's
//! hit prefix concurrently on detached
//! [`CoreShard`](raccd_sim::CoreShard) clones, then commits the turns one
//! by one in exact heap order, adopting each shard and replaying the rest
//! of each batch serially.
//!
//! Determinism is not a property of the schedule — it is enforced by
//! construction, in three layers:
//!
//! 1. **Speculation is side-effect-free.** Workers mutate only their
//!    private shard clone; no message, directory update or statistic is
//!    produced until commit. Results are placed into a slot indexed by
//!    plan position, so worker completion order is irrelevant.
//! 2. **Conservative lookahead.** A turn enters the epoch only if it
//!    starts before the earliest possible finish of every earlier planned
//!    turn (each turn costs at least its batch length × the private hit
//!    latency, and never less than one NoC hop). Under this horizon the
//!    planned order is the serial heap order in the common case.
//! 3. **Commit-time validation.** Before each commit the engine checks
//!    (a) the heap's next entry is exactly the planned `(time, ctx)` pair
//!    and (b) the machine's spec-touch mask shows no cross-core protocol
//!    action (invalidation, downgrade, flush, shootdown) landed on the
//!    core since planning. Either violation discards the speculation —
//!    the turn replays through the unchanged serial path. Soundness never
//!    rests on the lookahead; a wrong plan costs throughput, not bits.
//!
//! The result is **bit-identical** to the serial engine for any thread
//! count: same `Stats`, same shadow-checker `state_key`, same telemetry
//! event stream, same snapshots. The differential suite
//! (`crates/check/tests/parallel_differential.rs`) and the thread-count
//! determinism regression test enforce this.

use crate::driver::{Driver, BATCH};
use crate::mode::CoherenceMode;
use raccd_mem::VAddr;
use raccd_obs::Recorder;
use raccd_prof::Site;
use raccd_sim::{speculate_hit_prefix, CoreShard, HitPrefix, MachineConfig};
use std::cmp::Reverse;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Epochs never exceed the spec-touch mask width (one turn per core, and
/// the machine tracks external touches in a 64-bit mask).
const MAX_EPOCH: usize = 64;

/// Which simulation loop advances the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The reference loop: one heap turn at a time, no speculation. This
    /// is the differential oracle every other engine is checked against.
    #[default]
    Serial,
    /// Epoch-parallel: speculate private hit prefixes of upcoming turns
    /// concurrently, commit them in heap order. Bit-identical to
    /// [`Engine::Serial`] for any `threads` (including 1, which runs the
    /// same planner and commit path inline, without worker threads).
    EpochParallel {
        /// Worker threads speculating hit prefixes. `0` and `1` both mean
        /// inline speculation on the coordinator thread.
        threads: usize,
    },
}

impl Engine {
    /// Parse a `--engine` argument (`serial` or `parallel`); `threads` is
    /// the accompanying `--threads` value, ignored for serial.
    pub fn parse(name: &str, threads: usize) -> Option<Engine> {
        match name {
            "serial" => Some(Engine::Serial),
            "parallel" | "epoch" | "epoch-parallel" => Some(Engine::EpochParallel {
                threads: threads.max(1),
            }),
            _ => None,
        }
    }

    /// Short label for job names and telemetry (`serial`, `par4`).
    pub fn label(&self) -> String {
        match self {
            Engine::Serial => "serial".to_string(),
            Engine::EpochParallel { threads } => format!("par{threads}"),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// One upcoming heap turn as the epoch planner sees it. Kept as plain data
/// so the planner is a pure function the property tests can drive with
/// synthetic inputs.
#[derive(Clone, Copy, Debug)]
pub struct PlanTurn {
    /// The turn's heap time.
    pub t: u64,
    /// The core (== hardware context; the planner requires `smt_ways == 1`).
    pub core: usize,
    /// Whether this turn may be speculated at all: an execution turn (a
    /// task is running), no injected failure inside the batch.
    pub eligible: bool,
    /// A lower bound on the turn's duration: `min(BATCH, remaining refs) ×
    /// (TLB + L1 hit latency)`, floored at one NoC hop. The turn re-enters
    /// the heap no earlier than `t + min_cost`, so any later planned turn
    /// starting before that cannot be preempted by this one.
    pub min_cost: u64,
}

/// The epoch planner: the length of the maximal speculable prefix of
/// `turns` (which must be sorted by ascending heap order).
///
/// A prefix entry `j` qualifies iff it is eligible, its core is distinct
/// from every earlier entry's, and `t_j < min_{i<j}(t_i + min_cost_i)` —
/// i.e. turn `j` begins strictly before the conservative lookahead
/// horizon, the earliest instant any earlier turn could re-enter the heap
/// (and hence the earliest a cross-core message could be sent). Cores
/// beyond the 64-bit touch-mask width are never planned.
pub fn plan_epoch(turns: &[PlanTurn]) -> usize {
    let mut horizon = u64::MAX;
    let mut cores_seen = 0u64;
    for (j, turn) in turns.iter().enumerate() {
        if j >= MAX_EPOCH || !turn.eligible || turn.core >= 64 {
            return j;
        }
        if cores_seen & (1 << turn.core) != 0 {
            return j;
        }
        if j > 0 && turn.t >= horizon {
            return j;
        }
        horizon = horizon.min(turn.t.saturating_add(turn.min_cost));
        cores_seen |= 1 << turn.core;
    }
    turns.len()
}

/// One speculation job: everything a worker needs, fully owned (no borrows
/// into the machine), so jobs are `Send` by construction.
struct SpecJob {
    /// Slot the result lands in (plan index).
    idx: usize,
    /// Clone of the core's private state.
    shard: CoreShard,
    /// The turn's batch, stack-rebased, as `(vaddr, is_write)`.
    refs: Vec<(VAddr, bool)>,
    /// Machine configuration (latencies, write policy).
    cfg: MachineConfig,
}

impl SpecJob {
    fn run(self) -> (usize, HitPrefix) {
        (
            self.idx,
            speculate_hit_prefix(&self.cfg, self.shard, &self.refs),
        )
    }
}

/// A persistent pool of speculation workers fed over channels, owned by
/// the [`Driver`] it serves ([`Driver::set_engine`]). With `threads <= 1`
/// no threads are spawned and jobs run inline — the planner and commit
/// paths are identical either way, which is what makes `--threads 1` a
/// useful differential configuration.
pub struct WorkerPool {
    job_tx: Option<Sender<SpecJob>>,
    res_rx: Option<Receiver<(usize, HitPrefix)>>,
    handles: Vec<JoinHandle<()>>,
    shuffle: Option<u64>,
}

/// SplitMix64 step — drives the deterministic submission shuffle.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl WorkerPool {
    /// Spawn `threads` workers (none for `threads <= 1`).
    pub(crate) fn new(threads: usize) -> Self {
        let mut pool = WorkerPool {
            job_tx: None,
            res_rx: None,
            handles: Vec::new(),
            shuffle: None,
        };
        if threads <= 1 {
            return pool;
        }
        let (job_tx, job_rx) = channel::<SpecJob>();
        let (res_tx, res_rx) = channel();
        let job_rx = Arc::new(Mutex::new(job_rx));
        pool.handles = (0..threads)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let res_tx = res_tx.clone();
                std::thread::spawn(move || loop {
                    // Take the lock only for the receive; speculation runs
                    // unlocked so workers overlap.
                    let job = match job_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    let Ok(job) = job else { break };
                    if res_tx.send(job.run()).is_err() {
                        break;
                    }
                })
            })
            .collect();
        pool.job_tx = Some(job_tx);
        pool.res_rx = Some(res_rx);
        pool
    }

    /// Test hook: permute every subsequent scatter's *submission* order by
    /// a deterministic seeded shuffle (a fresh permutation per call). This
    /// simulates adversarial OS scheduling — workers pick jobs up in a
    /// different order, so completion order changes — and the property
    /// tests assert the simulation output does not.
    pub fn set_shuffle(&mut self, salt: u64) {
        self.shuffle = Some(salt);
    }

    /// Run every job, returning results placed by `idx` — the placement,
    /// not the submission or arrival order, defines the merge order, so
    /// the output is invariant under worker scheduling.
    fn scatter(&mut self, mut jobs: Vec<SpecJob>) -> Vec<Option<HitPrefix>> {
        let n = jobs.len();
        if let Some(salt) = self.shuffle.as_mut() {
            for i in (1..n).rev() {
                jobs.swap(i, (splitmix64(salt) % (i as u64 + 1)) as usize);
            }
        }
        let mut out: Vec<Option<HitPrefix>> = (0..n).map(|_| None).collect();
        let mut place = |(idx, prefix): (usize, HitPrefix)| out[idx] = Some(prefix);
        match (&self.job_tx, &self.res_rx) {
            (Some(tx), Some(rx)) => {
                for job in jobs {
                    tx.send(job).expect("speculation worker died");
                }
                for _ in 0..n {
                    place(rx.recv().expect("speculation worker died"));
                }
            }
            // Inline: same code the workers run, same placement.
            _ => jobs.into_iter().map(SpecJob::run).for_each(place),
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channel lets every worker's recv() fail.
        drop(self.job_tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Driver {
    /// Plan the next epoch: the maximal speculable prefix of the heap, as
    /// `(time, ctx)` pairs in commit order. Empty or singleton plans mean
    /// "just step serially".
    fn plan(&self) -> Vec<(u64, usize)> {
        // Speculation models the FullCoh/Raccd private hit path; the PT
        // and TLB-classifier modes consult a global classifier on every
        // reference, and SMT shares one shard between sibling contexts —
        // all of those stay on the serial path.
        if self.cfg.smt_ways != 1
            || !matches!(self.mode, CoherenceMode::FullCoh | CoherenceMode::Raccd)
        {
            return Vec::new();
        }
        let mut entries: Vec<(u64, usize)> = self.heap.iter().map(|&Reverse(e)| e).collect();
        entries.sort_unstable();
        entries.truncate(MAX_EPOCH);
        let hit_cost = (self.cfg.lat.tlb + self.cfg.lat.l1).max(1);
        let min_hop = self.cfg.lat.link + self.cfg.lat.router;
        let turns: Vec<PlanTurn> = entries
            .iter()
            .map(|&(t, ctx)| match self.running[ctx].as_ref() {
                Some(run) => {
                    let end = (run.pos + BATCH).min(run.trace.len());
                    PlanTurn {
                        t,
                        core: ctx,
                        eligible: end > run.pos && run.fail_at.is_none_or(|f| f >= end),
                        min_cost: ((end - run.pos) as u64 * hit_cost).max(min_hop),
                    }
                }
                None => PlanTurn {
                    t,
                    core: ctx,
                    eligible: false,
                    min_cost: 0,
                },
            })
            .collect();
        entries.truncate(plan_epoch(&turns));
        entries
    }

    /// Advance by one epoch (or one serial turn when no epoch forms):
    /// [`Driver::step`] under [`Engine::EpochParallel`]. Returns `false`
    /// when the run is over.
    pub(crate) fn step_epoch(&mut self, mut rec: Option<&mut Recorder>) -> bool {
        let planned = self.plan();
        if planned.len() < 2 {
            return self.turn(None, rec);
        }
        // Speculate every planned turn's hit prefix on shard clones. The
        // machine is not mutated between the clones and the first commit,
        // so clearing the touch mask here is exact.
        let t_bar = raccd_prof::t0(self.machine.prof());
        let jobs: Vec<SpecJob> = planned
            .iter()
            .enumerate()
            .map(|(idx, &(_, ctx))| {
                let run = self.running[ctx].as_ref().expect("planned turn is running");
                let end = (run.pos + BATCH).min(run.trace.len());
                let refs = run.trace[run.pos..end]
                    .iter()
                    .map(|r| {
                        let vaddr = if r.is_stack() {
                            VAddr(self.cfg.stack_base(ctx) + r.addr().0)
                        } else {
                            r.addr()
                        };
                        (vaddr, r.is_write())
                    })
                    .collect();
                SpecJob {
                    idx,
                    shard: self.machine.core_shard(ctx),
                    refs,
                    cfg: self.cfg,
                }
            })
            .collect();
        self.machine.clear_spec_touch();
        let pool = self
            .pool
            .as_mut()
            .expect("set_engine gave the driver a pool");
        let mut prefixes = pool.scatter(jobs);
        let speculated: u64 = prefixes.iter().flatten().map(|p| p.refs.len() as u64).sum();
        raccd_prof::rec_units(self.machine.prof(), Site::EpochBarrier, t_bar, speculated);
        // Commit in planned (= heap) order. Two validations per turn, both
        // conservative: the heap must agree the planned turn is next, and
        // the core must not have been externally touched by an earlier
        // commit's shared-path remainder. On heap disagreement the rest of
        // the plan is stale — drop it and replan next call.
        for (i, &(t, ctx)) in planned.iter().enumerate() {
            if self.heap.peek() != Some(&Reverse((t, ctx))) {
                break;
            }
            let spec = if self.machine.spec_touched(ctx) {
                None
            } else {
                prefixes[i].take()
            };
            if !self.turn(spec, rec.as_deref_mut()) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn turn(t: u64, core: usize, eligible: bool, min_cost: u64) -> PlanTurn {
        PlanTurn {
            t,
            core,
            eligible,
            min_cost,
        }
    }

    #[test]
    fn planner_respects_horizon_and_core_uniqueness() {
        // Four cores, each with a 64-ref batch of 3-cycle hits.
        let c = 64 * 3;
        let ts = [
            turn(100, 0, true, c),
            turn(110, 1, true, c),
            turn(120, 2, true, c),
            turn(100 + c, 3, true, c), // at the horizon: excluded
        ];
        assert_eq!(plan_epoch(&ts), 3);
        // A duplicate core ends the prefix even inside the horizon.
        let dup = [turn(100, 0, true, c), turn(101, 0, true, c)];
        assert_eq!(plan_epoch(&dup), 1);
        // An ineligible turn ends it immediately.
        let sched = [turn(100, 0, false, 0)];
        assert_eq!(plan_epoch(&sched), 0);
        // The horizon is the min over the prefix, not just the first turn.
        let shrink = [
            turn(100, 0, true, 1000),
            turn(101, 1, true, 5), // horizon drops to 106
            turn(107, 2, true, 1000),
        ];
        assert_eq!(plan_epoch(&shrink), 2);
    }

    #[test]
    fn pool_placement_is_submission_order_invariant() {
        let cfg = MachineConfig::scaled();
        let machine = raccd_sim::Machine::new(cfg);
        let mk_jobs = || {
            (0..4)
                .map(|i| SpecJob {
                    idx: i,
                    shard: machine.core_shard(i % cfg.ncores),
                    refs: vec![(VAddr(0x1000 + i as u64 * 64), false)],
                    cfg,
                })
                .collect::<Vec<_>>()
        };
        let mut pool = WorkerPool::new(4);
        let natural = pool.scatter(mk_jobs());
        pool.set_shuffle(7);
        let shuffled = pool.scatter(mk_jobs());
        assert_eq!(natural.len(), shuffled.len());
        for (a, b) in natural.iter().zip(shuffled.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.refs, b.refs, "slot contents independent of order");
        }
    }

    #[test]
    fn engine_parse_and_labels() {
        assert_eq!(Engine::parse("serial", 8), Some(Engine::Serial));
        assert_eq!(
            Engine::parse("parallel", 4),
            Some(Engine::EpochParallel { threads: 4 })
        );
        assert_eq!(
            Engine::parse("parallel", 0),
            Some(Engine::EpochParallel { threads: 1 })
        );
        assert_eq!(Engine::parse("warp", 4), None);
        assert_eq!(Engine::Serial.label(), "serial");
        assert_eq!(Engine::EpochParallel { threads: 4 }.label(), "par4");
    }
}
