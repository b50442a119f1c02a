//! The simulation driver: Figure 3's runtime phases over the machine.
//!
//! Each simulated core cycles through the three phases of a task-parallel
//! runtime — **scheduling**, **task execution**, **wake-up** — plus RaCCD's
//! two additions: **deactivate coherence** (`raccd_register` per dependence,
//! before execution) and **invalidate non-coherent data**
//! (`raccd_invalidate`, after execution).
//!
//! Cores are interleaved by a time-ordered heap: the core with the smallest
//! local clock processes the next batch of its task's memory references, so
//! cache, directory and NoC state evolve under true multicore contention
//! while remaining fully deterministic.
//!
//! Task bodies run *functionally at dispatch* (recording their reference
//! trace): the programming model guarantees a task's annotated data is
//! race-free during its execution window (§II-D), so values cannot depend
//! on the interleaving being simulated.

use crate::census::Census;
use crate::mode::CoherenceMode;
use crate::ncrt::Ncrt;
use crate::pt::{PageClassifier, PtDecision};
use crate::resilience::{DegradeController, DetectReason, FaultReport};
use crate::tlbclass::TlbClassifier;
use raccd_mem::{SimMemory, VAddr};
use raccd_obs::{Event, Gauges, Recorder};
use raccd_runtime::{MemRef, Program, RetryBook, RetryDecision, TaskCtx, TaskGraph, TaskId};
use raccd_sched::{PreemptRecord, ReadyQueue, SchedKind, SchedParams};
use raccd_sim::{
    CheckEvent, CheckReport, CoherenceEvent, FaultPlan, FaultPlane, L1LookupResult, Machine,
    MachineConfig, Stats, TimedEvent, Watchdog,
};
use raccd_snap::{SnapError, Snapshot};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// References processed per core turn before re-entering the heap.
/// Small enough to interleave finely, large enough to amortise heap cost.
const BATCH: usize = 64;

/// Deterministic scheduling jitter (cycles), modelling the wake-up/IPI
/// latency variation of a real runtime. Without it the simulator's
/// perfectly symmetric timing re-assigns every chunk to the same core each
/// iteration, hiding the task-migration behaviour of dynamic schedulers
/// that the paper's PT-vs-RaCCD comparison depends on (§II-B).
fn sched_jitter(core: usize, salt: u64) -> u64 {
    let mut h =
        raccd_mem::SplitMix64::new((core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
    h.next_below(48)
}

struct Running {
    tid: TaskId,
    trace: Vec<MemRef>,
    pos: usize,
    /// Fault plane: the trace index at which this attempt aborts, if any.
    fail_at: Option<usize>,
}

/// The hardware context a turn runs on — thread `tid` of `core` — and the
/// coherence mode in force for what the turn starts
/// ([`Driver::effective_mode`]).
#[derive(Clone, Copy)]
struct Turn {
    ctx: usize,
    core: usize,
    tid: u8,
    mode: CoherenceMode,
}

/// Why [`Driver::flush_nc`] runs `raccd_invalidate`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    /// An injected failure aborted the attempt; it re-executes in place.
    Retry,
    /// The task's quantum expired with another task waiting.
    Preempt,
    /// The task completed.
    Retire,
}

/// Scheduler construction inputs derived from the machine shape and the
/// task graph. Everything here is recomputable, so restore rebuilds it
/// instead of reading it from the snapshot: critical-path priorities are
/// computed only when the `priority` policy will consume them (and must
/// be computed *before* graph replay consumes the dependent lists).
fn sched_params(cfg: &MachineConfig, graph: &TaskGraph) -> SchedParams {
    let nctx = cfg.ncontexts();
    let tiles_per_socket = cfg.mesh_k * cfg.mesh_k;
    let ctx_socket = (0..nctx)
        .map(|ctx| (ctx / cfg.smt_ways) / tiles_per_socket)
        .collect();
    let priorities = if cfg.sched == SchedKind::Priority {
        raccd_sched::critical_path_priorities(graph.len(), |id| graph.dependents(id))
    } else {
        Vec::new()
    };
    SchedParams {
        nctx,
        ctx_socket,
        priorities,
        quantum: cfg.sched_quantum,
    }
}

/// Decode the `driver/sched` snapshot section into the policy `cfg` names.
fn load_sched(
    s: &Snapshot,
    cfg: &MachineConfig,
    params: &SchedParams,
) -> Result<ReadyQueue, SnapError> {
    let mut r = raccd_snap::SnapReader::new(s.raw("driver/sched")?);
    let sched = raccd_sched::load(&mut r, params)?;
    if r.remaining() != 0 {
        return Err(SnapError::TrailingBytes);
    }
    if sched.kind() != cfg.sched {
        return Err(SnapError::Invalid("sched policy mismatch"));
    }
    Ok(sched)
}

/// Everything a timed run produces.
pub struct DriverOutput {
    /// Machine statistics.
    pub stats: Stats,
    /// Protocol events, time-stamped (non-empty only with
    /// `cfg.record_events` and no recorder attached: with telemetry active
    /// they are delivered to the [`Recorder`] as [`Event::Coherence`]
    /// instead).
    pub events: Vec<TimedEvent>,
    /// The Figure 2 block census.
    pub census: Census,
    /// Final memory image (for functional verification).
    pub mem: SimMemory,
    /// Tasks executed.
    pub tasks: usize,
    /// TDG edges.
    pub edges: usize,
    /// Shadow-checker report, when a checker was attached to the machine
    /// (`cfg.shadow_check`, `RACCD_SHADOW_CHECK=1`, or a harness-installed
    /// sink). `None` when no checker ran.
    pub check: Option<CheckReport>,
    /// Fault-plane outcome, when a plane was attached
    /// ([`RunOptions::faults`] or `RACCD_FAULT_SPEC`). `None` otherwise.
    pub fault: Option<FaultReport>,
    /// The scheduler's append-only quantum-preemption audit log (empty
    /// for every policy but `quantum`). Deterministic: identical runs
    /// produce identical logs.
    pub audit: Vec<PreemptRecord>,
}

/// Host-side choices for one [`run`]. The two fields are independent, and
/// only `faults` can change the simulated outcome: the recorder only
/// observes.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Telemetry sink. With `Some(recorder)` the driver emits the full
    /// task-lifecycle and RaCCD-mechanism event stream, feeds the latency
    /// histograms, samples the interval time-series on the global heap
    /// clock, and drains the machine's protocol events into the recorder.
    /// With `None` every hook is a single branch on a niche pointer,
    /// keeping the disabled path within the telemetry overhead budget.
    pub recorder: Option<&'a mut Recorder>,
    /// Build a fault plane from this plan. The run then either completes
    /// with every injected fault recovered (`fault.detected == None`) or
    /// is aborted as *detected* — by the progress watchdog, a message
    /// retry budget, or a task retry budget — never silently wrong.
    /// Sustained NCRT/retry pressure may downgrade RaCCD to full coherence
    /// mid-run (`fault.degraded`).
    pub faults: Option<FaultPlan>,
}

/// Run a program to completion on a machine configured per `cfg` under the
/// given coherence mode: [`Driver::new`] with the options, then
/// [`Driver::finish`].
pub fn run(
    cfg: MachineConfig,
    mode: CoherenceMode,
    program: Program,
    opts: RunOptions<'_>,
) -> DriverOutput {
    let mut rec = opts.recorder;
    Driver::new(cfg, mode, program, opts.faults, rec.as_deref_mut()).finish(rec)
}

/// Rollback-recovery knobs for [`run_resilient`].
#[derive(Clone, Copy, Debug)]
pub struct RollbackPolicy {
    /// Cycles between automatic checkpoints.
    pub checkpoint_interval: u64,
    /// Detections absorbed by rolling back to the last good checkpoint
    /// before the run gives up and surfaces the detection.
    pub max_rollbacks: u32,
}

impl Default for RollbackPolicy {
    fn default() -> Self {
        RollbackPolicy {
            checkpoint_interval: 100_000,
            max_rollbacks: 3,
        }
    }
}

/// A faulty [`run`] with checkpoint-rollback recovery: the driver
/// auto-checkpoints every `policy.checkpoint_interval` cycles and, when a
/// fault is *detected* (watchdog, message or task retry budget), restores
/// the last good checkpoint and resumes instead of aborting — up to
/// `policy.max_rollbacks` times. Each rollback reseeds the fault plane
/// (salted by the rollback count) so the replayed interval does not roll
/// the identical faults and livelock. `make_program` rebuilds the program
/// for each restore; it must be deterministic (every workload builder is).
pub fn run_resilient(
    cfg: MachineConfig,
    mode: CoherenceMode,
    make_program: &dyn Fn() -> Program,
    plan: FaultPlan,
    policy: RollbackPolicy,
    mut rec: Option<&mut Recorder>,
) -> DriverOutput {
    let mut driver = Driver::new(cfg, mode, make_program(), Some(plan), rec.as_deref_mut());
    driver.set_checkpoint_interval(policy.checkpoint_interval);
    let mut last_good: Option<Snapshot> = None;
    let mut rollbacks = 0u32;
    loop {
        while driver.step(rec.as_deref_mut()) {}
        if let Some(ck) = driver.take_last_checkpoint() {
            last_good = Some(ck);
        }
        if driver.detection().is_none() || rollbacks >= policy.max_rollbacks {
            break;
        }
        let Some(snap) = last_good.as_ref() else {
            break;
        };
        let Ok(mut restored) = Driver::restore(cfg, mode, make_program(), snap) else {
            break;
        };
        rollbacks += 1;
        restored.set_checkpoint_interval(policy.checkpoint_interval);
        restored.reseed_faults(rollbacks as u64);
        restored.rollbacks = rollbacks;
        driver = restored;
    }
    driver.finish(rec)
}

raccd_snap::snap_record!(
    Running { tid, trace, pos, fail_at }
    where |run| run.pos <= run.trace.len(),
    "trace position"
);

/// The main simulation loop reified as a resumable struct.
///
/// `Driver::new` + repeated [`Driver::step`] + [`Driver::finish`] is
/// exactly one [`run`] call; [`Driver::run_until`] stops at a
/// cycle boundary, and [`Driver::snapshot`] / [`Driver::restore`] capture
/// and revive the *entire* run — machine (caches, directory, NCRT/ADR
/// state, page table, TLBs, memory, fault plane, shadow checker) plus the
/// runtime (TDG progress, ready queues, in-flight task traces, per-context
/// clocks, the event heap) — so a restored run finishes bit-identical to
/// an uninterrupted one. The task graph itself is never serialized:
/// restore rebuilds the program (deterministic builders) and replays the
/// recorded completion order through the wake-up edges, consuming the
/// bodies of already-dispatched tasks whose functional effect is already
/// in the restored memory image.
pub struct Driver {
    cfg: MachineConfig,
    mode: CoherenceMode,
    machine: Machine,
    mem: SimMemory,
    graph: TaskGraph,
    edges: usize,
    watchdog: Option<Watchdog>,
    retry_book: Option<RetryBook>,
    degrade: Option<DegradeController>,
    detection: Option<DetectReason>,
    ncrts: Vec<Ncrt>,
    pt: PageClassifier,
    tlbc: TlbClassifier,
    census: Census,
    ready: ReadyQueue,
    /// Quantum-preempted tasks awaiting re-dispatch: their trace and
    /// progress survive here while their id waits in the ready queue.
    parked: BTreeMap<TaskId, Running>,
    /// Cycle at which each context's current task was (re)dispatched —
    /// the quantum clock for [`SchedKind::Quantum`].
    quantum_start: Vec<u64>,
    running: Vec<Option<Running>>,
    waker_core: Vec<Option<u32>>,
    wake_time: Vec<u64>,
    trace_pool: Vec<Vec<MemRef>>,
    core_time: Vec<u64>,
    idle: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Tasks in the order they completed (the graph replay script).
    completion_order: Vec<TaskId>,
    end_time: u64,
    ckpt_interval: Option<u64>,
    next_ckpt: u64,
    last_ckpt: Option<Snapshot>,
    rollbacks: u32,
}

impl Driver {
    /// Set up a run: build the machine, arm resilience (with a plan),
    /// announce the TDG to the recorder and seed the ready set.
    pub fn new(
        cfg: MachineConfig,
        mode: CoherenceMode,
        program: Program,
        plan: Option<FaultPlan>,
        mut rec: Option<&mut Recorder>,
    ) -> Driver {
        let Program { mem, graph } = program;
        let edges = graph.edges();
        // Scheduling happens over hardware contexts: cores × SMT ways
        // (§III-E). Context `x` is hardware thread `x % smt_ways` of core
        // `x / smt_ways`.
        let nctx = cfg.ncontexts();

        let mut machine = Machine::new(cfg);
        // Under RaCCD without SMT, a core's NC fills must fall inside the
        // ranges its NCRT currently holds — arm the shadow checker's
        // registration-discipline invariant. (With SMT, sibling contexts
        // share a core-level view the per-core mirror cannot track.)
        if machine.has_checker() && mode == CoherenceMode::Raccd && cfg.smt_ways == 1 {
            machine.check_note(CheckEvent::DisciplineOn);
        }
        if let Some(p) = plan {
            machine.attach_faults(FaultPlane::new(p));
        }
        // The effective plan also covers `RACCD_FAULT_SPEC`
        // auto-attachment. Watchdog, retry book and degrade controller are
        // armed only with a plane attached, so fault-free runs are
        // bit-identical to the seed.
        let fplan = machine.fault_plan();
        let watchdog = fplan.map(|p| Watchdog::new(p.watchdog_cycles));
        let retry_book = fplan.map(|p| RetryBook::new(graph.len(), p.task_retry_budget));
        let degrade = fplan.map(|p| DegradeController::new(&p));
        let ncrts = (0..nctx).map(|_| Ncrt::new(cfg.ncrt_entries)).collect();

        let mut ready = raccd_sched::build(cfg.sched, &sched_params(&cfg, &graph));
        // Telemetry: announce the TDG and the initial ready set at cycle 0.
        if let Some(r) = rec.as_deref_mut() {
            for t in 0..graph.len() {
                let name = r.intern(graph.name(t));
                r.record(Event::TaskCreated {
                    cycle: 0,
                    task: t as u32,
                    name,
                    deps: graph.deps(t).len() as u32,
                });
            }
        }
        // Initial ready set: central queue in creation order; work stealing
        // distributes round-robin so every context starts with local work.
        for (i, t) in graph.initially_ready().into_iter().enumerate() {
            if let Some(r) = rec.as_deref_mut() {
                r.record(Event::TaskWoken {
                    cycle: 0,
                    task: t as u32,
                    waker_core: None,
                });
            }
            ready.push(i % nctx, t);
        }

        let waker_core = vec![None; graph.len()];
        let wake_time = vec![0u64; graph.len()];
        Driver {
            cfg,
            mode,
            machine,
            mem,
            graph,
            edges,
            watchdog,
            retry_book,
            degrade,
            detection: None,
            ncrts,
            pt: PageClassifier::new(),
            tlbc: TlbClassifier::new(),
            census: Census::new(),
            ready,
            parked: BTreeMap::new(),
            quantum_start: vec![0u64; nctx],
            running: (0..nctx).map(|_| None).collect(),
            waker_core,
            wake_time,
            trace_pool: (0..nctx).map(|_| Vec::new()).collect(),
            core_time: vec![0u64; nctx],
            idle: Vec::new(),
            heap: (0..nctx).map(|c| Reverse((0u64, c))).collect(),
            completion_order: Vec::new(),
            end_time: 0,
            ckpt_interval: None,
            next_ckpt: 0,
            last_ckpt: None,
            rollbacks: 0,
        }
    }

    /// Auto-checkpoint every `cycles` heap cycles; the latest snapshot is
    /// retrievable via [`Driver::take_last_checkpoint`].
    pub fn set_checkpoint_interval(&mut self, cycles: u64) {
        let cycles = cycles.max(1);
        self.ckpt_interval = Some(cycles);
        self.next_ckpt = self.next_time().unwrap_or(0) + cycles;
    }

    /// Take the most recent auto-checkpoint, if one was captured.
    pub fn take_last_checkpoint(&mut self) -> Option<Snapshot> {
        self.last_ckpt.take()
    }

    /// Why the run was aborted as detected, if it was.
    pub fn detection(&self) -> Option<DetectReason> {
        self.detection
    }

    /// Tasks retired so far.
    pub fn completed_tasks(&self) -> usize {
        self.completion_order.len()
    }

    /// The next heap cycle to be processed (None when the run is over).
    pub fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// Canonical shadow coherence fingerprint (None without a checker).
    pub fn shadow_state_key(&self) -> Option<String> {
        self.machine.shadow_state_key()
    }

    /// Reseed the attached fault plane's RNG (no-op without one). Rollback
    /// recovery calls this so the replayed interval does not re-roll the
    /// identical faults.
    pub fn reseed_faults(&mut self, salt: u64) {
        if let Some(f) = self.machine.faults_mut() {
            f.reseed(salt);
        }
    }

    /// Step until the next heap entry lies beyond `cycle`. Returns `true`
    /// while the run is still live (more work pending).
    pub fn run_until(&mut self, cycle: u64, mut rec: Option<&mut Recorder>) -> bool {
        while self.next_time().is_some_and(|t| t <= cycle) {
            if !self.step(rec.as_deref_mut()) {
                return false;
            }
        }
        self.detection.is_none() && self.next_time().is_some()
    }

    /// Advance the run by one heap entry — one turn of one hardware
    /// context through Figure 3's phases. An idle context dispatches; a
    /// running one replays a batch of its task's references and then
    /// retries, retires, is preempted, or keeps running. Returns `false`
    /// when the run is over — the heap drained or a detection aborted it —
    /// and from then on touches no state, so a run's output does not
    /// depend on how often its caller paused or polled it.
    pub fn step(&mut self, mut rec: Option<&mut Recorder>) -> bool {
        if self.detection.is_some() {
            return false;
        }
        let Some((t, ctx)) = self.prologue(rec.as_deref_mut()) else {
            return false;
        };
        let at = Turn {
            ctx,
            core: ctx / self.cfg.smt_ways,
            tid: (ctx % self.cfg.smt_ways) as u8,
            mode: self.effective_mode(),
        };
        let now = match self.running[ctx].take() {
            None => self.dispatch(at, t, rec),
            Some(mut run) => {
                let end = (run.pos + BATCH).min(run.trace.len());
                let (now, failed) = self.replay_batch(at, &mut run, end, t, rec.as_deref_mut());
                if failed {
                    self.retry(at, run, now, rec)
                } else if run.pos == run.trace.len() {
                    self.retire(at, run, now, rec)
                } else if self.quantum_expired(ctx, now) {
                    self.preempt(at, run, now, rec)
                } else {
                    self.running[ctx] = Some(run);
                    self.heap.push(Reverse((now, ctx)));
                    now
                }
            }
        };
        self.machine.stats.busy_cycles += now - t;
        self.core_time[ctx] = now;
        self.end_time = self.end_time.max(now);
        self.detection.is_none()
    }

    /// Turn prologue: auto-checkpoint, pop the next heap entry, then
    /// everything that rides the heap clock — detection, degrade
    /// observation, telemetry sampling. `None` ends the run.
    fn prologue(&mut self, mut rec: Option<&mut Recorder>) -> Option<(u64, usize)> {
        // State is consistent only between core turns, so this is where
        // checkpoints are taken.
        if let (Some(interval), Some(t)) = (self.ckpt_interval, self.next_time()) {
            if t >= self.next_ckpt {
                self.last_ckpt = Some(self.snapshot());
                self.next_ckpt = t + interval;
            }
        }
        let Reverse((t, ctx)) = self.heap.pop()?;
        // Resilience checks are armed only with a fault plane attached. A
        // detection aborts the run *visibly*: the caller sees
        // `fault.detected`, never silently wrong output.
        if let Some(w) = self.watchdog.as_ref() {
            if w.expired(t) {
                self.machine.stats.watchdog_fires += 1;
                self.detection = Some(DetectReason::Watchdog {
                    last_progress: w.last_progress,
                    threshold: w.threshold,
                });
                if let Some(r) = rec {
                    r.record(Event::WatchdogFired {
                        cycle: t,
                        last_progress: w.last_progress,
                        threshold: w.threshold,
                    });
                }
                return None;
            }
        }
        if self.machine.fault_fatal() {
            self.detection = Some(DetectReason::MsgRetryBudget);
            return None;
        }
        if let Some(d) = self.degrade.as_mut() {
            let stats = &mut self.machine.stats;
            if self.mode == CoherenceMode::Raccd
                && d.observe(t, stats.ncrt_overflows, stats.msg_retries)
            {
                stats.mode_downgrades += 1;
                let (ov, rt) = d.last_deltas(stats.ncrt_overflows, stats.msg_retries);
                if let Some(r) = rec.as_deref_mut() {
                    r.record(Event::ModeDowngrade {
                        cycle: t,
                        overflows: ov,
                        retries: rt,
                    });
                }
            }
        }
        // The heap time is globally non-decreasing, so it is the sampling
        // clock; machine protocol events are drained here so the unified
        // stream stays roughly time-ordered.
        if let Some(r) = rec {
            if r.sample_due(t) {
                r.maybe_sample(t, &self.machine.stats, self.gauges());
            }
            self.drain_events(r);
        }
        Some((t, ctx))
    }

    /// The mode in force for what a turn *starts*. Under sustained
    /// pressure RaCCD falls back to full coherence for everything new;
    /// tasks already running keep their NC lines until their normal
    /// end-of-task flush, which is why [`Self::flush_nc`] keys on
    /// `self.mode` instead.
    fn effective_mode(&self) -> CoherenceMode {
        match self.degrade.as_ref() {
            Some(d) if d.degraded() && self.mode == CoherenceMode::Raccd => CoherenceMode::FullCoh,
            _ => self.mode,
        }
    }

    fn gauges(&self) -> Gauges {
        let c = self.ready.counters();
        Gauges {
            dir_occupied: self.machine.dir_occupied_total(),
            dir_capacity: self.machine.dir_capacity_total(),
            ready_tasks: self.ready.len() as u64,
            busy_contexts: self.running.iter().filter(|x| x.is_some()).count() as u32,
            sched_popped: c.popped,
            sched_steals: c.steals,
        }
    }

    /// Move the machine's pending protocol events into the recorder.
    fn drain_events(&mut self, r: &mut Recorder) {
        for te in self.machine.take_events() {
            if let CoherenceEvent::RetryRecovered { delay, .. } = te.ev {
                r.hist_retry_latency.record(delay);
            }
            r.record(Event::Coherence {
                cycle: te.cycle,
                ev: te.ev,
            });
        }
    }

    /// Scheduling phase for an idle context: pop a ready task, account
    /// its migration, deactivate coherence for its dependences, then run
    /// its body — or pick its parked trace back up.
    fn dispatch(&mut self, at: Turn, t: u64, mut rec: Option<&mut Recorder>) -> u64 {
        let Turn { ctx, core, .. } = at;
        let Some(task) = self.ready.pop(ctx) else {
            // Nothing ready: park until a wake-up re-arms us.
            self.idle.push(ctx);
            return t;
        };
        let mut now = t + self.cfg.runtime.schedule + sched_jitter(ctx, task as u64);
        if let Some(w) = self.waker_core[task].filter(|&w| w as usize != core) {
            self.machine.stats.task_migrations += 1;
            // Migration-aware NCRT hand-off: the task's regions were
            // produced (or, after preemption, previously registered and
            // flushed) on `w`; the register loop below re-registers them
            // on this core. Count the churn RaCCD pays for it.
            if at.mode == CoherenceMode::Raccd {
                self.machine.stats.ncrt_migrations += 1;
            }
            if let Some(r) = rec.as_deref_mut() {
                r.record(Event::TaskMigrated {
                    cycle: now,
                    task: task as u32,
                    from_core: w,
                    to_core: core as u32,
                });
            }
        }
        if let Some(r) = rec.as_deref_mut() {
            let wait = now.saturating_sub(self.wake_time[task]);
            r.hist_wake_to_dispatch.record(wait);
            let name = r.intern(self.graph.name(task));
            r.record(Event::TaskScheduled {
                cycle: now,
                task: task as u32,
                name,
                ctx: ctx as u32,
                core: core as u32,
                wait_cycles: wait,
            });
        }
        if at.mode == CoherenceMode::Raccd {
            now = self.register_deps(at, task, now, rec);
        }
        let run = match self.parked.remove(&task) {
            // Resuming a quantum-preempted task: its trace and progress
            // survived in the parked map, its body already ran, and the
            // register loop above just re-armed the NCRT on this (possibly
            // different) core — the migration hand-off.
            Some(run) => run,
            None => self.run_body(ctx, task, &mut now),
        };
        debug_assert_eq!(run.tid, task);
        // The quantum clock (re)starts from this dispatch.
        self.quantum_start[ctx] = now;
        self.running[ctx] = Some(run);
        self.heap.push(Reverse((now, ctx)));
        now
    }

    /// Deactivate coherence: one `raccd_register` per dependence of
    /// `task` (§III-B).
    fn register_deps(
        &mut self,
        at: Turn,
        task: TaskId,
        mut now: u64,
        mut rec: Option<&mut Recorder>,
    ) -> u64 {
        let Turn { ctx, core, .. } = at;
        for i in 0..self.graph.deps(task).len() {
            let range = self.graph.deps(task)[i].range;
            // Injected NCRT-pressure storm: the register is rejected; the
            // region simply stays coherent (graceful degradation, counted
            // as an overflow for the degrade controller).
            if self.machine.faults_mut().is_some_and(|f| f.ncrt_storm(now)) {
                self.machine.stats.ncrt_overflows += 1;
                continue;
            }
            let out =
                self.ncrts[ctx].register_region(&mut self.machine, core, range, &self.cfg.runtime);
            self.machine.stats.register_cycles += out.cycles;
            if out.overflowed {
                self.machine.stats.ncrt_overflows += 1;
            }
            if let Some(r) = rec.as_deref_mut() {
                r.record(Event::NcrtRegister {
                    cycle: now,
                    ctx: ctx as u32,
                    core: core as u32,
                    task: task as u32,
                    dur: out.cycles,
                    entries_added: out.entries_added as u32,
                    tlb_lookups: out.tlb_lookups as u32,
                    overflowed: out.overflowed,
                });
            }
            now += out.cycles;
        }
        self.note_ncrt_loaded(at);
        now
    }

    /// Tell the shadow checker which ranges `at`'s NCRT holds, (re)arming
    /// its registration-discipline mirror (without SMT only, see
    /// [`Driver::new`]).
    fn note_ncrt_loaded(&mut self, at: Turn) {
        if self.machine.has_checker() && self.cfg.smt_ways == 1 {
            self.machine.check_note(CheckEvent::NcrtLoaded {
                core: at.core,
                ranges: self.ncrts[at.ctx].entries().to_vec(),
            });
        }
    }

    /// Run `task`'s body functionally, recording its reference trace, and
    /// roll the dispatch for injected faults (a straggler delay advances
    /// `now`).
    fn run_body(&mut self, ctx: usize, task: TaskId, now: &mut u64) -> Running {
        let body = self.graph.take_body(task);
        let mut trace = std::mem::take(&mut self.trace_pool[ctx]);
        trace.clear();
        {
            let mut tcx = TaskCtx::new(&mut self.mem, &mut trace);
            body(&mut tcx);
            tcx.stack_traffic(self.cfg.runtime.stack_words_per_task);
        }
        self.machine.stats.tasks_executed += 1;
        let mut fail_at = None;
        let trace_len = trace.len();
        if let Some(inj) = self
            .machine
            .faults_mut()
            .map(|f| f.roll_task(*now, trace_len))
        {
            fail_at = inj.fail_at;
            if inj.straggle > 0 {
                self.machine.stats.task_straggles += 1;
                *now += inj.straggle;
            }
        }
        Running {
            tid: task,
            trace,
            pos: 0,
            fail_at,
        }
    }

    /// Task execution phase: replay `run`'s references up to `end`
    /// through the memory system. Returns the advanced clock and whether
    /// the attempt hit its injected failure point.
    ///
    /// A batch whose first three references share a block is replayed run
    /// by run ([`Driver::hit_rest`]); any other batch reference by
    /// reference, as runs are rare there.
    fn replay_batch(
        &mut self,
        at: Turn,
        run: &mut Running,
        end: usize,
        mut now: u64,
        mut rec: Option<&mut Recorder>,
    ) -> (u64, bool) {
        let runs =
            matches!(run.trace[run.pos..end], [a, b, c, ..] if a.same_block(b) && a.same_block(c));
        while run.pos < end {
            if run.fail_at == Some(run.pos) {
                return (now, true);
            }
            let r = run.trace[run.pos];
            run.pos += 1;
            let bank_wait_before = self.machine.stats.bank_wait_cycles;
            let cycles = self.process_ref(at, r, now, rec.as_deref_mut());
            now += cycles;
            if let Some(rr) = rec.as_deref_mut() {
                rr.hist_mem_latency.record(cycles);
                rr.hist_bank_wait
                    .record(self.machine.stats.bank_wait_cycles - bank_wait_before);
            }
            if runs {
                now += self.hit_rest(at, run, end, rec.as_deref_mut()).unwrap_or(0);
            }
        }
        (now, false)
    }

    /// Account the references that follow the one just replayed, `r`, in
    /// its block, up to `end` and the failure point, in one
    /// [`Machine::hit_run`] step when there are two or more, and return
    /// their cycles; `None` leaves them to the per-reference loop. Each of
    /// them would translate through the TLB slot `r` just used and hit the
    /// line `r` just touched, so one step leaves what they would. The
    /// mode's own per-reference work adds nothing to a hit: PT's
    /// `on_access` for `r`'s core and page returns Private or Shared from
    /// then on and changes no state, and the TLB classifier's hit path is a
    /// TLB lookup and a read of the page's class. A run `hit_run` refuses
    /// (an upgrade, a write-through) is replayed reference by reference.
    // Out of line, and the loop above not duplicated for gated batches:
    // a second inlined `process_ref` stops `translate` and `l1_lookup`
    // being inlined into either copy, which costs run-poor batches 5-18 %.
    #[inline(never)]
    fn hit_rest(
        &mut self,
        at: Turn,
        run: &mut Running,
        end: usize,
        rec: Option<&mut Recorder>,
    ) -> Option<u64> {
        let r = run.trace[run.pos - 1];
        let rest = &run.trace[run.pos..run.fail_at.map_or(end, |f| f.min(end)).max(run.pos)];
        let k = rest.iter().take_while(|x| x.same_block(r)).count();
        // Rebased as in `process_ref`, off its path.
        let vaddr = VAddr(r.addr().0 + self.cfg.stack_base(at.ctx) * r.is_stack() as u64);
        let cycles = (k >= 2).then(|| self.machine.hit_run(at.core, vaddr, &rest[..k]))??;
        run.pos += k;
        if let Some(rr) = rec {
            rr.hist_mem_latency.record_n(cycles / k as u64, k as u64);
            rr.hist_bank_wait.record_n(0, k as u64);
        }
        Some(cycles)
    }

    /// Invalidate non-coherent data (`raccd_invalidate`): flush the NC
    /// lines `at` holds, for one of three reasons. An aborted attempt
    /// ([`FlushReason::Retry`]) keeps its NCRT for the re-execution and
    /// only re-arms the checker; a preempted or retired task also clears
    /// the NCRT and reports the flush as an [`Event::NcrtInvalidate`].
    fn flush_nc(
        &mut self,
        at: Turn,
        task: TaskId,
        now: u64,
        reason: FlushReason,
        rec: Option<&mut Recorder>,
    ) -> u64 {
        if self.mode != CoherenceMode::Raccd {
            return now;
        }
        let Turn { ctx, core, tid, .. } = at;
        let selective = self.cfg.smt_ways > 1 && self.cfg.smt_selective_flush;
        let flushed_before = self.machine.stats.nc_lines_flushed;
        let cycles = self
            .machine
            .flush_nc_filtered(core, selective.then_some(tid), now);
        self.machine.stats.invalidate_cycles += cycles;
        if self.machine.has_checker() && self.cfg.smt_ways == 1 {
            self.machine.check_note(CheckEvent::NcInvalidate { core });
        }
        if reason == FlushReason::Retry {
            self.note_ncrt_loaded(at);
        } else {
            self.ncrts[ctx].clear();
            if let Some(r) = rec {
                r.record(Event::NcrtInvalidate {
                    cycle: now,
                    ctx: ctx as u32,
                    core: core as u32,
                    task: task as u32,
                    dur: cycles,
                    lines_flushed: self.machine.stats.nc_lines_flushed - flushed_before,
                });
            }
        }
        now + cycles
    }

    /// An injected task failure aborts this attempt. RaCCD's
    /// `raccd_invalidate` discards the attempt's NC residue, which is
    /// exactly what makes re-execution idempotent (the oracle asserts
    /// this in the fault campaign).
    fn retry(
        &mut self,
        at: Turn,
        mut run: Running,
        now: u64,
        mut rec: Option<&mut Recorder>,
    ) -> u64 {
        self.machine.stats.task_retries += 1;
        let decision = self
            .retry_book
            .as_mut()
            .map(|b| b.note_failure(run.tid))
            .unwrap_or(RetryDecision::Exhausted);
        let RetryDecision::Retry(attempt) = decision else {
            self.detection = Some(DetectReason::TaskRetryBudget { task: run.tid });
            return now;
        };
        let now = self.flush_nc(at, run.tid, now, FlushReason::Retry, rec.as_deref_mut());
        if let Some(r) = rec {
            r.record(Event::TaskRetry {
                cycle: now,
                task: run.tid as u32,
                ctx: at.ctx as u32,
                attempt,
            });
        }
        // Fresh roll: the retry may fail elsewhere.
        let trace_len = run.trace.len();
        run.fail_at = self
            .machine
            .faults_mut()
            .and_then(|f| f.roll_task(now, trace_len).fail_at);
        run.pos = 0;
        self.running[at.ctx] = Some(run);
        self.heap.push(Reverse((now, at.ctx)));
        now
    }

    /// Whether `ctx`'s task has used up its quantum *and* another task is
    /// actually waiting — a lone task never bounces. `SchedKind::Quantum`
    /// only; evaluated at batch boundaries, so preemption is
    /// deterministic.
    fn quantum_expired(&self, ctx: usize, now: u64) -> bool {
        let expired = self
            .ready
            .quantum()
            .is_some_and(|q| now.saturating_sub(self.quantum_start[ctx]) >= q);
        expired && !self.ready.is_empty()
    }

    /// Quantum preemption: the task flushes its NC residue exactly like a
    /// completing task (the NCRT hand-off is re-registration at the next
    /// dispatch), re-enters the ready queue at the back with its trace
    /// parked, and the decision lands in the append-only audit log.
    fn preempt(&mut self, at: Turn, run: Running, now: u64, mut rec: Option<&mut Recorder>) -> u64 {
        let now = self.flush_nc(at, run.tid, now, FlushReason::Preempt, rec.as_deref_mut());
        self.machine.stats.preemptions += 1;
        self.ready.note_preempt(PreemptRecord {
            cycle: now,
            task: run.tid,
            ctx: at.ctx,
            pos: run.pos,
            remaining: run.trace.len() - run.pos,
        });
        self.wake(at, run.tid, now, rec);
        self.parked.insert(run.tid, run);
        self.heap.push(Reverse((now, at.ctx)));
        now
    }

    /// A task's last reference is done: invalidate its non-coherent data,
    /// then the wake-up phase — complete it in the TDG, queue the tasks it
    /// released and unpark idle contexts for them.
    fn retire(&mut self, at: Turn, run: Running, now: u64, mut rec: Option<&mut Recorder>) -> u64 {
        let mut now = self.flush_nc(at, run.tid, now, FlushReason::Retire, rec.as_deref_mut());
        let ndeps = self.graph.dependent_count(run.tid) as u64;
        now += self.cfg.runtime.wakeup_base + ndeps * self.cfg.runtime.wakeup_per_dep;
        if let Some(r) = rec.as_deref_mut() {
            r.record(Event::TaskCompleted {
                cycle: now,
                task: run.tid as u32,
                ctx: at.ctx as u32,
                refs: run.trace.len() as u64,
            });
        }
        for woken in self.graph.complete(run.tid) {
            self.wake(at, woken, now, rec.as_deref_mut());
        }
        self.completion_order.push(run.tid);
        if let Some(w) = self.watchdog.as_mut() {
            w.note_progress(now);
        }
        self.trace_pool[at.ctx] = run.trace;
        // Unpark idle cores while work is available.
        for _ in 0..self.ready.len() {
            let Some(ic) = self.idle.pop() else { break };
            let wake =
                self.core_time[ic].max(now) + sched_jitter(ic, self.completion_order.len() as u64);
            self.heap.push(Reverse((wake, ic)));
        }
        self.heap.push(Reverse((now, at.ctx)));
        now
    }

    /// Queue `task` as ready from `at`, remembering where and when it was
    /// woken (the migration and wake-to-dispatch accounting read both).
    fn wake(&mut self, at: Turn, task: TaskId, now: u64, rec: Option<&mut Recorder>) {
        self.waker_core[task] = Some(at.core as u32);
        self.wake_time[task] = now;
        if let Some(r) = rec {
            r.record(Event::TaskWoken {
                cycle: now,
                task: task as u32,
                waker_core: Some(at.core as u32),
            });
        }
        self.ready.push(at.ctx, task);
    }

    /// Capture the entire run as a [`Snapshot`]: every machine section
    /// (see [`Machine::snapshot`]) plus the driver's runtime state.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = self.machine.snapshot();
        s.put("driver/mode", &self.mode);
        s.put("driver/mem", &self.mem);
        s.put("driver/ntasks", &self.graph.len());
        s.put("driver/completion_order", &self.completion_order);
        s.put("driver/watchdog", &self.watchdog);
        s.put("driver/retry_book", &self.retry_book);
        s.put("driver/degrade", &self.degrade);
        s.put("driver/ncrts", &self.ncrts);
        s.put("driver/pt", &self.pt);
        s.put("driver/tlbc", &self.tlbc);
        s.put("driver/census", &self.census);
        // The scheduler serialises behind its registry tag; machine-shape
        // inputs (sockets, priorities, quantum) are rebuilt on restore.
        let mut w = raccd_snap::SnapWriter::new();
        raccd_sched::save(&self.ready, &mut w);
        s.put_raw("driver/sched", w.into_bytes());
        s.put("driver/parked", &self.parked);
        s.put("driver/quantum_start", &self.quantum_start);
        s.put("driver/running", &self.running);
        s.put("driver/waker_core", &self.waker_core);
        s.put("driver/wake_time", &self.wake_time);
        s.put("driver/core_time", &self.core_time);
        s.put("driver/idle", &self.idle);
        let mut heap: Vec<(u64, usize)> = self.heap.iter().map(|&Reverse(x)| x).collect();
        heap.sort_unstable();
        s.put("driver/heap", &heap);
        s.put("driver/end_time", &self.end_time);
        s.put("driver/rollbacks", &self.rollbacks);
        s
    }

    /// Revive a run from a snapshot. `cfg` and `mode` must match the
    /// captured run, and `program` must be the same program rebuilt (the
    /// builders are deterministic); the graph is replayed to the captured
    /// point rather than deserialized, because task bodies are closures.
    pub fn restore(
        cfg: MachineConfig,
        mode: CoherenceMode,
        program: Program,
        s: &Snapshot,
    ) -> Result<Driver, SnapError> {
        let smode: CoherenceMode = s.get("driver/mode")?;
        if smode != mode {
            return Err(SnapError::Invalid("coherence mode mismatch"));
        }
        let machine = Machine::restore(cfg, s)?;
        let Program { mem: _, mut graph } = program;
        let edges = graph.edges();
        let ntasks: usize = s.get("driver/ntasks")?;
        if graph.len() != ntasks {
            return Err(SnapError::Invalid("program shape mismatch"));
        }
        let nctx = cfg.ncontexts();
        // Scheduler params must be derived while the graph is still
        // pristine: the replay below consumes the dependent lists the
        // critical-path priorities are computed from.
        let sched_params = sched_params(&cfg, &graph);
        let completion_order: Vec<TaskId> = s.get("driver/completion_order")?;
        let running: Vec<Option<Running>> = s.get("driver/running")?;
        let ncrts: Vec<Ncrt> = s.get("driver/ncrts")?;
        let waker_core: Vec<Option<u32>> = s.get("driver/waker_core")?;
        let wake_time: Vec<u64> = s.get("driver/wake_time")?;
        let core_time: Vec<u64> = s.get("driver/core_time")?;
        let idle: Vec<usize> = s.get("driver/idle")?;
        let heap_vec: Vec<(u64, usize)> = s.get("driver/heap")?;
        if running.len() != nctx
            || ncrts.len() != nctx
            || core_time.len() != nctx
            || waker_core.len() != ntasks
            || wake_time.len() != ntasks
            || idle.iter().any(|&c| c >= nctx)
            || heap_vec.iter().any(|&(_, c)| c >= nctx)
        {
            return Err(SnapError::Invalid("driver geometry"));
        }
        // Replay the TDG to the captured point: completions re-walk the
        // wake-up edges in their original order; bodies of completed and
        // in-flight tasks are consumed (their functional effect is already
        // in the restored memory image).
        let mut seen = vec![false; ntasks];
        for &id in &completion_order {
            if id >= ntasks || seen[id] {
                return Err(SnapError::Invalid("completion order"));
            }
            seen[id] = true;
            drop(graph.take_body(id));
            let _ = graph.complete(id);
        }
        for run in running.iter().flatten() {
            if run.tid >= ntasks || seen[run.tid] {
                return Err(SnapError::Invalid("running task id"));
            }
            seen[run.tid] = true;
            drop(graph.take_body(run.tid));
        }
        // Quantum-preempted tasks: dispatched (body consumed) but neither
        // running nor complete.
        let parked: BTreeMap<TaskId, Running> = s.get("driver/parked")?;
        for (&id, run) in &parked {
            if id >= ntasks || seen[id] || run.tid != id {
                return Err(SnapError::Invalid("parked task id"));
            }
            seen[id] = true;
            drop(graph.take_body(id));
        }
        let quantum_start: Vec<u64> = s.get("driver/quantum_start")?;
        if quantum_start.len() != nctx {
            return Err(SnapError::Invalid("quantum clock geometry"));
        }
        let pt: PageClassifier = s.get("driver/pt")?;
        if pt.names_core_at_or_above(cfg.ncores) {
            return Err(SnapError::Invalid("page owner core"));
        }
        let ready = load_sched(s, &cfg, &sched_params)?;
        Ok(Driver {
            cfg,
            mode,
            machine,
            mem: s.get("driver/mem")?,
            graph,
            edges,
            watchdog: s.get("driver/watchdog")?,
            retry_book: s.get("driver/retry_book")?,
            degrade: s.get("driver/degrade")?,
            detection: None,
            ncrts,
            pt,
            tlbc: s.get("driver/tlbc")?,
            census: s.get("driver/census")?,
            ready,
            parked,
            quantum_start,
            running,
            waker_core,
            wake_time,
            trace_pool: (0..nctx).map(|_| Vec::new()).collect(),
            core_time,
            idle,
            heap: heap_vec.into_iter().map(Reverse).collect(),
            completion_order,
            end_time: s.get("driver/end_time")?,
            ckpt_interval: None,
            next_ckpt: 0,
            last_ckpt: None,
            rollbacks: s.get("driver/rollbacks")?,
        })
    }

    /// Run to the end and tear the run down into its output.
    pub fn finish(mut self, mut rec: Option<&mut Recorder>) -> DriverOutput {
        while self.step(rec.as_deref_mut()) {}
        let completed = self.completion_order.len();
        // A detection ends the run early by design; only a clean run
        // promises every task retired.
        if self.detection.is_none() {
            assert_eq!(
                completed,
                self.graph.len(),
                "simulation ended with unexecuted tasks (TDG cycle?)"
            );
        }
        self.machine.stats.contexts = self.cfg.ncontexts() as u64;
        // With telemetry active the tail of the protocol stream goes to
        // the recorder, like the rest.
        if let Some(r) = rec.as_deref_mut() {
            self.drain_events(r);
        }
        let events = self.machine.take_events();
        // Unified scheduler counters land in Stats just before the final
        // freeze, so every policy reports them symmetrically.
        let c = self.ready.counters();
        self.machine.stats.sched_pushed = c.pushed;
        self.machine.stats.sched_popped = c.popped;
        self.machine.stats.sched_local_pops = c.local_pops;
        self.machine.stats.sched_steals = c.steals;
        let stats = self.machine.finalize(self.end_time);
        if let Some(r) = rec {
            // The closing sample reports an emptied machine even when a
            // detection left tasks behind.
            let gauges = Gauges {
                ready_tasks: 0,
                busy_contexts: 0,
                ..self.gauges()
            };
            r.finish(self.end_time, &stats, gauges);
        }
        let check = self.machine.detach_checker();
        let fault = self.machine.fault_stats().map(|fs| FaultReport {
            stats: fs,
            detected: self.detection,
            degraded: self.degrade.as_ref().is_some_and(|d| d.degraded()),
            tasks_completed: completed,
            task_retries: stats.task_retries,
            rollbacks: self.rollbacks,
        });
        DriverOutput {
            stats,
            events,
            census: self.census,
            mem: self.mem,
            tasks: completed,
            edges: self.edges,
            check,
            fault,
            audit: self.ready.audit().to_vec(),
        }
    }

    /// Process one memory reference of hardware context `at.ctx` at time
    /// `now`. Returns cycles.
    #[inline]
    fn process_ref(&mut self, at: Turn, r: MemRef, now: u64, rec: Option<&mut Recorder>) -> u64 {
        let Turn {
            ctx,
            core,
            tid,
            mode,
        } = at;
        let machine = &mut self.machine;
        let vaddr = if r.is_stack() {
            VAddr(self.cfg.stack_base(ctx) + r.addr().0)
        } else {
            r.addr()
        };
        // The TLB-classifier mode owns translation (it piggybacks the
        // private/shared resolution on TLB misses, §II-B).
        let mut page_private = false;
        let (paddr, mut cycles) = if mode == CoherenceMode::TlbClass {
            let out = self.tlbc.translate(machine, core, vaddr, now);
            page_private = out.private;
            (out.paddr, out.cycles)
        } else {
            machine.translate(core, vaddr)
        };
        let block = paddr.block();
        let write = r.is_write();

        // PT classification acts on every access (the OS sees the touch).
        if mode == CoherenceMode::PageTable {
            match self.pt.on_access(core, paddr.page()) {
                PtDecision::Private => page_private = true,
                PtDecision::Shared => {}
                PtDecision::Transition { prev_owner } => {
                    machine.stats.pt_shared_transitions += 1;
                    let flushed_before = machine.stats.pt_flush_lines;
                    cycles += machine.flush_page(prev_owner, paddr.page(), vaddr.page(), now);
                    if let Some(r) = rec {
                        r.record(Event::PtTransition {
                            cycle: now,
                            prev_owner: prev_owner as u32,
                            page: paddr.page().0,
                            flushed_lines: machine.stats.pt_flush_lines - flushed_before,
                        });
                    }
                }
            }
        }

        match machine.l1_lookup(core, block, write, now) {
            L1LookupResult::Hit { cycles: c, .. } => cycles += c,
            L1LookupResult::Miss => {
                let nc = match mode {
                    CoherenceMode::FullCoh => false,
                    CoherenceMode::PageTable | CoherenceMode::TlbClass => page_private,
                    CoherenceMode::Raccd => {
                        // The NCRT consultation delays every private-cache miss
                        // (§V-C studies this latency).
                        cycles += self.cfg.lat.ncrt;
                        self.ncrts[ctx].lookup(paddr)
                    }
                };
                cycles += machine.miss_fill_smt(core, tid, block, write, nc, now);
                // A line's NC bit is fixed while it is resident, so a hit
                // could only repeat what its installing fill records here.
                self.census.record(block, !nc);
            }
        }
        machine.stats.refs_processed += 1;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_mem::addr::VRange;
    use raccd_runtime::{Dep, ProgramBuilder};

    /// A small two-phase stencil-like program: 16 writer tasks, then 16
    /// reader tasks each consuming a 3-row neighbourhood. The cross-row
    /// dependences make rows migrate between cores under the dynamic FIFO
    /// scheduler — the temporarily-private pattern of §II-B.
    fn two_phase_program() -> Program {
        let mut b = ProgramBuilder::new();
        let n_rows = 16u64;
        let row_bytes = 4096u64;
        let data = b.alloc("data", n_rows * row_bytes);
        let row_range = move |i: u64| VRange::new(data.start.offset(i * row_bytes), row_bytes);
        for i in 0..n_rows {
            let row = row_range(i);
            b.task("write", vec![Dep::output(row)], move |ctx| {
                for w in 0..row_bytes / 8 {
                    ctx.write_u64(row.start.offset(w * 8), i * 1000 + w);
                }
            });
        }
        for i in 0..n_rows {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(n_rows - 1);
            let mut deps: Vec<Dep> = (lo..=hi).map(|j| Dep::input(row_range(j))).collect();
            let sum_out = b.alloc(&format!("sum{i}"), 8);
            deps.push(Dep::output(sum_out));
            b.task("read", deps, move |ctx| {
                let mut s = 0u64;
                for j in lo..=hi {
                    let row = row_range(j);
                    for w in 0..row_bytes / 8 {
                        s = s.wrapping_add(ctx.read_u64(row.start.offset(w * 8)));
                    }
                }
                ctx.write_u64(sum_out.start, s);
            });
        }
        b.finish()
    }

    fn run_on(cfg: MachineConfig, mode: CoherenceMode) -> DriverOutput {
        run(cfg, mode, two_phase_program(), RunOptions::default())
    }

    fn run_mode(mode: CoherenceMode) -> DriverOutput {
        run_on(MachineConfig::scaled(), mode)
    }

    fn run_faulty(plan: FaultPlan) -> DriverOutput {
        let opts = RunOptions {
            faults: Some(plan),
            ..RunOptions::default()
        };
        run(
            MachineConfig::scaled(),
            CoherenceMode::Raccd,
            two_phase_program(),
            opts,
        )
    }

    #[test]
    fn all_modes_complete_and_agree_functionally() {
        // Reader 0 sums rows 0 and 1: Σ_{j∈{0,1}} Σ_w (j·1000 + w).
        let per_row: u64 = (0..4096 / 8).sum();
        let expected = per_row + (per_row + 512 * 1000);
        for mode in CoherenceMode::ALL {
            let out = run_mode(mode);
            assert_eq!(out.tasks, 32, "{mode}: all tasks executed");
            assert!(out.stats.cycles > 0);
            let sum_addr = out.mem.allocations()[1].1.start;
            assert_eq!(
                out.mem.read_u64(sum_addr),
                expected,
                "{mode}: functional result"
            );
        }
    }

    #[test]
    fn raccd_uses_fewer_directory_accesses() {
        let full = run_mode(CoherenceMode::FullCoh);
        let raccd = run_mode(CoherenceMode::Raccd);
        assert!(
            raccd.stats.dir_accesses < full.stats.dir_accesses / 2,
            "RaCCD {} vs FullCoh {}",
            raccd.stats.dir_accesses,
            full.stats.dir_accesses
        );
    }

    #[test]
    fn raccd_census_beats_pt_on_temporarily_private_data() {
        // The FIFO scheduler migrates rows between cores across the two
        // phases, so PT classifies them shared while RaCCD keeps them
        // non-coherent (Figure 2's CG/Gauss/Jacobi effect).
        let ptr = run_mode(CoherenceMode::PageTable);
        let rcd = run_mode(CoherenceMode::Raccd);
        let pt_pct = ptr.census.summary().noncoherent_pct();
        let rc_pct = rcd.census.summary().noncoherent_pct();
        assert!(
            rc_pct > pt_pct,
            "RaCCD {rc_pct:.1}% should exceed PT {pt_pct:.1}%"
        );
        assert!(rc_pct > 50.0, "most blocks are task data: {rc_pct:.1}%");
    }

    #[test]
    fn fullcoh_census_is_all_coherent() {
        let out = run_mode(CoherenceMode::FullCoh);
        assert_eq!(out.census.summary().noncoherent_blocks, 0);
    }

    #[test]
    fn raccd_pays_register_and_invalidate() {
        let out = run_mode(CoherenceMode::Raccd);
        assert!(out.stats.register_cycles > 0);
        assert!(out.stats.invalidate_cycles > 0);
        assert!(out.stats.nc_lines_flushed > 0);
    }

    #[test]
    fn pt_sees_transitions() {
        let out = run_mode(CoherenceMode::PageTable);
        assert!(
            out.stats.pt_shared_transitions > 0,
            "two-phase data must migrate"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_mode(CoherenceMode::Raccd);
        let b = run_mode(CoherenceMode::Raccd);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.dir_accesses, b.stats.dir_accesses);
        assert_eq!(a.stats.noc_traffic, b.stats.noc_traffic);
        assert_eq!(a.stats.refs_processed, b.stats.refs_processed);
    }

    fn mem_words(out: &DriverOutput) -> Vec<u64> {
        out.mem
            .allocations()
            .iter()
            .flat_map(|(_, r)| (0..r.len / 8).map(|w| out.mem.read_u64(r.start.offset(w * 8))))
            .collect()
    }

    #[test]
    fn faulty_run_recovers_bit_identical_to_fault_free_twin() {
        let clean = run_mode(CoherenceMode::Raccd);
        let plan = FaultPlan {
            seed: 42,
            drop: 0.02,
            corrupt: 0.01,
            delay: 0.02,
            ..FaultPlan::default()
        };
        let faulty = run_faulty(plan);
        let report = faulty.fault.expect("plane attached");
        assert!(report.recovered(), "modest rates recover: {report:?}");
        assert!(report.stats.injected > 0, "faults were actually injected");
        assert_eq!(faulty.tasks, clean.tasks);
        assert_eq!(mem_words(&faulty), mem_words(&clean), "bit-identical");
        // Fault handling cost cycles but never correctness.
        assert!(faulty.stats.cycles >= clean.stats.cycles);
    }

    #[test]
    fn task_failures_reexecute_idempotently() {
        let clean = run_mode(CoherenceMode::Raccd);
        let plan = FaultPlan {
            seed: 9,
            task_fail: 0.3,
            ..FaultPlan::default()
        };
        let faulty = run_faulty(plan);
        let report = faulty.fault.expect("plane attached");
        assert!(report.recovered(), "{report:?}");
        assert!(
            report.task_retries > 0,
            "30% task-fail must trigger retries"
        );
        // The RaCCD idempotence argument: re-executed tasks leave memory
        // exactly as a fault-free run would.
        assert_eq!(mem_words(&faulty), mem_words(&clean));
        assert_eq!(faulty.tasks, clean.tasks);
    }

    #[test]
    fn exhausted_task_budget_is_detected() {
        let plan = FaultPlan {
            seed: 1,
            task_fail: 1.0,
            task_retry_budget: 2,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert!(
            matches!(report.detected, Some(DetectReason::TaskRetryBudget { .. })),
            "certain task failure must exhaust the budget: {report:?}"
        );
        assert!(out.tasks < 32, "the run aborted early");
    }

    #[test]
    fn exhausted_message_budget_is_detected() {
        let plan = FaultPlan {
            seed: 2,
            drop: 1.0,
            retry_budget: 2,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert_eq!(report.detected, Some(DetectReason::MsgRetryBudget));
        assert!(report.stats.budget_exhausted > 0);
    }

    #[test]
    fn straggler_beyond_watchdog_is_detected() {
        let plan = FaultPlan {
            seed: 5,
            straggle: 1.0,
            straggle_cycles: 500_000,
            watchdog_cycles: 100_000,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert!(
            matches!(report.detected, Some(DetectReason::Watchdog { .. })),
            "hung simulation must trip the watchdog: {report:?}"
        );
        assert!(out.stats.watchdog_fires > 0);
    }

    /// A detection latches: polling or pausing a detected run any number
    /// of times moves no state, so its output does not depend on how the
    /// caller drove it.
    #[test]
    fn detected_run_ignores_further_stepping() {
        let task_budget = FaultPlan {
            seed: 1,
            task_fail: 1.0,
            task_retry_budget: 2,
            ..FaultPlan::default()
        };
        let watchdog = FaultPlan {
            seed: 5,
            straggle: 1.0,
            straggle_cycles: 500_000,
            watchdog_cycles: 100_000,
            ..FaultPlan::default()
        };
        for plan in [task_budget, watchdog] {
            let reference = run_faulty(plan);
            let mut d = Driver::new(
                MachineConfig::scaled(),
                CoherenceMode::Raccd,
                two_phase_program(),
                Some(plan),
                None,
            );
            while d.step(None) {}
            assert!(d.detection().is_some(), "{plan:?} must be detected");
            let latched = d.snapshot().to_bytes();
            assert!(!d.step(None));
            assert!(!d.run_until(u64::MAX, None));
            assert!(!d.run_until(0, None), "a detected run is never live");
            assert_eq!(d.snapshot().to_bytes(), latched, "state moved: {plan:?}");
            let out = d.finish(None);
            assert_eq!(out.stats, reference.stats, "{plan:?}");
            let (got, want) = (out.fault.unwrap(), reference.fault.unwrap());
            assert_eq!(got.detected, want.detected);
            assert_eq!(got.stats.injected, want.stats.injected);
        }
    }

    #[test]
    fn sustained_storm_degrades_to_full_coherence() {
        let clean = run_mode(CoherenceMode::Raccd);
        let plan = FaultPlan {
            seed: 8,
            storm: 0.9,
            storm_len: 100_000,
            degrade_window: 1_000_000,
            degrade_overflows: 4,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert!(report.degraded, "sustained NCRT pressure must downgrade");
        assert!(report.recovered(), "degradation is graceful: {report:?}");
        assert_eq!(out.stats.mode_downgrades, 1, "downgrade latches once");
        assert_eq!(out.tasks, 32, "the run still completes");
        assert_eq!(mem_words(&out), mem_words(&clean), "results unchanged");
    }

    #[test]
    fn zero_rate_plan_matches_plain_run_exactly() {
        let clean = run_mode(CoherenceMode::Raccd);
        let idle = run_faulty(FaultPlan::default());
        assert_eq!(idle.stats, clean.stats, "zero-fault config is neutral");
        assert_eq!(mem_words(&idle), mem_words(&clean));
        let report = idle.fault.expect("plane attached");
        assert_eq!(report.stats.injected, 0);
    }

    /// Every `driver/*` section is required: an archive without the
    /// scheduler's `parked` or `quantum_start` is refused by name, not
    /// restored with defaults.
    #[test]
    fn restore_refuses_an_archive_missing_a_scheduler_section() {
        let (cfg, mode) = (MachineConfig::scaled(), CoherenceMode::Raccd);
        let mut d = Driver::new(cfg, mode, two_phase_program(), None, None);
        for _ in 0..100 {
            assert!(d.step(None));
        }
        let full = Snapshot::from_bytes(&d.snapshot().to_bytes()).expect("own archive loads");
        assert!(Driver::restore(cfg, mode, two_phase_program(), &full).is_ok());
        for missing in ["driver/parked", "driver/quantum_start"] {
            let mut s = Snapshot::new();
            for tag in full.tags().into_iter().filter(|&t| t != missing) {
                s.put_raw(tag, full.raw(tag).unwrap().to_vec());
            }
            let s = Snapshot::from_bytes(&s.to_bytes()).expect("a well-formed archive");
            assert_eq!(
                Driver::restore(cfg, mode, two_phase_program(), &s).err(),
                Some(SnapError::MissingSection {
                    tag: missing.to_string()
                }),
            );
        }
    }

    /// A CRC-valid archive whose first directory bank says 3 ways over
    /// its 8-way array is refused at restore. Accepted, the bank panics at
    /// the first ADR resize, which divides its capacity by 3.
    #[test]
    fn restore_refuses_a_directory_bank_its_array_contradicts() {
        let cfg = MachineConfig {
            adr: true,
            ..MachineConfig::scaled()
        };
        let mode = CoherenceMode::FullCoh;
        let mut d = Driver::new(cfg, mode, two_phase_program(), None, None);
        for _ in 0..100 {
            assert!(d.step(None));
        }
        let full = d.snapshot();
        let bank = d.machine.dir_bank(0);
        // The bank's record after its array: ways (8 bytes), bank_bits (4),
        // three u64 counters, the access histogram, two u128 integrals and
        // the last event cycle.
        let tail = 8 + 4 + 3 * 8 + 8 + 16 * bank.access_histogram().len() + 2 * 16 + 8;
        let ways_at = 8 + raccd_snap::encode(bank).len() - tail;
        let mut dir = full.raw("machine/dir").unwrap().to_vec();
        assert_eq!(dir[ways_at..ways_at + 8], 8u64.to_le_bytes());
        dir[ways_at] = 3;
        let mut crafted = full.clone();
        crafted.put_raw("machine/dir", dir);
        let crafted = Snapshot::from_bytes(&crafted.to_bytes()).expect("CRC-valid archive");
        let resumed = Driver::restore(cfg, mode, two_phase_program(), &crafted)
            .map(|d| d.finish(None).stats.cycles);
        assert_eq!(
            resumed.err(),
            Some(SnapError::Invalid("directory geometry"))
        );
    }

    #[test]
    fn reduced_directory_hurts_fullcoh_more_than_raccd() {
        let cfg_small = MachineConfig::scaled().with_dir_ratio(64);
        let full_1 = run_mode(CoherenceMode::FullCoh).stats.cycles as f64;
        let raccd_1 = run_mode(CoherenceMode::Raccd).stats.cycles as f64;
        let full_64 = run_on(cfg_small, CoherenceMode::FullCoh).stats.cycles as f64;
        let raccd_64 = run_on(cfg_small, CoherenceMode::Raccd).stats.cycles as f64;
        let full_slowdown = full_64 / full_1;
        let raccd_slowdown = raccd_64 / raccd_1;
        assert!(
            raccd_slowdown < full_slowdown,
            "RaCCD {raccd_slowdown:.3} vs FullCoh {full_slowdown:.3}"
        );
    }

    /// The census as it was taken before it moved to fill time and off
    /// SipHash: one record per reference, hit or fill, read off the
    /// checker's event stream (which carries exactly one of the two per
    /// reference) into a std-hashed map.
    type ModelCensus = std::collections::HashMap<u64, bool>;
    struct PerRefCensus(std::rc::Rc<std::cell::RefCell<ModelCensus>>);

    impl raccd_sim::CheckSink for PerRefCensus {
        fn on_event(&mut self, ev: &CheckEvent) {
            if let CheckEvent::L1Hit { block, nc, .. } | CheckEvent::Fill { block, nc, .. } = *ev {
                *self.0.borrow_mut().entry(block.0).or_insert(false) |= !nc;
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn finish(&mut self) -> CheckReport {
            CheckReport {
                stats: Default::default(),
                violations: Vec::new(),
            }
        }
    }

    /// Run `program` to the end with the per-reference census listening
    /// and check the at-fill census against it, summary and bytes.
    /// `midway` may swap the driver for a restored one.
    fn assert_census_exact(
        what: &str,
        mode: CoherenceMode,
        program: Program,
        plan: Option<FaultPlan>,
        midway: impl FnOnce(Driver) -> Driver,
    ) -> DriverOutput {
        let per_ref = std::rc::Rc::new(std::cell::RefCell::new(ModelCensus::new()));
        let listen = |d: &mut Driver| {
            let sink = PerRefCensus(per_ref.clone());
            d.machine.attach_checker(Box::new(sink));
        };
        let mut driver = Driver::new(MachineConfig::scaled(), mode, program, plan, None);
        listen(&mut driver);
        for _ in 0..100 {
            assert!(driver.step(None), "{what}: over before midway");
        }
        assert_eq!(
            raccd_snap::encode(&driver.census),
            raccd_snap::encode(&*per_ref.borrow()),
            "{what}: midway"
        );
        let mut driver = midway(driver);
        listen(&mut driver);
        let out = driver.finish(None);
        let per_ref = per_ref.borrow();
        assert!(out.census.summary().total_blocks > 0, "{what}");
        let summary = crate::census::CensusSummary {
            total_blocks: per_ref.len() as u64,
            noncoherent_blocks: per_ref.values().filter(|&&coherent| !coherent).count() as u64,
        };
        assert_eq!(out.census.summary(), summary, "{what}");
        assert_eq!(
            raccd_snap::encode(&out.census),
            raccd_snap::encode(&*per_ref),
            "{what}"
        );
        out
    }

    #[test]
    fn census_at_fill_time_equals_census_per_reference() {
        use raccd_runtime::Workload;
        use raccd_workloads::{cg::Cg, histo::Histo, jacobi::Jacobi, Scale};
        let benches: [Box<dyn Workload>; 3] = [
            Box::new(Jacobi::new(Scale::Test)),
            Box::new(Histo::new(Scale::Test)),
            Box::new(Cg::new(Scale::Test)),
        ];
        let jacobi = || Jacobi::new(Scale::Test).build();
        for w in &benches {
            for mode in CoherenceMode::EXTENDED {
                let what = format!("{} / {mode:?}", w.name());
                assert_census_exact(&what, mode, w.build(), None, |d| d);
            }
        }
        let mode = CoherenceMode::Raccd;

        let plan = FaultPlan {
            seed: 9,
            task_fail: 0.3,
            ..FaultPlan::default()
        };
        let out = assert_census_exact("retry", mode, jacobi(), Some(plan), |d| d);
        assert!(out.fault.expect("plane attached").task_retries > 0);

        assert_census_exact("restore", mode, jacobi(), None, |d| {
            let bytes = d.snapshot().to_bytes();
            let snap = Snapshot::from_bytes(&bytes).expect("own archive loads");
            Driver::restore(MachineConfig::scaled(), mode, jacobi(), &snap).expect("restores")
        });
    }
}
