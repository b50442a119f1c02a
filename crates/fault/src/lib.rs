//! Deterministic, seeded fault-injection plane for the RaCCD simulator.
//!
//! The paper's RaCCD hardware assumes a perfectly reliable NoC, directory
//! and NCRT. Real coherence subsystems are validated by deliberately
//! breaking those assumptions in controlled ways and proving the machine
//! either fully recovers or fails loudly. This crate provides the
//! machinery shared by every layer of the stack:
//!
//! - [`FaultPlan`]: a `Copy` description of *what* to inject — per-site
//!   rates, amplitudes, an optional active cycle window, and the recovery
//!   budgets (retry budget, backoff shape, watchdog threshold, degradation
//!   thresholds). Parses from / renders to a compact one-line spec so it
//!   can travel through the `RACCD_FAULT_SPEC` environment variable and
//!   through `raccd-check` trace dumps.
//! - [`FaultPlane`]: the stateful instance — plan plus seeded
//!   [`SplitMix64`], per-site [`FaultStats`], storm window state, and a
//!   sticky fatal flag set when a recovery budget is exhausted.
//! - [`Backoff`]: bounded exponential backoff, `delay(attempt) =
//!   min(base << (attempt-1), cap)` — bounded and monotone by
//!   construction (property-tested).
//! - [`Watchdog`]: forward-progress detector — expires when no progress
//!   has been noted for `threshold` cycles.
//!
//! Everything is deterministic: the same plan and the same sequence of
//! roll calls produce the same injections, so every faulty run is
//! replayable bit-for-bit.

use raccd_mem::rng::SplitMix64;
use std::fmt;
use std::sync::OnceLock;

/// The largest cycle count a spec may give `delay`, `storm`, `straggle`,
/// `timeout` or `backoff`. Each is added to a simulated clock, which a
/// larger one could wrap; 2³² cycles is two seconds of a 2 GHz core per
/// injection.
pub const MAX_SPEC_CYCLES: u64 = 1 << 32;

/// Why [`FaultPlan::from_spec`] refused a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The key named gave a cycle count above [`MAX_SPEC_CYCLES`].
    CyclesAboveBound(&'static str, u64),
    /// Any other malformed item, described.
    Malformed(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::CyclesAboveBound(k, v) => write!(f, "fault spec `{k}`: {v} cycles > 2^32"),
            SpecError::Malformed(why) => f.write_str(why),
        }
    }
}

impl From<String> for SpecError {
    fn from(why: String) -> Self {
        SpecError::Malformed(why)
    }
}

/// Where a fault was injected. Carried on telemetry events so traces can
/// attribute every anomaly to its injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A NoC message was dropped in flight.
    NocDrop,
    /// A NoC message was delivered twice.
    NocDup,
    /// A NoC payload arrived with a corrupted checksum.
    NocCorrupt,
    /// A NoC message was delayed by a seeded number of cycles.
    NocDelay,
    /// A directory entry was lost (SRAM upset model).
    DirLoss,
    /// An NCRT overflow storm window (registrations rejected).
    NcrtStorm,
    /// A task body failed mid-execution and must be re-run.
    TaskFail,
    /// A task straggled: its dispatch was delayed.
    TaskStraggle,
}

impl FaultSite {
    /// Stable lowercase label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::NocDrop => "noc_drop",
            FaultSite::NocDup => "noc_dup",
            FaultSite::NocCorrupt => "noc_corrupt",
            FaultSite::NocDelay => "noc_delay",
            FaultSite::DirLoss => "dir_loss",
            FaultSite::NcrtStorm => "ncrt_storm",
            FaultSite::TaskFail => "task_fail",
            FaultSite::TaskStraggle => "task_straggle",
        }
    }
}

/// What happened to one NoC message, decided by a single uniform draw
/// partitioned by the cumulative per-site rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgOutcome {
    /// Delivered intact, nominal latency.
    Deliver,
    /// Lost in flight: the sender times out and retries.
    Drop,
    /// Delivered twice: the receiver must be idempotent.
    Duplicate,
    /// Payload corrupted: checksum fails at the receiver, NACK + retry.
    Corrupt,
    /// Delivered after an extra seeded delay of this many cycles.
    Delay(u64),
}

/// Injection decided for one task at dispatch time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskInjection {
    /// Fail after executing this many references (None = run to completion).
    pub fail_at: Option<usize>,
    /// Extra cycles added before the task starts executing.
    pub straggle: u64,
}

/// Per-site injection and recovery counters. All counts are cumulative
/// over the life of one [`FaultPlane`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected across every site.
    pub injected: u64,
    /// Messages dropped in flight.
    pub drops: u64,
    /// Messages delivered twice.
    pub dups: u64,
    /// Payloads corrupted (detected by the checksum model).
    pub corrupts: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Directory entries lost.
    pub dir_losses: u64,
    /// NCRT registrations rejected by storm windows.
    pub storms: u64,
    /// Task bodies failed mid-execution.
    pub task_fails: u64,
    /// Tasks straggled at dispatch.
    pub straggles: u64,
    /// Message retries performed (drop timeouts + corrupt NACKs).
    pub retries: u64,
    /// NACKs returned for corrupted payloads.
    pub nacks: u64,
    /// Messages that were eventually delivered after >= 1 retry.
    pub recovered: u64,
    /// Times a retry budget ran out (sets the fatal flag).
    pub budget_exhausted: u64,
}

/// A complete, `Copy` description of a fault campaign run: what to
/// inject, at which rates, and how much recovery budget the machine has.
///
/// Rates are probabilities in `[0, 1]` evaluated per opportunity (per
/// message, per directory access, per registration, per task). A default
/// plan injects nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; same seed + same roll sequence = same injections.
    pub seed: u64,
    /// Probability a NoC message is dropped.
    pub drop: f64,
    /// Probability a NoC message is duplicated.
    pub dup: f64,
    /// Probability a NoC payload is corrupted.
    pub corrupt: f64,
    /// Probability a NoC message is delayed.
    pub delay: f64,
    /// Maximum extra delay in cycles (uniform in `1..=delay_max`).
    pub delay_max: u64,
    /// Probability a directory access loses a random resident entry.
    pub dir_loss: f64,
    /// Probability an NCRT registration opens an overflow-storm window.
    pub storm: f64,
    /// Length of a storm window in cycles.
    pub storm_len: u64,
    /// Probability a task body fails mid-execution.
    pub task_fail: f64,
    /// Probability a task straggles at dispatch.
    pub straggle: f64,
    /// Straggler delay in cycles.
    pub straggle_cycles: u64,
    /// Optional active window `(start, end)` in cycles; outside it the
    /// plane injects nothing (recovery machinery stays armed).
    pub window: Option<(u64, u64)>,
    /// Max message retries before the plane goes fatal.
    pub retry_budget: u32,
    /// Exponential backoff base (cycles for the first retry).
    pub backoff_base: u64,
    /// Exponential backoff cap in cycles.
    pub backoff_cap: u64,
    /// Sender timeout charged per dropped message, in cycles.
    pub drop_timeout: u64,
    /// Max re-executions per task before the run is declared stuck.
    pub task_retry_budget: u32,
    /// Progress watchdog threshold: no task retired in this many cycles
    /// means the run is hung.
    pub watchdog_cycles: u64,
    /// Degradation: tumbling-window length in cycles (0 disables).
    pub degrade_window: u64,
    /// Degrade when this many NCRT overflows land in one window.
    pub degrade_overflows: u64,
    /// Degrade when this many message retries land in one window.
    pub degrade_retries: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_max: 16,
            dir_loss: 0.0,
            storm: 0.0,
            storm_len: 10_000,
            task_fail: 0.0,
            straggle: 0.0,
            straggle_cycles: 1_000,
            window: None,
            retry_budget: 8,
            backoff_base: 16,
            backoff_cap: 4_096,
            drop_timeout: 64,
            task_retry_budget: 3,
            watchdog_cycles: 2_000_000,
            degrade_window: 50_000,
            degrade_overflows: 8,
            degrade_retries: 16,
        }
    }
}

impl FaultPlan {
    /// Parse a compact `;`-separated spec, e.g.
    /// `seed=42;drop=0.01;delay=0.02:32;storm=0.001:20000;retry_budget=8`.
    ///
    /// Unset keys keep their [`Default`] values. Two-part values use `:`
    /// (`delay=RATE:MAX`, `storm=RATE:LEN`, `straggle=RATE:CYCLES`,
    /// `window=START:END`, `backoff=BASE:CAP`,
    /// `degrade=WINDOW:OVERFLOWS:RETRIES`). Each key is one row of
    /// [`SPEC_KEYS`], which bounds and clamps its fields.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, SpecError> {
        let mut p = FaultPlan::default();
        for item in spec.split(';').map(str::trim).filter(|i| !i.is_empty()) {
            let (key, val) = item
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{item}` is not key=value"))?;
            let Some(row) = SPEC_KEYS.iter().find(|row| row.name == key) else {
                return Err(format!("fault spec: unknown key `{key}`").into());
            };
            // The value splits into the row's fields before any is read; a
            // part short of its `:` is refused as `A:B` refuses it.
            let parts: Vec<&str> = val.splitn(row.fields.len(), ':').collect();
            if parts.len() < row.fields.len() {
                pair(key, parts[parts.len() - 1])?;
            }
            for (field, text) in row.fields.iter().zip(parts) {
                let floor = (field.floor)(&p);
                (field.slot)(&mut p).read(row.name, text, floor)?;
            }
        }
        let total = p.drop + p.dup + p.corrupt + p.delay;
        if total > 1.0 {
            return Err(format!("fault spec: message rates sum to {total} > 1").into());
        }
        Ok(p)
    }

    /// Render back to the compact spec form: the rows of [`SPEC_KEYS`] on
    /// which the plan differs from [`Default`], in table order;
    /// `from_spec(to_spec()) == self`.
    pub fn to_spec(&self) -> String {
        // The plan is `Copy`: its slots are read through copies.
        let (mut p, mut d) = (*self, FaultPlan::default());
        let mut items = Vec::new();
        for row in &SPEC_KEYS {
            let fields = row.fields.iter();
            if fields.clone().any(|f| (f.slot)(&mut p) != (f.slot)(&mut d)) {
                let values: Vec<String> = fields.map(|f| (f.slot)(&mut p).to_string()).collect();
                items.push(format!("{}={}", row.name, values.join(":")));
            }
        }
        items.join(";")
    }

    /// The plan the `RACCD_FAULT_SPEC` environment variable names, if set
    /// and non-empty, or its parse error. The bins call this at startup
    /// and exit on the error, so [`FaultPlan::forced_from_env`] never
    /// meets a malformed spec there.
    pub fn from_env() -> Result<Option<FaultPlan>, SpecError> {
        match std::env::var("RACCD_FAULT_SPEC") {
            Ok(s) if !s.trim().is_empty() => FaultPlan::from_spec(&s).map(Some),
            _ => Ok(None),
        }
    }

    /// [`FaultPlan::from_env`], parsed once per process. A malformed spec
    /// panics with the parse error: a caller that takes outside input
    /// checks [`FaultPlan::from_env`] first.
    pub fn forced_from_env() -> Option<FaultPlan> {
        static FORCED: OnceLock<Option<FaultPlan>> = OnceLock::new();
        *FORCED.get_or_init(|| {
            FaultPlan::from_env().unwrap_or_else(|e| panic!("RACCD_FAULT_SPEC invalid: {e}"))
        })
    }
}

/// `v` split at its first `:`, or the error naming `key`.
fn pair<'a>(key: &str, v: &'a str) -> Result<(&'a str, &'a str), String> {
    v.split_once(':')
        .ok_or_else(|| format!("fault spec `{key}`: expected A:B, got `{v}`"))
}

/// A plan field as a spec reads and writes it: its place in the plan,
/// whose variant is the field's kind and bound.
#[derive(PartialEq)]
enum Slot<'a> {
    /// A probability in `[0, 1]`.
    Rate(&'a mut f64),
    /// Any `u64`.
    U64(&'a mut u64),
    /// Any `u32`.
    U32(&'a mut u32),
    /// A cycle count the clock adds, at most [`MAX_SPEC_CYCLES`].
    Cycles(&'a mut u64),
    /// An optional `START:END` pair of `u64`s, start below end.
    Window(&'a mut Option<(u64, u64)>),
}

impl Slot<'_> {
    /// Store the value `v` reads as, an integer raised to `floor`, or
    /// refuse it in the words of spec key `key`.
    fn read(self, key: &'static str, v: &str, floor: u64) -> Result<(), SpecError> {
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("fault spec `{key}`: bad integer `{v}`"))
        };
        match self {
            Slot::Rate(r) => match v.parse::<f64>() {
                Ok(x) if (0.0..=1.0).contains(&x) => *r = x,
                Ok(x) => return Err(format!("fault spec `{key}`: rate {x} outside [0,1]").into()),
                Err(_) => return Err(format!("fault spec `{key}`: bad rate `{v}`").into()),
            },
            Slot::U64(n) => *n = int(v)?.max(floor),
            Slot::U32(n) => {
                *n = u32::try_from(int(v)?)
                    .map_err(|_| format!("fault spec `{key}`: {v} out of range"))?;
            }
            Slot::Cycles(n) => match int(v)? {
                c if c > MAX_SPEC_CYCLES => return Err(SpecError::CyclesAboveBound(key, c)),
                c => *n = c.max(floor),
            },
            Slot::Window(w) => {
                let (s, e) = pair(key, v)?;
                match (int(s)?, int(e)?) {
                    (s, e) if s < e => *w = Some((s, e)),
                    (s, e) => return Err(format!("fault spec {key}: start {s} >= end {e}").into()),
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Slot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Rate(r) => write!(f, "{r}"),
            Slot::U64(n) | Slot::Cycles(n) => write!(f, "{n}"),
            Slot::U32(n) => write!(f, "{n}"),
            Slot::Window(w) => w.map_or(Ok(()), |(s, e)| write!(f, "{s}:{e}")),
        }
    }
}

/// One field of a spec key: where it lives, and the least value an
/// integer is raised to, given the plan read so far.
struct Field {
    slot: fn(&mut FaultPlan) -> Slot<'_>,
    floor: fn(&FaultPlan) -> u64,
}

/// One fault spec key and the plan fields its `:`-separated value sets,
/// in order.
pub struct SpecKey {
    /// The key as a spec spells it.
    pub name: &'static str,
    fields: &'static [Field],
}

/// A [`SpecKey`]: the key, then each field as `name: Kind`, with
/// `>= floor` (a function of the plan read so far) where an integer is
/// clamped.
macro_rules! row {
    (@floor) => { |_| 0 };
    (@floor $floor:expr) => { $floor };
    ($key:literal, $($f:ident: $kind:ident $(>= $floor:expr)?),+) => {
        SpecKey { name: $key, fields: &[$(Field {
            slot: |p| Slot::$kind(&mut p.$f),
            floor: row!(@floor $($floor)?),
        }),+] }
    };
}

/// Every fault spec key, in the order [`FaultPlan::to_spec`] renders
/// them. A delay, a backoff base or a watchdog of 0 cycles reads as 1, and
/// a backoff cap below its base as the base.
pub const SPEC_KEYS: [SpecKey; 16] = [
    row!("seed", seed: U64),
    row!("drop", drop: Rate),
    row!("dup", dup: Rate),
    row!("corrupt", corrupt: Rate),
    row!("delay", delay: Rate, delay_max: Cycles >= |_| 1),
    row!("dirloss", dir_loss: Rate),
    row!("storm", storm: Rate, storm_len: Cycles),
    row!("taskfail", task_fail: Rate),
    row!("straggle", straggle: Rate, straggle_cycles: Cycles),
    row!("window", window: Window),
    row!("retry_budget", retry_budget: U32),
    row!("backoff", backoff_base: Cycles >= |_| 1, backoff_cap: Cycles >= |p| p.backoff_base),
    row!("timeout", drop_timeout: Cycles),
    row!("task_budget", task_retry_budget: U32),
    row!("watchdog", watchdog_cycles: U64 >= |_| 1),
    row!("degrade", degrade_window: U64, degrade_overflows: U64, degrade_retries: U64),
];

/// Bounded exponential backoff: `delay(n) = min(base << (n-1), cap)` for
/// attempt `n >= 1`. Monotone non-decreasing in `n` and never exceeds
/// `cap` (property-tested in `tests/backoff_props.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// Delay of the first retry, in cycles.
    pub base: u64,
    /// Upper bound on any single retry delay, in cycles.
    pub cap: u64,
}

impl Backoff {
    /// Backoff delay for 1-based attempt `n`; attempt 0 means "no retry
    /// yet" and costs nothing.
    pub fn delay(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        self.base
            .checked_shl(attempt - 1)
            .unwrap_or(self.cap)
            .min(self.cap)
    }
}

/// Forward-progress watchdog: expires when `now - last_progress`
/// exceeds the threshold.
#[derive(Clone, Copy, Debug)]
pub struct Watchdog {
    /// Cycles without progress before the watchdog fires.
    pub threshold: u64,
    /// Cycle of the most recent progress event.
    pub last_progress: u64,
}

impl Watchdog {
    /// Create a watchdog armed at cycle 0.
    pub fn new(threshold: u64) -> Watchdog {
        Watchdog {
            threshold: threshold.max(1),
            last_progress: 0,
        }
    }

    /// Note forward progress at `now` (monotone: earlier cycles ignored).
    pub fn note_progress(&mut self, now: u64) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Has the machine gone `threshold` cycles without progress?
    pub fn expired(&self, now: u64) -> bool {
        now.saturating_sub(self.last_progress) > self.threshold
    }
}

/// The live fault plane: plan + RNG + counters + storm/fatal state. One
/// plane is attached per machine; every roll consumes RNG determinately.
#[derive(Clone, Debug)]
pub struct FaultPlane {
    /// The immutable plan this plane executes.
    pub plan: FaultPlan,
    /// Cumulative injection/recovery counters.
    pub stats: FaultStats,
    rng: SplitMix64,
    storm_until: u64,
    fatal: bool,
}

impl FaultPlane {
    /// Instantiate a plan with its own seeded RNG stream.
    pub fn new(plan: FaultPlan) -> FaultPlane {
        FaultPlane {
            plan,
            stats: FaultStats::default(),
            rng: SplitMix64::new(plan.seed ^ 0xfa17_0000_0000_0001),
            storm_until: 0,
            fatal: false,
        }
    }

    /// Is the plane injecting at cycle `now`? (Window gating.)
    pub fn active(&self, now: u64) -> bool {
        self.plan.window.is_none_or(|(s, e)| (s..e).contains(&now))
    }

    /// Decide the fate of one NoC message sent at `now`. A single
    /// uniform draw is partitioned by the cumulative site rates so the
    /// outcomes are mutually exclusive per message.
    pub fn roll_msg(&mut self, now: u64) -> MsgOutcome {
        let p = self.plan;
        if !self.active(now) || (p.drop + p.dup + p.corrupt + p.delay) == 0.0 {
            return MsgOutcome::Deliver;
        }
        let (r, s) = (self.rng.next_f64(), &mut self.stats);
        let (outcome, count) = if r < p.drop {
            (MsgOutcome::Drop, &mut s.drops)
        } else if r < p.drop + p.dup {
            (MsgOutcome::Duplicate, &mut s.dups)
        } else if r < p.drop + p.dup + p.corrupt {
            (MsgOutcome::Corrupt, &mut s.corrupts)
        } else if r < p.drop + p.dup + p.corrupt + p.delay {
            let d = 1 + self.rng.next_below(p.delay_max);
            (MsgOutcome::Delay(d), &mut s.delays)
        } else {
            return MsgOutcome::Deliver;
        };
        *count += 1;
        s.injected += 1;
        outcome
    }

    /// One draw against `rate`; a hit counts as one injection.
    fn hit(&mut self, rate: f64) -> bool {
        let hit = self.rng.next_f64() < rate;
        self.stats.injected += u64::from(hit);
        hit
    }

    /// Roll directory-entry loss for one directory access at `now`.
    pub fn roll_dir_loss(&mut self, now: u64) -> bool {
        let hit = self.active(now) && self.plan.dir_loss != 0.0 && self.hit(self.plan.dir_loss);
        self.stats.dir_losses += u64::from(hit);
        hit
    }

    /// Is `now` inside an NCRT overflow storm? Each registration attempt
    /// may also open a new storm window. Returns true when the
    /// registration must be rejected.
    pub fn ncrt_storm(&mut self, now: u64) -> bool {
        if now < self.storm_until {
            self.stats.storms += 1;
            return true;
        }
        if !self.active(now) || self.plan.storm == 0.0 || !self.hit(self.plan.storm) {
            return false;
        }
        self.storm_until = now + self.plan.storm_len;
        self.stats.storms += 1;
        true
    }

    /// Decide task-level injections at dispatch: mid-execution failure
    /// (fail point uniform over the task's `trace_len` references) and
    /// straggler delay.
    pub fn roll_task(&mut self, now: u64, trace_len: usize) -> TaskInjection {
        let mut inj = TaskInjection::default();
        if !self.active(now) {
            return inj;
        }
        if self.plan.task_fail > 0.0 && self.hit(self.plan.task_fail) {
            self.stats.task_fails += 1;
            inj.fail_at = Some(self.rng.next_below(trace_len.max(1) as u64) as usize);
        }
        if self.plan.straggle > 0.0 && self.hit(self.plan.straggle) {
            self.stats.straggles += 1;
            inj.straggle = self.plan.straggle_cycles;
        }
        inj
    }

    /// Seeded uniform pick in `0..n` (victim selection).
    pub fn pick(&mut self, n: u64) -> u64 {
        self.rng.next_below(n.max(1))
    }

    /// The plan's backoff schedule.
    pub fn backoff(&self) -> Backoff {
        Backoff {
            base: self.plan.backoff_base,
            cap: self.plan.backoff_cap,
        }
    }

    /// Latch the fatal flag: a recovery budget was exhausted, the run
    /// can no longer be trusted to recover silently and must be flagged.
    pub fn mark_fatal(&mut self) {
        self.fatal = true;
        self.stats.budget_exhausted += 1;
    }

    /// Has any recovery budget been exhausted?
    pub fn fatal(&self) -> bool {
        self.fatal
    }

    /// Re-seed the RNG stream and clear the fatal latch for
    /// checkpoint-rollback recovery. Restoring a snapshot replays the
    /// *exact* machine state — including this plane's RNG — so a rolled-back
    /// run would re-draw the very rolls that killed it and livelock.
    /// Folding a per-rollback salt into the stream keeps the plan (and its
    /// rates) intact while decorrelating the replayed interval.
    pub fn reseed(&mut self, salt: u64) {
        self.rng = SplitMix64::new(
            self.plan.seed ^ 0xfa17_0000_0000_0001 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        self.fatal = false;
    }
}

raccd_snap::snap_record!(Watchdog {
    threshold,
    last_progress,
});
raccd_snap::snap_enum!(FaultSite, "fault site" {
    0 => NocDrop,
    1 => NocDup,
    2 => NocCorrupt,
    3 => NocDelay,
    4 => DirLoss,
    5 => NcrtStorm,
    6 => TaskFail,
    7 => TaskStraggle,
});
raccd_snap::snap_record!(FaultStats {
    injected,
    drops,
    dups,
    corrupts,
    delays,
    dir_losses,
    storms,
    task_fails,
    straggles,
    retries,
    nacks,
    recovered,
    budget_exhausted,
});

// Hand-written: a format trick, the plan round-trips through its canonical
// spec string, the same grammar `RACCD_FAULT_SPEC` uses (one parser, one
// format).
impl raccd_snap::Snap for FaultPlane {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        self.plan.to_spec().save(w);
        self.stats.save(w);
        self.rng.save(w);
        w.u64(self.storm_until);
        self.fatal.save(w);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        use raccd_snap::Snap;
        let spec: String = Snap::load(r)?;
        let plan = FaultPlan::from_spec(&spec)
            .map_err(|_| raccd_snap::SnapError::Invalid("fault plan spec"))?;
        Ok(FaultPlane {
            plan,
            stats: Snap::load(r)?,
            rng: Snap::load(r)?,
            storm_until: r.u64()?,
            fatal: Snap::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let mut plane = FaultPlane::new(FaultPlan::default());
        for now in 0..10_000 {
            assert_eq!(plane.roll_msg(now), MsgOutcome::Deliver);
            assert!(!plane.roll_dir_loss(now));
            assert!(!plane.ncrt_storm(now));
            assert_eq!(plane.roll_task(now, 100), TaskInjection::default());
        }
        assert_eq!(plane.stats, FaultStats::default());
        assert!(!plane.fatal());
    }

    #[test]
    fn spec_round_trip() {
        let spec = "seed=42;drop=0.01;dup=0.005;corrupt=0.002;delay=0.02:32;\
                    dirloss=0.0005;storm=0.001:20000;taskfail=0.05;straggle=0.01:5000;\
                    window=1000:200000;retry_budget=6;backoff=32:2048;timeout=100;\
                    task_budget=2;watchdog=500000;degrade=40000:4:8";
        let p = FaultPlan::from_spec(spec).unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.drop, 0.01);
        assert_eq!(p.delay_max, 32);
        assert_eq!(p.storm_len, 20_000);
        assert_eq!(p.window, Some((1000, 200_000)));
        assert_eq!(p.retry_budget, 6);
        assert_eq!(p.degrade_overflows, 4);
        let p2 = FaultPlan::from_spec(&p.to_spec()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn spec_rejects_malformed() {
        assert!(FaultPlan::from_spec("drop=2.0").is_err());
        assert!(FaultPlan::from_spec("drop").is_err());
        assert!(FaultPlan::from_spec("nosuchkey=1").is_err());
        assert!(FaultPlan::from_spec("window=9:3").is_err());
        assert!(FaultPlan::from_spec("drop=0.6;dup=0.6").is_err());
        // The u32 budgets are range-checked, not truncated to 0.
        for key in ["retry_budget", "task_budget"] {
            assert_eq!(
                FaultPlan::from_spec(&format!("{key}=4294967296")),
                Err(SpecError::Malformed(format!(
                    "fault spec `{key}`: 4294967296 out of range"
                )))
            );
            assert!(FaultPlan::from_spec(&format!("{key}=4294967295")).is_ok());
        }
        assert!(
            FaultPlan::from_spec("delay=0.1").is_err(),
            "delay needs RATE:MAX"
        );
    }

    /// Every cycle magnitude the clock adds is accepted up to the bound
    /// and refused, naming its key and value, one past it.
    #[test]
    fn spec_cycles_are_bounded() {
        let (at, over) = (MAX_SPEC_CYCLES, MAX_SPEC_CYCLES + 1);
        for (key, spec) in [
            ("delay", "delay=0.1:{}"),
            ("storm", "storm=0.1:{}"),
            ("straggle", "straggle=0.1:{}"),
            ("timeout", "timeout={}"),
            ("backoff", "backoff=1:{}"),
            ("backoff", "backoff={}:{}"),
        ] {
            let with = |v: u64| FaultPlan::from_spec(&spec.replace("{}", &v.to_string()));
            let plan = with(at).unwrap_or_else(|e| panic!("{spec} at the bound: {e}"));
            assert_eq!(FaultPlan::from_spec(&plan.to_spec()), Ok(plan), "{spec}");
            let refused = SpecError::CyclesAboveBound(key, over);
            assert_eq!(with(over), Err(refused.clone()), "{spec}");
            let message = format!("fault spec `{key}`: 4294967297 cycles > 2^32");
            assert_eq!(refused.to_string(), message);
        }
        let wrapped = FaultPlan::from_spec("seed=1;delay=1:18446744073709551615");
        assert_eq!(wrapped, Err(SpecError::CyclesAboveBound("delay", u64::MAX)));
    }

    #[test]
    fn empty_spec_is_default() {
        assert_eq!(FaultPlan::from_spec("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::default().to_spec(), "");
    }

    #[test]
    fn roll_msg_is_deterministic_per_seed() {
        let plan = FaultPlan {
            drop: 0.2,
            dup: 0.1,
            corrupt: 0.1,
            delay: 0.2,
            ..FaultPlan::default()
        };
        let seq = |seed: u64| -> Vec<MsgOutcome> {
            let mut pl = FaultPlane::new(FaultPlan { seed, ..plan });
            (0..200).map(|now| pl.roll_msg(now)).collect()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8), "different seeds should differ");
        let outcomes = seq(7);
        assert!(outcomes.contains(&MsgOutcome::Drop));
        assert!(outcomes.iter().any(|o| matches!(o, MsgOutcome::Delay(_))));
    }

    #[test]
    fn window_gates_injection() {
        let plan = FaultPlan {
            drop: 1.0,
            window: Some((100, 200)),
            ..FaultPlan::default()
        };
        let mut pl = FaultPlane::new(plan);
        assert_eq!(pl.roll_msg(50), MsgOutcome::Deliver);
        assert_eq!(pl.roll_msg(150), MsgOutcome::Drop);
        assert_eq!(pl.roll_msg(250), MsgOutcome::Deliver);
    }

    #[test]
    fn storm_window_persists_for_its_length() {
        let plan = FaultPlan {
            storm: 1.0,
            storm_len: 100,
            ..FaultPlan::default()
        };
        let mut pl = FaultPlane::new(plan);
        assert!(pl.ncrt_storm(1000), "opens a storm");
        assert!(pl.ncrt_storm(1050), "still inside");
        assert!(pl.ncrt_storm(1100), "re-rolls and (rate=1) reopens");
        assert!(pl.stats.storms >= 3);
    }

    #[test]
    fn delay_is_bounded_by_delay_max() {
        let plan = FaultPlan {
            delay: 1.0,
            delay_max: 8,
            ..FaultPlan::default()
        };
        let mut pl = FaultPlane::new(plan);
        for now in 0..1000 {
            match pl.roll_msg(now) {
                MsgOutcome::Delay(d) => assert!((1..=8).contains(&d)),
                o => panic!("expected delay, got {o:?}"),
            }
        }
    }

    #[test]
    fn backoff_edge_cases() {
        let b = Backoff {
            base: 16,
            cap: 4096,
        };
        assert_eq!(b.delay(0), 0);
        assert_eq!(b.delay(1), 16);
        assert_eq!(b.delay(2), 32);
        assert_eq!(b.delay(9), 4096);
        assert_eq!(b.delay(200), 4096, "shift overflow saturates at cap");
    }

    #[test]
    fn watchdog_expiry() {
        let mut wd = Watchdog::new(1000);
        assert!(!wd.expired(1000));
        assert!(wd.expired(1001));
        wd.note_progress(5000);
        assert!(!wd.expired(6000));
        wd.note_progress(100); // stale progress is ignored
        assert_eq!(wd.last_progress, 5000);
        assert!(wd.expired(6001));
    }

    #[test]
    fn task_injection_fail_point_within_trace() {
        let plan = FaultPlan {
            task_fail: 1.0,
            straggle: 1.0,
            straggle_cycles: 777,
            ..FaultPlan::default()
        };
        let mut pl = FaultPlane::new(plan);
        for now in 0..100 {
            let inj = pl.roll_task(now, 50);
            assert!(inj.fail_at.unwrap() < 50);
            assert_eq!(inj.straggle, 777);
        }
    }
}
