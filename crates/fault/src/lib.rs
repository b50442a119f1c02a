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
    /// `degrade=WINDOW:OVERFLOWS:RETRIES`). Cycle magnitudes added to the
    /// clock are bounded by [`MAX_SPEC_CYCLES`].
    pub fn from_spec(spec: &str) -> Result<FaultPlan, SpecError> {
        let mut p = FaultPlan::default();
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, val) = item
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{item}` is not key=value"))?;
            fn rate(key: &str, v: &str) -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("fault spec `{key}`: bad rate `{v}`"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault spec `{key}`: rate {r} outside [0,1]"));
                }
                Ok(r)
            }
            fn int(key: &str, v: &str) -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("fault spec `{key}`: bad integer `{v}`"))
            }
            fn pair<'a>(key: &str, v: &'a str) -> Result<(&'a str, &'a str), String> {
                v.split_once(':')
                    .ok_or_else(|| format!("fault spec `{key}`: expected A:B, got `{v}`"))
            }
            let rate = |v: &str| rate(key, v);
            let int = |v: &str| int(key, v);
            let int32 = |v: &str| {
                u32::try_from(int(v)?).map_err(|_| format!("fault spec `{key}`: {v} out of range"))
            };
            let cycles = |key: &'static str, v: &str| match int(v)? {
                n if n > MAX_SPEC_CYCLES => Err(SpecError::CyclesAboveBound(key, n)),
                n => Ok(n),
            };
            match key {
                "seed" => p.seed = int(val)?,
                "drop" => p.drop = rate(val)?,
                "dup" => p.dup = rate(val)?,
                "corrupt" => p.corrupt = rate(val)?,
                "delay" => {
                    let (r, m) = pair(key, val)?;
                    p.delay = rate(r)?;
                    p.delay_max = cycles("delay", m)?.max(1);
                }
                "dirloss" => p.dir_loss = rate(val)?,
                "storm" => {
                    let (r, l) = pair(key, val)?;
                    p.storm = rate(r)?;
                    p.storm_len = cycles("storm", l)?;
                }
                "taskfail" => p.task_fail = rate(val)?,
                "straggle" => {
                    let (r, c) = pair(key, val)?;
                    p.straggle = rate(r)?;
                    p.straggle_cycles = cycles("straggle", c)?;
                }
                "window" => {
                    let (s, e) = pair(key, val)?;
                    let (s, e) = (int(s)?, int(e)?);
                    if s >= e {
                        return Err(format!("fault spec window: start {s} >= end {e}").into());
                    }
                    p.window = Some((s, e));
                }
                "retry_budget" => p.retry_budget = int32(val)?,
                "backoff" => {
                    let (b, c) = pair(key, val)?;
                    p.backoff_base = cycles("backoff", b)?.max(1);
                    p.backoff_cap = cycles("backoff", c)?.max(p.backoff_base);
                }
                "timeout" => p.drop_timeout = cycles("timeout", val)?,
                "task_budget" => p.task_retry_budget = int32(val)?,
                "watchdog" => p.watchdog_cycles = int(val)?.max(1),
                "degrade" => {
                    let (w, rest) = pair(key, val)?;
                    let (o, r) = pair(key, rest)?;
                    p.degrade_window = int(w)?;
                    p.degrade_overflows = int(o)?;
                    p.degrade_retries = int(r)?;
                }
                _ => return Err(format!("fault spec: unknown key `{key}`").into()),
            }
        }
        let total = p.drop + p.dup + p.corrupt + p.delay;
        if total > 1.0 {
            return Err(format!("fault spec: message rates sum to {total} > 1").into());
        }
        Ok(p)
    }

    /// Render back to the compact spec form. Only keys that differ from
    /// [`Default`] are emitted; `from_spec(to_spec()) == self`.
    pub fn to_spec(&self) -> String {
        let d = FaultPlan::default();
        let mut out: Vec<String> = Vec::new();
        let mut kv = |cond: bool, s: String| {
            if cond {
                out.push(s);
            }
        };
        kv(self.seed != d.seed, format!("seed={}", self.seed));
        kv(self.drop != d.drop, format!("drop={}", self.drop));
        kv(self.dup != d.dup, format!("dup={}", self.dup));
        kv(
            self.corrupt != d.corrupt,
            format!("corrupt={}", self.corrupt),
        );
        kv(
            self.delay != d.delay || self.delay_max != d.delay_max,
            format!("delay={}:{}", self.delay, self.delay_max),
        );
        kv(
            self.dir_loss != d.dir_loss,
            format!("dirloss={}", self.dir_loss),
        );
        kv(
            self.storm != d.storm || self.storm_len != d.storm_len,
            format!("storm={}:{}", self.storm, self.storm_len),
        );
        kv(
            self.task_fail != d.task_fail,
            format!("taskfail={}", self.task_fail),
        );
        kv(
            self.straggle != d.straggle || self.straggle_cycles != d.straggle_cycles,
            format!("straggle={}:{}", self.straggle, self.straggle_cycles),
        );
        kv(
            self.window.is_some(),
            self.window
                .map(|(s, e)| format!("window={s}:{e}"))
                .unwrap_or_default(),
        );
        kv(
            self.retry_budget != d.retry_budget,
            format!("retry_budget={}", self.retry_budget),
        );
        kv(
            self.backoff_base != d.backoff_base || self.backoff_cap != d.backoff_cap,
            format!("backoff={}:{}", self.backoff_base, self.backoff_cap),
        );
        kv(
            self.drop_timeout != d.drop_timeout,
            format!("timeout={}", self.drop_timeout),
        );
        kv(
            self.task_retry_budget != d.task_retry_budget,
            format!("task_budget={}", self.task_retry_budget),
        );
        kv(
            self.watchdog_cycles != d.watchdog_cycles,
            format!("watchdog={}", self.watchdog_cycles),
        );
        kv(
            self.degrade_window != d.degrade_window
                || self.degrade_overflows != d.degrade_overflows
                || self.degrade_retries != d.degrade_retries,
            format!(
                "degrade={}:{}:{}",
                self.degrade_window, self.degrade_overflows, self.degrade_retries
            ),
        );
        out.join(";")
    }

    /// The plan forced by the `RACCD_FAULT_SPEC` environment variable, if
    /// set and non-empty. Parsed once per process; a malformed spec
    /// panics with the parse error (it is a user configuration mistake).
    pub fn forced_from_env() -> Option<FaultPlan> {
        static FORCED: OnceLock<Option<FaultPlan>> = OnceLock::new();
        *FORCED.get_or_init(|| match std::env::var("RACCD_FAULT_SPEC") {
            Ok(s) if !s.trim().is_empty() => Some(
                FaultPlan::from_spec(&s)
                    .unwrap_or_else(|e| panic!("RACCD_FAULT_SPEC invalid: {e}")),
            ),
            _ => None,
        })
    }
}

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

    /// The plane from `RACCD_FAULT_SPEC`, if the variable is set.
    pub fn from_env() -> Option<FaultPlane> {
        FaultPlan::forced_from_env().map(FaultPlane::new)
    }

    /// Is the plane injecting at cycle `now`? (Window gating.)
    pub fn active(&self, now: u64) -> bool {
        match self.plan.window {
            Some((s, e)) => now >= s && now < e,
            None => true,
        }
    }

    /// Decide the fate of one NoC message sent at `now`. A single
    /// uniform draw is partitioned by the cumulative site rates so the
    /// outcomes are mutually exclusive per message.
    pub fn roll_msg(&mut self, now: u64) -> MsgOutcome {
        let p = self.plan;
        if !self.active(now) || (p.drop + p.dup + p.corrupt + p.delay) == 0.0 {
            return MsgOutcome::Deliver;
        }
        let r = self.rng.next_f64();
        let mut cum = p.drop;
        if r < cum {
            self.stats.injected += 1;
            self.stats.drops += 1;
            return MsgOutcome::Drop;
        }
        cum += p.dup;
        if r < cum {
            self.stats.injected += 1;
            self.stats.dups += 1;
            return MsgOutcome::Duplicate;
        }
        cum += p.corrupt;
        if r < cum {
            self.stats.injected += 1;
            self.stats.corrupts += 1;
            return MsgOutcome::Corrupt;
        }
        cum += p.delay;
        if r < cum {
            self.stats.injected += 1;
            self.stats.delays += 1;
            let d = 1 + self.rng.next_below(p.delay_max);
            return MsgOutcome::Delay(d);
        }
        MsgOutcome::Deliver
    }

    /// Roll directory-entry loss for one directory access at `now`.
    pub fn roll_dir_loss(&mut self, now: u64) -> bool {
        if !self.active(now) || self.plan.dir_loss == 0.0 {
            return false;
        }
        let hit = self.rng.next_f64() < self.plan.dir_loss;
        if hit {
            self.stats.injected += 1;
            self.stats.dir_losses += 1;
        }
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
        if !self.active(now) || self.plan.storm == 0.0 {
            return false;
        }
        if self.rng.next_f64() < self.plan.storm {
            self.storm_until = now + self.plan.storm_len;
            self.stats.injected += 1;
            self.stats.storms += 1;
            return true;
        }
        false
    }

    /// Decide task-level injections at dispatch: mid-execution failure
    /// (fail point uniform over the task's `trace_len` references) and
    /// straggler delay.
    pub fn roll_task(&mut self, now: u64, trace_len: usize) -> TaskInjection {
        let mut inj = TaskInjection::default();
        if !self.active(now) {
            return inj;
        }
        if self.plan.task_fail > 0.0 && self.rng.next_f64() < self.plan.task_fail {
            self.stats.injected += 1;
            self.stats.task_fails += 1;
            inj.fail_at = Some(self.rng.next_below(trace_len.max(1) as u64) as usize);
        }
        if self.plan.straggle > 0.0 && self.rng.next_f64() < self.plan.straggle {
            self.stats.injected += 1;
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
