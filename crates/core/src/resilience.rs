//! Driver-level resilience: graceful degradation and failure detection.
//!
//! The fault plane (`raccd-fault`) injects; this module decides what the
//! *runtime* does about sustained pressure. Two mechanisms:
//!
//! * [`DegradeController`] — watches NCRT-overflow and message-retry rates
//!   in tumbling windows; when a window exceeds the plan's thresholds the
//!   driver permanently falls back from RaCCD to full coherence (losing
//!   the optimisation, keeping correctness) and records the downgrade.
//! * [`DetectReason`] / [`FaultReport`] — every way a faulty run can end
//!   without silently wrong results: the progress watchdog, a message
//!   retry budget exhausting (force-delivery latched the fatal flag), or a
//!   task exhausting its re-execution budget.

use raccd_sim::{FaultPlan, FaultStats};

/// Why a faulty run was aborted as *detected*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectReason {
    /// No task retired for longer than the watchdog threshold.
    Watchdog {
        /// Cycle of the last retired task.
        last_progress: u64,
        /// The exceeded no-progress threshold.
        threshold: u64,
    },
    /// A message exhausted its retry budget (the plane's fatal latch).
    MsgRetryBudget,
    /// A task exhausted its re-execution budget.
    TaskRetryBudget {
        /// The task that kept failing.
        task: usize,
    },
}

/// Outcome summary of a run with a fault plane attached.
#[derive(Clone, Copy, Debug)]
pub struct FaultReport {
    /// Injection/recovery counters from the plane.
    pub stats: FaultStats,
    /// `Some` when the run was aborted as detected; `None` when every
    /// injected fault was recovered and the run completed.
    pub detected: Option<DetectReason>,
    /// Whether sustained pressure downgraded RaCCD to full coherence.
    pub degraded: bool,
    /// Tasks that retired before the run ended.
    pub tasks_completed: usize,
    /// Task re-executions performed.
    pub task_retries: u64,
    /// Checkpoint rollbacks performed by the recovery loop
    /// ([`crate::driver::run_resilient`]); 0 for plain runs.
    pub rollbacks: u32,
}

impl FaultReport {
    /// A recovered run: completed, nothing detected, oracle-checkable.
    pub fn recovered(&self) -> bool {
        self.detected.is_none()
    }
}

/// Tumbling-window monitor that latches "degrade to full coherence" when
/// NCRT overflows or message retries spike past the plan's thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DegradeController {
    window: u64,
    overflow_limit: u64,
    retry_limit: u64,
    window_start: u64,
    overflows_base: u64,
    retries_base: u64,
    degraded: bool,
}

impl DegradeController {
    /// A controller parameterised by the plan's `degrade` knobs.
    pub fn new(plan: &FaultPlan) -> Self {
        DegradeController {
            window: plan.degrade_window.max(1),
            overflow_limit: plan.degrade_overflows,
            retry_limit: plan.degrade_retries,
            window_start: 0,
            overflows_base: 0,
            retries_base: 0,
            degraded: false,
        }
    }

    /// Feed the current cumulative counters at time `now`. Returns `true`
    /// exactly once: the observation that latched the downgrade, with the
    /// triggering window's deltas available via [`Self::last_deltas`].
    pub fn observe(&mut self, now: u64, overflows: u64, retries: u64) -> bool {
        if self.degraded {
            return false;
        }
        let d_over = overflows.saturating_sub(self.overflows_base);
        let d_retry = retries.saturating_sub(self.retries_base);
        if d_over >= self.overflow_limit || d_retry >= self.retry_limit {
            self.degraded = true;
            // Freeze the bases so last_deltas reports the trigger window.
            return true;
        }
        if now.saturating_sub(self.window_start) >= self.window {
            self.window_start = now;
            self.overflows_base = overflows;
            self.retries_base = retries;
        }
        false
    }

    /// Whether the downgrade has latched.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Deltas of the window that triggered the downgrade (for telemetry).
    pub fn last_deltas(&self, overflows: u64, retries: u64) -> (u64, u64) {
        (
            overflows.saturating_sub(self.overflows_base),
            retries.saturating_sub(self.retries_base),
        )
    }
}

raccd_snap::snap_record!(
    DegradeController {
        window,
        overflow_limit,
        retry_limit,
        window_start,
        overflows_base,
        retries_base,
        degraded,
    }
    where |c| c.window > 0,
    "degrade window"
);

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            degrade_window: 100,
            degrade_overflows: 4,
            degrade_retries: 10,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn quiet_run_never_degrades() {
        let mut c = DegradeController::new(&plan());
        for t in (0..10_000).step_by(50) {
            assert!(!c.observe(t, 1, 2), "steady low counters stay below");
        }
        assert!(!c.degraded());
    }

    #[test]
    fn overflow_spike_latches_once() {
        let mut c = DegradeController::new(&plan());
        assert!(!c.observe(10, 1, 0));
        assert!(c.observe(20, 5, 0), "4 overflows in one window trip it");
        assert!(!c.observe(30, 50, 50), "latched: reports only once");
        assert!(c.degraded());
        assert_eq!(c.last_deltas(5, 0), (5, 0));
    }

    #[test]
    fn window_rollover_resets_baseline() {
        let mut c = DegradeController::new(&plan());
        assert!(!c.observe(0, 3, 0));
        // Window rolls at t=100: baseline becomes (3, 0).
        assert!(!c.observe(150, 3, 0));
        // Three more overflows in the *new* window: still below 4.
        assert!(!c.observe(160, 6, 0));
        assert!(!c.degraded());
        // But a fourth trips it.
        assert!(c.observe(170, 7, 0));
    }

    #[test]
    fn retry_spike_also_degrades() {
        let mut c = DegradeController::new(&plan());
        assert!(c.observe(5, 0, 10));
        assert!(c.degraded());
    }
}
