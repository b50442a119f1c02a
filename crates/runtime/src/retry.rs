//! Task re-execution policy: the runtime side of fault recovery.
//!
//! When a task aborts (an injected failure, or in a real runtime a
//! detected error), RaCCD makes re-execution safe *by construction*:
//! `raccd_invalidate` discards every non-coherent line the attempt cached,
//! and the task's annotated data cannot have been observed by concurrent
//! tasks during its execution window (§II-D). The [`RetryBook`] decides
//! whether a failed task gets another attempt or exhausts its budget —
//! budget exhaustion surfaces as a *detected* outcome, never a silent one.

use crate::graph::TaskId;

/// Verdict for one task failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Re-execute; this is attempt number `.0` (1 = first retry).
    Retry(u32),
    /// The per-task budget is spent: abort the run as detected.
    Exhausted,
}

/// Tracks re-execution attempts per task against a uniform budget.
#[derive(Clone, Debug)]
pub struct RetryBook {
    budget: u32,
    attempts: Vec<u32>,
}

impl RetryBook {
    /// A book for `ntasks` tasks, each allowed `budget` re-executions.
    pub fn new(ntasks: usize, budget: u32) -> Self {
        RetryBook {
            budget,
            attempts: vec![0; ntasks],
        }
    }

    /// Record a failure of `task` and decide its fate.
    pub fn note_failure(&mut self, task: TaskId) -> RetryDecision {
        let a = &mut self.attempts[task];
        *a += 1;
        if *a > self.budget {
            RetryDecision::Exhausted
        } else {
            RetryDecision::Retry(*a)
        }
    }

    /// Attempts recorded for `task` so far.
    pub fn attempts(&self, task: TaskId) -> u32 {
        self.attempts[task]
    }
}

raccd_snap::snap_record!(RetryBook { budget, attempts });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_budget_then_exhausts() {
        let mut b = RetryBook::new(2, 3);
        assert_eq!(b.note_failure(0), RetryDecision::Retry(1));
        assert_eq!(b.note_failure(0), RetryDecision::Retry(2));
        assert_eq!(b.note_failure(0), RetryDecision::Retry(3));
        assert_eq!(b.note_failure(0), RetryDecision::Exhausted);
        // Exhaustion is per task, not global.
        assert_eq!(b.note_failure(1), RetryDecision::Retry(1));
        assert_eq!(b.attempts(0), 4);
    }

    #[test]
    fn zero_budget_never_retries() {
        let mut b = RetryBook::new(1, 0);
        assert_eq!(b.note_failure(0), RetryDecision::Exhausted);
    }
}
