//! The unified telemetry event model.
//!
//! Every observable thing the stack does — protocol transactions in the
//! machine, task lifecycle transitions in the runtime driver, and RaCCD
//! mechanism activity (NCRT registration, `raccd_invalidate`, ADR resizes,
//! PT reclassification) — is normalised into one [`Event`] stream, stamped
//! with the simulated cycle it happened at. The [`crate::Recorder`]
//! buffers the stream; the exporters read it after the run.

use raccd_sim::CoherenceEvent;

/// Interned task-name identifier (see [`crate::Recorder::intern`]).
pub type NameId = u32;

/// One telemetry event, stamped with its simulated cycle.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A task exists in the dependence graph (emitted at cycle 0 for the
    /// whole TDG, before simulation starts).
    TaskCreated {
        /// Simulated cycle.
        cycle: u64,
        /// Task id in the TDG.
        task: u32,
        /// Interned task name.
        name: NameId,
        /// Number of declared dependences.
        deps: u32,
    },
    /// A task's dependences were satisfied and it entered the ready queue.
    TaskWoken {
        /// Simulated cycle.
        cycle: u64,
        /// Task id.
        task: u32,
        /// Core whose wake-up phase released it (`None` for initially
        /// ready tasks).
        waker_core: Option<u32>,
    },
    /// A hardware context dequeued the task and began running it.
    TaskScheduled {
        /// Simulated cycle (dispatch time, after the scheduling phase).
        cycle: u64,
        /// Task id.
        task: u32,
        /// Interned task name.
        name: NameId,
        /// Hardware context (core × SMT way).
        ctx: u32,
        /// Physical core.
        core: u32,
        /// Cycles the task waited between wake-up and dispatch.
        wait_cycles: u64,
    },
    /// The task's reference trace finished replaying.
    TaskCompleted {
        /// Simulated cycle.
        cycle: u64,
        /// Task id.
        task: u32,
        /// Hardware context it ran on.
        ctx: u32,
        /// References the task replayed.
        refs: u64,
    },
    /// A ready task was dispatched to a different core than the one whose
    /// wake-up phase released it (or, for preempted tasks, the core it last
    /// ran on). Under RaCCD a migration forces the NCRT hand-off: the old
    /// core's registrations are gone and the new core re-registers.
    TaskMigrated {
        /// Simulated cycle (dispatch time).
        cycle: u64,
        /// Task id.
        task: u32,
        /// Core the task was woken from / last ran on.
        from_core: u32,
        /// Core it was dispatched to.
        to_core: u32,
    },
    /// One `raccd_register` instruction (per task dependence, §III-B).
    NcrtRegister {
        /// Cycle the instruction issued.
        cycle: u64,
        /// Issuing hardware context.
        ctx: u32,
        /// Issuing core.
        core: u32,
        /// Task being set up.
        task: u32,
        /// Cycles the iterative TLB walk took.
        dur: u64,
        /// Collapsed physical ranges inserted.
        entries_added: u32,
        /// TLB lookups performed (one per virtual page, Figure 5).
        tlb_lookups: u32,
        /// Whether a sub-range was dropped because the NCRT was full.
        overflowed: bool,
    },
    /// One `raccd_invalidate` cache walk at task end (§III-C4).
    NcrtInvalidate {
        /// Cycle the walk started.
        cycle: u64,
        /// Finishing hardware context.
        ctx: u32,
        /// Core walked.
        core: u32,
        /// Finishing task.
        task: u32,
        /// Cycles the walk plus write-backs took.
        dur: u64,
        /// NC lines flushed.
        lines_flushed: u64,
    },
    /// PT baseline: a page transitioned private → shared, flushing the
    /// previous owner (§II-B).
    PtTransition {
        /// Simulated cycle.
        cycle: u64,
        /// Core that lost its private mapping.
        prev_owner: u32,
        /// Physical page number.
        page: u64,
        /// L1 lines the OS-triggered flush removed.
        flushed_lines: u64,
    },
    /// A machine-level protocol event (fills, upgrades, directory
    /// evictions, NC transitions, ADR resizes), absorbed from
    /// [`raccd_sim::Machine`]'s recorder.
    Coherence {
        /// Simulated cycle.
        cycle: u64,
        /// The protocol event.
        ev: CoherenceEvent,
    },
    /// The driver re-executed a task after an injected failure (safe under
    /// RaCCD because `raccd_invalidate` discards its NC residue).
    TaskRetry {
        /// Simulated cycle of the abort.
        cycle: u64,
        /// Task id.
        task: u32,
        /// Hardware context it was running on.
        ctx: u32,
        /// Re-execution attempt number (1 = first retry).
        attempt: u32,
    },
    /// The progress watchdog saw no task retire within its threshold and
    /// aborted the run as *detected* (never silently wrong).
    WatchdogFired {
        /// Simulated cycle the expiry was noticed.
        cycle: u64,
        /// Cycle of the last retired task.
        last_progress: u64,
        /// The no-progress threshold that was exceeded.
        threshold: u64,
    },
    /// Sustained fault pressure made the driver fall back from RaCCD to
    /// full coherence for the rest of the run.
    ModeDowngrade {
        /// Simulated cycle of the downgrade.
        cycle: u64,
        /// NCRT overflows observed in the triggering window.
        overflows: u64,
        /// Message retries observed in the triggering window.
        retries: u64,
    },
    /// Campaign-service job lifecycle transition (`raccd-campaign`). The
    /// campaign plane has no simulated clock: `cycle` is host milliseconds
    /// since the campaign started. `queue_depth` after every transition
    /// gives the queue-depth time-series for free.
    Campaign {
        /// Host milliseconds since campaign start.
        cycle: u64,
        /// Which transition happened.
        action: CampaignAction,
        /// Job configuration fingerprint.
        fingerprint: u64,
        /// Seed within the configuration.
        seed: u64,
        /// Jobs admitted but not yet terminal, after this transition.
        queue_depth: u32,
    },
}

/// What happened to a campaign job (see [`Event::Campaign`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignAction {
    /// Admitted to the queue.
    Enqueue,
    /// Submission matched an existing key (cache/queue hit).
    Dedup,
    /// Rejected by backpressure (queue at capacity).
    Shed,
    /// A worker took the job.
    Lease,
    /// A failed attempt was requeued with backoff.
    Retry,
    /// Completed; result cached.
    Complete,
    /// Failed terminally (retry budget exhausted).
    Fail,
}

impl CampaignAction {
    /// Stable lowercase label (JSONL `kind` suffix, CSV column).
    pub fn label(self) -> &'static str {
        match self {
            CampaignAction::Enqueue => "enqueue",
            CampaignAction::Dedup => "dedup",
            CampaignAction::Shed => "shed",
            CampaignAction::Lease => "lease",
            CampaignAction::Retry => "retry",
            CampaignAction::Complete => "complete",
            CampaignAction::Fail => "fail",
        }
    }
}

impl Event {
    /// The cycle stamp of any event.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::TaskCreated { cycle, .. }
            | Event::TaskWoken { cycle, .. }
            | Event::TaskScheduled { cycle, .. }
            | Event::TaskCompleted { cycle, .. }
            | Event::TaskMigrated { cycle, .. }
            | Event::NcrtRegister { cycle, .. }
            | Event::NcrtInvalidate { cycle, .. }
            | Event::PtTransition { cycle, .. }
            | Event::Coherence { cycle, .. }
            | Event::TaskRetry { cycle, .. }
            | Event::WatchdogFired { cycle, .. }
            | Event::ModeDowngrade { cycle, .. }
            | Event::Campaign { cycle, .. } => cycle,
        }
    }

    /// Short machine-readable kind tag (JSONL `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TaskCreated { .. } => "task_created",
            Event::TaskWoken { .. } => "task_woken",
            Event::TaskScheduled { .. } => "task_scheduled",
            Event::TaskCompleted { .. } => "task_completed",
            Event::TaskMigrated { .. } => "task_migrated",
            Event::NcrtRegister { .. } => "ncrt_register",
            Event::NcrtInvalidate { .. } => "ncrt_invalidate",
            Event::PtTransition { .. } => "pt_transition",
            Event::TaskRetry { .. } => "task_retry",
            Event::WatchdogFired { .. } => "watchdog_fired",
            Event::ModeDowngrade { .. } => "mode_downgrade",
            Event::Campaign { action, .. } => match action {
                CampaignAction::Enqueue => "campaign_enqueue",
                CampaignAction::Dedup => "campaign_dedup",
                CampaignAction::Shed => "campaign_shed",
                CampaignAction::Lease => "campaign_lease",
                CampaignAction::Retry => "campaign_retry",
                CampaignAction::Complete => "campaign_complete",
                CampaignAction::Fail => "campaign_fail",
            },
            Event::Coherence { ev, .. } => match ev {
                CoherenceEvent::CoherentFill { .. } => "coherent_fill",
                CoherenceEvent::NcFill { .. } => "nc_fill",
                CoherenceEvent::Upgrade { .. } => "upgrade",
                CoherenceEvent::DirEviction { .. } => "dir_eviction",
                CoherenceEvent::NcToCoherent { .. } => "nc_to_coherent",
                CoherenceEvent::CoherentToNc { .. } => "coherent_to_nc",
                CoherenceEvent::FlushNc { .. } => "flush_nc",
                CoherenceEvent::AdrResize { .. } => "adr_resize",
                CoherenceEvent::FaultInjected { .. } => "fault_injected",
                CoherenceEvent::Nack { .. } => "nack",
                CoherenceEvent::RetryRecovered { .. } => "retry_recovered",
                CoherenceEvent::RetryExhausted { .. } => "retry_exhausted",
                CoherenceEvent::DirEntryLost { .. } => "dir_entry_lost",
            },
        }
    }
}
