//! The unified telemetry event model.
//!
//! Every observable thing the stack does — protocol transactions in the
//! machine, task lifecycle transitions in the runtime driver, and RaCCD
//! mechanism activity (NCRT registration, `raccd_invalidate`, ADR resizes,
//! PT reclassification) — is normalised into one [`Event`] stream, stamped
//! with the simulated cycle it happened at. The [`crate::Recorder`]
//! buffers the stream; the exporters read it after the run.
//!
//! Each variant is declared once, at the bottom of this file: its `kind`
//! string, then its fields. The enum, [`Event::cycle`], [`Event::kind`]
//! and the name/value walk [`Event::fields`] that every exporter renders
//! come from that declaration (DESIGN.md §7, "Schema").

use raccd_sim::{CoherenceEvent, Field};

/// Interned task-name identifier (see [`crate::Recorder::intern`]).
pub type NameId = u32;

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
    /// Every action.
    pub const ALL: [CampaignAction; 7] = [
        CampaignAction::Enqueue,
        CampaignAction::Dedup,
        CampaignAction::Shed,
        CampaignAction::Lease,
        CampaignAction::Retry,
        CampaignAction::Complete,
        CampaignAction::Fail,
    ];

    /// The JSONL `kind` of the action's [`Event::Campaign`].
    pub fn kind(self) -> &'static str {
        match self {
            CampaignAction::Enqueue => "campaign_enqueue",
            CampaignAction::Dedup => "campaign_dedup",
            CampaignAction::Shed => "campaign_shed",
            CampaignAction::Lease => "campaign_lease",
            CampaignAction::Retry => "campaign_retry",
            CampaignAction::Complete => "campaign_complete",
            CampaignAction::Fail => "campaign_fail",
        }
    }

    /// Stable lowercase label (the `kind` suffix; CSV column).
    pub fn label(self) -> &'static str {
        &self.kind()["campaign_".len()..]
    }
}

/// Declare [`Event`]: `"kind" Variant { cycle, fields… }` per variant, a
/// field that holds an interned name marked `=> interned`. The two
/// variants that are not a flat list of their own fields are written out
/// here: `Coherence` is its protocol event's kind and fields, `Campaign`
/// folds `action` into its kind and prints `fingerprint` as `"fp"` in
/// 16-digit hex.
macro_rules! event_schema {
    ($($(#[$vm:meta])* $kind:literal $variant:ident {
        $(#[$cm:meta])* cycle: u64,
        $($(#[$fm:meta])* $field:ident: $ty:ty $(=> $via:ident)?),* $(,)?
    }),* $(,)?) => {
        /// One telemetry event, stamped with its simulated cycle.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $($(#[$vm])* $variant {
                $(#[$cm])* cycle: u64,
                $($(#[$fm])* $field: $ty),*
            },)*
            /// A machine-level protocol event (fills, upgrades, directory
            /// evictions, NC transitions, ADR resizes), absorbed from
            /// [`raccd_sim::Machine`]'s recorder.
            Coherence {
                /// Simulated cycle.
                cycle: u64,
                /// The protocol event.
                ev: CoherenceEvent,
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

        impl Event {
            /// The kind strings declared here; the stream also carries
            /// [`CoherenceEvent::KINDS`] and every [`CampaignAction::kind`].
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// The cycle stamp of any event.
            pub fn cycle(&self) -> u64 {
                match *self {
                    $(Event::$variant { cycle, .. })|*
                    | Event::Coherence { cycle, .. }
                    | Event::Campaign { cycle, .. } => cycle,
                }
            }

            /// Short machine-readable kind tag (JSONL `kind` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                    Event::Coherence { ev, .. } => ev.kind(),
                    Event::Campaign { action, .. } => action.kind(),
                }
            }

            /// Walk the event's fields after `cycle` by name, in
            /// declaration order (the JSONL key order). Interned task
            /// names are resolved through `names`.
            pub fn fields(&self, names: &[String], f: &mut dyn FnMut(&'static str, Field<'_>)) {
                match self {
                    $(Event::$variant { cycle: _, $($field),* } => {
                        $(event_schema!(@emit f names $field $($via)?);)*
                    })*
                    Event::Coherence { ev, .. } => ev.fields(f),
                    Event::Campaign { fingerprint, seed, queue_depth, .. } => {
                        f("fp", Field::Str(&format!("{fingerprint:016x}")));
                        f("seed", Field::U64(*seed));
                        f("queue_depth", Field::U64(*queue_depth as u64));
                    }
                }
            }
        }
    };
    (@emit $f:ident $names:ident $field:ident) => {
        $f(stringify!($field), Field::from(*$field))
    };
    (@emit $f:ident $names:ident $field:ident interned) => {
        $f(
            stringify!($field),
            Field::Str($names.get(*$field as usize).map_or("", String::as_str)),
        )
    };
}

event_schema! {
    /// A task exists in the dependence graph (emitted at cycle 0 for the
    /// whole TDG, before simulation starts).
    "task_created" TaskCreated {
        /// Simulated cycle.
        cycle: u64,
        /// Task id in the TDG.
        task: u32,
        /// Interned task name.
        name: NameId => interned,
        /// Number of declared dependences.
        deps: u32,
    },
    /// A task's dependences were satisfied and it entered the ready queue.
    "task_woken" TaskWoken {
        /// Simulated cycle.
        cycle: u64,
        /// Task id.
        task: u32,
        /// Core whose wake-up phase released it (`None` for initially
        /// ready tasks).
        waker_core: Option<u32>,
    },
    /// A hardware context dequeued the task and began running it.
    "task_scheduled" TaskScheduled {
        /// Simulated cycle (dispatch time, after the scheduling phase).
        cycle: u64,
        /// Task id.
        task: u32,
        /// Interned task name.
        name: NameId => interned,
        /// Hardware context (core × SMT way).
        ctx: u32,
        /// Physical core.
        core: u32,
        /// Cycles the task waited between wake-up and dispatch.
        wait_cycles: u64,
    },
    /// The task's reference trace finished replaying.
    "task_completed" TaskCompleted {
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
    "task_migrated" TaskMigrated {
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
    "ncrt_register" NcrtRegister {
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
    "ncrt_invalidate" NcrtInvalidate {
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
    "pt_transition" PtTransition {
        /// Simulated cycle.
        cycle: u64,
        /// Core that lost its private mapping.
        prev_owner: u32,
        /// Physical page number.
        page: u64,
        /// L1 lines the OS-triggered flush removed.
        flushed_lines: u64,
    },
    /// The driver re-executed a task after an injected failure (safe under
    /// RaCCD because `raccd_invalidate` discards its NC residue).
    "task_retry" TaskRetry {
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
    "watchdog_fired" WatchdogFired {
        /// Simulated cycle the expiry was noticed.
        cycle: u64,
        /// Cycle of the last retired task.
        last_progress: u64,
        /// The no-progress threshold that was exceeded.
        threshold: u64,
    },
    /// Sustained fault pressure made the driver fall back from RaCCD to
    /// full coherence for the rest of the run.
    "mode_downgrade" ModeDowngrade {
        /// Simulated cycle of the downgrade.
        cycle: u64,
        /// NCRT overflows observed in the triggering window.
        overflows: u64,
        /// Message retries observed in the triggering window.
        retries: u64,
    },
}
