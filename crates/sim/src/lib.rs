#![warn(missing_docs)]

//! The simulated multicore machine.
//!
//! This crate plays the role of gem5's ruby memory system in the paper's
//! evaluation: it ties together the per-core TLBs and L1 data caches, the
//! banked shared LLC, the banked sparse directory (with optional Adaptive
//! Directory Reduction), the mesh NoC and main memory, and it implements
//! both the **coherent** MESI transaction paths and the **non-coherent**
//! variants RaCCD introduces (§III-C3).
//!
//! * [`config`] — machine parameters; [`config::MachineConfig::paper`]
//!   reproduces Table I, [`config::MachineConfig::scaled`] is the
//!   proportionally scaled default used by tests and benches (DESIGN.md §2).
//! * [`stats`] — counters for every metric the evaluation reports.
//! * [`event`] — the protocol-event record and the name/value [`Field`]
//!   walk the text exporters render every telemetry record through.
//! * [`machine`] — the machine state and access paths.
//! * [`check`] — the shadow golden-memory coherence checker (SWMR,
//!   data-value, inclusion and RaCCD-safety invariants), attachable to any
//!   machine and force-enabled via `RACCD_SHADOW_CHECK=1`.
//!
//! Timing model: each memory reference is processed atomically at its
//! core's local time; latencies accumulate per Table I. Directory and LLC
//! lookups of a coherent transaction proceed in parallel (both 15 cycles);
//! non-coherent requests skip the directory entirely.

pub mod check;
pub mod config;
pub mod event;
pub mod machine;
pub mod stats;

pub use check::{CheckEvent, CheckReport, CheckSink, CheckStats, ShadowChecker, Violation};
pub use config::{Latencies, MachineConfig, RuntimeCosts, DIR_RATIOS};
pub use event::{CoherenceEvent, Field, TimedEvent};
pub use machine::{BlockHits, L1LookupResult, Machine};
pub use raccd_fault::{Backoff, FaultPlan, FaultPlane, FaultSite, FaultStats, Watchdog};
pub use raccd_noc::Topology;
pub use raccd_protocol::ProtocolKind;
pub use raccd_sched::{SchedCounters, SchedKind};
pub use stats::Stats;
