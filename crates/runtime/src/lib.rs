#![warn(missing_docs)]

//! Task-dataflow runtime (the paper's Nanos++ / OpenMP 4.0 role).
//!
//! Task-based data-flow programming models "conceive the execution of a
//! parallel program as a set of tasks with data dependences between them"
//! (§II-C). The programmer annotates each task with the address ranges it
//! reads (`in`), writes (`out`) or both (`inout`); the runtime builds a
//! Task Dependence Graph (TDG), keeps a ready queue, schedules ready tasks
//! onto threads and wakes dependents when a task finishes (Figure 3).
//!
//! * [`region`] — dependence directions and annotated ranges.
//! * [`task`] — task bodies and the [`task::TaskCtx`] they run against:
//!   every typed read/write *actually happens* on the byte-accurate
//!   [`raccd_mem::SimMemory`] **and** is recorded as a [`MemRef`] for the
//!   timing model, so functional results and simulated traffic can never
//!   diverge.
//! * [`graph`] — TDG construction (last-writer/reader tracking over runs
//!   of blocks touched alike, like Nanos++'s region maps) and completion
//!   wake-up.
//! * [`builder`] — the [`builder::ProgramBuilder`] façade workloads use.
//!
//! The ready-queue policies of §II-C live in the `raccd-sched` crate
//! (one ready queue, its pop rule picked by `SchedKind`), and the driver
//! wires them to this crate's TDG wake-ups.

pub mod builder;
pub mod graph;
pub mod region;
pub mod retry;
pub mod task;
pub mod workload;

pub use builder::{Program, ProgramBuilder};
pub use graph::{TaskGraph, TaskId};
pub use raccd_mem::MemRef;
pub use region::{Dep, DepDir};
pub use retry::{RetryBook, RetryDecision};
pub use task::TaskCtx;
pub use workload::Workload;
