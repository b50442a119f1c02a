#![warn(missing_docs)]

//! # RaCCD — Runtime-Assisted Cache Coherence Deactivation
//!
//! A from-scratch Rust reproduction of *"Runtime-Assisted Cache Coherence
//! Deactivation in Task Parallel Programs"* (Caheny, Alvarez, Valero,
//! Moretó, Casas — SC 2018).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`mem`] — simulated virtual memory, page table, TLBs, backing store.
//! * [`cache`] — set-associative cache models (L1D, LLC banks) with
//!   tree pseudo-LRU and per-block Non-Coherent bits.
//! * [`noc`] — 4×4 mesh Network-on-Chip model with flit accounting.
//! * [`protocol`] — MESI-style directory protocol, sparse inclusive
//!   directory, and Adaptive Directory Reduction (ADR).
//! * [`energy`] — CACTI/McPAT-like analytical area & energy models
//!   (calibrated to the paper's Table III).
//! * [`sim`] — the multicore machine: timing, access paths, statistics.
//! * [`obs`] — the telemetry subsystem: unified event stream, interval
//!   time-series sampler, log2 latency histograms, and JSONL / CSV /
//!   Chrome-trace (Perfetto) exporters.
//! * [`runtime`] — the task-dataflow runtime: dependences, task dependence
//!   graph, and completion wake-up.
//! * [`sched`] — the ready queue and its five policies (`SchedKind`): central
//!   FIFO, NUMA-aware work stealing, critical-path priority, locality
//!   affinity, and audited quantum preemption.
//! * [`core`] — the paper's contribution: the NCRT, `raccd_register` /
//!   `raccd_invalidate`, the Page-Table (PT) baseline classifier, and the
//!   [`core::Experiment`] driver that ties runtime and machine together.
//! * [`workloads`] — the nine task-parallel benchmarks of Table II plus the
//!   Cholesky example of Figure 1.
//!
//! ## Quickstart
//!
//! ```
//! use raccd::core::{CoherenceMode, Experiment};
//! use raccd::sim::MachineConfig;
//! use raccd::workloads::{Scale, Workload, jacobi::Jacobi};
//!
//! let config = MachineConfig::scaled();           // Table I, scaled down
//! let workload = Jacobi::new(Scale::Test);
//! let run = Experiment::new(config, CoherenceMode::Raccd).run(&workload);
//! assert!(run.stats.cycles > 0);
//! assert!(run.verified, "workload functional output checked");
//! ```

/// The reproduction's design document (DESIGN.md), embedded for rustdoc.
pub mod design {
    #![doc = include_str!("../DESIGN.md")]
}

/// Paper-vs-measured results (EXPERIMENTS.md), embedded for rustdoc.
pub mod experiments {
    #![doc = include_str!("../EXPERIMENTS.md")]
}

pub use raccd_cache as cache;
pub use raccd_core as core;
pub use raccd_energy as energy;
pub use raccd_mem as mem;
pub use raccd_noc as noc;
pub use raccd_obs as obs;
pub use raccd_protocol as protocol;
pub use raccd_runtime as runtime;
pub use raccd_sched as sched;
pub use raccd_sim as sim;
pub use raccd_workloads as workloads;
