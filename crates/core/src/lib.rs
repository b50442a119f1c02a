#![warn(missing_docs)]

//! RaCCD — Runtime-assisted Cache Coherence Deactivation (§III).
//!
//! This crate is the paper's primary contribution, tying the task runtime
//! (`raccd-runtime`) to the simulated machine (`raccd-sim`):
//!
//! * [`ncrt`] — the Non-Coherent Region Table (Figure 4) and the
//!   `raccd_register` iterative virtual→physical translation with region
//!   collapsing (Figure 5).
//! * [`pt`] — the Page-Table baseline classifier of Cuesta et al.\[ISCA'11\]: a
//!   private/shared bit per page, first-touch private, irreversible
//!   private→shared transitions with cache+TLB flushes (§II-B).
//! * [`mode`] — the three evaluated systems: FullCoh, PT, RaCCD (§V-A).
//! * [`census`] — the non-coherent block census behind Figure 2.
//! * [`driver`] — the simulation loop, one private phase function per
//!   step of Figure 3: `dispatch` (scheduling, `raccd_register` per
//!   dependence, the body run functionally at dispatch), `replay_batch`
//!   (timed replay under interleaving), then `retry` / `preempt` /
//!   `retire`, which share one `flush_nc` (`raccd_invalidate`) before the
//!   wake-up.
//! * [`experiment`] — the top-level [`Experiment`] API and [`RunResult`].
//!
//! There are two ways to run a program. [`run`] takes both host-side
//! options at once ([`RunOptions`]: recorder, fault plan);
//! [`run_resilient`] adds checkpoint-rollback recovery and is separate
//! only because it needs a program *factory*. Both are thin loops over
//! the resumable [`Driver`], whose stepping surface is [`Driver::step`],
//! [`Driver::run_until`] and [`Driver::finish`]. One event loop advances
//! every core's clock (DESIGN.md §12).

pub mod census;
pub mod driver;
pub mod experiment;
pub mod mode;
pub mod ncrt;
pub mod pt;
pub mod resilience;
pub mod tlbclass;

pub use census::{Census, CensusSummary};
pub use driver::{run, run_resilient, Driver, DriverOutput, RollbackPolicy, RunOptions};
pub use experiment::{Engine, Experiment, RunResult};
pub use mode::CoherenceMode;
pub use ncrt::Ncrt;
pub use pt::{PageClassifier, PtDecision};
pub use raccd_obs::Recorder;
pub use resilience::{DegradeController, DetectReason, FaultReport};
pub use tlbclass::TlbClassifier;
