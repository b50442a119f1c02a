//! The top-level experiment API.
//!
//! ```
//! use raccd_core::{CoherenceMode, Experiment};
//! use raccd_sim::MachineConfig;
//! # use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};
//! # use raccd_mem::SimMemory;
//! # struct W;
//! # impl Workload for W {
//! #     fn name(&self) -> &str { "w" }
//! #     fn build(&self) -> Program {
//! #         let mut b = ProgramBuilder::new();
//! #         let v = b.alloc("v", 8);
//! #         b.task("t", vec![Dep::output(v)], move |ctx| ctx.write_u64(v.start, 7));
//! #         b.finish()
//! #     }
//! #     fn verify(&self, mem: &SimMemory) -> Result<(), String> {
//! #         (mem.read_u64(raccd_mem::VAddr(SimMemory::HEAP_BASE)) == 7)
//! #             .then_some(()).ok_or_else(|| "bad".into())
//! #     }
//! # }
//! let run = Experiment::new(MachineConfig::scaled(), CoherenceMode::Raccd).run(&W);
//! assert!(run.verified);
//! assert!(run.stats.cycles > 0);
//! ```

use crate::census::CensusSummary;
use crate::driver::{run, DriverOutput, RunOptions};
use crate::mode::CoherenceMode;
use raccd_obs::Recorder;
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, Stats};

/// One simulated execution of a workload on a configured machine.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Machine configuration (Table I preset or variant).
    pub config: MachineConfig,
    /// System under evaluation.
    pub mode: CoherenceMode,
}

// benchmark/ compat: the name `benchmark/src/sim.rs` imports and the
// variant its engine twin constructs. Delete with the first `benchmark` PR.
/// Accepted, runs serially: there is one event loop, whatever is named here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The event loop.
    Serial,
    /// Accepted, runs serially; `threads` is ignored.
    EpochParallel {
        /// Ignored.
        threads: usize,
    },
}

/// Results of an [`Experiment::run`].
#[derive(Clone, Debug)]
pub struct RunResult {
    /// All machine counters.
    pub stats: Stats,
    /// Figure 2's block census.
    pub census: CensusSummary,
    /// Whether the workload's functional verification passed.
    pub verified: bool,
    /// Verification failure description, if any.
    pub verify_error: Option<String>,
    /// Tasks executed.
    pub tasks: usize,
    /// TDG edges.
    pub edges: usize,
}

impl Experiment {
    /// Describe an experiment.
    pub fn new(config: MachineConfig, mode: CoherenceMode) -> Self {
        Experiment { config, mode }
    }

    // benchmark/ compat: the engine twin's builder call.
    /// Accepted, runs serially: returns `self` unchanged.
    pub fn with_engine(self, _: Engine) -> Self {
        self
    }

    /// Build the workload's program, simulate it, and verify the output.
    pub fn run(&self, workload: &dyn Workload) -> RunResult {
        self.run_with_recorder(workload, None)
    }

    /// [`Experiment::run`] with optional telemetry: with `Some(recorder)`
    /// the driver streams the unified event model, latency histograms and
    /// interval time-series into it (see [`raccd_obs`]).
    pub fn run_with_recorder(
        &self,
        workload: &dyn Workload,
        recorder: Option<&mut Recorder>,
    ) -> RunResult {
        let opts = RunOptions {
            recorder,
            faults: None,
        };
        let DriverOutput {
            stats,
            census,
            mem,
            tasks,
            edges,
            events: _,
            check: _,
            fault: _,
            audit: _,
        } = run(self.config, self.mode, workload.build(), opts);
        let verify = workload.verify(&mem);
        RunResult {
            stats,
            census: census.summary(),
            verified: verify.is_ok(),
            verify_error: verify.err(),
            tasks,
            edges,
        }
    }

    // benchmark/ compat: the profiler twin's call.
    /// [`Experiment::run`]: there is no profiler to attach.
    pub fn run_profiled(&self, workload: &dyn Workload) -> RunResult {
        self.run(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_mem::SimMemory;
    use raccd_runtime::{Dep, Program, ProgramBuilder};

    struct Summer {
        n: u64,
    }

    impl Workload for Summer {
        fn name(&self) -> &str {
            "summer"
        }
        fn build(&self) -> Program {
            let mut b = ProgramBuilder::new();
            let data = b.alloc("data", self.n * 8);
            let out = b.alloc("out", 8);
            for i in 0..self.n {
                b.mem().write_u64(data.start.offset(i * 8), i + 1);
            }
            let n = self.n;
            b.task(
                "sum",
                vec![Dep::input(data), Dep::output(out)],
                move |ctx| {
                    let mut s = 0;
                    for i in 0..n {
                        s += ctx.read_u64(data.start.offset(i * 8));
                    }
                    ctx.write_u64(out.start, s);
                },
            );
            b.finish()
        }
        fn verify(&self, mem: &SimMemory) -> Result<(), String> {
            let out_addr = mem.allocations()[1].1.start;
            let got = mem.read_u64(out_addr);
            let want = self.n * (self.n + 1) / 2;
            if got == want {
                Ok(())
            } else {
                Err(format!("sum {got} != {want}"))
            }
        }
    }

    #[test]
    fn experiment_runs_and_verifies() {
        for mode in CoherenceMode::ALL {
            let r =
                Experiment::new(raccd_sim::MachineConfig::scaled(), mode).run(&Summer { n: 1000 });
            assert!(r.verified, "{mode}: {:?}", r.verify_error);
            assert_eq!(r.tasks, 1);
            assert!(r.stats.refs_processed >= 1001);
        }
    }

    /// "Accepted, runs serially", executably: the two compat entry points
    /// are `run`, field for field.
    #[test]
    fn compat_surface_runs_serially() {
        let w = Summer { n: 1000 };
        for mode in CoherenceMode::ALL {
            let exp = Experiment::new(raccd_sim::MachineConfig::scaled(), mode);
            let RunResult {
                stats,
                census,
                verified,
                verify_error,
                tasks,
                edges,
            } = exp.run(&w);
            let twins = [
                exp.with_engine(Engine::EpochParallel { threads: 8 })
                    .run(&w),
                exp.with_engine(Engine::Serial).run(&w),
                exp.run_profiled(&w),
            ];
            for r in twins {
                assert_eq!(r.stats, stats, "{mode}");
                assert_eq!(r.census, census, "{mode}");
                assert_eq!((r.verified, &r.verify_error), (verified, &verify_error));
                assert_eq!((r.tasks, r.edges), (tasks, edges), "{mode}");
            }
        }
    }

    #[test]
    fn census_summary_exposed() {
        let r = Experiment::new(raccd_sim::MachineConfig::scaled(), CoherenceMode::Raccd)
            .run(&Summer { n: 1000 });
        assert!(r.census.total_blocks > 0);
        assert!(r.census.noncoherent_pct() > 50.0);
    }
}
