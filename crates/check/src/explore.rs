//! Exhaustive small-state protocol exploration.
//!
//! Breadth-first enumeration of **all** interleavings of a small alphabet
//! of operations (a few cores × a few blocks × {coherent read, coherent
//! write, NC read, NC write} plus `raccd_invalidate` and page flushes)
//! against the real MESI + RaCCD machine, with the shadow checker
//! asserting every invariant after every operation in every reachable
//! state.
//!
//! States are deduplicated by the shadow checker's canonical fingerprint
//! (`ShadowChecker::state_key`): it covers the L1/LLC/memory version
//! structure (as dense ranks), MESI states, NC and stale bits, directory
//! presence/owner/holders and per-bank capacities — everything that
//! determines future protocol behaviour — while excluding wall-clock time
//! and replacement metadata (the explored configurations are sized so no
//! pseudo-LRU decision is ever exercised). Equal fingerprints therefore
//! have identical continuations, and the BFS reaches a **closed** state
//! space: when the frontier empties, every reachable protocol state has
//! been visited and checked.
//!
//! [`Machine`](raccd_sim::Machine) is deliberately not `Clone` (it owns
//! telemetry hooks), so expansion replays each frontier prefix from
//! scratch — cheap at these depths, and itself a continuous test of
//! replay determinism: a prefix that was clean when discovered must be
//! clean again on re-execution.

use crate::harness::CheckedMachine;
use crate::trace::{write_counterexample, TraceOp};
use raccd_mem::{BLOCK_SHIFT, PAGE_SHIFT};
use raccd_sim::{MachineConfig, Violation};
use std::collections::{HashSet, VecDeque};

/// What to explore.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Machine configuration (keep caches large enough that the block set
    /// never evicts by capacity, so replacement state stays trivial).
    pub cfg: MachineConfig,
    /// Cores allowed to issue operations.
    pub cores: Vec<usize>,
    /// Physical block numbers the cores touch.
    pub blocks: Vec<u64>,
    /// Include per-core `raccd_invalidate` (NC flush) in the alphabet.
    pub flush_nc: bool,
    /// Include PT-style page flushes of the blocks' pages in the alphabet.
    pub flush_pages: bool,
    /// Stop enqueueing continuations beyond this many operations. A full
    /// closure needs this above the state-graph diameter; [`ExploreResult::
    /// exhausted`] reports whether the bound was ever the limiter.
    pub max_depth: usize,
    /// Abort after this many distinct states (safety valve).
    pub max_states: usize,
}

impl ExploreConfig {
    /// Every operation a step may take, in a fixed deterministic order.
    fn alphabet(&self) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for &core in &self.cores {
            for &block in &self.blocks {
                for write in [false, true] {
                    for nc in [false, true] {
                        ops.push(TraceOp::Access {
                            core,
                            block,
                            write,
                            nc,
                        });
                    }
                }
            }
            if self.flush_nc {
                ops.push(TraceOp::FlushNc { core });
            }
            if self.flush_pages {
                let mut pages: Vec<u64> = self
                    .blocks
                    .iter()
                    .map(|b| (b << BLOCK_SHIFT) >> PAGE_SHIFT)
                    .collect();
                pages.sort_unstable();
                pages.dedup();
                for page in pages {
                    ops.push(TraceOp::FlushPage { core, page });
                }
            }
        }
        ops
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct ExploreResult {
    /// Distinct protocol states reached (including the initial state).
    pub states: usize,
    /// Total operations executed across all replays (work measure).
    pub ops_applied: u64,
    /// `true` when the frontier emptied before hitting `max_depth` /
    /// `max_states`: the state space is fully closed — every reachable
    /// state was visited and every invariant held in all of them.
    pub exhausted: bool,
    /// Invariant violations, each with the full operation sequence that
    /// produced it (already written to the counterexample dump directory).
    pub violations: Vec<(Vec<TraceOp>, Violation)>,
}

/// Run the breadth-first exploration.
pub fn explore(ec: &ExploreConfig) -> ExploreResult {
    let alphabet = ec.alphabet();
    let mut seen: HashSet<String> = HashSet::new();
    let mut frontier: VecDeque<Vec<TraceOp>> = VecDeque::new();
    let mut result = ExploreResult {
        states: 0,
        ops_applied: 0,
        exhausted: true,
        violations: Vec::new(),
    };

    let initial = CheckedMachine::new(ec.cfg);
    seen.insert(initial.state_key());
    result.states = 1;
    frontier.push_back(Vec::new());

    while let Some(prefix) = frontier.pop_front() {
        if prefix.len() >= ec.max_depth {
            result.exhausted = false;
            continue;
        }
        for &op in &alphabet {
            // Machines are not Clone: rebuild the (known-clean) prefix.
            let mut m = CheckedMachine::new(ec.cfg);
            for &p in &prefix {
                m.apply(p);
            }
            m.apply(op);
            result.ops_applied += prefix.len() as u64 + 1;
            let violations = m.drain_violations();
            if !violations.is_empty() {
                let mut seq = prefix.clone();
                seq.push(op);
                let _ = write_counterexample(&ec.cfg, None, &seq, "explore", &violations);
                for v in violations {
                    result.violations.push((seq.clone(), v));
                }
                continue; // don't expand past a broken state
            }
            if seen.insert(m.state_key()) {
                result.states += 1;
                if result.states >= ec.max_states {
                    result.exhausted = false;
                    return result;
                }
                let mut seq = prefix.clone();
                seq.push(op);
                frontier.push_back(seq);
            }
        }
    }
    result
}
