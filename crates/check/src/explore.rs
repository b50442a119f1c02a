//! Exhaustive small-state protocol exploration.
//!
//! Breadth-first enumeration of **all** interleavings of a small alphabet
//! of operations (a few cores × a few blocks × {coherent read, coherent
//! write, NC read, NC write} plus `raccd_invalidate` and, optionally, page
//! flushes) against the real machine, with the shadow checker asserting
//! every invariant after every operation in every reachable state.
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
//! A frontier state is its operation sequence, and expanding it replays
//! that sequence on a fresh machine with [`replay`] — the function a
//! dumped counterexample is re-run with — plus one operation. Forking
//! instead (one `Machine` snapshot per frontier state, expanded by
//! `Machine::restore` plus one op) was measured and is slower: restore
//! decodes every L1 set, re-renders the configuration fingerprint and
//! recomputes `state_key` for its integrity check, which together cost
//! more than `Machine::new` plus the few-op prefix they replace. On a
//! 2-vCPU VM, release build, it took ×1.4–2.4 the wall on the 2-core ×
//! 2-block rows, and the 3-core frontier's 82 051 snapshots of ~14 KB
//! each took peak RSS from 51 MB to 1.75 GB. Replay also re-checks
//! determinism on every expansion: a prefix that was clean when
//! discovered must be clean again on re-execution.

use crate::trace::{replay, write_counterexample, TraceOp};
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
            ops.push(TraceOp::FlushNc { core });
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
    /// Distinct clean protocol states reached (including the initial
    /// state).
    pub states: usize,
    /// `true` when the frontier emptied before hitting `max_depth` /
    /// `max_states`: the state space is fully closed — every reachable
    /// state was visited and every invariant held in all of them.
    pub exhausted: bool,
    /// Invariant violations, each with the shortest operation sequence
    /// that reaches its violating state (already written to the
    /// counterexample dump directory, one file per violating state).
    pub violations: Vec<(Vec<TraceOp>, Violation)>,
}

/// Run the breadth-first exploration.
pub fn explore(ec: &ExploreConfig) -> ExploreResult {
    let alphabet = ec.alphabet();
    let mut seen: HashSet<String> = HashSet::new();
    // Violating states are reported once, by the first (shortest) path
    // that reaches them. Their keys live apart from `seen` because the
    // key is mostly the checker's mirror: a machine that keeps a line it
    // reported invalidated leaves the mirror, and so the key, of a clean
    // state, and neither state may hide the other.
    let mut broken: HashSet<String> = HashSet::new();
    let mut frontier: VecDeque<Vec<TraceOp>> = VecDeque::new();
    let mut result = ExploreResult {
        states: 1,
        exhausted: true,
        violations: Vec::new(),
    };

    seen.insert(replay(ec.cfg, None, &[]).state_key());
    frontier.push_back(Vec::new());

    while let Some(mut seq) = frontier.pop_front() {
        if seq.len() >= ec.max_depth {
            result.exhausted = false;
            continue;
        }
        for &op in &alphabet {
            seq.push(op);
            let mut m = replay(ec.cfg, None, &seq);
            let violations = m.drain_violations();
            if !violations.is_empty() {
                // Don't expand past a broken state.
                if broken.insert(m.state_key()) {
                    let _ = write_counterexample(&ec.cfg, None, &seq, "explore", &violations);
                    for v in violations {
                        result.violations.push((seq.clone(), v));
                    }
                }
            } else if seen.insert(m.state_key()) {
                result.states += 1;
                if result.states >= ec.max_states {
                    result.exhausted = false;
                    return result;
                }
                frontier.push_back(seq.clone());
            }
            seq.pop();
        }
    }
    result
}
