//! Shadow golden-memory coherence checker (the correctness oracle).
//!
//! The paper's entire claim rests on RaCCD deactivating coherence *without
//! changing program results*: the NC bit, `raccd_invalidate` flushes and
//! ADR resizes must never let a core observe stale data. This module is a
//! reference model that shadows every [`crate::machine::Machine`] mutation
//! and machine-checks the protocol invariants after every operation:
//!
//! * **SWMR** — at most one writer per block: a coherent Modified/Exclusive
//!   line excludes every other coherent copy.
//! * **Data-value** — a read returns the value of the last write. The
//!   shadow model is *version based*: every write to a block bumps a
//!   per-block version counter, every copy of the block (L1 line, LLC line,
//!   memory) carries the version it holds, and writebacks propagate
//!   versions along the same paths the machine moves data. A read that
//!   observes an old version is a violation — unless the newer data lives
//!   only in an unflushed non-coherent line, which is exactly the race
//!   RaCCD's programming model excludes (tasks access annotated data only
//!   between `raccd_register` and `raccd_invalidate`). Such excused
//!   observations are counted in [`CheckStats::stale_excused`];
//!   disciplined runs assert the count is zero.
//! * **Inclusion** — a coherent L1 line implies a coherent LLC line and a
//!   directory entry; a directory entry implies a coherent LLC line.
//! * **RaCCD safety** — no coherent sharer of an NC-marked LLC line; under
//!   RaCCD, every NC fill falls inside a region registered by
//!   `raccd_register` and not yet dropped by `raccd_invalidate`; a
//!   directory eviction (capacity or ADR resize) never strands a tracked
//!   sharer.
//! * **NC immutability** — an L1 hit sees the NC bit its installing fill
//!   wrote (`l1-nc-mutated` otherwise). The driver records the Figure 2
//!   census at fill time only, which is exact because of this.
//!
//! The checker hangs off [`crate::machine::Machine`] as a [`CheckSink`];
//! the machine emits a [`CheckEvent`] at every access, fill, invalidation,
//! eviction, flush and resize. Setting the environment variable
//! `RACCD_SHADOW_CHECK=1` force-attaches a fail-fast checker to every
//! machine built in the process (CI runs the whole test suite this way).
//! On a violation the fail-fast checker panics, dumping the recent event
//! window — and, when `RACCD_CHECK_DUMP_DIR` is set, writing the dump to a
//! file so CI can upload counterexamples as artifacts. The `raccd-check`
//! crate builds replayable *operation* traces, an exhaustive small-state
//! explorer and a differential harness on top of this module.

use crate::config::MachineConfig;
use crate::machine::Machine;
use raccd_cache::L1State;
use raccd_mem::{BlockAddr, FibMap, BLOCK_SIZE};
use std::any::Any;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;

/// One shadow-checkable machine mutation. The machine emits these from
/// every path that moves data or metadata; the order of emission matches
/// the order the machine applies the mutations.
#[derive(Clone, Debug)]
pub enum CheckEvent {
    /// An L1 hit (read, or write completing locally / after upgrade).
    /// Emitted after any upgrade invalidations.
    L1Hit {
        /// Accessing core.
        core: usize,
        /// Block accessed.
        block: BlockAddr,
        /// Store vs load.
        write: bool,
        /// NC bit of the hit line.
        nc: bool,
    },
    /// A fill into the requesting L1 after a miss. Emitted after the
    /// fill-path events (LLC fill, transitions, invalidations) and before
    /// the L1 victim is disposed of.
    Fill {
        /// Requesting core.
        core: usize,
        /// Block filled.
        block: BlockAddr,
        /// Store vs load.
        write: bool,
        /// Non-coherent fill.
        nc: bool,
        /// L1 state installed.
        state: L1State,
        /// Data supplied cache-to-cache by the previous owner.
        from_owner: bool,
    },
    /// An L1 line was replaced (capacity victim).
    L1Evict {
        /// Core evicting.
        core: usize,
        /// Victim block.
        block: BlockAddr,
        /// Victim state.
        state: L1State,
        /// Victim NC bit.
        nc: bool,
    },
    /// A directory-initiated invalidation reached a core.
    L1Invalidated {
        /// Core invalidated.
        core: usize,
        /// Block invalidated.
        block: BlockAddr,
        /// Whether the line was actually present (stale sharer bits make
        /// spurious invalidations legal).
        present: bool,
        /// Whether the invalidated line was dirty (written back).
        dirty: bool,
    },
    /// The owner (or MESIF forwarder) downgraded on a remote GetS:
    /// Modified/Exclusive → Shared under MESI, Forward → Shared on a MESIF
    /// handoff, Modified → Owned under MOESI (dirty data stays private).
    L1Downgraded {
        /// Previous owner.
        core: usize,
        /// Block downgraded.
        block: BlockAddr,
        /// Whether the line was dirty before the downgrade. Data is
        /// written back to the LLC only when the target state does not
        /// retain it (i.e. `to` is not Owned).
        was_dirty: bool,
        /// State the line transitioned to.
        to: L1State,
    },
    /// `raccd_invalidate` flushed one NC line.
    L1FlushedNc {
        /// Core flushed.
        core: usize,
        /// Block flushed.
        block: BlockAddr,
        /// State of the flushed line (Modified ⇒ written back).
        state: L1State,
    },
    /// A PT / TLB-classifier page flush removed one line.
    L1FlushedPage {
        /// Core flushed.
        core: usize,
        /// Block flushed.
        block: BlockAddr,
        /// State of the flushed line.
        state: L1State,
        /// NC bit of the flushed line.
        nc: bool,
    },
    /// A block was fetched from memory into the home LLC bank.
    LlcFill {
        /// Block fetched.
        block: BlockAddr,
        /// Fetched with the NC attribute.
        nc: bool,
    },
    /// An LLC line was removed (capacity victim or inclusion invalidation).
    LlcEvict {
        /// Victim block.
        block: BlockAddr,
        /// NC bit of the victim.
        nc: bool,
        /// Machine-side dirty flag (dirty data goes to memory).
        dirty: bool,
    },
    /// A write-through store updated the home LLC (or memory if the LLC
    /// line was replaced meanwhile).
    WriteThrough {
        /// Writing core.
        core: usize,
        /// Block written.
        block: BlockAddr,
    },
    /// NC → coherent transition (§III-E): the LLC line's NC bit cleared.
    NcToCoherent {
        /// The block.
        block: BlockAddr,
    },
    /// Coherent → NC transition (§III-E): the LLC line's NC bit set.
    CoherentToNc {
        /// The block.
        block: BlockAddr,
    },
    /// A directory entry was allocated (first coherent requester).
    DirAllocate {
        /// The block.
        block: BlockAddr,
        /// The requesting core (recorded as owner).
        core: usize,
    },
    /// A directory entry was deallocated (transition or LLC victim).
    DirDeallocate {
        /// The block.
        block: BlockAddr,
    },
    /// A directory entry was evicted for capacity (set conflict or ADR
    /// shrink); all tracked holders must be invalidated before the
    /// operation completes.
    DirEvicted {
        /// The block.
        block: BlockAddr,
        /// Tracked holder mask at eviction.
        holders: u64,
    },
    /// The ADR controller resized a bank.
    AdrResized {
        /// Bank index.
        bank: usize,
        /// New powered capacity.
        new_entries: usize,
    },
    /// Runtime note: the driver (re)loaded a core's NCRT for the next task
    /// (physical byte ranges, end exclusive).
    NcrtLoaded {
        /// The core.
        core: usize,
        /// Registered physical byte ranges.
        ranges: Vec<(u64, u64)>,
    },
    /// Runtime note: `raccd_invalidate` completed on a core — its NC lines
    /// are flushed and its NCRT cleared.
    NcInvalidate {
        /// The core.
        core: usize,
    },
    /// Runtime note: the driver runs RaCCD with registration discipline —
    /// arm the NC-fill-must-be-registered check.
    DisciplineOn,
    /// A public machine operation (lookup hit, miss fill, flush) finished:
    /// run the structural invariants over every block it touched.
    OpEnd,
}

/// Receiver of [`CheckEvent`]s, attached to a machine. A trait so that a
/// test can listen with a reference model of its own: `raccd-core`'s
/// per-reference census model is the second implementor.
pub trait CheckSink: Any {
    /// Process one event, in machine emission order.
    fn on_event(&mut self, ev: &CheckEvent);
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support (mutable).
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Produce the final report (called when the checker is detached).
    fn finish(&mut self) -> CheckReport;
}

/// A detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable short code naming the violated invariant (`swmr`,
    /// `data-value`, `l1-inclusion`, `dir-inclusion`, `nc-exclusivity`,
    /// `stranded-sharer`, `nc-discipline`, `l1-nc-mutated`, `mirror-desync`, ...).
    pub code: &'static str,
    /// Human-readable description with the offending block and cores.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.detail)
    }
}

/// Checker counters (all monotone).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Events processed.
    pub events: u64,
    /// Load observations checked against the golden version.
    pub reads_checked: u64,
    /// Store base-value observations checked (a partial-block store merges
    /// into the fetched data, so its base must be current too).
    pub writes_checked: u64,
    /// Stale observations excused because the newer data lived only in an
    /// unflushed NC line (the race RaCCD's programming model excludes).
    /// Disciplined runs assert this is zero.
    pub stale_excused: u64,
    /// Writes that raced an existing copy in another core's L1 through the
    /// non-coherent world (the racing copies are marked stale-excused).
    pub nc_write_races: u64,
    /// NC fills checked against the registered-region discipline.
    pub discipline_checked: u64,
    /// Full mirror-vs-machine audits run.
    pub audits: u64,
}

/// Final checker output.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Counters.
    pub stats: CheckStats,
    /// Violations collected (empty in fail-fast mode: the first one
    /// panics).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// No violations and no excused stale observations: the run was fully
    /// disciplined and coherent.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
            && self.stats.stale_excused == 0
            && self.stats.nc_write_races == 0
    }
}

/// A shadow L1 line.
#[derive(Clone, Copy, Debug)]
struct ShadowLine {
    state: L1State,
    nc: bool,
    /// Version of the block's data this copy holds.
    ver: u64,
    /// The copy is known-stale through an NC race; reads of it are excused.
    stale_ok: bool,
}

/// A shadow LLC line.
#[derive(Clone, Copy, Debug)]
struct ShadowLlc {
    nc: bool,
    ver: u64,
}

/// Everything the shadow knows about one block, so that an invariant over
/// the block reads one map entry.
#[derive(Clone, Debug, Default)]
struct ShadowBlock {
    /// Golden model: latest written version (`None` before the first
    /// write).
    cur: Option<u64>,
    /// Version memory holds (`None` before data first reaches memory).
    mem: Option<u64>,
    llc: Option<ShadowLlc>,
    /// Directory-presence mirror.
    dir: bool,
    /// The L1 copies as `(core, line)`, in core order: a short list, as
    /// few cores share a block.
    lines: Vec<(usize, ShadowLine)>,
}

impl ShadowBlock {
    fn line(&self, core: usize) -> Option<&ShadowLine> {
        self.lines.iter().find(|&&(c, _)| c == core).map(|(_, l)| l)
    }

    fn line_mut(&mut self, core: usize) -> Option<&mut ShadowLine> {
        self.lines
            .iter_mut()
            .find(|(c, _)| *c == core)
            .map(|(_, l)| l)
    }

    /// Install `core`'s copy, returning the one it replaces.
    fn insert_line(&mut self, core: usize, line: ShadowLine) -> Option<ShadowLine> {
        match self.lines.binary_search_by_key(&core, |&(c, _)| c) {
            Ok(i) => Some(std::mem::replace(&mut self.lines[i].1, line)),
            Err(i) => {
                // Few cores share a block: grow by one, not by doubling.
                self.lines.reserve_exact(1);
                self.lines.insert(i, (core, line));
                None
            }
        }
    }

    fn remove_line(&mut self, core: usize) -> Option<ShadowLine> {
        let i = self.lines.iter().position(|&(c, _)| c == core)?;
        Some(self.lines.remove(i).1)
    }

    /// Whether `state_key` lists the block: some version or copy of it
    /// exists (a directory bit alone does not count).
    fn keyed(&self) -> bool {
        self.cur.is_some() || self.mem.is_some() || self.llc.is_some() || !self.lines.is_empty()
    }

    /// Is there an unflushed NC copy newer than version `v` (in an L1 or
    /// the NC LLC line)? Such a copy excuses a stale observation: the
    /// newer data is outside the coherent world.
    fn nc_newer(&self, v: u64) -> bool {
        self.llc.is_some_and(|l| l.nc && l.ver > v)
            || self.lines.iter().any(|(_, l)| l.nc && l.ver > v)
    }

    /// Version of the data a fill by `core` receives, resolved along the
    /// same path the machine serves it: previous owner's cache (owner
    /// forward — necessarily a *coherent* copy; on a write forward the
    /// owner was already invalidated and its dirty data folded into the
    /// LLC), else the home LLC, else memory (an LLC refill always precedes
    /// the response, so the LLC branch covers memory fetches too).
    /// Returns `(version, excused)`: `excused` is set when the source line
    /// itself holds excused-stale data (it read through an NC race) — the
    /// taint travels with the forwarded data.
    fn source(&self, core: usize, from_owner: bool) -> (u64, bool) {
        if from_owner {
            let best = self
                .lines
                .iter()
                .filter(|&&(c, l)| c != core && !l.nc)
                .max_by_key(|(_, l)| l.ver);
            if let Some((_, l)) = best {
                return (l.ver, l.stale_ok);
            }
        }
        match self.llc {
            Some(l) => (l.ver, false),
            None => (self.mem.unwrap_or(0), false),
        }
    }

    /// Structural invariants for block `b`, from the mirror alone.
    fn violations(&self, b: u64, write_through: bool) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut push = |code, detail| out.push(Violation { code, detail });
        let mut coherent = 0usize;
        let mut exclusive_holders = 0usize;
        let mut dirty_holders = 0usize;
        let mut forward_holders = 0usize;
        for (c, l) in &self.lines {
            if write_through && l.state == L1State::Modified {
                push(
                    "wt-dirty",
                    format!("core {c} holds a Modified line {b:#x} under write-through"),
                );
            }
            if !l.nc {
                coherent += 1;
                // M/E exclude every other coherent copy; MOESI Owned
                // and MESIF Forward legally coexist with Shared.
                if matches!(l.state, L1State::Modified | L1State::Exclusive) {
                    exclusive_holders += 1;
                }
                if matches!(l.state, L1State::Modified | L1State::Owned) {
                    dirty_holders += 1;
                }
                if l.state == L1State::Forward {
                    forward_holders += 1;
                }
            }
        }
        if exclusive_holders > 1 || (exclusive_holders == 1 && coherent > 1) {
            push(
                "swmr",
                format!(
                    "block {b:#x}: {exclusive_holders} M/E holder(s) among \
                     {coherent} coherent copies"
                ),
            );
        }
        if dirty_holders > 1 {
            push(
                "swmr",
                format!("block {b:#x}: {dirty_holders} dirty (M/O) holders"),
            );
        }
        if forward_holders > 1 {
            push(
                "fwd-unique",
                format!("block {b:#x}: {forward_holders} Forward holders"),
            );
        }
        if self.llc.is_some_and(|l| l.nc) {
            if self.dir {
                push(
                    "nc-exclusivity",
                    format!("directory entry for NC LLC line {b:#x}"),
                );
            }
            if coherent > 0 {
                push(
                    "nc-exclusivity",
                    format!("{coherent} coherent sharer(s) of NC LLC line {b:#x}"),
                );
            }
        }
        if self.dir && self.llc.is_none_or(|l| l.nc) {
            push(
                "dir-inclusion",
                format!("directory entry without coherent LLC line for {b:#x}"),
            );
        }
        if coherent > 0 {
            if self.llc.is_none() {
                push(
                    "l1-inclusion",
                    format!("coherent L1 line {b:#x} not resident in the LLC"),
                );
            }
            if !self.dir {
                push(
                    "stranded-sharer",
                    format!(
                        "{coherent} coherent L1 cop(ies) of {b:#x} with no \
                         directory entry tracking them"
                    ),
                );
            }
        }
        out
    }
}

/// The golden-memory shadow model. See the module docs for the invariant
/// list. Construct with [`ShadowChecker::new`] (fail fast) or
/// [`ShadowChecker::collecting`] (accumulate violations for harnesses),
/// then attach via [`Machine::attach_checker`].
pub struct ShadowChecker {
    ncores: usize,
    write_through: bool,
    fail_fast: bool,
    discipline: bool,
    /// The mirror, one record per block. Nothing depends on the map's
    /// order: whatever is observable walks the blocks sorted.
    blocks: FibMap<u64, ShadowBlock>,
    /// NC lines per core, so that `raccd_invalidate`'s leftover check
    /// scans the mirror only when the core still holds one.
    nc_lines: Vec<u32>,
    /// Per-core registered physical ranges (mirror of the NCRT).
    ncrt: Vec<Vec<(u64, u64)>>,
    /// Blocks the current operation touched, checked at `OpEnd`.
    touched: Vec<u64>,
    violations: Vec<Violation>,
    /// Recent events, for counterexample dumps.
    recent: VecDeque<CheckEvent>,
    /// Checker counters.
    pub stats: CheckStats,
}

/// Number of recent events kept for failure dumps.
const RECENT_EVENTS: usize = 96;

/// Whether `RACCD_SHADOW_CHECK` force-enables the checker process-wide.
pub fn shadow_check_forced() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("RACCD_SHADOW_CHECK")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

impl ShadowChecker {
    fn empty(ncores: usize, write_through: bool, fail_fast: bool) -> Self {
        ShadowChecker {
            ncores,
            write_through,
            fail_fast,
            discipline: false,
            blocks: FibMap::default(),
            nc_lines: vec![0; ncores],
            ncrt: vec![Vec::new(); ncores],
            touched: Vec::new(),
            violations: Vec::new(),
            recent: VecDeque::with_capacity(RECENT_EVENTS),
            stats: CheckStats::default(),
        }
    }

    /// A fail-fast checker for `cfg`: the first violation panics with a
    /// recent-event dump.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::empty(cfg.ncores, cfg.l1_write_through, true)
    }

    /// A collecting checker: violations accumulate and are drained by the
    /// harness ([`ShadowChecker::take_violations`]) — used by the explorer
    /// and trace minimizer, which need to continue past a failure.
    pub fn collecting(cfg: &MachineConfig) -> Self {
        Self::empty(cfg.ncores, cfg.l1_write_through, false)
    }

    /// Violations collected so far (collecting mode).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drain collected violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// The recent-event window, rendered one event per line.
    pub fn recent_events(&self) -> String {
        let mut s = String::new();
        for ev in &self.recent {
            let _ = writeln!(s, "  {ev:?}");
        }
        s
    }

    fn violation(&mut self, code: &'static str, detail: String) {
        let v = Violation { code, detail };
        if self.fail_fast {
            let dump = format!(
                "shadow coherence checker violation: {v}\nrecent events:\n{}",
                self.recent_events()
            );
            if let Ok(dir) = std::env::var("RACCD_CHECK_DUMP_DIR") {
                if !dir.is_empty() {
                    let _ = std::fs::create_dir_all(&dir);
                    let path = format!("{}/shadow-{}-{}.log", dir, v.code, std::process::id());
                    let _ = std::fs::write(&path, &dump);
                }
            }
            panic!("{dump}");
        }
        self.violations.push(v);
    }

    /// The shadow and the machine disagree on what a mutation found.
    fn desync(&mut self, detail: String) {
        self.violation("mirror-desync", detail);
    }

    /// Block `b`'s record, created empty on first use (`OpEnd` drops the
    /// records an operation left empty).
    fn block(&mut self, b: u64) -> &mut ShadowBlock {
        self.blocks.entry(b).or_default()
    }

    /// Every record, sorted by block.
    fn sorted(&self) -> Vec<(u64, &ShadowBlock)> {
        let mut rows: Vec<_> = self.blocks.iter().map(|(&b, e)| (b, e)).collect();
        rows.sort_unstable_by_key(|&(b, _)| b);
        rows
    }

    /// Install `core`'s copy of `b`.
    fn put_line(&mut self, core: usize, b: u64, line: ShadowLine) {
        let old = self.block(b).insert_line(core, line);
        self.nc_lines[core] += u32::from(line.nc);
        self.nc_lines[core] -= old.map_or(0, |l| u32::from(l.nc));
    }

    /// Remove `core`'s copy of `b`.
    fn take_line(&mut self, core: usize, b: u64) -> Option<ShadowLine> {
        let line = self.blocks.get_mut(&b)?.remove_line(core)?;
        self.nc_lines[core] -= u32::from(line.nc);
        Some(line)
    }

    /// Check one observed version against the golden model.
    fn observe(&mut self, core: usize, b: u64, v: u64, line_excused: bool, what: &str) {
        let e = self.blocks.get(&b);
        let cur = e.and_then(|e| e.cur).unwrap_or(0);
        if v == cur {
            return;
        }
        if line_excused || e.is_some_and(|e| e.nc_newer(v)) {
            self.stats.stale_excused += 1;
        } else {
            self.violation(
                "data-value",
                format!(
                    "core {core} {what} of block {b:#x} observed version {v}, \
                     last write is version {cur}"
                ),
            );
        }
    }

    /// Record a write by `core` and return its version: a *coherent* write
    /// must have invalidated every other coherent copy already (SWMR);
    /// surviving NC copies (and, for NC writes, any surviving copy) are
    /// racing through the non-coherent world — mark them excused and count
    /// the race.
    fn record_write(&mut self, core: usize, b: u64, coherent_write: bool) -> u64 {
        let e = self.blocks.entry(b).or_default();
        let mut coherent_survivors = Vec::new();
        for (c, l) in e.lines.iter_mut().filter(|(c, _)| *c != core) {
            if coherent_write && !l.nc {
                coherent_survivors.push(*c);
            } else {
                l.stale_ok = true;
                self.stats.nc_write_races += 1;
            }
        }
        let ver = e.cur.map_or(1, |v| v + 1);
        e.cur = Some(ver);
        for c in coherent_survivors {
            self.violation(
                "swmr",
                format!(
                    "core {core} wrote block {b:#x} coherently while core {c} \
                     still holds a coherent copy"
                ),
            );
        }
        ver
    }

    /// Propagate a written-back version: into the LLC if the line is
    /// resident, else to memory when the machine path has a memory
    /// fallback, else the data was dropped — an inclusion violation.
    fn writeback(&mut self, b: u64, ver: u64, mem_fallback_ok: bool, what: &str) {
        let e = self.block(b);
        if let Some(l) = &mut e.llc {
            l.ver = l.ver.max(ver);
        } else if mem_fallback_ok {
            let m = e.mem.get_or_insert(0);
            *m = (*m).max(ver);
        } else {
            self.violation(
                "writeback-lost",
                format!("{what} of block {b:#x}: no LLC line to receive dirty data"),
            );
        }
    }

    /// Whether block `b` overlaps a range registered at `core`. Overlap —
    /// not containment — because the NCRT lookup is byte-granular: a block
    /// straddling a region boundary goes non-coherent when the *accessed
    /// byte* is registered.
    fn registered(&self, core: usize, b: u64) -> bool {
        let lo = b * BLOCK_SIZE;
        let hi = lo + BLOCK_SIZE;
        self.ncrt[core].iter().any(|&(s, e)| lo < e && hi > s)
    }

    fn check_touched(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &b in &touched {
            let Some(e) = self.blocks.get(&b) else {
                continue;
            };
            if !e.keyed() && !e.dir {
                // Empty, so invisible everywhere: drop it.
                self.blocks.remove(&b);
                continue;
            }
            for v in e.violations(b, self.write_through) {
                self.violation(v.code, v.detail);
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// Full cross-validation of the shadow mirror against the real machine
    /// state, plus the structural invariants over every tracked block.
    /// Catches any machine mutation path that failed to emit its event.
    pub fn audit(&self, m: &Machine) -> Vec<Violation> {
        let rows = self.sorted();
        let mut out = Vec::new();
        let mut push = |code, detail| out.push(Violation { code, detail });
        // L1 mirrors match exactly.
        for c in 0..self.ncores {
            let mut machine_blocks = BTreeSet::new();
            for (block, line) in m.l1(c).iter() {
                machine_blocks.insert(block.0);
                match self.blocks.get(&block.0).and_then(|e| e.line(c)) {
                    None => push(
                        "mirror-desync",
                        format!("core {c} holds {block:?} unknown to the shadow"),
                    ),
                    Some(sl) => {
                        if sl.state != line.state || sl.nc != line.nc {
                            push(
                                "mirror-desync",
                                format!(
                                    "core {c} line {block:?}: machine {:?}/nc={} vs \
                                     shadow {:?}/nc={}",
                                    line.state, line.nc, sl.state, sl.nc
                                ),
                            );
                        }
                    }
                }
            }
            for &(b, e) in &rows {
                if e.line(c).is_some() && !machine_blocks.contains(&b) {
                    push(
                        "mirror-desync",
                        format!("shadow thinks core {c} holds {b:#x}; machine does not"),
                    );
                }
            }
        }
        // LLC mirror matches; a machine-clean line must not hide a newer
        // shadow version (that would be dirty data the machine lost).
        let mut machine_llc = BTreeSet::new();
        for bank in 0..self.ncores {
            for (block, line) in m.llc_bank(bank).iter() {
                machine_llc.insert(block.0);
                let e = self.blocks.get(&block.0);
                match e.and_then(|e| e.llc) {
                    None => push(
                        "mirror-desync",
                        format!("LLC holds {block:?} unknown to the shadow"),
                    ),
                    Some(sl) => {
                        if sl.nc != line.nc {
                            push(
                                "mirror-desync",
                                format!(
                                    "LLC line {block:?}: machine nc={} vs shadow nc={}",
                                    line.nc, sl.nc
                                ),
                            );
                        }
                        if !line.dirty && sl.ver > e.and_then(|e| e.mem).unwrap_or(0) {
                            push(
                                "lost-dirty",
                                format!(
                                    "LLC line {block:?} is clean but the shadow \
                                     says it is newer than memory"
                                ),
                            );
                        }
                    }
                }
            }
        }
        for &(b, e) in &rows {
            if e.llc.is_some() && !machine_llc.contains(&b) {
                push(
                    "mirror-desync",
                    format!("shadow thinks the LLC holds {b:#x}; machine does not"),
                );
            }
        }
        // Directory: presence matches the shadow; tracked sharers are a
        // superset of the actual coherent holders (silent Shared evictions
        // leave stale bits — the other direction would lose invalidations);
        // the owner pointer is precise for M/E holders.
        let mut machine_dir = BTreeSet::new();
        for bank in 0..self.ncores {
            for (block, entry) in m.dir_bank(bank).iter() {
                machine_dir.insert(block.0);
                let e = self.blocks.get(&block.0);
                if !e.is_some_and(|e| e.dir) {
                    push(
                        "mirror-desync",
                        format!("directory holds {block:?} unknown to the shadow"),
                    );
                }
                let holders = entry.all_holders();
                for &(c, l) in e.iter().flat_map(|e| &e.lines) {
                    if l.nc {
                        continue;
                    }
                    if holders & (1u64 << c) == 0 {
                        push(
                            "stranded-sharer",
                            format!(
                                "core {c} holds coherent {block:?} but the \
                                 directory does not track it"
                            ),
                        );
                    }
                    if matches!(
                        l.state,
                        L1State::Modified | L1State::Exclusive | L1State::Owned
                    ) && entry.owner != Some(c as u8)
                    {
                        push(
                            "swmr",
                            format!(
                                "core {c} holds {block:?} in {:?} but the \
                                 directory owner is {:?}",
                                l.state, entry.owner
                            ),
                        );
                    }
                    if l.state == L1State::Forward && entry.fwd != Some(c as u8) {
                        push(
                            "fwd-desync",
                            format!(
                                "core {c} holds {block:?} in Forward but the \
                                 directory forward pointer is {:?}",
                                entry.fwd
                            ),
                        );
                    }
                }
                if let Some(fc) = entry.fwd {
                    if holders & (1u64 << fc) == 0 {
                        push(
                            "fwd-desync",
                            format!(
                                "directory forward pointer for {block:?} names core \
                                 {fc}, which is not a tracked sharer"
                            ),
                        );
                    }
                    if let Some(l) = e.and_then(|e| e.line(fc as usize)) {
                        if !l.nc && l.state != L1State::Forward {
                            push(
                                "fwd-desync",
                                format!(
                                    "directory forward pointer for {block:?} names core \
                                     {fc}, whose resident line is {:?}",
                                    l.state
                                ),
                            );
                        }
                    }
                }
            }
        }
        for &(b, e) in &rows {
            if e.dir && !machine_dir.contains(&b) {
                push(
                    "mirror-desync",
                    format!("shadow thinks the directory holds {b:#x}; machine does not"),
                );
            }
        }
        // Structural invariants over every tracked block.
        for (b, e) in rows {
            out.extend(e.violations(b, self.write_through));
        }
        out
    }

    /// Run [`ShadowChecker::audit`] and route the findings through the
    /// violation policy (panic in fail-fast mode, collect otherwise).
    pub fn run_audit(&mut self, m: &Machine) {
        self.stats.audits += 1;
        for v in self.audit(m) {
            self.violation(v.code, v.detail);
        }
    }

    /// A canonical fingerprint of the combined shadow + machine coherence
    /// state, with per-block versions renamed to dense ranks so that runs
    /// differing only in absolute version numbers (or cycle counts)
    /// collapse to the same key. The exhaustive explorer uses this to
    /// close its state space. PLRU replacement state is *not* included:
    /// explorer configurations are sized so no L1/LLC capacity eviction
    /// can occur (directory conflicts use 1-way banks, which replace
    /// deterministically).
    pub fn state_key(&self, m: &Machine) -> String {
        let mut s = String::new();
        let mut vers = Vec::new();
        for (b, e) in self.sorted() {
            if !e.keyed() {
                continue;
            }
            let (cur, mem) = (e.cur.unwrap_or(0), e.mem.unwrap_or(0));
            vers.clear();
            vers.extend([cur, mem]);
            vers.extend(e.llc.map(|l| l.ver));
            vers.extend(e.lines.iter().map(|(_, l)| l.ver));
            vers.sort_unstable();
            vers.dedup();
            let rank = |v: u64| vers.iter().position(|&x| x == v).unwrap_or(0);
            let _ = write!(s, "b{:x}[cur{} mem{}", b, rank(cur), rank(mem));
            let home = m.home_of(BlockAddr(b));
            if let Some(l) = e.llc {
                let dirty = m
                    .llc_bank(home)
                    .probe(BlockAddr(b))
                    .map(|ml| ml.dirty)
                    .unwrap_or(false);
                let _ = write!(
                    s,
                    " llc{}{}{}",
                    u8::from(l.nc),
                    u8::from(dirty),
                    rank(l.ver)
                );
            }
            if let Some(d) = m.dir_bank(home).probe(BlockAddr(b)) {
                let _ = write!(s, " dir{:?}/{:x}", d.owner, d.all_holders());
                if let Some(fc) = d.fwd {
                    // Rendered only when set, so MESI keys are unchanged.
                    let _ = write!(s, "f{fc}");
                }
            }
            for (c, l) in &e.lines {
                let st = match l.state {
                    L1State::Modified => 'M',
                    L1State::Exclusive => 'E',
                    L1State::Shared => 'S',
                    L1State::Forward => 'F',
                    L1State::Owned => 'O',
                };
                let _ = write!(
                    s,
                    " c{}{}{}{}{}",
                    c,
                    st,
                    u8::from(l.nc),
                    rank(l.ver),
                    u8::from(l.stale_ok)
                );
            }
            s.push(']');
        }
        for bank in 0..self.ncores {
            let _ = write!(s, "k{}", m.dir_bank(bank).capacity());
        }
        s
    }

    fn apply(&mut self, ev: &CheckEvent) {
        self.stats.events += 1;
        if self.recent.len() == RECENT_EVENTS {
            self.recent.pop_front();
        }
        self.recent.push_back(ev.clone());
        match *ev {
            CheckEvent::L1Hit {
                core,
                block,
                write,
                nc,
            } => {
                let b = block.0;
                self.touched.push(b);
                let Some(line) = self.blocks.get(&b).and_then(|e| e.line(core)).copied() else {
                    self.desync(format!("core {core} hit {block:?} absent from the shadow"));
                    return;
                };
                // The shadow's `nc` is the installing `Fill`'s and is never
                // rewritten, so this is "the NC bit is immutable while the
                // line is resident" — what lets the census record at fill
                // time only.
                if line.nc != nc {
                    self.violation(
                        "l1-nc-mutated",
                        format!(
                            "core {core} hit {block:?} with nc={nc}; its fill wrote nc={}",
                            line.nc
                        ),
                    );
                }
                if write {
                    self.stats.writes_checked += 1;
                    self.observe(core, b, line.ver, line.stale_ok, "write base");
                    let ver = self.record_write(core, b, !nc);
                    let state = if self.write_through {
                        L1State::Exclusive
                    } else {
                        L1State::Modified
                    };
                    let l = self.block(b).line_mut(core).expect("line just seen");
                    l.ver = ver;
                    l.state = state;
                    l.stale_ok = false;
                } else {
                    self.stats.reads_checked += 1;
                    self.observe(core, b, line.ver, line.stale_ok, "read");
                }
            }
            CheckEvent::Fill {
                core,
                block,
                write,
                nc,
                state,
                from_owner,
            } => {
                let b = block.0;
                self.touched.push(b);
                let e = self.block(b);
                let held = e.line(core).is_some();
                let (v_src, src_excused) = e.source(core, from_owner);
                if held {
                    self.desync(format!("core {core} filled {block:?} it already holds"));
                }
                if write {
                    self.stats.writes_checked += 1;
                    self.observe(core, b, v_src, src_excused, "write base (fill)");
                } else {
                    self.stats.reads_checked += 1;
                    self.observe(core, b, v_src, src_excused, "read (fill)");
                }
                if nc && self.discipline {
                    self.stats.discipline_checked += 1;
                    if !self.registered(core, b) {
                        self.violation(
                            "nc-discipline",
                            format!(
                                "core {core} filled {block:?} non-coherently outside \
                                 every registered region"
                            ),
                        );
                    }
                }
                let (ver, stale_ok) = if write {
                    (self.record_write(core, b, !nc), false)
                } else {
                    let cur = self.block(b).cur.unwrap_or(0);
                    (v_src, src_excused || v_src != cur)
                };
                self.put_line(
                    core,
                    b,
                    ShadowLine {
                        state,
                        nc,
                        ver,
                        stale_ok,
                    },
                );
            }
            CheckEvent::L1Evict {
                core,
                block,
                state,
                nc,
            } => {
                let b = block.0;
                self.touched.push(b);
                match self.take_line(core, b) {
                    None => self.desync(format!(
                        "core {core} evicted {block:?} absent from the shadow"
                    )),
                    Some(l) => {
                        if l.state != state || l.nc != nc {
                            self.desync(format!(
                                "core {core} evicted {block:?} as {state:?}/nc={nc}, \
                                     shadow had {:?}/nc={}",
                                l.state, l.nc
                            ));
                        }
                        if matches!(l.state, L1State::Modified | L1State::Owned) {
                            // NC write-backs fall through to memory when the
                            // LLC replaced the line; coherent ones cannot
                            // (inclusion keeps the line resident).
                            self.writeback(b, l.ver, l.nc, "L1 eviction write-back");
                        }
                    }
                }
            }
            CheckEvent::L1Invalidated {
                core,
                block,
                present,
                dirty,
            } => {
                let b = block.0;
                self.touched.push(b);
                let line = self.take_line(core, b);
                if line.is_some() != present {
                    self.desync(format!(
                        "invalidation of {block:?} at core {core}: machine \
                             present={present}, shadow present={}",
                        line.is_some()
                    ));
                }
                if let Some(l) = line {
                    if matches!(l.state, L1State::Modified | L1State::Owned) != dirty {
                        self.desync(format!(
                            "invalidation of {block:?} at core {core}: machine \
                                 dirty={dirty}, shadow state {:?}",
                            l.state
                        ));
                    }
                    if dirty {
                        // Capacity/ADR eviction paths forward recovered dirty
                        // data to memory once the LLC line is gone.
                        self.writeback(b, l.ver, true, "invalidation write-back");
                    }
                }
            }
            CheckEvent::L1Downgraded {
                core,
                block,
                was_dirty,
                to,
            } => {
                let b = block.0;
                self.touched.push(b);
                let Some(l) = self.blocks.get_mut(&b).and_then(|e| e.line_mut(core)) else {
                    self.desync(format!(
                        "downgrade of {block:?} at core {core}: no shadow line"
                    ));
                    return;
                };
                let prev = std::mem::replace(&mut l.state, to);
                let ver = l.ver;
                if matches!(prev, L1State::Modified | L1State::Owned) != was_dirty {
                    self.desync(format!(
                        "downgrade of {block:?} at core {core}: machine \
                             dirty={was_dirty}, shadow state {prev:?}"
                    ));
                }
                if was_dirty && to != L1State::Owned {
                    // MOESI's Owned keeps the dirty data private; every
                    // other dirty downgrade pushes it into the LLC.
                    self.writeback(b, ver, false, "downgrade write-back");
                }
            }
            CheckEvent::L1FlushedNc { core, block, state } => {
                let b = block.0;
                self.touched.push(b);
                match self.take_line(core, b) {
                    None => self.desync(format!(
                        "NC flush of {block:?} at core {core}: no shadow line"
                    )),
                    Some(l) => {
                        if !l.nc {
                            self.desync(format!("NC flush removed coherent shadow line {block:?}"));
                        }
                        if state == L1State::Modified {
                            self.writeback(b, l.ver, true, "raccd_invalidate write-back");
                        }
                    }
                }
            }
            CheckEvent::L1FlushedPage {
                core,
                block,
                state,
                nc: _,
            } => {
                let b = block.0;
                self.touched.push(b);
                match self.take_line(core, b) {
                    None => self.desync(format!(
                        "page flush of {block:?} at core {core}: no shadow line"
                    )),
                    Some(l) => {
                        if matches!(state, L1State::Modified | L1State::Owned) {
                            self.writeback(b, l.ver, true, "page flush write-back");
                        }
                    }
                }
            }
            CheckEvent::LlcFill { block, nc } => {
                let b = block.0;
                self.touched.push(b);
                let e = self.block(b);
                let ver = e.mem.unwrap_or(0);
                if e.llc.replace(ShadowLlc { nc, ver }).is_some() {
                    self.desync(format!("LLC filled {block:?} it already holds"));
                }
            }
            CheckEvent::LlcEvict { block, nc, dirty } => {
                let b = block.0;
                self.touched.push(b);
                let e = self.block(b);
                let Some(l) = e.llc.take() else {
                    self.desync(format!("LLC evicted {block:?} absent from the shadow"));
                    return;
                };
                let newer = l.ver > e.mem.unwrap_or(0);
                if newer {
                    e.mem = Some(l.ver);
                }
                if l.nc != nc {
                    self.desync(format!(
                        "LLC evicted {block:?} with nc={nc}, shadow had nc={}",
                        l.nc
                    ));
                }
                if newer && !dirty {
                    self.violation(
                        "lost-dirty",
                        format!(
                            "LLC evicted {block:?} clean while holding data \
                             newer than memory"
                        ),
                    );
                }
            }
            CheckEvent::WriteThrough { core, block } => {
                let b = block.0;
                self.touched.push(b);
                let Some(l) = self.blocks.get(&b).and_then(|e| e.line(core)) else {
                    self.desync(format!(
                        "write-through from core {core} without a shadow line"
                    ));
                    return;
                };
                self.writeback(b, l.ver, true, "write-through");
            }
            CheckEvent::NcToCoherent { block } => {
                let b = block.0;
                self.touched.push(b);
                match &mut self.block(b).llc {
                    Some(l) if l.nc => l.nc = false,
                    _ => self.desync(format!(
                        "NC→coherent transition on non-NC/absent LLC line {block:?}"
                    )),
                }
            }
            CheckEvent::CoherentToNc { block } => {
                let b = block.0;
                self.touched.push(b);
                match &mut self.block(b).llc {
                    Some(l) if !l.nc => l.nc = true,
                    _ => self.desync(format!(
                        "coherent→NC transition on NC/absent LLC line {block:?}"
                    )),
                }
            }
            CheckEvent::DirAllocate { block, core: _ } => {
                let b = block.0;
                self.touched.push(b);
                if std::mem::replace(&mut self.block(b).dir, true) {
                    self.desync(format!("directory allocated {block:?} it already tracks"));
                }
            }
            CheckEvent::DirDeallocate { block } => {
                let b = block.0;
                self.touched.push(b);
                if !std::mem::replace(&mut self.block(b).dir, false) {
                    self.desync(format!("directory deallocated untracked {block:?}"));
                }
            }
            CheckEvent::DirEvicted { block, holders: _ } => {
                let b = block.0;
                self.touched.push(b);
                if !std::mem::replace(&mut self.block(b).dir, false) {
                    self.desync(format!("directory evicted untracked {block:?}"));
                }
                // The holder invalidations follow as events; OpEnd's
                // stranded-sharer check over this touched block verifies
                // none survive the eviction.
            }
            CheckEvent::AdrResized { .. } => {}
            CheckEvent::NcrtLoaded { core, ref ranges } => {
                self.ncrt[core] = ranges.clone();
            }
            CheckEvent::NcInvalidate { core } => {
                self.ncrt[core].clear();
                if self.nc_lines[core] == 0 {
                    return;
                }
                let mut leftover: Vec<u64> = self
                    .blocks
                    .iter()
                    .filter(|(_, e)| e.line(core).is_some_and(|l| l.nc))
                    .map(|(&b, _)| b)
                    .collect();
                leftover.sort_unstable();
                for b in leftover {
                    self.violation(
                        "nc-discipline",
                        format!(
                            "core {core} still holds NC line {b:#x} after \
                             raccd_invalidate completed"
                        ),
                    );
                }
            }
            CheckEvent::DisciplineOn => self.discipline = true,
            CheckEvent::OpEnd => self.check_touched(),
        }
    }
}

impl CheckSink for ShadowChecker {
    fn on_event(&mut self, ev: &CheckEvent) {
        self.apply(ev);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn finish(&mut self) -> CheckReport {
        CheckReport {
            stats: self.stats,
            violations: self.take_violations(),
        }
    }
}

/// Known violation codes, used to restore the `&'static str` codes from a
/// snapshot. A code minted after a snapshot was written maps to
/// `"restored"` rather than failing the load.
const KNOWN_CODES: &[&str] = &[
    "data-value",
    "dir-inclusion",
    "fwd-desync",
    "fwd-unique",
    "l1-inclusion",
    "l1-nc-mutated",
    "lost-dirty",
    "mirror-desync",
    "nc-discipline",
    "nc-exclusivity",
    "stranded-sharer",
    "swmr",
    "writeback-lost",
    "wt-dirty",
];

raccd_snap::snap_record!(ShadowLine {
    state,
    nc,
    ver,
    stale_ok,
});
raccd_snap::snap_record!(ShadowLlc { nc, ver });
raccd_snap::snap_record!(CheckStats {
    events,
    reads_checked,
    writes_checked,
    stale_excused,
    nc_write_races,
    discipline_checked,
    audits,
});

// Hand-written: a format trick, `code` is a `&'static str` saved as a
// string and mapped back onto the known codes.
impl raccd_snap::Snap for Violation {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        self.code.to_string().save(w);
        self.detail.save(w);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        use raccd_snap::Snap;
        let code: String = Snap::load(r)?;
        let detail: String = Snap::load(r)?;
        let code = KNOWN_CODES
            .iter()
            .copied()
            .find(|&k| k == code)
            .unwrap_or("restored");
        Ok(Violation { code, detail })
    }
}

/// One field of every record as a sorted `(block, value)` list, which
/// encodes as the `BTreeMap<u64, T>` it stands for.
fn column<T>(rows: &[(u64, &ShadowBlock)], f: impl Fn(&ShadowBlock) -> Option<T>) -> Vec<(u64, T)> {
    rows.iter().filter_map(|&(b, e)| Some((b, f(e)?))).collect()
}

// Hand-written: the layout is column-major, one sorted map per core of L1
// lines, then the LLC lines, the memory and golden versions and the
// directory set; `recent` is a diagnostic-only window, not saved, that
// restores empty.
impl raccd_snap::Snap for ShadowChecker {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        let rows = self.sorted();
        self.ncores.save(w);
        self.write_through.save(w);
        self.fail_fast.save(w);
        self.discipline.save(w);
        let l1: Vec<_> = (0..self.ncores)
            .map(|c| column(&rows, |e| e.line(c).copied()))
            .collect();
        l1.save(w);
        column(&rows, |e| e.llc).save(w);
        column(&rows, |e| e.mem).save(w);
        column(&rows, |e| e.cur).save(w);
        let dir: Vec<u64> = rows
            .iter()
            .filter(|(_, e)| e.dir)
            .map(|&(b, _)| b)
            .collect();
        dir.save(w);
        self.ncrt.save(w);
        let mut touched = self.touched.clone();
        touched.sort_unstable();
        touched.dedup();
        touched.save(w);
        self.violations.save(w);
        self.stats.save(w);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        use raccd_snap::Snap;
        let ncores: usize = Snap::load(r)?;
        let write_through = Snap::load(r)?;
        let fail_fast = Snap::load(r)?;
        let discipline = Snap::load(r)?;
        let l1: Vec<Vec<(u64, ShadowLine)>> = Snap::load(r)?;
        let llc: Vec<(u64, ShadowLlc)> = Snap::load(r)?;
        let mem: Vec<(u64, u64)> = Snap::load(r)?;
        let cur: Vec<(u64, u64)> = Snap::load(r)?;
        let dir: Vec<u64> = Snap::load(r)?;
        let ncrt: Vec<Vec<(u64, u64)>> = Snap::load(r)?;
        if ncores == 0 || l1.len() != ncores || ncrt.len() != ncores {
            return Err(raccd_snap::SnapError::Invalid("shadow checker geometry"));
        }
        let mut c = ShadowChecker::empty(ncores, write_through, fail_fast);
        c.discipline = discipline;
        c.ncrt = ncrt;
        c.touched = Snap::load(r)?;
        c.violations = Snap::load(r)?;
        c.stats = Snap::load(r)?;
        for (core, lines) in l1.into_iter().enumerate() {
            for (b, line) in lines {
                c.put_line(core, b, line);
            }
        }
        for (b, l) in llc {
            c.block(b).llc = Some(l);
        }
        for (b, v) in mem {
            c.block(b).mem = Some(v);
        }
        for (b, v) in cur {
            c.block(b).cur = Some(v);
        }
        for b in dir {
            c.block(b).dir = true;
        }
        Ok(c)
    }
}
