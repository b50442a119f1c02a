#![warn(missing_docs)]

//! Always-compiled self-profiler for the RaCCD simulation stack.
//!
//! The ROADMAP's north star is "as fast as the hardware allows"; this
//! crate is the measurement half of that promise. It attributes *host*
//! wall-time to the simulator's subsystems through a fixed registry of
//! instrumentation sites ([`Site`]) — cache lookup, directory access, NoC
//! route/transmit, TLB walk, runtime scheduling, shadow checking, snapshot
//! encode/decode — with per-site call counts, total/min/max latency and an
//! optional throughput unit counter (bytes for the snapshot sites).
//!
//! Discipline (mirrors the `raccd-obs` Recorder and the fault plane):
//!
//! * **Opt-in.** Hook sites hold an `Option` of a profiler; with `None`
//!   every hook compiles down to a single never-taken branch, so the
//!   disabled path costs nothing measurable.
//! * **Host-side only.** The profiler reads the monotonic clock and its
//!   own counters — never simulated state. A profiled run is bit-identical
//!   to an unprofiled one (`state_key` + `Stats` equality is asserted in
//!   the differential suite).
//! * **Interior mutability.** Accumulators are [`Cell`]s, so recording
//!   needs only `&Prof`. That is what lets `&mut self` machine methods
//!   record without fighting the borrow checker, and lets RAII [`Span`]s
//!   coexist with shared access. `Prof` is consequently `!Sync`: one
//!   profiler per simulation thread, merged via [`ProfReport::merge`].

mod report;

pub use report::{fmt_ns, fmt_si, ProfReport, SiteStats};

use std::cell::Cell;
use std::time::Instant;

/// One instrumentation site. The registry is fixed at compile time: sites
/// are identified by this enum, never by strings, so recording is an array
/// index and the span table has a stable, exhaustive shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Site {
    /// One driver heap turn (`Driver::step`): the parent of every
    /// per-turn site below.
    Step,
    /// Ready-queue pop + dispatch bookkeeping (scheduling phase).
    Schedule,
    /// Functional task-body execution (trace recording).
    TaskBody,
    /// `raccd_register` calls, including their iterative TLB walks.
    NcrtRegister,
    /// `raccd_invalidate`: NC cache walk + flush write-backs.
    NcInvalidate,
    /// One replayed memory reference through the timing model
    /// (translation + L1 lookup + fill).
    MemRef,
    /// TLB page walks on translation misses (the walk only, not the hit
    /// path; register-time walks are accounted under [`Site::NcrtRegister`]).
    TlbWalk,
    /// Private-cache lookup (`Machine::l1_lookup`), including upgrade
    /// transactions on write hits to Shared lines.
    CacheLookup,
    /// Miss fill (`Machine::miss_fill_smt`): NC or coherent path,
    /// directory transaction, data response, victim handling.
    MissFill,
    /// One directory-bank access (port service + access recording).
    DirAccess,
    /// One protocol message routed and transmitted through the mesh
    /// (including any fault-plane retry machinery).
    NocXmit,
    /// Shadow-checker event processing and audits.
    ShadowCheck,
    /// Snapshot capture: encoding live state into RSNP sections
    /// (`units` = encoded payload bytes).
    SnapEncode,
    /// Snapshot revival: decoding RSNP sections back into live state
    /// (`units` = decoded payload bytes).
    SnapDecode,
    /// Epoch-parallel engine: the barrier where the coordinator waits for
    /// every worker's speculated hit prefix (`units` = references
    /// speculated across the epoch).
    EpochBarrier,
    /// Epoch-parallel engine: adopting one speculated shard and replaying
    /// its deferred side effects (checker events, census, histograms)
    /// during commit (`units` = references committed from speculation).
    EpochMerge,
}

impl Site {
    /// Every site, in table order.
    pub const ALL: [Site; 16] = [
        Site::Step,
        Site::Schedule,
        Site::TaskBody,
        Site::NcrtRegister,
        Site::NcInvalidate,
        Site::MemRef,
        Site::TlbWalk,
        Site::CacheLookup,
        Site::MissFill,
        Site::DirAccess,
        Site::NocXmit,
        Site::ShadowCheck,
        Site::SnapEncode,
        Site::SnapDecode,
        Site::EpochBarrier,
        Site::EpochMerge,
    ];

    /// Number of sites in the registry.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable name, used in the span table.
    pub const fn name(self) -> &'static str {
        match self {
            Site::Step => "driver/step",
            Site::Schedule => "runtime/schedule",
            Site::TaskBody => "runtime/task_body",
            Site::NcrtRegister => "raccd/register",
            Site::NcInvalidate => "raccd/invalidate",
            Site::MemRef => "driver/mem_ref",
            Site::TlbWalk => "mem/tlb_walk",
            Site::CacheLookup => "cache/l1_lookup",
            Site::MissFill => "cache/miss_fill",
            Site::DirAccess => "dir/access",
            Site::NocXmit => "noc/route_xmit",
            Site::ShadowCheck => "check/shadow",
            Site::SnapEncode => "snap/encode",
            Site::SnapDecode => "snap/decode",
            Site::EpochBarrier => "engine/epoch_barrier",
            Site::EpochMerge => "engine/epoch_merge",
        }
    }

    /// The enclosing site whose measured time strictly contains this
    /// site's, or `None` for roots and for sites reached from several
    /// parents. The span-accounting invariant — for every parent, the sum
    /// of its children's total time is ≤ the parent's — is asserted in the
    /// profiler test suite.
    pub const fn parent(self) -> Option<Site> {
        match self {
            Site::Schedule
            | Site::TaskBody
            | Site::NcrtRegister
            | Site::NcInvalidate
            | Site::MemRef => Some(Site::Step),
            Site::TlbWalk | Site::CacheLookup | Site::MissFill => Some(Site::MemRef),
            // EpochMerge happens inside a committing Step, but a Step may
            // also run with no merge at all, and EpochBarrier lies outside
            // any Step — both stay roots like ShadowCheck.
            _ => None,
        }
    }

    /// Direct children of `self` in the containment tree.
    pub fn children(self) -> impl Iterator<Item = Site> {
        Site::ALL
            .into_iter()
            .filter(move |s| s.parent() == Some(self))
    }

    /// The unit carried by `units` at this site, if any.
    pub const fn unit(self) -> Option<&'static str> {
        match self {
            Site::SnapEncode | Site::SnapDecode => Some("bytes"),
            Site::EpochBarrier | Site::EpochMerge => Some("refs"),
            _ => None,
        }
    }
}

/// One site's accumulator. Interior-mutable so recording needs `&self`.
#[derive(Debug)]
struct Acc {
    count: Cell<u64>,
    total_ns: Cell<u64>,
    min_ns: Cell<u64>,
    max_ns: Cell<u64>,
    units: Cell<u64>,
}

impl Default for Acc {
    fn default() -> Self {
        Acc {
            count: Cell::new(0),
            total_ns: Cell::new(0),
            min_ns: Cell::new(u64::MAX),
            max_ns: Cell::new(0),
            units: Cell::new(0),
        }
    }
}

/// The self-profiler: one accumulator per [`Site`].
///
/// `!Sync` by construction (Cell). Each simulation thread owns its own
/// `Prof`; cross-thread aggregation goes through [`Prof::report`] +
/// [`ProfReport::merge`].
#[derive(Debug, Default)]
pub struct Prof {
    accs: [Acc; Site::COUNT],
}

impl Prof {
    /// A fresh profiler with every accumulator at zero.
    pub fn new() -> Self {
        Prof::default()
    }

    /// Record a span measured externally: `ns` nanoseconds and `units`
    /// throughput units at `site`.
    #[inline]
    pub fn rec_ns(&self, site: Site, ns: u64, units: u64) {
        let a = &self.accs[site as usize];
        a.count.set(a.count.get() + 1);
        a.total_ns.set(a.total_ns.get() + ns);
        if ns < a.min_ns.get() {
            a.min_ns.set(ns);
        }
        if ns > a.max_ns.get() {
            a.max_ns.set(ns);
        }
        if units > 0 {
            a.units.set(a.units.get() + units);
        }
    }

    /// Record the time elapsed since `t0` at `site`.
    #[inline]
    pub fn rec(&self, site: Site, t0: Instant) {
        self.rec_ns(site, t0.elapsed().as_nanos() as u64, 0);
    }

    /// [`Prof::rec`] with a throughput unit count (e.g. bytes).
    #[inline]
    pub fn rec_units(&self, site: Site, t0: Instant, units: u64) {
        self.rec_ns(site, t0.elapsed().as_nanos() as u64, units);
    }

    /// Open an RAII span at `site`; it records itself on drop.
    #[inline]
    pub fn span(&self, site: Site) -> Span<'_> {
        Span {
            prof: self,
            site,
            start: Instant::now(),
            units: 0,
        }
    }

    /// This site's accumulated statistics.
    pub fn site(&self, site: Site) -> SiteStats {
        let a = &self.accs[site as usize];
        SiteStats {
            count: a.count.get(),
            total_ns: a.total_ns.get(),
            min_ns: if a.count.get() == 0 {
                0
            } else {
                a.min_ns.get()
            },
            max_ns: a.max_ns.get(),
            units: a.units.get(),
        }
    }

    /// Snapshot every site into an owned, mergeable, renderable report.
    pub fn report(&self) -> ProfReport {
        ProfReport {
            sites: Site::ALL.map(|s| self.site(s)).to_vec(),
        }
    }

    /// Fold a previously-taken report back in (cross-thread aggregation,
    /// restore-time carry-over).
    pub fn absorb(&self, r: &ProfReport) {
        for (i, site) in Site::ALL.iter().enumerate() {
            let s = &r.sites[i];
            if s.count == 0 {
                continue;
            }
            let a = &self.accs[*site as usize];
            a.count.set(a.count.get() + s.count);
            a.total_ns.set(a.total_ns.get() + s.total_ns);
            if s.min_ns < a.min_ns.get() {
                a.min_ns.set(s.min_ns);
            }
            if s.max_ns > a.max_ns.get() {
                a.max_ns.set(s.max_ns);
            }
            a.units.set(a.units.get() + s.units);
        }
    }
}

/// Start a timestamp iff a profiler is attached: the disabled path is one
/// branch and no clock read.
#[inline]
pub fn t0(prof: Option<&Prof>) -> Option<Instant> {
    prof.map(|_| Instant::now())
}

/// Close a [`t0`] measurement at `site` (no-op when either side is None).
#[inline]
pub fn rec(prof: Option<&Prof>, site: Site, t0: Option<Instant>) {
    if let (Some(p), Some(t)) = (prof, t0) {
        p.rec(site, t);
    }
}

/// [`rec`] with a throughput unit count.
#[inline]
pub fn rec_units(prof: Option<&Prof>, site: Site, t0: Option<Instant>, units: u64) {
    if let (Some(p), Some(t)) = (prof, t0) {
        p.rec_units(site, t, units);
    }
}

/// Open an RAII span iff a profiler is attached. Dropping the `None`
/// arm is free.
#[inline]
pub fn span(prof: Option<&Prof>, site: Site) -> Option<Span<'_>> {
    prof.map(|p| p.span(site))
}

/// An RAII scoped span: measures from creation to drop.
pub struct Span<'a> {
    prof: &'a Prof,
    site: Site,
    start: Instant,
    units: u64,
}

impl Span<'_> {
    /// Attach throughput units (e.g. bytes processed) to this span.
    pub fn add_units(&mut self, units: u64) {
        self.units += units;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.prof.rec_ns(
            self.site,
            self.start.elapsed().as_nanos() as u64,
            self.units,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn registry_is_consistent() {
        assert_eq!(Site::ALL.len(), Site::COUNT);
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "discriminants are table indices");
        }
        // Parent edges stay inside the registry and are acyclic (depth 2).
        for s in Site::ALL {
            if let Some(p) = s.parent() {
                assert!(p.parent().is_none() || p.parent() == Some(Site::Step));
            }
        }
        assert!(Site::Step.children().count() >= 5);
    }

    #[test]
    fn records_count_total_min_max() {
        let p = Prof::new();
        p.rec_ns(Site::CacheLookup, 10, 0);
        p.rec_ns(Site::CacheLookup, 30, 0);
        p.rec_ns(Site::CacheLookup, 20, 0);
        let s = p.site(Site::CacheLookup);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.units, 0);
        // Untouched sites stay zero, with min reported as 0, not MAX.
        let z = p.site(Site::SnapDecode);
        assert_eq!((z.count, z.min_ns, z.max_ns), (0, 0, 0));
    }

    #[test]
    fn units_accumulate() {
        let p = Prof::new();
        p.rec_ns(Site::SnapEncode, 100, 4096);
        p.rec_ns(Site::SnapEncode, 100, 1024);
        assert_eq!(p.site(Site::SnapEncode).units, 5120);
        assert_eq!(Site::SnapEncode.unit(), Some("bytes"));
        assert_eq!(Site::CacheLookup.unit(), None);
    }

    #[test]
    fn raii_span_records_on_drop() {
        let p = Prof::new();
        {
            let mut s = p.span(Site::SnapEncode);
            s.add_units(512);
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = p.site(Site::SnapEncode);
        assert_eq!(s.count, 1);
        assert!(s.total_ns >= 1_000_000, "slept ≥1ms: {}ns", s.total_ns);
        assert_eq!(s.units, 512);
    }

    #[test]
    fn optional_helpers_are_noops_when_detached() {
        let t = t0(None);
        assert!(t.is_none());
        rec(None, Site::Step, t);
        assert!(span(None, Site::Step).is_none());
        let p = Prof::new();
        let t = t0(Some(&p));
        assert!(t.is_some());
        rec(Some(&p), Site::Step, t);
        assert_eq!(p.site(Site::Step).count, 1);
    }

    #[test]
    fn absorb_merges_extremes() {
        let a = Prof::new();
        a.rec_ns(Site::NocXmit, 50, 0);
        let b = Prof::new();
        b.rec_ns(Site::NocXmit, 10, 0);
        b.rec_ns(Site::NocXmit, 90, 0);
        a.absorb(&b.report());
        let s = a.site(Site::NocXmit);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 150);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 90);
    }
}
