//! The multicore machine: cores, caches, directory, NoC, memory.
//!
//! ## Access paths (§III-C3)
//!
//! Every reference first consults the core's TLB and L1D. On an L1 miss the
//! request travels to the block's *home tile* (low block-address bits pick
//! the bank). From there:
//!
//! * **Coherent** requests look up the directory and the LLC in parallel
//!   (both 15 cycles). A directory hit may forward to the current owner; a
//!   directory miss allocates an entry — possibly evicting a victim whose
//!   LLC line *and* private copies must then be invalidated, because the
//!   directory is inclusive of the LLC (§V-A3).
//! * **Non-coherent** requests "are resolved without communicating with, or
//!   creating an entry in, the directory": they go straight to the LLC and,
//!   on a miss, to memory, returning data with the NC bit set.
//!
//! Blocks transition between the two worlds per §III-E: a coherent request
//! finding an NC LLC line allocates a directory entry and clears the bit; an
//! NC request finding a coherent line deallocates the entry.
//!
//! ## Invariant
//!
//! A block is **coherent-resident** in the LLC ⟺ its home directory bank
//! has an entry for it. L1-resident coherent blocks are always LLC-resident
//! (inclusive hierarchy). NC blocks may live in L1/LLC with no entry.
//! `debug_assert`s and the `machine_invariants` test enforce this.

use crate::check::{shadow_check_forced, CheckEvent, CheckReport, CheckSink, ShadowChecker};
use crate::config::MachineConfig;
use crate::event::{CoherenceEvent, TimedEvent};
use crate::stats::Stats;
use raccd_cache::{L1Cache, L1Line, L1State, LlcBank, LlcLine};
use raccd_fault::{FaultPlan, FaultPlane, FaultSite, FaultStats, MsgOutcome};
use raccd_mem::{BlockAddr, MemRef, PAddr, PageNum, PageTable, Tlb, VAddr};
use raccd_noc::{Mesh, MsgClass};
use raccd_protocol::{
    victim_action, write_hit_is_local, Adr, AdrConfig, DirEntry, DirEviction, DirMsg,
    DirectoryBank, ProtocolError, ResizeDirection, VictimAction,
};

/// Result of a private-cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1LookupResult {
    /// Hit; `cycles` includes any upgrade transaction.
    Hit {
        /// Cycles charged (≥ L1 latency).
        cycles: u64,
        /// Whether the hit line carries the NC bit (census input).
        nc: bool,
    },
    /// Miss: the caller decides coherence (NCRT / PT / always-coherent) and
    /// calls [`Machine::miss_fill`].
    Miss,
}

/// State a store leaves its L1 line in: under write-through, stores never
/// dirty the L1 (the LLC is updated immediately); under write-back they
/// take M.
#[inline]
fn written_state(write_through: bool) -> L1State {
    if write_through {
        L1State::Exclusive
    } else {
        L1State::Modified
    }
}

/// What a coherent fill hands the requesting L1.
struct Grant {
    /// Cycles charged to the requester.
    cycles: u64,
    /// State the line installs in.
    state: L1State,
    /// Data supplied cache-to-cache (previous owner or MESIF forwarder).
    from_owner: bool,
}

struct CoreSlice {
    tlb: Tlb,
    l1: L1Cache,
}

/// Bank-select bits of a machine shaped per `cfg`, which must have one
/// core per tile and a power-of-two core count.
fn bank_bits(cfg: &MachineConfig) -> u32 {
    assert_eq!(
        cfg.ncores,
        cfg.topology.sockets() * cfg.mesh_k * cfg.mesh_k,
        "one core per tile across {} socket(s)",
        cfg.topology.sockets()
    );
    assert!(cfg.ncores.is_power_of_two());
    cfg.ncores.trailing_zeros()
}

/// The ADR controller configuration `cfg` gives every directory bank.
fn adr_config(cfg: &MachineConfig) -> AdrConfig {
    AdrConfig {
        theta_inc: cfg.adr_theta_inc,
        theta_dec: cfg.adr_theta_dec,
        ..AdrConfig::paper_defaults(cfg.dir_entries_per_bank(), cfg.dir_ways)
    }
}

/// Fingerprint of the configuration a snapshot is only valid for.
fn cfg_fingerprint(cfg: &MachineConfig) -> String {
    format!("{cfg:?}")
}

/// The simulated machine.
pub struct Machine {
    /// Configuration in force.
    pub cfg: MachineConfig,
    /// The shared page table (OS role).
    pub page_table: PageTable,
    cores: Vec<CoreSlice>,
    llc: Vec<LlcBank>,
    dir: Vec<DirectoryBank>,
    adr: Vec<Adr>,
    noc: Mesh,
    /// Per-bank busy-until timestamps for the optional contention model
    /// (index: home tile). Directory and LLC share a bank port here.
    bank_busy: Vec<u64>,
    /// Recorded protocol events (only with `cfg.record_events`).
    events: Vec<TimedEvent>,
    /// Run statistics.
    pub stats: Stats,
    /// Optional shadow coherence checker (see [`crate::check`]); receives a
    /// [`CheckEvent`] from every state-mutating path.
    checker: Option<Box<dyn CheckSink>>,
    /// Optional fault plane. `None` (the default) keeps every protocol
    /// path on a single never-taken branch — the zero-fault configuration
    /// is perf-neutral, same as the `checker` and recorder patterns.
    faults: Option<Box<FaultPlane>>,
}

impl Machine {
    /// Build a machine per `cfg`; the frame-allocation policy follows
    /// `cfg.permuted_pages`.
    pub fn new(cfg: MachineConfig) -> Self {
        let policy = if cfg.permuted_pages {
            raccd_mem::FrameAllocPolicy::Permuted
        } else {
            raccd_mem::FrameAllocPolicy::Contiguous
        };
        Self::with_page_table(cfg, PageTable::new(policy))
    }

    /// Build with an explicit page table (tests use permuted frames).
    pub fn with_page_table(cfg: MachineConfig, page_table: PageTable) -> Self {
        let bank_bits = bank_bits(&cfg);
        assert!(
            cfg.ncontexts() <= MachineConfig::MAX_CONTEXTS,
            "{} hardware contexts: the 16 KiB stacks of at most {} fit below the heap",
            cfg.ncontexts(),
            MachineConfig::MAX_CONTEXTS
        );
        let cores = (0..cfg.ncores)
            .map(|_| CoreSlice {
                tlb: Tlb::new(cfg.tlb_entries),
                l1: L1Cache::new(cfg.l1_bytes, cfg.l1_ways),
            })
            .collect();
        let llc = (0..cfg.ncores)
            .map(|_| LlcBank::new(cfg.llc_entries_per_bank, cfg.llc_ways, bank_bits))
            .collect();
        let dir = (0..cfg.ncores)
            .map(|_| DirectoryBank::new(cfg.dir_entries_per_bank(), cfg.dir_ways, bank_bits))
            .collect();
        let adr = if cfg.adr {
            (0..cfg.ncores)
                .map(|_| Adr::new(adr_config(&cfg)))
                .collect()
        } else {
            Vec::new()
        };
        let mut m = Machine {
            noc: Mesh::for_topology(
                cfg.topology,
                cfg.mesh_k,
                cfg.lat.link,
                cfg.lat.router,
                cfg.flit_bytes,
                cfg.lat.xlink,
            ),
            bank_busy: vec![0; cfg.ncores],
            events: Vec::new(),
            cfg,
            page_table,
            cores,
            llc,
            dir,
            adr,
            stats: Stats::default(),
            checker: None,
            faults: None,
        };
        if m.cfg.shadow_collect {
            m.checker = Some(Box::new(ShadowChecker::collecting(&m.cfg)));
        } else if m.cfg.shadow_check || shadow_check_forced() {
            m.checker = Some(Box::new(ShadowChecker::new(&m.cfg)));
        }
        if let Some(plan) = FaultPlan::forced_from_env() {
            m.faults = Some(Box::new(FaultPlane::new(plan)));
        }
        m
    }

    /// Attach a checker sink (replacing any existing one). Harnesses use
    /// this to install a collecting [`ShadowChecker`]; a fresh machine is
    /// required (the shadow mirrors start empty).
    pub fn attach_checker(&mut self, sink: Box<dyn CheckSink>) {
        self.checker = Some(sink);
    }

    /// Detach the checker, producing its final report.
    pub fn detach_checker(&mut self) -> Option<CheckReport> {
        self.checker.take().map(|mut c| c.finish())
    }

    /// Whether a checker is attached.
    pub fn has_checker(&self) -> bool {
        self.checker.is_some()
    }

    /// The attached checker, for harness downcasts.
    pub fn checker_mut(&mut self) -> Option<&mut dyn CheckSink> {
        self.checker.as_deref_mut()
    }

    /// Forward a runtime-level note (NCRT loads, `raccd_invalidate`
    /// completion, discipline arming) to the attached checker.
    pub fn check_note(&mut self, ev: CheckEvent) {
        self.check_ev(ev);
    }

    /// Cross-validate the shadow mirror against the real machine state
    /// (no-op without a [`ShadowChecker`] attached). Called from
    /// [`Machine::finalize`] and after every explorer step.
    pub fn shadow_audit(&mut self) {
        let Some(mut sink) = self.checker.take() else {
            return;
        };
        if let Some(sc) = sink.as_any_mut().downcast_mut::<ShadowChecker>() {
            sc.run_audit(self);
        }
        self.checker = Some(sink);
    }

    /// Canonical coherence-state fingerprint from the attached
    /// [`ShadowChecker`] (None without one) — see
    /// [`ShadowChecker::state_key`].
    pub fn shadow_state_key(&self) -> Option<String> {
        let sc = self
            .checker
            .as_ref()?
            .as_any()
            .downcast_ref::<ShadowChecker>()?;
        Some(sc.state_key(self))
    }

    /// Forward an event to the attached checker, if any. The hooks are
    /// one inlined branch around a cold, out-of-line body, so a body never
    /// grows the path it is called from (DESIGN.md §7 "Overhead budget").
    #[inline(always)]
    fn check_ev(&mut self, ev: CheckEvent) {
        if self.checker.is_some() {
            self.forward_check_ev(ev);
        }
    }

    #[cold]
    #[inline(never)]
    fn forward_check_ev(&mut self, ev: CheckEvent) {
        if let Some(c) = self.checker.as_mut() {
            c.on_event(&ev);
        }
    }

    /// Attach a fault plane (replacing any existing one). Campaign
    /// harnesses use this; `RACCD_FAULT_SPEC` attaches one at build time.
    pub fn attach_faults(&mut self, plane: FaultPlane) {
        self.faults = Some(Box::new(plane));
    }

    /// The attached plane's plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.as_ref().map(|f| f.plan)
    }

    /// The attached plane's injection/recovery counters, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// True when a recovery budget has been exhausted: the run was kept
    /// live by force-delivery but must be reported as *detected*, never
    /// as a clean recovery.
    pub fn fault_fatal(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.fatal())
    }

    /// Mutable access to the attached plane (driver-level injections:
    /// NCRT storms, task failures/stragglers).
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlane> {
        self.faults.as_deref_mut()
    }

    /// Send one protocol message, routing through the fault plane when
    /// one is attached. Without a plane this is exactly `noc.send` plus
    /// one untaken branch.
    #[inline]
    fn xmit(&mut self, from: usize, to: usize, class: MsgClass, now: u64) -> u64 {
        if self.faults.is_none() {
            self.noc.send(from, to, class)
        } else {
            self.xmit_faulty(from, to, class, now)
        }
    }

    /// The faulty transmit path: one seeded draw decides the message's
    /// fate; drops and corruptions loop through the bounded-backoff retry
    /// machinery until delivery or budget exhaustion (then the message is
    /// force-delivered and the plane latched fatal, so the protocol state
    /// stays consistent while the run is flagged as detected). The plane
    /// is held out of the machine for the path and put back at its end;
    /// nothing on the path reaches it through `self`.
    #[cold]
    fn xmit_faulty(&mut self, from: usize, to: usize, class: MsgClass, now: u64) -> u64 {
        let Some(mut f) = self.faults.take() else {
            return self.noc.send(from, to, class);
        };
        let base = self.noc.latency(from, to);
        let mut total = 0u64;
        let mut attempt: u32 = 0;
        loop {
            let outcome = f.roll_msg(now + total);
            // Injection bookkeeping shared by all faulty outcomes.
            if outcome != MsgOutcome::Deliver {
                self.stats.faults_injected += 1;
            }
            match outcome {
                MsgOutcome::Deliver => {
                    total += self.noc.send(from, to, class);
                    break;
                }
                MsgOutcome::Delay(d) => {
                    self.noc.note_delayed();
                    self.stats.fault_delay_cycles += d;
                    self.event(
                        now,
                        CoherenceEvent::FaultInjected {
                            site: FaultSite::NocDelay,
                            from,
                            to,
                        },
                    );
                    total += d + self.noc.send(from, to, class);
                    break;
                }
                MsgOutcome::Duplicate => {
                    self.event(
                        now,
                        CoherenceEvent::FaultInjected {
                            site: FaultSite::NocDup,
                            from,
                            to,
                        },
                    );
                    // Both copies traverse; the receiving directory applies
                    // its `DirMsg` through `EntryState::apply`, which is
                    // idempotent under re-delivery (property-tested per
                    // protocol), so state is applied once.
                    total += self.noc.send_duplicate(from, to, class);
                    break;
                }
                MsgOutcome::Drop => {
                    self.event(
                        now,
                        CoherenceEvent::FaultInjected {
                            site: FaultSite::NocDrop,
                            from,
                            to,
                        },
                    );
                    // The flits die on the wire; the sender discovers the
                    // loss by timeout.
                    total += self.noc.send_dropped(from, to, class) + f.plan.drop_timeout;
                    self.stats.fault_delay_cycles += f.plan.drop_timeout;
                    attempt += 1;
                    if !self.charge_retry(&mut f, from, to, attempt, &mut total, now) {
                        total += self.noc.send(from, to, class);
                        break;
                    }
                }
                MsgOutcome::Corrupt => {
                    self.event(
                        now,
                        CoherenceEvent::FaultInjected {
                            site: FaultSite::NocCorrupt,
                            from,
                            to,
                        },
                    );
                    // The corrupted payload arrives; the checksum model
                    // rejects it at the receiver, which NACKs the sender.
                    total += self.noc.send_corrupted(from, to, class);
                    total += self.noc.send_nack(to, from);
                    self.stats.msg_nacks += 1;
                    self.event(now, CoherenceEvent::Nack { from: to, to: from });
                    attempt += 1;
                    if !self.charge_retry(&mut f, from, to, attempt, &mut total, now) {
                        total += self.noc.send(from, to, class);
                        break;
                    }
                }
            }
        }
        if attempt > 0 && total > base {
            if !f.fatal() {
                f.stats.recovered += 1;
            }
            let delay = total - base;
            self.event(
                now,
                CoherenceEvent::RetryRecovered {
                    attempts: attempt,
                    delay,
                },
            );
        }
        self.faults = Some(f);
        total
    }

    /// Charge one retry on `f`: backoff wait + counters. Returns false
    /// when the budget is exhausted — the caller force-delivers and the
    /// run is latched fatal (detected).
    fn charge_retry(
        &mut self,
        f: &mut FaultPlane,
        from: usize,
        to: usize,
        attempt: u32,
        total: &mut u64,
        now: u64,
    ) -> bool {
        if attempt > f.plan.retry_budget {
            f.mark_fatal();
            self.stats.retry_budget_exhausted += 1;
            self.event(
                now,
                CoherenceEvent::RetryExhausted {
                    from,
                    to,
                    attempts: attempt,
                },
            );
            return false;
        }
        let wait = f.backoff().delay(attempt);
        *total += wait;
        self.stats.fault_delay_cycles += wait;
        self.stats.msg_retries += 1;
        f.stats.retries += 1;
        self.noc.note_retry();
        true
    }

    /// Roll directory-entry loss on a directory access: a random resident
    /// entry of `home`'s bank is dropped (SRAM upset model) and recovered
    /// through the ordinary inclusion-eviction path, which invalidates the
    /// LLC line and every private copy and writes dirty data back — the
    /// same machinery a capacity eviction uses, so the shadow checker
    /// observes a legal (if spurious) eviction.
    #[inline(always)]
    fn maybe_dir_loss(&mut self, home: usize, now: u64) {
        if self.faults.is_some() {
            self.roll_dir_loss(home, now);
        }
    }

    #[cold]
    #[inline(never)]
    fn roll_dir_loss(&mut self, home: usize, now: u64) {
        let Some(f) = self.faults.as_deref_mut() else {
            return;
        };
        let occ = self.dir[home].occupancy();
        if !f.roll_dir_loss(now) || occ == 0 {
            return;
        }
        let victim_idx = f.pick(occ as u64) as usize;
        let Some((block, entry)) = self.dir[home].iter().nth(victim_idx).map(|(b, e)| (b, *e))
        else {
            return;
        };
        self.dir[home].deallocate(block, now);
        self.stats.dir_entries_lost += 1;
        self.event(
            now,
            CoherenceEvent::FaultInjected {
                site: FaultSite::DirLoss,
                from: home,
                to: home,
            },
        );
        self.event(now, CoherenceEvent::DirEntryLost { block });
        self.handle_dir_eviction(DirEviction { block, entry }, now);
    }

    /// Home tile (LLC + directory bank) of a block: low block bits (the
    /// constructor asserts a power-of-two core count).
    #[inline]
    pub fn home_of(&self, block: BlockAddr) -> usize {
        (block.0 & (self.cfg.ncores as u64 - 1)) as usize
    }

    /// Record a protocol event when event recording is enabled.
    #[inline(always)]
    fn event(&mut self, now: u64, ev: CoherenceEvent) {
        if self.cfg.record_events {
            self.record_event(now, ev);
        }
    }

    #[cold]
    #[inline(never)]
    fn record_event(&mut self, now: u64, ev: CoherenceEvent) {
        self.events.push(TimedEvent { cycle: now, ev });
    }

    /// Recorded protocol events (empty unless `cfg.record_events`).
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Drain the recorded events, leaving the buffer empty (telemetry
    /// consumers call this periodically to bound memory).
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Resident directory entries summed across banks (telemetry gauge).
    pub fn dir_occupied_total(&self) -> u64 {
        self.dir.iter().map(|b| b.occupancy() as u64).sum()
    }

    /// Powered directory capacity summed across banks; shrinks and grows
    /// under ADR (telemetry gauge).
    pub fn dir_capacity_total(&self) -> u64 {
        self.dir.iter().map(|b| b.capacity() as u64).sum()
    }

    /// Occupy `home`'s bank port for `service` cycles starting no earlier
    /// than `now`; returns the total latency including queueing delay.
    /// With contention modelling off this is just `service`.
    #[inline]
    fn bank_service(&mut self, home: usize, now: u64, service: u64) -> u64 {
        if !self.cfg.bank_contention {
            return service;
        }
        let start = self.bank_busy[home].max(now);
        self.bank_busy[home] = start + service;
        self.stats.bank_wait_cycles += start - now;
        start - now + service
    }

    /// Translate through the core's TLB, charging TLB (and page-walk)
    /// latency.
    #[inline]
    pub fn translate(&mut self, core: usize, vaddr: VAddr) -> (PAddr, u64) {
        let mut cycles = self.cfg.lat.tlb;
        let vpage = vaddr.page();
        let ppage = match self.cores[core].tlb.lookup(vpage) {
            Some(p) => p,
            None => {
                cycles += self.cfg.lat.page_walk;
                let p = self.page_table.translate_page(vpage);
                self.cores[core].tlb.fill(vpage, p);
                p
            }
        };
        (vaddr.on_frame(ppage), cycles)
    }

    /// A core's TLB, read-only: the probe half of TLB-to-TLB miss
    /// resolution (§II-B) peeks other cores' entries and last-use stamps.
    pub fn tlb(&self, core: usize) -> &Tlb {
        &self.cores[core].tlb
    }

    /// A core's TLB for the TLB-based classifiers (§II-B), which look up,
    /// fill (flushing the evicted page from the L1 to keep TLB–L1
    /// inclusivity) and decay-invalidate entries themselves.
    pub fn tlb_mut(&mut self, core: usize) -> &mut Tlb {
        &mut self.cores[core].tlb
    }

    /// Broadcast a control message from `core` to every other tile and
    /// collect responses (the TLB-to-TLB miss resolution round). Returns
    /// the latency of the slowest round trip.
    pub fn broadcast_round(&mut self, core: usize) -> u64 {
        let mut worst = 0;
        for other in 0..self.cfg.ncores {
            if other == core {
                continue;
            }
            let go = self.noc.send(core, other, MsgClass::Control);
            let back = self.noc.send(other, core, MsgClass::Control);
            worst = worst.max(go + back);
        }
        worst
    }

    /// L1 lookup; on a write hit to a coherent Shared line this performs the
    /// upgrade transaction (invalidating other holders via the directory).
    #[inline]
    pub fn l1_lookup(
        &mut self,
        core: usize,
        block: BlockAddr,
        write: bool,
        now: u64,
    ) -> L1LookupResult {
        let lat_l1 = self.cfg.lat.l1;
        let wt = self.cfg.l1_write_through;
        let Some(line) = self.cores[core].l1.access(block) else {
            return L1LookupResult::Miss;
        };
        let nc = line.nc;
        let mut result = L1LookupResult::Hit { cycles: lat_l1, nc };
        if write {
            let written_state = written_state(wt);
            // NC writes and coherent E/M writes complete locally; coherent
            // write hits in S/F/O upgrade through the directory (Owned data
            // is already local and dirty, but the *other* sharers must still
            // be invalidated before the store globally performs).
            if nc || write_hit_is_local(line.state) {
                line.state = written_state;
            } else {
                let cycles = lat_l1 + self.upgrade(core, block, now);
                self.cores[core]
                    .l1
                    .probe_mut(block)
                    .expect("line just seen")
                    .state = written_state;
                result = L1LookupResult::Hit { cycles, nc: false };
            }
        }
        self.check_ev(CheckEvent::L1Hit {
            core,
            block,
            write,
            nc,
        });
        if write && wt {
            self.write_through_update(core, block, now);
        }
        self.check_ev(CheckEvent::OpEnd);
        result
    }

    /// Account `refs`, references to the block `vaddr` lies in, as
    /// `refs.len()` calls of [`Machine::translate`] + [`Machine::l1_lookup`]
    /// that all hit would: the same TLB, L1, statistics and checker state
    /// (each reference's `L1Hit` and `OpEnd`, in order), `refs_processed`
    /// advanced, and their cycles returned. `None`, with nothing changed,
    /// when they would not all be plain hits: the page is not in the TLB,
    /// the block is not in the L1, or a store meets a coherent line it must
    /// upgrade or a write-through L1.
    pub fn hit_run(&mut self, core: usize, vaddr: VAddr, refs: &[MemRef]) -> Option<u64> {
        let slice = &mut self.cores[core];
        let block = vaddr.on_frame(slice.tlb.peek(vaddr.page())?).block();
        let line = *slice.l1.probe(block)?;
        let stores = refs.iter().any(|r| r.is_write());
        // A store to a coherent S/F/O line upgrades, and a write-through
        // store propagates: both stay per reference.
        let local = line.nc || write_hit_is_local(line.state);
        (!stores || local && !self.cfg.l1_write_through).then_some(())?;
        let n = refs.len() as u64;
        slice.tlb.hit_n(vaddr.page(), n);
        let hit = slice.l1.access_n(block, n).expect("probed above");
        if stores {
            hit.state = L1State::Modified;
        }
        for r in refs {
            self.check_ev(CheckEvent::L1Hit {
                core,
                block,
                write: r.is_write(),
                nc: line.nc,
            });
            self.check_ev(CheckEvent::OpEnd);
        }
        self.stats.refs_processed += n;
        Some(n * (self.cfg.lat.tlb + self.cfg.lat.l1))
    }

    /// Write-through store propagation: push the written line to the home
    /// LLC bank (no directory involvement for NC blocks — the message
    /// carries the NC attribute, §III-C3). Off the critical path (store
    /// buffer), so no cycles are returned.
    fn write_through_update(&mut self, core: usize, block: BlockAddr, now: u64) {
        let home = self.home_of(block);
        self.xmit(core, home, MsgClass::WriteBack, now);
        self.stats.write_throughs += 1;
        self.check_ev(CheckEvent::WriteThrough { core, block });
        self.llc_write_back(home, block, now);
    }

    /// Data written back from a private cache lands in `home`'s LLC line,
    /// or goes on to memory when the LLC replaced the line meanwhile.
    fn llc_write_back(&mut self, home: usize, block: BlockAddr, now: u64) {
        if let Some(l) = self.llc[home].probe_mut(block) {
            l.dirty = true;
        } else {
            let mc = self.noc.mem_controller_for(home);
            self.xmit(home, mc, MsgClass::WriteBack, now);
            self.stats.mem_writes += 1;
        }
    }

    /// One directory-bank touch: record the access (feeding the occupancy
    /// integrals and access histogram) and bump the counter. Every
    /// `dir_accesses` increment goes through here.
    #[inline]
    fn dir_touch(&mut self, home: usize, now: u64) {
        self.dir[home].record_access(now);
        self.stats.dir_accesses += 1;
    }

    /// Upgrade (GetX on an S line): directory access + invalidations.
    fn upgrade(&mut self, core: usize, block: BlockAddr, now: u64) -> u64 {
        let home = self.home_of(block);
        self.maybe_dir_loss(home, now);
        let mut cycles = self.xmit(core, home, MsgClass::Request, now);
        cycles += self.bank_service(home, now + cycles, self.cfg.lat.dir);
        self.dir_touch(home, now);

        let kind = self.cfg.protocol;
        let getx = DirMsg::GetX { core };
        let applied = self.dir[home]
            .lookup(block)
            .ok_or(ProtocolError::MissingEntry)
            .and_then(|e| e.apply(kind, getx));
        let inv_mask = match applied {
            Ok(effect) => effect.invalidate,
            Err(ProtocolError::MissingEntry) => {
                // Inclusivity normally guarantees an entry for any coherent
                // S line; a missing one means the entry was lost (injected
                // upset or a raced eviction). Recover by re-allocating —
                // exactly what a real directory does on a mapped-but-absent
                // request — and count the recovery.
                debug_assert!(
                    self.faults.is_some(),
                    "upgrade without directory entry for {block:?} and no fault plane"
                );
                self.stats.protocol_recoveries += 1;
                self.dir_allocate(home, block, core, getx, now);
                0
            }
            Err(e) => unreachable!("upgrade transition rejected: {e}"),
        };
        cycles += self.invalidate_holders(home, block, inv_mask, true, now).0;
        // Ack back to the writer.
        cycles += self.xmit(home, core, MsgClass::Control, now);
        self.event(now, CoherenceEvent::Upgrade { core, block });
        cycles
    }

    /// Allocate `block`'s directory entry with `first` (the GetS/GetX of
    /// its first requester `core`) applied, recalling the victim's copies
    /// when the set was full.
    fn dir_allocate(
        &mut self,
        home: usize,
        block: BlockAddr,
        core: usize,
        first: DirMsg,
        now: u64,
    ) {
        let mut entry = DirEntry::uncached();
        entry
            .apply(self.cfg.protocol, first)
            .expect("a fresh entry accepts any request");
        let ev = self.dir[home].allocate(block, now, entry);
        self.stats.dir_allocations += 1;
        self.check_ev(CheckEvent::DirAllocate { block, core });
        if let Some(ev) = ev {
            self.handle_dir_eviction(ev, now);
        }
    }

    /// Send invalidations to every core in `mask`, removing their L1 lines.
    /// Dirty data found (the previous owner) is written back to the home
    /// LLC bank. With `ack` (a requester waits for the invalidations) every
    /// holder answers with a control message; inclusion victims are not
    /// acknowledged. Returns the slowest invalidation round-trip and whether
    /// dirty data was recovered.
    fn invalidate_holders(
        &mut self,
        home: usize,
        block: BlockAddr,
        mask: u64,
        ack: bool,
        now: u64,
    ) -> (u64, bool) {
        let (mut worst, mut any_dirty) = (0u64, false);
        let mut m = mask;
        while m != 0 {
            let holder = m.trailing_zeros() as usize;
            m &= m - 1;
            let mut lat = self.xmit(home, holder, MsgClass::Control, now);
            self.stats.invalidations_sent += 1;
            let invalidated = self.cores[holder].l1.invalidate(block);
            let present = invalidated.is_some();
            let dirty = invalidated.is_some_and(|line| line.dirty());
            if dirty {
                // Dirty data travels back to the home LLC bank. An inclusion
                // victim's line is gone by now or goes next; its caller
                // sends the data on to memory.
                self.xmit(holder, home, MsgClass::WriteBack, now);
                self.stats.l1_writebacks += 1;
                if let Some(llc_line) = self.llc[home].probe_mut(block) {
                    llc_line.dirty = true;
                }
                any_dirty = true;
            }
            self.check_ev(CheckEvent::L1Invalidated {
                core: holder,
                block,
                present,
                dirty,
            });
            if ack {
                lat += self.xmit(holder, home, MsgClass::Control, now);
            }
            worst = worst.max(lat);
        }
        (worst, any_dirty)
    }

    /// Fill a block into the requesting L1 after a miss. `nc` is the
    /// caller's coherence decision for this block (NCRT hit, PT-private
    /// page, or always-false for FullCoh). Returns cycles charged.
    pub fn miss_fill(
        &mut self,
        core: usize,
        block: BlockAddr,
        write: bool,
        nc: bool,
        now: u64,
    ) -> u64 {
        self.miss_fill_smt(core, 0, block, write, nc, now)
    }

    /// SMT-aware variant of [`Machine::miss_fill`]: `tid` tags NC fills so
    /// `raccd_invalidate` can flush selectively (§III-E).
    pub fn miss_fill_smt(
        &mut self,
        core: usize,
        tid: u8,
        block: BlockAddr,
        write: bool,
        nc: bool,
        now: u64,
    ) -> u64 {
        // NC fills take E (or M on write) and never come from an owner; a
        // coherent GetS may be granted S — or F under MESIF.
        let grant = if nc {
            Grant {
                cycles: self.nc_fill_path(core, block, now),
                state: self.unshared_fill_state(write),
                from_owner: false,
            }
        } else {
            self.coherent_fill_path(core, block, write, now)
        };
        let (state, from_owner) = (grant.state, grant.from_owner);
        if nc {
            self.stats.nc_fills += 1;
            self.event(now, CoherenceEvent::NcFill { core, block, write });
        } else {
            self.stats.coherent_fills += 1;
            self.event(
                now,
                CoherenceEvent::CoherentFill {
                    core,
                    block,
                    write,
                    from_owner,
                },
            );
        }
        self.check_ev(CheckEvent::Fill {
            core,
            block,
            write,
            nc,
            state,
            from_owner,
        });
        // The store completes (and, under write-through, propagates) once
        // the response arrives; the victim write-back is off the critical
        // path behind it.
        if write && self.cfg.l1_write_through {
            self.write_through_update(core, block, now);
        }
        let victim = self.cores[core].l1.fill(block, L1Line { state, nc, tid });
        if let Some((vblock, vline)) = victim {
            self.handle_l1_victim(core, vblock, vline, now);
        }
        self.check_ev(CheckEvent::OpEnd);
        grant.cycles
    }

    /// State a fill installs when no other private copy remains: E for a
    /// load, what a store leaves behind otherwise.
    fn unshared_fill_state(&self, write: bool) -> L1State {
        if write {
            written_state(self.cfg.l1_write_through)
        } else {
            L1State::Exclusive
        }
    }

    /// Non-coherent request path: LLC only, no directory (§III-C3).
    fn nc_fill_path(&mut self, core: usize, block: BlockAddr, now: u64) -> u64 {
        let home = self.home_of(block);
        let mut cycles = self.xmit(core, home, MsgClass::Request, now);
        cycles += self.bank_service(home, now + cycles, self.cfg.lat.llc);
        if let Some(line) = self.llc[home].access(block) {
            if !line.nc {
                // Coherent → non-coherent transition (§III-E): deallocate
                // the directory entry; private copies should already be
                // flushed (OpenMP flush guarantee), stale silent sharers are
                // invalidated defensively.
                line.nc = true;
                self.event(now, CoherenceEvent::CoherentToNc { block });
                self.check_ev(CheckEvent::CoherentToNc { block });
                self.dir_touch(home, now);
                if let Some(entry) = self.dir[home].deallocate(block, now) {
                    let holders = entry.all_holders();
                    self.check_ev(CheckEvent::DirDeallocate { block });
                    self.invalidate_holders(home, block, holders, true, now);
                }
                self.maybe_adr(home, now);
            }
        } else {
            // LLC miss: fetch from memory non-coherently.
            cycles += self.fetch_from_memory(home, block, true, now);
        }
        cycles += self.xmit(home, core, MsgClass::DataResponse, now);
        cycles
    }

    /// Coherent request path: directory + LLC in parallel. The directory
    /// entry is looked up once; every change to it is a [`DirMsg`] applied
    /// through that one reference before the messages it causes are sent.
    fn coherent_fill_path(
        &mut self,
        core: usize,
        block: BlockAddr,
        write: bool,
        now: u64,
    ) -> Grant {
        let home = self.home_of(block);
        self.maybe_dir_loss(home, now);
        let mut cycles = self.xmit(core, home, MsgClass::Request, now);
        cycles += self.bank_service(home, now + cycles, self.cfg.lat.dir.max(self.cfg.lat.llc));
        self.dir_touch(home, now);
        let kind = self.cfg.protocol;
        let rules = kind.rules();
        let request = if write {
            DirMsg::GetX { core }
        } else {
            DirMsg::GetS { core }
        };
        let mut state = self.unshared_fill_state(write);
        let mut from_owner = false;

        if let Some(e) = self.dir[home].lookup(block) {
            let before = *e;
            // A foreign owner answers a forwarded GetS by downgrading;
            // whether its copy is dirty decides where it (and, under
            // MOESI, the owner pointer) ends up.
            let owner = before.owner.map(usize::from).filter(|&o| o != core);
            let owner_dirty =
                owner.is_some_and(|o| self.cores[o].l1.probe(block).is_some_and(|l| l.dirty()));
            let downgraded = owner.filter(|_| !write);
            if let Some(o) = downgraded {
                let dg = DirMsg::Downgrade {
                    core: o,
                    dirty: owner_dirty,
                };
                e.apply(kind, dg).expect("core ids fit the sharer vector");
            }
            let effect = e
                .apply(kind, request)
                .expect("the owner was downgraded first");
            // Directory hit ⇒ coherent LLC line present (inclusivity).
            let hit = self.llc[home].access(block).is_some();
            debug_assert!(hit, "directory entry without LLC line for {block:?}");

            // Who supplies the data: the previous owner (cache-to-cache),
            // a MESIF forwarder still holding the line, or the home LLC.
            let mut supplier = owner;
            if write {
                cycles += self
                    .invalidate_holders(home, block, effect.invalidate, true, now)
                    .0;
            } else if let Some(o) = downgraded {
                // Forward GetS to the owner; it downgrades and supplies
                // data. MESI/MESIF: dirty data is written back to the
                // LLC and the owner drops to Shared. MOESI: a dirty
                // owner keeps the only up-to-date copy in Owned — no
                // write-back — and stays the directory owner.
                cycles += self.xmit(home, o, MsgClass::Control, now);
                let (dg_state, wb) = if owner_dirty {
                    (
                        rules.dirty_downgrade,
                        rules.dirty_downgrade != L1State::Owned,
                    )
                } else {
                    (L1State::Shared, false)
                };
                if let Some(was_dirty) = self.cores[o].l1.downgrade_to(block, dg_state) {
                    if was_dirty && wb {
                        self.xmit(o, home, MsgClass::WriteBack, now);
                        self.stats.l1_writebacks += 1;
                        if let Some(l) = self.llc[home].probe_mut(block) {
                            l.dirty = true;
                        }
                    }
                    self.check_ev(CheckEvent::L1Downgraded {
                        core: o,
                        block,
                        was_dirty,
                        to: dg_state,
                    });
                }
                state = rules.shared_fill;
            } else if !effect.exclusive {
                // Existing sharers. MESIF: the designated Forward sharer
                // (when still resident) supplies the data and hands
                // Forward to the newest sharer, dropping itself to
                // Shared; otherwise the home LLC supplies, exactly as
                // MESI/MOESI.
                supplier = before
                    .fwd
                    .map(usize::from)
                    .filter(|&fc| fc != core && self.cores[fc].l1.probe(block).is_some());
                if let Some(fc) = supplier {
                    cycles += self.xmit(home, fc, MsgClass::Control, now);
                    if let Some(was_dirty) = self.cores[fc].l1.downgrade_to(block, L1State::Shared)
                    {
                        debug_assert!(!was_dirty, "Forward lines are clean");
                        self.check_ev(CheckEvent::L1Downgraded {
                            core: fc,
                            block,
                            was_dirty,
                            to: L1State::Shared,
                        });
                    }
                }
                state = rules.shared_fill;
            }
            // (Otherwise: sole reader, or a requester the directory still
            // lists as owner because its copy was dropped without an
            // update, e.g. an OS-triggered page flush — Exclusive from the
            // LLC.)
            from_owner = supplier.is_some();
            if from_owner {
                self.stats.owner_forwards += 1;
            }
            cycles += self.xmit(supplier.unwrap_or(home), core, MsgClass::DataResponse, now);
        } else {
            // Directory miss. A coherent LLC line always has an entry, and
            // until the first NC fill every LLC line is coherent, so the
            // LLC misses too: count it without the tag scan.
            let llc_line = if self.stats.nc_fills == 0 {
                self.llc[home].note_miss(block);
                None
            } else {
                self.llc[home].access(block)
            };
            if let Some(l) = llc_line {
                // NC → coherent transition (§III-E): clear the bit and
                // allocate an entry.
                l.nc = false;
                self.event(now, CoherenceEvent::NcToCoherent { block });
                self.check_ev(CheckEvent::NcToCoherent { block });
            } else {
                cycles += self.fetch_from_memory(home, block, false, now);
            }
            // First requester gets E (read) or M (write); either way the
            // directory records it as owner.
            self.dir_allocate(home, block, core, request, now);
            self.maybe_adr(home, now);
            cycles += self.xmit(home, core, MsgClass::DataResponse, now);
        }
        Grant {
            cycles,
            state,
            from_owner,
        }
    }

    /// Fetch a block from main memory into the home LLC bank. Handles the
    /// LLC victim. Returns added cycles.
    fn fetch_from_memory(&mut self, home: usize, block: BlockAddr, nc: bool, now: u64) -> u64 {
        let mc = self.noc.mem_controller_for(home);
        let mut cycles = self.xmit(home, mc, MsgClass::Request, now);
        cycles += self.cfg.lat.mem;
        self.stats.mem_reads += 1;
        cycles += self.xmit(mc, home, MsgClass::DataResponse, now);
        let victim = self.llc[home].fill(block, LlcLine { dirty: false, nc });
        self.check_ev(CheckEvent::LlcFill { block, nc });
        if let Some((vblock, vline)) = victim {
            self.handle_llc_victim(home, vblock, vline, now);
        }
        cycles
    }

    /// An LLC line was replaced. Coherent victims drag their directory
    /// entry and any private copies with them; dirty data goes to memory.
    fn handle_llc_victim(&mut self, home: usize, block: BlockAddr, line: LlcLine, now: u64) {
        let mut dirty = line.dirty;
        self.check_ev(CheckEvent::LlcEvict {
            block,
            nc: line.nc,
            dirty: line.dirty,
        });
        if !line.nc {
            self.dir_touch(home, now);
            if let Some(entry) = self.dir[home].deallocate(block, now) {
                self.check_ev(CheckEvent::DirDeallocate { block });
                dirty |= self
                    .invalidate_holders(home, block, entry.all_holders(), false, now)
                    .1;
            }
            self.maybe_adr(home, now);
        }
        if dirty {
            let mc = self.noc.mem_controller_for(home);
            self.xmit(home, mc, MsgClass::WriteBack, now);
            self.stats.mem_writes += 1;
        }
    }

    /// A directory entry was evicted for capacity: invalidate its LLC line
    /// (directory-inclusive-of-LLC, §V-A3) and every private copy.
    fn handle_dir_eviction(&mut self, ev: DirEviction, now: u64) {
        let home = self.home_of(ev.block);
        self.stats.dir_evictions += 1;
        self.event(now, CoherenceEvent::DirEviction { block: ev.block });
        self.check_ev(CheckEvent::DirEvicted {
            block: ev.block,
            holders: ev.entry.all_holders(),
        });
        let (_, mut dirty) =
            self.invalidate_holders(home, ev.block, ev.entry.all_holders(), false, now);
        if let Some(line) = self.llc[home].invalidate(ev.block) {
            self.stats.llc_inclusion_invalidations += 1;
            dirty |= line.dirty;
            // `dirty` here already folds in data recovered from private
            // copies above — the single memory write below covers both.
            self.check_ev(CheckEvent::LlcEvict {
                block: ev.block,
                nc: line.nc,
                dirty,
            });
        }
        if dirty {
            let mc = self.noc.mem_controller_for(home);
            self.xmit(home, mc, MsgClass::WriteBack, now);
            self.stats.mem_writes += 1;
        }
    }

    /// Dispose of a replaced L1 line. Off the critical path (write-back
    /// buffers), so traffic and state are accounted but no cycles returned.
    fn handle_l1_victim(&mut self, core: usize, block: BlockAddr, line: L1Line, now: u64) {
        let home = self.home_of(block);
        self.check_ev(CheckEvent::L1Evict {
            core,
            block,
            state: line.state,
            nc: line.nc,
        });
        if line.nc {
            if line.dirty() {
                // NC write-back: LLC-only, no directory (§III-C3).
                self.xmit(core, home, MsgClass::WriteBack, now);
                self.stats.l1_writebacks += 1;
                self.llc_write_back(home, block, now);
            }
            return;
        }
        // What the replacement owes the directory: a message class on the
        // wire and a `DirMsg` at the home bank.
        let (class, msg) = match victim_action(line.state) {
            // PutM / PutO: update directory, write data into the LLC.
            VictimAction::WriteBackDirty => (MsgClass::WriteBack, DirMsg::PutM { core }),
            // PutE: clean notification so the owner pointer stays exact.
            VictimAction::NotifyClean => (MsgClass::Control, DirMsg::PutM { core }),
            // PutF: clear the forward pointer (and this sharer bit) so
            // the directory never names an absent clean supplier.
            VictimAction::NotifyForward => (MsgClass::Control, DirMsg::PutF { core }),
            // Silent eviction (Table I); the stale sharer bit may earn a
            // spurious invalidation later.
            VictimAction::Silent => return,
        };
        self.xmit(core, home, class, now);
        self.dir_touch(home, now);
        self.dir_apply(home, block, msg);
        if line.dirty() {
            self.stats.l1_writebacks += 1;
            if let Some(l) = self.llc[home].probe_mut(block) {
                l.dirty = true;
            }
        }
    }

    /// Apply a replacement notification to `block`'s entry, if it still
    /// has one.
    fn dir_apply(&mut self, home: usize, block: BlockAddr, msg: DirMsg) {
        if let Some(e) = self.dir[home].lookup(block) {
            e.apply(self.cfg.protocol, msg)
                .expect("core ids fit the sharer vector");
        }
    }

    /// `raccd_invalidate` (§III-C4): walk the private cache, flush every NC
    /// block. Returns cycles (1 per line slot walked + pipelined write-back
    /// cost per dirty line).
    pub fn flush_nc(&mut self, core: usize, now: u64) -> u64 {
        self.flush_nc_filtered(core, None, now)
    }

    /// SMT-aware `raccd_invalidate`: with `tid = Some(t)` only thread `t`'s
    /// NC lines are flushed (§III-E's selective invalidation).
    pub fn flush_nc_filtered(&mut self, core: usize, tid: Option<u8>, now: u64) -> u64 {
        let mut cycles = self.cores[core].l1.num_lines() as u64;
        let flushed = match tid {
            Some(t) => self.cores[core].l1.flush_nc_thread(t),
            None => self.cores[core].l1.flush_nc(),
        };
        self.stats.nc_lines_flushed += flushed.len() as u64;
        self.event(
            now,
            CoherenceEvent::FlushNc {
                core,
                lines: flushed.len() as u32,
            },
        );
        for (block, line) in flushed {
            self.check_ev(CheckEvent::L1FlushedNc {
                core,
                block,
                state: line.state,
            });
            if line.dirty() {
                cycles += 4; // pipelined NC write-back issue
                let home = self.home_of(block);
                self.xmit(core, home, MsgClass::WriteBack, now);
                self.stats.l1_writebacks += 1;
                self.llc_write_back(home, block, now);
            }
        }
        self.check_ev(CheckEvent::OpEnd);
        cycles
    }

    /// PT baseline private→shared transition: flush every block of physical
    /// page `page` from `core`'s L1 (plus its TLB entry for `vpage`).
    /// Returns cycles charged to the *accessing* core, which waits for the
    /// OS-triggered flush (§II-B).
    pub fn flush_page(&mut self, core: usize, page: PageNum, vpage: PageNum, now: u64) -> u64 {
        let mut cycles = 200; // OS/IPI round trip
        let flushed = self.cores[core].l1.flush_page(page);
        self.stats.pt_flush_lines += flushed.len() as u64;
        self.cores[core].tlb.invalidate(vpage);
        for (block, line) in flushed {
            cycles += 4;
            let home = self.home_of(block);
            self.check_ev(CheckEvent::L1FlushedPage {
                core,
                block,
                state: line.state,
                nc: line.nc,
            });
            if line.dirty() {
                self.xmit(core, home, MsgClass::WriteBack, now);
                self.stats.l1_writebacks += 1;
                self.llc_write_back(home, block, now);
            }
            if !line.nc {
                // The flush acts as a replacement: keep the directory's
                // owner/sharer tracking exact for coherent lines.
                self.dir_touch(home, now);
                self.dir_apply(home, block, DirMsg::PutM { core });
            }
        }
        self.check_ev(CheckEvent::OpEnd);
        cycles
    }

    /// Run the ADR controller for a bank after occupancy changed.
    fn maybe_adr(&mut self, home: usize, now: u64) {
        if self.adr.is_empty() {
            return;
        }
        if let Some(ev) = self.adr[home].maybe_resize(&mut self.dir[home], now) {
            self.stats.adr_reconfigs += 1;
            self.stats.adr_blocked_cycles += ev.blocked_cycles;
            self.event(
                now,
                CoherenceEvent::AdrResize {
                    bank: home,
                    grow: ev.direction == ResizeDirection::Grow,
                    new_entries: ev.new_entries,
                    blocked_cycles: ev.blocked_cycles,
                },
            );
            self.check_ev(CheckEvent::AdrResized {
                bank: home,
                new_entries: ev.new_entries,
            });
            for victim in ev.evicted {
                self.handle_dir_eviction(victim, now);
            }
        }
    }

    /// Pull cache/TLB/NoC/directory counters into [`Stats`] and set the
    /// final cycle count. Call once, at end of simulation.
    pub fn finalize(&mut self, end_cycle: u64) -> Stats {
        self.shadow_audit();
        self.stats.cycles = end_cycle;
        for c in &self.cores {
            let (h, m) = c.l1.stats();
            self.stats.l1_hits += h;
            self.stats.l1_misses += m;
            let (th, tm) = c.tlb.stats();
            self.stats.tlb_hits += th;
            self.stats.tlb_misses += tm;
        }
        for b in &self.llc {
            let (h, m) = b.stats();
            self.stats.llc_hits += h;
            self.stats.llc_misses += m;
        }
        let mut occ_int: u128 = 0;
        let mut cap_int: u128 = 0;
        for d in &mut self.dir {
            let avg = d.avg_occupancy(end_cycle);
            let cap = d.capacity_integral(end_cycle);
            occ_int += (avg * cap as f64) as u128;
            cap_int += cap;
            for &(sz, n) in d.access_histogram() {
                match self
                    .stats
                    .dir_access_hist
                    .iter_mut()
                    .find(|(s, _)| *s == sz)
                {
                    Some((_, c)) => *c += n,
                    None => self.stats.dir_access_hist.push((sz, n)),
                }
            }
        }
        self.stats.dir_avg_occupancy = if cap_int == 0 {
            0.0
        } else {
            occ_int as f64 / cap_int as f64
        };
        self.stats.dir_capacity_integral = cap_int;
        for d in &self.dir {
            // Recount: protocol-level counters were mirrored in stats as we
            // went; assert they agree in debug builds.
            debug_assert!(d.accesses() <= self.stats.dir_accesses);
        }
        self.stats.noc_traffic = self.noc.traffic();
        self.stats.noc_flits = self.noc.total_flits();
        self.stats.clone()
    }

    /// L1 of a core (tests/diagnostics).
    pub fn l1(&self, core: usize) -> &L1Cache {
        &self.cores[core].l1
    }

    /// A directory bank (tests/diagnostics).
    pub fn dir_bank(&self, bank: usize) -> &DirectoryBank {
        &self.dir[bank]
    }

    /// An LLC bank (tests/diagnostics).
    pub fn llc_bank(&self, bank: usize) -> &LlcBank {
        &self.llc[bank]
    }

    /// Verify the coherence-inclusivity invariants (debug/test helper):
    /// every coherent LLC line has a directory entry and vice versa; every
    /// coherent L1 line exists in the LLC.
    pub fn check_invariants(&self) {
        for (bank, d) in self.dir.iter().enumerate() {
            for (block, _) in d.iter() {
                assert_eq!(self.home_of(block), bank, "entry in wrong bank");
                let line = self.llc[bank]
                    .probe(block)
                    .unwrap_or_else(|| panic!("dir entry without LLC line: {block:?}"));
                assert!(!line.nc, "directory entry for an NC LLC line: {block:?}");
            }
        }
        for (bank, b) in self.llc.iter().enumerate() {
            for (block, line) in b.iter() {
                if !line.nc {
                    assert!(
                        self.dir[bank].probe(block).is_some(),
                        "coherent LLC line without dir entry: {block:?}"
                    );
                }
            }
        }
        for (c, core) in self.cores.iter().enumerate() {
            for (block, line) in core.l1.iter() {
                if !line.nc {
                    let home = self.home_of(block);
                    assert!(
                        self.llc[home].probe(block).is_some(),
                        "coherent L1 line (core {c}) not in LLC: {block:?}"
                    );
                }
            }
        }
    }

    /// The mesh (tests/diagnostics).
    pub fn noc(&self) -> &Mesh {
        &self.noc
    }
}

raccd_snap::snap_record!(CoreSlice { tlb, l1 });

/// Whole-machine snapshot/restore (the `raccd-snap` integration).
///
/// A snapshot captures every bit of machine state that influences future
/// behaviour — caches (tags, state, data-version mirrors via the attached
/// checker, PLRU), directory banks, ADR controllers, page table, TLBs, NoC
/// counters, fault-plane RNG, statistics and recorded protocol events — as
/// independently-CRC'd sections of a [`raccd_snap::Snapshot`] (archives
/// written before fills returned their grant also carry a three-flag
/// `machine/scratch` section; it held nothing a later transaction reads
/// and is ignored). The configuration itself is *not* serialized:
/// restore is handed the identical `MachineConfig`, and a config
/// fingerprint section rejects mismatches up front.
impl Machine {
    /// Capture the entire machine state. When a [`ShadowChecker`] is
    /// attached, its mirror state and its canonical
    /// [`ShadowChecker::state_key`] are captured too, so
    /// [`Machine::restore`] can prove the restored coherence state is
    /// bit-identical to the captured one.
    pub fn snapshot(&self) -> raccd_snap::Snapshot {
        let mut s = raccd_snap::Snapshot::new();
        s.put_raw("machine/cfg", cfg_fingerprint(&self.cfg).into_bytes());
        s.put("machine/page_table", &self.page_table);
        s.put("machine/cores", &self.cores);
        s.put("machine/llc", &self.llc);
        s.put("machine/dir", &self.dir);
        s.put("machine/adr", &self.adr);
        s.put("machine/noc", &self.noc);
        s.put("machine/bank_busy", &self.bank_busy);
        s.put("machine/events", &self.events);
        s.put("machine/stats", &self.stats);
        if let Some(f) = &self.faults {
            s.put("machine/faults", f.as_ref());
        }
        if let Some(sc) = self
            .checker
            .as_ref()
            .and_then(|c| c.as_any().downcast_ref::<ShadowChecker>())
        {
            s.put("machine/checker", sc);
            s.put_raw("machine/state_key", sc.state_key(self).into_bytes());
        }
        s
    }

    /// Build the machine a snapshot captured, decoding each section
    /// straight into the machine returned: no array is built twice. The
    /// snapshot must come from a machine with configuration `cfg`. The
    /// checker and fault plane are exactly the captured ones (detached if
    /// the snapshot carried none), whatever `RACCD_SHADOW_CHECK` or
    /// `RACCD_FAULT_SPEC` say. Before the machine is assembled, every
    /// section count, every L1, LLC and directory array and every ADR
    /// configuration is checked against `cfg`, and every directory entry
    /// against the cores it may name. When the snapshot recorded a shadow
    /// `state_key`, the restored state is re-fingerprinted and compared as
    /// an end-to-end integrity check beyond the per-section CRCs.
    pub fn restore(
        cfg: MachineConfig,
        s: &raccd_snap::Snapshot,
    ) -> Result<Machine, raccd_snap::SnapError> {
        if s.raw("machine/cfg")? != cfg_fingerprint(&cfg).as_bytes() {
            return Err(raccd_snap::SnapError::Invalid("machine config mismatch"));
        }
        let bank_bits = bank_bits(&cfg);
        let cores: Vec<CoreSlice> = s.get("machine/cores")?;
        let llc: Vec<LlcBank> = s.get("machine/llc")?;
        let dir: Vec<DirectoryBank> = s.get("machine/dir")?;
        let adr: Vec<Adr> = s.get("machine/adr")?;
        let bank_busy: Vec<u64> = s.get("machine/bank_busy")?;
        let noc: Mesh = s.get("machine/noc")?;
        let n = cfg.ncores;
        let nadr = if cfg.adr { n } else { 0 };
        // A directory is built at its full size and ADR only halves or
        // doubles it within the controller's range.
        let adr_cfg = adr_config(&cfg);
        let dir_range = if cfg.adr {
            adr_cfg.min_entries..=adr_cfg.max_entries
        } else {
            cfg.dir_entries_per_bank()..=cfg.dir_entries_per_bank()
        };
        if cores.len() != n
            || llc.len() != n
            || dir.len() != n
            || adr.len() != nadr
            || bank_busy.len() != n
            || noc.tiles() != n
            || cores
                .iter()
                .any(|c| !c.l1.has_geometry(cfg.l1_bytes, cfg.l1_ways))
            || llc
                .iter()
                .any(|b| !b.has_geometry(cfg.llc_entries_per_bank, cfg.llc_ways, bank_bits))
            || dir.iter().any(|d| {
                d.ways() != cfg.dir_ways
                    || d.bank_bits() != bank_bits
                    || !dir_range.contains(&d.capacity())
            })
            || adr.iter().any(|a| *a.config() != adr_cfg)
        {
            return Err(raccd_snap::SnapError::Invalid("machine geometry"));
        }
        // A directory entry's cores index `cores` when it is next
        // downgraded or invalidated; the codec cannot know `ncores`.
        let absent = u64::MAX.checked_shl(n as u32).unwrap_or(0);
        let names_absent_core = |(_, e): (BlockAddr, &DirEntry)| {
            e.sharers & absent != 0 || [e.owner, e.fwd].iter().flatten().any(|&c| c as usize >= n)
        };
        if dir.iter().any(|b| b.iter().any(names_absent_core)) {
            return Err(raccd_snap::SnapError::Invalid("directory entry core"));
        }
        let m = Machine {
            page_table: s.get("machine/page_table")?,
            cores,
            llc,
            dir,
            adr,
            noc,
            bank_busy,
            events: s.get("machine/events")?,
            stats: s.get("machine/stats")?,
            faults: if s.has("machine/faults") {
                Some(Box::new(s.get::<FaultPlane>("machine/faults")?))
            } else {
                None
            },
            checker: if s.has("machine/checker") {
                Some(Box::new(s.get::<ShadowChecker>("machine/checker")?))
            } else {
                None
            },
            cfg,
        };
        if s.has("machine/state_key") {
            let want = s.raw("machine/state_key")?;
            let got = m.shadow_state_key().unwrap_or_default();
            if got.as_bytes() != want {
                return Err(raccd_snap::SnapError::Invalid(
                    "restored state_key mismatch",
                ));
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_noc::Topology;

    fn small_cfg() -> MachineConfig {
        let mut c = MachineConfig::scaled();
        c.llc_entries_per_bank = 64;
        c
    }

    fn machine() -> Machine {
        Machine::new(small_cfg())
    }

    /// Drive one full reference (translate → L1 → miss fill) coherently.
    fn access(m: &mut Machine, core: usize, vaddr: u64, write: bool, nc: bool, now: u64) -> u64 {
        let (paddr, mut cycles) = m.translate(core, VAddr(vaddr));
        let block = paddr.block();
        match m.l1_lookup(core, block, write, now) {
            L1LookupResult::Hit { cycles: c, .. } => cycles + c,
            L1LookupResult::Miss => {
                cycles += m.miss_fill(core, block, write, nc, now);
                cycles
            }
        }
    }

    /// `home_of` masks the bank out of the block number. The constructor
    /// insists on a power-of-two core count, where the mask is the `%` it
    /// replaced: check the shipped machines, the explorer's 4- and 8-core
    /// ones, the smallest (2 cores) and the largest (64).
    #[test]
    fn home_mask_equals_modulo_on_every_machine() {
        let sized = |k: usize, topology| {
            let mut c = small_cfg();
            c.mesh_k = k;
            c.with_topology(topology)
        };
        let mut cfgs = vec![
            sized(1, Topology::Numa2),
            sized(2, Topology::Mesh),
            sized(2, Topology::Numa2),
            sized(8, Topology::Mesh),
        ];
        for base in [MachineConfig::paper(), MachineConfig::scaled()] {
            cfgs.extend(Topology::ALL.map(|t| base.with_topology(t)));
        }
        let mut cores: Vec<usize> = cfgs.iter().map(|c| c.ncores).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores, [2, 4, 8, 16, 32, 64]);
        for cfg in cfgs {
            let m = Machine::new(cfg);
            let n = cfg.ncores as u64;
            let mut block = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..4096u64 {
                block = block.rotate_left(9) ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
                for b in [block, i, u64::MAX - i] {
                    assert_eq!(
                        m.home_of(BlockAddr(b)),
                        (b % n) as usize,
                        "{n} cores, {b:#x}"
                    );
                }
            }
        }
    }

    /// `snap` with section `tag` taken from `other`.
    fn transplant(snap: &raccd_snap::Snapshot, other: &Machine, tag: &str) -> raccd_snap::Snapshot {
        let mut s = snap.clone();
        s.put_raw(tag, other.snapshot().raw(tag).unwrap().to_vec());
        s
    }

    /// The route table is indexed by tile, so a restored mesh has to be the
    /// size of the machine it is restored into.
    #[test]
    fn restore_rejects_a_mesh_of_another_size() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, true, false, 0);
        let mut snap = m.snapshot();
        let mut back = Machine::restore(small_cfg(), &snap).expect("own archive");
        snap.put("machine/noc", &Mesh::new(2, 1, 1, 16));
        assert_eq!(
            Machine::restore(small_cfg(), &snap).err(),
            Some(raccd_snap::SnapError::Invalid("machine geometry"))
        );
        access(&mut back, 1, 0x10_0000, true, false, 10);
        back.check_invariants();
    }

    /// An archive restores only under the configuration it was taken with.
    #[test]
    fn restore_refuses_another_config() {
        let snap = machine().snapshot();
        let other = MachineConfig {
            l1_bytes: 2 * small_cfg().l1_bytes,
            ..small_cfg()
        };
        assert_eq!(
            Machine::restore(other, &snap).err(),
            Some(raccd_snap::SnapError::Invalid("machine config mismatch"))
        );
    }

    /// Restore builds no array of its own, so each decoded one is checked
    /// against what `cfg` gives it: an L1, LLC or directory array or an
    /// ADR controller taken from another machine of the same core count
    /// is refused, and so is a directory outside its ADR range. A
    /// directory ADR has shrunk restores.
    #[test]
    fn restore_refuses_arrays_the_config_does_not_build() {
        let cfg = MachineConfig {
            adr: true,
            ..small_cfg()
        };
        let mut m = Machine::new(cfg);
        for i in 0..64u64 {
            access(&mut m, 0, 0x10_0000 + i * 64, false, false, i * 100);
        }
        assert!(m.stats.adr_reconfigs > 0, "ADR shrank a bank");
        let snap = m.snapshot();
        let back = Machine::restore(cfg, &snap).expect("own archive");
        assert_eq!(back.snapshot().to_bytes(), snap.to_bytes());
        let twice = |mut c: MachineConfig, f: fn(&mut MachineConfig)| {
            f(&mut c);
            Machine::new(c)
        };
        let cases = [
            ("machine/cores", twice(cfg, |c| c.l1_bytes *= 2)),
            ("machine/cores", twice(cfg, |c| c.l1_ways *= 2)),
            ("machine/llc", twice(cfg, |c| c.llc_entries_per_bank *= 2)),
            ("machine/llc", twice(cfg, |c| c.llc_ways *= 2)),
            ("machine/dir", twice(cfg, |c| c.dir_ways *= 2)),
            ("machine/dir", twice(cfg, |c| c.llc_entries_per_bank *= 2)),
            ("machine/adr", twice(cfg, |c| c.adr_theta_dec /= 2.0)),
        ];
        for (tag, other) in &cases {
            assert_eq!(
                Machine::restore(cfg, &transplant(&snap, other, tag)).err(),
                Some(raccd_snap::SnapError::Invalid("machine geometry")),
                "{tag} of {:?}",
                other.cfg
            );
        }
        // Without ADR a directory keeps the size it was built with.
        let fixed = small_cfg();
        let shrunk = {
            let mut s = Machine::new(fixed).snapshot();
            s.put_raw("machine/dir", snap.raw("machine/dir").unwrap().to_vec());
            s
        };
        assert_eq!(
            Machine::restore(fixed, &shrunk).err(),
            Some(raccd_snap::SnapError::Invalid("machine geometry"))
        );
    }

    /// A directory entry naming a core the machine lacks (a sharer bit or
    /// an owner past `ncores`) is refused before anything indexes with it.
    #[test]
    fn restore_refuses_a_directory_entry_naming_an_absent_core() {
        let mut m = machine();
        m.detach_checker();
        access(&mut m, 0, 0x10_0000, true, false, 0);
        let snap = m.snapshot();
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        let block = paddr.block();
        let home = m.home_of(block);
        let n = m.cfg.ncores;
        let name: [fn(&mut DirEntry, usize); 2] =
            [|e, n| e.sharers |= 1 << n, |e, n| e.owner = Some(n as u8)];
        for name in name {
            let mut dir: Vec<DirectoryBank> = snap.get("machine/dir").unwrap();
            name(dir[home].lookup(block).expect("entry"), n);
            let mut s = snap.clone();
            s.put("machine/dir", &dir);
            assert_eq!(
                Machine::restore(m.cfg, &s).err(),
                Some(raccd_snap::SnapError::Invalid("directory entry core"))
            );
        }
    }

    /// The checker a restored machine carries is the archive's: none when
    /// the archive had none, and the captured mirror (not a fresh one)
    /// when it had one, also under `RACCD_SHADOW_CHECK=1`, where
    /// `Machine::new` attaches a fresh checker to every machine.
    #[test]
    fn restore_adopts_the_archived_checker_and_no_other() {
        let cfg = small_cfg();
        let mut plain = Machine::new(cfg);
        plain.detach_checker();
        access(&mut plain, 0, 0x10_0000, true, false, 0);
        let snap = plain.snapshot();
        assert!(!snap.has("machine/checker"));
        assert!(!Machine::restore(cfg, &snap).unwrap().has_checker());

        let mut checked = Machine::new(cfg);
        checked.attach_checker(Box::new(ShadowChecker::new(&cfg)));
        access(&mut checked, 0, 0x10_0000, true, false, 0);
        access(&mut checked, 1, 0x10_0000, false, false, 10);
        let snap = checked.snapshot();
        let back = Machine::restore(cfg, &snap).expect("own archive");
        let archived = snap.raw("machine/checker").unwrap();
        let fresh = raccd_snap::encode(&ShadowChecker::new(&cfg));
        assert_ne!(archived, &fresh[..], "the run moved the mirror");
        assert_eq!(back.snapshot().raw("machine/checker").unwrap(), archived);
        assert_eq!(back.shadow_state_key(), checked.shadow_state_key());
    }

    #[test]
    fn coherent_read_fill_and_hit() {
        let mut m = machine();
        let c1 = access(&mut m, 0, 0x10_0000, false, false, 0);
        assert!(c1 > m.cfg.lat.l1, "miss costs more than a hit");
        let c2 = access(&mut m, 0, 0x10_0000, false, false, 10);
        assert_eq!(c2, m.cfg.lat.tlb + m.cfg.lat.l1, "second access hits L1");
        assert_eq!(m.stats.coherent_fills, 1);
        m.check_invariants();
    }

    /// The census records a block when it is filled and never on a hit,
    /// which is exact only while nothing rewrites a resident line's NC
    /// bit. The oracle must catch a machine that does.
    #[test]
    fn checker_trips_on_a_resident_line_whose_nc_bit_flips() {
        let mut m = machine();
        m.attach_checker(Box::new(ShadowChecker::collecting(&m.cfg)));
        let take = |m: &mut Machine| {
            let sink = m.checker_mut().expect("attached above");
            let sc = sink.as_any_mut().downcast_mut::<ShadowChecker>();
            sc.expect("a ShadowChecker").take_violations()
        };
        access(&mut m, 0, 0x10_0000, false, false, 0);
        access(&mut m, 0, 0x10_0000, true, false, 10);
        assert!(take(&mut m).is_empty(), "fill, then hits: clean");

        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        let line = m.cores[0].l1.probe_mut(paddr.block());
        line.expect("resident").nc = true;
        access(&mut m, 0, 0x10_0000, false, false, 20);
        let codes: Vec<_> = take(&mut m).iter().map(|v| v.code).collect();
        assert_eq!(codes, ["l1-nc-mutated"]);
    }

    /// A collecting checker's violations survive a snapshot round trip
    /// under their own codes, not as `"restored"`.
    #[test]
    fn restored_checker_keeps_the_nc_mutation_code() {
        let mut m = machine();
        m.attach_checker(Box::new(ShadowChecker::collecting(&m.cfg)));
        access(&mut m, 0, 0x10_0000, false, false, 0);
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        let line = m.cores[0].l1.probe_mut(paddr.block());
        line.expect("resident").nc = true;
        access(&mut m, 0, 0x10_0000, false, false, 10);
        let mut back = Machine::restore(m.cfg, &m.snapshot()).expect("own archive");
        let sink = back.checker_mut().expect("the archived checker");
        let sc = sink.as_any_mut().downcast_mut::<ShadowChecker>();
        let violations = sc.expect("a ShadowChecker").take_violations();
        let codes: Vec<_> = violations.iter().map(|v| v.code).collect();
        assert_eq!(codes, ["l1-nc-mutated"]);
    }

    #[test]
    fn read_then_remote_write_invalidates() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, false, false, 0);
        let (paddr0, _) = m.translate(0, VAddr(0x10_0000));
        assert!(m.l1(0).probe(paddr0.block()).is_some(), "core 0 cached it");
        // Core 1 writes the same data: core 0 must lose its copy.
        access(&mut m, 1, 0x10_0000, true, false, 10);
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        assert!(m.l1(0).probe(paddr.block()).is_none(), "core 0 invalidated");
        assert!(m.stats.invalidations_sent >= 1);
        m.check_invariants();
    }

    #[test]
    fn dirty_remote_read_forwards_from_owner() {
        let mut m = machine();
        access(&mut m, 2, 0x10_0000, true, false, 0); // core 2 owns M
        access(&mut m, 3, 0x10_0000, false, false, 10); // core 3 reads
        assert_eq!(m.stats.owner_forwards, 1);
        let (paddr, _) = m.translate(3, VAddr(0x10_0000));
        // Both copies now Shared.
        assert_eq!(m.l1(2).probe(paddr.block()).unwrap().state, L1State::Shared);
        assert_eq!(m.l1(3).probe(paddr.block()).unwrap().state, L1State::Shared);
        m.check_invariants();
    }

    #[test]
    fn write_hit_shared_upgrades() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, false, false, 0);
        access(&mut m, 1, 0x10_0000, false, false, 5); // both shared
        let before = m.stats.invalidations_sent;
        access(&mut m, 0, 0x10_0000, true, false, 10); // core 0 upgrades
        assert!(m.stats.invalidations_sent > before);
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        assert_eq!(
            m.l1(0).probe(paddr.block()).unwrap().state,
            L1State::Modified
        );
        assert!(m.l1(1).probe(paddr.block()).is_none());
        m.check_invariants();
    }

    #[test]
    fn nc_fill_bypasses_directory() {
        let mut m = machine();
        let before = m.stats.dir_accesses;
        access(&mut m, 0, 0x10_0000, false, true, 0);
        assert_eq!(m.stats.dir_accesses, before, "NC path never touches dir");
        assert_eq!(m.stats.nc_fills, 1);
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        assert!(m.l1(0).probe(paddr.block()).unwrap().nc);
        let home = m.home_of(paddr.block());
        assert!(m.llc_bank(home).probe(paddr.block()).unwrap().nc);
        assert!(m.dir_bank(home).probe(paddr.block()).is_none());
        m.check_invariants();
    }

    #[test]
    fn nc_to_coherent_transition_allocates_entry() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, false, true, 0); // NC fill
        m.flush_nc(0, 5); // leave only the LLC copy
        access(&mut m, 1, 0x10_0000, false, false, 10); // coherent access
        let (paddr, _) = m.translate(1, VAddr(0x10_0000));
        let home = m.home_of(paddr.block());
        assert!(m.dir_bank(home).probe(paddr.block()).is_some());
        assert!(!m.llc_bank(home).probe(paddr.block()).unwrap().nc);
        m.check_invariants();
    }

    /// Until the first NC fill a directory miss counts its LLC miss
    /// without the tag scan (`note_miss` checks, in a debug build, that the
    /// block is absent); after it an LLC line may be NC with no entry, and
    /// the miss scans again. Cross that point and count both sides.
    #[test]
    fn llc_probe_elision_holds_on_both_sides_of_the_first_nc_fill() {
        let mut m = machine();
        let llc = |m: &Machine| {
            m.llc
                .iter()
                .map(LlcBank::stats)
                .fold((0, 0), |(h, n), (a, b)| (h + a, n + b))
        };
        let (shared, private, fresh) = (0x10_0000u64, 0x20_0000u64, 0x30_0000u64);
        let mut now = 0;
        let run = |m: &mut Machine, now: &mut u64, core, base: u64, nc| {
            for i in 0..8 {
                *now += 1 + access(m, core, base + i * 64, false, nc, *now);
            }
            m.check_invariants();
        };
        // Directory misses before any NC fill: elided LLC misses.
        run(&mut m, &mut now, 0, shared, false);
        assert_eq!((m.stats.nc_fills, llc(&m)), (0, (0, 8)));
        // Directory hits: the LLC line is looked up and hits.
        run(&mut m, &mut now, 1, shared, false);
        assert_eq!(llc(&m), (8, 8));
        // The first NC fills miss in the LLC and leave NC lines there.
        run(&mut m, &mut now, 2, private, true);
        assert_eq!((m.stats.nc_fills, llc(&m)), (8, (8, 16)));
        m.flush_nc(2, now);
        // Directory misses on NC lines: scanned, they hit and turn coherent.
        run(&mut m, &mut now, 3, private, false);
        assert_eq!(llc(&m), (16, 16));
        // Directory misses on absent blocks after the first NC fill.
        run(&mut m, &mut now, 3, fresh, false);
        assert_eq!(llc(&m), (16, 24));
        let stats = m.finalize(now);
        assert_eq!((stats.llc_hits, stats.llc_misses), (16, 24));
        assert_eq!(stats.coherent_fills, 32);
    }

    #[test]
    fn coherent_to_nc_transition_deallocates_entry() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, false, false, 0); // coherent
                                                       // Drop the private copy so the transition starts clean, as OpenMP's
                                                       // flush semantics guarantee (§III-E).
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        let home = m.home_of(paddr.block());
        access(&mut m, 1, 0x10_0000, false, true, 10); // NC access
        assert!(m.dir_bank(home).probe(paddr.block()).is_none());
        assert!(m.llc_bank(home).probe(paddr.block()).unwrap().nc);
        m.check_invariants();
    }

    #[test]
    fn flush_nc_writes_back_dirty_lines() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, true, true, 0); // dirty NC line
        let wb_before = m.stats.l1_writebacks;
        let cycles = m.flush_nc(0, 5);
        assert!(cycles >= m.l1(0).num_lines() as u64);
        assert_eq!(m.stats.nc_lines_flushed, 1);
        assert_eq!(m.stats.l1_writebacks, wb_before + 1);
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        assert!(m.l1(0).probe(paddr.block()).is_none());
        let home = m.home_of(paddr.block());
        assert!(m.llc_bank(home).probe(paddr.block()).unwrap().dirty);
        m.check_invariants();
    }

    #[test]
    fn directory_eviction_invalidates_llc_line() {
        // Tiny directory (1:64 of 64-entry LLC banks → 8 entries = 1 set).
        let mut cfg = small_cfg();
        cfg.dir_ratio = 64;
        let mut m = Machine::new(cfg);
        // Touch many blocks that home on bank 0 (block % 16 == 0, i.e.
        // vaddr stride 16*64 = 1 KiB), all coherent.
        for i in 0..32u64 {
            access(&mut m, 0, 0x10_0000 + i * 1024, false, false, i);
        }
        assert!(m.stats.dir_evictions > 0, "tiny directory must thrash");
        assert!(m.stats.llc_inclusion_invalidations > 0);
        m.check_invariants();
    }

    #[test]
    fn full_directory_no_inclusion_invalidation_at_1to1() {
        let mut m = machine(); // 1:1
        for i in 0..32u64 {
            access(&mut m, 0, 0x10_0000 + i * 1024, false, false, i);
        }
        assert_eq!(m.stats.llc_inclusion_invalidations, 0);
        m.check_invariants();
    }

    #[test]
    fn pt_page_flush_clears_core_blocks() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, true, true, 0); // dirty NC (private page)
        access(&mut m, 0, 0x10_0040, false, true, 1);
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        let cycles = m.flush_page(0, paddr.page(), VAddr(0x10_0000).page(), 2);
        assert!(cycles >= 200);
        assert_eq!(m.stats.pt_flush_lines, 2);
        assert!(m.l1(0).probe(paddr.block()).is_none());
        m.check_invariants();
    }

    #[test]
    fn adr_shrinks_idle_directory() {
        let mut cfg = small_cfg();
        cfg.adr = true;
        let mut m = Machine::new(cfg);
        // One coherent access per bank, then the controllers see ≤20 %.
        for i in 0..64u64 {
            access(&mut m, 0, 0x10_0000 + i * 64, false, false, i * 100);
        }
        assert!(m.stats.adr_reconfigs > 0, "ADR should shrink");
        m.check_invariants();
    }

    #[test]
    fn dir_avg_occupancy_matches_hand_computed_integral() {
        let mut m = machine();
        // The directory is empty until t = 100, when one coherent access
        // allocates exactly one entry; nothing changes until finalize at
        // t = 1000. Hand-computed integrals:
        //   ∫occupancy dt = 1 entry × (1000 − 100) = 900 entry·cycles
        //   ∫capacity  dt = total capacity × 1000 cycles
        access(&mut m, 0, 0x10_0000, false, false, 100);
        assert_eq!(m.dir_occupied_total(), 1);
        let cap = m.dir_capacity_total();
        let stats = m.finalize(1000);
        let expect = 900.0 / (cap as f64 * 1000.0);
        assert!(
            (stats.dir_avg_occupancy - expect).abs() / expect < 1e-6,
            "time-weighted occupancy {} != hand-computed {expect}",
            stats.dir_avg_occupancy
        );
        assert_eq!(stats.dir_capacity_integral, cap as u128 * 1000);
    }

    #[test]
    fn adr_resize_is_recorded_as_timed_event() {
        let mut cfg = small_cfg();
        cfg.adr = true;
        cfg.record_events = true;
        let mut m = Machine::new(cfg);
        for i in 0..64u64 {
            access(&mut m, 0, 0x10_0000 + i * 64, false, false, i * 100);
        }
        assert!(m.stats.adr_reconfigs > 0, "ADR should shrink");
        let resizes: Vec<_> = m
            .events()
            .iter()
            .filter(|te| matches!(te.ev, CoherenceEvent::AdrResize { .. }))
            .collect();
        assert_eq!(resizes.len() as u64, m.stats.adr_reconfigs);
        let mut last = 0;
        for te in m.events() {
            assert!(te.cycle >= last, "event stream is time-ordered");
            last = te.cycle;
        }
        // take_events drains.
        let drained = m.take_events();
        assert!(!drained.is_empty());
        assert!(m.events().is_empty());
    }

    #[test]
    fn finalize_aggregates() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, false, false, 0);
        access(&mut m, 0, 0x10_0000, false, false, 5);
        let stats = m.finalize(1000);
        assert_eq!(stats.cycles, 1000);
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.l1_misses, 1);
        assert!(stats.llc_misses >= 1);
        assert!(stats.noc_traffic > 0);
        assert!(stats.dir_avg_occupancy > 0.0);
    }

    #[test]
    fn contention_adds_queueing_delay() {
        let mut cfg = small_cfg();
        cfg.bank_contention = true;
        let mut m = Machine::new(cfg);
        // Two different cores miss on blocks homed at the same bank at the
        // same instant: the second must queue.
        let c1 = access(&mut m, 0, 0x10_0000, false, false, 0);
        let c2 = access(&mut m, 1, 0x10_0000 + 1024, false, false, 0);
        assert!(
            c2 > c1 || m.stats.bank_wait_cycles > 0,
            "second same-bank request should wait: {c1} vs {c2}"
        );
        assert!(m.stats.bank_wait_cycles > 0);
        // Without contention, no waits are recorded.
        let mut m2 = Machine::new(small_cfg());
        access(&mut m2, 0, 0x10_0000, false, false, 0);
        access(&mut m2, 1, 0x10_0000 + 1024, false, false, 0);
        assert_eq!(m2.stats.bank_wait_cycles, 0);
    }

    #[test]
    fn write_through_updates_llc_and_keeps_l1_clean() {
        let mut cfg = small_cfg();
        cfg.l1_write_through = true;
        let mut m = Machine::new(cfg);
        access(&mut m, 0, 0x10_0000, true, false, 0); // write miss
        access(&mut m, 0, 0x10_0000, true, false, 1); // write hit
        assert_eq!(m.stats.write_throughs, 2);
        let (paddr, _) = m.translate(0, VAddr(0x10_0000));
        let line = m.l1(0).probe(paddr.block()).unwrap();
        assert!(!line.dirty(), "WT caches never hold dirty lines");
        let home = m.home_of(paddr.block());
        assert!(m.llc_bank(home).probe(paddr.block()).unwrap().dirty);
        m.check_invariants();
    }

    #[test]
    fn write_through_flush_nc_writes_nothing_back() {
        let mut cfg = small_cfg();
        cfg.l1_write_through = true;
        let mut m = Machine::new(cfg);
        access(&mut m, 0, 0x10_0000, true, true, 0); // NC write
        let wb_before = m.stats.l1_writebacks;
        m.flush_nc(0, 1);
        assert_eq!(m.stats.l1_writebacks, wb_before, "nothing dirty to flush");
        assert_eq!(m.stats.nc_lines_flushed, 1);
        m.check_invariants();
    }

    #[test]
    fn write_back_mode_has_no_write_throughs() {
        let mut m = machine();
        access(&mut m, 0, 0x10_0000, true, false, 0);
        access(&mut m, 0, 0x10_0000, true, false, 1);
        assert_eq!(m.stats.write_throughs, 0);
    }

    #[test]
    fn l1_eviction_writes_back_modified() {
        // 256-byte L1: 4 lines, 2 ways, 2 sets. Same-set blocks: stride 128.
        let mut cfg = small_cfg();
        cfg.l1_bytes = 256;
        let mut m = Machine::new(cfg);
        access(&mut m, 0, 0x10_0000, true, false, 0);
        access(&mut m, 0, 0x10_0000 + 128, true, false, 1);
        let wb_before = m.stats.l1_writebacks;
        access(&mut m, 0, 0x10_0000 + 256, true, false, 2); // evicts a dirty line
        assert_eq!(m.stats.l1_writebacks, wb_before + 1);
        m.check_invariants();
    }

    /// Drive a fixed little workload; returns the machine for inspection.
    fn fault_workload(plan: Option<FaultPlan>) -> Machine {
        let mut m = machine();
        if let Some(p) = plan {
            m.attach_faults(FaultPlane::new(p));
        }
        let mut now = 0;
        for i in 0..64u64 {
            let core = (i % 4) as usize;
            let addr = 0x10_0000 + (i % 8) * 64;
            now += access(&mut m, core, addr, i % 3 == 0, false, now);
        }
        m
    }

    #[test]
    fn zero_rate_plan_is_behavior_neutral() {
        let clean = fault_workload(None);
        let idle = fault_workload(Some(FaultPlan::default()));
        // A plan with all rates zero must not perturb timing or traffic.
        assert_eq!(clean.stats, idle.stats);
        assert_eq!(idle.fault_stats().unwrap().injected, 0);
        assert!(!idle.fault_fatal());
    }

    #[test]
    fn drop_plan_recovers_within_budget() {
        let plan = FaultPlan {
            seed: 7,
            drop: 0.2,
            ..FaultPlan::default()
        };
        let m = fault_workload(Some(plan));
        let fs = m.fault_stats().unwrap();
        assert!(fs.drops > 0, "20% drop over 64 refs must inject");
        assert_eq!(fs.budget_exhausted, 0, "budget 8 survives 20% drop");
        assert!(!m.fault_fatal());
        assert!(m.stats.msg_retries > 0);
        assert!(m.stats.fault_delay_cycles > 0, "timeouts + backoff charged");
        assert!(m.noc().fault_traffic().dropped > 0);
        m.check_invariants();
    }

    #[test]
    fn corrupt_plan_nacks_and_recovers() {
        let plan = FaultPlan {
            seed: 11,
            corrupt: 0.15,
            ..FaultPlan::default()
        };
        let m = fault_workload(Some(plan));
        let fs = m.fault_stats().unwrap();
        assert!(fs.corrupts > 0);
        assert!(m.stats.msg_nacks > 0, "checksum rejection NACKs the sender");
        assert_eq!(m.stats.msg_nacks, m.noc().fault_traffic().nacks);
        assert!(!m.fault_fatal());
        m.check_invariants();
    }

    #[test]
    fn certain_drop_with_tiny_budget_is_detected_not_silent() {
        let plan = FaultPlan {
            seed: 3,
            drop: 1.0,
            retry_budget: 2,
            ..FaultPlan::default()
        };
        let m = fault_workload(Some(plan));
        assert!(
            m.fault_fatal(),
            "exhausted budget must latch the fatal flag"
        );
        assert!(m.stats.retry_budget_exhausted > 0);
        // Force-delivery keeps protocol state consistent even when flagged.
        m.check_invariants();
    }

    #[test]
    fn dir_loss_recovers_with_clean_invariants() {
        let plan = FaultPlan {
            seed: 13,
            dir_loss: 0.5,
            ..FaultPlan::default()
        };
        let mut m = machine();
        m.attach_faults(FaultPlane::new(plan));
        let mut now = 0;
        // Plenty of misses over distinct blocks so banks stay populated.
        for round in 0..4u64 {
            for i in 0..32u64 {
                let core = (i % 4) as usize;
                let addr = 0x10_0000 + i * 64;
                now += access(&mut m, core, addr, round % 2 == 0, false, now);
            }
        }
        assert!(m.stats.dir_entries_lost > 0, "50% over many fills must hit");
        // Lost entries are re-fetched on demand; inclusion must still hold.
        m.check_invariants();
    }

    #[test]
    fn faulty_runs_are_reproducible() {
        let plan = FaultPlan {
            seed: 21,
            drop: 0.1,
            dup: 0.1,
            corrupt: 0.05,
            delay: 0.1,
            dir_loss: 0.05,
            ..FaultPlan::default()
        };
        let a = fault_workload(Some(plan));
        let b = fault_workload(Some(plan));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.fault_stats(), b.fault_stats());
    }
}
