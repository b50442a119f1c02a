//! Machine configuration (the paper's Table I).
//!
//! Two presets:
//!
//! * [`MachineConfig::paper`] — Table I verbatim: 16 cores, 32 KiB 2-way
//!   L1D, 32 MiB LLC banked 2 MiB/core, 524288-entry directory banked
//!   32768/core, 4×4 mesh, 256-entry TLBs, 32-entry NCRTs.
//! * [`MachineConfig::scaled`] — the same machine with LLC and directory
//!   shrunk 16× (2 MiB LLC, 32768-entry 1:1 directory). The evaluation
//!   figures depend on the *ratio* of application working set to LLC /
//!   directory reach, so the scaled preset paired with the scaled problem
//!   sizes in `raccd-workloads` preserves every shape while keeping
//!   simulations laptop-fast (DESIGN.md §2).

use raccd_noc::Topology;
use raccd_protocol::ProtocolKind;
use raccd_sched::SchedKind;

/// The seven directory-size configurations of the evaluation: `1:N` means
/// the directory has `N×` fewer entries than the LLC (§V-A).
pub const DIR_RATIOS: [usize; 7] = [1, 2, 4, 8, 16, 64, 256];

/// Fixed latencies in cycles (Table I).
#[derive(Clone, Copy, Debug)]
pub struct Latencies {
    /// L1 data cache hit (Table I: 2 cycles).
    pub l1: u64,
    /// LLC bank access (Table I: 15 cycles).
    pub llc: u64,
    /// Directory bank access (Table I: 15 cycles).
    pub dir: u64,
    /// TLB lookup (Table I: 1 cycle).
    pub tlb: u64,
    /// Page-table walk on a TLB miss.
    pub page_walk: u64,
    /// Main memory access.
    pub mem: u64,
    /// NCRT lookup, added to private-cache misses under RaCCD
    /// (Table I: 1 cycle; §V-C studies 0..10).
    pub ncrt: u64,
    /// Mesh link traversal (Table I: 1 cycle).
    pub link: u64,
    /// Mesh router traversal (Table I: 1 cycle).
    pub router: u64,
    /// Inter-socket link traversal for the `numa2` topology: a message
    /// crossing sockets pays this instead of one mesh-link cycle on the
    /// gateway hop. Ignored by the single-socket mesh.
    pub xlink: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l1: 2,
            llc: 15,
            dir: 15,
            tlb: 1,
            page_walk: 30,
            mem: 120,
            ncrt: 1,
            link: 1,
            router: 1,
            xlink: 40,
        }
    }
}

/// Cycle costs of the runtime-system phases of Figure 3 and of the RaCCD
/// ISA instructions (§III-B, §IV-A).
#[derive(Clone, Copy, Debug)]
pub struct RuntimeCosts {
    /// Scheduling phase: request + dequeue of a ready task.
    pub schedule: u64,
    /// Wake-up phase fixed cost.
    pub wakeup_base: u64,
    /// Wake-up phase per-dependent cost (dependence bookkeeping).
    pub wakeup_per_dep: u64,
    /// `raccd_register` fixed issue cost per instruction.
    pub register_base: u64,
    /// `raccd_register` per-page cost of the iterative TLB translation
    /// (Figure 5: one TLB access per covered virtual page).
    pub register_per_page: u64,
    /// Per-task stack/scratch references emitted by task bodies (read+write
    /// pairs). Models the unannotated task-local data the paper's full
    /// system naturally has: private under PT, coherent under RaCCD.
    pub stack_words_per_task: u64,
}

impl Default for RuntimeCosts {
    fn default() -> Self {
        RuntimeCosts {
            schedule: 100,
            wakeup_base: 50,
            wakeup_per_dep: 10,
            register_base: 5,
            register_per_page: 3,
            stack_words_per_task: 64,
        }
    }
}

/// Full machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of cores / tiles / LLC banks / directory banks (Table I: 16).
    pub ncores: usize,
    /// Mesh dimension (Table I: 4×4). Under [`Topology::Numa2`] this is
    /// the per-socket dimension: the machine has `2·mesh_k²` tiles.
    pub mesh_k: usize,
    /// Coherence protocol variant driving the directory and the private
    /// caches (Table I baseline: MESI).
    pub protocol: ProtocolKind,
    /// Interconnect topology (Table I baseline: single-socket mesh).
    pub topology: Topology,
    /// L1 data cache bytes per core (Table I: 32 KiB).
    pub l1_bytes: u64,
    /// L1 associativity (Table I: 2).
    pub l1_ways: usize,
    /// LLC entries per bank (paper: 32768 ⇒ 2 MiB/bank; scaled: 2048).
    pub llc_entries_per_bank: usize,
    /// LLC associativity (Table I: 8).
    pub llc_ways: usize,
    /// Directory reduction factor `N` of the `1:N` configuration.
    pub dir_ratio: usize,
    /// Directory associativity (Table I: 8).
    pub dir_ways: usize,
    /// TLB entries per core (Table I: 256).
    pub tlb_entries: usize,
    /// NCRT entries per core (Table I: 32).
    pub ncrt_entries: usize,
    /// NoC flit width in bytes.
    pub flit_bytes: u64,
    /// Enable Adaptive Directory Reduction (§III-D).
    pub adr: bool,
    /// Write-through private caches (§III-C3 describes both variants; the
    /// default is write-back). Under write-through no L1 line is ever
    /// dirty, so evictions and `raccd_invalidate` never write data back —
    /// at the cost of one LLC update message per store.
    pub l1_write_through: bool,
    /// Hardware threads per core (SMT, §III-E). 1 disables SMT.
    pub smt_ways: usize,
    /// ADR grow threshold θ_inc (paper: 0.80).
    pub adr_theta_inc: f64,
    /// ADR shrink threshold θ_dec (paper: 0.20).
    pub adr_theta_dec: f64,
    /// With SMT > 1: use the per-thread NC-tid bits so `raccd_invalidate`
    /// flushes only the finishing thread's lines (§III-E). When false the
    /// whole NC contents are flushed, penalising the sibling thread.
    pub smt_selective_flush: bool,
    /// Record protocol-level [`crate::event::CoherenceEvent`]s (testing
    /// and trace tooling; off for performance).
    pub record_events: bool,
    /// Task-scheduling policy (§II-C; default: the paper's central FIFO
    /// queue). See `raccd-sched` for the registry.
    pub sched: SchedKind,
    /// Preemption quantum in cycles for [`SchedKind::Quantum`] (ignored
    /// by every other policy). The driver checks the quantum at mem-ref
    /// batch boundaries, so effective slices round up to batch ends.
    pub sched_quantum: u64,
    /// Allocate physical frames pseudo-randomly instead of contiguously.
    /// The paper observes Linux maps its datasets contiguously (§III-C2),
    /// so contiguous is the default; the permuted mode forces multi-entry
    /// NCRT registrations (Figure 5's collapsing logic) on every task.
    pub permuted_pages: bool,
    /// Model queueing contention at LLC and directory banks: a request
    /// arriving while its bank is busy waits for the in-flight service to
    /// drain. Off by default (the paper's normalised comparisons do not
    /// depend on it); enables the `ablations -- contention` study.
    pub bank_contention: bool,
    /// Attach a fail-fast shadow coherence checker ([`crate::check`]) to
    /// every machine built with this configuration. Also force-enabled
    /// process-wide by the `RACCD_SHADOW_CHECK` environment variable.
    pub shadow_check: bool,
    /// Attach a *collecting* shadow checker instead of the fail-fast one:
    /// violations accumulate into the final [`crate::CheckReport`] rather
    /// than panicking. Fault campaigns use this — an injected-but-detected
    /// corruption must be reported, not abort the harness. Takes
    /// precedence over `shadow_check` when both are set.
    pub shadow_collect: bool,
    /// Latencies.
    pub lat: Latencies,
    /// Runtime phase costs.
    pub runtime: RuntimeCosts,
}

impl MachineConfig {
    /// Table I verbatim.
    pub fn paper() -> Self {
        MachineConfig {
            ncores: 16,
            mesh_k: 4,
            protocol: ProtocolKind::Mesi,
            topology: Topology::Mesh,
            l1_bytes: 32 * 1024,
            l1_ways: 2,
            llc_entries_per_bank: 32768, // 2 MiB per bank
            llc_ways: 8,
            dir_ratio: 1,
            dir_ways: 8,
            tlb_entries: 256,
            ncrt_entries: 32,
            flit_bytes: 16,
            adr: false,
            l1_write_through: false,
            smt_ways: 1,
            adr_theta_inc: 0.80,
            adr_theta_dec: 0.20,
            smt_selective_flush: true,
            sched: SchedKind::Fifo,
            sched_quantum: 5_000,
            record_events: false,
            permuted_pages: false,
            bank_contention: false,
            shadow_check: false,
            shadow_collect: false,
            lat: Latencies::default(),
            runtime: RuntimeCosts::default(),
        }
    }

    /// The proportionally scaled machine (16× smaller LLC + directory).
    pub fn scaled() -> Self {
        MachineConfig {
            llc_entries_per_bank: 2048, // 128 KiB per bank, 2 MiB total
            ..Self::paper()
        }
    }

    /// Directory entries per bank under the configured `1:N` ratio, never
    /// below one full set.
    pub fn dir_entries_per_bank(&self) -> usize {
        (self.llc_entries_per_bank / self.dir_ratio).max(self.dir_ways)
    }

    /// Total directory entries across banks.
    pub fn dir_entries_total(&self) -> usize {
        self.dir_entries_per_bank() * self.ncores
    }

    /// Total LLC entries across banks.
    pub fn llc_entries_total(&self) -> usize {
        self.llc_entries_per_bank * self.ncores
    }

    /// Derive the `1:N` variant of this configuration.
    pub fn with_dir_ratio(mut self, ratio: usize) -> Self {
        self.dir_ratio = ratio;
        self
    }

    /// Enable/disable ADR.
    pub fn with_adr(mut self, adr: bool) -> Self {
        self.adr = adr;
        self
    }

    /// Select write-through private caches.
    pub fn with_write_through(mut self, wt: bool) -> Self {
        self.l1_write_through = wt;
        self
    }

    /// Select the coherence protocol variant.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Select the interconnect topology. `mesh_k` stays the *per-socket*
    /// dimension and `ncores` is re-derived as `sockets · mesh_k²`:
    /// `numa2` on the Table I machine means *two* 4×4-mesh sockets
    /// (32 cores), each socket a full copy of the single-socket tile
    /// grid, joined by the inter-socket link.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self.ncores = topology.sockets() * self.mesh_k * self.mesh_k;
        self
    }

    /// Select the task-scheduling policy.
    pub fn with_sched(mut self, sched: SchedKind) -> Self {
        self.sched = sched;
        self
    }

    /// Hardware contexts (cores × SMT ways).
    pub fn ncontexts(&self) -> usize {
        self.ncores * self.smt_ways
    }

    /// Hardware contexts whose stacks fit below the simulated heap: each
    /// gets 16 KiB from `0x1000` up, so 255 of them.
    pub const MAX_CONTEXTS: usize = ((raccd_mem::SimMemory::HEAP_BASE - 0x1000) / 0x4000) as usize;

    /// Per-context private stack region base (timing-only references): a
    /// 16 KiB stride per context. `Machine::new` refuses a machine with
    /// more than [`MachineConfig::MAX_CONTEXTS`] contexts, whose stacks
    /// would overlap the heap.
    pub fn stack_base(&self, ctx: usize) -> u64 {
        0x1000 + ctx as u64 * 0x4000
    }

    /// Select SMT ways per core.
    pub fn with_smt(mut self, ways: usize) -> Self {
        self.smt_ways = ways;
        self
    }

    /// Enable/disable bank-contention modelling.
    pub fn with_contention(mut self, on: bool) -> Self {
        self.bank_contention = on;
        self
    }

    /// Enable/disable the shadow coherence checker for machines built from
    /// this configuration.
    pub fn with_shadow_check(mut self, on: bool) -> Self {
        self.shadow_check = on;
        self
    }

    /// Enable/disable the collecting shadow checker (fault campaigns).
    pub fn with_shadow_collect(mut self, on: bool) -> Self {
        self.shadow_collect = on;
        self
    }

    /// Render the configuration as the rows of Table I.
    pub fn table1(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Cores             {} in-order access streams, 1.0GHz\n",
            self.ncores
        ));
        s.push_str(&format!(
            "L1D cache         {}KB, {}-way, 64B/line ({} cycles)\n",
            self.l1_bytes / 1024,
            self.l1_ways,
            self.lat.l1
        ));
        s.push_str(&format!(
            "DTLB              {} entries fully-associative ({} cycle)\n",
            self.tlb_entries, self.lat.tlb
        ));
        s.push_str(&format!(
            "L2 cache          shared {}MB, banked {}KB/core, 64B/line, {} cycles, {}-way, pseudoLRU\n",
            self.llc_entries_total() * 64 / (1024 * 1024),
            self.llc_entries_per_bank * 64 / 1024,
            self.lat.llc,
            self.llc_ways
        ));
        s.push_str(&format!(
            "Coherence         {}, silent shared evictions\n",
            self.protocol.label().to_uppercase()
        ));
        s.push_str(&format!(
            "Directory         total {} entries, banked {} entries/core, {} cycles, {}-way, pseudoLRU (1:{})\n",
            self.dir_entries_total(),
            self.dir_entries_per_bank(),
            self.lat.dir,
            self.dir_ways,
            self.dir_ratio
        ));
        match self.topology {
            Topology::Mesh => s.push_str(&format!(
                "NoC               {}x{} mesh, link {} cycle, router {} cycle\n",
                self.mesh_k, self.mesh_k, self.lat.link, self.lat.router
            )),
            Topology::Numa2 => s.push_str(&format!(
                "NoC               2 sockets x {}x{} mesh, link {} cycle, router {} cycle, x-link {} cycles\n",
                self.mesh_k, self.mesh_k, self.lat.link, self.lat.router, self.lat.xlink
            )),
        }
        s.push_str(&format!(
            "NCRT              {} entries/core, {} cycle access time\n",
            self.ncrt_entries, self.lat.ncrt
        ));
        s.push_str("NC bit            1 bit per cache block in the private L1 data caches\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SetAssoc` indexes power-of-two set counts with a mask. Nothing
    /// makes a geometry have one, so check every array of every shipped
    /// machine, and every size ADR can give a directory bank.
    #[test]
    fn every_shipped_geometry_has_power_of_two_set_counts() {
        use raccd_protocol::{Adr, AdrConfig, DirectoryBank};
        for (name, base) in [
            ("paper", MachineConfig::paper()),
            ("scaled", MachineConfig::scaled()),
        ] {
            for ratio in DIR_RATIOS {
                for topology in [Topology::Mesh, Topology::Numa2] {
                    let cfg = base.with_dir_ratio(ratio).with_topology(topology);
                    let what = format!("{name} 1:{ratio} {topology:?}");
                    let m = crate::Machine::new(cfg);
                    for tile in 0..cfg.ncores {
                        for (array, lines, ways) in [
                            ("L1", m.l1(tile).num_lines(), cfg.l1_ways),
                            ("LLC", m.llc_bank(tile).capacity(), cfg.llc_ways),
                            ("dir", m.dir_bank(tile).capacity(), cfg.dir_ways),
                        ] {
                            assert_eq!(lines % ways, 0, "{what}: {array} of tile {tile}");
                            let sets = lines / ways;
                            assert!(sets.is_power_of_two(), "{what}: {array} has {sets} sets");
                        }
                    }
                    // ADR halves an empty bank down to one set; growing back
                    // doubles through the same sizes.
                    let entries = cfg.dir_entries_per_bank();
                    let mut bank = DirectoryBank::new(entries, cfg.dir_ways, 0);
                    let mut adr = Adr::new(AdrConfig::paper_defaults(entries, cfg.dir_ways));
                    let mut steps = 0;
                    while let Some(ev) = adr.maybe_resize(&mut bank, 0) {
                        assert_eq!(ev.new_entries, bank.capacity());
                        let sets = bank.capacity() / cfg.dir_ways;
                        assert!(sets.is_power_of_two(), "{what}: ADR step to {sets} sets");
                        steps += 1;
                    }
                    assert_eq!(bank.capacity(), cfg.dir_ways, "{what}: ADR floor");
                    assert_eq!(1 << steps, entries / cfg.dir_ways, "{what}");
                }
            }
        }
    }

    #[test]
    fn paper_preset_matches_table1() {
        let c = MachineConfig::paper();
        assert_eq!(c.ncores, 16);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.llc_entries_total(), 524288);
        assert_eq!(c.dir_entries_total(), 524288, "1:1 directory");
        assert_eq!(c.lat.llc, 15);
        assert_eq!(c.lat.dir, 15);
        assert_eq!(c.ncrt_entries, 32);
        assert_eq!(c.tlb_entries, 256);
    }

    #[test]
    fn dir_ratios_divide_cleanly() {
        for &r in &DIR_RATIOS {
            let c = MachineConfig::paper().with_dir_ratio(r);
            assert_eq!(c.dir_entries_per_bank(), 32768 / r);
        }
        // Paper 1:256 → 128 entries/bank (§V-A: "reduced to just 128
        // entries per core").
        let c = MachineConfig::paper().with_dir_ratio(256);
        assert_eq!(c.dir_entries_per_bank(), 128);
    }

    #[test]
    fn scaled_preserves_llc_to_dir_ratio() {
        for &r in &DIR_RATIOS {
            let p = MachineConfig::paper().with_dir_ratio(r);
            let s = MachineConfig::scaled().with_dir_ratio(r);
            let pr = p.llc_entries_total() as f64 / p.dir_entries_total() as f64;
            let sr = s.llc_entries_total() as f64 / s.dir_entries_total() as f64;
            assert!((pr - sr).abs() < 1e-12, "ratio drift at 1:{r}");
        }
    }

    #[test]
    fn dir_never_smaller_than_one_set() {
        let mut c = MachineConfig::scaled();
        c.llc_entries_per_bank = 64;
        c.dir_ratio = 256;
        assert_eq!(c.dir_entries_per_bank(), c.dir_ways);
    }

    #[test]
    fn stacks_are_disjoint_and_below_heap() {
        let c = MachineConfig::paper();
        let heap = raccd_mem::SimMemory::HEAP_BASE;
        assert_eq!(MachineConfig::MAX_CONTEXTS, 255);
        for i in 0..MachineConfig::MAX_CONTEXTS {
            assert!(c.stack_base(i) + 0x4000 <= heap);
            for j in 0..i {
                assert!(c.stack_base(i) >= c.stack_base(j) + 0x4000);
            }
        }
        // One context more would reach into the heap.
        assert!(c.stack_base(MachineConfig::MAX_CONTEXTS) + 0x4000 > heap);
    }

    #[test]
    fn table1_renders_key_rows() {
        let t = MachineConfig::paper().table1();
        assert!(t.contains("524288"));
        assert!(t.contains("4x4 mesh"));
        assert!(t.contains("32 entries/core"));
        assert!(t.contains("MESI,"));
    }

    #[test]
    fn protocol_and_topology_default_to_table1() {
        let c = MachineConfig::paper();
        assert_eq!(c.protocol, ProtocolKind::Mesi);
        assert_eq!(c.topology, Topology::Mesh);
    }

    #[test]
    fn numa2_doubles_the_socket() {
        let c = MachineConfig::paper().with_topology(Topology::Numa2);
        assert_eq!(c.ncores, 32, "two 4x4 sockets");
        assert_eq!(c.mesh_k, 4, "mesh_k stays per-socket");
        let back = c.with_topology(Topology::Mesh);
        assert_eq!(back.ncores, 16);
        let t = c.table1();
        assert!(t.contains("2 sockets x 4x4 mesh"), "{t}");
        assert!(t.contains("x-link 40 cycles"), "{t}");
    }

    #[test]
    fn protocol_choice_renders_in_table1() {
        let t = MachineConfig::paper()
            .with_protocol(ProtocolKind::Moesi)
            .table1();
        assert!(t.contains("MOESI,"), "{t}");
    }
}
