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
use raccd_protocol::{DirectoryBank, ProtocolKind};
use raccd_sched::SchedKind;
use std::fmt::Display;

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

    /// Refuse a machine no run could use, with the reason: more hardware
    /// contexts than have stacks below the heap, an ADR shrink threshold
    /// not below its grow threshold, a core count that is not one core
    /// per tile, a power of two and within the directory's 64-bit sharer
    /// vector, an L1 or LLC bank that is not a whole number of sets, or a
    /// directory bank that [`DirectoryBank::geometry`] refuses at its
    /// size or, under ADR, at any size halving it reaches.
    pub fn check(&self) -> Result<(), String> {
        let (n, max) = (self.ncontexts(), Self::MAX_CONTEXTS);
        let (inc, dec) = (self.adr_theta_inc, self.adr_theta_dec);
        let (cores, k, sockets) = (self.ncores, self.mesh_k, self.topology.sockets());
        let whole = |lines: usize, ways| lines >= ways && lines.is_multiple_of(ways);
        let l1 = (self.l1_bytes / raccd_mem::BLOCK_SIZE) as usize;
        let llc = self.llc_entries_per_bank;
        if n > max {
            Err(format!(
                "{n} hardware contexts (cores x SMT ways); {max} stacks fit below the heap"
            ))
        } else if dec >= inc {
            Err(format!("theta_dec {dec} is not below theta_inc {inc}"))
        } else if cores != sockets * k * k || !cores.is_power_of_two() || cores > 64 {
            Err(format!(
                "{cores} cores on {sockets} socket(s) of {k}x{k} tiles; a machine has one per \
                 tile, a power of two up to 64"
            ))
        } else if !whole(l1, self.l1_ways) || !whole(llc, self.llc_ways) {
            Err(format!(
                "L1 of {l1} lines / {} ways or LLC bank of {llc} / {} is not whole sets",
                self.l1_ways, self.llc_ways
            ))
        } else {
            let (ways, mut entries, mut adr) = (self.dir_ways, self.dir_entries_per_bank(), "");
            loop {
                DirectoryBank::geometry(entries, ways)
                    .map_err(|e| format!("1:{} directory{adr}: {e}", self.dir_ratio))?;
                // `Adr::maybe_resize` halves while a half holds one set;
                // doubling back up passes the same sizes.
                if !self.adr || entries / 2 < ways {
                    return Ok(());
                }
                (entries, adr) = (entries / 2, " halved by ADR");
            }
        }
    }

    /// The [`KEYS`] on which `self` differs from `base`, as `key=value`
    /// items in table order: the text [`Key::set`] reads back onto `base`.
    pub fn render_keys(&self, base: &MachineConfig) -> Vec<String> {
        let item =
            |k: &Key| (k.get(self) != k.get(base)).then(|| format!("{}={}", k.name, k.get(self)));
        KEYS.iter().filter_map(item).collect()
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

/// One machine key of every text form (job lines, bench flags, trace
/// `cfg` lines): the [`MachineConfig`] field it names, read and written
/// as text.
pub struct Key {
    /// The key as a line spells it.
    pub name: &'static str,
    /// Append the field's value as a line writes it.
    pub write: fn(&MachineConfig, &mut String),
    /// Store a value; `None` when the key refuses it.
    put: fn(&mut MachineConfig, &str) -> Option<()>,
    /// The values an enumerated key takes; none for any other.
    labels: fn() -> Vec<&'static str>,
}

impl Key {
    /// The field's value as a line writes it.
    pub fn get(&self, cfg: &MachineConfig) -> String {
        let mut s = String::new();
        (self.write)(cfg, &mut s);
        s
    }

    /// Set the field from its text, keeping `ncores` at
    /// `sockets · mesh_k²` as [`MachineConfig::with_topology`] does. A
    /// value out of the key's bounds is refused with [`refused`]'s text.
    pub fn set(&self, cfg: &mut MachineConfig, v: &str) -> Result<(), String> {
        (self.put)(cfg, v).ok_or_else(|| refused(self.name, v, &(self.labels)()))?;
        cfg.ncores = cfg.topology.sockets() * cfg.mesh_k * cfg.mesh_k;
        Ok(())
    }
}

/// The error text of value `v` refused by key `key`, naming the `labels`
/// an enumerated key takes.
pub fn refused(key: &str, v: &str, labels: &[impl Display]) -> String {
    let labels: Vec<String> = labels.iter().map(ToString::to_string).collect();
    match labels[..] {
        [] => format!("bad {key} `{v}`"),
        _ => format!("bad {key} `{v}` ({})", labels.join("|")),
    }
}

/// One [`Key`] row: name and field path, then the field's type and the
/// values it takes for a number, `in` its type for an enumerated value,
/// nothing for a switch (`0`/`false` or `1`/`true`, written `0`/`1`).
macro_rules! key {
    ($name:literal, $($f:ident).+ : $ty:ty, $ok:expr) => {
        Key { name: $name, labels: Vec::new,
              write: |c, s| { let _ = std::fmt::Write::write_fmt(s, format_args!("{}", c.$($f).+)); },
              put: |c, v| Some(c.$($f).+ = v.parse::<$ty>().ok().filter($ok)?) }
    };
    ($name:literal, $f:ident in $ty:ident) => {
        Key { name: $name, labels: || $ty::ALL.map($ty::label).to_vec(),
              write: |c, s| s.push_str(c.$f.label()),
              put: |c, v| Some(c.$f = $ty::parse(v)?) }
    };
    ($name:literal, $f:ident) => {
        Key { name: $name, labels: Vec::new,
              write: |c, s| s.push(if c.$f { '1' } else { '0' }),
              put: |c, v| Some(c.$f = matches!(v, "0" | "1" | "false" | "true")
                  .then(|| v == "1" || v == "true")?) }
    };
}

/// Every machine key, in the order a line writes them: the
/// [`JOB_KEYS`] a job line and a bench flag set, then the geometry a
/// counterexample producer varies. The bounds keep an outside line from
/// building a machine that cannot run: a table the host cannot allocate,
/// a latency that overflows the clock, a trace that never ends;
/// [`MachineConfig::check`] refuses what only a combination makes so.
pub const KEYS: [Key; 19] = [
    // `1:0` would divide the directory by zero.
    key!("ratio", dir_ratio: usize, |&n| n > 0),
    key!("adr", adr),
    key!("protocol", protocol in ProtocolKind),
    key!("topology", topology in Topology),
    key!("sched", sched in SchedKind),
    key!("smt", smt_ways: usize, |&n| n > 0),
    key!("smt_flush", smt_selective_flush),
    key!("wt", l1_write_through),
    key!("contention", bank_contention),
    key!("permuted", permuted_pages),
    key!("ncrt", ncrt_entries: usize, |n| (1..=1024).contains(n)),
    key!("ncrt_lat", lat.ncrt: u64, |&n| n <= u64::from(u32::MAX)),
    key!("theta_inc", adr_theta_inc: f64, |x| (0.0..=1.0).contains(x)),
    key!("theta_dec", adr_theta_dec: f64, |x| (0.0..=1.0).contains(x)),
    key!("stack", runtime.stack_words_per_task: u64, |&n| n <= 1 << 16),
    key!("mesh_k", mesh_k: usize, |n| (1..=8).contains(n)),
    key!("l1_bytes", l1_bytes: u64, |n| (64..=1 << 20).contains(n)),
    key!("llc", llc_entries_per_bank: usize, |n| (1..=1 << 16).contains(n)),
    key!("dir_ways", dir_ways: usize, |&n| n.is_power_of_two() && n <= 64),
];

/// How many leading [`KEYS`] a job line reads.
pub const JOB_KEYS: usize = 15;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values off [`MachineConfig::scaled`]'s for each of [`KEYS`], in
    /// table order.
    const OFF_BASE: [&[&str]; 19] = [
        &["2", "3", "85", "256"],
        &["1", "true"],
        &["mesif", "moesi"],
        &["numa2"],
        &["steal", "priority", "locality", "quantum"],
        &["2", "4", "300"],
        &["0", "false"],
        &["1"],
        &["1"],
        &["1"],
        &["1", "8", "1024"],
        &["0", "10", "4294967295"],
        &["0.9", "1", "0.123456789"],
        &["0", "0.1", "1e-3"],
        &["0", "16", "65536"],
        &["1", "2", "8"],
        &["64", "512", "1048576"],
        &["1", "32", "65536"],
        &["1", "2", "16", "64"],
    ];

    proptest! {
        /// A machine with every keyed field moved off the scaled one
        /// renders every key, and setting the rendered items on the
        /// scaled machine gives it back: the same archive
        /// `cfg_fingerprint`, its `Debug` string.
        #[test]
        fn rendered_keys_set_back_the_same_machine(
            picks in proptest::collection::vec(0usize..12, 19..20),
        ) {
            let (base, mut cfg) = (MachineConfig::scaled(), MachineConfig::scaled());
            for ((key, values), pick) in KEYS.iter().zip(OFF_BASE).zip(&picks) {
                key.set(&mut cfg, values[pick % values.len()]).unwrap();
            }
            let items = cfg.render_keys(&base);
            prop_assert_eq!(items.len(), KEYS.len(), "{:?}", items);
            let mut back = base;
            for item in &items {
                let (k, v) = item.split_once('=').unwrap();
                KEYS.iter().find(|key| key.name == k).unwrap().set(&mut back, v).unwrap();
            }
            prop_assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        }
    }

    /// `check` refuses a directory ratio exactly when the directory bank
    /// or one of ADR's halvings could not exist, and every machine it
    /// admits builds and resizes its banks through ADR's whole range.
    #[test]
    fn check_refuses_exactly_the_directories_that_cannot_exist() {
        use raccd_protocol::{Adr, AdrConfig};
        let mut admitted = [0, 0];
        for adr in [false, true] {
            for ratio in 1..=512 {
                let cfg = MachineConfig {
                    adr,
                    ..MachineConfig::scaled().with_dir_ratio(ratio)
                };
                let (entries, ways) = (cfg.dir_entries_per_bank(), cfg.dir_ways);
                let what = format!("1:{ratio} adr={adr}");
                if cfg.check().is_err() {
                    // The bank, or a size ADR halves it to, cannot exist.
                    let mut sizes = std::iter::successors(Some(entries), |&n| {
                        (adr && n / 2 >= ways).then_some(n / 2)
                    });
                    let bad = sizes.find(|&n| DirectoryBank::geometry(n, ways).is_err());
                    assert!(bad.is_some(), "{what} refused");
                    continue;
                }
                admitted[usize::from(adr)] += 1;
                crate::Machine::new(cfg);
                // ADR halves an empty bank to one set; growing doubles back.
                let mut bank = DirectoryBank::new(entries, ways, 4);
                let mut ctl = Adr::new(AdrConfig::paper_defaults(entries, ways));
                while adr && ctl.maybe_resize(&mut bank, 0).is_some() {}
                assert!(!adr || bank.capacity() / 2 < ways, "{what}");
                while bank.capacity() < entries {
                    bank.resize(bank.capacity() * 2, 0);
                }
                assert_eq!(bank.capacity(), entries, "{what}");
            }
        }
        // Of 512 ratios, 311 leave whole sets and 301 halve to one set.
        assert_eq!(admitted, [311, 301]);
    }

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
        let t = MachineConfig {
            protocol: ProtocolKind::Moesi,
            ..MachineConfig::paper()
        }
        .table1();
        assert!(t.contains("MOESI,"), "{t}");
    }
}
