//! Campaign job specifications: what to simulate, rendered canonically so
//! identical work is identical text — the dedup fingerprint is a hash of
//! the canonical form.
//!
//! One [`JobSpec`] names a *batch*: a (workload, machine, mode, fault
//! plan, warm-up) configuration plus an inclusive seed range. Each seed
//! is its own job, keyed by [`JobKey`] = (configuration fingerprint,
//! seed) with its own ledger records; the fingerprint deliberately
//! excludes the seed range so overlapping batches dedup seed-by-seed. A
//! seed acts only through the fault plane, reseeded at the warm-up
//! boundary: with no fault plane attached the seeds of a configuration
//! share the whole run, and with one they share its warm-up image.
//!
//! The line is also the one grammar of a machine: [`JobSpec::set`] reads
//! each key, and the `raccd-bench` command lines send their machine flags
//! through it.

use raccd_core::CoherenceMode;
use raccd_fault::FaultPlan;
use raccd_sim::config::{refused, Key, JOB_KEYS, KEYS};
use raccd_sim::{MachineConfig, ProtocolKind, SchedKind, Topology};
use raccd_snap::fnv1a64;
use raccd_workloads::Scale;
use std::fmt::Display;

/// The unit of dedup and ledger accounting: one seeded execution of one
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey {
    /// FNV-1a-64 over the spec's canonical configuration line.
    pub fingerprint: u64,
    /// Seed within the configuration's sweep.
    pub seed: u64,
}

impl JobKey {
    /// Stable display form, `<fingerprint-hex>/<seed>`.
    pub fn label(&self) -> String {
        format!("{:016x}/{}", self.fingerprint, self.seed)
    }
}

/// A batch of simulation jobs: configuration plus seed range.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Benchmark name (Table II spelling, matched case-insensitively).
    pub bench: String,
    /// Workload scale.
    pub scale: Scale,
    /// System under test.
    pub mode: CoherenceMode,
    /// Directory ratio `1:N`.
    pub ratio: usize,
    /// Adaptive Directory Reduction enabled.
    pub adr: bool,
    /// Coherence protocol variant the machine runs.
    pub protocol: ProtocolKind,
    /// NoC topology (single mesh or 2-socket NUMA).
    pub topology: Topology,
    /// Ready-queue scheduling policy.
    pub sched: SchedKind,
    /// Cycles of warm-up shared through the snapshot pool (0 = cold).
    pub warmup: u64,
    /// Fault plan, read from the `fault=` value by
    /// [`FaultPlan::from_spec`], or `None` for a fault-free run. The
    /// per-seed fault RNG is reseeded at the warm-up boundary, so every
    /// seed shares the warm-up prefix.
    pub fault: Option<FaultPlan>,
    /// First seed of the sweep (inclusive).
    pub seed_lo: u64,
    /// Last seed of the sweep (inclusive).
    pub seed_hi: u64,
    /// The value of each key of [`KNOBS`] as a line renders it, `None`
    /// where it is the scale's base machine's.
    knobs: [Option<String>; JOB_KEYS - TYPED],
}

/// How many leading keys of [`KEYS`] a spec holds as typed fields
/// (`ratio adr protocol topology sched`): a line renders them always,
/// and the [`KNOBS`] after them only off the base machine.
const TYPED: usize = 5;

/// The job keys past the typed five: the machine fields a study varies.
const KNOBS: &[Key] = KEYS.split_at(JOB_KEYS).0.split_at(TYPED).1;

/// Canonical mode label used in spec lines (round-trips through
/// [`CoherenceMode::parse`]).
pub fn mode_label(mode: CoherenceMode) -> &'static str {
    match mode {
        CoherenceMode::FullCoh => "fullcoh",
        CoherenceMode::PageTable => "pt",
        CoherenceMode::Raccd => "raccd",
        CoherenceMode::TlbClass => "tlbclass",
    }
}

/// Whether `s` is a value older builds wrote for the reserved `engine=`
/// field of the line format: `serial` or `parallel:<n>`.
fn engine_token_is_valid(s: &str) -> bool {
    s == "serial"
        || s.strip_prefix("parallel:")
            .is_some_and(|n| n.parse::<usize>().is_ok())
}

/// `p(v)`, or the error text of enumerated key `k` refusing `v`.
fn pick<T>(k: &str, v: &str, p: fn(&str) -> Option<T>, all: &[impl Display]) -> Result<T, String> {
    p(v).ok_or_else(|| refused(k, v, all))
}

impl JobSpec {
    /// A fault-free default for `bench` at `scale` (seed 1 only).
    pub fn new(bench: &str, scale: Scale, mode: CoherenceMode) -> JobSpec {
        JobSpec {
            bench: bench.to_string(),
            scale,
            mode,
            ratio: 8,
            adr: false,
            protocol: ProtocolKind::Mesi,
            topology: Topology::Mesh,
            sched: SchedKind::Fifo,
            warmup: 0,
            fault: None,
            seed_lo: 1,
            seed_hi: 1,
            knobs: Default::default(),
        }
    }

    /// The canonical *configuration* line — everything except the seed
    /// range, in fixed field order. Two specs describing the same work
    /// render identically, so [`JobSpec::fingerprint`] dedups them.
    /// `engine=serial` is a reserved field of the line format: a literal
    /// since there is one event loop, kept so the fingerprints in every
    /// existing ledger still match. A key past the typed five follows, in
    /// table order, only where it differs from the scale's base machine,
    /// so a line that sets none keeps the fingerprint it always had.
    pub fn canonical(&self) -> String {
        // The plan renders in its canonical form, so `drop=0.02` and
        // `drop=2e-2` fingerprint identically.
        let fault = self.fault.map_or_else(|| "-".to_string(), |p| p.to_spec());
        let mut line = format!(
            "bench={} scale={} mode={}",
            self.bench.to_ascii_lowercase(),
            self.scale,
            mode_label(self.mode),
        );
        let typed = self.typed();
        for key in &KEYS[..TYPED] {
            line.extend([" ", key.name, "="]);
            (key.write)(&typed, &mut line);
        }
        line.push_str(&format!(
            " engine=serial warmup={} fault={fault}",
            self.warmup
        ));
        let knobs = KNOBS.iter().zip(&self.knobs);
        line.extend(knobs.filter_map(|(k, v)| Some(format!(" {}={}", k.name, v.as_ref()?))));
        line
    }

    /// One-line render including the seed range (parseable back via
    /// [`JobSpec::parse`]).
    pub fn render(&self) -> String {
        let (lo, hi) = (self.seed_lo, self.seed_hi);
        format!("{} seeds={lo}..{hi}", self.canonical())
    }

    /// Parse a [`JobSpec::render`] line: whitespace-separated `key=value`
    /// items, each read by [`JobSpec::set`], then its machine
    /// [`MachineConfig::check`]ed. A key given twice is refused rather
    /// than one of its values dropped.
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let mut spec = JobSpec::new("", Scale::Test, CoherenceMode::Raccd);
        let mut given = Vec::new();
        for item in line.split_whitespace() {
            let (key, val) = item
                .split_once('=')
                .ok_or_else(|| format!("spec item `{item}` is not key=value"))?;
            if given.contains(&key) {
                return Err(format!("`{key}` given twice"));
            }
            given.push(key);
            spec.set(key, val)?;
        }
        if spec.bench.is_empty() {
            return Err("spec missing bench=".into());
        }
        spec.machine_config().check().map(|()| spec)
    }

    /// Set one key of the line grammar from its text: `bench`, `mode`,
    /// the machine keys ([`JobSpec::set_machine`]), `engine` (reserved:
    /// validated and ignored, so lines older builds wrote with
    /// `engine=parallel:<n>` still parse), `warmup`, `fault` and `seeds`.
    /// An unknown key is refused so typos fail loudly.
    pub fn set(&mut self, key: &str, v: &str) -> Result<(), String> {
        let bad = || format!("bad {key} `{v}`");
        match key {
            "bench" => self.bench = v.to_string(),
            "mode" => {
                let labels = CoherenceMode::EXTENDED.map(mode_label);
                self.mode = pick(key, v, CoherenceMode::parse, &labels)?;
            }
            "engine" => engine_token_is_valid(v).then_some(()).ok_or_else(bad)?,
            "warmup" => self.warmup = v.parse().map_err(|_| bad())?,
            "fault" if v == "-" => self.fault = None,
            "fault" => {
                self.fault = Some(FaultPlan::from_spec(v).map_err(|e| format!("fault: {e}"))?)
            }
            "seeds" => {
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| format!("bad seeds `{v}` (want LO..HI)"))?;
                self.seed_lo = lo.parse().map_err(|_| format!("bad seed `{lo}`"))?;
                self.seed_hi = hi.parse().map_err(|_| format!("bad seed `{hi}`"))?;
                if self.seed_lo > self.seed_hi {
                    return Err(format!("empty seed range `{v}`"));
                }
            }
            _ if self.set_machine(key, v)? => {}
            _ => return Err(format!("unknown spec key `{key}`")),
        }
        Ok(())
    }

    /// Set one machine key, returning whether `key` is one: `scale` or
    /// one of the [`JOB_KEYS`] of [`raccd_sim::config::KEYS`]. These are
    /// the keys a command-line flag `--<key>` sets. The key is set on a
    /// copy of the scale's base machine with the typed fields, whose
    /// typed fields and, for a key past the typed five, that key's value
    /// are read back.
    pub fn set_machine(&mut self, key: &str, v: &str) -> Result<bool, String> {
        if key == "scale" {
            self.scale = pick(key, v, Scale::parse, &Scale::ALL)?;
            return Ok(true);
        }
        let Some(i) = KEYS[..JOB_KEYS].iter().position(|k| k.name == key) else {
            return Ok(false);
        };
        let base = self.typed();
        let mut cfg = base;
        KEYS[i].set(&mut cfg, v)?;
        (self.ratio, self.adr, self.protocol) = (cfg.dir_ratio, cfg.adr, cfg.protocol);
        (self.topology, self.sched) = (cfg.topology, cfg.sched);
        if let Some(j) = i.checked_sub(TYPED) {
            let value = KNOBS[j].get(&cfg);
            self.knobs[j] = (value != KNOBS[j].get(&base)).then_some(value);
        }
        Ok(true)
    }

    /// Configuration fingerprint: FNV-1a-64 of [`JobSpec::canonical`].
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// The per-seed execution keys of this batch, in seed order.
    pub fn keys(&self) -> impl Iterator<Item = JobKey> + '_ {
        let fingerprint = self.fingerprint();
        (self.seed_lo..=self.seed_hi).map(move |seed| JobKey { fingerprint, seed })
    }

    /// Number of seeded executions this batch expands to.
    pub fn njobs(&self) -> u64 {
        self.seed_hi - self.seed_lo + 1
    }

    /// Index of the benchmark in [`raccd_workloads::all_benchmarks`].
    pub fn bench_idx(&self) -> Result<usize, String> {
        let names: Vec<String> = raccd_workloads::all_benchmarks(self.scale)
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(&self.bench))
            .ok_or_else(|| format!("unknown benchmark `{}`; have {names:?}", self.bench))
    }

    /// The scale's base machine: the Table I machine at `paper` scale,
    /// the proportionally scaled one otherwise.
    fn base(&self) -> MachineConfig {
        match self.scale {
            Scale::Paper => MachineConfig::paper(),
            _ => MachineConfig::scaled(),
        }
    }

    /// The scale's base machine with the typed fields set.
    fn typed(&self) -> MachineConfig {
        let mut cfg = self.base().with_topology(self.topology);
        (cfg.dir_ratio, cfg.adr) = (self.ratio, self.adr);
        (cfg.protocol, cfg.sched) = (self.protocol, self.sched);
        cfg
    }

    /// The machine configuration this spec describes.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = self.typed();
        for (key, v) in KNOBS.iter().zip(&self.knobs) {
            if let Some(v) = v {
                key.set(&mut cfg, v)
                    .expect("a stored value is one its key took");
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            bench: "Jacobi".into(),
            scale: Scale::Test,
            mode: CoherenceMode::Raccd,
            ratio: 8,
            adr: true,
            protocol: ProtocolKind::Mesi,
            topology: Topology::Mesh,
            sched: SchedKind::Fifo,
            warmup: 5_000,
            fault: Some(FaultPlan::from_spec("drop=0.02;dup=0.01").unwrap()),
            seed_lo: 1,
            seed_hi: 8,
            knobs: Default::default(),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let s = spec();
        let parsed = JobSpec::parse(&s.render()).expect("parses");
        assert_eq!(parsed.fingerprint(), s.fingerprint());
        assert_eq!(parsed.seed_lo, 1);
        assert_eq!(parsed.seed_hi, 8);
    }

    /// The fingerprint of the default Jacobi spec as the parent of the
    /// engine deletion computed it: ledgers written before still dedup.
    #[test]
    fn default_fingerprint_is_pinned_and_engine_tokens_are_ignored() {
        let s = JobSpec::new("Jacobi", Scale::Test, CoherenceMode::Raccd);
        assert_eq!(s.fingerprint(), 0x5c96_3c91_8ec1_3400);
        // Each typed machine key off its default, and the paper scale, as
        // the parent of the ten machine knobs fingerprinted them.
        for (items, pinned) in [
            ("ratio=256", 0xc5b8_6416_ac40_9609u64),
            ("adr=1", 0x6282_90e6_15eb_22c7),
            ("protocol=moesi", 0x0ea4_84f3_e2c6_ed4b),
            ("topology=numa2", 0xb32b_7614_2c18_0810),
            ("sched=steal", 0xd0c8_7bd5_c92d_3213),
            (
                "ratio=256 adr=1 protocol=moesi topology=numa2 sched=steal",
                0x8c75_64c3_bad8_43fe,
            ),
            ("scale=paper", 0x14fa_dfc3_99a9_0460),
        ] {
            let line = format!("bench=Jacobi mode=raccd {items}");
            let parsed = JobSpec::parse(&line).expect(items);
            assert_eq!(parsed.fingerprint(), pinned, "{items}");
        }
        assert!(s.canonical().contains(" engine=serial "));
        for token in ["serial", "parallel:2", "parallel:64"] {
            let line = s
                .render()
                .replace("engine=serial", &format!("engine={token}"));
            let parsed = JobSpec::parse(&line).expect(token);
            assert_eq!(parsed.render(), s.render(), "{token}");
        }
        for token in ["warp", "parallel", "parallel:", "parallel:x", ""] {
            let line = s
                .render()
                .replace("engine=serial", &format!("engine={token}"));
            assert_eq!(
                JobSpec::parse(&line),
                Err(format!("bad engine `{token}`")),
                "{token}"
            );
        }
    }

    #[test]
    fn fingerprint_ignores_seed_range_and_case() {
        let a = spec();
        let mut b = spec();
        b.seed_lo = 3;
        b.seed_hi = 100;
        b.bench = "jacobi".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = spec();
        c.ratio = 16;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_normalises_fault_spec() {
        let mut a = spec();
        let mut b = spec();
        a.set("fault", "drop=0.02").unwrap();
        b.set("fault", "drop=2e-2").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_protocol_and_topology() {
        let base = spec();
        let mut seen = std::collections::HashSet::new();
        for protocol in ProtocolKind::ALL {
            for topology in Topology::ALL {
                let mut s = base.clone();
                s.protocol = protocol;
                s.topology = topology;
                assert!(
                    seen.insert(s.fingerprint()),
                    "fingerprint collision at protocol={protocol} topology={topology}"
                );
                // And the variant round-trips through render/parse.
                let parsed = JobSpec::parse(&s.render()).expect("parses");
                assert_eq!(parsed.protocol, protocol);
                assert_eq!(parsed.topology, topology);
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn legacy_lines_without_protocol_keys_default_to_mesi_mesh() {
        let s = JobSpec::parse("bench=Jacobi scale=test mode=raccd seeds=1..2").expect("parses");
        assert_eq!(s.protocol, ProtocolKind::Mesi);
        assert_eq!(s.topology, Topology::Mesh);
        assert!(JobSpec::parse("bench=Jacobi protocol=tokencoh").is_err());
        assert!(JobSpec::parse("bench=Jacobi topology=torus").is_err());
    }

    #[test]
    fn fingerprint_distinguishes_sched_and_legacy_lines_default_to_fifo() {
        // Every policy fingerprints distinctly and round-trips.
        let base = spec();
        let mut seen = std::collections::HashSet::new();
        for sched in SchedKind::ALL {
            let mut s = base.clone();
            s.sched = sched;
            assert!(
                seen.insert(s.fingerprint()),
                "fingerprint collision at sched={sched}"
            );
            let parsed = JobSpec::parse(&s.render()).expect("parses");
            assert_eq!(parsed.sched, sched);
        }
        // Ledger lines written before the sched key existed replay and
        // dedup exactly as an explicit sched=fifo line does.
        let legacy = JobSpec::parse("bench=Jacobi scale=test mode=raccd seeds=1..2").unwrap();
        assert_eq!(legacy.sched, SchedKind::Fifo);
        let explicit =
            JobSpec::parse("bench=Jacobi scale=test mode=raccd sched=fifo seeds=1..2").unwrap();
        assert_eq!(legacy.fingerprint(), explicit.fingerprint());
        assert!(JobSpec::parse("bench=Jacobi sched=roundrobin").is_err());
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(JobSpec::parse("scale=test").is_err());
        assert!(JobSpec::parse("bench=Jacobi seeds=5..2").is_err());
        assert!(JobSpec::parse("bench=Jacobi bogus=1").is_err());
        assert!(JobSpec::parse("bench=Jacobi fault=drop=9").is_err());
        // A plan that does not parse never reaches a spec.
        assert_eq!(
            JobSpec::parse("bench=Jacobi fault=drop=banana"),
            Err("fault: fault spec `drop`: bad rate `banana`".to_string())
        );
        assert_eq!(
            JobSpec::parse("bench=Jacobi ratio=0"),
            Err("bad ratio `0`".to_string())
        );
        // A budget that does not fit is refused, not enqueued as budget 0.
        assert_eq!(
            JobSpec::parse("bench=Jacobi fault=retry_budget=4294967296"),
            Err("fault: fault spec `retry_budget`: 4294967296 out of range".to_string())
        );
    }

    #[test]
    fn a_knob_at_its_base_value_renders_nothing() {
        let plain = JobSpec::parse("bench=Jacobi scale=test").unwrap();
        for items in ["smt=1", "smt_flush=1 wt=0 ncrt=32 theta_inc=0.80 stack=64"] {
            let line = format!("bench=Jacobi scale=test {items}");
            let s = JobSpec::parse(&line).expect(items);
            assert_eq!(s.fingerprint(), plain.fingerprint(), "{items}");
            assert_eq!(s.canonical(), plain.canonical(), "{items}");
        }
    }

    /// `set` renders a knob against the base machine of the scale it
    /// sees so far; that is the final scale's because the presets agree
    /// on every knob field.
    #[test]
    fn every_base_machine_has_the_same_knob_values() {
        let (paper, scaled) = (MachineConfig::paper(), MachineConfig::scaled());
        for knob in KNOBS {
            assert_eq!(knob.get(&paper), knob.get(&scaled), "{}", knob.name);
        }
        let a = JobSpec::parse("bench=MD5 smt=1 scale=paper").unwrap();
        assert_eq!(a, JobSpec::parse("bench=MD5 scale=paper").unwrap());
    }

    #[test]
    fn knobs_render_in_table_order_and_reach_the_machine() {
        let line = "bench=Jacobi scale=paper stack=16 theta_dec=2e-1 theta_inc=0.9 ncrt_lat=10 \
                    ncrt=8 permuted=true contention=1 wt=1 smt_flush=0 smt=2 seeds=1..1";
        let s = JobSpec::parse(line).unwrap();
        let tail = "smt=2 smt_flush=0 wt=1 contention=1 permuted=1 ncrt=8 ncrt_lat=10 \
                    theta_inc=0.9 stack=16";
        assert!(
            s.canonical().ends_with(&format!("fault=- {tail}")),
            "{}",
            s.canonical()
        );
        let again = JobSpec::parse(&s.render()).unwrap();
        assert_eq!(again.render(), s.render());
        let cfg = s.machine_config();
        assert_eq!((cfg.smt_ways, cfg.smt_selective_flush), (2, false));
        assert!(cfg.l1_write_through && cfg.bank_contention && cfg.permuted_pages);
        assert_eq!((cfg.ncrt_entries, cfg.lat.ncrt), (8, 10));
        assert_eq!((cfg.adr_theta_inc, cfg.adr_theta_dec), (0.9, 0.2));
        assert_eq!(cfg.runtime.stack_words_per_task, 16);
        assert_eq!(
            cfg.llc_entries_per_bank,
            MachineConfig::paper().llc_entries_per_bank
        );
        for key in [
            "scale", "ratio", "adr", "protocol", "topology", "sched", "smt", "stack",
        ] {
            assert!(spec().set_machine(key, "").is_err(), "{key}");
        }
        // The geometry keys of a trace `cfg` line are no job keys.
        for key in [
            "bench", "mode", "warmup", "fault", "seeds", "engine", "mesh_k", "l1_bytes", "llc",
            "dir_ways",
        ] {
            assert_eq!(spec().set_machine(key, ""), Ok(false), "{key}");
        }
    }

    #[test]
    fn a_key_given_twice_is_refused() {
        for (line, key) in [
            ("bench=MD5 scale=test mode=raccd ratio=4 ratio=256", "ratio"),
            ("bench=MD5 bench=CG", "bench"),
            ("bench=MD5 smt=2 smt=2", "smt"),
            ("bench=MD5 seeds=1..2 seeds=3..4", "seeds"),
        ] {
            assert_eq!(JobSpec::parse(line), Err(format!("`{key}` given twice")));
        }
    }

    #[test]
    fn machine_values_that_cannot_run_are_refused() {
        let err = |items: &str| JobSpec::parse(&format!("bench=MD5 {items}")).unwrap_err();
        // 16 cores at 16 ways, or 32 at 8, leave no stack room below the
        // heap; 15 ways on one socket still fit.
        let full = "hardware contexts (cores x SMT ways); 255 stacks fit below the heap";
        assert_eq!(err("smt=16"), format!("256 {full}"));
        assert_eq!(err("smt=8 topology=numa2"), format!("256 {full}"));
        assert_eq!(err("topology=numa2 smt=300"), format!("9600 {full}"));
        assert!(JobSpec::parse("bench=MD5 smt=15").is_ok());
        // 2048 / 85 = 24 entries a bank is three 8-way sets, which runs;
        // ADR would halve it to 12.
        assert!(JobSpec::parse("bench=MD5 ratio=85").is_ok());
        assert!(JobSpec::parse("bench=MD5 smt=7 topology=numa2").is_ok());
        for (items, want) in [
            ("smt=0", "bad smt `0`"),
            ("wt=2", "bad wt `2`"),
            ("ncrt=0", "bad ncrt `0`"),
            ("ncrt=1025", "bad ncrt `1025`"),
            ("ncrt_lat=4294967296", "bad ncrt_lat `4294967296`"),
            ("theta_inc=NaN", "bad theta_inc `NaN`"),
            ("theta_dec=-0.1", "bad theta_dec `-0.1`"),
            ("stack=65537", "bad stack `65537`"),
            ("theta_inc=0.1", "theta_dec 0.2 is not below theta_inc 0.1"),
            (
                "theta_inc=0.5 theta_dec=0.5",
                "theta_dec 0.5 is not below theta_inc 0.5",
            ),
            (
                "ratio=3",
                "1:3 directory: directory geometry 682 entries / 8 ways is not a positive multiple",
            ),
            (
                "ratio=85 adr=1",
                "1:85 directory halved by ADR: directory geometry 12 entries / 8 ways is not a \
                 positive multiple",
            ),
            ("protocol=mosi", "bad protocol `mosi` (mesi|mesif|moesi)"),
            ("mode=coh", "bad mode `coh` (fullcoh|pt|tlbclass|raccd)"),
            ("scale=huge", "bad scale `huge` (test|bench|paper)"),
        ] {
            assert_eq!(err(items), want, "{items}");
        }
    }

    #[test]
    fn keys_expand_in_seed_order() {
        let s = spec();
        let keys: Vec<JobKey> = s.keys().collect();
        assert_eq!(keys.len(), 8);
        assert!(keys.windows(2).all(|w| w[0].seed + 1 == w[1].seed));
        assert!(keys.iter().all(|k| k.fingerprint == s.fingerprint()));
    }
}
