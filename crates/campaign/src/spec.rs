//! Campaign job specifications: what to simulate, rendered canonically so
//! identical work is identical text — the dedup fingerprint is a hash of
//! the canonical form.
//!
//! One [`JobSpec`] names a *batch*: a (workload, machine, mode, fault
//! plan, warm-up) configuration plus an inclusive seed range. Each
//! seed is an independent execution keyed by [`JobKey`] = (configuration
//! fingerprint, seed); the fingerprint deliberately excludes the seed
//! range so overlapping batches dedup seed-by-seed.

use raccd_core::CoherenceMode;
use raccd_fault::FaultPlan;
use raccd_sim::{MachineConfig, ProtocolKind, SchedKind, Topology};
use raccd_snap::fnv1a64;
use raccd_workloads::Scale;

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
    /// Fault plan spec (`raccd_fault::FaultPlan::from_spec` grammar), or
    /// `None` for a fault-free run. The per-seed fault RNG is reseeded at
    /// the warm-up boundary, so every seed shares the warm-up prefix.
    pub fault: Option<String>,
    /// First seed of the sweep (inclusive).
    pub seed_lo: u64,
    /// Last seed of the sweep (inclusive).
    pub seed_hi: u64,
}

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
        }
    }

    /// The canonical *configuration* line — everything except the seed
    /// range, in fixed field order. Two specs describing the same work
    /// render identically, so [`JobSpec::fingerprint`] dedups them.
    /// `engine=serial` is a reserved field of the line format: a literal
    /// since there is one event loop, kept so the fingerprints in every
    /// existing ledger still match.
    pub fn canonical(&self) -> String {
        let fault = match &self.fault {
            // Normalise through the plan grammar so `drop=0.02` and
            // `drop=2e-2` fingerprint identically.
            Some(s) => FaultPlan::from_spec(s)
                .map(|p| p.to_spec())
                .unwrap_or_else(|_| s.clone()),
            None => "-".to_string(),
        };
        format!(
            "bench={} scale={} mode={} ratio={} adr={} protocol={} topology={} sched={} engine=serial warmup={} fault={}",
            self.bench.to_ascii_lowercase(),
            self.scale,
            mode_label(self.mode),
            self.ratio,
            self.adr as u8,
            self.protocol.label(),
            self.topology.label(),
            self.sched.label(),
            self.warmup,
            fault,
        )
    }

    /// One-line render including the seed range (parseable back via
    /// [`JobSpec::parse`]).
    pub fn render(&self) -> String {
        format!(
            "{} seeds={}..{}",
            self.canonical(),
            self.seed_lo,
            self.seed_hi
        )
    }

    /// Parse a [`JobSpec::render`] line (whitespace-separated `key=value`
    /// items; unknown keys rejected so typos fail loudly).
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let mut spec = JobSpec::new("", Scale::Test, CoherenceMode::Raccd);
        let mut saw_bench = false;
        for item in line.split_whitespace() {
            let (key, val) = item
                .split_once('=')
                .ok_or_else(|| format!("spec item `{item}` is not key=value"))?;
            match key {
                "bench" => {
                    spec.bench = val.to_string();
                    saw_bench = true;
                }
                "scale" => {
                    spec.scale = Scale::parse(val).ok_or_else(|| format!("bad scale `{val}`"))?;
                }
                "mode" => {
                    spec.mode =
                        CoherenceMode::parse(val).ok_or_else(|| format!("bad mode `{val}`"))?;
                }
                "ratio" => {
                    // `1:0` would divide the directory by zero.
                    spec.ratio = val
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| format!("bad ratio `{val}`"))?;
                }
                "adr" => {
                    spec.adr = match val {
                        "0" | "false" => false,
                        "1" | "true" => true,
                        _ => return Err(format!("bad adr `{val}`")),
                    };
                }
                "protocol" => {
                    spec.protocol =
                        ProtocolKind::parse(val).ok_or_else(|| format!("bad protocol `{val}`"))?;
                }
                "topology" => {
                    spec.topology =
                        Topology::parse(val).ok_or_else(|| format!("bad topology `{val}`"))?;
                }
                "sched" => {
                    spec.sched =
                        SchedKind::parse(val).ok_or_else(|| format!("bad sched `{val}`"))?;
                }
                // Reserved: validated and ignored, so lines older builds
                // wrote with `engine=parallel:<n>` still parse.
                "engine" => {
                    if !engine_token_is_valid(val) {
                        return Err(format!("bad engine `{val}`"));
                    }
                }
                "warmup" => {
                    spec.warmup = val.parse().map_err(|_| format!("bad warmup `{val}`"))?;
                }
                "fault" => {
                    spec.fault = if val == "-" {
                        None
                    } else {
                        FaultPlan::from_spec(val).map_err(|e| format!("fault: {e}"))?;
                        Some(val.to_string())
                    };
                }
                "seeds" => {
                    let (lo, hi) = val
                        .split_once("..")
                        .ok_or_else(|| format!("bad seeds `{val}` (want LO..HI)"))?;
                    spec.seed_lo = lo.parse().map_err(|_| format!("bad seed `{lo}`"))?;
                    spec.seed_hi = hi.parse().map_err(|_| format!("bad seed `{hi}`"))?;
                    if spec.seed_lo > spec.seed_hi {
                        return Err(format!("empty seed range `{val}`"));
                    }
                }
                _ => return Err(format!("unknown spec key `{key}`")),
            }
        }
        if !saw_bench || spec.bench.is_empty() {
            return Err("spec missing bench=".into());
        }
        Ok(spec)
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

    /// The machine configuration this spec describes.
    pub fn machine_config(&self) -> MachineConfig {
        let base = match self.scale {
            Scale::Paper => MachineConfig::paper(),
            _ => MachineConfig::scaled(),
        };
        base.with_dir_ratio(self.ratio)
            .with_adr(self.adr)
            .with_protocol(self.protocol)
            .with_topology(self.topology)
            .with_sched(self.sched)
    }

    /// The parsed fault plan, if any (validated at parse time).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault
            .as_deref()
            .map(|s| FaultPlan::from_spec(s).expect("fault spec validated at construction"))
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
            fault: Some("drop=0.02;dup=0.01".into()),
            seed_lo: 1,
            seed_hi: 8,
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
        a.fault = Some("drop=0.02".into());
        b.fault = Some("drop=2e-2".into());
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
    fn keys_expand_in_seed_order() {
        let s = spec();
        let keys: Vec<JobKey> = s.keys().collect();
        assert_eq!(keys.len(), 8);
        assert!(keys.windows(2).all(|w| w[0].seed + 1 == w[1].seed));
        assert!(keys.iter().all(|k| k.fingerprint == s.fingerprint()));
    }
}
