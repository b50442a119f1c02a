//! One argv parser for the four bench binaries. A binary lists the flags
//! it accepts; anything else on the command line is an error, never a
//! silent default. A flag that names a machine key of the job-spec
//! grammar (`--scale`, `--protocol`, `--smt`, `--adr`, …) is read by
//! [`JobSpec::set_machine`], so a command line and a campaign line name a
//! machine in one language and refuse a bad value with one text.

use raccd_campaign::JobSpec;
use raccd_core::CoherenceMode;
use raccd_fault::FaultPlan;
use raccd_workloads::Scale;
use std::path::PathBuf;

/// The value flags of every binary that simulates: scale and base
/// machine.
pub const SIM_FLAGS: [&str; 4] = ["--scale", "--protocol", "--topology", "--sched"];

/// A parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// The machine the command line names, without benchmark or mode:
    /// the scale's base machine at 1:1 (`--scale test|bench|paper`,
    /// default bench), with every machine flag set through
    /// [`JobSpec::set_machine`] (a switch sets `1`) and its machine
    /// [`raccd_sim::MachineConfig::check`]ed. A `numa2` topology doubles `ncores` (two
    /// sockets of the scale's mesh).
    pub spec: JobSpec,
    /// `--telemetry <dir>`.
    pub telemetry: Option<PathBuf>,
    /// Arguments that are neither a flag nor a flag's value, in order.
    pub positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Cli {
    /// Parse `argv` (without the program name). `value_flags` take the
    /// next argument as their value, `switches` take none; an unknown
    /// `--flag`, a value flag at the end of the line or followed by
    /// another flag, a machine flag given twice and a malformed machine
    /// value are errors.
    pub fn parse(argv: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Cli, String> {
        let mut values: Vec<(String, String)> = Vec::new();
        let mut seen = Vec::new();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if value_flags.contains(&a.as_str()) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => values.push((a.clone(), v.clone())),
                    _ => return Err(format!("{a}: missing value")),
                }
            } else if switches.contains(&a.as_str()) {
                seen.push(a.clone());
            } else if a.starts_with("--") {
                let mut valid: Vec<&str> = value_flags.iter().chain(switches).copied().collect();
                valid.sort_unstable();
                return Err(format!("unknown flag `{a}` (valid: {})", valid.join(" ")));
            } else {
                positional.push(a.clone());
            }
        }
        let mut spec = JobSpec::new("", Scale::Bench, CoherenceMode::Raccd);
        spec.ratio = 1;
        let given = values.iter().map(|(f, v)| (f, v.as_str()));
        let given = given.chain(seen.iter().map(|s| (s, "1")));
        let given = given.map(|(f, v)| (f, f.trim_start_matches('-'), v));
        let mut read = Vec::new();
        for (flag, key, value) in given {
            let flagged = |e| format!("{flag}: {e}");
            if spec.set_machine(key, value).map_err(flagged)? && read.contains(&key) {
                return Err(format!("`{flag}` given twice"));
            }
            read.push(key);
        }
        spec.machine_config().check()?;
        let mut cli = Cli {
            spec,
            telemetry: None,
            positional,
            values,
            switches: seen,
        };
        cli.telemetry = cli.value("--telemetry").map(PathBuf::from);
        Ok(cli)
    }

    /// [`Cli::parse`] over the process arguments for a binary that takes
    /// no positional arguments; prints the error and exits 2 on a bad
    /// command line or a bad `RACCD_FAULT_SPEC` ([`check_fault_env`]).
    pub fn from_env(value_flags: &[&str], switches: &[&str]) -> Cli {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let cli = Cli::parse(&argv, value_flags, switches).unwrap_or_else(|e| die(&e));
        if let Some(p) = cli.positional.first() {
            die(&format!("unexpected argument `{p}`"));
        }
        check_fault_env();
        cli
    }

    /// The value of the first `flag value` pair, if the flag was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let pair = self.values.iter().find(|(f, _)| f == flag);
        pair.map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable flag, in command-line order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.values
            .iter()
            .filter(move |(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a numeric flag.
    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: bad number `{v}`")))
            .transpose()
    }

    /// [`Cli::number`], exiting like [`Cli::from_env`] on a bad number.
    pub fn number_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.number(flag)
            .unwrap_or_else(|e| die(&e))
            .unwrap_or(default)
    }

    /// The indices into `names` of the comma-separated `--bench` list
    /// (case-insensitive), exiting like [`Cli::from_env`] on an unknown
    /// benchmark.
    pub fn benches(&self, names: &[String]) -> Option<Vec<usize>> {
        let index = |n: &str| {
            let found = names.iter().position(|b| b.eq_ignore_ascii_case(n));
            let valid = names.join("|");
            found.unwrap_or_else(|| die(&format!("--bench: unknown benchmark `{n}` ({valid})")))
        };
        Some(self.value("--bench")?.split(',').map(index).collect())
    }

    /// The systems of the comma-separated `flag` list (case-insensitive),
    /// exiting like [`Cli::from_env`] on an unknown one.
    pub fn modes(&self, flag: &str) -> Option<Vec<CoherenceMode>> {
        let mode = |m: &str| {
            CoherenceMode::parse(m).unwrap_or_else(|| {
                die(&format!(
                    "{flag}: unknown mode `{m}` (fullcoh|pt|tlb|raccd)"
                ))
            })
        };
        Some(self.value(flag)?.split(',').map(mode).collect())
    }

    /// Whether a switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

/// Report a bad command line on stderr and exit with status 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Exit through [`die`] when `RACCD_FAULT_SPEC` is set but does not
/// parse, before the first machine would panic on it.
pub fn check_fault_env() {
    if let Err(e) = FaultPlan::from_env() {
        die(&format!("RACCD_FAULT_SPEC: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_sim::{MachineConfig, ProtocolKind, SchedKind, Topology};

    const FLAGS: [&str; 6] = [
        "--scale",
        "--protocol",
        "--topology",
        "--sched",
        "--seeds",
        "--out",
    ];

    fn parse(argv: &[&str]) -> Result<Cli, String> {
        let argv: Vec<String> = argv.iter().map(|x| x.to_string()).collect();
        Cli::parse(&argv, &FLAGS, &["--chart"])
    }

    #[test]
    fn scale_parsing() {
        let accepted: [(&[&str], Scale); 5] = [
            (&["--scale", "test"], Scale::Test),
            (&["--scale", "bench"], Scale::Bench),
            (&["--scale", "paper"], Scale::Paper),
            (&[], Scale::Bench),
            // Positionals and switches mix freely with flags.
            (
                &["fig7", "--scale", "test", "accesses", "--chart"],
                Scale::Test,
            ),
        ];
        for (argv, want) in accepted {
            let cli = parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            assert_eq!(cli.spec.scale, want, "{argv:?}");
        }
        const VALID: &str = "--chart --out --protocol --scale --sched --seeds --topology";
        let unknown = |flag: &str| format!("unknown flag `{flag}` (valid: {VALID})");
        let rejected: [(&[&str], String); 11] = [
            (
                &["--scale", "tset"],
                "--scale: bad scale `tset` (test|bench|paper)".into(),
            ),
            // A machine flag is read once, not first-one-wins.
            (
                &["--scale", "test", "--scale", "bench"],
                "`--scale` given twice".into(),
            ),
            (
                &["--seeds", "2", "--scale"],
                "--scale: missing value".into(),
            ),
            // A flag is never taken as another flag's value.
            (&["--out", "--scale", "test"], "--out: missing value".into()),
            (
                &["fig8", "--scale", "test", "--protcol", "moesi"],
                unknown("--protcol"),
            ),
            // The second engine and the self-profiler are gone, and so are
            // their flags.
            (&["--engine", "parallel"], unknown("--engine")),
            (&["--scale", "test", "--threads", "2"], unknown("--threads")),
            (&["--profile"], unknown("--profile")),
            (
                &["--protocol", "mosi"],
                "--protocol: bad protocol `mosi` (mesi|mesif|moesi)".into(),
            ),
            (
                &["--topology", "ring"],
                "--topology: bad topology `ring` (mesh|numa2)".into(),
            ),
            (
                &["--sched", "lifo"],
                "--sched: bad sched `lifo` (fifo|steal|priority|locality|quantum)".into(),
            ),
        ];
        for (argv, want) in rejected {
            let got = parse(argv).map(|cli| cli.positional);
            assert_eq!(got, Err(want), "{argv:?}");
        }
        let cli = parse(&["--seeds", "two"]).unwrap();
        assert_eq!(
            cli.number::<u64>("--seeds"),
            Err("--seeds: bad number `two`".to_string())
        );
    }

    #[test]
    fn positionals_values_and_switches() {
        let cli = parse(&["fig7", "--out", "a", "accesses", "--out", "b"]).unwrap();
        assert_eq!(cli.positional, ["fig7", "accesses"]);
        assert_eq!(cli.value("--out"), Some("a"));
        assert_eq!(cli.values("--out").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(cli.value("--scale"), None);
        assert!(!cli.has("--chart"));
        assert!(parse(&["--chart"]).unwrap().has("--chart"));
    }

    #[test]
    fn machine_parsing() {
        let cfg = |argv: &[&str]| parse(argv).unwrap().spec.machine_config();
        let base = cfg(&[]);
        assert_eq!(
            (base.protocol, base.topology, base.sched),
            (ProtocolKind::Mesi, Topology::Mesh, SchedKind::Fifo)
        );
        assert_eq!(cfg(&["--protocol", "mesif"]).protocol, ProtocolKind::Mesif);
        assert_eq!(cfg(&["--sched", "QUANTUM"]).sched, SchedKind::Quantum);
        let c = cfg(&[
            "--protocol",
            "MOESI",
            "--topology",
            "numa2",
            "--sched",
            "steal",
        ]);
        assert_eq!(c.protocol, ProtocolKind::Moesi);
        assert_eq!(c.topology, Topology::Numa2);
        assert_eq!(c.sched, SchedKind::Steal);
        assert_eq!(c.ncores, 2 * c.mesh_k * c.mesh_k);
        // `paper` scale selects the Table I machine.
        let paper = cfg(&["--scale", "paper"]);
        assert_eq!(
            paper.llc_entries_per_bank,
            MachineConfig::paper().llc_entries_per_bank
        );
    }
}
