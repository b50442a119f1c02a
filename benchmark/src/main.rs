//! The repo benchmark: seeded workloads over the RaCCD simulator,
//! measured from outside through the crates' public functions.
//!
//! ```text
//! raccd-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out F]
//! raccd-benchmark compare A.json B.json
//! raccd-benchmark selfcheck [--seed S] [--seconds N]
//! raccd-benchmark golden
//! ```
//!
//! `run --workload W` measures W in this process and prints, as the last
//! line of standard output, the result object `BENCHMARK.json`'s driver
//! reads. Without `--workload` it starts one such process per workload
//! that `BENCHMARK.json` lists, one after the other, and writes everything
//! to one result file. See
//! `README.md` beside this package.

mod bench;
mod campaign;
mod compare;
mod golden;
mod measure;
mod names;
mod probe;
mod replay;
mod result;
mod sim;
mod summary;
mod trace;

use compare::Verdict;
use measure::RunArgs;
use result::{Doc, Provenance, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    // The simulator attaches a fault plane or the shadow checker when
    // these are set; a benchmark run measures neither.
    std::env::remove_var("RACCD_FAULT_SPEC");
    std::env::remove_var("RACCD_SHADOW_CHECK");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => Flags::parse(&argv[1..]).and_then(|f| run(&f, started)),
        Some("compare") => match &argv[1..] {
            [a, b] => compare_files(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".into()),
        },
        Some("selfcheck") => Flags::parse(&argv[1..]).and_then(|f| selfcheck(&f)),
        Some("golden") => pin_goldens(),
        _ => Err("usage: raccd-benchmark run|compare|selfcheck|golden (see README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            workload: None,
            seed: 1,
            seconds: names::DEFAULT_SECONDS,
            trace: false,
            out: None,
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if names::workload(w).is_none() {
                        let known: Vec<_> = names::WORKLOADS.iter().map(|w| w.name).collect();
                        return Err(format!("unknown workload {w:?}; have {known:?}"));
                    }
                    f.workload = Some(w.clone());
                }
                "--seed" => f.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    f.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--out" => f.out = Some(PathBuf::from(value()?)),
                // `--trace` alone means on; the driver passes 0 or 1.
                "--trace" => {
                    f.trace = match it.next_if(|v| !v.starts_with("--")).map(String::as_str) {
                        None | Some("1") => true,
                        Some("0") => false,
                        Some(other) => return Err(format!("--trace: {other:?} is not 0 or 1")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(f)
    }
}

fn run(flags: &Flags, started: Instant) -> Result<bool, String> {
    let Some(workload) = &flags.workload else {
        let doc = run_all(flags)?;
        let out = flags
            .out
            .clone()
            .unwrap_or_else(|| result::out_dir().join("result.json"));
        doc.save(&out)?;
        println!("wrote {}", out.display());
        return Ok(doc.workloads.iter().all(|w| w.failed == 0));
    };
    let args = RunArgs {
        workload: workload.clone(),
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
    };
    let result = measure::measure(&args, started);
    print_table(&result);
    if let Some(out) = &flags.out {
        Doc {
            provenance: Provenance::collect(),
            workloads: vec![result.clone()],
        }
        .save(out)?;
    }
    println!("{}", result.contract_line());
    Ok(result.failed == 0)
}

/// Every metric of the pass by name, with its unit.
fn print_table(w: &WorkloadResult) {
    println!(
        "{} seed {} ({} timed reps, golden {}): failed {} of {} operations (fail_share {})",
        w.name,
        w.seed,
        w.reps,
        w.golden,
        w.failed,
        w.attempted,
        w.fail_share()
    );
    for e in w.errors.iter().take(10) {
        println!("  error: {e}");
    }
    if !w.end_to_end.is_empty() {
        println!(
            "  host probe {:.3} ms (reference {:.3} ms): reported timings are floors x {:.4}",
            w.probe_ms,
            probe::REFERENCE_S * 1e3,
            probe::factor(w.probe_ms / 1e3)
        );
    }
    for (def, (name, s)) in names::END_TO_END.iter().zip(&w.end_to_end) {
        println!(
            "  {name:<34} {:>16.6} {:<7} n={} median {:.6} min {:.6} q1 {:.6} q3 {:.6} max {:.6}",
            s.value,
            def.unit,
            s.n(),
            s.median,
            s.min,
            s.q1,
            s.q3,
            s.max
        );
    }
    for (name, v) in &w.per_layer {
        let unit = names::per_layer(name).map_or("", |d| d.unit);
        println!("  {name:<34} {v:>16.6} {unit}");
    }
}

/// One child process per workload and pass, one at a time, so that peak
/// RSS is per workload and nothing competes for the two cpus.
fn run_all(flags: &Flags) -> Result<Doc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = result::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut workloads = Vec::new();
    for def in names::WORKLOADS.iter().filter(|w| w.listed) {
        let mut merged: Option<WorkloadResult> = None;
        for trace in [false, true] {
            if trace && !flags.trace {
                continue;
            }
            let part = dir.join(format!("part-{}-{}.json", std::process::id(), def.name));
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", def.name])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            // Exit 1 is a measured failure and still leaves a result.
            if !matches!(status.code(), Some(0 | 1)) {
                return Err(format!("{} (trace {trace}): {status}", def.name));
            }
            let child = Doc::load(&part)?.workloads.remove(0);
            std::fs::remove_file(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            merged = Some(match merged {
                None => child,
                Some(mut first) => {
                    first.attempted += child.attempted;
                    first.failed += child.failed;
                    first.errors.extend(child.errors);
                    first.per_layer = child.per_layer;
                    first
                }
            });
        }
        workloads.extend(merged);
    }
    Ok(Doc {
        provenance: Provenance::collect(),
        workloads,
    })
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = compare::load_bounds()?;
    let verdicts = compare::compare(&Doc::load(a)?, &Doc::load(b)?, &bounds);
    Ok(!verdicts.contains(&Verdict::Regressed))
}

/// Two full sets of the same build must agree: every row `unchanged`.
fn selfcheck(flags: &Flags) -> Result<bool, String> {
    let bounds = compare::load_bounds()?;
    let mut docs = Vec::new();
    for set in ["selfcheck-a.json", "selfcheck-b.json"] {
        let doc = run_all(flags)?;
        let path = result::out_dir().join(set);
        doc.save(&path)?;
        println!("wrote {}", path.display());
        docs.push(doc);
    }
    let verdicts = compare::compare(&docs[0], &docs[1], &bounds);
    let clean = docs
        .iter()
        .flat_map(|d| &d.workloads)
        .all(|w| w.failed == 0);
    let same = verdicts.iter().all(|v| *v == Verdict::Unchanged);
    println!(
        "selfcheck: {}",
        if clean && same {
            "passed: two sets of the same build agree on every row"
        } else {
            "FAILED"
        }
    );
    Ok(clean && same)
}

/// Recompute `golden.json` for the pinned seeds: one traced-pass-free run
/// of each workload, the shortest the rep floors allow.
fn pin_goldens() -> Result<bool, String> {
    let mut goldens = golden::Goldens::new();
    for seed in golden::PINNED_SEEDS {
        for def in &names::WORKLOADS {
            let args = RunArgs {
                workload: def.name.to_string(),
                seed,
                seconds: 0,
                trace: false,
            };
            let r = measure::measure(&args, Instant::now());
            // The golden itself is what changes; everything else must hold.
            let other_failures = r.failed - u64::from(r.golden == "mismatch");
            if other_failures > 0 {
                return Err(format!("{} seed {seed}: {:?}", def.name, r.errors));
            }
            println!("{} seed {seed}: {} digest(s)", def.name, r.digests.len());
            goldens
                .entry(seed)
                .or_default()
                .insert(def.name.to_string(), r.digests);
        }
    }
    golden::save(&goldens)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_obs::json::{self, Value};
    use result::{field, number, text};

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flags_take_the_drivers_form_and_the_short_one() {
        let f = Flags::parse(&args(&[
            "--workload",
            "histo-pt",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("histo-pt"));
        assert_eq!((f.seed, f.seconds, f.trace), (7, 3, false));
        let f = Flags::parse(&args(&["--trace", "--seed", "2"])).unwrap();
        assert!(f.trace && f.seed == 2 && f.workload.is_none());
        assert!(Flags::parse(&args(&["--trace", "1"])).unwrap().trace);
        assert!(Flags::parse(&args(&["--trace", "yes"])).is_err());
        assert!(Flags::parse(&args(&["--workload", "nope"])).is_err());
        assert!(Flags::parse(&args(&["--seed"])).is_err());
    }

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &names::WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for d in names::END_TO_END.iter().chain(&names::PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.unit);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
    }

    /// `(name, unit, better)` of every entry of a metric list.
    fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
        field(v, key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    text(m, "name").unwrap(),
                    text(m, "unit").unwrap(),
                    text(m, "better").unwrap(),
                )
            })
            .collect()
    }

    fn compiled(defs: &[names::MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
            .collect()
    }

    #[test]
    fn the_compiled_names_are_the_ones_benchmark_json_lists() {
        let text_in = std::fs::read_to_string(compare::benchmark_json()).unwrap();
        let v = json::parse(&text_in).unwrap();
        let workloads: Vec<String> = field(&v, "workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| text(w, "name").unwrap())
            .collect();
        let ours: Vec<&str> = names::WORKLOADS
            .iter()
            .filter(|w| w.listed)
            .map(|w| w.name)
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(listed(&v, "end_to_end"), compiled(&names::END_TO_END));
        assert_eq!(listed(&v, "per_layer"), compiled(&names::PER_LAYER));
        assert_eq!(
            number(&v, "run_seconds").unwrap() as u64,
            names::DEFAULT_SECONDS
        );
        for b in compare::load_bounds().unwrap() {
            assert!(b.bound > 0.0 && b.bound <= 0.25, "{}", b.name);
        }
    }
}
