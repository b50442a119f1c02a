//! The two passes over one workload: end to end with tracing off, and
//! the traced pass that gives the per-layer numbers.

use crate::bench::{Layers, Rep, TracedPass, TRACED_REP};
use crate::golden;
use crate::names::{self, MIN_REPS, SETUPS, TRACE_BASELINE_REPS};
use crate::probe::{self, Probe};
use crate::result::{self, WorkloadResult};
use crate::summary::{floor, median, Summary};
use crate::trace::Tracer;
use raccd_obs::peak_rss_bytes;
use std::path::Path;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Checked operations of all reps, plus the determinism gate: every rep
/// must simulate what rep 0 (the first warm-up) did.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, first: &Rep, rep: &Rep, what: &str) {
        self.attempted += rep.attempted + 1;
        self.failed += rep.failed;
        self.errors.extend(rep.errors.iter().cloned());
        if !first.same_simulation(rep) {
            self.failed += 1;
            self.errors
                .push(format!("{what}: simulated statistics differ from rep 0"));
        }
    }
}

/// The seconds of every rep's pieces, all of them or those of the
/// simulate phase only.
fn pieces(reps: &[Rep], sim_only: bool) -> Vec<Vec<f64>> {
    reps.iter()
        .map(|r| {
            r.parts
                .iter()
                .filter(|p| p.sim || !sim_only)
                .map(|p| p.secs)
                .collect()
        })
        .collect()
}

/// Measure one workload in this process. `started` is when the process
/// began. A set-up generates the workload's inputs from the seed and runs
/// one untimed warm-up rep; an end-to-end pass sets up [`SETUPS`] times
/// over (the first from `started`) and keeps the last one's workload. It
/// runs the host probe after every rep, between the timed stretches.
pub fn measure(args: &RunArgs, started: Instant) -> WorkloadResult {
    let def = names::workload(&args.workload).expect("workload name was checked");
    let tmp = result::out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| panic!("{}: {e}", tmp.display()));

    let mut off = Tracer::new(false);
    let mut probe = (!args.trace).then(Probe::new);
    let mut since = started;
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut warms: Vec<Rep> = Vec::new();
    let mut made = None;
    let times = if args.trace { 1 } else { SETUPS };
    for _ in 0..times {
        // One workload in memory at a time: peak RSS is that of one.
        drop(made.take());
        let mut bench = (def.make)(args.seed, &tmp);
        let mut parts = vec![since.elapsed().as_secs_f64()];
        let warm = bench.rep(&mut off);
        parts.extend(warm.parts.iter().map(|p| p.secs));
        setups.push(parts);
        warms.push(warm);
        made = Some(bench);
        if let Some(p) = &mut probe {
            p.after_rep();
        }
        since = Instant::now();
    }
    let mut bench = made.expect("at least one set-up");

    let (min_reps, budget) = if args.trace {
        (TRACE_BASELINE_REPS, 0.0)
    } else {
        (MIN_REPS, args.seconds as f64)
    };
    let timed = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || timed.elapsed().as_secs_f64() < budget {
        reps.push(bench.rep(&mut off));
        if let Some(p) = &mut probe {
            p.after_rep();
        }
    }

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let warm = &warms[0];
    for w in &warms {
        tally.add(warm, w, "warm-up");
    }
    for (i, rep) in reps.iter().enumerate() {
        tally.add(warm, rep, &format!("rep {}", i + 1));
    }

    let mut per_layer = Vec::new();
    if args.trace {
        let mut tr = Tracer::new(true);
        tr.set_rep(TRACED_REP);
        let traced = bench.rep(&mut tr);
        tally.add(warm, &traced, "traced rep");
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        let untraced_wall_s = median(&walls);
        let mut layers = Layers::default();
        layers.set(
            "bench.trace_overhead_pct",
            (traced.wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
        );
        let pass = TracedPass {
            rep: &traced,
            untraced_wall_s,
        };
        bench.layers(&mut tr, &pass, &mut layers);
        per_layer = names::PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), layers.get(d.name)))
            .collect();
        let path = result::out_dir().join(format!("{}.spans.jsonl", def.name));
        write_spans(&tr, &path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    drop(bench);
    // Best effort: a sibling process may still own its own tmp dir.
    let _ = std::fs::remove_dir_all(&tmp);

    tally.attempted += 1;
    let golden = match golden::lookup(args.seed, def.name) {
        None => "unpinned",
        Some(pinned) if pinned == warm.digests => "matched",
        Some(_) => {
            tally.failed += 1;
            tally
                .errors
                .push("Stats digests differ from golden.json".into());
            "mismatch"
        }
    };

    // Every rep simulates the same references and jobs; the timings are
    // floors over the reps' pieces, brought to the reference host state,
    // with the per-rep values as measured behind them.
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let (refs, jobs) = (warm.refs as f64, warm.jobs as f64);
    let probe_s = probe.as_ref().map_or(probe::REFERENCE_S, Probe::median_s);
    let host = probe::factor(probe_s);
    let wall_s = floor(&pieces(&reps, false)) * host;
    let sim_s = floor(&pieces(&reps, true)) * host;
    let end_to_end = if args.trace {
        Vec::new()
    } else {
        vec![
            (
                "wall_s".to_string(),
                Summary::of(wall_s, per_rep(&|r| r.wall_s)),
            ),
            (
                "refs_per_s".to_string(),
                Summary::of(refs / sim_s, per_rep(&|r| r.refs as f64 / r.sim_s)),
            ),
            (
                "jobs_per_s".to_string(),
                Summary::of(jobs / wall_s, per_rep(&|r| r.jobs as f64 / r.wall_s)),
            ),
            (
                "peak_rss_mb".to_string(),
                Summary::single(peak_rss_bytes() as f64 / 1e6),
            ),
            (
                "setup_s".to_string(),
                Summary::of(
                    floor(&setups) * host,
                    setups.iter().map(|s| s.iter().sum()).collect(),
                ),
            ),
        ]
    };
    let digests = warm.digests.clone();
    WorkloadResult {
        name: def.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        reps: reps.len() as u64,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        digests,
        golden: golden.to_string(),
        probe_ms: probe_s * 1e3,
        end_to_end,
        per_layer,
    }
}

fn write_spans(tr: &Tracer, path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    tr.write_jsonl(&mut w)?;
    w.flush()
}
