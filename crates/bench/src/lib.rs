#![warn(missing_docs)]

//! Shared harness for the figure/table regeneration binaries.
//!
//! The evaluation matrix (9 benchmarks × 3 systems × 7 directory sizes) is
//! embarrassingly parallel across *simulations*, so [`run_jobs`] fans jobs
//! out over the campaign worker pool ([`raccd_campaign::WorkerPool`] —
//! each worker builds its own workload instance; simulations never share
//! state). A job that panics (verification failure, simulator bug) is
//! captured by the pool with its job spec attached and re-raised here with
//! that context, instead of surfacing as an unrelated poisoned-mutex
//! panic in the collector.

pub mod chart;
pub mod perfjson;

use raccd_campaign::{PoolTask, WorkerPool};
use raccd_core::{CoherenceMode, Engine, Experiment, RunResult};
use raccd_obs::{Recorder, RecorderConfig, RunMetrics};
use raccd_sim::{MachineConfig, ProtocolKind, SchedKind, Topology};
use raccd_workloads::{all_benchmarks, Scale};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One simulation to run.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Index into [`all_benchmarks`].
    pub bench_idx: usize,
    /// System under test.
    pub mode: CoherenceMode,
    /// Directory ratio `1:N`.
    pub ratio: usize,
    /// Enable Adaptive Directory Reduction.
    pub adr: bool,
    /// Simulation engine (serial oracle or epoch-parallel).
    pub engine: Engine,
}

/// A completed simulation.
pub struct JobResult {
    /// The job that produced this result.
    pub job: Job,
    /// Benchmark name.
    pub name: String,
    /// Full run result.
    pub result: RunResult,
    /// Host wall-clock seconds this job took (simulation, plus artifact
    /// writing when telemetry capture is enabled).
    pub wall_seconds: f64,
}

/// Benchmark names at a scale, in paper order.
pub fn bench_names(scale: Scale) -> Vec<String> {
    all_benchmarks(scale)
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}

/// Run all jobs across host threads; results are returned in job order.
/// With `telemetry: Some(dir)` each job runs with a [`Recorder`] attached
/// and writes the standard artifact set (`trace.json`, `events.jsonl`,
/// `series.csv`, `histograms.txt`) into
/// `dir/<bench>_<mode>_1-<ratio>[_adr]/`.
pub fn run_jobs(
    scale: Scale,
    base_cfg: MachineConfig,
    jobs: &[Job],
    telemetry: Option<&Path>,
) -> Vec<JobResult> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let pool = WorkerPool::new(threads, jobs.len().max(1));
    // Per-slot locks instead of one collector mutex: a panicking job can
    // never poison a sibling's result, and the pool reports the panic with
    // the job spec attached below.
    let slots: Arc<Vec<Mutex<Option<JobResult>>>> =
        Arc::new((0..jobs.len()).map(|_| Mutex::new(None)).collect());
    let names = bench_names(scale);
    let telemetry: Option<PathBuf> = telemetry.map(Path::to_path_buf);

    let tasks: Vec<PoolTask> = jobs
        .iter()
        .enumerate()
        .map(|(i, &job)| {
            let slots = Arc::clone(&slots);
            let telemetry = telemetry.clone();
            let label = format!(
                "{} [{} 1:{}{} {}]",
                names[job.bench_idx],
                job.mode,
                job.ratio,
                if job.adr { " adr" } else { "" },
                job.engine,
            );
            PoolTask {
                label,
                run: Box::new(move |_| {
                    let out = run_one_job(scale, base_cfg, job, telemetry.as_deref());
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                }),
            }
        })
        .collect();
    let panics = pool.run_batch(tasks);
    if !panics.is_empty() {
        let lines: Vec<String> = panics
            .iter()
            .map(|(label, msg)| format!("  {label}: {msg}"))
            .collect();
        panic!(
            "{} of {} jobs failed:\n{}",
            panics.len(),
            jobs.len(),
            lines.join("\n")
        );
    }
    drop(pool);
    Arc::try_unwrap(slots)
        .unwrap_or_else(|_| panic!("pool drained but slot refs remain"))
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("job not run")
        })
        .collect()
}

/// Simulate one job (with optional telemetry capture) and verify it.
fn run_one_job(
    scale: Scale,
    base_cfg: MachineConfig,
    job: Job,
    telemetry: Option<&Path>,
) -> JobResult {
    let workloads = all_benchmarks(scale);
    let w = &workloads[job.bench_idx];
    let mut cfg = base_cfg.with_dir_ratio(job.ratio).with_adr(job.adr);
    let exp = Experiment::new(cfg, job.mode).with_engine(job.engine);
    let t0 = std::time::Instant::now();
    let result = match telemetry {
        None => exp.run(w.as_ref()),
        Some(dir) => {
            cfg.record_events = true;
            let mut rec = Recorder::new(RecorderConfig::default());
            let result = Experiment::new(cfg, job.mode)
                .with_engine(job.engine)
                .run_with_recorder(w.as_ref(), Some(&mut rec));
            let sub = dir.join(telemetry_run_name(w.name(), job));
            write_telemetry(&rec, &sub)
                .unwrap_or_else(|e| panic!("writing telemetry to {}: {e}", sub.display()));
            result
        }
    };
    assert!(
        result.verified,
        "{} [{} 1:{}] failed verification: {:?}",
        w.name(),
        job.mode,
        job.ratio,
        result.verify_error
    );
    JobResult {
        job,
        name: w.name().to_string(),
        result,
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// The shared preamble of every figure binary: build the benchmark ×
/// (mode, adr) × ratio job matrix in paper order, announce it on stderr as
/// `tag: running N simulations...`, fan out over host threads and report
/// the wall-clock. Results come back in job order (ratio fastest-varying,
/// benchmark slowest), so `results.chunks(modes.len() * ratios.len())`
/// groups per benchmark. Results are bit-identical across `engine`s — the
/// parallel engine (`--engine parallel --threads N` on `fig7`) only
/// changes how each simulation is advanced.
pub fn run_matrix(
    tag: &str,
    scale: Scale,
    base_cfg: MachineConfig,
    nbench: usize,
    modes: &[(CoherenceMode, bool)],
    ratios: &[usize],
    engine: Engine,
) -> Vec<JobResult> {
    let mut jobs = Vec::with_capacity(nbench * modes.len() * ratios.len());
    for b in 0..nbench {
        for &(mode, adr) in modes {
            for &ratio in ratios {
                jobs.push(Job {
                    bench_idx: b,
                    mode,
                    ratio,
                    adr,
                    engine,
                });
            }
        }
    }
    eprintln!(
        "{tag}: running {} simulations at scale {scale} ({engine} engine, {} protocol, {} topology)...",
        jobs.len(),
        base_cfg.protocol.label(),
        base_cfg.topology.label(),
    );
    // Machine-variant header into the figure's stdout so `results/*.txt`
    // records which protocol/topology produced the numbers; `#`-prefixed
    // so data consumers skip it like the perf summary line.
    println!(
        "# machine: protocol={} topology={} sched={} ncores={}",
        base_cfg.protocol.label(),
        base_cfg.topology.label(),
        base_cfg.sched.label(),
        base_cfg.ncores,
    );
    let t0 = std::time::Instant::now();
    let results = run_jobs(scale, base_cfg, &jobs, None);
    // Counters sum across jobs and the wall time is the batch's (jobs run
    // concurrently), so the rates report whole-matrix host throughput.
    let mut stats = raccd_sim::Stats::default();
    for r in &results {
        stats.cycles += r.result.stats.cycles;
        stats.refs_processed += r.result.stats.refs_processed;
        stats.noc_traffic += r.result.stats.noc_traffic;
        stats.tasks_executed += r.result.stats.tasks_executed;
    }
    let m = RunMetrics::from_stats(tag, &stats, t0.elapsed().as_secs_f64());
    eprintln!(
        "{tag}: done in {:.1}s ({} simulated cycles/s)",
        m.wall_seconds,
        raccd_prof::fmt_si(m.cycles_per_sec())
    );
    // One machine-readable perf line into the figure's stdout (and thus
    // `results/*.txt`); `#`-prefixed so data consumers skip it.
    println!("{}", m.summary_line());
    results
}

/// Deterministic FNV-1a checksum over a job batch's protocol-visible
/// counters, folded in job order. The engine never changes simulated
/// outcomes, so this value is identical for every `--engine`/`--threads`
/// combination — the thread-count regression test pins the serial value
/// as a golden and asserts every parallel sweep reproduces it.
pub fn sweep_checksum(results: &[JobResult]) -> u64 {
    let folded: Vec<u8> = results
        .iter()
        .flat_map(|r| r.result.stats.protocol_counters_le())
        .collect();
    raccd_snap::fnv1a64(&folded)
}

/// Artifact subdirectory name for one job's telemetry.
pub fn telemetry_run_name(bench: &str, job: Job) -> String {
    format!(
        "{}_{}_1-{}{}",
        bench,
        job.mode,
        job.ratio,
        if job.adr { "_adr" } else { "" }
    )
}

/// Parse `--telemetry <dir>` from argv.
pub fn telemetry_dir_from_args(args: &[String]) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// Write a finished recorder's full artifact set into `dir` (created if
/// missing): Perfetto-loadable `trace.json`, `events.jsonl`, `series.csv`,
/// and `histograms.txt`.
pub fn write_telemetry(rec: &Recorder, dir: &Path) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let file = |name: &str| -> std::io::Result<std::io::BufWriter<std::fs::File>> {
        Ok(std::io::BufWriter::new(std::fs::File::create(
            dir.join(name),
        )?))
    };
    let mut w = file("trace.json")?;
    raccd_obs::write_chrome_trace(rec, &mut w)?;
    w.flush()?;
    let mut w = file("events.jsonl")?;
    raccd_obs::write_events_jsonl(rec.names(), rec.events(), &mut w)?;
    w.flush()?;
    let mut w = file("series.csv")?;
    raccd_obs::write_series_csv(rec.samples(), &mut w)?;
    w.flush()?;
    let mut w = file("histograms.txt")?;
    raccd_obs::write_histograms(rec, &mut w)?;
    w.flush()
}

/// Parse `--engine serial|parallel` and `--threads N` from argv (default:
/// serial). `--threads` without `--engine` implies the parallel engine.
pub fn engine_from_args(args: &[String]) -> Engine {
    let pick = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let threads: usize = pick("--threads")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--threads: bad count `{v}`"))
        })
        .unwrap_or(4);
    match pick("--engine").map(String::as_str) {
        Some(name) => Engine::parse(name, threads)
            .unwrap_or_else(|| panic!("--engine: unknown engine `{name}` (serial|parallel)")),
        None if pick("--threads").is_some() => Engine::EpochParallel {
            threads: threads.max(1),
        },
        None => Engine::Serial,
    }
}

/// Parse `--scale test|bench|paper` from argv (default: bench).
pub fn scale_from_args(args: &[String]) -> Scale {
    let Some(i) = args.iter().position(|a| a == "--scale") else {
        return Scale::Bench;
    };
    match args.get(i + 1).map(String::as_str) {
        Some("test") => Scale::Test,
        Some("bench") => Scale::Bench,
        Some("paper") => Scale::Paper,
        Some(name) => panic!("--scale: unknown scale `{name}` (test|bench|paper)"),
        None => panic!("--scale: missing value (test|bench|paper)"),
    }
}

/// Machine preset matching a scale: `paper` scale → Table I machine,
/// otherwise the proportionally scaled machine.
pub fn config_for_scale(scale: Scale) -> MachineConfig {
    match scale {
        Scale::Paper => MachineConfig::paper(),
        _ => MachineConfig::scaled(),
    }
}

/// Parse `--protocol mesi|mesif|moesi` from argv (default: mesi).
pub fn protocol_from_args(args: &[String]) -> ProtocolKind {
    match args
        .iter()
        .position(|a| a == "--protocol")
        .and_then(|i| args.get(i + 1))
    {
        Some(name) => ProtocolKind::parse(name)
            .unwrap_or_else(|| panic!("--protocol: unknown protocol `{name}` (mesi|mesif|moesi)")),
        None => ProtocolKind::Mesi,
    }
}

/// Parse `--topology mesh|numa2` from argv (default: mesh).
pub fn topology_from_args(args: &[String]) -> Topology {
    match args
        .iter()
        .position(|a| a == "--topology")
        .and_then(|i| args.get(i + 1))
    {
        Some(name) => Topology::parse(name)
            .unwrap_or_else(|| panic!("--topology: unknown topology `{name}` (mesh|numa2)")),
        None => Topology::Mesh,
    }
}

/// Parse `--sched fifo|steal|priority|locality|quantum` from argv
/// (default: fifo, the paper's central ready queue).
pub fn sched_from_args(args: &[String]) -> SchedKind {
    match args
        .iter()
        .position(|a| a == "--sched")
        .and_then(|i| args.get(i + 1))
    {
        Some(name) => SchedKind::parse(name).unwrap_or_else(|| {
            panic!("--sched: unknown policy `{name}` (fifo|steal|priority|locality|quantum)")
        }),
        None => SchedKind::Fifo,
    }
}

/// [`config_for_scale`] plus the `--protocol`/`--topology`/`--sched` CLI
/// overrides — the standard machine preamble of every figure binary. A
/// `numa2` topology doubles `ncores` (two sockets of the scale's mesh).
pub fn config_from_args(scale: Scale, args: &[String]) -> MachineConfig {
    config_for_scale(scale)
        .with_protocol(protocol_from_args(args))
        .with_topology(topology_from_args(args))
        .with_sched(sched_from_args(args))
}

/// Format a TSV row.
pub fn tsv_row(cells: &[String]) -> String {
    cells.join("\t")
}

/// Geometric mean of positive values.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    /// One argv through both parsers, as every figure binary does; `Err`
    /// carries the panic message of a rejected command line.
    fn parse_scale_engine(argv: &[&str]) -> Result<(Scale, Engine), String> {
        let args: Vec<String> = argv.iter().map(|x| x.to_string()).collect();
        std::panic::catch_unwind(|| (scale_from_args(&args), engine_from_args(&args))).map_err(
            |e| match e.downcast::<String>() {
                Ok(formatted) => *formatted,
                Err(e) => e.downcast_ref::<&str>().copied().unwrap_or("").to_string(),
            },
        )
    }

    #[test]
    fn scale_parsing() {
        let par2 = Engine::EpochParallel { threads: 2 };
        let accepted: [(&[&str], (Scale, Engine)); 5] = [
            (&["--scale", "test"], (Scale::Test, Engine::Serial)),
            (&["--scale", "bench"], (Scale::Bench, Engine::Serial)),
            (&["--scale", "paper"], (Scale::Paper, Engine::Serial)),
            (&[], (Scale::Bench, Engine::Serial)),
            // `--threads` without `--engine` implies the parallel engine.
            (&["--scale", "test", "--threads", "2"], (Scale::Test, par2)),
        ];
        for (argv, want) in accepted {
            assert_eq!(parse_scale_engine(argv), Ok(want), "{argv:?}");
        }
        let rejected: [(&[&str], &str); 2] = [
            (
                &["--scale", "tset"],
                "--scale: unknown scale `tset` (test|bench|paper)",
            ),
            (
                &["--threads", "2", "--scale"],
                "--scale: missing value (test|bench|paper)",
            ),
        ];
        for (argv, want) in rejected {
            assert_eq!(parse_scale_engine(argv), Err(want.to_string()), "{argv:?}");
        }
    }

    #[test]
    fn engine_parsing() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(engine_from_args(&args(&[])), Engine::Serial);
        assert_eq!(
            engine_from_args(&args(&["--engine", "parallel", "--threads", "8"])),
            Engine::EpochParallel { threads: 8 }
        );
        assert_eq!(
            engine_from_args(&args(&["--threads", "2"])),
            Engine::EpochParallel { threads: 2 }
        );
        assert_eq!(
            engine_from_args(&args(&["--engine", "serial", "--threads", "2"])),
            Engine::Serial
        );
    }

    #[test]
    fn protocol_and_topology_parsing() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(protocol_from_args(&args(&[])), ProtocolKind::Mesi);
        assert_eq!(
            protocol_from_args(&args(&["--protocol", "mesif"])),
            ProtocolKind::Mesif
        );
        assert_eq!(
            protocol_from_args(&args(&["--protocol", "MOESI"])),
            ProtocolKind::Moesi
        );
        assert_eq!(topology_from_args(&args(&[])), Topology::Mesh);
        assert_eq!(
            topology_from_args(&args(&["--topology", "numa2"])),
            Topology::Numa2
        );
        let cfg = config_from_args(
            Scale::Test,
            &args(&["--protocol", "moesi", "--topology", "numa2"]),
        );
        assert_eq!(cfg.protocol, ProtocolKind::Moesi);
        assert_eq!(cfg.topology, Topology::Numa2);
        assert_eq!(cfg.ncores, 2 * cfg.mesh_k * cfg.mesh_k);
    }

    #[test]
    fn sched_parsing() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(sched_from_args(&args(&[])), SchedKind::Fifo);
        assert_eq!(
            sched_from_args(&args(&["--sched", "locality"])),
            SchedKind::Locality
        );
        assert_eq!(
            sched_from_args(&args(&["--sched", "QUANTUM"])),
            SchedKind::Quantum
        );
        let cfg = config_from_args(Scale::Test, &args(&["--sched", "steal"]));
        assert_eq!(cfg.sched, SchedKind::Steal);
    }

    #[test]
    fn run_jobs_returns_in_order() {
        let jobs = [
            Job {
                bench_idx: 7, // MD5 (cheap at Test scale)
                mode: CoherenceMode::FullCoh,
                ratio: 1,
                adr: false,
                engine: Engine::Serial,
            },
            Job {
                bench_idx: 7,
                mode: CoherenceMode::Raccd,
                ratio: 4,
                adr: false,
                engine: Engine::EpochParallel { threads: 2 },
            },
        ];
        let out = run_jobs(Scale::Test, MachineConfig::scaled(), &jobs, None);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].job.ratio, 1);
        assert_eq!(out[1].job.ratio, 4);
        assert_eq!(out[0].name, "MD5");
        assert!(out[1].result.stats.cycles > 0);
    }
}
