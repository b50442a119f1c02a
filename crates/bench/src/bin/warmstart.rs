//! Warm-start fault-seed sweep: pay each benchmark's warm-up phase once,
//! checkpoint, then fan the seed sweep out over host threads — every seed
//! forks from the shared post-warmup snapshot instead of re-simulating the
//! warm-up.
//!
//! ```text
//! cargo run --release -p raccd-bench --bin warmstart -- \
//!     [--scale test|bench] [--bench Jacobi,...] [--mode RaCCD] \
//!     [--warmup 20000] [--seeds 8] [--spec "drop=2e-4,..."] [--cold]
//! ```
//!
//! Each seed's run is *identical* to a cold run that simulates the warm-up
//! phase itself and reseeds the fault plane at the same cycle boundary —
//! `--cold` runs that serial baseline too, asserts every per-seed result
//! matches exactly (cycles, fault counters, detection), and reports the
//! wall-clock for both paths.

use raccd_bench::cli::{die, Cli, SIM_FLAGS};
use raccd_bench::{bench_names, tsv_row};
use raccd_campaign::{PoolTask, WorkerPool};
use raccd_core::{CoherenceMode, Driver, DriverOutput};
use raccd_fault::FaultPlan;
use raccd_obs::metrics::fmt_si;
use raccd_runtime::Program;
use raccd_workloads::all_benchmarks;

/// Sweep outcome for one (benchmark, seed) cell.
struct Cell {
    cycles: u64,
    tasks: usize,
    injected: u64,
    retries: u64,
    detected: String,
}

fn cell(out: &DriverOutput) -> Cell {
    let fault = out.fault.as_ref().expect("fault plane was attached");
    Cell {
        cycles: out.stats.cycles,
        tasks: out.tasks,
        injected: fault.stats.injected,
        retries: out.stats.msg_retries,
        detected: fault
            .detected
            .map(|d| format!("{d:?}"))
            .unwrap_or_else(|| "-".to_string()),
    }
}

/// Finish a warmed driver under `seed`: reseed the fault plane at the
/// warm-up boundary, then run to the end. Both the warm path (restored
/// driver) and the cold path (freshly simulated warm-up) go through this,
/// which is what makes them comparable run-for-run.
fn finish_seeded(mut driver: Driver, seed: u64) -> DriverOutput {
    driver.reseed_faults(seed);
    driver.finish(None)
}

fn main() {
    let own = ["--bench", "--mode", "--warmup", "--seeds", "--spec"];
    let flags = [&SIM_FLAGS[..], &own].concat();
    let cli = Cli::from_env(&flags, &["--cold"]);
    let scale = cli.scale;
    let names = bench_names(scale);

    let bench_sel = cli
        .benches(&names)
        .unwrap_or_else(|| (0..names.len()).collect());
    let mode = cli.modes("--mode").map_or(CoherenceMode::Raccd, |m| m[0]);
    let warmup: u64 = cli.number_or("--warmup", 20_000);
    let nseeds: u64 = cli.number_or("--seeds", 8);
    let cold = cli.has("--cold");
    let plan = match cli.value("--spec") {
        Some(spec) => FaultPlan::from_spec(spec).unwrap_or_else(|e| die(&format!("--spec: {e}"))),
        None => FaultPlan {
            drop: 2e-4,
            dup: 1e-4,
            delay: 5e-4,
            task_fail: 2e-4,
            ..FaultPlan::default()
        },
    };
    let cfg = cli.cfg;

    println!("benchmark\tseed\tcycles\ttasks\tinjected\tmsg_retries\tdetected");
    let mut warm_secs = 0.0f64;
    let mut cold_secs = 0.0f64;
    // Snapshot-codec throughput across the sweep: seconds spent in each
    // shared checkpoint's `snapshot()` and in one probe restore per bench,
    // over the payload bytes they moved.
    let (mut encode_secs, mut decode_secs, mut payload_bytes) = (0.0f64, 0.0f64, 0u64);
    // One pool for the whole sweep, as wide as the host.
    let width = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pool = WorkerPool::new(width, nseeds.max(1) as usize);
    for &b in &bench_sel {
        let make_program = || -> Program { all_benchmarks(scale)[b].build() };

        // Warm path: one warm-up simulation, one shared checkpoint, then a
        // thread-scope fan-out where every seed restores from it.
        let t0 = std::time::Instant::now();
        let mut warm = Driver::new(cfg, mode, make_program(), Some(plan), None);
        warm.run_until(warmup, None);
        let t_encode = std::time::Instant::now();
        let snap = warm.snapshot();
        encode_secs += t_encode.elapsed().as_secs_f64();
        payload_bytes += snap.payload_bytes();
        // The probe's program is built outside the stopwatch.
        let program = make_program();
        let t_decode = std::time::Instant::now();
        let probe = Driver::restore(cfg, mode, program, &snap);
        decode_secs += t_decode.elapsed().as_secs_f64();
        drop(probe.expect("restoring shared warm-up checkpoint"));
        // Fan the seed sweep out over the campaign worker pool: its width
        // bounds in-flight simulations to the host (each seed owns a full
        // Machine — oversubscribing interleaves their working sets through
        // one cache hierarchy), and a seed that fails surfaces with its
        // (benchmark, seed) label instead of poisoning the batch.
        let snap = std::sync::Arc::new(snap);
        let slots: std::sync::Arc<Vec<std::sync::Mutex<Option<Cell>>>> =
            std::sync::Arc::new((0..nseeds).map(|_| std::sync::Mutex::new(None)).collect());
        let tasks: Vec<PoolTask> = (0..nseeds)
            .map(|i| {
                let seed = i + 1;
                let snap = std::sync::Arc::clone(&snap);
                let slots = std::sync::Arc::clone(&slots);
                PoolTask {
                    label: format!("{} seed {}", names[b], seed),
                    run: Box::new(move |_| {
                        let driver =
                            Driver::restore(cfg, mode, all_benchmarks(scale)[b].build(), &snap)
                                .expect("restoring shared warm-up checkpoint");
                        *slots[i as usize].lock().unwrap() =
                            Some(cell(&finish_seeded(driver, seed)));
                    }),
                }
            })
            .collect();
        if let Some((label, msg)) = pool.run_batch(tasks).into_iter().next() {
            panic!("warm sweep job failed: {label}: {msg}");
        }
        let results: Vec<Cell> = slots
            .iter()
            .map(|s| s.lock().unwrap().take().unwrap())
            .collect();
        warm_secs += t0.elapsed().as_secs_f64();

        for (i, c) in results.iter().enumerate() {
            println!(
                "{}",
                tsv_row(&[
                    names[b].clone(),
                    format!("{}", i + 1),
                    format!("{}", c.cycles),
                    format!("{}", c.tasks),
                    format!("{}", c.injected),
                    format!("{}", c.retries),
                    c.detected.clone(),
                ])
            );
        }

        if cold {
            // Cold baseline: every seed re-simulates the warm-up itself.
            let t0 = std::time::Instant::now();
            for (i, warm_cell) in results.iter().enumerate() {
                let mut driver = Driver::new(cfg, mode, make_program(), Some(plan), None);
                driver.run_until(warmup, None);
                let c = cell(&finish_seeded(driver, i as u64 + 1));
                assert_eq!(c.cycles, warm_cell.cycles, "{} seed {}", names[b], i + 1);
                assert_eq!(
                    c.injected,
                    warm_cell.injected,
                    "{} seed {}",
                    names[b],
                    i + 1
                );
                assert_eq!(c.retries, warm_cell.retries, "{} seed {}", names[b], i + 1);
                assert_eq!(
                    c.detected,
                    warm_cell.detected,
                    "{} seed {}",
                    names[b],
                    i + 1
                );
            }
            cold_secs += t0.elapsed().as_secs_f64();
        }
    }
    eprintln!("warm-start sweep: {warm_secs:.2}s");
    eprintln!(
        "snapshot codec:   encode {}B/s decode {}B/s ({} checkpoints, {payload_bytes} payload bytes)",
        fmt_si(payload_bytes as f64 / encode_secs),
        fmt_si(payload_bytes as f64 / decode_secs),
        bench_sel.len(),
    );
    if cold {
        eprintln!(
            "cold baseline:    {cold_secs:.2}s (warm start {:.1}x faster, results identical)",
            cold_secs / warm_secs.max(1e-9)
        );
    }
}
