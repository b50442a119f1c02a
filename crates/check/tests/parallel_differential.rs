//! Epoch-parallel vs serial differential testing.
//!
//! The parallel engine's contract is **bit-identity**: for any workload,
//! coherence mode, thread count and fault plan, the epoch-parallel engine
//! must produce exactly the serial engine's results — same `Stats`, same
//! shadow-checker `state_key` (the canonical fingerprint of all
//! protocol-visible state), and the same telemetry event stream in the
//! same order. This suite runs that cross product with the shadow oracle
//! attached on both sides; any divergence dumps a replayable
//! counterexample recipe to `$RACCD_CHECK_DUMP_DIR` (or
//! `target/raccd-check-counterexamples/`).

use raccd_core::{run, CoherenceMode, Driver, DriverOutput, Engine, Recorder, RunOptions};
use raccd_runtime::Workload;
use raccd_sim::{FaultPlan, MachineConfig};
use raccd_workloads::{cholesky::Cholesky, histo::Histo, jacobi::Jacobi, Scale};
use std::path::PathBuf;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// `(name, spec)` fault plans exercised on top of the fault-free runs.
/// Injections land on the serial remainder of every turn (speculated hits
/// never reach the NoC in either engine), so the RNG roll sequence — and
/// therefore every recovery path — must line up exactly.
const FAULT_SPECS: [(&str, &str); 2] = [
    ("noc", "seed=42;drop=0.01;dup=0.005;delay=0.02:32"),
    (
        "storm",
        "seed=7;storm=0.002:5000;taskfail=0.05;dirloss=0.001",
    ),
];

fn quad_core() -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_shadow_check(true);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg
}

fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Jacobi {
            n: 24,
            iters: 2,
            blocks: 4,
            ..Jacobi::new(Scale::Test)
        }),
        Box::new(Histo::new(Scale::Test)),
        Box::new(Cholesky {
            tiles: 3,
            t: 6,
            seed: 5,
        }),
    ]
}

struct EngineRun {
    key: Option<String>,
    out: DriverOutput,
    rec: Recorder,
}

fn run_engine(
    w: &dyn Workload,
    cfg: MachineConfig,
    mode: CoherenceMode,
    engine: Engine,
    plan: Option<FaultPlan>,
) -> EngineRun {
    let mut rec = Recorder::default();
    let mut driver = Driver::new(cfg, mode, w.build(), plan, Some(&mut rec));
    driver.set_engine(engine);
    while driver.step(Some(&mut rec)) {}
    let key = driver.shadow_state_key();
    let out = driver.finish(Some(&mut rec));
    EngineRun { key, out, rec }
}

fn dump_dir() -> PathBuf {
    match std::env::var_os("RACCD_CHECK_DUMP_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("raccd-check-counterexamples"),
    }
}

/// Write a replayable counterexample: the exact (workload, mode, threads,
/// fault spec) tuple — workload builders are deterministic, so the tuple
/// *is* the trace — plus where the two runs first diverged.
fn dump_counterexample(
    w: &dyn Workload,
    mode: CoherenceMode,
    threads: usize,
    fault: Option<&str>,
    detail: &str,
) -> String {
    let dir = dump_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!(
        "parallel-diff-{}-{mode}-t{threads}-{}.txt",
        w.name(),
        std::process::id()
    ));
    let text = format!(
        "# parallel-vs-serial divergence\n\
         workload = {}\nmode = {mode}\nthreads = {threads}\nfault = {}\n\
         # reproduce: cargo test -p raccd-check --test parallel_differential\n\
         # (the tuple above is the full input; workload builders are deterministic)\n\
         {detail}\n",
        w.name(),
        fault.unwrap_or("none"),
    );
    let _ = std::fs::write(&path, text);
    format!("{} (counterexample: {})", detail, path.display())
}

/// Compare a parallel run against the serial oracle; returns a divergence
/// description (already dumped) or None.
fn compare(
    w: &dyn Workload,
    mode: CoherenceMode,
    threads: usize,
    fault: Option<&str>,
    serial: &EngineRun,
    par: &EngineRun,
) -> Option<String> {
    let mut detail = String::new();
    if par.out.stats != serial.out.stats {
        detail.push_str(&format!(
            "Stats diverged:\n  serial: {:?}\n  par{threads}: {:?}\n",
            serial.out.stats, par.out.stats
        ));
    }
    if par.key != serial.key {
        detail.push_str(&format!(
            "shadow state_key diverged:\n  serial: {:?}\n  par{threads}: {:?}\n",
            serial.key, par.key
        ));
    }
    let (se, pe) = (serial.rec.events(), par.rec.events());
    if se != pe {
        let first = se
            .iter()
            .zip(pe.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(se.len().min(pe.len()));
        detail.push_str(&format!(
            "telemetry event stream diverged at index {first} \
             (serial has {} events, parallel {}):\n  serial: {:?}\n  par{threads}: {:?}\n",
            se.len(),
            pe.len(),
            se.get(first),
            pe.get(first),
        ));
    }
    if par.rec.hist_mem_latency != serial.rec.hist_mem_latency
        || par.rec.hist_bank_wait != serial.rec.hist_bank_wait
    {
        detail.push_str("latency histograms diverged\n");
    }
    if detail.is_empty() {
        return None;
    }
    Some(dump_counterexample(w, mode, threads, fault, &detail))
}

fn differential_sweep(fault: Option<&str>) {
    let cfg = quad_core();
    let mut failures = String::new();
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let plan = fault.map(|s| FaultPlan::from_spec(s).expect("fault spec parses"));
            let serial = run_engine(w.as_ref(), cfg, mode, Engine::Serial, plan);
            assert!(
                serial.key.is_some(),
                "shadow checker must be attached (state_key missing)"
            );
            for threads in THREADS {
                let plan = fault.map(|s| FaultPlan::from_spec(s).expect("fault spec parses"));
                let par = run_engine(
                    w.as_ref(),
                    cfg,
                    mode,
                    Engine::EpochParallel { threads },
                    plan,
                );
                if let Some(msg) = compare(w.as_ref(), mode, threads, fault, &serial, &par) {
                    failures.push_str(&format!("{} under {mode}: {msg}\n", w.name()));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures}");
}

/// Fault-free: every workload × mode × thread count matches serial
/// bit-for-bit (Stats, state_key, telemetry stream, histograms).
#[test]
fn parallel_matches_serial_fault_free() {
    differential_sweep(None);
}

/// NoC fault plan (drops, duplicates, delays): recovery paths roll the
/// same RNG sequence under both engines.
#[test]
fn parallel_matches_serial_under_noc_faults() {
    differential_sweep(Some(FAULT_SPECS[0].1));
}

/// NCRT storms, task failures and directory entry loss: retry and
/// degrade machinery must not perturb the epoch planner's determinism.
#[test]
fn parallel_matches_serial_under_storm_faults() {
    differential_sweep(Some(FAULT_SPECS[1].1));
}

/// The planner refuses PT/TLB-class modes (global classifier on every
/// reference); the parallel engine must still complete correctly there by
/// falling back to serial stepping.
#[test]
fn parallel_engine_serial_fallback_modes() {
    let cfg = quad_core();
    let w = Histo::new(Scale::Test);
    for mode in [CoherenceMode::PageTable, CoherenceMode::TlbClass] {
        let serial = run_engine(&w, cfg, mode, Engine::Serial, None);
        let par = run_engine(&w, cfg, mode, Engine::EpochParallel { threads: 4 }, None);
        assert_eq!(par.out.stats, serial.out.stats, "{mode} stats diverged");
        assert_eq!(par.key, serial.key, "{mode} state_key diverged");
    }
}

/// The differential sweep is only meaningful if epochs actually form and
/// speculated prefixes actually commit — guard against the engine silently
/// degenerating into serial stepping. The profiler's epoch sites count
/// barriers crossed and speculated references committed.
#[test]
fn parallel_engine_actually_speculates() {
    use raccd_prof::Site;
    let w = Histo::new(Scale::Test);
    let mut rec = Recorder::default();
    let opts = RunOptions {
        recorder: Some(&mut rec),
        profile: true,
        faults: None,
        engine: Engine::EpochParallel { threads: 4 },
    };
    let out = run(quad_core(), CoherenceMode::Raccd, w.build(), opts);
    let prof = out.prof.expect("profiler attached");
    let barrier = prof.get(Site::EpochBarrier);
    let merge = prof.get(Site::EpochMerge);
    assert!(barrier.count > 0, "no epoch ever formed");
    assert!(
        merge.units > 0,
        "epochs formed ({} barriers) but no speculated reference was ever committed",
        barrier.count
    );
}

/// Write-through private caches stop speculation at every store; the
/// prefix machinery must still be exact for the read runs between them.
#[test]
fn parallel_matches_serial_write_through() {
    let cfg = quad_core().with_write_through(true);
    let w = Jacobi {
        n: 16,
        iters: 1,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
        let serial = run_engine(&w, cfg, mode, Engine::Serial, None);
        let par = run_engine(&w, cfg, mode, Engine::EpochParallel { threads: 2 }, None);
        assert_eq!(par.out.stats, serial.out.stats, "{mode} stats diverged");
        assert_eq!(par.key, serial.key, "{mode} state_key diverged");
        assert_eq!(
            par.rec.events(),
            serial.rec.events(),
            "{mode} event stream diverged"
        );
    }
}
