//! Per-scheduler engine differential.
//!
//! The engine bit-identity contract is scheduler-blind: for every
//! scheduling policy (`SchedKind::ALL`) the epoch-parallel engine must
//! reproduce the serial oracle exactly — same `Stats`, same
//! shadow-checker `state_key`, same telemetry stream. Scheduling (and
//! quantum preemption) happens on the serial commit path, so a policy can
//! reorder work but never break determinism. Any divergence dumps a
//! replayable counterexample recipe to `$RACCD_CHECK_DUMP_DIR` (or
//! `target/raccd-check-counterexamples/`).
//!
//! On top of the engine differential this suite proves the policies are
//! *interchangeable in outcome*: every policy drives each workload to the
//! same final memory image (same program, different interleaving), the
//! quantum policy's preemption audit log replays deterministically, and
//! the locality policy actually reduces migrations versus the central
//! FIFO queue.

use raccd_core::{CoherenceMode, Driver, DriverOutput, Engine, Recorder};
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, SchedKind};
use raccd_workloads::{histo::Histo, jacobi::Jacobi, Scale};
use std::path::PathBuf;

const THREADS: [usize; 2] = [2, 4];

/// Quantum small enough that the tiny workloads' tasks actually expire
/// mid-trace (tasks here run a few hundred cycles per batch window).
const TINY_QUANTUM: u64 = 200;

/// Tiny shadow-checked machine: 2×2 mesh, four single-thread contexts.
fn tiny(sched: SchedKind) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_shadow_check(true);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.sched_quantum = TINY_QUANTUM;
    cfg.with_sched(sched)
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
) -> EngineRun {
    let mut rec = Recorder::default();
    let mut driver = Driver::new(cfg, mode, w.build(), None, Some(&mut rec));
    driver.set_engine(engine);
    while driver.step(Some(&mut rec)) {}
    let key = driver.shadow_state_key();
    let out = driver.finish(Some(&mut rec));
    EngineRun { key, out, rec }
}

/// FNV-1a-64 over the run's final memory image, allocation by allocation.
fn mem_checksum(out: &DriverOutput) -> u64 {
    let image: Vec<u8> = out
        .mem
        .allocations()
        .iter()
        .flat_map(|(_, range)| out.mem.bytes(range.start, range.len as usize))
        .copied()
        .collect();
    raccd_snap::fnv1a64(&image)
}

fn dump_dir() -> PathBuf {
    match std::env::var_os("RACCD_CHECK_DUMP_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("raccd-check-counterexamples"),
    }
}

fn dump_counterexample(
    w: &dyn Workload,
    sched: SchedKind,
    mode: CoherenceMode,
    threads: usize,
    detail: &str,
) -> String {
    let dir = dump_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!(
        "sched-diff-{}-{}-{mode}-t{threads}-{}.txt",
        w.name(),
        sched.label(),
        std::process::id()
    ));
    let text = format!(
        "# parallel-vs-serial divergence (scheduler policy)\n\
         workload = {}\nsched = {sched}\nmode = {mode}\nthreads = {threads}\n\
         quantum = {TINY_QUANTUM}\n\
         # reproduce: cargo test -p raccd-check --test sched_differential\n\
         {detail}\n",
        w.name(),
    );
    let _ = std::fs::write(&path, text);
    format!("{} (counterexample: {})", detail, path.display())
}

fn sweep(sched: SchedKind) {
    let cfg = tiny(sched);
    let mut failures = String::new();
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let serial = run_engine(w.as_ref(), cfg, mode, Engine::Serial);
            assert!(serial.key.is_some(), "shadow checker attached");
            assert!(
                w.verify(&serial.out.mem).is_ok(),
                "{} under {sched}/{mode}: wrong functional output",
                w.name()
            );
            for threads in THREADS {
                let par = run_engine(w.as_ref(), cfg, mode, Engine::EpochParallel { threads });
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
                if par.out.audit != serial.out.audit {
                    detail.push_str(&format!(
                        "preemption audit log diverged:\n  serial: {:?}\n  par{threads}: {:?}\n",
                        serial.out.audit, par.out.audit
                    ));
                }
                if par.rec.events() != serial.rec.events() {
                    detail.push_str("telemetry event stream diverged\n");
                }
                if !detail.is_empty() {
                    failures.push_str(&format!(
                        "{} {sched} under {mode}: {}\n",
                        w.name(),
                        dump_counterexample(w.as_ref(), sched, mode, threads, &detail)
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures}");
}

#[test]
fn fifo_parallel_matches_serial() {
    sweep(SchedKind::Fifo);
}

#[test]
fn steal_parallel_matches_serial() {
    sweep(SchedKind::Steal);
}

#[test]
fn priority_parallel_matches_serial() {
    sweep(SchedKind::Priority);
}

#[test]
fn locality_parallel_matches_serial() {
    sweep(SchedKind::Locality);
}

#[test]
fn quantum_parallel_matches_serial() {
    sweep(SchedKind::Quantum);
}

/// Different policies execute different interleavings of the *same*
/// program, so every policy must converge to the same final memory image
/// (and a clean shadow oracle, asserted inside the runs).
#[test]
fn all_policies_reach_the_same_final_memory() {
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let mut sums = Vec::new();
            for sched in SchedKind::ALL {
                let run = run_engine(w.as_ref(), tiny(sched), mode, Engine::Serial);
                assert!(
                    w.verify(&run.out.mem).is_ok(),
                    "{} under {sched}/{mode}: wrong functional output",
                    w.name()
                );
                sums.push((sched, mem_checksum(&run.out)));
            }
            assert!(
                sums.iter().all(|(_, s)| *s == sums[0].1),
                "{} under {mode}: final memory diverged across policies: {sums:?}",
                w.name()
            );
        }
    }
}

/// The quantum policy must actually preempt on this configuration, and
/// its append-only audit log must replay identically run over run (and
/// under the epoch-parallel engine — checked in the sweep above).
#[test]
fn quantum_audit_log_replays_deterministically() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    let a = run_engine(
        &w,
        tiny(SchedKind::Quantum),
        CoherenceMode::Raccd,
        Engine::Serial,
    );
    let b = run_engine(
        &w,
        tiny(SchedKind::Quantum),
        CoherenceMode::Raccd,
        Engine::Serial,
    );
    assert!(
        !a.out.audit.is_empty(),
        "quantum {TINY_QUANTUM} never preempted — audit log is empty"
    );
    assert_eq!(a.out.audit, b.out.audit, "audit log must be reproducible");
    assert_eq!(a.out.stats.preemptions, a.out.audit.len() as u64);
    // Each record is internally consistent: the preempted position lies
    // inside the task's trace, and cycles are non-decreasing (append-only).
    for rec in &a.out.audit {
        assert!(rec.pos > 0 && rec.remaining > 0, "mid-trace preemption");
    }
    // Cycles are stamped with each context's local clock, so the global
    // log is ordered per context, not globally.
    for ctx in 0..4 {
        let cycles: Vec<u64> = a
            .out
            .audit
            .iter()
            .filter(|r| r.ctx == ctx)
            .map(|r| r.cycle)
            .collect();
        assert!(
            cycles.windows(2).all(|p| p[0] <= p[1]),
            "ctx {ctx}: audit entries out of order: {cycles:?}"
        );
    }
    // Non-quantum policies never preempt and keep an empty log.
    let fifo = run_engine(
        &w,
        tiny(SchedKind::Fifo),
        CoherenceMode::Raccd,
        Engine::Serial,
    );
    assert!(fifo.out.audit.is_empty());
    assert_eq!(fifo.out.stats.preemptions, 0);
}

/// The policies must actually *be* policies: stealing records steals,
/// locality migrates less than the central queue (and hands off fewer
/// NCRTs under RaCCD), and the quantum policy's preemptions shift cycles.
#[test]
fn policies_differentiate() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    let run = |sched| run_engine(&w, tiny(sched), CoherenceMode::Raccd, Engine::Serial);
    let fifo = run(SchedKind::Fifo);
    let steal = run(SchedKind::Steal);
    let loc = run(SchedKind::Locality);
    let quantum = run(SchedKind::Quantum);
    assert!(
        steal.out.stats.sched_steals > 0,
        "work stealing never stole on a 4-context machine"
    );
    assert_eq!(fifo.out.stats.sched_steals, 0, "central queue cannot steal");
    assert!(
        loc.out.stats.task_migrations < fifo.out.stats.task_migrations,
        "locality {} vs fifo {} migrations",
        loc.out.stats.task_migrations,
        fifo.out.stats.task_migrations
    );
    assert!(
        loc.out.stats.ncrt_migrations < fifo.out.stats.ncrt_migrations,
        "locality {} vs fifo {} NCRT hand-offs",
        loc.out.stats.ncrt_migrations,
        fifo.out.stats.ncrt_migrations
    );
    assert!(
        quantum.out.stats.preemptions > 0 && quantum.out.stats.cycles != fifo.out.stats.cycles,
        "quantum preemption must be visible in the timing"
    );
    // Every policy pops exactly what it pushed (counter symmetry — the
    // old StealQueues under-reporting is structurally impossible now).
    for r in [&fifo, &steal, &loc, &quantum] {
        assert_eq!(r.out.stats.sched_pushed, r.out.stats.sched_popped);
        assert_eq!(
            r.out.stats.sched_popped,
            r.out.stats.sched_local_pops + r.out.stats.sched_steals
        );
    }
}
