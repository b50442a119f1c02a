//! Per-scheduler sweep under the shadow checker.
//!
//! For every scheduling policy (`SchedKind::ALL`) each workload under
//! RaCCD and under full coherence runs to the end with the fail-fast
//! shadow checker attached and the recorder on, and must finish with a
//! clean report and a verified result: a policy can reorder work, never
//! break coherence.
//!
//! On top of that this suite proves the policies are *interchangeable in
//! outcome*: every policy drives each workload to the same final memory
//! image (same program, different interleaving), the quantum policy's
//! preemption audit log replays deterministically, and the locality
//! policy actually reduces migrations versus the central FIFO queue.

use raccd_core::{CoherenceMode, Driver, DriverOutput, Recorder};
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, SchedKind};
use raccd_workloads::{histo::Histo, jacobi::Jacobi, Scale};

/// Quantum small enough that the tiny workloads' tasks actually expire
/// mid-trace (tasks here run a few hundred cycles per batch window).
const TINY_QUANTUM: u64 = 200;

/// Tiny shadow-checked machine: 2×2 mesh, four single-thread contexts.
fn tiny(sched: SchedKind) -> MachineConfig {
    MachineConfig {
        shadow_check: true,
        ncores: 4,
        mesh_k: 2,
        sched_quantum: TINY_QUANTUM,
        sched,
        ..MachineConfig::scaled()
    }
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

struct CheckedRun {
    key: Option<String>,
    out: DriverOutput,
}

/// Run `w` to the end with the recorder on; the shadow `state_key` is
/// read before `finish` tears the machine down.
fn run_checked(w: &dyn Workload, cfg: MachineConfig, mode: CoherenceMode) -> CheckedRun {
    let mut rec = Recorder::default();
    let mut driver = Driver::new(cfg, mode, w.build(), None, Some(&mut rec));
    while driver.step(Some(&mut rec)) {}
    let key = driver.shadow_state_key();
    let out = driver.finish(Some(&mut rec));
    assert!(!rec.events().is_empty(), "recorder was on");
    CheckedRun { key, out }
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

fn sweep(sched: SchedKind) {
    let cfg = tiny(sched);
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let what = format!("{} under {sched}/{mode}", w.name());
            let run = run_checked(w.as_ref(), cfg, mode);
            assert!(run.key.is_some(), "{what}: shadow checker attached");
            let report = run.out.check.expect("shadow checker attached");
            assert!(report.clean(), "{what}: {:?}", report.violations);
            w.verify(&run.out.mem)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

#[test]
fn fifo_runs_clean_under_the_checker() {
    sweep(SchedKind::Fifo);
}

#[test]
fn steal_runs_clean_under_the_checker() {
    sweep(SchedKind::Steal);
}

#[test]
fn priority_runs_clean_under_the_checker() {
    sweep(SchedKind::Priority);
}

#[test]
fn locality_runs_clean_under_the_checker() {
    sweep(SchedKind::Locality);
}

#[test]
fn quantum_runs_clean_under_the_checker() {
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
                let run = run_checked(w.as_ref(), tiny(sched), mode);
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
/// its append-only audit log must replay identically run over run.
#[test]
fn quantum_audit_log_replays_deterministically() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    let a = run_checked(&w, tiny(SchedKind::Quantum), CoherenceMode::Raccd);
    let b = run_checked(&w, tiny(SchedKind::Quantum), CoherenceMode::Raccd);
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
    let fifo = run_checked(&w, tiny(SchedKind::Fifo), CoherenceMode::Raccd);
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
    let run = |sched| run_checked(&w, tiny(sched), CoherenceMode::Raccd);
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
