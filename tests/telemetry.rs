//! End-to-end telemetry validation: a toy task graph on a small mesh and a
//! real benchmark, checked through the public facade (`raccd::obs`).
//!
//! The Chrome-trace golden properties checked here are the ones Perfetto
//! actually needs to render the file: the document is valid JSON, every
//! track's timestamps are monotone, and every `B` has a matching `E`.

use raccd::core::{run, CoherenceMode, DriverOutput, RunOptions};
use raccd::mem::{SimMemory, VRange};
use raccd::obs::{json, Recorder, RecorderConfig};
use raccd::runtime::{Dep, Program, ProgramBuilder};
use raccd::sim::{FaultPlan, MachineConfig};
use std::collections::HashMap;

/// Smallest legal machine: the mesh is square, so 4 cores on a 2×2 mesh.
fn tiny_machine() -> MachineConfig {
    let mut cfg = MachineConfig::scaled();
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.record_events = true;
    cfg
}

/// A fork–join toy: produce → {left, right} → join.
fn toy_program() -> Program {
    let mut b = ProgramBuilder::new();
    let a = b.alloc("a", 64 * 8);
    let out = b.alloc("out", 2 * 8);
    b.task("produce", vec![Dep::output(a)], move |ctx| {
        for i in 0..64 {
            ctx.write_u64(a.start.offset(i * 8), i);
        }
    });
    for (t, half) in [("left", 0u64), ("right", 1u64)] {
        b.task(
            t,
            vec![
                Dep::input(a),
                Dep::output(VRange::new(out.start.offset(half * 8), 8)),
            ],
            move |ctx| {
                let mut s = 0;
                for i in 0..32 {
                    s += ctx.read_u64(a.start.offset((half * 32 + i) * 8));
                }
                ctx.write_u64(out.start.offset(half * 8), s);
            },
        );
    }
    b.task("join", vec![Dep::input(out)], move |ctx| {
        let _ = ctx.read_u64(out.start);
    });
    b.finish()
}

fn recording(rec: &mut Recorder) -> RunOptions<'_> {
    RunOptions {
        recorder: Some(rec),
        ..RunOptions::default()
    }
}

fn record_toy() -> (Recorder, raccd::sim::Stats) {
    let mut rec = Recorder::new(RecorderConfig {
        sample_interval: 64,
        buffer_events: true,
    });
    let out = run(
        tiny_machine(),
        CoherenceMode::Raccd,
        toy_program(),
        recording(&mut rec),
    );
    (rec, out.stats)
}

#[test]
fn chrome_trace_golden_properties() {
    let (rec, _) = record_toy();
    let text = raccd::obs::chrome_trace_json(&rec);
    let doc = json::parse(&text).expect("trace is valid JSON");
    let events = doc.get("traceEvents").expect("traceEvents key").items();
    assert!(!events.is_empty());

    // Per-track (pid, tid): timestamps monotone, B/E balanced.
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut depth: HashMap<(u64, u64), i64> = HashMap::new();
    let mut spans = 0u32;
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        if ph == "M" {
            continue;
        }
        let key = (
            e.get("pid").unwrap().as_f64().unwrap() as u64,
            e.get("tid").unwrap().as_f64().unwrap() as u64,
        );
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        let prev = last_ts.entry(key).or_insert(0.0);
        assert!(ts >= *prev, "track {key:?}: ts {ts} after {prev}");
        *prev = ts;
        match ph {
            "B" => {
                *depth.entry(key).or_insert(0) += 1;
                spans += 1;
            }
            "E" => {
                let d = depth.entry(key).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "track {key:?}: E without matching B");
            }
            _ => {}
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unclosed B spans: {depth:?}"
    );
    assert_eq!(spans, 4, "one span per toy task");
    for name in ["produce", "left", "right", "join"] {
        assert!(text.contains(name), "trace names task {name}");
    }
    assert!(text.contains("raccd_register"), "RaCCD slices present");
}

#[test]
fn jsonl_csv_and_series_are_consistent() {
    let (rec, stats) = record_toy();

    let mut jsonl = Vec::new();
    raccd::obs::write_events_jsonl(rec.names(), rec.events(), &mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    let mut kinds: HashMap<String, u64> = HashMap::new();
    for line in jsonl.lines() {
        let v = json::parse(line).expect("JSONL line parses");
        *kinds
            .entry(v.get("kind").unwrap().as_str().unwrap().to_string())
            .or_insert(0) += 1;
    }
    assert_eq!(kinds["task_created"], 4);
    assert_eq!(kinds["task_scheduled"], 4);
    assert_eq!(kinds["task_completed"], 4);
    assert!(
        kinds["ncrt_register"] >= 4,
        "one register per dependence set"
    );

    // Samples cover the whole run and end exactly at the final cycle.
    assert!(!rec.samples().is_empty());
    assert_eq!(rec.samples().last().unwrap().cycle, stats.cycles);
    let mut csv = Vec::new();
    raccd::obs::write_series_csv(rec.samples(), &mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    assert_eq!(csv.lines().count(), rec.samples().len() + 1);

    // Latency histograms saw every replayed reference.
    assert_eq!(rec.hist_mem_latency.count(), stats.refs_processed);
    assert_eq!(rec.hist_wake_to_dispatch.count() as usize, 4);
}

/// The recorder only observes: under every coherence mode, with no fault
/// plan and with one that injects at every site, a recorded run ends with
/// the same `Stats`, fault counters and memory image as an unrecorded one.
/// The toy is small, so the faulty plan is swept over seeds until every
/// site has fired.
#[test]
fn toy_run_is_identical_with_and_without_recorder() {
    // Every injection site, at the rates `archive_bytes_are_pinned` uses.
    let all_sites = |seed| FaultPlan {
        seed,
        drop: 0.01,
        dup: 0.005,
        corrupt: 0.005,
        delay: 0.02,
        dir_loss: 0.002,
        storm: 0.01,
        task_fail: 0.02,
        straggle: 0.05,
        ..FaultPlan::default()
    };
    let image = |mem: &SimMemory| -> Vec<u8> {
        let allocs = mem.allocations().iter();
        allocs
            .flat_map(|(_, r)| mem.bytes(r.start, r.len as usize).to_vec())
            .collect()
    };
    let plans = std::iter::once(None).chain((0..32).map(|s| Some(all_sites(s))));
    let mut fired = [0u64; 8];
    for mode in CoherenceMode::EXTENDED {
        for faults in plans.clone() {
            let mut rec = Recorder::default();
            let opts = RunOptions {
                recorder: Some(&mut rec),
                faults,
            };
            let with_rec = run(tiny_machine(), mode, toy_program(), opts);
            let opts = RunOptions {
                recorder: None,
                faults,
            };
            let without = run(tiny_machine(), mode, toy_program(), opts);
            let what = format!("{mode:?}, {faults:?}");
            assert!(!rec.events().is_empty(), "{what}: the recorder listened");
            assert_eq!(
                with_rec.stats, without.stats,
                "{what}: telemetry is passive"
            );
            let faulted = |out: &DriverOutput| out.fault.map(|f| (f.stats, f.detected));
            assert_eq!(faulted(&with_rec), faulted(&without), "{what}");
            assert_eq!(image(&with_rec.mem), image(&without.mem), "{what}");
            if let Some(f) = without.fault.map(|f| f.stats) {
                let sites = [
                    f.drops,
                    f.dups,
                    f.corrupts,
                    f.delays,
                    f.dir_losses,
                    f.storms,
                    f.task_fails,
                    f.straggles,
                ];
                for (n, s) in fired.iter_mut().zip(sites) {
                    *n += s;
                }
            }
        }
    }
    assert!(fired.iter().all(|&n| n > 0), "every site fired: {fired:?}");
}

#[test]
fn jacobi_occupancy_series_is_nonconstant() {
    use raccd::workloads::{jacobi::Jacobi, Scale, Workload};
    let mut cfg = MachineConfig::scaled();
    cfg.record_events = true;
    let mut rec = Recorder::new(RecorderConfig {
        sample_interval: 4096,
        buffer_events: false,
    });
    let out = run(
        cfg,
        CoherenceMode::Raccd,
        Jacobi::new(Scale::Test).build(),
        recording(&mut rec),
    );
    let occ: Vec<f64> = rec.samples().iter().map(|s| s.dir_occupancy).collect();
    assert!(
        occ.len() >= 3,
        "enough samples to see a shape: {}",
        occ.len()
    );
    let (min, max) = occ
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    assert!(
        max - min > 1e-6,
        "directory occupancy varies over the run (min {min}, max {max})"
    );
    // The sampler's time-weighted mean agrees with the machine's own
    // integral to sampling resolution.
    let err = (rec.mean_dir_occupancy() - out.stats.dir_avg_occupancy).abs();
    assert!(
        err < 0.05,
        "sampler mean {} vs stats integral {}",
        rec.mean_dir_occupancy(),
        out.stats.dir_avg_occupancy
    );
    let _ = SimMemory::HEAP_BASE; // facade smoke: mem re-export reachable
}
