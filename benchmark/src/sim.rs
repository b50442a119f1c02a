//! The simulator workloads: two long single runs, the figure-7 sweep's
//! end cells, and the checkpoint cycle.

use crate::bench::{ratio, Bench, Layers, Rep, TracedPass, REPLAY_REP, TRACED_REP};
use crate::replay;
use crate::summary::quantile;
use crate::trace::Tracer;
use raccd_campaign::stats_digest;
use raccd_core::{CoherenceMode, Driver, Engine, Experiment, RunResult};
use raccd_obs::{Recorder, RecorderConfig};
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, Stats, DIR_RATIOS};
use raccd_snap::Snapshot;
use raccd_workloads::{cg::Cg, histo::Histo, jacobi::Jacobi, md5::Md5Bench, Scale};
use std::time::Instant;

/// `Driver::step` calls per piece of a rep, and per `core.step` span of a
/// traced one (a few milliseconds of host time).
const STEPS_PER_SPAN: u64 = 1024;

/// `snap-cycle` cuts the run's cycle span into this many stretches, with
/// a checkpoint between each two.
const SNAP_MARKS: u64 = 16;

/// One simulation: a program factory on a machine under a coherence mode.
pub struct SimCell {
    pub label: String,
    pub workload: Box<dyn Workload>,
    pub cfg: MachineConfig,
    pub mode: CoherenceMode,
}

/// Mix the benchmark seed into a workload's own input seed.
fn mix(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A workload at bench scale with the named size fields set and the
/// benchmark seed mixed into its input seed.
macro_rules! workload {
    ($ty:ident, $seed:expr $(, $field:ident: $value:expr)*) => {{
        let mut w = $ty::new(Scale::Bench);
        $(w.$field = $value;)*
        w.seed = mix(w.seed, $seed);
        let w: Box<dyn Workload> = Box::new(w);
        w
    }};
}

pub fn jacobi_raccd(seed: u64) -> SimBench {
    SimBench::single(
        SimCell {
            label: "Jacobi n=768 iters=6 blocks=48 raccd 1:1".into(),
            workload: workload!(Jacobi, seed, n: 768, iters: 6, blocks: 48),
            cfg: MachineConfig::scaled(),
            mode: CoherenceMode::Raccd,
        },
        Extra::ReplayAndTwins,
    )
}

pub fn cg_fullcoh_256(seed: u64) -> SimBench {
    SimBench::single(
        SimCell {
            label: "CG g=48 fullcoh 1:256".into(),
            workload: workload!(Cg, seed, g: 48),
            cfg: MachineConfig::scaled().with_dir_ratio(256),
            mode: CoherenceMode::FullCoh,
        },
        Extra::Replay,
    )
}

pub fn histo_pt(seed: u64) -> SimBench {
    SimBench::single(
        SimCell {
            label: "Histo side=2048 pt 1:1".into(),
            workload: workload!(Histo, seed, side: 2048),
            cfg: MachineConfig::scaled(),
            mode: CoherenceMode::PageTable,
        },
        Extra::Replay,
    )
}

pub fn md5_body(seed: u64) -> SimBench {
    SimBench::single(
        SimCell {
            label: "MD5 buffers=128 buf_len=256KiB raccd 1:1".into(),
            workload: workload!(Md5Bench, seed, buffers: 128, buf_len: 256 * 1024),
            cfg: MachineConfig::scaled(),
            mode: CoherenceMode::Raccd,
        },
        Extra::Replay,
    )
}

const FIG7_BENCHES: usize = 3;
const RATIO_FULL: usize = DIR_RATIOS[0];
const RATIO_SMALLEST: usize = DIR_RATIOS[DIR_RATIOS.len() - 1];

/// One cell of figure 7: benchmark `bench` of {Jacobi, Histo, MD5} at
/// bench scale under `mode` with a 1:`ratio` directory.
fn fig7_cell(bench: usize, mode: CoherenceMode, ratio: usize, seed: u64) -> SimCell {
    let workload = match bench {
        0 => workload!(Jacobi, seed),
        1 => workload!(Histo, seed),
        _ => workload!(Md5Bench, seed),
    };
    SimCell {
        label: format!("{} {mode} 1:{ratio}", workload.name()),
        workload,
        cfg: MachineConfig::scaled().with_dir_ratio(ratio),
        mode,
    }
}

/// The figure's headline pair for each of its three benchmarks: RaCCD with
/// the smallest directory, then FullCoh with the full one. Six of the 42
/// cells, so that a rep is short enough to repeat a dozen times in a run.
pub fn fig7_sweep(seed: u64) -> SimBench {
    let mut cells = Vec::new();
    for bench in 0..FIG7_BENCHES {
        cells.push(fig7_cell(bench, CoherenceMode::Raccd, RATIO_SMALLEST, seed));
        cells.push(fig7_cell(bench, CoherenceMode::FullCoh, RATIO_FULL, seed));
    }
    SimBench {
        cells,
        extra: Extra::Fig7Shape { seed },
    }
}

struct CellOut {
    stats: Stats,
    verified: Result<(), String>,
}

/// Build, simulate and verify one cell, noting the pieces in `rep`. The
/// simulate phase runs from `Driver::new` to the end of `finish`, which
/// is a loop over `Driver::step`; the harness turns that loop itself so
/// that every [`STEPS_PER_SPAN`] turns make one piece (and one span).
fn run_cell(cell: &SimCell, tr: &mut Tracer, rep: &mut Rep) -> CellOut {
    let s = tr.begin("workloads.build");
    let program = cell.workload.build();
    rep.part(tr.end(s));

    let s = tr.begin("core.driver_new");
    let mut driver = Driver::new(cell.cfg, cell.mode, program, None, None);
    rep.sim_part(tr.end(s));
    let mut live = true;
    while live {
        let s = tr.begin("core.step");
        let mut n = 0;
        while live && n < STEPS_PER_SPAN {
            live = driver.step(None);
            n += 1;
        }
        rep.sim_part(tr.end_units(s, n));
    }
    let s = tr.begin("core.finish");
    let out = driver.finish(None);
    rep.sim_part(tr.end(s));

    let s = tr.begin("workloads.verify");
    let verified = cell.workload.verify(&out.mem);
    rep.part(tr.end(s));
    CellOut {
        stats: out.stats,
        verified,
    }
}

/// What the traced pass of a [`SimBench`] adds to the phase spans and
/// the counts.
enum Extra {
    /// One cell: replay its layers.
    Replay,
    /// One cell: replay, then the recorder / profiler / engine twins.
    ReplayAndTwins,
    /// The figure-7 cells: the model-shape pair.
    Fig7Shape { seed: u64 },
}

/// One or more cells run one after the other on one thread.
pub struct SimBench {
    cells: Vec<SimCell>,
    extra: Extra,
}

impl SimBench {
    fn single(cell: SimCell, extra: Extra) -> SimBench {
        SimBench {
            cells: vec![cell],
            extra,
        }
    }
}

impl Bench for SimBench {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let whole = tr.begin("bench.rep");
        let mut rep = Rep::default();
        for cell in &self.cells {
            let whole = tr.begin("bench.cell");
            let out = run_cell(cell, tr, &mut rep);
            rep.cell_ms.push(tr.end(whole) * 1e3);
            rep.check(out.verified.is_ok(), || {
                format!("{}: verify: {:?}", cell.label, out.verified)
            });
            rep.refs += out.stats.refs_processed;
            rep.jobs += 1;
            rep.digests.push(stats_digest(&out.stats));
            rep.stats.merge(&out.stats);
            rep.cell_stats.push(out.stats);
        }
        rep.close(tr.end(whole));
        rep
    }

    fn layers(&mut self, tr: &mut Tracer, pass: &TracedPass<'_>, out: &mut Layers) {
        phase_layers(tr, pass.rep, out);
        count_layers(&pass.rep.stats, out);
        match self.extra {
            Extra::Fig7Shape { seed } => model_shape(seed, &pass.rep.cell_stats, out),
            Extra::Replay | Extra::ReplayAndTwins => {
                tr.set_rep(REPLAY_REP);
                replay::layers(&self.cells[0], tr, out);
                if matches!(self.extra, Extra::ReplayAndTwins) {
                    twins(&self.cells[0], pass, out);
                }
            }
        }
    }
}

/// Phase metrics from the traced rep's spans.
fn phase_layers(tr: &Tracer, rep: &Rep, out: &mut Layers) {
    let totals = tr.totals(Some(TRACED_REP));
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.secs());
    let build = secs("workloads.build");
    let driver_new = secs("core.driver_new");
    let verify = secs("workloads.verify");
    out.set("workloads.build_s", build);
    out.set("core.driver_new_s", driver_new);
    out.set("core.step_s", secs("core.step"));
    out.set(
        "core.steps",
        totals.get("core.step").map_or(0, |t| t.units) as f64,
    );
    out.set(
        "core.step_ns_per_ref",
        ratio(secs("core.step") * 1e9, rep.refs as f64),
    );
    out.set("core.finish_s", secs("core.finish"));
    out.set("workloads.verify_s", verify);
    let mut ms = rep.cell_ms.clone();
    ms.sort_by(f64::total_cmp);
    out.set("bench.cell_ms_p50", quantile(&ms, 5, 10));
    out.set("bench.cell_ms_p90", quantile(&ms, 9, 10));
    out.set(
        "bench.setup_share",
        ratio(build + driver_new + verify, rep.wall_s),
    );
}

/// Exact counts of simulated statistics: no clock involved.
pub fn count_layers(s: &Stats, out: &mut Layers) {
    out.set("sim.refs", s.refs_processed as f64);
    out.set("sim.cycles", s.cycles as f64);
    out.set("cache.l1_misses", s.l1_misses as f64);
    out.set("cache.l1_hit_ratio", s.l1_hit_ratio());
    out.set("cache.llc_misses", s.llc_misses as f64);
    out.set("mem.tlb_misses", s.tlb_misses as f64);
    out.set("protocol.dir_accesses", s.dir_accesses as f64);
    out.set("protocol.dir_evictions", s.dir_evictions as f64);
    out.set("protocol.invalidations", s.invalidations_sent as f64);
    out.set("noc.flits", s.noc_flits as f64);
    out.set("core.nc_fills", s.nc_fills as f64);
    out.set("core.coherent_fills", s.coherent_fills as f64);
    out.set("runtime.tasks", s.tasks_executed as f64);
    out.set("sched.steals", s.sched_steals as f64);
}

/// The figure-7 shape pair, to read beside the paper's values (the
/// timing model is not validated against hardware): RaCCD's share of
/// FullCoh's directory accesses at 1:1 (paper ≈0.26 over its nine
/// benchmarks), and FullCoh's slowdown from 1:1 to 1:256 as the
/// geometric mean over the sweep's three benchmarks. `timed` holds the
/// traced rep's cells, whose FullCoh 1:1 runs are reused; the other two
/// cells of each benchmark run here, untimed.
fn model_shape(seed: u64, timed: &[Stats], out: &mut Layers) {
    let run = |bench: usize, mode: CoherenceMode, ratio: usize| {
        let cell = fig7_cell(bench, mode, ratio, seed);
        run_cell(&cell, &mut Tracer::new(false), &mut Rep::default()).stats
    };
    let (mut raccd, mut fullcoh, mut log_slowdown) = (0u64, 0u64, 0.0f64);
    for b in 0..FIG7_BENCHES {
        let fullcoh_full = &timed[b * 2 + 1];
        raccd += run(b, CoherenceMode::Raccd, RATIO_FULL).dir_accesses;
        fullcoh += fullcoh_full.dir_accesses;
        log_slowdown += ratio(
            run(b, CoherenceMode::FullCoh, RATIO_SMALLEST).cycles as f64,
            fullcoh_full.cycles as f64,
        )
        .ln();
    }
    out.set(
        "sim.dir_access_ratio_raccd",
        ratio(raccd as f64, fullcoh as f64),
    );
    out.set(
        "sim.fullcoh_slowdown_1to256",
        (log_slowdown / FIG7_BENCHES as f64).exp(),
    );
}

/// One rep each of the instrumented or parallel variant, timed as
/// `Experiment` runs it (build + simulate + verify) against the untraced
/// median of the same three phases. Every twin must simulate exactly
/// what the plain run did; one that does not reports 0 and says so.
fn twins(cell: &SimCell, pass: &TracedPass<'_>, out: &mut Layers) {
    let w = cell.workload.as_ref();
    let exp = Experiment::new(cell.cfg, cell.mode);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let recorded = || {
        let mut cfg = cell.cfg;
        cfg.record_events = true;
        let mut rec = Recorder::new(RecorderConfig::default());
        Experiment::new(cfg, cell.mode).run_with_recorder(w, Some(&mut rec))
    };
    let profiled = || exp.run_profiled(w);
    let parallel = || exp.with_engine(Engine::EpochParallel { threads }).run(w);
    let runs: [(&'static str, &dyn Fn() -> RunResult); 3] = [
        ("obs.recorder_overhead_pct", &recorded),
        ("prof.overhead_pct", &profiled),
        ("core.engine_parallel_ratio", &parallel),
    ];
    let base = pass.untraced_wall_s;
    for (name, run) in runs {
        let t = Instant::now();
        let result = run();
        let secs = t.elapsed().as_secs_f64();
        if result.stats != pass.rep.cell_stats[0] {
            eprintln!("benchmark: {name}: the twin simulated different Stats; reported as 0");
            continue;
        }
        out.set(
            name,
            if name.ends_with("_pct") {
                (secs - base) / base * 100.0
            } else {
                base / secs
            },
        );
    }
}

/// Jacobi at bench scale under RaCCD, checkpointed `SNAP_MARKS - 1` times:
/// snapshot → bytes → snapshot → restored driver → run to the next mark.
pub struct SnapBench {
    cell: SimCell,
    /// The uninterrupted run every rep must end equal to.
    baseline: Stats,
}

pub fn snap_cycle(seed: u64) -> SnapBench {
    let cell = SimCell {
        label: format!("Jacobi bench raccd 1:1, {} checkpoints", SNAP_MARKS - 1),
        workload: workload!(Jacobi, seed),
        cfg: MachineConfig::scaled(),
        mode: CoherenceMode::Raccd,
    };
    let baseline = run_cell(&cell, &mut Tracer::new(false), &mut Rep::default()).stats;
    SnapBench { cell, baseline }
}

impl Bench for SnapBench {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let whole = tr.begin("bench.rep");
        let mut rep = Rep::default();
        let SimCell {
            workload,
            cfg,
            mode,
            label,
        } = &self.cell;
        let s = tr.begin("workloads.build");
        let program = workload.build();
        rep.part(tr.end(s));
        let s = tr.begin("core.driver_new");
        let mut driver = Driver::new(*cfg, *mode, program, None, None);
        rep.sim_part(tr.end(s));
        for mark in 1..SNAP_MARKS {
            let s = tr.begin("core.run_until");
            let live = driver.run_until(self.baseline.cycles * mark / SNAP_MARKS, None);
            rep.sim_part(tr.end(s));
            if !live {
                break;
            }
            let s = tr.begin("core.snapshot");
            let snap = driver.snapshot();
            rep.part(tr.end_units(s, snap.payload_bytes()));
            let s = tr.begin("snap.to_bytes");
            let blob = snap.to_bytes();
            rep.part(tr.end_units(s, blob.len() as u64));
            let s = tr.begin("snap.from_bytes");
            let decoded = Snapshot::from_bytes(&blob);
            rep.part(tr.end_units(s, blob.len() as u64));
            let s = tr.begin("workloads.build");
            let program = workload.build();
            rep.part(tr.end(s));
            let s = tr.begin("core.restore");
            let restored = decoded.map_err(|e| format!("{e:?}")).and_then(|d| {
                Driver::restore(*cfg, *mode, program, &d).map_err(|e| format!("{e:?}"))
            });
            rep.part(tr.end_units(s, snap.payload_bytes()));
            rep.check(restored.is_ok(), || {
                format!("{label}: checkpoint {mark}: {:?}", restored.as_ref().err())
            });
            if let Ok(d) = restored {
                driver = d;
            }
        }
        let s = tr.begin("core.finish");
        let out = driver.finish(None);
        rep.sim_part(tr.end(s));
        let s = tr.begin("workloads.verify");
        let verified = workload.verify(&out.mem);
        rep.part(tr.end(s));
        rep.check(verified.is_ok(), || {
            format!("{label}: verify: {verified:?}")
        });
        rep.check(out.stats == self.baseline, || {
            format!("{label}: checkpointed run's Stats differ from the uninterrupted run's")
        });
        rep.refs = out.stats.refs_processed;
        rep.jobs = 1;
        rep.digests.push(stats_digest(&out.stats));
        rep.stats = out.stats.clone();
        rep.cell_stats.push(out.stats);
        rep.close(tr.end(whole));
        rep.cell_ms.push(rep.wall_s * 1e3);
        rep
    }

    fn layers(&mut self, tr: &mut Tracer, pass: &TracedPass<'_>, out: &mut Layers) {
        phase_layers(tr, pass.rep, out);
        count_layers(&pass.rep.stats, out);
        let totals = tr.totals(Some(TRACED_REP));
        let mb_per_s = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| ratio(t.units as f64 / 1e6, t.secs()))
        };
        out.set("snap.encode_mb_per_s", mb_per_s("core.snapshot"));
        out.set("snap.to_bytes_mb_per_s", mb_per_s("snap.to_bytes"));
        out.set("snap.from_bytes_mb_per_s", mb_per_s("snap.from_bytes"));
        out.set("snap.restore_mb_per_s", mb_per_s("core.restore"));
        if let Some(t) = totals.get("snap.to_bytes") {
            out.set(
                "snap.archive_mb",
                ratio(t.units as f64 / 1e6, t.count as f64),
            );
        }
        let codec: f64 = [
            "core.snapshot",
            "snap.to_bytes",
            "snap.from_bytes",
            "core.restore",
        ]
        .iter()
        .map(|n| totals.get(n).map_or(0.0, |t| t.secs()))
        .sum();
        out.set("snap.codec_share", ratio(codec, pass.rep.wall_s));
        tr.set_rep(REPLAY_REP);
        replay::layers(&self.cell, tr, out);
    }
}
