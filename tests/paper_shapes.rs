//! Shape tests: the qualitative claims of the paper's evaluation must hold
//! in the reproduction at test scale. (EXPERIMENTS.md records the
//! bench-scale quantitative comparison.)

use raccd::core::{CoherenceMode, Experiment, RunResult};
use raccd::sim::MachineConfig;
use raccd::workloads::{
    all_benchmarks, jacobi::Jacobi, jpeg::Jpeg, md5::Md5Bench, Scale, Workload,
};

fn run(w: &dyn Workload, mode: CoherenceMode, ratio: usize) -> RunResult {
    Experiment::new(MachineConfig::scaled().with_dir_ratio(ratio), mode).run(w)
}

/// A Jacobi big enough to pressure the reduced directories.
fn pressured_jacobi() -> Jacobi {
    Jacobi {
        n: 256,
        iters: 2,
        blocks: 16,
        ..Jacobi::new(Scale::Test)
    }
}

#[test]
fn fig6_shape_fullcoh_degrades_most() {
    // §V-A1: FullCoh degrades steeply with directory reduction, PT is
    // intermediate, RaCCD nearly flat.
    let w = pressured_jacobi();
    let slowdown = |mode: CoherenceMode| {
        let base = run(&w, mode, 1).stats.cycles as f64;
        run(&w, mode, 256).stats.cycles as f64 / base
    };
    let full = slowdown(CoherenceMode::FullCoh);
    let pt = slowdown(CoherenceMode::PageTable);
    let raccd = slowdown(CoherenceMode::Raccd);
    assert!(full > pt, "FullCoh {full:.2} vs PT {pt:.2}");
    assert!(pt > raccd, "PT {pt:.2} vs RaCCD {raccd:.2}");
    assert!(raccd < 1.10, "RaCCD must stay nearly flat: {raccd:.3}");
    assert!(full > 1.5, "FullCoh must degrade substantially: {full:.3}");
}

#[test]
fn fig7a_shape_raccd_slashes_directory_accesses() {
    // §I: "RaCCD reduces directory accesses to just 26% of the baseline".
    // Our workloads have near-total annotation coverage, so the reduction
    // is even stronger (DESIGN.md §2 / EXPERIMENTS.md).
    let w = pressured_jacobi();
    let full = run(&w, CoherenceMode::FullCoh, 1).stats.dir_accesses as f64;
    let raccd = run(&w, CoherenceMode::Raccd, 1).stats.dir_accesses as f64;
    assert!(
        raccd / full < 0.26,
        "RaCCD/FullCoh dir accesses = {:.3}",
        raccd / full
    );
}

#[test]
fn fig7b_shape_llc_hit_rate_protected_by_raccd() {
    // §V-A3: at 1:256, RaCCD's LLC hit rate stays far above FullCoh's.
    let w = pressured_jacobi();
    let full = run(&w, CoherenceMode::FullCoh, 256).stats.llc_hit_ratio();
    let raccd = run(&w, CoherenceMode::Raccd, 256).stats.llc_hit_ratio();
    assert!(raccd > 2.0 * full, "RaCCD {raccd:.3} vs FullCoh {full:.3}");
}

#[test]
fn fig7c_shape_noc_traffic_constrained() {
    // §V-A4: at 1:256, FullCoh NoC traffic grows far more than RaCCD's.
    let w = pressured_jacobi();
    let growth = |mode: CoherenceMode| {
        let base = run(&w, mode, 1).stats.noc_traffic as f64;
        run(&w, mode, 256).stats.noc_traffic as f64 / base
    };
    let full = growth(CoherenceMode::FullCoh);
    let raccd = growth(CoherenceMode::Raccd);
    assert!(
        full > raccd + 0.10,
        "FullCoh {full:.2}x vs RaCCD {raccd:.2}x"
    );
    assert!(raccd < 1.2, "RaCCD traffic nearly flat: {raccd:.3}");
}

#[test]
fn fig8_shape_occupancy_ordering() {
    // §V-B: FullCoh occupancy ≫ PT > RaCCD.
    let w = pressured_jacobi();
    let occ = |mode| run(&w, mode, 1).stats.dir_avg_occupancy;
    let full = occ(CoherenceMode::FullCoh);
    let pt = occ(CoherenceMode::PageTable);
    let raccd = occ(CoherenceMode::Raccd);
    assert!(full > pt, "FullCoh {full:.3} vs PT {pt:.3}");
    assert!(pt > raccd, "PT {pt:.3} vs RaCCD {raccd:.3}");
}

#[test]
fn fig2_shape_jpeg_is_raccd_worst_case() {
    // §II-D: no annotations ⇒ RaCCD identifies nothing; PT still finds
    // private pages.
    let w = Jpeg::new(Scale::Test);
    let raccd = run(&w, CoherenceMode::Raccd, 1);
    let pt = run(&w, CoherenceMode::PageTable, 1);
    assert_eq!(raccd.census.noncoherent_blocks, 0, "RaCCD finds nothing");
    assert!(pt.census.noncoherent_pct() > 10.0, "PT still classifies");
}

#[test]
fn fig2_shape_md5_similar_for_both() {
    // §II-D: "RaCCD and PT perform similarly well on MD5 due to its
    // streaming read behaviour".
    let w = Md5Bench::new(Scale::Test);
    let raccd = run(&w, CoherenceMode::Raccd, 1).census.noncoherent_pct();
    let pt = run(&w, CoherenceMode::PageTable, 1)
        .census
        .noncoherent_pct();
    assert!(
        (raccd - pt).abs() < 20.0,
        "MD5 similar under both: PT {pt:.1} vs RaCCD {raccd:.1}"
    );
    assert!(raccd > 60.0 && pt > 60.0);
}

#[test]
fn fig2_average_raccd_well_above_pt() {
    // §II-D averages: RaCCD 78.6 % vs PT 26.9 % (2.9×).
    let mut pt_sum = 0.0;
    let mut rc_sum = 0.0;
    let benches = all_benchmarks(Scale::Test);
    for w in &benches {
        pt_sum += run(w.as_ref(), CoherenceMode::PageTable, 1)
            .census
            .noncoherent_pct();
        rc_sum += run(w.as_ref(), CoherenceMode::Raccd, 1)
            .census
            .noncoherent_pct();
    }
    let n = benches.len() as f64;
    let (pt_avg, rc_avg) = (pt_sum / n, rc_sum / n);
    assert!(
        rc_avg > 1.5 * pt_avg,
        "RaCCD {rc_avg:.1}% should dwarf PT {pt_avg:.1}%"
    );
    assert!(rc_avg > 60.0, "RaCCD average {rc_avg:.1}%");
}

#[test]
fn fig9_10_shape_adr_saves_energy_without_hurting_performance() {
    let w = pressured_jacobi();
    let cfg = MachineConfig::scaled();
    let fixed = Experiment::new(cfg, CoherenceMode::Raccd).run(&w);
    let adr = Experiment::new(MachineConfig { adr: true, ..cfg }, CoherenceMode::Raccd).run(&w);
    // Performance within 2 %.
    let perf = adr.stats.cycles as f64 / fixed.stats.cycles as f64;
    assert!(perf < 1.02, "ADR slowdown {perf:.4}");
    // Energy: the access histogram must be dominated by small sizes.
    let model = raccd::energy::EnergyModel::default();
    let energy = |hist: &[(u64, u64)]| -> f64 {
        hist.iter()
            .map(|&(sz, n)| model.dir_access_pj(sz * 16) * n as f64)
            .sum()
    };
    let saving = 1.0 - energy(&adr.stats.dir_access_hist) / energy(&fixed.stats.dir_access_hist);
    assert!(saving > 0.4, "ADR energy saving {saving:.2}");
    assert!(adr.stats.adr_reconfigs > 0);
}

#[test]
fn dynamic_scheduler_migrates_tasks() {
    // §II-B's premise: under a dynamic scheduler, data "often migrates
    // from one core to another in different application phases". The
    // migration counter must be non-zero on the stencils.
    let w = pressured_jacobi();
    let run = run(&w, CoherenceMode::FullCoh, 1);
    assert!(
        run.stats.task_migrations > 0,
        "no migration — PT would look artificially good"
    );
}

#[test]
fn kmeans_raccd_pays_flush_penalty_at_1to1() {
    // §V-A1: Kmeans is the benchmark where RaCCD's end-of-task flush hurts;
    // RaCCD must show more write-backs than FullCoh there.
    let w = raccd::workloads::kmeans::Kmeans::new(Scale::Test);
    let full = run(&w, CoherenceMode::FullCoh, 1).stats;
    let raccd = run(&w, CoherenceMode::Raccd, 1).stats;
    assert!(
        raccd.l1_writebacks > full.l1_writebacks,
        "flush-induced write-backs: RaCCD {} vs FullCoh {}",
        raccd.l1_writebacks,
        full.l1_writebacks
    );
    assert!(raccd.nc_lines_flushed > 0);
}
