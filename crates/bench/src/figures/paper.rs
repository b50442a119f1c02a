//! The paper's tables and figures: Tables I–III, Figures 2 and 6–10, the
//! §V-C overheads and the §V-A5 energy report.

use super::{with, Cell, Ctx, Results};
use crate::chart::grouped_bar_chart;
use crate::mean;
use raccd_core::CoherenceMode::{self, FullCoh, PageTable, Raccd, TlbClass};
use raccd_energy::{dir_kib, sram_area_mm2, EnergyBreakdown, EnergyModel};
use raccd_sim::{MachineConfig, Stats, DIR_RATIOS};
use raccd_workloads::{all_benchmarks, Scale};
use std::io::{self, Write};

pub(super) fn no_cells(_: &Ctx) -> Vec<Cell> {
    Vec::new()
}

/// `label<TAB>v0<TAB>v1…`, every value with `prec` decimals.
fn row(label: &str, vals: &[f64], prec: usize) -> String {
    let mut s = label.to_string();
    for v in vals {
        s.push_str(&format!("\t{v:.prec$}"));
    }
    s
}

/// Column-wise arithmetic mean of equally long rows.
fn col_means(rows: &[Vec<f64>]) -> Vec<f64> {
    (0..rows.first().map_or(0, Vec::len))
        .map(|c| mean(&rows.iter().map(|r| r[c]).collect::<Vec<_>>()))
        .collect()
}

/// The directory-access histogram of a run, per-bank entry counts scaled
/// to the whole directory (`ncores` banks) as the energy model wants it.
pub(super) fn dir_hist(stats: &Stats, ncores: usize) -> Vec<(u64, u64)> {
    stats
        .dir_access_hist
        .iter()
        .map(|&(per_bank, n)| (per_bank * ncores as u64, n))
        .collect()
}

/// Directory dynamic energy of a run in pJ.
pub(super) fn dir_energy_pj(stats: &Stats, ncores: usize) -> f64 {
    EnergyModel::default().dir_dynamic_pj(&dir_hist(stats, ncores))
}

/// Table I: configuration of the simulated machine — both the paper-exact
/// preset and the proportionally scaled default.
pub(super) fn table1(_: &Ctx, _: &Results, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# Table I (paper preset)")?;
    write!(out, "{}", MachineConfig::paper().table1())?;
    writeln!(out)?;
    writeln!(out, "# Scaled preset used by tests/benches (DESIGN.md §2)")?;
    write!(out, "{}", MachineConfig::scaled().table1())
}

/// Table II: application problem sizes, at every scale.
pub(super) fn table2(_: &Ctx, _: &Results, out: &mut dyn Write) -> io::Result<()> {
    for scale in [Scale::Paper, Scale::Bench, Scale::Test] {
        writeln!(out, "# Table II — problem sets at scale `{scale}`")?;
        writeln!(out, "Application\tProblem Set")?;
        for w in all_benchmarks(scale) {
            writeln!(out, "{}\t{}", w.name(), w.problem())?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Table III: directory storage (KB) and area (mm²) per 1:N
/// configuration. The area model is calibrated to the paper's CACTI 6.0
/// outputs, so the paper-geometry rows reproduce Table III exactly.
pub(super) fn table3(_: &Ctx, _: &Results, out: &mut dyn Write) -> io::Result<()> {
    for (cfg, label) in [
        (MachineConfig::paper(), "paper geometry"),
        (MachineConfig::scaled(), "scaled geometry"),
    ] {
        writeln!(out, "# Table III — directory size and area ({label})")?;
        writeln!(out, "{}", ratio_header(""))?;
        let kib = DIR_RATIOS.map(|r| dir_kib(cfg.with_dir_ratio(r).dir_entries_total() as u64));
        let kb_row: Vec<String> = kib.iter().map(|k| format!("{k}")).collect();
        writeln!(out, "KB\t{}", kb_row.join("\t"))?;
        writeln!(out, "{}", row("Area (mm2)", &kib.map(sram_area_mm2), 2))?;
        writeln!(out)?;
    }
    writeln!(out, "# paper row: KB 4224 2112 1056 528 264 66 16.5; Area 106.08 53.92 34.08 21.28 14.88 6.18 2.64")
}

/// `first<TAB>1:1<TAB>1:2…` over [`DIR_RATIOS`].
fn ratio_header(first: &str) -> String {
    let mut s = first.to_string();
    for r in DIR_RATIOS {
        s.push_str(&format!("\t1:{r}"));
    }
    s
}

/// One value per benchmark and system at the 1:1 directory, one decimal,
/// an `Average` row, the paper's numbers, and a bar chart on `--chart`
/// (Figures 2 and 8).
struct Bars {
    title: &'static str,
    chart_title: &'static str,
    modes: [CoherenceMode; 3],
    metric: fn(&raccd_core::RunResult) -> f64,
    paper: &'static str,
}

impl Bars {
    fn cells(&self, ctx: &Ctx) -> Vec<Cell> {
        ctx.matrix(&self.modes.map(|m| (m, false)), &[1])
    }

    fn render(&self, ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
        let labels = self.modes.map(CoherenceMode::label);
        writeln!(out, "# {}", self.title)?;
        writeln!(out, "benchmark\t{}", labels.join("\t"))?;
        let groups: Vec<(String, Vec<f64>)> = ctx
            .names
            .iter()
            .enumerate()
            .map(|(b, name)| {
                let vals = self
                    .modes
                    .map(|m| (self.metric)(res.get(&ctx.cell(b, m, 1, false))));
                (name.clone(), vals.to_vec())
            })
            .collect();
        for (name, vals) in &groups {
            writeln!(out, "{}", row(name, vals, 1))?;
        }
        let vals: Vec<Vec<f64>> = groups.iter().map(|(_, v)| v.clone()).collect();
        writeln!(out, "{}", row("Average", &col_means(&vals), 1))?;
        writeln!(out, "# paper: {}", self.paper)?;
        if ctx.chart {
            writeln!(out)?;
            write!(
                out,
                "{}",
                grouped_bar_chart(self.chart_title, &labels, &groups, 50)
            )?;
        }
        Ok(())
    }
}

/// Figure 2: "Percentage of non-coherent cache blocks" — PT vs RaCCD per
/// benchmark plus the average, extended with the §II-B TLB-based
/// temporarily-private classifier for comparison (the paper discusses
/// but does not plot it: it recovers temporarily-private data like
/// RaCCD, at the §II-B hardware costs RaCCD avoids).
const FIG2: Bars = Bars {
    title: "Figure 2: percentage of non-coherent cache blocks (1:1 directory)",
    chart_title: "Figure 2: % non-coherent blocks",
    modes: [PageTable, TlbClass, Raccd],
    metric: |r| r.census.noncoherent_pct(),
    paper: "PT avg 26.9, RaCCD avg 78.6 (RaCCD 2.9x PT); JPEG ~0 under RaCCD",
};

pub(super) fn fig2_cells(ctx: &Ctx) -> Vec<Cell> {
    FIG2.cells(ctx)
}

pub(super) fn fig2(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    FIG2.render(ctx, res, out)
}

/// Figure 8: "Average occupancy of the directory" — time-weighted average
/// directory occupancy per benchmark under FullCoh, PT and RaCCD at 1:1.
const FIG8: Bars = Bars {
    title: "Figure 8: average directory occupancy (%), 1:1 directory",
    chart_title: "Figure 8: average directory occupancy (%)",
    modes: CoherenceMode::ALL,
    metric: |r| 100.0 * r.stats.dir_avg_occupancy,
    paper: "FullCoh 65.7, PT 20.3, RaCCD 10.8",
};

pub(super) fn fig8_cells(ctx: &Ctx) -> Vec<Cell> {
    FIG8.cells(ctx)
}

pub(super) fn fig8(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    FIG8.render(ctx, res, out)
}

/// The 9 benchmarks × 3 systems × 7 directory sizes matrix behind
/// Figures 6 and 7.
pub(super) fn sweep_cells(ctx: &Ctx) -> Vec<Cell> {
    ctx.matrix(&CoherenceMode::ALL.map(|m| (m, false)), &DIR_RATIOS)
}

/// One `benchmark/mode` row per benchmark and system with a column per
/// directory size, then `Average/mode` rows; with `normalise`, each
/// benchmark relative to its FullCoh 1:1 run.
fn ratio_table(
    ctx: &Ctx,
    res: &Results,
    out: &mut dyn Write,
    title: &str,
    metric: &dyn Fn(&Stats) -> f64,
    normalise: bool,
) -> io::Result<()> {
    writeln!(out, "# {title}")?;
    writeln!(out, "{}", ratio_header("benchmark/mode"))?;
    let value = |b, mode, ratio| metric(&res.get(&ctx.cell(b, mode, ratio, false)).stats);
    let mut by_mode = CoherenceMode::ALL.map(|_| Vec::new());
    for (b, name) in ctx.names.iter().enumerate() {
        let base = if normalise {
            value(b, FullCoh, 1).max(1e-12)
        } else {
            1.0
        };
        for (rows, mode) in by_mode.iter_mut().zip(CoherenceMode::ALL) {
            // `.max(0.0)` normalises IEEE −0.0 from empty counters.
            let vals = DIR_RATIOS.map(|ratio| (value(b, mode, ratio) / base).max(0.0));
            writeln!(out, "{}", row(&format!("{name}/{mode}"), &vals, 3))?;
            rows.push(vals.to_vec());
        }
    }
    for (rows, mode) in by_mode.iter().zip(CoherenceMode::ALL) {
        writeln!(
            out,
            "{}",
            row(&format!("Average/{mode}"), &col_means(rows), 3)
        )?;
    }
    Ok(())
}

/// Figure 6: "Normalised cycles by directory size" — execution cycles for
/// FullCoh / PT / RaCCD over the seven 1:N directory configurations, each
/// benchmark normalised to its FullCoh 1:1 run.
pub(super) fn fig6(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    let title =
        "Figure 6: normalised cycles by directory size (baseline: FullCoh 1:1 per benchmark)";
    ratio_table(ctx, res, out, title, &|s| s.cycles as f64, true)?;
    writeln!(
        out,
        "# paper: FullCoh avg 1.22 @1:2, 1.71 @1:256; PT 1.15 @1:8; RaCCD 1.009 @1:8, 1.10 @1:256"
    )
}

/// Figure 7's section selectors, (a) to (d).
pub(super) const FIG7_SECTIONS: [&str; 4] = ["accesses", "llc", "noc", "energy"];

/// Figure 7: metrics by directory size — (a) directory accesses, (b) LLC
/// hit ratio, (c) NoC traffic, (d) directory dynamic energy; the section
/// selectors pick among them.
///
/// Paper reference points: RaCCD needs only ~26 % of FullCoh's directory
/// accesses; FullCoh LLC hit rate collapses 56 %→24 % by 1:256 while
/// RaCCD holds 51 %; NoC traffic grows 91 % for FullCoh at 1:256 vs 15 %
/// for RaCCD; RaCCD's directory dynamic energy is 71–80 % below FullCoh.
pub(super) fn fig7(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    let ncores = ctx.cfg.ncores;
    type Metric<'a> = &'a dyn Fn(&Stats) -> f64;
    let tables: [(&str, Metric, bool); 4] = [
        (
            "Figure 7a: directory accesses (normalised to FullCoh 1:1)",
            &|s| s.dir_accesses as f64,
            true,
        ),
        (
            "Figure 7b: LLC hit ratio (absolute)",
            &|s| s.llc_hit_ratio(),
            false,
        ),
        (
            "Figure 7c: NoC traffic (normalised to FullCoh 1:1)",
            &|s| s.noc_traffic as f64,
            true,
        ),
        (
            "Figure 7d: directory dynamic energy (normalised to FullCoh 1:1)",
            &|s| dir_energy_pj(s, ncores),
            true,
        ),
    ];
    for (key, (title, metric, normalise)) in FIG7_SECTIONS.iter().zip(tables) {
        if ctx.sections.contains(key) {
            ratio_table(ctx, res, out, title, metric, normalise)?;
            writeln!(out)?;
        }
    }
    Ok(())
}

/// The columns of Figures 9 and 10: (system, ADR on).
const ADR_MODES: [(CoherenceMode, bool); 4] = [
    (FullCoh, false),
    (PageTable, false),
    (Raccd, false),
    (Raccd, true),
];

pub(super) fn fig9_10_cells(ctx: &Ctx) -> Vec<Cell> {
    ctx.matrix(&ADR_MODES, &[1])
}

/// Figures 9 & 10: performance and directory dynamic energy with Adaptive
/// Directory Reduction — FullCoh 1:1, PT 1:1, RaCCD 1:1 and RaCCD+ADR,
/// normalised to FullCoh 1:1 per benchmark.
pub(super) fn fig9_10(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 9: normalised performance with adaptive directory reduction"
    )?;
    writeln!(out, "benchmark\tFullCoh\tPT\tRaCCD\tRaCCD+ADR\treconfigs")?;
    let mut perf_rows = Vec::new();
    let mut energy_rows = Vec::new();
    for (b, name) in ctx.names.iter().enumerate() {
        let quad = ADR_MODES.map(|(mode, adr)| &res.get(&ctx.cell(b, mode, 1, adr)).stats);
        let base_cycles = quad[0].cycles as f64;
        let base_energy = dir_energy_pj(quad[0], ctx.cfg.ncores).max(1e-12);
        let perf = quad.map(|s| s.cycles as f64 / base_cycles);
        let energy = quad.map(|s| (dir_energy_pj(s, ctx.cfg.ncores) / base_energy).max(0.0));
        writeln!(out, "{}\t{}", row(name, &perf, 3), quad[3].adr_reconfigs)?;
        perf_rows.push(perf.to_vec());
        energy_rows.push(energy.to_vec());
    }
    writeln!(out, "{}\t-", row("Average", &col_means(&perf_rows), 3))?;
    writeln!(
        out,
        "# paper: RaCCD+ADR ≈ RaCCD 1:1 (<2% avg difference vs FullCoh, Kmeans excepted)"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "# Figure 10: normalised directory dynamic energy with ADR"
    )?;
    writeln!(out, "benchmark\tFullCoh\tPT\tRaCCD\tRaCCD+ADR")?;
    for (name, e) in ctx.names.iter().zip(&energy_rows) {
        writeln!(out, "{}", row(name, e, 3))?;
    }
    writeln!(out, "{}", row("Average", &col_means(&energy_rows), 3))?;
    writeln!(
        out,
        "# paper: ADR saves 50% vs RaCCD 1:1, 72% vs PT 1:1, 86% vs FullCoh 1:1"
    )
}

/// NCRT lookup latencies of the §V-C sensitivity study, in cycles.
const NCRT_LATENCIES: [u64; 6] = [0, 1, 2, 3, 5, 10];

fn ncrt_latency_cell(ctx: &Ctx, bench: usize, lat: u64) -> Cell {
    let mut cell = ctx.cell(bench, Raccd, 1, false);
    cell.spec = with(cell.spec, "ncrt_lat", lat);
    cell
}

pub(super) fn overheads_cells(ctx: &Ctx) -> Vec<Cell> {
    (0..ctx.names.len())
        .flat_map(|b| NCRT_LATENCIES.map(|lat| ncrt_latency_cell(ctx, b, lat)))
        .collect()
}

/// §V-C "RaCCD Overheads": NCRT latency sensitivity and storage costs.
pub(super) fn overheads(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "# NCRT latency sensitivity (RaCCD, 1:1): cycles normalised to ncrt=0"
    )?;
    let header: Vec<String> = NCRT_LATENCIES.iter().map(|l| format!("{l}c")).collect();
    writeln!(out, "benchmark\t{}", header.join("\t"))?;
    let mut rows = Vec::new();
    for (b, name) in ctx.names.iter().enumerate() {
        let cycles =
            NCRT_LATENCIES.map(|lat| res.get(&ncrt_latency_cell(ctx, b, lat)).stats.cycles as f64);
        let norm = cycles.map(|c| c / cycles[0]);
        writeln!(out, "{}", row(name, &norm, 4))?;
        rows.push(norm.to_vec());
    }
    writeln!(out, "{}", row("Average", &col_means(&rows), 4))?;
    writeln!(
        out,
        "# paper: 1c → +0.1%, 2c → +0.5%, 3c → +0.7%, 5c → +1.2%, 10c → +3.5%"
    )?;
    writeln!(out)?;

    let cfg = &ctx.cfg;
    let ncrt_bits = cfg.ncores as u64 * cfg.ncrt_entries as u64 * 2 * 42;
    let l1_lines = cfg.ncores as u64 * cfg.l1_bytes / 64;
    writeln!(out, "# Storage overheads")?;
    writeln!(
        out,
        "NCRTs total: {:.2} KB ({} cores x {} entries x 2 x 42-bit addresses)",
        ncrt_bits as f64 / 8.0 / 1024.0,
        cfg.ncores,
        cfg.ncrt_entries
    )?;
    writeln!(
        out,
        "NC bits total: {:.2} KB (1 bit x {} L1 lines)",
        l1_lines as f64 / 8.0 / 1024.0,
        l1_lines
    )?;
    writeln!(out, "# paper: 5.25 KB of NCRTs, 1 KB of NC bits")
}

/// The four runs per benchmark the energy report compares.
const ENERGY_POINTS: [(CoherenceMode, usize); 4] =
    [(FullCoh, 1), (Raccd, 1), (FullCoh, 256), (Raccd, 256)];

pub(super) fn energy_cells(ctx: &Ctx) -> Vec<Cell> {
    (0..ctx.names.len())
        .flat_map(|b| ENERGY_POINTS.map(|(mode, ratio)| ctx.cell(b, mode, ratio, false)))
        .collect()
}

/// §V-A5 component-energy report: full-processor dynamic-energy breakdown
/// (directory / LLC / NoC / rest) for FullCoh and RaCCD at 1:1 and 1:256,
/// plus RaCCD's component savings.
pub(super) fn energy_report(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    let cfg = &ctx.cfg;
    let llc_kib = (cfg.llc_entries_total() * 64) as f64 / 1024.0;
    let model = EnergyModel::default();
    let quads: Vec<[EnergyBreakdown; 4]> = (0..ctx.names.len())
        .map(|b| {
            ENERGY_POINTS.map(|(mode, ratio)| {
                let s = &res.get(&ctx.cell(b, mode, ratio, false)).stats;
                model.breakdown(
                    &dir_hist(s, cfg.ncores),
                    s.llc_hits + s.llc_misses,
                    llc_kib,
                    s.noc_traffic,
                    s.cycles,
                )
            })
        })
        .collect();
    let share = |part: fn(&EnergyBreakdown) -> f64| -> f64 {
        let of_total = |q: &[EnergyBreakdown; 4]| 100.0 * part(&q[0]) / q[0].total_pj();
        mean(&quads.iter().map(of_total).collect::<Vec<_>>())
    };
    writeln!(
        out,
        "# Component dynamic-energy fractions at FullCoh 1:1 (paper: dir 1.55%, NoC 15%, LLC 26%)"
    )?;
    writeln!(
        out,
        "directory {:.2}%  NoC {:.1}%  LLC {:.1}%",
        share(|b| b.directory_pj),
        share(|b| b.noc_pj),
        share(|b| b.llc_pj)
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "# RaCCD component savings vs FullCoh (positive = RaCCD lower)"
    )?;
    writeln!(out, "benchmark\tdir@1:1\tnoc@1:256\tllc@1:256")?;
    let saving = |raccd: f64, fullcoh: f64| 100.0 * (1.0 - raccd / fullcoh.max(1e-12));
    let mut savings = Vec::new();
    for (name, [f1, r1, f256, r256]) in ctx.names.iter().zip(&quads) {
        let s = [
            saving(r1.directory_pj, f1.directory_pj),
            saving(r256.noc_pj, f256.noc_pj),
            saving(r256.llc_pj, f256.llc_pj),
        ];
        writeln!(out, "{}", row(name, &s, 1))?;
        savings.push(s[1..].to_vec());
    }
    writeln!(out, "{}", row("Average\t-", &col_means(&savings), 1))?;
    writeln!(
        out,
        "# paper: at 1:256 RaCCD saves 35% of NoC and 19% of LLC dynamic energy"
    )
}
