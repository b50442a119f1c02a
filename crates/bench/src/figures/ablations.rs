//! Ablation studies for the design choices DESIGN.md calls out. Each
//! section varies one knob with everything else at the base machine and
//! reports the average over a migration-heavy benchmark subset:
//!
//! * `ncrt`  — NCRT capacity 4/8/16/32/64 entries: how much coverage is
//!   lost to overflow (§III-C2's "if no space is available ... accesses
//!   happen as in the baseline").
//! * `wt`    — write-back vs write-through private caches (§III-C3):
//!   recovery-flush cost vs per-store traffic.
//! * `adr`   — ADR hysteresis thresholds (paper: θ_inc 80 %, θ_dec 20 %):
//!   reconfiguration count vs energy saving.
//! * `stack` — unannotated per-task scratch traffic: the knob that sets
//!   RaCCD's residual directory-access floor.
//! * `smt`   — 2-way SMT with selective vs whole-cache `raccd_invalidate`
//!   (§III-E).
//! * `tlb`, `sched`, `contention` — the TLB classifier, the scheduler
//!   policies and bank-contention modelling against the paper systems.
//! * `jitterless` — determinism: two real runs of the same machine must
//!   agree exactly.

use super::paper::dir_energy_pj;
use super::{with, Cell, Ctx, Results};
use crate::mean;
use raccd_campaign::JobSpec;
use raccd_core::CoherenceMode::{self, FullCoh, PageTable, Raccd};
use raccd_core::RunResult;
use raccd_sim::{MachineConfig, SchedKind};
use std::io::{self, Write};

/// Benchmarks used for ablations (a migration-heavy subset keeps runtime
/// reasonable: Jacobi, Kmeans, Histo).
const ABLATION_BENCHES: [usize; 3] = [3, 5, 2];

/// The section selectors, in output order.
pub(super) const SECTION_NAMES: [&str; 9] = [
    "ncrt",
    "wt",
    "adr",
    "stack",
    "smt",
    "tlb",
    "sched",
    "contention",
    "jitterless",
];

/// One machine variant of a section, simulated on every ablation
/// benchmark: a line without a benchmark.
struct Variant {
    label: String,
    spec: JobSpec,
}

/// `spec` under `mode`, labelled `label`.
fn variant(label: impl ToString, mode: CoherenceMode, mut spec: JobSpec) -> Variant {
    spec.mode = mode;
    let label = label.to_string();
    Variant { label, spec }
}

impl Variant {
    fn cells(&self, ctx: &Ctx, rep: u32) -> [Cell; 3] {
        ABLATION_BENCHES.map(|bench| ctx.run(self.spec.clone(), bench, rep))
    }

    fn runs<'a>(&self, ctx: &Ctx, res: &'a Results) -> [&'a RunResult; 3] {
        self.cells(ctx, 0).map(|c| res.get(&c))
    }
}

/// A per-run quantity; the second argument is the base machine.
type Metric = fn(&RunResult, &MachineConfig) -> f64;

const CYCLES: Metric = |r, _| r.stats.cycles as f64;
const DIR_ACCESSES: Metric = |r, _| r.stats.dir_accesses as f64;
const NC_PCT: Metric = |r, _| r.census.noncoherent_pct();

/// A column of a section's table: its header and what it shows of a
/// variant's runs.
enum Col {
    /// Mean over the ablation benchmarks, with this many decimals.
    Avg(&'static str, usize, Metric),
    /// That mean relative to the reference variant's.
    Rel(&'static str, usize, Metric),
    /// Integer total over the ablation benchmarks.
    Sum(&'static str, fn(&RunResult) -> u64),
}
use Col::{Avg, Rel, Sum};

/// One knob varied with everything else at the base machine, as a table
/// with a row per variant.
struct Section {
    title: &'static str,
    /// Header of the variant-label column(s).
    label: &'static str,
    cols: &'static [Col],
    variants: fn(&JobSpec) -> Vec<Variant>,
    /// The variant `Rel` columns are relative to, and whether it gets a
    /// row of its own.
    reference: (usize, bool),
    /// Comment lines closing the section.
    notes: &'static [&'static str],
}

/// The table sections, in [`SECTION_NAMES`] order (`jitterless`, a check
/// rather than a table, follows them).
static TABLES: [Section; 8] = [
    Section {
        title: "NCRT capacity (RaCCD 1:1; cycles + overflow events, avg of Jacobi/Kmeans/Histo)",
        label: "entries",
        cols: &[
            Rel("cycles_vs_32", 4, CYCLES),
            Sum("overflows", |r| r.stats.ncrt_overflows),
            Rel("dir_accesses_vs_32", 3, DIR_ACCESSES),
        ],
        variants: |base| {
            [4, 8, 16, 32, 64]
                .map(|n| variant(n, Raccd, with(base.clone(), "ncrt", n)))
                .into()
        },
        reference: (3, true),
        notes: &[],
    },
    Section {
        title: "L1 write policy under RaCCD (1:1)",
        label: "policy",
        cols: &[
            Avg("cycles", 0, CYCLES),
            Avg("l1_writebacks", 0, |r, _| r.stats.l1_writebacks as f64),
            Avg("write_throughs", 0, |r, _| r.stats.write_throughs as f64),
            Avg("noc_traffic", 0, |r, _| r.stats.noc_traffic as f64),
            Avg("invalidate_cycles", 0, |r, _| {
                r.stats.invalidate_cycles as f64
            }),
        ],
        variants: |base| {
            [("write-back", 0), ("write-through", 1)]
                .map(|(label, wt)| variant(label, Raccd, with(base.clone(), "wt", wt)))
                .into()
        },
        reference: (0, true),
        notes: &[],
    },
    Section {
        title: "ADR hysteresis thresholds (RaCCD, 1:1 design size)",
        label: "theta_inc/dec",
        cols: &[
            Rel("cycles_vs_fixed", 4, CYCLES),
            Sum("reconfigs", |r| r.stats.adr_reconfigs),
            Rel("dir_energy_vs_fixed", 3, |r, base| {
                dir_energy_pj(&r.stats, base.ncores)
            }),
        ],
        variants: |base| {
            let mut vs = vec![variant("fixed", Raccd, base.clone())];
            for (inc, dec) in [(0.9, 0.1), (0.8, 0.2), (0.7, 0.3), (0.6, 0.4)] {
                let mut spec = with(base.clone(), "theta_inc", inc);
                spec.adr = true;
                let spec = with(spec, "theta_dec", dec);
                vs.push(variant(format!("{inc:.1}/{dec:.1}"), Raccd, spec));
            }
            vs
        },
        reference: (0, false),
        notes: &[
            "paper: 80%/20% gives \"good reaction time with a reduced number of reconfigurations\"",
        ],
    },
    Section {
        title: "unannotated per-task stack traffic (RaCCD 1:1)",
        label: "stack_words",
        cols: &[
            Avg("dir_accesses", 0, DIR_ACCESSES),
            Avg("nc_block_pct", 1, NC_PCT),
        ],
        variants: |base| {
            [0, 16, 64, 256, 1024]
                .map(|words| variant(words, Raccd, with(base.clone(), "stack", words)))
                .into()
        },
        reference: (0, true),
        notes: &[],
    },
    Section {
        title: "2-way SMT invalidation policy (RaCCD 1:1, §III-E)",
        label: "policy",
        cols: &[
            Avg("cycles", 0, CYCLES),
            Avg("nc_lines_flushed", 0, |r, _| {
                r.stats.nc_lines_flushed as f64
            }),
            Avg("l1_hit_ratio", 4, |r, _| r.stats.l1_hit_ratio()),
        ],
        variants: |base| {
            [("selective", 1), ("full-flush", 0)]
                .map(|(label, selective)| {
                    let spec = with(with(base.clone(), "smt", 2), "smt_flush", selective);
                    variant(label, Raccd, spec)
                })
                .into()
        },
        reference: (0, true),
        notes: &[],
    },
    Section {
        title: "TLB-based classifier (§II-B extension) vs paper systems",
        label: "mode",
        cols: &[
            Avg("cycles", 0, CYCLES),
            Avg("dir_accesses", 0, DIR_ACCESSES),
            Avg("nc_pct", 1, NC_PCT),
            Avg("flush_lines", 0, |r, _| r.stats.pt_flush_lines as f64),
        ],
        variants: |base| {
            CoherenceMode::EXTENDED
                .map(|mode| variant(mode, mode, base.clone()))
                .into()
        },
        reference: (0, true),
        notes: &[
            "TLB approaches recover temporarily-private data like RaCCD but pay",
            "broadcast resolutions + TLB-L1 inclusivity flushes (flush_lines).",
        ],
    },
    Section {
        title: "scheduler policy (locality vs migration, §II-B premise)",
        label: "policy\tmode",
        cols: &[
            Avg("cycles", 0, CYCLES),
            Avg("migrations", 0, |r, _| r.stats.task_migrations as f64),
            Avg("nc_pct", 1, NC_PCT),
        ],
        variants: |base| {
            let mut vs = Vec::new();
            for policy in SchedKind::ALL {
                for mode in [PageTable, Raccd] {
                    let label = format!("{policy}\t{mode}");
                    let mut spec = base.clone();
                    spec.sched = policy;
                    vs.push(variant(label, mode, spec));
                }
            }
            vs
        },
        reference: (0, true),
        notes: &["PT depends on scheduler locality; RaCCD does not (§II-B)."],
    },
    Section {
        title: "bank-contention modelling (RaCCD vs FullCoh at 1:1 and 1:256)",
        label: "model\tmode\tratio",
        cols: &[
            Avg("cycles", 0, CYCLES),
            Avg("bank_wait_cycles", 0, |r, _| {
                r.stats.bank_wait_cycles as f64
            }),
        ],
        variants: |base| {
            let mut vs = Vec::new();
            for (label, contention) in [("ideal", 0), ("queued", 1)] {
                for (mode, ratio) in [(FullCoh, 1usize), (FullCoh, 256), (Raccd, 256)] {
                    let mut spec = with(base.clone(), "contention", contention);
                    spec.ratio = ratio;
                    vs.push(variant(format!("{label}\t{mode}\t1:{ratio}"), mode, spec));
                }
            }
            vs
        },
        reference: (0, true),
        notes: &[],
    },
];

impl Section {
    fn render(&self, ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "# Ablation: {}", self.title)?;
        write!(out, "{}", self.label)?;
        for col in self.cols {
            let (Avg(name, ..) | Rel(name, ..) | Sum(name, _)) = col;
            write!(out, "\t{name}")?;
        }
        writeln!(out)?;
        let variants = (self.variants)(&ctx.spec);
        let avg = |v: &Variant, m: Metric| mean(&v.runs(ctx, res).map(|r| m(r, &ctx.cfg)));
        let (reference, shown) = self.reference;
        for (i, v) in variants.iter().enumerate() {
            if i == reference && !shown {
                continue;
            }
            write!(out, "{}", v.label)?;
            for col in self.cols {
                match *col {
                    Avg(_, prec, m) => write!(out, "\t{:.prec$}", avg(v, m))?,
                    Rel(_, prec, m) => {
                        write!(out, "\t{:.prec$}", avg(v, m) / avg(&variants[reference], m))?
                    }
                    Sum(_, f) => write!(out, "\t{}", v.runs(ctx, res).map(f).iter().sum::<u64>())?,
                }
            }
            writeln!(out)?;
        }
        for note in self.notes {
            writeln!(out, "# {note}")?;
        }
        writeln!(out)
    }
}

/// The sections of [`TABLES`] the command line asked for.
fn chosen(ctx: &Ctx) -> impl Iterator<Item = &'static Section> + '_ {
    let wanted = |(name, _): &(&&str, _)| ctx.sections.contains(*name);
    SECTION_NAMES
        .iter()
        .zip(&TABLES)
        .filter(wanted)
        .map(|(_, s)| s)
}

/// `jitterless` runs the base machine twice: `rep` keeps the second
/// request out of the first one's store slot, so both are real runs.
fn jitterless(ctx: &Ctx) -> Option<Variant> {
    ctx.sections
        .contains(&"jitterless")
        .then(|| variant("", Raccd, ctx.spec.clone()))
}

pub(super) fn cells(ctx: &Ctx) -> Vec<Cell> {
    let tables = chosen(ctx).flat_map(|s| (s.variants)(&ctx.spec));
    let mut cells: Vec<Cell> = tables.flat_map(|v| v.cells(ctx, 0)).collect();
    cells.extend(
        jitterless(ctx)
            .iter()
            .flat_map(|v| [v.cells(ctx, 0), v.cells(ctx, 1)].concat()),
    );
    cells
}

pub(super) fn render(ctx: &Ctx, res: &Results, out: &mut dyn Write) -> io::Result<()> {
    for section in chosen(ctx) {
        section.render(ctx, res, out)?;
    }
    if let Some(v) = jitterless(ctx) {
        writeln!(
            out,
            "# Determinism check: two identical runs must agree exactly"
        )?;
        let same = v.cells(ctx, 0).iter().zip(v.cells(ctx, 1)).all(|(a, b)| {
            let (x, y) = (&res.get(a).stats, &res.get(&b).stats);
            x.cycles == y.cycles && x.dir_accesses == y.dir_accesses
        });
        writeln!(out, "identical: {same}")?;
        assert!(same, "two runs of one machine disagree");
    }
    Ok(())
}
