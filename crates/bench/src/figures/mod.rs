//! Simulate once, render many: every paper table, figure and ablation is
//! a [`Study`] — a list of [`Cell`]s it needs and a renderer over the
//! finished [`Results`]. [`simulate`] takes the union of the selected
//! studies' cells, drops duplicates and runs each distinct one once on
//! the campaign worker pool; the renderers all read the same store.
//!
//! The store is deliberately not the campaign ledger: a `JobDigest` keeps
//! a digest, the renderers need the full `Stats` and the census.

mod ablations;
mod paper;

use crate::cli::Cli;
use crate::{bench_names, write_telemetry};
use raccd_campaign::{JobSpec, PoolTask, WorkerPool};
use raccd_core::{CoherenceMode, Experiment, RunResult};
use raccd_obs::{Recorder, RecorderConfig};
use raccd_sim::MachineConfig;
use raccd_workloads::all_benchmarks;
use std::collections::{HashMap, HashSet};
use std::fmt::Display;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One simulation a study asks for: a campaign line, so
/// `campaign --spec "<line> seeds=1..1"` reruns it.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Benchmark, scale, system and machine; its machine is
    /// [`JobSpec::machine_config`].
    pub spec: JobSpec,
    /// Which independent execution of this line the study wants.
    /// Everything uses 0 and shares one run; the determinism check asks
    /// for 0 and 1, the one way to get two real runs of the same machine.
    pub rep: u32,
}

impl Cell {
    /// Store key: the spec's canonical line plus the repetition.
    pub fn key(&self) -> String {
        format!("{}#{}", self.spec.canonical(), self.rep)
    }

    /// `<bench>_<mode>_1-<ratio>[_adr]`, the stem of a telemetry directory.
    fn stem(&self) -> String {
        let s = &self.spec;
        let adr = if s.adr { "_adr" } else { "" };
        format!("{}_{}_1-{}{adr}", s.bench, s.mode, s.ratio)
    }
}

/// `spec` with knob `key` set to a value the study knows the grammar
/// takes. Only for the ten keys past the typed fields, which a study
/// assigns directly.
fn with(mut spec: JobSpec, key: &str, value: impl Display) -> JobSpec {
    let value = value.to_string();
    spec.set(key, &value)
        .unwrap_or_else(|e| panic!("{key}={value}: {e}"));
    spec
}

/// The finished simulations of one [`simulate`] call, by [`Cell::key`].
pub struct Results {
    map: HashMap<String, RunResult>,
    executed: usize,
}

impl Results {
    /// The run a cell asked for. Panics on a cell that was never passed
    /// to [`simulate`]: a study's renderer read what its `cells` did not
    /// list.
    pub fn get(&self, cell: &Cell) -> &RunResult {
        let key = cell.key();
        self.map
            .get(&key)
            .unwrap_or_else(|| panic!("cell {key} was rendered but never requested"))
    }

    /// How many simulations actually ran.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Deterministic FNV-1a checksum over the protocol-visible counters
    /// of `cells`, folded in that order (`tests/fig7_golden.rs` pins the
    /// fig7 sweep's value as a golden).
    pub fn checksum(&self, cells: &[Cell]) -> u64 {
        let folded: Vec<u8> = cells
            .iter()
            .flat_map(|c| self.get(c).stats.protocol_counters_le())
            .collect();
        raccd_snap::fnv1a64(&folded)
    }
}

/// Run every distinct cell of `cells` once, as wide as the host, and
/// return the store. The evaluation matrix is embarrassingly parallel
/// across simulations, so cells fan out over the campaign worker pool
/// (each worker builds its own workload instance; simulations never
/// share state). With `telemetry: Some(dir)` each simulation
/// runs with a [`Recorder`] attached and writes the standard artifact
/// set into `dir/NNN_<bench>_<mode>_1-<ratio>[_adr]/`, `NNN` counting
/// distinct cells in request order. A cell that panics (verification
/// failure, simulator bug) is captured by the pool and re-raised here
/// with its label.
pub fn simulate(cells: &[Cell], telemetry: Option<&Path>) -> Results {
    let mut seen = HashSet::new();
    let distinct: Vec<&Cell> = cells.iter().filter(|c| seen.insert(c.key())).collect();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(distinct.len().max(1));
    let pool = WorkerPool::new(threads, distinct.len().max(1));
    // Per-slot locks instead of one collector mutex: a panicking cell can
    // never poison a sibling's result.
    let slots: Arc<Vec<Mutex<Option<RunResult>>>> =
        Arc::new(distinct.iter().map(|_| Mutex::new(None)).collect());
    let executed = Arc::new(AtomicUsize::new(0));

    let tasks: Vec<PoolTask> = distinct
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            let slots = Arc::clone(&slots);
            let executed = Arc::clone(&executed);
            let sub = telemetry.map(|dir| dir.join(format!("{i:03}_{}", cell.stem())));
            let spec = cell.spec.clone();
            let adr = if spec.adr { " adr" } else { "" };
            PoolTask {
                label: format!("{} [{} 1:{}{adr}]", spec.bench, spec.mode, spec.ratio),
                run: Box::new(move |_| {
                    let out = run_cell(&spec, sub.as_deref());
                    executed.fetch_add(1, Ordering::Relaxed);
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
            "{} of {} simulations failed:\n{}",
            panics.len(),
            distinct.len(),
            lines.join("\n")
        );
    }
    drop(pool);
    let map = distinct
        .iter()
        .zip(slots.iter())
        .map(|(cell, slot)| {
            let run = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            (cell.key(), run.expect("pool drained, so every cell ran"))
        })
        .collect();
    Results {
        map,
        executed: executed.load(Ordering::Relaxed),
    }
}

/// Simulate one cell's line (with optional telemetry capture) and verify
/// it.
fn run_cell(spec: &JobSpec, telemetry: Option<&Path>) -> RunResult {
    let idx = spec
        .bench_idx()
        .expect("a study names a benchmark of its scale");
    let w = &all_benchmarks(spec.scale)[idx];
    let mut cfg = spec.machine_config();
    cfg.record_events |= telemetry.is_some();
    let mut rec = telemetry.map(|_| Recorder::new(RecorderConfig::default()));
    let result = Experiment::new(cfg, spec.mode).run_with_recorder(w.as_ref(), rec.as_mut());
    if let (Some(rec), Some(dir)) = (&rec, telemetry) {
        write_telemetry(rec, dir)
            .unwrap_or_else(|e| panic!("writing telemetry to {}: {e}", dir.display()));
    }
    assert!(
        result.verified,
        "{} [{} 1:{}] failed verification: {:?}",
        w.name(),
        spec.mode,
        cfg.dir_ratio,
        result.verify_error
    );
    result
}

/// The `# machine:` line heading every output that simulates: which
/// protocol/topology/scheduler variant produced the numbers (`#`-prefixed
/// so data consumers skip it).
pub fn machine_header(cfg: &MachineConfig) -> String {
    format!(
        "# machine: protocol={} topology={} sched={} ncores={}\n",
        cfg.protocol.label(),
        cfg.topology.label(),
        cfg.sched.label(),
        cfg.ncores,
    )
}

/// What a study sees of the command line.
pub struct Ctx {
    /// The base machine every cell of every study derives from, as a line
    /// without a benchmark ([`Cli::spec`]).
    pub spec: JobSpec,
    /// Its machine, for renderers that read the geometry.
    pub cfg: MachineConfig,
    /// Benchmark names at `scale`, in paper order.
    pub names: Vec<String>,
    /// The study's sections to produce (all of them unless the command
    /// line named some).
    pub sections: Vec<&'static str>,
    /// `--chart`: append terminal bar charts where the study has them.
    pub chart: bool,
}

impl Ctx {
    /// Benchmark `bench` (an index into [`Ctx::names`]) on `machine`, a
    /// line without a benchmark.
    fn run(&self, mut machine: JobSpec, bench: usize, rep: u32) -> Cell {
        machine.bench.clone_from(&self.names[bench]);
        Cell { spec: machine, rep }
    }

    /// The base machine at directory ratio `1:ratio`, ADR on or off.
    pub fn cell(&self, bench: usize, mode: CoherenceMode, ratio: usize, adr: bool) -> Cell {
        let mut machine = self.spec.clone();
        (machine.mode, machine.ratio, machine.adr) = (mode, ratio, adr);
        self.run(machine, bench, 0)
    }

    /// Every benchmark × (mode, adr) × ratio, benchmark slowest-varying.
    fn matrix(&self, modes: &[(CoherenceMode, bool)], ratios: &[usize]) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.names.len() * modes.len() * ratios.len());
        for b in 0..self.names.len() {
            for &(mode, adr) in modes {
                cells.extend(ratios.iter().map(|&r| self.cell(b, mode, r, adr)));
            }
        }
        cells
    }
}

/// One paper artefact: the cells it needs and how it prints them.
pub struct Study {
    /// Name on the command line and of the `--out` file.
    pub name: &'static str,
    /// Section selectors the study understands (`fig7 accesses`).
    pub sections: &'static [&'static str],
    /// The simulations the study reads, in any order, duplicates allowed.
    pub cells: fn(&Ctx) -> Vec<Cell>,
    /// Print the study from a store holding at least `cells`.
    pub render: fn(&Ctx, &Results, &mut dyn Write) -> io::Result<()>,
}

const fn study(
    name: &'static str,
    sections: &'static [&'static str],
    cells: fn(&Ctx) -> Vec<Cell>,
    render: fn(&Ctx, &Results, &mut dyn Write) -> io::Result<()>,
) -> Study {
    Study {
        name,
        sections,
        cells,
        render,
    }
}

/// Every study, in paper order: name, section selectors, cells, renderer.
pub static STUDIES: [Study; 11] = [
    study("table1", &[], paper::no_cells, paper::table1),
    study("table2", &[], paper::no_cells, paper::table2),
    study("table3", &[], paper::no_cells, paper::table3),
    study("fig2", &[], paper::fig2_cells, paper::fig2),
    study("fig6", &[], paper::sweep_cells, paper::fig6),
    study(
        "fig7",
        &paper::FIG7_SECTIONS,
        paper::sweep_cells,
        paper::fig7,
    ),
    study("fig8", &[], paper::fig8_cells, paper::fig8),
    study("fig9_10", &[], paper::fig9_10_cells, paper::fig9_10),
    study("overheads", &[], paper::overheads_cells, paper::overheads),
    study(
        "energy_report",
        &[],
        paper::energy_cells,
        paper::energy_report,
    ),
    study(
        "ablations",
        &ablations::SECTION_NAMES,
        ablations::cells,
        ablations::render,
    ),
];

/// A study picked by the command line, with its context.
pub struct Selected {
    /// The study-table row.
    pub study: &'static Study,
    /// Its view of the command line.
    pub ctx: Ctx,
}

impl Selected {
    /// The study's cells.
    pub fn cells(&self) -> Vec<Cell> {
        (self.study.cells)(&self.ctx)
    }

    /// The study's text: a `# machine:` header recording which variant
    /// produced the numbers (studies that simulate nothing have none),
    /// then the study itself.
    pub fn render(&self, results: &Results) -> Vec<u8> {
        let mut out = Vec::new();
        if !self.cells().is_empty() {
            out.extend(machine_header(&self.ctx.cfg).bytes());
        }
        (self.study.render)(&self.ctx, results, &mut out).expect("writing to a Vec cannot fail");
        out
    }
}

/// Resolve the positional arguments of `cli` against [`STUDIES`]: each is
/// a study name or a section of a selected study. No study named selects
/// all of them; studies come back in table order.
pub fn select(cli: &Cli) -> Result<Vec<Selected>, String> {
    let args = &cli.positional;
    let named = |s: &Study| args.iter().any(|p| p == s.name);
    let all = !STUDIES.iter().any(named);
    let picked: Vec<&'static Study> = STUDIES.iter().filter(|s| all || named(s)).collect();
    let known = |p: &str| {
        picked
            .iter()
            .any(|s| s.name == p || s.sections.contains(&p))
    };
    if let Some(p) = args.iter().find(|p| !known(p)) {
        let valid: Vec<String> = STUDIES
            .iter()
            .map(|s| match s.sections {
                [] => s.name.to_string(),
                sections => format!("{} [{}]", s.name, sections.join("|")),
            })
            .collect();
        return Err(format!(
            "`{p}` is neither a study nor a section of a selected study (valid: {})",
            valid.join(" ")
        ));
    }
    let selected = |study: &'static Study| {
        let given = |s: &&str| args.iter().any(|p| p == s);
        let mut sections: Vec<&str> = study.sections.iter().copied().filter(given).collect();
        if sections.is_empty() {
            sections = study.sections.to_vec();
        }
        let ctx = Ctx {
            spec: cli.spec.clone(),
            cfg: cli.spec.machine_config(),
            names: bench_names(cli.spec.scale),
            sections,
            chart: cli.has("--chart"),
        };
        Selected { study, ctx }
    };
    Ok(picked.into_iter().map(selected).collect())
}
