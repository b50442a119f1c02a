//! The simulate-once-render-many contract of `raccd_bench::figures`, at
//! test scale: sharing a store changes no study's bytes, an all-studies
//! run executes one simulation per distinct cell, and the determinism
//! check still gets two real runs.

use raccd_bench::cli::Cli;
use raccd_bench::figures::{select, simulate, Cell, Results, Selected, STUDIES};
use raccd_campaign::JobSpec;
use std::collections::HashSet;

/// The studies `argv` selects, their pooled cells, and the store.
fn run(argv: &[&str]) -> (Vec<Selected>, Vec<Cell>, Results) {
    let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    let cli = Cli::parse(&argv, &["--scale"], &[]).expect("valid command line");
    let plan = select(&cli).expect("valid study selection");
    let cells: Vec<Cell> = plan.iter().flat_map(Selected::cells).collect();
    let results = simulate(&cells, None);
    (plan, cells, results)
}

fn distinct(cells: &[Cell]) -> usize {
    cells.iter().map(Cell::key).collect::<HashSet<_>>().len()
}

#[test]
fn shared_store_renders_every_study_as_a_run_of_its_own_does() {
    let (all, requested, shared) = run(&["--scale", "test"]);
    assert_eq!(all.len(), STUDIES.len());

    // One simulation per distinct cell, and sharing is what saves work.
    println!(
        "all studies: {} simulations executed for {} requested cells",
        shared.executed(),
        requested.len()
    );
    assert_eq!(shared.executed(), distinct(&requested));
    assert!(shared.executed() < requested.len());

    for selected in &all {
        let name = selected.study.name;
        let (alone, _, own) = run(&[name, "--scale", "test"]);
        assert_eq!(alone.len(), 1, "{name}");
        assert_eq!(
            String::from_utf8(selected.render(&shared)),
            String::from_utf8(alone[0].render(&own)),
            "{name} rendered from the shared store differs from its own run"
        );
    }
}

#[test]
fn jitterless_runs_its_machine_twice() {
    let (plan, cells, results) = run(&["ablations", "jitterless", "--scale", "test"]);
    // Three ablation benchmarks, each asked for twice.
    assert_eq!(cells.len(), 6);
    assert_eq!(results.executed(), 6);
    let machines: HashSet<String> = cells.iter().map(|c| c.spec.canonical()).collect();
    assert_eq!(machines.len(), 3, "two requests per (benchmark, machine)");
    let text = String::from_utf8(plan[0].render(&results)).unwrap();
    assert!(text.ends_with("identical: true\n"), "{text}");
}

#[test]
fn selection_rejects_unknown_names() {
    let select_of = |argv: &[&str]| {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        select(&Cli::parse(&argv, &["--scale"], &[]).unwrap()).map(|plan| plan.len())
    };
    assert_eq!(select_of(&["fig8", "fig2"]), Ok(2));
    assert_eq!(select_of(&["fig7", "accesses", "noc"]), Ok(1));
    // A section alone narrows its study within an all-studies run.
    assert_eq!(select_of(&["jitterless"]), Ok(STUDIES.len()));
    for bad in [&["fig99"][..], &["fig8", "accesses"], &["fig7", "ncrt"]] {
        let err = select_of(bad).expect_err("must be rejected");
        assert!(err.contains("fig7 [accesses|llc|noc|energy]"), "{err}");
    }
}

/// Every cell of every study is a campaign line: at test and at bench
/// scale its line parses back to itself, and the cells name exactly the
/// simulations a figures run executes.
#[test]
fn every_cell_is_a_line_that_parses_back() {
    for scale in ["test", "bench"] {
        let argv = ["--scale", scale].map(String::from);
        let cli = Cli::parse(&argv, &["--scale"], &[]).expect("valid command line");
        let plan = select(&cli).expect("all studies");
        let cells: Vec<Cell> = plan.iter().flat_map(Selected::cells).collect();
        for cell in &cells {
            let line = cell.spec.render();
            let parsed = JobSpec::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.render(), line);
        }
        let lines: HashSet<String> = cells.iter().map(|c| c.spec.canonical()).collect();
        assert_eq!(cells.len(), 681, "{scale}");
        assert_eq!(distinct(&cells), 330, "{scale}");
        // The determinism check's second runs are the only keys that
        // share a line.
        assert_eq!(lines.len(), 330 - 3, "{scale}");
    }
}
