//! The docs, the figure script and the CI workflow name binaries, tests,
//! examples and `figures` studies by hand; this test fails when one of
//! those names no longer has a source file or a row in the study table,
//! when a doc cites a `BENCH_<n>.json` performance file or a `cargo
//! bench` target that does not exist (the repo benchmark under
//! `benchmark/` is the only measurement of record), when the telemetry
//! schema declares an event kind DESIGN.md §7 does not list, or when a
//! fault spec key has no row in DESIGN.md §9's table.

use std::fs;
use std::path::{Path, PathBuf};

/// Files whose `--bin` / `--test` / `--example` / `$B/` references and
/// `figures` study names must resolve.
const COMMAND_DOCS: [&str; 7] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
    "run_figures.sh",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The leading identifier of `s` (`perf` from ``perf`,``), or "" for a
/// placeholder such as `<name>` or `$f`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Every binary the docs run lives in `crates/bench/src/bin/`.
fn bin_exists(name: &str) -> bool {
    root()
        .join("crates/bench/src/bin")
        .join(format!("{name}.rs"))
        .exists()
}

/// Does `<dir>/NAME.rs` or `crates/*/<dir>/NAME.rs` exist?
fn target_exists(dir: &str, name: &str) -> bool {
    let file = format!("{name}.rs");
    if root().join(dir).join(&file).exists() {
        return true;
    }
    fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .any(|krate| krate.path().join(dir).join(&file).exists())
}

#[test]
fn named_bins_tests_and_examples_exist() {
    let mut missing = Vec::new();
    for doc in COMMAND_DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let tokens: Vec<&str> = text.split_whitespace().collect();
        for (i, tok) in tokens.iter().enumerate() {
            let next = ident(tokens.get(i + 1).copied().unwrap_or(""));
            // `--bench NAME` may select a workload (`trace --bench Jacobi`):
            // `bench_flags_name_a_workload_or_a_bench_target` checks it.
            let dangling = match *tok {
                "--bin" => !bin_exists(next),
                "--test" => !target_exists("tests", next),
                "--example" => !target_exists("examples", next),
                _ => false,
            };
            if dangling && !next.is_empty() {
                missing.push(format!("{doc}: {tok} {next}"));
            }
            for (at, _) in tok.match_indices("$B/") {
                let name = ident(&tok[at + 3..]);
                if !name.is_empty() && !bin_exists(name) {
                    missing.push(format!("{doc}: $B/{name}"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "dangling references:\n{missing:#?}");
}

/// The study and section names that follow each `figures --` (or README's
/// `$F` shorthand for it) in `text`, up to the first flag, placeholder or
/// comment.
fn figures_arguments(text: &str) -> Vec<&str> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut names = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let bare = tok.trim_start_matches(|c: char| !c.is_ascii_alphanumeric() && c != '$');
        let invoked = bare == "$F" || (bare == "figures" && tokens.get(i + 1) == Some(&"--"));
        if !invoked {
            continue;
        }
        let skip = if bare == "$F" { 1 } else { 2 };
        for arg in tokens[i + skip..].iter().filter(|a| **a != "\\") {
            let name = ident(arg);
            if name.is_empty() {
                break;
            }
            names.push(name);
            if name.len() < arg.len() {
                break;
            }
        }
    }
    names
}

#[test]
fn figures_studies_named_in_docs_are_rows_of_the_study_table() {
    let known = |name: &str| {
        raccd_bench::figures::STUDIES
            .iter()
            .any(|s| s.name == name || s.sections.contains(&name))
    };
    let mut checked = 0;
    let mut unknown = Vec::new();
    for doc in COMMAND_DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for name in figures_arguments(&text) {
            checked += 1;
            if !known(name) {
                unknown.push(format!("{doc}: figures -- {name}"));
            }
        }
    }
    assert!(unknown.is_empty(), "unknown studies:\n{unknown:#?}");
    // The README block alone lists every study once.
    assert!(checked >= raccd_bench::figures::STUDIES.len(), "{checked}");
}

/// Every source, script and doc file under `dir`, skipping build output,
/// hidden directories other than `.github`/`.claude`, and `benchmark/`
/// (its README keeps the history of the old files).
fn text_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("directory is readable").flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            let hidden = name.starts_with('.') && name != ".github" && name != ".claude";
            if !hidden && name != "target" && name != "benchmark" {
                text_files(&path, out);
            }
        } else if ["md", "sh", "yml", "rs", "toml"]
            .iter()
            .any(|ext| path.extension().is_some_and(|e| e == *ext))
        {
            out.push(path);
        }
    }
}

#[test]
fn no_doc_cites_a_bench_n_json_file() {
    // The planning files record history and may name the old files; this
    // file has to spell the pattern.
    let exempt =
        ["CHANGES.md", "ROADMAP.md", "ISSUE.md", "tests/docs_refs.rs"].map(|p| root().join(p));
    let mut files = Vec::new();
    text_files(root(), &mut files);
    let mut hits = Vec::new();
    for path in files.iter().filter(|p| !exempt.contains(p)) {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for (n, line) in text.lines().enumerate() {
            let cites = line.match_indices("BENCH_").any(|(at, m)| {
                let rest = &line[at + m.len()..];
                rest.starts_with(|c: char| c.is_ascii_digit())
                    || ["<n>", "*", "ci"].iter().any(|s| rest.starts_with(s))
            });
            if cites {
                hits.push(format!("{}:{}: {line}", path.display(), n + 1));
            }
        }
    }
    assert!(hits.is_empty(), "stale BENCH file citations:\n{hits:#?}");
}

#[test]
fn bench_flags_name_a_workload_or_a_bench_target() {
    // `cargo bench` needs a `benches/NAME.rs` to run; `--bench NAME` is
    // either that or the workload list of a bench binary.
    let exempt = ["CHANGES.md", "ROADMAP.md", "ISSUE.md"].map(|p| root().join(p));
    let workloads: Vec<String> = raccd_workloads::all_benchmarks(raccd_workloads::Scale::Test)
        .iter()
        .map(|w| w.name().to_ascii_lowercase())
        .collect();
    let any_bench_target = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .any(|krate| krate.path().join("benches").exists());
    let mut files = Vec::new();
    text_files(root(), &mut files);
    let docs = files
        .iter()
        .filter(|p| !exempt.contains(p) && p.extension().is_some_and(|e| e != "rs" && e != "toml"));
    let (mut checked, mut hits) = (0, Vec::new());
    for path in docs {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for (n, line) in text.lines().enumerate() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let cargo_bench = tokens
                .windows(2)
                .any(|w| w[0].ends_with("cargo") && w[1] == "bench");
            let mut dangling = cargo_bench && !any_bench_target;
            for w in tokens.windows(2).filter(|w| w[0] == "--bench") {
                checked += 1;
                dangling |= !w[1].split(',').map(ident).all(|name| {
                    name.is_empty()
                        || target_exists("benches", name)
                        || (!cargo_bench && workloads.contains(&name.to_ascii_lowercase()))
                });
            }
            if dangling {
                hits.push(format!("{}:{}: {line}", path.display(), n + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "no such bench target or workload:\n{hits:#?}"
    );
    assert!(
        checked >= 10,
        "the docs run `--bench Jacobi` more often: {checked}"
    );
}

/// DESIGN.md's section `n`, up to section `n + 1`.
fn design_section(n: u32) -> String {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md is readable");
    let start = design
        .find(&format!("\n## {n}. "))
        .expect("DESIGN.md has the section");
    let len = design[start..]
        .find(&format!("\n## {}. ", n + 1))
        .expect("and the next one");
    design[start..start + len].to_string()
}

#[test]
fn every_declared_event_kind_is_listed_in_design_section_7() {
    use raccd::obs::{CampaignAction, Event};
    use raccd::sim::CoherenceEvent;
    let section = design_section(7);
    let campaign = CampaignAction::ALL.map(CampaignAction::kind);
    let kinds = Event::KINDS
        .iter()
        .chain(CoherenceEvent::KINDS)
        .chain(&campaign);
    let missing: Vec<_> = kinds
        .filter(|k| !section.contains(&format!("`{k}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "kinds DESIGN.md §7 does not list: {missing:?}"
    );
}

#[test]
fn every_fault_spec_key_is_a_row_of_design_section_9() {
    let section = design_section(9);
    let missing: Vec<_> = raccd_fault::SPEC_KEYS
        .iter()
        .map(|key| key.name)
        .filter(|name| !section.contains(&format!("\n| `{name}` |")))
        .collect();
    assert!(
        missing.is_empty(),
        "fault spec keys DESIGN.md §9's table does not list: {missing:?}"
    );
}
