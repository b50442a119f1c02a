//! Outside input that used to panic or be silently rewritten is refused
//! where it is parsed: one `error:` line on stderr, exit status 2, and
//! nothing written to the ledger.

use std::process::{Command, Output};

/// Asserts the run ended on one `error:` line with exit status 2, not a
/// panic, and returns that line.
fn died(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let last = stderr.lines().last().unwrap_or_default().to_string();
    assert!(last.starts_with("error: "), "stderr: {stderr}");
    assert_eq!(stderr.matches("error: ").count(), 1, "stderr: {stderr}");
    last
}

/// Asserts the run was refused as bad input (nothing but the error line
/// on stderr) and returns its error line.
fn refused(out: &Output) -> String {
    let line = died(out);
    assert_eq!(out.stderr.len(), line.len() + 1, "more than the error line");
    line
}

/// A scratch directory of this test process.
fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("raccd-bad-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign binary runs")
}

#[test]
fn campaign_refuses_an_unreadable_spec_file() {
    let dir = scratch_dir();
    let (ledger, file) = (dir.join("no-file.jsonl"), dir.join("absent.specs"));
    let out = campaign(&[
        "--ledger",
        ledger.to_str().unwrap(),
        "--spec-file",
        file.to_str().unwrap(),
    ]);
    let line = refused(&out);
    assert!(
        line.contains("--spec-file") && line.contains("absent.specs"),
        "{line}"
    );
    assert!(!ledger.exists(), "a ledger was written");
}

#[test]
fn campaign_refuses_a_bad_line_inside_a_spec_file() {
    let dir = scratch_dir();
    let (ledger, file) = (dir.join("bad-line.jsonl"), dir.join("bad-line.specs"));
    std::fs::write(
        &file,
        "# a comment\nbench=MD5 scale=test\n\nbench=MD5 scale=test ratio=0\n",
    )
    .unwrap();
    let out = campaign(&[
        "--ledger",
        ledger.to_str().unwrap(),
        "--spec-file",
        file.to_str().unwrap(),
    ]);
    let line = refused(&out);
    assert!(
        line.contains("bad-line.specs") && line.contains("bad ratio `0`"),
        "{line}"
    );
    assert!(!ledger.exists(), "a ledger was written");
}

#[test]
fn campaign_refuses_a_ledger_another_process_holds() {
    let ledger = scratch_dir().join("held.jsonl");
    let held = raccd_campaign::Ledger::open(&ledger).expect("the test holds the ledger");
    let out = campaign(&[
        "--ledger",
        ledger.to_str().unwrap(),
        "--spec",
        "bench=MD5 scale=test",
    ]);
    let line = refused(&out);
    let pid = format!("live pid {}", std::process::id());
    assert!(line.contains("held.jsonl") && line.contains(&pid), "{line}");
    drop(held);
    assert_eq!(
        std::fs::metadata(&ledger).unwrap().len(),
        0,
        "the holder's ledger was written"
    );
}

#[test]
fn campaign_reports_an_unwritable_output_file_without_panicking() {
    let dir = scratch_dir();
    let nowhere = dir.join("no-such-dir").join("out");
    for flag in ["--report", "--events", "--depth-csv"] {
        let ledger = dir.join(format!("unwritable{flag}.jsonl"));
        let _ = std::fs::remove_file(&ledger);
        let out = campaign(&[
            "--ledger",
            ledger.to_str().unwrap(),
            "--spec",
            "bench=MD5 scale=test",
            flag,
            nowhere.to_str().unwrap(),
        ]);
        let line = died(&out);
        assert!(
            line.contains(flag) && line.contains("no-such-dir"),
            "{flag}: {line}"
        );
        // The campaign itself ran and its ledger is whole.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("\"done\":1") && stdout.contains("\"consistent\":true"),
            "{stdout}"
        );
        std::fs::remove_file(&ledger).unwrap();
    }
}

#[test]
fn campaign_refuses_a_malformed_spec_before_the_ledger_exists() {
    let ledger = scratch_dir().join("never.jsonl");
    for (spec, want) in [
        ("bench=Jacobi scale=test ratio=0", "bad ratio `0`"),
        (
            "bench=Jacobi scale=test fault=retry_budget=4294967296",
            "`retry_budget`: 4294967296 out of range",
        ),
        (
            "bench=Jacobi scale=test fault=task_budget=4294967296",
            "`task_budget`: 4294967296 out of range",
        ),
        (
            "bench=Jacobi scale=test fault=delay=0.1:4294967297",
            "`delay`: 4294967297 cycles > 2^32",
        ),
    ] {
        let out = campaign(&["--ledger", ledger.to_str().unwrap(), "--spec", spec]);
        let line = refused(&out);
        assert!(line.contains(want), "{spec}: {line}");
        assert!(!ledger.exists(), "{spec}: a ledger was written");
    }
}

#[test]
fn sweep_refuses_a_zero_ratio_and_zero_smt_ways() {
    for (flag, want) in [
        ("--ratios", "--ratios: bad ratio `0`"),
        ("--smt", "--smt: bad smt `0`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--scale", "test", "--bench", "MD5", flag, "0"])
            .output()
            .expect("sweep binary runs");
        let line = refused(&out);
        assert!(line.contains(want), "{flag}: {line}");
    }
}

fn sweep(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args.split_whitespace())
        .output()
        .expect("sweep binary runs")
}

#[test]
fn a_machine_whose_stacks_reach_the_heap_is_refused() {
    let limit = "hardware contexts (cores x SMT ways); 255 stacks fit below the heap";
    for (args, want) in [
        ("--scale test --bench Jacobi --topology numa2 --smt 8", 256),
        ("--scale test --bench Jacobi --smt 300", 4800),
    ] {
        let line = refused(&sweep(args));
        assert_eq!(line, format!("error: {want} {limit}"), "{args}");
    }
    let ledger = scratch_dir().join("smt.jsonl");
    let out = campaign(&[
        "--ledger",
        ledger.to_str().unwrap(),
        "--spec",
        "bench=Jacobi scale=test smt=16",
    ]);
    let want = format!("error: --spec: 256 {limit}");
    assert_eq!(refused(&out), want);
    assert!(!ledger.exists(), "a ledger was written");
}

#[test]
fn a_key_or_machine_flag_given_twice_is_refused() {
    let ledger = scratch_dir().join("twice.jsonl");
    let out = campaign(&[
        "--ledger",
        ledger.to_str().unwrap(),
        "--spec",
        "bench=MD5 scale=test mode=raccd ratio=4 ratio=256",
    ]);
    assert_eq!(refused(&out), "error: --spec: `ratio` given twice");
    assert!(!ledger.exists(), "a ledger was written");
    let out = sweep("--scale test --scale bench --bench MD5");
    assert_eq!(refused(&out), "error: `--scale` given twice");
}

#[test]
fn every_bin_refuses_a_malformed_fault_spec_env() {
    let plan_err = raccd_fault::FaultPlan::from_spec("drop=banana").unwrap_err();
    let ledger = scratch_dir().join("env-fault.jsonl");
    let campaign_args = format!("--ledger {}", ledger.display());
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_campaign"), campaign_args.as_str()),
        (env!("CARGO_BIN_EXE_figures"), "fig8 --scale test"),
        (env!("CARGO_BIN_EXE_sweep"), "--scale test --bench MD5"),
        (env!("CARGO_BIN_EXE_trace"), "--scale test --bench MD5"),
    ] {
        let out = Command::new(bin)
            .args(args.split_whitespace())
            .env("RACCD_FAULT_SPEC", "drop=banana")
            .output()
            .expect("binary runs");
        let want = format!("error: RACCD_FAULT_SPEC: {plan_err}");
        assert_eq!(refused(&out), want, "{bin}");
        assert!(out.stdout.is_empty(), "{bin} printed before refusing");
    }
    assert!(!ledger.exists(), "a ledger was written");
}

/// A directory bank that is not whole sets, or that ADR would halve to
/// one that is not, is refused before any simulation; 1:85 without ADR
/// (three 8-way sets a bank) runs.
#[test]
fn a_directory_no_bank_can_have_is_refused() {
    let geometry = "directory geometry";
    for (args, want) in [
        (
            "--scale test --bench MD5 --ratios 3 --modes RaCCD",
            format!("error: --ratios: 1:3 directory: {geometry} 682 entries / 8 ways"),
        ),
        (
            "--scale test --bench Jacobi --ratios 85 --adr",
            format!(
                "error: --ratios: 1:85 directory halved by ADR: {geometry} 12 entries / 8 ways"
            ),
        ),
    ] {
        let out = sweep(args);
        let line = refused(&out);
        assert!(line.starts_with(&want), "{args}: {line}");
        assert!(out.stdout.is_empty(), "{args}: wrote a table");
    }
    let ledger = scratch_dir().join("ratio3.jsonl");
    let spec = "bench=MD5 scale=test mode=raccd ratio=3 seeds=1..1";
    let out = campaign(&["--ledger", ledger.to_str().unwrap(), "--spec", spec]);
    let line = refused(&out);
    assert!(line.starts_with("error: --spec: 1:3 directory: "), "{line}");
    assert!(!ledger.exists(), "a ledger was written");
    let out = sweep("--scale test --bench Jacobi --ratios 85 --modes RaCCD");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
