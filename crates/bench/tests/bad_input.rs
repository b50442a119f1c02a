//! Outside input that used to panic or be silently rewritten is refused
//! where it is parsed: one `error:` line on stderr, exit status 2, and
//! nothing written to the ledger.

use std::process::{Command, Output};

/// Asserts the run was refused as bad input and returns its error line.
fn refused(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    stderr
}

#[test]
fn campaign_refuses_a_malformed_spec_before_the_ledger_exists() {
    let dir = std::env::temp_dir().join(format!("raccd-bad-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("never.jsonl");
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
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["--ledger", ledger.to_str().unwrap(), "--spec", spec])
            .output()
            .expect("campaign binary runs");
        let line = refused(&out);
        assert!(line.contains(want), "{spec}: {line}");
        assert!(!ledger.exists(), "{spec}: a ledger was written");
    }
}

#[test]
fn sweep_refuses_a_zero_ratio_and_zero_smt_ways() {
    for (flag, want) in [
        ("--ratios", "--ratios: bad number `0`"),
        ("--smt", "--smt: bad number `0`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--scale", "test", "--bench", "MD5", flag, "0"])
            .output()
            .expect("sweep binary runs");
        let line = refused(&out);
        assert!(line.contains(want), "{flag}: {line}");
    }
}
