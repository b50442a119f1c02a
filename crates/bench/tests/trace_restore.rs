//! `trace --restore` takes a file from outside the program: an unreadable
//! path, a damaged archive and a checkpoint of some other run are input
//! errors (the path and the reason on stderr, exit status 2), not panics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["--scale", "test", "--head", "0"])
        .args(args)
        .output()
        .expect("trace binary runs")
}

/// Asserts the run was refused as bad input and returns its stderr.
fn refused(out: &Output, path: &Path) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("no error line in: {stderr}"));
    assert!(
        line.contains(path.to_str().unwrap()),
        "path missing: {line}"
    );
    line.to_string()
}

#[test]
fn damaged_missing_and_mismatched_archives_are_input_errors() {
    let dir = std::env::temp_dir().join(format!("raccd-trace-restore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| -> PathBuf { dir.join(name) };
    let arg = |p: &Path| p.to_str().unwrap().to_string();

    let good = file("good.rsnp");
    let out = trace(&[
        "--bench",
        "Jacobi",
        "--snapshot",
        &arg(&good),
        "--snapshot-at",
        "5000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&good).unwrap();

    // The archive itself restores.
    let out = trace(&["--bench", "Jacobi", "--restore", &arg(&good)]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let truncated = file("truncated.rsnp");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let line = refused(
        &trace(&["--bench", "Jacobi", "--restore", &arg(&truncated)]),
        &truncated,
    );
    assert!(line.contains("unexpected end of snapshot stream"), "{line}");

    let flipped = file("flipped.rsnp");
    let mut bad = bytes.clone();
    let at = bad.len() / 2;
    bad[at] ^= 0x10;
    std::fs::write(&flipped, &bad).unwrap();
    let line = refused(
        &trace(&["--bench", "Jacobi", "--restore", &arg(&flipped)]),
        &flipped,
    );
    assert!(line.contains("failed its CRC"), "{line}");

    let missing = file("missing.rsnp");
    refused(
        &trace(&["--bench", "Jacobi", "--restore", &arg(&missing)]),
        &missing,
    );

    // A sound archive of a different run: wrong coherence mode.
    let line = refused(
        &trace(&[
            "--bench",
            "Jacobi",
            "--mode",
            "fullcoh",
            "--restore",
            &arg(&good),
        ]),
        &good,
    );
    assert!(line.contains("coherence mode mismatch"), "{line}");

    // An unwritable --snapshot target is refused the same way.
    let nowhere = file("no-such-dir").join("x.rsnp");
    refused(
        &trace(&["--bench", "Jacobi", "--snapshot", &arg(&nowhere)]),
        &nowhere,
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
