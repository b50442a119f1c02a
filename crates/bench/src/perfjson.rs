//! The host fingerprint stamped into the repo benchmark's result files.
//!
//! This module once held the `perf` binary's JSON schema; the benchmark
//! harness under `benchmark/` still calls
//! `raccd_bench::perfjson::host_fingerprint()` and may not be edited from
//! this crate's side, so the path keeps its old name.

/// Host fingerprint string (CPU model, logical CPU count, OS/arch) and the
/// logical CPU count on its own.
pub fn host_fingerprint() -> (String, u64) {
    let ncpu = std::thread::available_parallelism()
        .map(|p| p.get() as u64)
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown-cpu".to_string());
    (
        format!(
            "{cpu} ({ncpu} cpus, {}-{})",
            std::env::consts::OS,
            std::env::consts::ARCH
        ),
        ncpu,
    )
}
