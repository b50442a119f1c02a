#![warn(missing_docs)]

//! Shared harness for the bench binaries: the one command-line parser
//! ([`cli`]), the simulate-once-render-many figure pipeline ([`figures`])
//! behind the `figures` and `sweep` binaries, telemetry artifact writing
//! and a few formatting helpers.

pub mod chart;
pub mod cli;
pub mod figures;
pub mod perfjson;

use raccd_obs::Recorder;
use raccd_workloads::{all_benchmarks, Scale};
use std::path::Path;

/// Benchmark names at a scale, in paper order.
pub fn bench_names(scale: Scale) -> Vec<String> {
    all_benchmarks(scale)
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}

/// Write a finished recorder's full artifact set into `dir` (created if
/// missing): Perfetto-loadable `trace.json`, `events.jsonl`, `series.csv`,
/// and `histograms.txt`.
pub fn write_telemetry(rec: &Recorder, dir: &Path) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let file = |name: &str| -> std::io::Result<std::io::BufWriter<std::fs::File>> {
        Ok(std::io::BufWriter::new(std::fs::File::create(
            dir.join(name),
        )?))
    };
    let mut w = file("trace.json")?;
    raccd_obs::write_chrome_trace(rec, &mut w)?;
    w.flush()?;
    let mut w = file("events.jsonl")?;
    raccd_obs::write_events_jsonl(rec.names(), rec.events(), &mut w)?;
    w.flush()?;
    let mut w = file("series.csv")?;
    raccd_obs::write_series_csv(rec.samples(), &mut w)?;
    w.flush()?;
    let mut w = file("histograms.txt")?;
    raccd_obs::write_histograms(rec, &mut w)?;
    w.flush()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
