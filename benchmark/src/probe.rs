//! The host probe: a fixed piece of memory-bound work run between reps,
//! whose time says how fast the shared host's memory system is during
//! this run. The reported timings are corrected by it (see `README.md`).

use crate::summary::median;
use std::time::Instant;

/// Table sizes in `u64` entries: 2 MiB and 4 MiB, either side of what the
/// reference host's second-level cache holds when neighbours share it.
/// That is where the host's interference shows most, and where the
/// simulator's own working set sits.
const TABLES: [usize; 2] = [1 << 18, 1 << 19];

/// Dependent read-modify-writes per table and sample.
const STEPS: usize = 50_000;

/// Samples taken after every rep.
const SAMPLES_PER_REP: usize = 5;

/// What one sample takes on the reference host in a quiet hour. It only
/// sets the scale: a run whose probe reads this reports its floors as
/// measured.
pub const REFERENCE_S: f64 = 0.0055;

/// Share of a rep's time that follows the probe's, fitted once over 50
/// runs of the five listed workloads (the floors moved by the 0.4th to
/// 0.9th power of the probe's median; 0.5 served all five).
const EXPONENT: f64 = 0.5;

pub struct Probe {
    tables: Vec<Vec<u64>>,
    samples: Vec<f64>,
    sink: u64,
}

impl Probe {
    pub fn new() -> Probe {
        let tables = TABLES
            .iter()
            .map(|&n| {
                (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect()
            })
            .collect();
        Probe {
            tables,
            samples: Vec::new(),
            sink: 0,
        }
    }

    /// Take the samples that follow one rep.
    pub fn after_rep(&mut self) {
        for _ in 0..SAMPLES_PER_REP {
            let t = Instant::now();
            for table in &mut self.tables {
                let mask = table.len() - 1;
                let mut i = self.sink as usize & mask;
                for _ in 0..STEPS {
                    let v = table[i];
                    table[i] = v.wrapping_add(1);
                    i = (v as usize ^ i.wrapping_mul(31)) & mask;
                }
                self.sink = self.sink.wrapping_add(i as u64);
            }
            self.samples.push(t.elapsed().as_secs_f64());
        }
    }

    /// Median seconds of a sample over the whole run; the reference when
    /// none was taken.
    pub fn median_s(&self) -> f64 {
        if self.samples.is_empty() {
            REFERENCE_S
        } else {
            median(&self.samples)
        }
    }
}

/// What a floor measured while the probe read `probe_s` is multiplied by
/// to give the time at the reference host state (a rate is divided).
pub fn factor(probe_s: f64) -> f64 {
    (REFERENCE_S / probe_s).powf(EXPONENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_shrinks_the_reported_time_by_the_root_of_its_slowdown() {
        assert_eq!(factor(REFERENCE_S), 1.0);
        assert!((factor(4.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
        assert!((factor(REFERENCE_S / 4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_probe_samples_after_each_rep_and_reads_the_reference_without() {
        let mut p = Probe::new();
        assert_eq!(p.median_s(), REFERENCE_S);
        p.after_rep();
        assert_eq!(p.samples.len(), SAMPLES_PER_REP);
        assert!(p.median_s() > 0.0);
    }
}
