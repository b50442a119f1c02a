//! Host-throughput metrics of a run: simulated cycles, memory accesses
//! and protocol events per host second, and peak RSS, derived from
//! [`Stats`] and a measured wall time. Everything here is *about* the
//! simulator's own speed; it never touches simulated semantics.
//!
//! The one export is [`RunMetrics::summary_line`], the `# perf:` line the
//! figure binaries print into `results/*.txt` and `trace` prints after
//! its event summary. Timed measurements that back a performance claim
//! come from the repo benchmark (`benchmark/`), not from here.

use raccd_sim::Stats;

/// Derived performance metrics of one simulated run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Run label (workload/mode/scale, caller-defined).
    pub name: String,
    /// Host wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Simulated cycles executed.
    pub sim_cycles: u64,
    /// Memory references replayed through the timing model.
    pub refs_processed: u64,
    /// Protocol messages sent over the NoC.
    pub protocol_events: u64,
    /// Tasks retired.
    pub tasks_executed: u64,
    /// Peak resident set size in bytes (0 when the platform exposes none).
    pub peak_rss_bytes: u64,
}

impl RunMetrics {
    /// Derive metrics from a run's statistics and its measured wall time.
    pub fn from_stats(name: &str, stats: &Stats, wall_seconds: f64) -> RunMetrics {
        RunMetrics {
            name: name.to_string(),
            wall_seconds,
            sim_cycles: stats.cycles,
            refs_processed: stats.refs_processed,
            protocol_events: stats.noc_traffic,
            tasks_executed: stats.tasks_executed,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }

    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        rate(self.sim_cycles, self.wall_seconds)
    }

    /// Memory accesses (replayed references) per host second.
    pub fn refs_per_sec(&self) -> f64 {
        rate(self.refs_processed, self.wall_seconds)
    }

    /// Protocol events (NoC messages) per host second.
    pub fn events_per_sec(&self) -> f64 {
        rate(self.protocol_events, self.wall_seconds)
    }

    /// One-line human summary, `#`-prefixed so figure outputs stay valid
    /// data files (`results/*.txt` consumers skip comment lines).
    pub fn summary_line(&self) -> String {
        format!(
            "# perf: {} wall={:.3}s cycles/s={} refs/s={} events/s={}",
            self.name,
            self.wall_seconds,
            fmt_si(self.cycles_per_sec()),
            fmt_si(self.refs_per_sec()),
            fmt_si(self.events_per_sec()),
        )
    }
}

/// Peak resident set size of this process in bytes. Reads `VmHWM` from
/// `/proc/self/status` on Linux; returns 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Format a rate with an SI suffix (K/M/G).
pub fn fmt_si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}K", v / 1e3)
    } else {
        format!("{:.1}", v)
    }
}

fn rate(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        let stats = Stats {
            cycles: 1_000_000,
            refs_processed: 250_000,
            noc_traffic: 40_000,
            tasks_executed: 64,
            ..Stats::default()
        };
        RunMetrics::from_stats("jacobi/raccd", &stats, 0.5)
    }

    #[test]
    fn rates_follow_wall_time() {
        let m = sample();
        assert_eq!(m.cycles_per_sec(), 2_000_000.0);
        assert_eq!(m.refs_per_sec(), 500_000.0);
        assert_eq!(m.events_per_sec(), 80_000.0);
        // A zero wall time never divides by zero.
        let z = RunMetrics::from_stats("z", &Stats::default(), 0.0);
        assert_eq!(z.cycles_per_sec(), 0.0);
    }

    #[test]
    fn summary_line_is_a_comment_with_si_rates() {
        let line = sample().summary_line();
        assert_eq!(
            line,
            "# perf: jacobi/raccd wall=0.500s cycles/s=2.00M refs/s=500.00K events/s=80.00K"
        );
        assert_eq!(fmt_si(3.5e9), "3.50G");
        assert_eq!(fmt_si(12.5), "12.5");
    }

    #[test]
    fn peak_rss_is_sane_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // This test binary surely holds at least a megabyte.
            assert!(rss > 1 << 20, "VmHWM parsed as {rss}");
        }
    }
}
