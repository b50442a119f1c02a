//! The recorder: buffers the event stream and drives the sampler and
//! histograms; the exporters read it after the run.
//!
//! Instrumentation sites hold an `Option<&mut Recorder>`; with `None` the
//! hooks compile down to a branch on a niche-optimised pointer. DESIGN.md
//! §7 "Overhead budget" has what those branches measure at; the
//! benchmark's `obs.recorder_overhead_pct` row reads what attaching a
//! recorder costs.

use crate::event::{Event, NameId};
use crate::hist::Log2Hist;
use crate::sampler::{Gauges, IntervalSampler, Sample};
use raccd_sim::Stats;

/// Recorder configuration.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Sampler cadence in cycles (default 4096 — fine enough for Figure 8
    /// at test scale, coarse enough to stay off the profile).
    pub sample_interval: u64,
    /// Buffer events in memory (`Recorder::events`). Disable to keep only
    /// the time-series and histograms of a long run.
    pub buffer_events: bool,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            sample_interval: 4096,
            buffer_events: true,
        }
    }
}

/// Collects telemetry for one simulation run.
pub struct Recorder {
    cfg: RecorderConfig,
    names: Vec<String>,
    events: Vec<Event>,
    sampler: IntervalSampler,
    /// End-to-end latency of each replayed memory reference.
    pub hist_mem_latency: Log2Hist,
    /// Cycles tasks waited between wake-up and dispatch.
    pub hist_wake_to_dispatch: Log2Hist,
    /// Queueing delay per reference at busy LLC/directory banks.
    pub hist_bank_wait: Log2Hist,
    /// Extra cycles each fault-recovered message spent in timeouts,
    /// NACK round-trips and backoff before delivery.
    pub hist_retry_latency: Log2Hist,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(RecorderConfig::default())
    }
}

impl Recorder {
    /// Recorder with the given configuration.
    pub fn new(cfg: RecorderConfig) -> Self {
        Recorder {
            cfg,
            names: Vec::new(),
            events: Vec::new(),
            sampler: IntervalSampler::new(cfg.sample_interval),
            hist_mem_latency: Log2Hist::new(),
            hist_wake_to_dispatch: Log2Hist::new(),
            hist_bank_wait: Log2Hist::new(),
            hist_retry_latency: Log2Hist::new(),
        }
    }

    /// Intern a task name, returning a stable id.
    pub fn intern(&mut self, name: &str) -> NameId {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as NameId,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as NameId
            }
        }
    }

    /// The interned name table.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Resolve an interned id (empty string for unknown ids).
    pub fn name(&self, id: NameId) -> &str {
        self.names
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Record one event.
    pub fn record(&mut self, ev: Event) {
        if self.cfg.buffer_events {
            self.events.push(ev);
        }
    }

    /// The buffered event stream, in record order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Whether a sample is due at `cycle`; callers use this to avoid
    /// computing gauges on the hot path when no sample will be taken.
    #[inline]
    pub fn sample_due(&self, cycle: u64) -> bool {
        self.sampler.due(cycle)
    }

    /// Sample the time-series if `cycle` crossed an interval boundary.
    pub fn maybe_sample(&mut self, cycle: u64, stats: &Stats, gauges: Gauges) {
        self.sampler.maybe_sample(cycle, stats, gauges);
    }

    /// Take the end-of-run sample. Call once, after the simulation
    /// finishes (cycle = final time).
    pub fn finish(&mut self, cycle: u64, stats: &Stats, gauges: Gauges) {
        self.sampler.force_sample(cycle, stats, gauges);
    }

    /// The interval time-series collected so far.
    pub fn samples(&self) -> &[Sample] {
        self.sampler.samples()
    }

    /// Time-weighted mean directory occupancy over the series.
    pub fn mean_dir_occupancy(&self) -> f64 {
        self.sampler.mean_occupancy()
    }

    /// The sampler cadence in cycles.
    pub fn sample_interval(&self) -> u64 {
        self.sampler.interval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable() {
        let mut r = Recorder::new(RecorderConfig::default());
        let a = r.intern("write");
        let b = r.intern("read");
        assert_eq!(r.intern("write"), a);
        assert_ne!(a, b);
        assert_eq!(r.name(a), "write");
        assert_eq!(r.name(99), "");
    }

    #[test]
    fn record_buffers_and_finish_samples() {
        let mut r = Recorder::new(RecorderConfig::default());
        r.record(Event::TaskWoken {
            cycle: 5,
            task: 1,
            waker_core: None,
        });
        assert_eq!(r.events().len(), 1);
        r.finish(100, &Stats::default(), Gauges::default());
        assert_eq!(r.samples().len(), 1, "finish takes the end-of-run sample");
    }

    #[test]
    fn unbuffered_recorder_keeps_no_events() {
        let mut r = Recorder::new(RecorderConfig {
            buffer_events: false,
            ..RecorderConfig::default()
        });
        r.record(Event::TaskWoken {
            cycle: 1,
            task: 0,
            waker_core: Some(3),
        });
        assert!(r.events().is_empty());
    }
}
