#![warn(missing_docs)]

//! Telemetry for the RaCCD simulation stack.
//!
//! The paper's evaluation is built from three kinds of measurement: event
//! counts (Figures 5–7), time-series of directory state (Figure 8), and
//! latency distributions behind the execution-time results. This crate
//! provides all three from one instrumentation pass:
//!
//! * [`event`] — the unified [`Event`] stream: task lifecycle, RaCCD
//!   mechanism activity (NCRT register/invalidate, ADR resizes, PT
//!   reclassification) and machine protocol events, each stamped with its
//!   simulated cycle.
//! * [`sampler`] — [`IntervalSampler`] snapshots `Stats` deltas and live
//!   gauges every N cycles, producing the Figure 8 time-series from real
//!   samples rather than end-of-run aggregates.
//! * [`hist`] — [`Log2Hist`] latency histograms (memory access,
//!   wake-to-dispatch, bank queueing).
//! * [`export`] — JSONL event dump, CSV time-series, histogram text
//!   report, and Chrome Trace Format output loadable in Perfetto.
//! * [`recorder`] — the [`Recorder`] that ties these together. Hook sites
//!   take `Option<&mut Recorder>`; passing `None` compiles the hooks down
//!   to a single branch, keeping the disabled path within the <2 %
//!   overhead budget (DESIGN.md §Observability).
//! * [`json`] — dependency-free JSON writer and strict parser used by the
//!   exporters and their validation tests.
//! * [`metrics`] — [`RunMetrics`]: host-throughput rates (cycles/sec,
//!   refs/sec, protocol events/sec, peak RSS) derived from `Stats` and a
//!   wall time, rendered as the `# perf:` line of `results/*.txt`.

pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sampler;

pub use event::{CampaignAction, Event, NameId};
pub use export::{
    chrome_trace_json, event_json, write_campaign_depth_csv, write_chrome_trace,
    write_events_jsonl, write_histograms, write_series_csv,
};
pub use hist::Log2Hist;
pub use metrics::{peak_rss_bytes, RunMetrics};
pub use recorder::{Recorder, RecorderConfig};
pub use sampler::{Gauges, IntervalSampler, Sample};
