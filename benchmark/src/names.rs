//! The names the binary is compiled with: workloads, end-to-end metrics
//! and per-layer metrics. `BENCHMARK.json` lists the same names; a unit
//! test keeps the two equal.

use crate::bench::Bench;
use crate::{campaign, sim};
use std::path::Path;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// Whether `BENCHMARK.json` lists the workload. The driver's time cap
    /// leaves room for five runs long enough to be steady; the others
    /// are for `run --workload` by hand.
    pub listed: bool,
    /// Generate the workload's inputs from the seed; the directory is
    /// where a workload that needs files may put them.
    pub make: fn(u64, &Path) -> Box<dyn Bench>,
}

/// Default for `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 16;

/// Timed reps never drop below this, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;

/// Set-ups per end-to-end pass; `setup_s` is the floor over them.
pub const SETUPS: usize = 4;

/// Untimed-trace baseline: untraced reps run in a `--trace 1` pass before
/// the one traced rep, so `bench.trace_overhead_pct` has a median to
/// compare against.
pub const TRACE_BASELINE_REPS: usize = 3;

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "jacobi-raccd",
        listed: true,
        make: |seed, _| Box::new(sim::jacobi_raccd(seed)),
    },
    WorkloadDef {
        name: "cg-fullcoh-256",
        listed: true,
        make: |seed, _| Box::new(sim::cg_fullcoh_256(seed)),
    },
    WorkloadDef {
        name: "fig7-sweep",
        listed: true,
        make: |seed, _| Box::new(sim::fig7_sweep(seed)),
    },
    WorkloadDef {
        name: "campaign-dedup",
        listed: true,
        make: |seed, tmp| Box::new(campaign::campaign_dedup(seed, tmp)),
    },
    WorkloadDef {
        name: "snap-cycle",
        listed: true,
        make: |seed, _| Box::new(sim::snap_cycle(seed)),
    },
    WorkloadDef {
        name: "histo-pt",
        listed: false,
        make: |seed, _| Box::new(sim::histo_pt(seed)),
    },
    WorkloadDef {
        name: "md5-body",
        listed: false,
        make: |seed, _| Box::new(sim::md5_body(seed)),
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, all host time or host memory, tracing off.
/// `fail_share` of the issue travels as the `attempted`/`failed` pair of
/// the result line: a bounded metric may never read 0.
pub const END_TO_END: [MetricDef; 5] = [
    m("wall_s", "s", Lower),
    m("refs_per_s", "refs/s", Higher),
    m("jobs_per_s", "jobs/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("setup_s", "s", Lower),
];

/// Per-layer metrics of the traced pass; the prefix is the crate the
/// number belongs to (`bench.` is the harness itself). A metric whose
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 67] = [
    // (a) phase spans
    m("workloads.build_s", "s", Lower),
    m("core.driver_new_s", "s", Lower),
    m("core.step_s", "s", Lower),
    m("core.steps", "count", Lower),
    m("core.step_ns_per_ref", "ns", Lower),
    m("core.finish_s", "s", Lower),
    m("workloads.verify_s", "s", Lower),
    m("bench.cell_ms_p50", "ms", Lower),
    m("bench.cell_ms_p90", "ms", Lower),
    m("bench.setup_share", "ratio", Lower),
    m("bench.trace_overhead_pct", "%", Lower),
    // (b) layer replay
    m("runtime.body_ns_per_ref", "ns", Lower),
    m("runtime.graph_ns_per_task", "ns", Lower),
    m("sched.push_pop_ns_per_task", "ns", Lower),
    m("mem.tlb_ns_per_lookup", "ns", Lower),
    m("mem.tlb_hit_ratio", "ratio", Higher),
    m("mem.pagetable_ns_per_walk", "ns", Lower),
    m("cache.l1_ns_per_access", "ns", Lower),
    m("cache.llc_ns_per_access", "ns", Lower),
    m("protocol.dir_ns_per_access", "ns", Lower),
    m("protocol.dir_evictions", "count", Lower),
    m("noc.send_ns_per_msg", "ns", Lower),
    m("sim.translate_ns_per_ref", "ns", Lower),
    m("sim.l1_lookup_ns_per_ref", "ns", Lower),
    m("sim.miss_fill_ns_per_miss", "ns", Lower),
    m("sim.miss_fill_share", "ratio", Lower),
    m("sim.flush_nc_us_per_task", "us", Lower),
    m("core.ncrt_lookup_ns", "ns", Lower),
    m("core.ncrt_register_us_per_task", "us", Lower),
    m("core.pt_on_access_ns", "ns", Lower),
    m("core.census_record_ns", "ns", Lower),
    // snap-cycle
    m("snap.encode_mb_per_s", "MB/s", Higher),
    m("snap.to_bytes_mb_per_s", "MB/s", Higher),
    m("snap.from_bytes_mb_per_s", "MB/s", Higher),
    m("snap.restore_mb_per_s", "MB/s", Higher),
    m("snap.archive_mb", "MB", Lower),
    m("snap.codec_share", "ratio", Lower),
    // campaign-dedup
    m("campaign.submit_us_per_job", "us", Lower),
    m("campaign.run_s", "s", Lower),
    m("campaign.resume_s", "s", Lower),
    m("campaign.reconcile_s", "s", Lower),
    m("campaign.ledger_append_us", "us", Lower),
    m("campaign.ledger_replay_lines_per_s", "1/s", Higher),
    m("campaign.fingerprint_ns", "ns", Lower),
    m("campaign.dedup_ratio", "ratio", Higher),
    m("campaign.snap_hit_ratio", "ratio", Higher),
    m("campaign.executions", "count", Lower),
    m("campaign.retries", "count", Lower),
    m("campaign.body_share", "ratio", Lower),
    // twins (jacobi-raccd)
    m("obs.recorder_overhead_pct", "%", Lower),
    m("prof.overhead_pct", "%", Lower),
    m("core.engine_parallel_ratio", "ratio", Higher),
    // (c) exact counts of simulated statistics: no clock involved
    m("sim.refs", "count", Lower),
    m("sim.cycles", "count", Lower),
    m("cache.l1_misses", "count", Lower),
    m("cache.l1_hit_ratio", "ratio", Higher),
    m("cache.llc_misses", "count", Lower),
    m("mem.tlb_misses", "count", Lower),
    m("protocol.dir_accesses", "count", Lower),
    m("protocol.invalidations", "count", Lower),
    m("noc.flits", "count", Lower),
    m("core.nc_fills", "count", Higher),
    m("core.coherent_fills", "count", Lower),
    m("runtime.tasks", "count", Lower),
    m("sched.steals", "count", Lower),
    m("sim.dir_access_ratio_raccd", "ratio", Lower),
    m("sim.fullcoh_slowdown_1to256", "ratio", Lower),
];

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}
