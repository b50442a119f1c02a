//! Interval time-series sampling.
//!
//! Figure 8 of the paper plots directory occupancy *over execution time*;
//! end-of-run aggregates cannot reproduce it. The [`IntervalSampler`]
//! snapshots the live [`Stats`] counters every `interval` cycles and stores
//! the per-interval deltas next to instantaneous gauges (directory
//! occupancy, ready-queue depth, busy contexts), producing a real
//! time-series from a single simulation pass.

use raccd_sim::{Field, Stats};

/// Instantaneous machine/runtime state the driver supplies per sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    /// Directory entries currently resident across banks.
    pub dir_occupied: u64,
    /// Directory entries currently powered across banks (ADR shrinks this).
    pub dir_capacity: u64,
    /// Tasks currently in the ready queue(s).
    pub ready_tasks: u64,
    /// Hardware contexts currently executing a task.
    pub busy_contexts: u32,
    /// Cumulative scheduler pops so far (every policy counts these).
    pub sched_popped: u64,
    /// Cumulative cross-context steals so far (0 for non-stealing policies).
    pub sched_steals: u64,
}

/// What one sample is read from: the cycle, the live gauges, and the
/// counters now and at the previous sample.
struct Reading<'a> {
    cycle: u64,
    gauges: Gauges,
    stats: &'a Stats,
    prev: &'a Stats,
}

impl Reading<'_> {
    /// How far a live counter moved since the previous sample.
    fn delta(&self, counter: fn(&Stats) -> u64) -> u64 {
        counter(self.stats) - counter(self.prev)
    }
}

/// `num / den`, 0 when there is nothing to divide by.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Declare [`Sample`]: one line per column gives its name, its type and
/// how it is read. The struct, [`CSV_COLUMNS`], the sampler's reading and
/// the [`Sample::fields`] walk behind the CSV row and the Chrome counter
/// tracks all come from this list, in this order.
macro_rules! sample_columns {
    (|$r:ident| $($(#[$m:meta])* $name:ident: $ty:ty = $read:expr),* $(,)?) => {
        /// One point of the interval time-series.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Sample {
            $($(#[$m])* pub $name: $ty),*
        }

        /// Column order of [`crate::write_series_csv`].
        pub const CSV_COLUMNS: &[&str] = &[$(stringify!($name)),*];

        impl Sample {
            fn read($r: &Reading) -> Sample {
                Sample { $($name: $read),* }
            }

            /// Walk the columns by name, in CSV order.
            pub fn fields(&self, f: &mut dyn FnMut(&'static str, Field<'_>)) {
                $(f(stringify!($name), Field::from(self.$name));)*
            }
        }
    };
}

sample_columns! { |r|
    /// Cycle at which the sample was taken.
    cycle: u64 = r.cycle,
    /// Directory occupancy fraction (occupied / powered capacity).
    dir_occupancy: f64 = ratio(r.gauges.dir_occupied, r.gauges.dir_capacity),
    /// Directory entries resident.
    dir_occupied: u64 = r.gauges.dir_occupied,
    /// Directory entries powered (tracks ADR reconfigurations).
    dir_capacity: u64 = r.gauges.dir_capacity,
    /// Ready-queue depth.
    ready_tasks: u64 = r.gauges.ready_tasks,
    /// Contexts executing a task.
    busy_contexts: u32 = r.gauges.busy_contexts,
    /// Cumulative scheduler pops at this sample.
    sched_popped: u64 = r.gauges.sched_popped,
    /// Cumulative cross-context steals at this sample.
    sched_steals: u64 = r.gauges.sched_steals,
    /// Fraction of this interval's L1 fills that were non-coherent.
    nc_fill_frac: f64 = ratio(
        r.delta(|s| s.nc_fills),
        r.delta(|s| s.nc_fills + s.coherent_fills),
    ),
    /// Directory bank accesses in this interval.
    d_dir_accesses: u64 = r.delta(|s| s.dir_accesses),
    /// Non-coherent L1 fills in this interval.
    d_nc_fills: u64 = r.delta(|s| s.nc_fills),
    /// Coherent L1 fills in this interval.
    d_coherent_fills: u64 = r.delta(|s| s.coherent_fills),
    /// Invalidation messages sent in this interval.
    d_invalidations: u64 = r.delta(|s| s.invalidations_sent),
    /// L1 write-backs in this interval.
    d_l1_writebacks: u64 = r.delta(|s| s.l1_writebacks),
    /// Main-memory reads in this interval.
    d_mem_reads: u64 = r.delta(|s| s.mem_reads),
    /// Main-memory writes in this interval.
    d_mem_writes: u64 = r.delta(|s| s.mem_writes),
    /// Cycles requests spent queued at banks in this interval.
    d_bank_wait_cycles: u64 = r.delta(|s| s.bank_wait_cycles),
    /// Memory references replayed in this interval.
    d_refs: u64 = r.delta(|s| s.refs_processed),
    /// Tasks dispatched in this interval.
    d_tasks: u64 = r.delta(|s| s.tasks_executed),
}

/// Snapshots [`Stats`] deltas every `interval` cycles.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    interval: u64,
    next_due: u64,
    /// The counters as the previous sample saw them.
    prev: Stats,
    samples: Vec<Sample>,
}

impl IntervalSampler {
    /// Sampler with the given cadence in cycles (`interval` ≥ 1).
    pub fn new(interval: u64) -> Self {
        let interval = interval.max(1);
        IntervalSampler {
            interval,
            next_due: interval,
            prev: Stats::default(),
            samples: Vec::new(),
        }
    }

    /// The configured cadence in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether `cycle` has crossed the next sampling boundary. Lets hot
    /// callers skip computing gauges when no sample will be taken.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_due
    }

    /// Record a sample if `cycle` crossed the next interval boundary.
    /// Driver global time is non-decreasing, so at most one sample is taken
    /// per call; after a quiet period the next boundary is realigned so
    /// idle stretches do not produce a burst of identical samples.
    pub fn maybe_sample(&mut self, cycle: u64, stats: &Stats, gauges: Gauges) {
        if cycle < self.next_due {
            return;
        }
        self.force_sample(cycle, stats, gauges);
        self.next_due = (cycle / self.interval + 1) * self.interval;
    }

    /// Record a sample unconditionally (used for the end-of-run point).
    pub fn force_sample(&mut self, cycle: u64, stats: &Stats, gauges: Gauges) {
        self.samples.push(Sample::read(&Reading {
            cycle,
            gauges,
            stats,
            prev: &self.prev,
        }));
        self.prev = stats.clone();
    }

    /// The collected time-series.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Time-weighted mean directory occupancy over the sampled series:
    /// each sample's occupancy is weighted by the span it covers (the gap
    /// to the previous sample, i.e. step interpolation from the left).
    /// Converges on the machine's exact integral as the interval shrinks.
    pub fn mean_occupancy(&self) -> f64 {
        let mut weighted = 0.0f64;
        let mut span_total = 0u64;
        let mut prev_cycle = 0u64;
        for s in &self.samples {
            let span = s.cycle.saturating_sub(prev_cycle);
            weighted += s.dir_occupancy * span as f64;
            span_total += span;
            prev_cycle = s.cycle;
        }
        if span_total == 0 {
            0.0
        } else {
            weighted / span_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges(occ: u64, cap: u64) -> Gauges {
        Gauges {
            dir_occupied: occ,
            dir_capacity: cap,
            ..Default::default()
        }
    }

    #[test]
    fn samples_only_on_boundaries() {
        let mut s = IntervalSampler::new(100);
        let stats = Stats::default();
        s.maybe_sample(10, &stats, gauges(0, 8));
        s.maybe_sample(99, &stats, gauges(0, 8));
        assert!(s.samples().is_empty());
        s.maybe_sample(100, &stats, gauges(4, 8));
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.samples()[0].cycle, 100);
        assert!((s.samples()[0].dir_occupancy - 0.5).abs() < 1e-12);
        // Still inside the next interval: no new sample.
        s.maybe_sample(150, &stats, gauges(4, 8));
        assert_eq!(s.samples().len(), 1);
        s.maybe_sample(205, &stats, gauges(8, 8));
        assert_eq!(s.samples().len(), 2);
        // Boundary realigns after a quiet gap: next due is 300, not 210.
        s.maybe_sample(299, &stats, gauges(8, 8));
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn deltas_are_per_interval() {
        let mut s = IntervalSampler::new(10);
        let mut stats = Stats {
            dir_accesses: 5,
            nc_fills: 3,
            coherent_fills: 1,
            ..Default::default()
        };
        s.maybe_sample(10, &stats, gauges(0, 1));
        stats.dir_accesses = 12;
        stats.nc_fills = 3;
        stats.coherent_fills = 8;
        s.maybe_sample(20, &stats, gauges(0, 1));
        let [a, b] = s.samples() else { panic!() };
        assert_eq!(a.d_dir_accesses, 5);
        assert!((a.nc_fill_frac - 0.75).abs() < 1e-12);
        assert_eq!(b.d_dir_accesses, 7);
        assert_eq!(b.d_nc_fills, 0);
        assert_eq!(b.d_coherent_fills, 7);
        assert_eq!(b.nc_fill_frac, 0.0);
    }

    #[test]
    fn mean_occupancy_is_time_weighted() {
        let mut s = IntervalSampler::new(10);
        let stats = Stats::default();
        // Occupancy 1.0 for the first 10 cycles, then 0.0 for 30 more.
        s.maybe_sample(10, &stats, gauges(8, 8));
        s.maybe_sample(40, &stats, gauges(0, 8));
        let expect = (1.0 * 10.0 + 0.0 * 30.0) / 40.0;
        assert!((s.mean_occupancy() - expect).abs() < 1e-12);
        assert_eq!(IntervalSampler::new(5).mean_occupancy(), 0.0);
    }
}
