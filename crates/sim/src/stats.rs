//! Statistics for every metric the paper's evaluation reports.

/// Declare [`Stats`]: every counter is named once, with the rule
/// [`Stats::merge`] combines it by (`sum`; `max`; `by_hand` for the two
/// fields `merge_occupancy_and_hist` recombines). The struct, `merge` and
/// the `raccd_snap::Snap` layout (the fields in this order) all come from
/// the one list, so a field without a rule does not compile.
macro_rules! stats_record {
    ($(#[$sm:meta])* pub struct $name:ident {
        $($(#[$fm:meta])* pub $field:ident: $ty:ty => $rule:ident),* $(,)?
    }) => {
        $(#[$sm])*
        pub struct $name {
            $($(#[$fm])* pub $field: $ty),*
        }

        impl $name {
            /// Accumulate another run's counters into this one (multi-run
            /// aggregation in `bench`, shard merging in tests).
            ///
            /// Counters, cycle totals and integrals add. `dir_avg_occupancy`
            /// is recombined weighted by each side's capacity integral, so
            /// the result is still the time-weighted mean over the union of
            /// both runs (cycle totals are the fallback weight when
            /// integrals are absent). `dir_access_hist` merges by capacity
            /// key. `contexts` keeps the max: merged runs describe the same
            /// machine, not a bigger one.
            pub fn merge(&mut self, other: &$name) {
                // First: the weights are this side's totals before they grow.
                self.merge_occupancy_and_hist(other);
                $(stats_record!(@$rule self.$field, other.$field);)*
            }
        }

        raccd_snap::snap_record!($name { $($field),* });
    };
    (@sum $a:expr, $b:expr) => { $a += $b };
    (@max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@by_hand $a:expr, $b:expr) => {};
}

stats_record! {
    /// Counters accumulated over one simulation run.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Stats {
        /// Execution cycles (Figure 6: "normalised cycles").
        pub cycles: u64 => sum,

        // --- L1 ---
        /// L1 data cache hits.
        pub l1_hits: u64 => sum,
        /// L1 data cache misses.
        pub l1_misses: u64 => sum,
        /// Dirty L1 lines written back to the LLC (coherent PutM + NC
        /// write-backs). §V-A1 tracks this for the Kmeans discussion.
        pub l1_writebacks: u64 => sum,
        /// Store-driven LLC updates under write-through private caches
        /// (§III-C3's write-through variant; 0 under write-back).
        pub write_throughs: u64 => sum,

        // --- TLB ---
        /// DTLB hits.
        pub tlb_hits: u64 => sum,
        /// DTLB misses (page walks).
        pub tlb_misses: u64 => sum,

        // --- Directory (Figure 7a / 8) ---
        /// Directory bank accesses.
        pub dir_accesses: u64 => sum,
        /// Directory entry allocations.
        pub dir_allocations: u64 => sum,
        /// Directory entries evicted for capacity (inclusion victims).
        pub dir_evictions: u64 => sum,
        /// Time-weighted average directory occupancy fraction over the whole
        /// run: ∫occupancy dt / ∫capacity dt, accumulated by the per-bank
        /// occupancy integrals on every directory state change (Figure 8).
        pub dir_avg_occupancy: f64 => by_hand,
        /// Access histogram by directory capacity `(entries_per_bank, count)` —
        /// feeds the size-dependent energy model (Figures 7d, 10).
        pub dir_access_hist: Vec<(u64, u64)> => by_hand,
        /// ∫ powered directory capacity dt (entry·cycles), for leakage.
        pub dir_capacity_integral: u128 => sum,
        /// ADR reconfigurations performed (Figure 9 discussion: "low number of
        /// reconfigurations").
        pub adr_reconfigs: u64 => sum,
        /// Cycles directory banks spent blocked in ADR reconfigurations.
        pub adr_blocked_cycles: u64 => sum,

        // --- LLC (Figure 7b) ---
        /// LLC hits.
        pub llc_hits: u64 => sum,
        /// LLC misses.
        pub llc_misses: u64 => sum,
        /// LLC lines invalidated because their directory entry was evicted
        /// (the Directory→LLC inclusivity effect of §V-A3).
        pub llc_inclusion_invalidations: u64 => sum,

        // --- Coherence actions ---
        /// Invalidation messages sent to private caches.
        pub invalidations_sent: u64 => sum,
        /// Owner-forwarded requests (dirty data supplied by a peer L1).
        pub owner_forwards: u64 => sum,
        /// L1 fills performed with the NC bit set.
        pub nc_fills: u64 => sum,
        /// L1 fills performed coherently.
        pub coherent_fills: u64 => sum,

        /// Cycles requests spent queued behind busy LLC/directory banks
        /// (only non-zero with `MachineConfig::bank_contention`).
        pub bank_wait_cycles: u64 => sum,

        // --- NoC (Figure 7c) ---
        /// Total flit·hops injected into the mesh.
        pub noc_traffic: u64 => sum,
        /// Total flits injected.
        pub noc_flits: u64 => sum,

        // --- Memory ---
        /// Main-memory fetches.
        pub mem_reads: u64 => sum,
        /// Main-memory write-backs.
        pub mem_writes: u64 => sum,

        // --- RaCCD / PT mechanism costs ---
        /// Cycles spent in `raccd_register` (iterative TLB translation).
        pub register_cycles: u64 => sum,
        /// Cycles spent in `raccd_invalidate` cache walks + flush write-backs.
        pub invalidate_cycles: u64 => sum,
        /// NC lines flushed by `raccd_invalidate`.
        pub nc_lines_flushed: u64 => sum,
        /// NCRT registrations that were dropped because the table was full.
        pub ncrt_overflows: u64 => sum,
        /// PT baseline: pages that transitioned private→shared.
        pub pt_shared_transitions: u64 => sum,
        /// PT baseline: L1 lines flushed by private→shared transitions.
        pub pt_flush_lines: u64 => sum,

        // --- Runtime ---
        /// Tasks executed.
        pub tasks_executed: u64 => sum,
        /// Memory references replayed through the timing model.
        pub refs_processed: u64 => sum,
        /// Cycles hardware contexts spent non-idle (scheduling, registering,
        /// executing, invalidating, waking) summed over contexts.
        pub busy_cycles: u64 => sum,
        /// Hardware contexts the run used (cores × SMT ways).
        pub contexts: u64 => max,
        /// Tasks that executed on a different core than the task that woke
        /// them (dynamic-scheduler migration — what makes data *temporarily
        /// private*, §II-B).
        pub task_migrations: u64 => sum,
        /// Migrations that forced an NCRT hand-off under RaCCD: the task's
        /// regions re-registered on a core other than its waker's (the
        /// re-registration churn a migratory scheduler costs RaCCD).
        pub ncrt_migrations: u64 => sum,
        /// Quantum preemptions (SchedKind::Quantum): tasks descheduled at a
        /// batch boundary after exhausting their cycle quantum.
        pub preemptions: u64 => sum,
        /// Tasks pushed into the ready structure (unified across policies).
        pub sched_pushed: u64 => sum,
        /// Tasks popped out of the ready structure (unified across policies).
        pub sched_popped: u64 => sum,
        /// Pops served from the popping context's own queue (central
        /// policies count every pop here).
        pub sched_local_pops: u64 => sum,
        /// Pops served by raiding another context's queue.
        pub sched_steals: u64 => sum,

        // --- Fault plane / resilience (all zero without an attached plane) ---
        /// Faults injected across every site.
        pub faults_injected: u64 => sum,
        /// Message retransmissions (drop timeouts + corrupt NACK retries).
        pub msg_retries: u64 => sum,
        /// NACKs returned by the checksum model for corrupted payloads.
        pub msg_nacks: u64 => sum,
        /// Times the message retry budget ran out (run flagged fatal).
        pub retry_budget_exhausted: u64 => sum,
        /// Directory entries lost to injected upsets (recovered via the
        /// inclusion-eviction path).
        pub dir_entries_lost: u64 => sum,
        /// Extra latency cycles charged by injected delays, timeouts and
        /// backoff waits.
        pub fault_delay_cycles: u64 => sum,
        /// Upgrades that found their directory entry lost (an injected
        /// upset) and recovered by re-allocating it.
        pub protocol_recoveries: u64 => sum,
        /// Task re-executions after injected mid-task failures.
        pub task_retries: u64 => sum,
        /// Tasks delayed by injected straggle at dispatch.
        pub task_straggles: u64 => sum,
        /// Progress-watchdog firings (hung-run detections).
        pub watchdog_fires: u64 => sum,
        /// RaCCD → full-coherence degradations under sustained fault pressure.
        pub mode_downgrades: u64 => sum,
    }
}

impl Stats {
    /// The sixteen protocol-visible counters every digest of a run folds
    /// (campaign `stats_digest`, the bench sweep checksum, the benchmark
    /// goldens), as the little-endian bytes they are hashed as. The set
    /// and its order are part of every pinned digest.
    pub fn protocol_counters_le(&self) -> [u8; 128] {
        let counters = [
            self.cycles,
            self.l1_hits,
            self.l1_misses,
            self.tlb_hits,
            self.tlb_misses,
            self.dir_accesses,
            self.llc_hits,
            self.llc_misses,
            self.invalidations_sent,
            self.nc_fills,
            self.coherent_fills,
            self.noc_traffic,
            self.mem_reads,
            self.mem_writes,
            self.tasks_executed,
            self.refs_processed,
        ];
        let mut bytes = [0u8; 128];
        for (chunk, v) in bytes.chunks_exact_mut(8).zip(counters) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        bytes
    }

    /// LLC hit ratio (Figure 7b). 0 when the LLC was never accessed.
    pub fn llc_hit_ratio(&self) -> f64 {
        let total = self.llc_hits + self.llc_misses;
        if total == 0 {
            0.0
        } else {
            self.llc_hits as f64 / total as f64
        }
    }

    /// L1 hit ratio.
    pub fn l1_hit_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Average hardware-context utilisation: busy cycles over
    /// `contexts × total cycles`. A pipelined workload (Gauss) sits far
    /// below an embarrassingly parallel one (Jacobi's first sweep).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.contexts == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (self.cycles * self.contexts) as f64
        }
    }

    /// The two fields of [`Stats::merge`] that do not simply add.
    fn merge_occupancy_and_hist(&mut self, other: &Stats) {
        let (wa, wb) = (self.dir_capacity_integral, other.dir_capacity_integral);
        let (oa, ob) = (self.dir_avg_occupancy, other.dir_avg_occupancy);
        self.dir_avg_occupancy = if wa + wb > 0 {
            (oa * wa as f64 + ob * wb as f64) / (wa + wb) as f64
        } else if self.cycles + other.cycles > 0 {
            (oa * self.cycles as f64 + ob * other.cycles as f64)
                / (self.cycles + other.cycles) as f64
        } else {
            (oa + ob) / 2.0
        };
        for &(cap, count) in &other.dir_access_hist {
            match self.dir_access_hist.iter_mut().find(|e| e.0 == cap) {
                Some(e) => e.1 += count,
                None => self.dir_access_hist.push((cap, count)),
            }
        }
        self.dir_access_hist.sort_unstable_by_key(|e| e.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_totals() {
        let s = Stats::default();
        assert_eq!(s.llc_hit_ratio(), 0.0);
        assert_eq!(s.l1_hit_ratio(), 0.0);
    }

    #[test]
    fn utilization_bounds() {
        let s = Stats {
            cycles: 100,
            contexts: 4,
            busy_cycles: 200,
            ..Stats::default()
        };
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(Stats::default().utilization(), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_merges_hist() {
        let mut a = Stats {
            cycles: 100,
            dir_accesses: 10,
            contexts: 8,
            dir_access_hist: vec![(64, 5), (128, 2)],
            ..Stats::default()
        };
        let b = Stats {
            cycles: 50,
            dir_accesses: 4,
            contexts: 8,
            dir_access_hist: vec![(32, 1), (64, 3)],
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.dir_accesses, 14);
        assert_eq!(a.contexts, 8, "same machine, not summed");
        // Shared key 64 adds; disjoint keys union, sorted by capacity.
        assert_eq!(a.dir_access_hist, vec![(32, 1), (64, 8), (128, 2)]);
    }

    #[test]
    fn merge_weights_occupancy_by_capacity_integral() {
        let mut a = Stats {
            dir_avg_occupancy: 0.8,
            dir_capacity_integral: 1000,
            ..Stats::default()
        };
        let b = Stats {
            dir_avg_occupancy: 0.2,
            dir_capacity_integral: 3000,
            ..Stats::default()
        };
        a.merge(&b);
        // (0.8·1000 + 0.2·3000) / 4000 = 0.35 — NOT the naive mean 0.5.
        assert!((a.dir_avg_occupancy - 0.35).abs() < 1e-12);
        assert_eq!(a.dir_capacity_integral, 4000);
    }

    #[test]
    fn merge_occupancy_falls_back_to_cycle_weights() {
        let mut a = Stats {
            dir_avg_occupancy: 1.0,
            cycles: 10,
            ..Stats::default()
        };
        let b = Stats {
            dir_avg_occupancy: 0.0,
            cycles: 30,
            ..Stats::default()
        };
        a.merge(&b);
        assert!((a.dir_avg_occupancy - 0.25).abs() < 1e-12);
        // Both sides empty: plain mean, no NaN.
        let mut e = Stats {
            dir_avg_occupancy: 0.5,
            ..Stats::default()
        };
        e.merge(&Stats::default());
        assert!((e.dir_avg_occupancy - 0.25).abs() < 1e-12);
        assert!(e.dir_avg_occupancy.is_finite());
    }

    #[test]
    fn merge_into_default_is_identity_for_counters() {
        let mut a = Stats::default();
        let b = Stats {
            cycles: 7,
            nc_fills: 3,
            dir_avg_occupancy: 0.4,
            dir_capacity_integral: 500,
            dir_access_hist: vec![(64, 9)],
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 7);
        assert_eq!(a.nc_fills, 3);
        assert!((a.dir_avg_occupancy - 0.4).abs() < 1e-12);
        assert_eq!(a.dir_access_hist, vec![(64, 9)]);
    }

    /// Every field populated with a distinct value, via an exhaustive
    /// struct literal: adding a `Stats` field without updating this test
    /// (and therefore without deciding its merge and snapshot behaviour)
    /// is a compile error.
    fn fully_populated() -> Stats {
        Stats {
            cycles: 1,
            l1_hits: 2,
            l1_misses: 3,
            l1_writebacks: 4,
            write_throughs: 5,
            tlb_hits: 6,
            tlb_misses: 7,
            dir_accesses: 8,
            dir_allocations: 9,
            dir_evictions: 10,
            dir_avg_occupancy: 0.25,
            dir_access_hist: vec![(32, 11), (64, 12)],
            dir_capacity_integral: 1024,
            adr_reconfigs: 13,
            adr_blocked_cycles: 14,
            llc_hits: 15,
            llc_misses: 16,
            llc_inclusion_invalidations: 17,
            invalidations_sent: 18,
            owner_forwards: 19,
            nc_fills: 20,
            coherent_fills: 21,
            bank_wait_cycles: 22,
            noc_traffic: 23,
            noc_flits: 24,
            mem_reads: 25,
            mem_writes: 26,
            register_cycles: 27,
            invalidate_cycles: 28,
            nc_lines_flushed: 29,
            ncrt_overflows: 30,
            pt_shared_transitions: 31,
            pt_flush_lines: 32,
            tasks_executed: 33,
            refs_processed: 34,
            busy_cycles: 35,
            contexts: 36,
            task_migrations: 37,
            ncrt_migrations: 49,
            preemptions: 50,
            sched_pushed: 51,
            sched_popped: 52,
            sched_local_pops: 53,
            sched_steals: 54,
            faults_injected: 38,
            msg_retries: 39,
            msg_nacks: 40,
            retry_budget_exhausted: 41,
            dir_entries_lost: 42,
            fault_delay_cycles: 43,
            protocol_recoveries: 44,
            task_retries: 45,
            task_straggles: 46,
            watchdog_fires: 47,
            mode_downgrades: 48,
        }
    }

    #[test]
    fn merge_is_complete_over_every_field() {
        // Merging a fully-populated Stats into a default one must carry
        // every field over — in particular all eleven fault/resilience
        // counters (faults_injected, msg_retries, msg_nacks,
        // retry_budget_exhausted, dir_entries_lost, fault_delay_cycles,
        // protocol_recoveries, task_retries, task_straggles,
        // watchdog_fires, mode_downgrades). A counter whose merge arm is
        // missing stays 0 and fails the whole-struct equality.
        let full = fully_populated();
        let mut merged = Stats::default();
        merged.merge(&full);
        assert_eq!(merged, full);
    }

    #[test]
    fn snapshot_roundtrip_is_complete_over_every_field() {
        use raccd_snap::Snap;
        let full = fully_populated();
        let mut w = raccd_snap::SnapWriter::default();
        full.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = raccd_snap::SnapReader::new(&bytes);
        let back = Stats::load(&mut r).expect("stats decode");
        assert_eq!(r.remaining(), 0, "decode consumed every byte");
        assert_eq!(back, full);
    }

    #[test]
    fn ratios_compute() {
        let s = Stats {
            llc_hits: 3,
            llc_misses: 1,
            l1_hits: 9,
            l1_misses: 1,
            ..Stats::default()
        };
        assert!((s.llc_hit_ratio() - 0.75).abs() < 1e-12);
        assert!((s.l1_hit_ratio() - 0.9).abs() < 1e-12);
    }
}
