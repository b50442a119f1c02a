//! Adaptive Directory Reduction (§III-D).
//!
//! ADR dynamically resizes the directory by powering whole set-halves on
//! and off (Gated-Vdd). A per-bank occupancy monitor compares the resident
//! entry count against two thresholds of the *current* capacity:
//!
//! * occupancy ≥ `θ_inc` (paper: 80 %) → **double** the number of sets;
//! * occupancy ≤ `θ_dec` (paper: 20 %) → **halve** the number of sets.
//!
//! "We decide to halve or double the size of directory to simplify the
//! indexing function … using θinc = 80% · current size and θdec = 20% ·
//! current size provides a hysteresis loop with good reaction time with a
//! reduced number of reconfigurations."
//!
//! A reconfiguration rewrites the tag-index mapping and moves resident
//! entries, blocking the bank while it runs; the controller models that
//! with a per-entry move cost plus a fixed sequencing cost.

use crate::directory::{DirEviction, DirectoryBank};

/// ADR tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdrConfig {
    /// Grow when occupancy/capacity ≥ this (paper: 0.80).
    pub theta_inc: f64,
    /// Shrink when occupancy/capacity ≤ this (paper: 0.20).
    pub theta_dec: f64,
    /// Smallest entry count a bank may shrink to.
    pub min_entries: usize,
    /// Largest entry count (the design-time size; ADR never exceeds it).
    pub max_entries: usize,
    /// Cycles to move one resident entry during reconfiguration.
    pub move_cycles_per_entry: u64,
    /// Fixed cycles per reconfiguration (sequencing, index update).
    pub reconfig_fixed_cycles: u64,
}

impl AdrConfig {
    /// Paper defaults for a bank of `max_entries`, shrinking down to one
    /// 8-way set at minimum.
    pub fn paper_defaults(max_entries: usize, ways: usize) -> Self {
        AdrConfig {
            theta_inc: 0.80,
            theta_dec: 0.20,
            min_entries: ways,
            max_entries,
            move_cycles_per_entry: 2,
            reconfig_fixed_cycles: 100,
        }
    }
}

/// Which way a reconfiguration went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeDirection {
    /// Capacity doubled.
    Grow,
    /// Capacity halved.
    Shrink,
}

/// Result of one ADR reconfiguration.
#[derive(Debug)]
pub struct ResizeEvent {
    /// Grow or shrink.
    pub direction: ResizeDirection,
    /// New capacity in entries.
    pub new_entries: usize,
    /// Cycles the bank was blocked.
    pub blocked_cycles: u64,
    /// Entries that no longer fit (inclusion victims for the caller).
    pub evicted: Vec<DirEviction>,
}

/// The ADR controller for one directory bank.
#[derive(Clone, Debug)]
pub struct Adr {
    config: AdrConfig,
    reconfigs: u64,
    blocked_cycles_total: u64,
}

impl Adr {
    /// Create a controller.
    pub fn new(config: AdrConfig) -> Self {
        assert!(config.theta_dec < config.theta_inc);
        assert!(config.min_entries <= config.max_entries);
        Adr {
            config,
            reconfigs: 0,
            blocked_cycles_total: 0,
        }
    }

    /// Inspect the bank after an allocation/deallocation and resize it if a
    /// threshold is crossed. Returns the event if a reconfiguration ran.
    pub fn maybe_resize(&mut self, bank: &mut DirectoryBank, now: u64) -> Option<ResizeEvent> {
        let cap = bank.capacity();
        let occ = bank.occupancy();
        let frac = occ as f64 / cap as f64;

        let (direction, new_entries) =
            if frac >= self.config.theta_inc && cap * 2 <= self.config.max_entries {
                (ResizeDirection::Grow, cap * 2)
            } else if frac <= self.config.theta_dec
                && cap / 2 >= self.config.min_entries
                && cap > self.config.min_entries
            {
                (ResizeDirection::Shrink, cap / 2)
            } else {
                return None;
            };

        let moved = occ as u64;
        let blocked_cycles =
            self.config.reconfig_fixed_cycles + moved * self.config.move_cycles_per_entry;
        let evicted = bank.resize(new_entries, now);
        self.reconfigs += 1;
        self.blocked_cycles_total += blocked_cycles;
        Some(ResizeEvent {
            direction,
            new_entries,
            blocked_cycles,
            evicted,
        })
    }

    /// Number of reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigs
    }

    /// Total cycles spent blocked in reconfigurations.
    pub fn blocked_cycles(&self) -> u64 {
        self.blocked_cycles_total
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdrConfig {
        &self.config
    }
}

raccd_snap::snap_record!(AdrConfig {
    theta_inc,
    theta_dec,
    min_entries,
    max_entries,
    move_cycles_per_entry,
    reconfig_fixed_cycles,
});
// The invariant `Adr::new` asserts.
raccd_snap::snap_record!(
    Adr { config, reconfigs, blocked_cycles_total }
    where |a| a.config.theta_dec < a.config.theta_inc
        && a.config.min_entries <= a.config.max_entries,
    "ADR thresholds"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::DirEntry;
    use raccd_mem::BlockAddr;

    fn setup(entries: usize) -> (DirectoryBank, Adr) {
        let bank = DirectoryBank::new(entries, 8, 0);
        let adr = Adr::new(AdrConfig::paper_defaults(entries, 8));
        (bank, adr)
    }

    #[test]
    fn shrinks_when_nearly_empty() {
        let (mut bank, mut adr) = setup(64);
        bank.allocate(BlockAddr(1), 0, DirEntry::uncached());
        // occupancy 1/64 ≤ 20 % → shrink to 32.
        let ev = adr.maybe_resize(&mut bank, 10).expect("should shrink");
        assert_eq!(ev.direction, ResizeDirection::Shrink);
        assert_eq!(bank.capacity(), 32);
        assert!(ev.evicted.is_empty());
    }

    #[test]
    fn repeated_shrink_reaches_minimum_and_stops() {
        let (mut bank, mut adr) = setup(64);
        let mut now = 0;
        while adr.maybe_resize(&mut bank, now).is_some() {
            now += 10;
        }
        assert_eq!(bank.capacity(), 8, "min = one 8-way set");
        assert_eq!(adr.reconfigurations(), 3); // 64→32→16→8
    }

    #[test]
    fn grows_when_nearly_full() {
        let (mut bank, mut adr) = setup(64);
        // Shrink to 8 first.
        while adr.maybe_resize(&mut bank, 0).is_some() {}
        assert_eq!(bank.capacity(), 8);
        // Fill ≥ 80 %: 7 of 8.
        for i in 0..7u64 {
            bank.allocate(BlockAddr(i), 1, DirEntry::uncached());
        }
        let ev = adr.maybe_resize(&mut bank, 2).expect("should grow");
        assert_eq!(ev.direction, ResizeDirection::Grow);
        assert_eq!(bank.capacity(), 16);
        assert!(ev.blocked_cycles >= 100);
    }

    #[test]
    fn never_exceeds_design_size() {
        let (mut bank, mut adr) = setup(16);
        for i in 0..16u64 {
            bank.allocate(BlockAddr(i), 0, DirEntry::uncached());
        }
        // occupancy 100 % but already at max → no resize.
        assert!(adr.maybe_resize(&mut bank, 1).is_none());
    }

    #[test]
    fn hysteresis_region_is_stable() {
        let (mut bank, mut adr) = setup(64);
        // 50 % occupancy: between θdec and θinc → no resize.
        for i in 0..32u64 {
            bank.allocate(BlockAddr(i), 0, DirEntry::uncached());
        }
        assert!(adr.maybe_resize(&mut bank, 1).is_none());
        assert_eq!(adr.reconfigurations(), 0);
    }

    #[test]
    fn blocked_cycles_accumulate() {
        let (mut bank, mut adr) = setup(64);
        adr.maybe_resize(&mut bank, 0);
        adr.maybe_resize(&mut bank, 1);
        assert_eq!(adr.blocked_cycles(), 200, "two empty-bank reconfigs");
    }
}
