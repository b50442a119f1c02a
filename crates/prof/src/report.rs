//! Owned, mergeable profiler reports and the human-readable span table.

use crate::Site;

/// Accumulated statistics for one [`Site`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Number of spans recorded.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
    /// Accumulated throughput units (e.g. bytes for the snapshot sites).
    pub units: u64,
}

impl SiteStats {
    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Throughput in units per second over the accumulated span time,
    /// or `None` when no units or no time were recorded.
    pub fn units_per_sec(&self) -> Option<f64> {
        if self.units == 0 || self.total_ns == 0 {
            None
        } else {
            Some(self.units as f64 * 1e9 / self.total_ns as f64)
        }
    }

    /// Fold `other` into `self` (count/total/units add, min/max extremes).
    pub fn merge(&mut self, other: &SiteStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.units += other.units;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A frozen snapshot of every site's accumulator, in [`Site::ALL`] order.
/// Reports merge across threads/runs and render as a span table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Per-site statistics, indexed by `Site as usize`.
    pub sites: Vec<SiteStats>,
}

impl ProfReport {
    /// An all-zero report (useful as a merge accumulator).
    pub fn empty() -> Self {
        ProfReport {
            sites: vec![SiteStats::default(); Site::COUNT],
        }
    }

    /// Statistics for one site (zero if the report is malformed/short).
    pub fn get(&self, site: Site) -> SiteStats {
        self.sites.get(site as usize).copied().unwrap_or_default()
    }

    /// True when no site recorded any span.
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(|s| s.count == 0)
    }

    /// Fold another report into this one, site by site.
    pub fn merge(&mut self, other: &ProfReport) {
        if self.sites.len() < Site::COUNT {
            self.sites.resize(Site::COUNT, SiteStats::default());
        }
        for site in Site::ALL {
            let theirs = other.get(site);
            self.sites[site as usize].merge(&theirs);
        }
    }

    /// Sum of `total_ns` across the direct children of `parent`.
    pub fn children_total_ns(&self, parent: Site) -> u64 {
        parent.children().map(|c| self.get(c).total_ns).sum()
    }

    /// Render the span table: one row per site that recorded anything,
    /// with count, total/mean/min/max time and units-per-second where a
    /// site carries throughput units.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>10} {:>10} {:>10}  {}\n",
            "site", "count", "total", "mean", "min", "max", "throughput"
        ));
        for site in Site::ALL {
            let s = self.get(site);
            if s.count == 0 {
                continue;
            }
            let tput = match (s.units_per_sec(), site.unit()) {
                (Some(v), Some(u)) => format!("{}/s {}", fmt_si(v), u),
                _ => String::new(),
            };
            out.push_str(&format!(
                "{:<18} {:>10} {:>12} {:>10} {:>10} {:>10}  {}\n",
                site.name(),
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.mean_ns()),
                fmt_ns(s.min_ns),
                fmt_ns(s.max_ns),
                tput
            ));
        }
        out
    }
}

/// Format nanoseconds with an adaptive unit (ns/us/ms/s).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{}ns", ns)
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_commutative_on_extremes() {
        let mut a = SiteStats {
            count: 2,
            total_ns: 100,
            min_ns: 20,
            max_ns: 80,
            units: 10,
        };
        let b = SiteStats {
            count: 1,
            total_ns: 5,
            min_ns: 5,
            max_ns: 5,
            units: 0,
        };
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 105);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 80);
        assert_eq!(a.units, 10);
        // Merging into an empty slot copies verbatim (no min(0, x) bug).
        let mut z = SiteStats::default();
        z.merge(&b);
        assert_eq!(z, b);
    }

    #[test]
    fn report_merge_and_table() {
        let mut r = ProfReport::empty();
        assert!(r.is_empty());
        let mut other = ProfReport::empty();
        other.sites[Site::SnapEncode as usize] = SiteStats {
            count: 4,
            total_ns: 2_000_000,
            min_ns: 100_000,
            max_ns: 900_000,
            units: 1 << 20,
        };
        r.merge(&other);
        assert!(!r.is_empty());
        assert_eq!(r.get(Site::SnapEncode).count, 4);
        let table = r.render_table();
        assert!(table.contains("snap/encode"));
        assert!(
            table.contains("bytes"),
            "throughput column rendered: {table}"
        );
        // Sites with no samples are omitted from the table body.
        assert!(!table.contains("noc/route_xmit"));
    }

    #[test]
    fn children_sum() {
        let mut r = ProfReport::empty();
        for (i, c) in Site::MemRef.children().enumerate() {
            r.sites[c as usize] = SiteStats {
                count: 1,
                total_ns: (i as u64 + 1) * 10,
                min_ns: 1,
                max_ns: 1,
                units: 0,
            };
        }
        assert_eq!(r.children_total_ns(Site::MemRef), 10 + 20 + 30);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
        assert_eq!(fmt_si(1234.0), "1.23K");
        assert_eq!(fmt_si(12.5), "12.5");
    }
}
