//! `compare A.json B.json`: one verdict per (metric, workload) row, by
//! the bounds `BENCHMARK.json` fixes.

use crate::names::{self, Better};
use crate::result::{field, manifest_dir, number, text, Doc};
use crate::summary::Summary;
use raccd_obs::json;
use std::path::PathBuf;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs' spread is wider than the bound and they overlap: the
    /// files cannot tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub fn benchmark_json() -> PathBuf {
    manifest_dir().join("../BENCHMARK.json")
}

/// The bound of every compiled end-to-end metric, from `BENCHMARK.json`.
pub fn load_bounds() -> Result<Vec<Bound>, String> {
    let path = benchmark_json();
    let text_in = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text_in).map_err(|e| format!("{}: {e}", path.display()))?;
    let listed = field(&v, "end_to_end")?.items();
    names::END_TO_END
        .iter()
        .map(|d| {
            let entry = listed
                .iter()
                .find(|m| text(m, "name").as_deref() == Ok(d.name))
                .ok_or(format!("{}: no bound for {}", path.display(), d.name))?;
            Ok(Bound {
                name: d.name,
                better: d.better,
                bound: number(entry, "bound")?,
            })
        })
        .collect()
}

/// How B's runs of a metric stand against A's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Share of A's value by which B's value is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two interquartile ranges, as a share of A's median.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Row {
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let spread = a.iqr().max(b.iqr()) / a.median;
    let overlap = a.min <= b.max && b.min <= a.max;
    // Below four samples the quartiles say nothing about the spread, so
    // a gain has to clear the bound instead of A's own spread.
    let noise = if a.n() < 4 || b.n() < 4 {
        bound
    } else {
        a.iqr() / a.median
    };
    let verdict = if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if !overlap && -worse_by > noise {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        worse_by,
        spread,
        verdict,
    }
}

/// Print one row per (metric, workload) present in both documents and
/// return the verdicts.
pub fn compare(a: &Doc, b: &Doc, bounds: &[Bound]) -> Vec<Verdict> {
    println!(
        "A: {}{} on {}\nB: {}{} on {}",
        a.provenance.git_rev,
        if a.provenance.git_dirty { "+dirty" } else { "" },
        a.provenance.host,
        b.provenance.git_rev,
        if b.provenance.git_dirty { "+dirty" } else { "" },
        b.provenance.host,
    );
    if a.provenance.host != b.provenance.host {
        println!("warning: different hosts; host times do not compare across machines");
    }
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    let mut verdicts = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<16} only in A", wa.name);
            continue;
        };
        if wa.seed != wb.seed || wa.seconds != wb.seconds {
            println!(
                "{:<16} warning: seed/seconds differ ({}/{} vs {}/{})",
                wa.name, wa.seed, wa.seconds, wb.seed, wb.seconds
            );
        }
        for bound in bounds {
            let (Some(sa), Some(sb)) = (wa.metric(bound.name), wb.metric(bound.name)) else {
                continue;
            };
            let row = judge(sa, sb, bound.better, bound.bound);
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.0}%  {}",
                wa.name,
                bound.name,
                sa.value,
                sb.value,
                row.worse_by * 100.0,
                row.spread * 100.0,
                bound.bound * 100.0,
                row.verdict.label()
            );
            verdicts.push(row.verdict);
        }
        if wa.failed + wb.failed > 0 || wa.digests != wb.digests {
            println!(
                "{:<16} failed {}/{} vs {}/{}; Stats digests {}",
                wa.name,
                wa.failed,
                wa.attempted,
                wb.failed,
                wb.attempted,
                if wa.digests == wb.digests {
                    "equal"
                } else {
                    "DIFFER: the simulated statistics changed"
                }
            );
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Better::{Higher, Lower};

    /// Reps whose reported value is the fastest of them.
    fn s(v: &[f64]) -> Summary {
        Summary::of(v.iter().copied().fold(f64::INFINITY, f64::min), v.to_vec())
    }

    #[test]
    fn tight_runs_within_the_bound_are_unchanged() {
        let a = s(&[1.00, 1.01, 1.02, 1.01, 1.00]);
        let b = s(&[1.03, 1.04, 1.03, 1.05, 1.04]);
        let r = judge(&a, &b, Lower, 0.10);
        assert_eq!(r.verdict, Verdict::Unchanged);
        assert!((r.worse_by - 0.03).abs() < 1e-9);
    }

    #[test]
    fn a_slowdown_past_the_bound_regresses_in_either_direction() {
        let a = s(&[1.00, 1.01, 1.02, 1.01, 1.00]);
        let slow = s(&[1.20, 1.21, 1.22, 1.21, 1.20]);
        assert_eq!(judge(&a, &slow, Lower, 0.10).verdict, Verdict::Regressed);
        // Throughput: lower is worse.
        assert_eq!(judge(&slow, &a, Higher, 0.10).verdict, Verdict::Regressed);
        assert_eq!(judge(&a, &slow, Higher, 0.10).verdict, Verdict::Improved);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = s(&[1.0, 1.3, 0.8, 1.2, 0.9]);
        let b = s(&[1.1, 1.4, 0.85, 1.25, 1.0]);
        assert_eq!(judge(&a, &b, Lower, 0.10).verdict, Verdict::Unresolved);
        // Wide but disjoint: every B run is worse than every A run.
        let far = s(&[2.0, 2.6, 1.6, 2.4, 1.8]);
        assert_eq!(judge(&a, &far, Lower, 0.10).verdict, Verdict::Regressed);
    }

    #[test]
    fn a_small_gain_counts_only_when_the_runs_are_disjoint_and_tight() {
        let a = s(&[1.000, 1.002, 1.001, 1.003, 1.001]);
        let b = s(&[0.960, 0.962, 0.961, 0.963, 0.961]);
        assert_eq!(judge(&a, &b, Lower, 0.10).verdict, Verdict::Improved);
        let touching = s(&[0.960, 0.962, 0.961, 0.963, 1.0005]);
        assert_eq!(
            judge(&a, &touching, Lower, 0.10).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn single_samples_need_the_bound_to_move() {
        let a = Summary::single(80.0);
        assert_eq!(
            judge(&a, &Summary::single(79.0), Lower, 0.10).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a, &Summary::single(60.0), Lower, 0.10).verdict,
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &Summary::single(90.0), Lower, 0.10).verdict,
            Verdict::Regressed
        );
    }
}
