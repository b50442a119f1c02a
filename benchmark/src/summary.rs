//! Order statistics over a handful of reps, and the floor of their pieces.

/// The value reported for one metric, with the median, quartiles and
/// range of the per-rep values behind it and every raw one.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// What the result line carries: for a timing, the floor over the
    /// reps' pieces (see [`floor`]); for a single measurement, itself.
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub raw: Vec<f64>,
}

impl Summary {
    /// Summarise `raw` (at least one value) behind the reported `value`.
    pub fn of(value: f64, raw: Vec<f64>) -> Summary {
        assert!(!raw.is_empty(), "summary of no samples");
        let mut sorted = raw.clone();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Summary {
            value,
            median,
            min: sorted[0],
            q1,
            q3,
            max: sorted[sorted.len() - 1],
            raw,
        }
    }

    /// A metric measured once per process (peak RSS).
    pub fn single(v: f64) -> Summary {
        Summary::of(v, vec![v])
    }

    pub fn n(&self) -> usize {
        self.raw.len()
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The floor of a timing: every rep does the same pieces of work in the
/// same order, and a busy host only ever adds time to a piece, so the
/// sum over the pieces of the fastest time each took in any rep is the
/// steadiest estimate of what the work costs. One rep is its own floor;
/// reps that disagree on the number of pieces fall back to the fastest
/// whole rep.
pub fn floor(reps: &[Vec<f64>]) -> f64 {
    let pieces = reps.first().map_or(0, Vec::len);
    if reps.iter().any(|r| r.len() != pieces) {
        return reps
            .iter()
            .map(|r| r.iter().sum())
            .fold(f64::INFINITY, f64::min);
    }
    (0..pieces)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// `(q1, median, q3)` of sorted data, as Python's
/// `statistics.quantiles(data, n=4)` computes them (the exclusive method),
/// so spreads printed here equal the ones the driver works out. A single
/// value is its own three quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let q = |i: usize| quantile(sorted, i, 4);
    (q(1), q(2), q(3))
}

/// The `i`-th of `n` exclusive quantile cut points of sorted data.
pub fn quantile(sorted: &[f64], i: usize, n: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let j = (i * (len + 1) / n).clamp(1, len - 1);
    let delta = (i * (len + 1)) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quartiles(&sorted).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
            (2.0, 4.0, 6.0)
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn p90_of_ten_values() {
        // statistics.quantiles(range(1, 11), n=10)[8] == 9.9
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 9, 10) - 9.9).abs() < 1e-12);
    }

    #[test]
    fn summary_sorts_but_keeps_raw_order() {
        let s = Summary::of(0.5, vec![3.0, 1.0, 2.0]);
        assert_eq!((s.value, s.median), (0.5, 2.0));
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert_eq!(s.raw, vec![3.0, 1.0, 2.0]);
        assert_eq!(s.n(), 3);
        assert_eq!(Summary::single(7.0).value, 7.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn the_floor_takes_each_piece_from_its_fastest_rep() {
        // Rep totals are 6 and 6; the floor is 1 + 2 + 1.
        let reps = [vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]];
        assert_eq!(floor(&reps), 4.0);
        assert_eq!(floor(&reps[..1]), 6.0);
        // Reps cut differently compare only as wholes.
        assert_eq!(floor(&[vec![1.0, 2.0], vec![2.5]]), 2.5);
    }
}
