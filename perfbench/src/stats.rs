//! Order statistics for latency samples and for run-to-run spread.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// All samples the percentile was selected from.
    pub samples: usize,
    /// Samples strictly above the selected rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted`, reported only
/// when at least [`MIN_BEYOND`] samples lie beyond it; a p99 of 200
/// samples rests on two values and is refused.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile { value: sorted[rank - 1], samples: n, beyond })
}

/// The highest of `candidates` (descending) that [`percentile`] reports.
pub fn highest_reportable(sorted: &[f64], candidates: &[f64]) -> Option<(f64, Percentile)> {
    candidates.iter().find_map(|&p| percentile(sorted, p).map(|q| (p, q)))
}

/// Sorts a sample vector in place (NaN-free input assumed) and returns it.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match a reader's own check.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond.
        let p90 = percentile(&xs, 90.0).expect("ten beyond");
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        // p99 of 100 samples rests on one value beyond: refused.
        assert_eq!(percentile(&xs, 99.0), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&many, 99.0).expect("ten beyond");
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert_eq!(percentile(&many, 99.9), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_reportable_walks_down_the_candidates() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, q) = highest_reportable(&xs, &[99.9, 99.0, 90.0, 50.0]).expect("p90 fits");
        assert_eq!(p, 90.0);
        assert_eq!((q.value, q.samples, q.beyond), (180.0, 200, 20));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = spread(&xs).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
