//! Order statistics for timing samples.

/// Sorted copy of `xs` (NaNs are a harness bug and panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The smallest sample: the estimate least touched by host noise, which
/// only ever makes a timing longer.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn least(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "least of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by the nearest-rank rule: the smallest
/// sample with at least `p · n` samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of no samples");
    v[rank(v.len(), p) - 1]
}

/// Nearest rank of the `p`-quantile among `n` samples, in `1..=n`. The
/// small slack keeps `0.9 · 100` from rounding up to rank 91.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, with its value; `None` below 100 samples, where not
/// even p90 qualifies.
pub fn top_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.95, 0.90]
        .into_iter()
        .find(|&p| !xs.is_empty() && xs.len() - rank(xs.len(), p) >= 10)
        .map(|p| (p, percentile(xs, p)))
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(xs, n=4)` returns as its first and last cut.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    assert!(v.len() >= 2, "quartiles need two samples");
    let n = v.len();
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn least_is_the_minimum() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(least(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(top_percentile(&n(99)), None);
        assert_eq!(top_percentile(&n(100)).unwrap().0, 0.90);
        assert_eq!(top_percentile(&n(199)).unwrap().0, 0.90);
        assert_eq!(top_percentile(&n(200)).unwrap().0, 0.95);
        assert_eq!(top_percentile(&n(999)).unwrap().0, 0.95);
        assert_eq!(top_percentile(&n(1000)).unwrap().0, 0.99);
        assert_eq!(top_percentile(&n(10_000)).unwrap().0, 0.999);
        // p99 of 0..999 is the 990th smallest: ten samples lie beyond it.
        assert_eq!(top_percentile(&n(1000)).unwrap().1, 989.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
