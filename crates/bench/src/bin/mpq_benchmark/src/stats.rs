//! Order statistics for latency samples and for run-to-run comparison.

/// A percentile is reported only with at least this many samples beyond
/// it (choosing-metrics §1): below that, the value is one or two
/// outliers, not a property of the system.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) of ascending `sorted`, by the
/// nearest-rank rule, or `None` when fewer than [`MIN_SAMPLES_BEYOND`]
/// samples lie strictly beyond that rank.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    supported_index(sorted.len(), p).map(|idx| sorted[idx])
}

/// Index of the `p`-th percentile among `n` ascending samples, if
/// enough samples lie beyond it.
fn supported_index(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (n - 1 - idx >= MIN_SAMPLES_BEYOND).then_some(idx)
}

/// Smallest sample count for which [`percentile`] supports `p`.
pub fn samples_needed(p: f64) -> usize {
    (MIN_SAMPLES_BEYOND..)
        .find(|&n| supported_index(n, p).is_some())
        .expect("every p < 100 is supported by some count")
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// pipeline judges spreads with.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        // Position k * (n + 1) / 4 in 1-based ranks, clamped like Python.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's regression bound is compared with.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile(&v, 50.0), Some(1000));
        assert_eq!(percentile(&v, 99.0), Some(1980));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), Some(990));
        // One sample fewer leaves 9 beyond: refused.
        assert_eq!(percentile(&v[..999], 99.0), None);
        // The median of 20 samples has exactly 10 beyond; of 19, only 9.
        assert_eq!(percentile(&v[..20], 50.0), Some(10));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    #[test]
    fn samples_needed_agrees_with_percentile() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        for p in [50.0, 90.0, 99.0] {
            let n = samples_needed(p);
            let v: Vec<u64> = (0..n as u64).collect();
            assert!(percentile(&v, p).is_some(), "p{p} with {n} samples");
            assert!(
                percentile(&v[..n - 1], p).is_none(),
                "p{p} with {} samples",
                n - 1
            );
        }
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]).unwrap();
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 45.0).abs() < 1e-12);
        // Two values: Python extrapolates to [0.75, 1.5, 2.25] for [1, 2].
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(relative_spread(&v).map(|s| (s * 1e6).round()), Some(1e6));
    }
}
