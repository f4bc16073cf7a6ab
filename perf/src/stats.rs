//! Order statistics: the percentile rule the metrics use and the
//! quartiles `compare` and the calibration table report.

/// The `q`-quantile of an ascending slice by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The rule for reporting a tail: a percentile is only reported when at
/// least ten samples lie beyond it.
pub fn tail_is_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so spreads computed here match the driver's.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_a_hand_worked_vector() {
        // 20 samples: 1..=20. Nearest rank: p50 is the 10th, p90 the
        // 18th, p99 the 20th (ceil(19.8)).
        let v: Vec<u32> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), 10);
        assert_eq!(percentile(&v, 0.9), 18);
        assert_eq!(percentile(&v, 0.99), 20);
        assert_eq!(percentile(&v, 1.0), 20);
        assert_eq!(percentile(&[7u32], 0.5), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is the 90th: exactly ten beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_is_supported(100, 0.9));
        assert!(!tail_is_supported(99, 0.9));
        // p99 needs a thousand.
        assert!(!tail_is_supported(999, 0.99));
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), [1.5, 3.0, 8.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
