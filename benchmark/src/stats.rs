//! Order statistics over small samples: percentiles, medians, quartiles.

/// Sorts `values` and returns them (NaN-free input assumed: every caller
/// feeds measured counts or times).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    values
}

/// The `p`-th percentile (`0.0..=100.0`) of an ascending slice by the
/// nearest-rank method: the smallest value with at least `p` % of the
/// sample at or below it. Empty input gives 0.
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    if ascending.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Median of an unsorted sample; the mean of the two middle values for an
/// even count. Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them — the acceptance rule is stated in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based scale, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Per-window rates from cumulative `(time_ns, count)` snapshots taken at
/// window boundaries: `n + 1` snapshots give `n` rates in events/second.
/// Each rate divides by the window's *actual* length, so a snapshot taken
/// a little late does not inflate its window.
pub fn window_rates(snapshots: &[(u64, u64)]) -> Vec<f64> {
    snapshots
        .windows(2)
        .map(|w| {
            let dt = w[1].0.saturating_sub(w[0].0).max(1) as f64 / 1e9;
            w[1].1.saturating_sub(w[0].1) as f64 / dt
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let (q1, q3) = quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_rates_use_actual_window_length() {
        // Second snapshot 100 ms late: 1100 events over 1.1 s is still 1000/s.
        let rates = window_rates(&[(0, 0), (1_100_000_000, 1100), (2_000_000_000, 2000)]);
        assert!((rates[0] - 1000.0).abs() < 1e-9);
        assert!((rates[1] - 1000.0).abs() < 1e-9);
        assert_eq!(median(&rates), 1000.0);
    }
}
