//! Order statistics used for every reported number. Sample sets are
//! unsorted; `percentile` is the repository's own (linear interpolation
//! between closest ranks, 0 for an empty set).

pub use vfc::metrics::stats::percentile;

/// Median of a sample set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    vfc::metrics::Summary::of(samples).mean()
}

/// The tail the `*_p99_*` metrics report: p99 when at least ten samples
/// lie beyond it, otherwise the highest percentile that still has ten
/// samples beyond it (the maximum when there are ten samples or fewer).
pub fn tail(samples: &[f64]) -> f64 {
    let n = samples.len();
    let q = if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n.max(1) as f64).max(0.0)
    };
    percentile(samples, if n <= 10 { 1.0 } else { q })
}

/// Median of the last fifth over median of the first fifth of a series in
/// arrival order — how much a latency grew through a run. 1 when the
/// series is too short to split.
pub fn growth(series: &[f64]) -> f64 {
    let fifth = series.len() / 5;
    if fifth == 0 {
        return 1.0;
    }
    let first = median(&series[..fifth]);
    let last = median(&series[series.len() - fifth..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the spread definition `compare` and the
/// README use, so both agree with the acceptance procedure.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the data.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks_of_unsorted_input() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert!((percentile(&v, 0.25) - 17.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        assert!((tail(&big) - percentile(&big, 0.99)).abs() < 1e-9);
        // 200 samples: ten beyond p95, so the tail is p95, not p99.
        let mid: Vec<f64> = (0..200).map(f64::from).collect();
        assert!((tail(&mid) - percentile(&mid, 0.95)).abs() < 1e-9);
        let tiny = [9.0, 1.0, 2.0];
        assert_eq!(tail(&tiny), 9.0);
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn growth_compares_last_fifth_to_first() {
        let series: Vec<f64> = (1..=100).map(f64::from).collect();
        // first fifth median 10.5, last fifth median 90.5
        assert!((growth(&series) - 90.5 / 10.5).abs() < 1e-12);
        assert_eq!(growth(&[1.0, 2.0]), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, _, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }
}
