//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread the benchmark reports for
//! its own runs is the spread a reader computes from the printed values.

/// Median of `values` (mean of the middle pair for even counts).
///
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)`.
///
/// Returns `None` for fewer than two values (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        // Python's 1-based j, clamped to 1..=n-1 before delta is taken
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The `p`-th percentile (nearest rank) of `values`, reported only when
/// at least ten samples lie strictly beyond the rank it picks; a tail
/// percentile resting on fewer samples is noise.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= 10).then(|| v[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond -> reported
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        // 999 samples: rank 990, only 9 beyond -> withheld
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        // p50 of 100 samples has 50 beyond it
        assert_eq!(tail_percentile(&v[..100], 50.0), Some(50.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
