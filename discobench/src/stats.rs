//! Order statistics over timing samples.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: fewer, and the "p90" is really the maximum of a handful of
/// runs.
pub const TAIL_MARGIN: usize = 10;

/// Index of the nearest-rank `q`-percentile (`0 < q <= 1`) in an ascending
/// sample of length `n >= 1`.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The nearest-rank `q`-percentile of an ascending sample, or `None` for an
/// empty one.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), q)])
}

/// Like [`percentile`], but only when at least [`TAIL_MARGIN`] samples lie
/// beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank_index(sorted.len(), q);
    (sorted.len() - idx > TAIL_MARGIN).then(|| sorted[idx])
}

/// Smallest sample size whose `q`-percentile has [`TAIL_MARGIN`] samples
/// beyond it.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| n - rank_index(n, q) > TAIL_MARGIN)
        .unwrap_or(usize::MAX)
}

/// Sorts a sample ascending (timings are finite, so the order is total).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of a sample (mean of the middle pair for even lengths), or
/// 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The arithmetic mean, or 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The geometric mean of positive values, or 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(3), 0.5), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: the p90 is the 90th, with exactly 10 beyond it.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples: the p90 is still the 90th, with only 9 beyond it.
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 0.5), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        assert_eq!(min_samples_for_tail(0.9), 100);
        assert_eq!(min_samples_for_tail(0.5), 20);
        assert_eq!(min_samples_for_tail(0.99), 1000);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
