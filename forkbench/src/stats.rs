//! Percentiles and medians.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the percentile.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples ranked above the percentile.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of an ascending sample: the
/// smallest value with at least `q` of the sample at or below it.
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.checked_sub(rank)?;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of an unordered sample (mean of the middle two for an even
/// count); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts latencies ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        let p99 = percentile(&ramp(1000), 0.99).expect("reportable");
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p50 of 20: rank 10, 10 beyond.
        assert_eq!(percentile(&ramp(20), 0.5).map(|p| p.value), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_picks_a_sample_never_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        let v: Vec<f64> = v.iter().copied().cycle().take(50).collect();
        let p = percentile(&sorted(v), 0.5).expect("reportable");
        assert_eq!(p.value, 3.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
