//! Sample summaries: the percentile-selection rule, medians, and the
//! quartile spread the regression bounds are derived from.
#![forbid(unsafe_code)]

/// Tail percentiles a summary may report, lowest first. A timing is
/// reported as its median plus the highest of these that still has
/// [`MIN_BEYOND`] samples beyond it.
const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` among `n` ascending samples,
/// computed in whole per-mille so that p95 of 200 is rank 190 exactly.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest ladder percentile that is at most `cap` and has at least
/// ten of `n` samples beyond it; `None` when even the lowest has not.
pub fn supported_tail(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| p <= cap && n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice; `0.0` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// A timing sample reduced to what is reported: count, median, and the
/// tail percentile the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is; equals 50 when no ladder entry is
    /// supported, and `tail` is then the median.
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
}

/// Summarises `samples` (sorted in place), reporting the tail no higher
/// than `cap`.
pub fn summarize(samples: &mut [f64], cap: f64) -> Summary {
    samples.sort_by(f64::total_cmp);
    let p50 = percentile_sorted(samples, 50.0);
    let (tail_pct, tail) = match supported_tail(samples.len(), cap) {
        Some(p) => (p, percentile_sorted(samples, p)),
        None => (50.0, p50),
    };
    Summary {
        n: samples.len(),
        p50,
        tail_pct,
        tail,
        max: samples.last().copied().unwrap_or(0.0),
    }
}

/// Nearest-rank median of `values` (sorted in place); `0.0` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, 50.0)
}

/// First quartile, median and third quartile of `values`, cut the way
/// Python's `statistics.quantiles(values, n=4)` cuts them (the exclusive
/// method), so the spreads computed here are the ones the driver sees.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 200 samples: exactly ten lie beyond p95, so p95 is the highest.
        assert_eq!(supported_tail(200, 99.9), Some(95.0));
        assert_eq!(supported_tail(199, 99.9), Some(90.0));
        assert_eq!(supported_tail(1_000, 99.9), Some(99.0));
        assert_eq!(supported_tail(10_000, 99.9), Some(99.9));
        // The cap names the metric: a p95 metric never reports p99.
        assert_eq!(supported_tail(10_000, 95.0), Some(95.0));
        assert_eq!(supported_tail(40, 95.0), Some(75.0));
        assert_eq!(supported_tail(39, 95.0), None);
    }

    #[test]
    fn summary_falls_back_to_the_median_when_no_tail_is_supported() {
        let mut few = vec![3.0, 1.0, 2.0];
        let s = summarize(&mut few, 95.0);
        assert_eq!(
            (s.n, s.p50, s.tail_pct, s.tail, s.max),
            (3, 2.0, 50.0, 2.0, 3.0)
        );
        let mut many: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&mut many, 95.0);
        assert_eq!((s.p50, s.tail_pct, s.tail), (100.0, 95.0, 190.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
