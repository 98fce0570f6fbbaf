//! Sample statistics: nearest-rank percentiles, plain and weighted, and
//! the rule for which percentiles a sample supports.

/// Percentiles a latency report may quote, highest last.
const CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported as
/// measured rather than as an outlier.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples: the smallest
/// rank whose value has at least `p` percent of the samples at or below
/// it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    // Multiply before dividing so p99.9 of 10,000 lands on rank 9,990
    // exactly instead of rounding up past it.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile `p` of an unsorted sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, p)
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 50.0)
}

/// Nearest-rank percentile `p` of a sample given as `(value, count)`
/// pairs: the percentile of the sample in which each value occurs
/// `count` times.
pub fn weighted_percentile(values: &[(f64, usize)], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = nearest_rank(v.iter().map(|x| x.1).sum(), p);
    let mut seen = 0;
    for (value, count) in v {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("the nearest rank is at most the total count")
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie above the
/// nearest-rank percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= MIN_BEYOND
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support, if
/// any.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES.iter().copied().rev().find(|&p| supports(n, p))
}

/// Min, median and tail of one set of latency samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Nearest-rank p10.
    pub p10: f64,
    /// Nearest-rank p50.
    pub p50: f64,
    /// Nearest-rank p90.
    pub p90: f64,
    /// Nearest-rank p99.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            min: s[0],
            p10: percentile(&s, 10.0),
            p50: percentile(&s, 50.0),
            p90: percentile(&s, 90.0),
            p99: percentile(&s, 99.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), 5.0);
    }

    #[test]
    fn weighted_percentile_repeats_each_value_by_its_count() {
        // The sample 1, 2, 2, 2, 9, 9, 9, 9, 9, 9 (ten values).
        let v = [(9.0, 6), (1.0, 1), (2.0, 3)];
        assert_eq!(weighted_percentile(&v, 10.0), 1.0);
        assert_eq!(weighted_percentile(&v, 40.0), 2.0);
        assert_eq!(weighted_percentile(&v, 41.0), 9.0);
        assert_eq!(weighted_percentile(&v, 90.0), 9.0);
        // Equal counts: the plain percentile of the values.
        let equal: Vec<(f64, usize)> = (1..=10).map(|x| (f64::from(x), 7)).collect();
        assert_eq!(weighted_percentile(&equal, 50.0), 5.0);
        assert_eq!(weighted_percentile(&equal, 90.0), 9.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond.
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(6000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn summary_orders_its_quantiles() {
        let samples: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!((s.n, s.min, s.p10, s.p50), (200, 0.0, 19.0, 99.0));
        assert_eq!((s.p90, s.p99), (179.0, 197.0));
        assert!(Summary::of(&[]).is_none());
    }
}
