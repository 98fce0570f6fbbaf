//! Timing summaries for Figure 11.
//!
//! `fig11` repeats work and needs a noise-aware summary: the minimum
//! (the least-disturbed run), the median (the robust central estimate
//! the paper-style tables report), and the 95th percentile (tail
//! latency). A bare mean would let one scheduler hiccup shift every
//! reported number.

use std::time::Instant;

/// Min/median/p95 of a set of wall-time samples, microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Fastest observed run.
    pub min_us: f64,
    /// Median run.
    pub median_us: f64,
    /// 95th percentile (nearest-rank) run.
    pub p95_us: f64,
}

impl TimingSummary {
    /// Summarizes raw samples (microseconds). Panics on an empty slice.
    pub fn from_samples(samples: &[f64]) -> TimingSummary {
        assert!(!samples.is_empty(), "no timing samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
        let n = sorted.len();
        // Nearest-rank percentile: ceil(p * n) - 1.
        let p95 = (n * 95).div_ceil(100).saturating_sub(1);
        TimingSummary { min_us: sorted[0], median_us: sorted[n / 2], p95_us: sorted[p95] }
    }
}

/// Runs `f` `reps` times (at least once) and summarizes the wall times.
pub fn measure<F: FnMut()>(mut f: F, reps: usize) -> TimingSummary {
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    TimingSummary::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_orders_statistics() {
        let s = TimingSummary::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.min_us, 1.0);
        assert_eq!(s.median_us, 3.0);
        assert_eq!(s.p95_us, 5.0);
    }

    #[test]
    fn single_sample_is_all_three() {
        let s = TimingSummary::from_samples(&[7.0]);
        assert_eq!((s.min_us, s.median_us, s.p95_us), (7.0, 7.0, 7.0));
    }

    #[test]
    fn p95_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = TimingSummary::from_samples(&samples);
        assert_eq!(s.p95_us, 95.0);
    }
}
