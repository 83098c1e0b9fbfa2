//! Order statistics for timing samples.
//!
//! Timings are reported as a median and a tail: the highest of a few fixed
//! percentiles that still has at least [`MIN_BEYOND`] samples beyond it, so a
//! tail is never read off one or two outliers.

/// Samples a tail percentile must leave beyond itself.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be read at, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Linear-interpolated percentile `q` (0–100) of `values`; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (q / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many of `n` samples lie strictly beyond the `q`-th percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((n as f64 * q / 100.0).ceil() as usize).min(n)
}

/// The highest candidate percentile, at most `cap`, with at least
/// [`MIN_BEYOND`] of `n` samples beyond it. Falls back to the median when
/// even that has too few.
///
/// Each workload fixes its `cap` from its sample count on a reference
/// machine, so a faster program (more samples in the same run time) is not
/// judged at a higher percentile than its parent.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&q| q <= cap)
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median, tail and the percentile the tail was read at.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    /// Percentile of the tail.
    pub tail_pct: f64,
}

/// Summarises `values` with a tail read at most at percentile `cap`.
pub fn summarize(values: &[f64], cap: f64) -> Summary {
    let tail_pct = tail_percentile(values.len(), cap);
    Summary {
        n: values.len(),
        p50: median(values),
        tail: percentile(values, tail_pct),
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 4.0);
        assert_eq!(percentile(&[2.0, 4.0], 50.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        // 999 samples: p99 leaves 9, so p95 (49 beyond) is the tail.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        // 100 samples: p90 leaves 10; p95 only 5.
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(99, 99.0), 75.0);
        // 40 samples: p75 leaves 10; 39 falls back to the median.
        assert_eq!(tail_percentile(40, 99.0), 75.0);
        assert_eq!(tail_percentile(39, 99.0), 50.0);
        assert_eq!(tail_percentile(3, 99.0), 50.0);
    }

    #[test]
    fn the_cap_keeps_a_faster_run_at_its_parents_percentile() {
        assert_eq!(tail_percentile(5000, 90.0), 90.0);
        assert_eq!(tail_percentile(5000, 75.0), 75.0);
        // Too few samples still lowers the percentile below the cap.
        assert_eq!(tail_percentile(60, 90.0), 75.0);
    }

    #[test]
    fn summary_reports_the_percentile_it_used() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let s = summarize(&v, 99.0);
        assert_eq!(s.n, 100);
        assert_eq!(s.tail_pct, 90.0);
        assert!((s.tail - 89.1).abs() < 1e-9);
        assert!((s.p50 - 49.5).abs() < 1e-9);
    }
}
