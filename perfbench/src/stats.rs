//! Exact order statistics over raw samples.
//!
//! Every timing quantile the benchmark reports comes from here, computed
//! from the full list of samples, never from bucketed histograms. The
//! reporting rule: give the median, the highest percentile that still has
//! at least [`MIN_BEYOND`] samples above it, and the sample count.

/// Samples that must lie above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first.
const TAIL_CANDIDATES: [(f64, &str); 6] =
    [(0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.90, "p90"), (0.75, "p75"), (0.50, "p50")];

/// Nearest-rank `q`-quantile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n > 0` samples. The
/// epsilon keeps `0.99 · 1000` at rank 990 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples of `n` lie strictly above the nearest-rank
/// `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for even the median.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    TAIL_CANDIDATES.iter().copied().find(|&(q, _)| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Median (nearest rank) of unsorted values; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The reported summary of one timing distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Exact 99th percentile (meaningful only when `p99_supported`).
    pub p99: f64,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the p99.
    pub p99_supported: bool,
    /// Label of the highest supported percentile.
    pub tail_label: &'static str,
    /// Value of the highest supported percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarizes raw samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (tail_q, tail_label) = highest_supported(n).unwrap_or((1.0, "max"));
        Some(Summary {
            n,
            p50: quantile(&sorted, 0.5),
            p99: quantile(&sorted, 0.99),
            p99_supported: beyond(n, 0.99) >= MIN_BEYOND,
            tail_label,
            tail: quantile(&sorted, tail_q),
        })
    }

    /// `p50 …, [<highest supported> …,] p99 … (n=…)` for the report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail_label {
            "p99" | "p50" => String::new(),
            label => format!("{label} {:.4} {unit}, ", self.tail),
        };
        format!(
            "p50 {:.4} {unit}, {tail}p99 {:.4} {unit}{} (n={})",
            self.p50,
            self.p99,
            if self.p99_supported { "" } else { " [under-sampled]" },
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1,000 samples leave exactly ten beyond the p99.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(highest_supported(1000), Some((0.99, "p99")));
        // 999 do not: the p95 is the highest reportable percentile.
        assert_eq!(highest_supported(999), Some((0.95, "p95")));
        assert_eq!(highest_supported(10_000), Some((0.999, "p99.9")));
        assert_eq!(highest_supported(20), Some((0.50, "p50")));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn summary_flags_an_under_sampled_p99() {
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!((s.n, s.p50, s.p99, s.p99_supported), (1000, 499.0, 989.0, true));
        assert_eq!(s.tail_label, "p99");

        let few: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert!(!s.p99_supported);
        assert_eq!((s.tail_label, s.tail), ("p95", 189.0));
        assert!(s.describe("ms").contains("under-sampled"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
