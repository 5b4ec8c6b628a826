//! Streaming (single-pass, constant-memory) statistics: Welford
//! mean/variance.
//!
//! The online monitoring middleware (§VI of the paper) ingests hourly
//! SMART records indefinitely; [`RunningMoments`] tracks its
//! per-attribute baselines without storing history.

use crate::error::StatsError;

/// Welford's online mean/variance accumulator.
///
/// # Example
///
/// ```
/// use dds_stats::streaming::RunningMoments;
///
/// let mut m = RunningMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.mean(), 5.0);
/// assert!((m.population_variance().unwrap() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningMoments { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest observation so far.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation so far.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] before the first observation.
    pub fn population_variance(&self) -> Result<f64, StatsError> {
        if self.count == 0 {
            return Err(StatsError::EmptyInput);
        }
        Ok(self.m2 / self.count as f64)
    }

    /// Sample variance (`n − 1` denominator).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] before the second
    /// observation.
    pub fn sample_variance(&self) -> Result<f64, StatsError> {
        if self.count < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: self.count as usize });
        }
        Ok(self.m2 / (self.count - 1) as f64)
    }

    /// Population standard deviation.
    ///
    /// # Errors
    ///
    /// Propagates [`population_variance`](Self::population_variance).
    pub fn std_dev(&self) -> Result<f64, StatsError> {
        Ok(self.population_variance()?.sqrt())
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_batch_computation() {
        let values = [3.1, -2.0, 5.5, 0.0, 7.25, 3.3];
        let mut m = RunningMoments::new();
        for &v in &values {
            m.push(v);
        }
        let mean = crate::descriptive::mean(&values).unwrap();
        let var = crate::descriptive::variance(&values).unwrap();
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.population_variance().unwrap() - var).abs() < 1e-12);
        assert_eq!(m.min(), -2.0);
        assert_eq!(m.max(), 7.25);
        assert_eq!(m.count(), 6);
    }

    #[test]
    fn moments_errors_on_empty() {
        let m = RunningMoments::new();
        assert!(m.population_variance().is_err());
        assert!(m.std_dev().is_err());
        let mut m = m;
        m.push(1.0);
        assert!(m.sample_variance().is_err());
    }

    #[test]
    fn merge_equals_single_stream() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = RunningMoments::new();
        for &v in &all {
            whole.push(v);
        }
        let mut left = RunningMoments::new();
        let mut right = RunningMoments::new();
        for &v in &all[..37] {
            left.push(v);
        }
        for &v in &all[37..] {
            right.push(v);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!(
            (left.population_variance().unwrap() - whole.population_variance().unwrap()).abs()
                < 1e-9
        );
        assert_eq!(left.count(), whole.count());
        // Merging an empty accumulator is a no-op.
        let snapshot = left;
        left.merge(&RunningMoments::new());
        assert_eq!(left, snapshot);
    }
}
