//! Descriptive statistics: moments, quantiles, deciles, trailing standard
//! deviations and change rates.
//!
//! The paper summarizes attribute distributions with deciles ("we divide the
//! sorted data set into ten equal-sized subsets and display the first nine
//! deciles to avoid the skew of outliers", §IV-B) and builds per-attribute
//! features from the standard deviation over the last 24 hours and the change
//! rate of the values (§IV-B). All of those primitives live here.

use crate::error::StatsError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(dds_stats::mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
/// ```
pub fn mean(values: &[f64]) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (divides by `n`).
///
/// The paper's z-score (Eq. 7) uses population moments of each group, so this
/// is the default variance throughout the workspace. See [`sample_variance`]
/// for the `n − 1` version.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn variance(values: &[f64]) -> Result<f64, StatsError> {
    let m = mean(values)?;
    Ok(values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64)
}

/// Sample variance (divides by `n − 1`).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when fewer than two observations
/// are provided.
pub fn sample_variance(values: &[f64]) -> Result<f64, StatsError> {
    if values.len() < 2 {
        return Err(StatsError::InsufficientData { needed: 2, got: values.len() });
    }
    let m = mean(values)?;
    Ok(values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64)
}

/// Population standard deviation.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn std_dev(values: &[f64]) -> Result<f64, StatsError> {
    Ok(variance(values)?.sqrt())
}

/// Minimum of a slice, ignoring nothing: every value participates.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice and
/// [`StatsError::NonFinite`] if any value is NaN.
pub fn min(values: &[f64]) -> Result<f64, StatsError> {
    fold_extreme(values, f64::min)
}

/// Maximum of a slice.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice and
/// [`StatsError::NonFinite`] if any value is NaN.
pub fn max(values: &[f64]) -> Result<f64, StatsError> {
    fold_extreme(values, f64::max)
}

fn fold_extreme(values: &[f64], pick: fn(f64, f64) -> f64) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NonFinite);
    }
    Ok(values.iter().copied().fold(values[0], pick))
}

/// Quantile with linear interpolation between order statistics
/// (type-7 / NumPy default).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice,
/// [`StatsError::InvalidParameter`] if `q` is outside `[0, 1]`, and
/// [`StatsError::NonFinite`] if any value is NaN.
///
/// # Example
///
/// ```
/// let q = dds_stats::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap();
/// assert_eq!(q, 2.5);
/// ```
pub fn quantile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter(format!("quantile {q} not in [0, 1]")));
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NonFinite);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile of an already-sorted slice (ascending). No validation is done on
/// sortedness; prefer [`quantile`] unless the data is known sorted.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// Propagates the errors of [`quantile`].
pub fn median(values: &[f64]) -> Result<f64, StatsError> {
    quantile(values, 0.5)
}

/// The first nine deciles (10%, 20%, …, 90%) of a data set.
///
/// This is exactly the summary the paper uses in Fig. 6 to compare failure
/// groups with good drives while staying robust to outliers: the 10th decile
/// (the maximum) is intentionally omitted.
///
/// # Errors
///
/// Propagates the errors of [`quantile`].
///
/// # Example
///
/// ```
/// let values: Vec<f64> = (1..=100).map(f64::from).collect();
/// let d = dds_stats::deciles(&values).unwrap();
/// assert_eq!(d.len(), 9);
/// assert!((d[4] - 50.5).abs() < 1e-9); // 5th decile = median
/// ```
pub fn deciles(values: &[f64]) -> Result<[f64; 9], StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NonFinite);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
    let mut out = [0.0; 9];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = quantile_sorted(&sorted, (i + 1) as f64 / 10.0);
    }
    Ok(out)
}

/// Average rate of change per step over a series: `(last − first) / (n − 1)`.
///
/// Used as one of the two derived statistics added to every R/W attribute
/// when building the 30-feature failure records (§IV-B).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when fewer than two observations
/// are provided.
pub fn change_rate(values: &[f64]) -> Result<f64, StatsError> {
    if values.len() < 2 {
        return Err(StatsError::InsufficientData { needed: 2, got: values.len() });
    }
    Ok((values[values.len() - 1] - values[0]) / (values.len() - 1) as f64)
}

/// Standard deviation of the trailing `window` observations (or of the whole
/// series if it is shorter than the window).
///
/// The paper's failure-record features include "standard deviation of the
/// values in the last 24 hours" (§IV-B); callers pass `window = 24`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty series and
/// [`StatsError::InvalidParameter`] for a zero window.
pub fn trailing_std(values: &[f64], window: usize) -> Result<f64, StatsError> {
    if window == 0 {
        return Err(StatsError::InvalidParameter("window must be positive".to_string()));
    }
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let start = values.len().saturating_sub(window);
    std_dev(&values[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_constants() {
        let v = [5.0; 8];
        assert_eq!(mean(&v).unwrap(), 5.0);
        assert_eq!(variance(&v).unwrap(), 0.0);
        assert_eq!(std_dev(&v).unwrap(), 0.0);
    }

    #[test]
    fn population_vs_sample_variance() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&v).unwrap() - 4.0).abs() < 1e-12);
        assert!((sample_variance(&v).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_needs_two_points() {
        assert!(matches!(
            sample_variance(&[1.0]),
            Err(StatsError::InsufficientData { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn min_max_reject_nan() {
        assert_eq!(min(&[1.0, f64::NAN]).unwrap_err(), StatsError::NonFinite);
        assert_eq!(max(&[]).unwrap_err(), StatsError::EmptyInput);
        assert_eq!(min(&[3.0, -2.0, 7.0]).unwrap(), -2.0);
        assert_eq!(max(&[3.0, -2.0, 7.0]).unwrap(), 7.0);
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 10.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 40.0);
        assert!((quantile(&v, 0.25).unwrap() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
    }

    #[test]
    fn quantile_of_singleton() {
        assert_eq!(quantile(&[42.0], 0.7).unwrap(), 42.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }

    #[test]
    fn deciles_are_monotone() {
        let v: Vec<f64> = (0..977).map(|i| ((i * 37) % 1000) as f64).collect();
        let d = deciles(&v).unwrap();
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn deciles_exclude_extreme_outlier() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(1e9);
        let d = deciles(&v).unwrap();
        // The 9th decile should be unaffected by the single enormous value.
        assert!(d[8] < 100.0);
    }

    #[test]
    fn change_rate_is_slope_of_endpoints() {
        assert_eq!(change_rate(&[0.0, 1.0, 5.0, 9.0]).unwrap(), 3.0);
        assert!(change_rate(&[1.0]).is_err());
    }

    #[test]
    fn trailing_std_uses_only_window() {
        // Large early values must not influence the trailing window.
        let mut v = vec![1000.0; 10];
        v.extend([1.0, 1.0, 1.0]);
        assert_eq!(trailing_std(&v, 3).unwrap(), 0.0);
    }

    #[test]
    fn trailing_std_handles_short_series() {
        assert_eq!(trailing_std(&[2.0, 2.0], 24).unwrap(), 0.0);
    }
}
