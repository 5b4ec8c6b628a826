//! Time-series smoothing: the degradation pipeline smooths distance
//! curves with a centered moving average before window extraction
//! (§IV-C).

/// Centered moving average with edge shrinking: the output has the same
/// length as the input, and windows are clipped at the boundaries.
///
/// A `window` of 0 or 1 returns the input unchanged.
///
/// # Example
///
/// ```
/// let smoothed = dds_stats::timeseries::moving_average(&[0.0, 10.0, 0.0, 10.0, 0.0], 3);
/// assert_eq!(smoothed.len(), 5);
/// assert!((smoothed[2] - 20.0 / 3.0).abs() < 1e-12);
/// ```
pub fn moving_average(values: &[f64], window: usize) -> Vec<f64> {
    if window <= 1 {
        return values.to_vec();
    }
    let half = window / 2;
    (0..values.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(values.len());
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_identity_for_small_windows() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(moving_average(&v, 0), v);
        assert_eq!(moving_average(&v, 1), v);
    }

    #[test]
    fn moving_average_flattens_alternation() {
        let v = vec![0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let s = moving_average(&v, 3);
        // Interior points average to ~10/3..20/3 — variance shrinks.
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        assert!(var(&s) < var(&v) / 2.0);
    }

    #[test]
    fn moving_average_preserves_constants() {
        let v = vec![4.0; 10];
        assert_eq!(moving_average(&v, 5), v);
    }
}
