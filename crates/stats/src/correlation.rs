//! Covariance and correlation: Pearson, Spearman, and covariance matrices.
//!
//! §IV-D correlates the disk read/write attributes with the degradation value
//! inside the degradation window, in 24-hour windows, and over the whole
//! 20-day profile (Figs. 9 and 10). Pearson correlation is the workhorse;
//! Spearman is provided for robustness checks on the heavy-tailed raw
//! counters.

use crate::descriptive::mean;
use crate::error::StatsError;
use crate::matrix::Matrix;

/// Population covariance of two equally long series.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::DimensionMismatch`]
/// for invalid shapes.
pub fn covariance(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    if a.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if a.len() != b.len() {
        return Err(StatsError::DimensionMismatch { expected: a.len(), actual: b.len() });
    }
    let ma = mean(a)?;
    let mb = mean(b)?;
    Ok(a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>() / a.len() as f64)
}

/// Pearson product-moment correlation coefficient in `[-1, 1]`.
///
/// Series with zero variance yield `0.0` (no linear relationship can be
/// established), which matches how the paper treats constant attributes —
/// they are filtered as uninformative rather than propagating NaN.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::DimensionMismatch`]
/// for invalid shapes.
///
/// # Example
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [10.0, 20.0, 30.0, 40.0];
/// assert!((dds_stats::pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    let cov = covariance(a, b)?;
    let va = covariance(a, a)?;
    let vb = covariance(b, b)?;
    if va <= 0.0 || vb <= 0.0 {
        return Ok(0.0);
    }
    Ok((cov / (va.sqrt() * vb.sqrt())).clamp(-1.0, 1.0))
}

/// Assigns average ranks (1-based) to a series, with ties sharing the mean
/// rank of their positions.
pub(crate) fn average_ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("no NaN in rank input"));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // positions i..=j hold tied values; average their 1-based ranks.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation: Pearson correlation of the average ranks.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::DimensionMismatch`]
/// for invalid shapes and [`StatsError::NonFinite`] if either series
/// contains NaN.
pub fn spearman(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    if a.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if a.len() != b.len() {
        return Err(StatsError::DimensionMismatch { expected: a.len(), actual: b.len() });
    }
    if a.iter().chain(b).any(|v| v.is_nan()) {
        return Err(StatsError::NonFinite);
    }
    pearson(&average_ranks(a), &average_ranks(b))
}

/// Population covariance matrix of row-observations.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for no rows and
/// [`StatsError::DimensionMismatch`] for ragged rows.
pub fn covariance_matrix(rows: &[Vec<f64>]) -> Result<Matrix, StatsError> {
    if rows.is_empty() || rows[0].is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let cols = rows[0].len();
    let n = rows.len() as f64;
    let mut means = vec![0.0; cols];
    for row in rows {
        if row.len() != cols {
            return Err(StatsError::DimensionMismatch { expected: cols, actual: row.len() });
        }
        for (c, &v) in row.iter().enumerate() {
            means[c] += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut cov = Matrix::zeros(cols, cols)?;
    for row in rows {
        for i in 0..cols {
            let di = row[i] - means[i];
            for j in i..cols {
                cov[(i, j)] += di * (row[j] - means[j]);
            }
        }
    }
    for i in 0..cols {
        for j in i..cols {
            let v = cov[(i, j)] / n;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
    Ok(cov)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[6.0, 4.0, 2.0]).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_uncorrelated_symmetric() {
        let x = [-1.0, 0.0, 1.0];
        let y = [1.0, 0.0, 1.0]; // even function of x
        assert!(pearson(&x, &y).unwrap().abs() < 1e-12);
    }

    #[test]
    fn covariance_of_known_pairs() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 3.0, 2.0, 4.0];
        // Hand-computed population covariance = 1.0
        assert!((covariance(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_ranks_with_ties() {
        let r = average_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn covariance_matrix_is_symmetric_psd_diagonal() {
        let rows = vec![
            vec![1.0, 2.0, 0.5],
            vec![2.0, 1.0, 0.2],
            vec![3.0, 4.0, 0.9],
            vec![4.0, 3.0, 0.1],
        ];
        let cov = covariance_matrix(&rows).unwrap();
        assert!(cov.is_symmetric(1e-12));
        for i in 0..3 {
            assert!(cov[(i, i)] >= 0.0);
        }
    }

    #[test]
    fn shape_errors_propagate() {
        assert!(covariance(&[1.0], &[1.0, 2.0]).is_err());
        assert!(spearman(&[], &[]).is_err());
        assert!(covariance_matrix(&[]).is_err());
    }
}
