//! Distance measures between health records.
//!
//! §IV-C compares every health record with the failure record of the same
//! drive using Euclidean distance (Mahalanobis was tested and rejected
//! because "the lower Mahalanobis distances are all the same"); both are
//! provided here.

use crate::error::StatsError;
use crate::matrix::Matrix;

fn check_same_len(a: &[f64], b: &[f64]) -> Result<(), StatsError> {
    if a.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if a.len() != b.len() {
        return Err(StatsError::DimensionMismatch { expected: a.len(), actual: b.len() });
    }
    Ok(())
}

/// Squared Euclidean distance (avoids the square root for comparisons).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::DimensionMismatch`]
/// for invalid input shapes.
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    check_same_len(a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum())
}

/// Euclidean (L2) distance.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::DimensionMismatch`]
/// for invalid input shapes.
///
/// # Example
///
/// ```
/// let d = dds_stats::euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap();
/// assert_eq!(d, 5.0);
/// ```
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    Ok(squared_euclidean(a, b)?.sqrt())
}

/// One-shot Mahalanobis distance given a covariance matrix.
///
/// For repeated queries against the same covariance, build a
/// [`MahalanobisMetric`] once instead (it caches the inverse).
///
/// # Errors
///
/// Propagates shape errors and [`StatsError::SingularMatrix`] if the
/// covariance cannot be inverted.
pub fn mahalanobis(a: &[f64], b: &[f64], covariance: &Matrix) -> Result<f64, StatsError> {
    MahalanobisMetric::new(covariance)?.distance(a, b)
}

/// A Mahalanobis metric with a pre-inverted covariance matrix.
///
/// # Example
///
/// ```
/// use dds_stats::{Matrix, MahalanobisMetric};
///
/// let cov = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// let metric = MahalanobisMetric::new(&cov).unwrap();
/// // Along the high-variance axis, distances shrink by the std-dev (2).
/// let d = metric.distance(&[2.0, 0.0], &[0.0, 0.0]).unwrap();
/// assert!((d - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct MahalanobisMetric {
    inverse_covariance: Matrix,
}

impl MahalanobisMetric {
    /// Builds the metric by inverting `covariance`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::SingularMatrix`] when the covariance is not
    /// invertible and [`StatsError::DimensionMismatch`] when it is not
    /// square.
    pub fn new(covariance: &Matrix) -> Result<Self, StatsError> {
        Ok(MahalanobisMetric { inverse_covariance: covariance.inverse()? })
    }

    /// Dimensionality of the metric.
    pub fn dims(&self) -> usize {
        self.inverse_covariance.rows()
    }

    /// Mahalanobis distance between two points.
    ///
    /// # Errors
    ///
    /// Returns shape errors when the points do not match the metric's
    /// dimensionality and [`StatsError::NonFinite`] if the quadratic form is
    /// negative (covariance was not positive definite).
    pub fn distance(&self, a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
        check_same_len(a, b)?;
        if a.len() != self.dims() {
            return Err(StatsError::DimensionMismatch { expected: self.dims(), actual: a.len() });
        }
        let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        let tmp = self.inverse_covariance.matvec(&diff)?;
        let quad: f64 = diff.iter().zip(&tmp).map(|(d, t)| d * t).sum();
        if quad < -1e-9 {
            return Err(StatsError::NonFinite);
        }
        Ok(quad.max(0.0).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_classic_triangle() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert_eq!(squared_euclidean(&[1.0], &[4.0]).unwrap(), 9.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = [1.5, -2.0, 0.25];
        assert_eq!(euclidean(&p, &p).unwrap(), 0.0);
    }

    #[test]
    fn shape_errors() {
        assert!(euclidean(&[], &[]).is_err());
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn mahalanobis_identity_covariance_equals_euclidean() {
        let cov = Matrix::identity(3).unwrap();
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        let dm = mahalanobis(&a, &b, &cov).unwrap();
        let de = euclidean(&a, &b).unwrap();
        assert!((dm - de).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_scales_by_variance() {
        let cov = Matrix::from_rows(&[vec![9.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let m = MahalanobisMetric::new(&cov).unwrap();
        // 3 units along the sd=3 axis is 1 Mahalanobis unit.
        assert!((m.distance(&[3.0, 0.0], &[0.0, 0.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(m.dims(), 2);
    }

    #[test]
    fn mahalanobis_rejects_singular_covariance() {
        let cov = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(MahalanobisMetric::new(&cov).is_err());
    }

    #[test]
    fn mahalanobis_dimension_check() {
        let m = MahalanobisMetric::new(&Matrix::identity(2).unwrap()).unwrap();
        assert!(m.distance(&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]).is_err());
    }
}
