//! A small dense, row-major `f64` matrix with the decompositions needed by
//! the analysis pipeline: LU solve/inverse (Mahalanobis distance, polynomial
//! least squares) and Jacobi eigendecomposition of symmetric matrices (PCA).

use crate::error::StatsError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64` values.
///
/// This is deliberately minimal: just what the degradation-signature
/// pipeline needs. It favours clarity over speed; the matrices involved are
/// small (at most `features × features`, i.e. ~30×30).
///
/// # Example
///
/// ```
/// use dds_stats::Matrix;
///
/// let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]).unwrap();
/// let inv = a.inverse().unwrap();
/// assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
/// assert!((inv[(1, 1)] - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, StatsError> {
        if rows == 0 || cols == 0 {
            return Err(StatsError::InvalidParameter(
                "matrix dimensions must be positive".to_string(),
            ));
        }
        Ok(Matrix { rows, cols, data: vec![0.0; rows * cols] })
    }

    /// Creates an identity matrix of size `n × n`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `n` is zero.
    pub fn identity(n: usize) -> Result<Self, StatsError> {
        let mut m = Matrix::zeros(n, n)?;
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        Ok(m)
    }

    /// Builds a matrix from row slices. Every row must have the same length.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty row set and
    /// [`StatsError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, StatsError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(StatsError::DimensionMismatch { expected: cols, actual: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a copy of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix { rows: self.cols, cols: self.rows, data: vec![0.0; self.data.len()] };
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix multiplication `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != other.rows {
            return Err(StatsError::DimensionMismatch { expected: self.cols, actual: other.rows });
        }
        let mut out = Matrix::zeros(self.rows, other.cols)?;
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Multiplies the matrix by a vector.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, StatsError> {
        if v.len() != self.cols {
            return Err(StatsError::DimensionMismatch { expected: self.cols, actual: v.len() });
        }
        Ok((0..self.rows).map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum()).collect())
    }

    /// Solves `self * x = b` with partial-pivot LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] for a non-square matrix or a
    /// right-hand side of the wrong length, and
    /// [`StatsError::SingularMatrix`] when no unique solution exists.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, StatsError> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch { expected: self.rows, actual: self.cols });
        }
        if b.len() != self.rows {
            return Err(StatsError::DimensionMismatch { expected: self.rows, actual: b.len() });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        // Forward elimination with partial pivoting.
        for col in 0..n {
            let mut pivot = col;
            let mut max = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > max {
                    max = v;
                    pivot = r;
                }
            }
            if max < 1e-12 {
                return Err(StatsError::SingularMatrix);
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                x.swap(col, pivot);
            }
            for r in (col + 1)..n {
                let factor = a[r * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in (col + 1)..n {
                sum -= a[col * n + c] * x[c];
            }
            x[col] = sum / a[col * n + col];
            if !x[col].is_finite() {
                return Err(StatsError::NonFinite);
            }
        }
        Ok(x)
    }

    /// Computes the matrix inverse via column-wise LU solves.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] for non-square input and
    /// [`StatsError::SingularMatrix`] when the matrix is not invertible.
    pub fn inverse(&self) -> Result<Matrix, StatsError> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch { expected: self.rows, actual: self.cols });
        }
        let n = self.rows;
        let mut out = Matrix::zeros(n, n)?;
        for c in 0..n {
            let mut e = vec![0.0; n];
            e[c] = 1.0;
            let col = self.solve(&e)?;
            for r in 0..n {
                out[(r, c)] = col[r];
            }
        }
        Ok(out)
    }

    /// Checks symmetry within an absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Eigendecomposition of a symmetric matrix via the cyclic Jacobi
    /// rotation method.
    ///
    /// Returns eigenvalue/eigenvector pairs sorted by descending eigenvalue.
    /// Eigenvectors are the columns of the returned matrix, normalized to
    /// unit length.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if the matrix is not
    /// symmetric (tolerance `1e-9`) and [`StatsError::NonFinite`] if the
    /// iteration diverges.
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen, StatsError> {
        if !self.is_symmetric(1e-9) {
            return Err(StatsError::InvalidParameter(
                "eigendecomposition requires a symmetric matrix".to_string(),
            ));
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n)?;
        const MAX_SWEEPS: usize = 100;
        for _ in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for r in 0..n {
                for c in (r + 1)..n {
                    off += a[(r, c)] * a[(r, c)];
                }
            }
            if off.sqrt() < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-15 {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n).map(|i| (a[(i, i)], v.column(i))).collect();
        if pairs.iter().any(|(l, _)| !l.is_finite()) {
            return Err(StatsError::NonFinite);
        }
        pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite eigenvalues"));
        let eigenvalues: Vec<f64> = pairs.iter().map(|(l, _)| *l).collect();
        let mut vectors = Matrix::zeros(n, n)?;
        for (c, (_, vec)) in pairs.iter().enumerate() {
            for r in 0..n {
                vectors[(r, c)] = vec[r];
            }
        }
        Ok(SymmetricEigen { eigenvalues, eigenvectors: vectors })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Result of a symmetric eigendecomposition: eigenvalues in descending order
/// and the matching unit eigenvectors as matrix columns.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors as columns, in the same order as `eigenvalues`.
    pub eigenvectors: Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn zeros_rejects_empty_shape() {
        assert!(Matrix::zeros(0, 3).is_err());
        assert!(Matrix::zeros(3, 0).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, StatsError::DimensionMismatch { expected: 2, actual: 1 }));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3).unwrap();
        let b = Matrix::zeros(2, 2).unwrap();
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a =
            Matrix::from_rows(&[vec![2.0, 1.0, -1.0], vec![-3.0, -1.0, 2.0], vec![-2.0, 1.0, 2.0]])
                .unwrap();
        let b = [8.0, -11.0, -3.0];
        let x = a.solve(&b).unwrap();
        assert!(approx(x[0], 2.0, 1e-10));
        assert!(approx(x[1], 3.0, 1e-10));
        assert!(approx(x[2], -1.0, 1e-10));
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), StatsError::SingularMatrix);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for r in 0..2 {
            for c in 0..2 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!(approx(prod[(r, c)], want, 1e-10));
            }
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
    }

    #[test]
    fn symmetric_eigen_diagonal() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let eig = a.symmetric_eigen().unwrap();
        assert!(approx(eig.eigenvalues[0], 3.0, 1e-10));
        assert!(approx(eig.eigenvalues[1], 1.0, 1e-10));
    }

    #[test]
    fn symmetric_eigen_known_2x2() {
        // Eigenvalues of [[2, 1], [1, 2]] are 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = a.symmetric_eigen().unwrap();
        assert!(approx(eig.eigenvalues[0], 3.0, 1e-9));
        assert!(approx(eig.eigenvalues[1], 1.0, 1e-9));
        // Leading eigenvector is (1, 1)/sqrt(2) up to sign.
        let v0 = eig.eigenvectors.column(0);
        assert!(approx(v0[0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-6));
        assert!(approx(v0[1].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-6));
    }

    #[test]
    fn symmetric_eigen_reconstructs_matrix() {
        let a =
            Matrix::from_rows(&[vec![4.0, 1.0, 0.5], vec![1.0, 3.0, -0.25], vec![0.5, -0.25, 2.0]])
                .unwrap();
        let eig = a.symmetric_eigen().unwrap();
        // A == V * diag(L) * V^T
        let n = 3;
        let mut l = Matrix::zeros(n, n).unwrap();
        for i in 0..n {
            l[(i, i)] = eig.eigenvalues[i];
        }
        let recon =
            eig.eigenvectors.matmul(&l).unwrap().matmul(&eig.eigenvectors.transpose()).unwrap();
        for r in 0..n {
            for c in 0..n {
                assert!(approx(recon[(r, c)], a[(r, c)], 1e-8));
            }
        }
    }

    #[test]
    fn eigen_rejects_asymmetric() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(a.symmetric_eigen().is_err());
    }

    #[test]
    fn display_renders_all_entries() {
        let a = Matrix::identity(2).unwrap();
        let text = a.to_string();
        assert!(text.contains("1.0000"));
        assert!(text.lines().count() == 2);
    }
}
