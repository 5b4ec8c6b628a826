//! Column-major (SoA) matrix storage for cache-friendly kernels.
//!
//! The analysis hot paths — K-means assignment, degradation-window
//! distances, regression-tree split scans — stream one attribute at a time
//! over many samples. Row-major storage (`Vec<Vec<f64>>`) makes every such
//! sweep a pointer chase; [`ColMatrix`] keeps each column contiguous so the
//! same loops run at memory bandwidth and auto-vectorize.
//!
//! The layout changes *where* values live, never *what* they are: kernels
//! built on `ColMatrix` read the identical `f64` values in the identical
//! order as their row-major predecessors, so results stay bit-for-bit
//! equal (see the DESIGN.md "Columnar core" section).
//!
//! # Example
//!
//! ```
//! use dds_stats::ColMatrix;
//!
//! let m = ColMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! assert_eq!(m.col(0), &[1.0, 3.0]);
//! assert_eq!(m.col(1), &[2.0, 4.0]);
//! assert_eq!(m.to_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
//! ```

use crate::error::StatsError;

/// A dense column-major `f64` matrix: each column is one contiguous
/// `Vec<f64>`, all columns share the same length (the row count).
#[derive(Debug, Clone, PartialEq)]
pub struct ColMatrix {
    rows: usize,
    cols: Vec<Vec<f64>>,
}

impl ColMatrix {
    /// Builds the matrix by transposing row-major input.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no rows or zero-width rows
    /// and [`StatsError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, StatsError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let width = rows[0].len();
        let mut cols = vec![Vec::with_capacity(rows.len()); width];
        for row in rows {
            if row.len() != width {
                return Err(StatsError::DimensionMismatch { expected: width, actual: row.len() });
            }
            for (col, &v) in cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Ok(ColMatrix { rows: rows.len(), cols })
    }

    /// Wraps pre-built columns.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no columns and
    /// [`StatsError::DimensionMismatch`] when columns differ in length.
    pub fn from_columns(cols: Vec<Vec<f64>>) -> Result<Self, StatsError> {
        if cols.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let rows = cols[0].len();
        for col in &cols {
            if col.len() != rows {
                return Err(StatsError::DimensionMismatch { expected: rows, actual: col.len() });
            }
        }
        Ok(ColMatrix { rows, cols })
    }

    /// Number of rows (samples).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// One contiguous column.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn col(&self, c: usize) -> &[f64] {
        &self.cols[c]
    }

    /// A single value.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, r: usize, c: usize) -> f64 {
        self.cols[c][r]
    }

    /// Materializes the row-major view — the inverse of
    /// [`from_rows`](Self::from_rows).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|r| self.cols.iter().map(|col| col[r]).collect()).collect()
    }

    /// Consumes the matrix and returns its column storage, letting callers
    /// recycle the allocations (clear + refill + [`from_columns`]) across
    /// repeated assemble/fit rounds instead of reallocating every time.
    ///
    /// [`from_columns`]: Self::from_columns
    pub fn into_columns(self) -> Vec<Vec<f64>> {
        self.cols
    }

    /// A new matrix holding the selected rows, in `indices` order
    /// (duplicates allowed). Gathers column by column, so writes stay
    /// contiguous.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> ColMatrix {
        let cols = self
            .cols
            .iter()
            .map(|col| indices.iter().map(|&i| col[i]).collect::<Vec<f64>>())
            .collect();
        ColMatrix { rows: indices.len(), cols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_round_trips() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = ColMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 3);
        assert_eq!(m.col(1), &[2.0, 5.0]);
        assert_eq!(m.value(1, 2), 6.0);
        assert_eq!(m.to_rows(), rows);
    }

    #[test]
    fn from_columns_round_trips() {
        let m = ColMatrix::from_columns(vec![vec![1.0, 4.0], vec![2.0, 5.0]]).unwrap();
        assert_eq!(m, ColMatrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 5.0]]).unwrap());
    }

    #[test]
    fn gather_preserves_order_and_allows_duplicates() {
        let m = ColMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.col(0), &[3.0, 1.0, 3.0]);
        assert_eq!(g.num_rows(), 3);
    }

    #[test]
    fn shape_errors() {
        assert!(matches!(ColMatrix::from_rows(&[]), Err(StatsError::EmptyInput)));
        assert!(matches!(ColMatrix::from_rows(&[vec![]]), Err(StatsError::EmptyInput)));
        assert!(ColMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(matches!(ColMatrix::from_columns(vec![]), Err(StatsError::EmptyInput)));
        assert!(ColMatrix::from_columns(vec![vec![1.0], vec![]]).is_err());
    }
}
