//! Fixed-width histograms (Fig. 1 of the paper).
//!
//! Fig. 1 plots the number of failed drives per health-profile duration in
//! 48-hour bins; [`Histogram`] provides that binning.

use crate::error::StatsError;

/// A fixed-width histogram over `[lo, hi)` with a final inclusive edge.
///
/// # Example
///
/// ```
/// use dds_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// h.add(0.5);
/// h.add(9.99);
/// h.add(10.0); // exactly the top edge lands in the last bin
/// assert_eq!(h.counts(), &[1, 0, 0, 0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    out_of_range: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over
    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for zero bins or a
    /// non-positive range.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter("bin count must be positive".to_string()));
        }
        if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater)
            || !lo.is_finite()
            || !hi.is_finite()
        {
            return Err(StatsError::InvalidParameter(format!(
                "invalid histogram range [{lo}, {hi}]"
            )));
        }
        Ok(Histogram { lo, hi, counts: vec![0; bins], total: 0, out_of_range: 0 })
    }

    /// Builds a histogram directly from values.
    ///
    /// # Errors
    ///
    /// Propagates [`Histogram::new`] errors.
    pub fn from_values(lo: f64, hi: f64, bins: usize, values: &[f64]) -> Result<Self, StatsError> {
        let mut h = Histogram::new(lo, hi, bins)?;
        for &v in values {
            h.add(v);
        }
        Ok(h)
    }

    /// Adds one observation. Values outside `[lo, hi]` (and NaN) are counted
    /// in [`out_of_range`](Self::out_of_range) rather than a bin.
    pub fn add(&mut self, value: f64) {
        self.total += 1;
        if value.is_nan() || value < self.lo || value > self.hi {
            self.out_of_range += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut idx = ((value - self.lo) / width) as usize;
        if idx >= self.counts.len() {
            idx = self.counts.len() - 1; // value == hi
        }
        self.counts[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(lower, upper)` edges of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Total number of `add` calls, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of observations that fell outside `[lo, hi]`.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let h = Histogram::from_values(0.0, 100.0, 10, &[0.0, 5.0, 95.0, 100.0]).unwrap();
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 4);
        assert_eq!(h.out_of_range(), 0);
    }

    #[test]
    fn out_of_range_and_nan_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(-0.1);
        h.add(1.1);
        h.add(f64::NAN);
        h.add(0.5);
        assert_eq!(h.out_of_range(), 3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts().iter().sum::<u64>(), 1);
    }

    #[test]
    fn bin_edges_are_contiguous() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        for i in 0..4 {
            let (_, hi) = h.bin_edges(i);
            let (lo_next, _) = h.bin_edges(i + 1);
            assert_eq!(hi, lo_next);
        }
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
    }

    #[test]
    fn constructor_validation() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 3).is_err());
        assert!(Histogram::new(2.0, 1.0, 3).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 3).is_err());
    }
}
