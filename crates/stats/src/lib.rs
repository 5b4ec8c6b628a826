//! Statistics and linear-algebra substrate for disk degradation analysis.
//!
//! This crate provides the numerical machinery used by the rest of the
//! workspace to reproduce *"Characterizing Disk Failures with Quantified Disk
//! Degradation Signatures"* (IISWC 2015): descriptive statistics and
//! quantiles, the paper's min–max normalization (Eq. 1), distance measures
//! (Euclidean and Mahalanobis, §IV-C), correlation analysis (§IV-D),
//! polynomial regression with RMSE/R² model selection (Fig. 8), Welch
//! z-scores (Eq. 7) and the Wilcoxon rank-sum test used by the baseline
//! failure detectors (§II-C).
//!
//! Everything is implemented from scratch on `f64` slices and a small dense
//! [`Matrix`] type; there are no external numerical dependencies.
//!
//! # Example
//!
//! ```
//! use dds_stats::{descriptive, regression::PolynomialFit};
//!
//! let xs: Vec<f64> = (0..10).map(f64::from).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
//! let fit = PolynomialFit::fit(&xs, &ys, 1).unwrap();
//! assert!((fit.coefficients()[1] - 3.0).abs() < 1e-9);
//! assert!(descriptive::mean(&ys).unwrap() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod boxplot;
pub mod columnar;
pub mod correlation;
pub mod descriptive;
pub mod distance;
pub mod error;
pub mod histogram;
pub mod hypothesis;
pub mod matrix;
pub mod normalize;
pub mod par;
pub mod regression;
pub mod streaming;
pub mod timeseries;

pub use boxplot::BoxplotSummary;
pub use columnar::ColMatrix;
pub use correlation::{pearson, spearman};
pub use descriptive::{deciles, mean, median, quantile, std_dev, variance};
pub use distance::{euclidean, mahalanobis, squared_euclidean, MahalanobisMetric};
pub use error::StatsError;
pub use histogram::Histogram;
pub use hypothesis::{
    rank_sum_test, welch_z_score, welch_z_score_with_reference, RankSumResult, ReferenceStats,
};
pub use matrix::Matrix;
pub use normalize::MinMaxScaler;
pub use par::{
    par_chunks_reduce, par_for_each_mut, par_generate, par_join, par_map_indexed, split_chunks_mut,
    stream_seed, Parallelism,
};
pub use regression::{r_squared, rmse, PolynomialFit, SignatureForm, SignatureModel};
