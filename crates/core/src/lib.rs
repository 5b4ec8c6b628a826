//! Disk failure categorization, quantified degradation signatures and
//! degradation prediction — the core contribution of *"Characterizing Disk
//! Failures with Quantified Disk Degradation Signatures: An Early
//! Experience"* (IISWC 2015).
//!
//! The pipeline answers the paper's three questions on any SMART
//! [`Dataset`](dds_smartsim::Dataset):
//!
//! 1. **What are the types of disk failures?** — [`categorize`] clusters
//!    the 30-feature failure records (K-means, cross-checked with SVC),
//!    picks the group count from the Fig. 3 elbow and derives the Table II
//!    failure types from each group's manifestations.
//! 2. **How do failures degrade?** — [`degradation`] computes each drive's
//!    Euclidean distance-to-failure curve, extracts the monotone
//!    degradation window `d_i`, and selects the signature
//!    `s(t) = t^k/d^k − 1` with the lowest RMSE (quadratic for logical
//!    failures, linear for bad-sector failures, cubic for head failures).
//! 3. **What drives degradation?** — [`influence`] and [`zscore`] quantify
//!    attribute correlations (Figs. 9–10) and the temporal z-scores that
//!    root-cause Group 1 to temperature and Group 3 to drive age
//!    (Figs. 11–12), and [`predict`] trains the Table III regression-tree
//!    degradation predictors plus the §II-C baseline detectors.
//!
//! [`Analysis::run`] executes everything at once; [`report`] renders each
//! figure/table as text.
//!
//! # Example
//!
//! ```
//! use dds_core::{Analysis, AnalysisConfig};
//! use dds_smartsim::{FleetConfig, FleetSimulator};
//!
//! let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(7)).run();
//! let report = Analysis::new(AnalysisConfig::default()).run(&dataset)?;
//! println!("{}", dds_core::report::render_failure_categories(&report.categorization));
//! # Ok::<(), dds_core::AnalysisError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod categorize;
pub mod columnar;
pub mod degradation;
pub mod error;
pub mod features;
pub mod influence;
pub mod knn;
pub mod leadtime;
pub mod model;
pub mod online;
pub mod pipeline;
pub mod predict;
pub mod quality;
pub mod report;
pub mod zscore;

pub use categorize::{
    Categorization, CategorizationConfig, Categorizer, FailureGroup, FailureType,
};
pub use columnar::FleetColumns;
pub use degradation::{DegradationAnalyzer, DegradationConfig, DriveDegradation, GroupDegradation};
pub use error::AnalysisError;
pub use features::{FailureRecordSet, NUM_FEATURES};
pub use model::{
    GroupArtifact, ModelError, ModelMeta, TrainedModel, TrainingContext, ZScoreBaseline,
    MODEL_FORMAT_VERSION, MODEL_MAGIC,
};
pub use online::{OnlineTrainer, RefitOutcome, RefitPath};
pub use pipeline::{Analysis, AnalysisConfig, AnalysisReport};
pub use predict::{DegradationPredictor, PredictionConfig, PredictionReport};
pub use quality::{sanitize_profiles, DataQualityError, QualityPolicy, QualityStats};
pub use zscore::{temporal_z_scores, TemporalZScores, ZScoreConfig};
