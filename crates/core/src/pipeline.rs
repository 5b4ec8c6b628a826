//! The end-to-end analysis pipeline: one call reproducing every figure and
//! table of the paper on a [`Dataset`].
//!
//! ```
//! use dds_core::{Analysis, AnalysisConfig};
//! use dds_smartsim::{FleetConfig, FleetSimulator};
//!
//! let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(1)).run();
//! let report = Analysis::new(AnalysisConfig::default()).run(&dataset).unwrap();
//! assert_eq!(report.categorization.num_groups(), 3);
//! assert_eq!(report.prediction.groups.len(), 3);
//! ```

use crate::categorize::{Categorization, CategorizationConfig, Categorizer};
use crate::columnar::FleetColumns;
use crate::degradation::{DegradationAnalyzer, DegradationConfig, GroupDegradation};
use crate::error::AnalysisError;
use crate::features::FailureRecordSet;
use crate::influence::{self, AttributeInfluence, EnvInfluence};
use crate::model::{TrainedModel, TrainingContext};
use crate::predict::{DegradationPredictor, PredictionConfig, PredictionReport};
use crate::quality::{needs_sanitizing, QualityPolicy};
use crate::zscore::{all_attribute_z_scores_columns, TemporalZScores, ZScoreConfig};
use dds_obs::trace::Level;
use dds_smartsim::{Attribute, Dataset};
use dds_stats::par::{par_join, par_map_indexed, Parallelism};
use dds_stats::{BoxplotSummary, Histogram};

/// Runs one pipeline stage inside an info-level span and records its wall
/// time into the stage histogram `metric` (always, even with tracing
/// disabled — metric updates are a few relaxed atomics and never change
/// results).
pub(crate) fn stage<T>(name: &'static str, metric: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = dds_obs::span!(Level::Info, name);
    let start = std::time::Instant::now();
    let result = f();
    dds_obs::metrics::global().histogram(metric).observe(start.elapsed().as_secs_f64());
    result
}

/// The R/W attributes shown in the Fig. 9 / Fig. 10 influence analyses.
pub const INFLUENCE_ATTRIBUTES: [Attribute; 4] = [
    Attribute::RawReadErrorRate,
    Attribute::HardwareEccRecovered,
    Attribute::ReportedUncorrectable,
    Attribute::RawReallocatedSectors,
];

/// Configuration of the full analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Trailing window (hours) for the stddev feature (§IV-B; paper: 24).
    pub feature_window_hours: Option<usize>,
    /// Failure categorization settings.
    pub categorization: CategorizationConfig,
    /// Degradation-signature settings.
    pub degradation: DegradationConfig,
    /// Temporal z-score settings.
    pub zscore: ZScoreConfig,
    /// Degradation-prediction settings.
    pub prediction: PredictionConfig,
    /// Analysis-wide parallelism. [`Analysis::run`] applies this mode to
    /// every stage (clustering, split search, batch prediction, the
    /// per-attribute and per-group loops), overriding whatever the
    /// sub-configurations carry. Results are identical in every mode.
    pub parallelism: Parallelism,
}

impl AnalysisConfig {
    /// Sets the analysis-wide parallelism mode.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// The Fig. 1 histogram of failed-drive profile durations plus the two
/// headline fractions §IV-A quotes.
#[derive(Debug, Clone)]
pub struct ProfileDurations {
    /// 48-hour-binned histogram over `[0, 480]` hours.
    pub histogram: Histogram,
    /// Fraction of failed drives with more than 10 days of history
    /// (paper: 78.5%).
    pub fraction_over_10_days: f64,
    /// Fraction with the full 20-day history (paper: 51.3%).
    pub fraction_full_20_days: f64,
    /// Mean records per failed drive (paper: ≈361).
    pub mean_records: f64,
}

/// Everything the paper reports, computed from one dataset.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Fig. 1: profile-duration distribution.
    pub profile_durations: ProfileDurations,
    /// Fig. 2: box statistics of the 12 attributes over failure records.
    pub attribute_boxplots: Vec<(Attribute, BoxplotSummary)>,
    /// §IV-B: the 30-feature failure records.
    pub failure_records: FailureRecordSet,
    /// Figs. 3–6, Table II: groups, elbow, PCA, deciles, types.
    pub categorization: Categorization,
    /// Figs. 7–8: per-group degradation signatures.
    pub degradation: Vec<GroupDegradation>,
    /// Fig. 9: attribute correlations with degradation (per group).
    pub attribute_influence: Vec<AttributeInfluence>,
    /// Fig. 10: environmental correlations (per group).
    pub env_influence: Vec<EnvInfluence>,
    /// Figs. 11–12: temporal z-scores for all 12 attributes.
    pub z_scores: Vec<TemporalZScores>,
    /// Fig. 13 + Table III: per-group degradation predictors.
    pub prediction: PredictionReport,
}

impl AnalysisReport {
    /// The z-score sweep of one attribute.
    pub fn z_scores_of(&self, attr: Attribute) -> Option<&TemporalZScores> {
        self.z_scores.iter().find(|z| z.attribute == attr)
    }
}

/// The full §IV–§V analysis.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    config: AnalysisConfig,
}

impl Analysis {
    /// Creates the analysis with the given configuration.
    pub fn new(config: AnalysisConfig) -> Self {
        Analysis { config }
    }

    /// Runs every stage of the paper on `dataset`, which must be clean:
    /// raw telemetry passes the quality gate
    /// ([`sanitize_profiles`](crate::quality::sanitize_profiles)) where it
    /// enters, and the analysis never gates it again.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnsuitableDataset`] when the dataset still carries
    /// a missing value (NaN, ±∞ or the vendor sentinel) or has no failed
    /// or good drives; otherwise propagates stage errors.
    pub fn run(&self, dataset: &Dataset) -> Result<AnalysisReport, AnalysisError> {
        self.run_impl(dataset, None, false).map(|(report, _)| report)
    }

    /// Every stage of the paper, optionally against a prior (serving)
    /// model. A prior's trees are scored on each group's held-out rows,
    /// and the mean RMSE over matched groups comes back as the live RMSE.
    /// `warm` (which needs a prior) is the incremental refit: K-means
    /// starts from the prior centroids instead of the full elbow sweep
    /// ([`Categorizer::categorize_warm`]) and the trees fit on thinned
    /// good train rows. Every other kernel is the cold run's.
    fn run_impl(
        &self,
        dataset: &Dataset,
        prior: Option<&TrainedModel>,
        warm: bool,
    ) -> Result<(AnalysisReport, Option<f64>), AnalysisError> {
        if needs_sanitizing(dataset, &QualityPolicy::default()) {
            return Err(AnalysisError::UnsuitableDataset(
                "dataset carries missing values (NaN, ±inf or the vendor sentinel); \
                 gate it with sanitize_profiles first"
                    .to_string(),
            ));
        }
        let warm_prior = prior.filter(|_| warm);
        let _run_span = dds_obs::span!(
            Level::Info,
            "pipeline.run",
            drives = dataset.drives().len(),
            failed_drives = dataset.failed_drives().count(),
        );
        dds_obs::metrics::global().counter("dds_pipeline_runs_total").inc();
        if warm_prior.is_some() {
            dds_obs::metrics::global().counter("dds_pipeline_incremental_runs_total").inc();
        }

        // --- Fig. 1 --------------------------------------------------------
        let profile_durations =
            stage("pipeline.profile_durations", "dds_pipeline_profile_durations_seconds", || {
                let durations: Vec<f64> =
                    dataset.failed_drives().map(|d| d.profile_hours() as f64).collect();
                if durations.is_empty() {
                    return Err(AnalysisError::UnsuitableDataset(
                        "analysis needs failed drives".to_string(),
                    ));
                }
                let histogram = Histogram::from_values(0.0, 480.0, 10, &durations)?;
                let over_10 = durations.iter().filter(|&&h| h > 240.0).count() as f64
                    / durations.len() as f64;
                let full_20 = durations.iter().filter(|&&h| h >= 480.0).count() as f64
                    / durations.len() as f64;
                let mean_records = durations.iter().sum::<f64>() / durations.len() as f64;
                Ok(ProfileDurations {
                    histogram,
                    fraction_over_10_days: over_10,
                    fraction_full_20_days: full_20,
                    mean_records,
                })
            })?;

        // --- §IV-B features + Fig. 2 ---------------------------------------
        let par = self.config.parallelism;
        let feature_window = self.config.feature_window_hours.unwrap_or(24);
        let failure_records = stage("pipeline.features", "dds_pipeline_features_seconds", || {
            FailureRecordSet::extract(dataset, feature_window)
        })?;
        // Each attribute's box statistics are independent of the others.
        let attribute_boxplots: Vec<(Attribute, BoxplotSummary)> =
            stage("pipeline.boxplots", "dds_pipeline_boxplots_seconds", || {
                par_map_indexed(par, &Attribute::ALL, |_, &attr| {
                    let values: Vec<f64> =
                        failure_records.failure_records().iter().map(|r| r[attr.index()]).collect();
                    Ok((attr, BoxplotSummary::from_values(&values)?))
                })
                .into_iter()
                .collect::<Result<_, AnalysisError>>()
            })?;

        // --- Figs. 3–6, Table II -------------------------------------------
        let mut categorization_config = self.config.categorization.clone();
        categorization_config.parallelism = par;
        let categorization =
            stage("pipeline.categorize", "dds_pipeline_categorize_seconds", || {
                let categorizer = Categorizer::new(categorization_config);
                match warm_prior {
                    Some(prior_model) => {
                        let centroids: Vec<Vec<f64>> =
                            prior_model.groups.iter().map(|g| g.centroid.clone()).collect();
                        categorizer.categorize_warm(dataset, &failure_records, &centroids)
                    }
                    None => categorizer.categorize(dataset, &failure_records),
                }
            })?;

        // --- Columnar hot-path storage --------------------------------------
        // One SoA transpose of the fleet feeds the degradation, z-score
        // and prediction stages below; each reads contiguous
        // per-attribute columns instead of walking record structs, with
        // bit-identical results.
        let columns = stage("pipeline.columnar", "dds_pipeline_columnar_seconds", || {
            FleetColumns::build(dataset, par)
        });

        // --- Figs. 7–8 ------------------------------------------------------
        let degradation =
            stage("pipeline.degradation", "dds_pipeline_degradation_seconds", || {
                let analyzer = DegradationAnalyzer::new(self.config.degradation.clone());
                analyzer.analyze_groups_columns(&columns, &categorization)
            })?;

        // --- Figs. 9–12: the per-group influence analyses and the z-score
        // sweep read only upstream results, so the two stages run
        // concurrently (and the groups within the influence stage fan out
        // again). NOTE: the closures may run on `par` worker threads, where
        // the enclosing span is not visible (span nesting is per-thread).
        let (influences, z_scores) =
            stage("pipeline.influence_zscore", "dds_pipeline_influence_zscore_seconds", || {
                par_join(
                    par,
                    || -> Result<Vec<_>, AnalysisError> {
                        par_map_indexed(par, &degradation, |_, summary| {
                            let group = &categorization.groups()[summary.group_index];
                            let drive =
                                dataset.drive(group.centroid_drive).expect("centroid exists");
                            let attribute = influence::attribute_influence(
                                dataset,
                                drive,
                                &summary.centroid,
                                summary.group_index,
                                &INFLUENCE_ATTRIBUTES,
                            )?;
                            let env = influence::env_influence(
                                dataset,
                                drive,
                                &summary.centroid,
                                summary.group_index,
                                &INFLUENCE_ATTRIBUTES,
                            )?;
                            Ok((attribute, env))
                        })
                        .into_iter()
                        .collect()
                    },
                    || {
                        all_attribute_z_scores_columns(
                            &columns,
                            &failure_records,
                            &categorization,
                            &self.config.zscore,
                            par,
                        )
                    },
                )
            });
        let (attribute_influence, env_influence) = influences?.into_iter().unzip();
        let z_scores = z_scores?;

        // --- Fig. 13, Table III ---------------------------------------------
        let mut prediction_config = self.config.prediction.clone();
        prediction_config.tree.parallelism = par;
        let (prediction, live_rmse) =
            stage("pipeline.predict", "dds_pipeline_predict_seconds", || {
                DegradationPredictor::new(prediction_config).fit_columns(
                    &columns,
                    &categorization,
                    &degradation,
                    prior,
                    warm_prior.is_some(),
                )
            })?;

        Ok((
            AnalysisReport {
                profile_durations,
                attribute_boxplots,
                failure_records,
                categorization,
                degradation,
                attribute_influence,
                env_influence,
                z_scores,
                prediction,
            },
            live_rmse,
        ))
    }

    /// Runs the full pipeline and assembles the deployable
    /// [`TrainedModel`] artifact alongside the report — the train half of
    /// the train/apply split (`ctx` carries the provenance only the
    /// caller knows: seed, scale preset, git revision).
    ///
    /// # Errors
    ///
    /// The same as [`run`](Self::run).
    pub fn train(
        &self,
        dataset: &Dataset,
        ctx: &TrainingContext,
    ) -> Result<(AnalysisReport, TrainedModel), AnalysisError> {
        self.train_from(dataset, ctx, None, false).map(|(report, model, _)| (report, model))
    }

    /// [`train`](Self::train) through `run_impl` with an optional prior
    /// and `warm` flag, also returning the prior's live RMSE — the one
    /// entry point behind every `OnlineTrainer` refit path.
    pub(crate) fn train_from(
        &self,
        dataset: &Dataset,
        ctx: &TrainingContext,
        prior: Option<&TrainedModel>,
        warm: bool,
    ) -> Result<(AnalysisReport, TrainedModel, Option<f64>), AnalysisError> {
        let (report, live_rmse) = self.run_impl(dataset, prior, warm)?;
        let model = stage("pipeline.model", "dds_pipeline_model_seconds", || {
            TrainedModel::from_report(dataset, &report, ctx)
        });
        Ok((report, model, live_rmse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn report() -> AnalysisReport {
        let config = AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        };
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_seed(81)).run();
        Analysis::new(config).run(&ds).unwrap()
    }

    #[test]
    fn full_pipeline_produces_all_artifacts() {
        let r = report();
        assert_eq!(r.attribute_boxplots.len(), 12);
        assert_eq!(r.categorization.num_groups(), 3);
        assert_eq!(r.degradation.len(), 3);
        assert_eq!(r.attribute_influence.len(), 3);
        assert_eq!(r.env_influence.len(), 3);
        assert_eq!(r.z_scores.len(), 12);
        assert_eq!(r.prediction.groups.len(), 3);
        assert!(r.profile_durations.mean_records > 100.0);
        assert!(r.profile_durations.fraction_full_20_days > 0.2);
        assert!(r.profile_durations.fraction_over_10_days > 0.5);
    }

    #[test]
    fn report_accessors_work() {
        let r = report();
        assert!(r.z_scores_of(Attribute::TemperatureCelsius).is_some());
        assert!(r.z_scores_of(Attribute::PowerOnHours).is_some());
        let hist = &r.profile_durations.histogram;
        assert_eq!(hist.counts().len(), 10);
        assert_eq!(hist.total() as usize, r.failure_records.len());
    }

    #[test]
    fn rejects_a_dataset_that_still_carries_missing_values() {
        use crate::quality::SENTINEL_VALUE;
        use dds_smartsim::{
            DriveId, DriveLabel, DriveProfile, FailureMode, HealthRecord, NUM_ATTRIBUTES,
        };

        let record = |hour: u32, value: f64| HealthRecord { hour, values: [value; NUM_ATTRIBUTES] };
        let mut sentinel = record(2, 3.0);
        sentinel.values[4] = SENTINEL_VALUE;
        let failed = DriveProfile::new(
            DriveId(0),
            DriveLabel::Failed(FailureMode::BadSector),
            vec![record(0, 1.0), record(1, 2.0), sentinel],
        );
        let good = DriveProfile::new(DriveId(1), DriveLabel::Good, vec![record(0, 1.0)]);
        let ds = Dataset::new(vec![failed, good]).unwrap();
        let Err(AnalysisError::UnsuitableDataset(message)) = Analysis::default().run(&ds) else {
            panic!("a dataset carrying the sentinel must be rejected");
        };
        assert!(message.contains("sanitize_profiles"), "{message}");
    }

    #[test]
    fn fails_cleanly_without_failed_drives() {
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_failed_drives(0).with_seed(81))
            .run();
        assert!(matches!(Analysis::default().run(&ds), Err(AnalysisError::UnsuitableDataset(_))));
    }
}
