//! The deployable model artifact: everything the monitor needs from a
//! training run, detached from the training dataset.

use dds_core::{AnalysisReport, FailureType, ModelError, TrainedModel};
use dds_regtree::RegressionTree;
use dds_smartsim::{Attribute, Dataset, HealthRecord, NUM_ATTRIBUTES};
use dds_stats::{MinMaxScaler, SignatureModel};

/// The vendor "rate" attributes whose healthy values differ unit-to-unit;
/// the monitor re-centers them per drive (see
/// [`FleetMonitor`](crate::FleetMonitor)). Temperature is deliberately
/// excluded — an absolutely hot drive is the §V-A logical-failure signal.
pub const BASELINE_ATTRIBUTES: [Attribute; 4] = [
    Attribute::RawReadErrorRate,
    Attribute::SeekErrorRate,
    Attribute::HardwareEccRecovered,
    Attribute::SpinUpTime,
];

/// One failure group's deployable model: type, degradation predictor and
/// signature.
#[derive(Debug, Clone)]
pub struct GroupModel {
    /// The failure type this model covers.
    pub failure_type: FailureType,
    /// The trained §V-B regression tree.
    pub tree: RegressionTree,
    /// The group's degradation signature (for remaining-time inversion).
    pub signature: SignatureModel,
    /// Test-set RMSE recorded at training time (Table III) — the
    /// baseline the RMSE drift channel compares live scores against.
    pub rmse: f64,
}

/// The deployable bundle: normalization bounds plus one [`GroupModel`] per
/// failure type discovered in training.
///
/// Build it once per training fleet with [`ModelBundle::from_analysis`];
/// it owns copies of everything, so the training dataset can be dropped.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    scaler: MinMaxScaler,
    groups: Vec<GroupModel>,
    /// Mean raw value of each attribute over the training fleet's good
    /// records — the re-centering target for unit-to-unit baseline
    /// correction.
    population_means: [f64; NUM_ATTRIBUTES],
    /// Standard deviation of the good population's `TC` health values —
    /// the yardstick of the thermal-risk check.
    tc_std: f64,
}

impl ModelBundle {
    /// Extracts the bundle from a completed analysis of a training fleet.
    pub fn from_analysis(dataset: &Dataset, report: &AnalysisReport) -> Self {
        let groups = report
            .prediction
            .groups
            .iter()
            .map(|g| GroupModel {
                failure_type: report.categorization.groups()[g.group_index].failure_type,
                tree: g.tree.clone(),
                signature: g.signature,
                rmse: g.rmse,
            })
            .collect();
        let (population_means, tc_std) = dds_core::model::good_population_stats(dataset);
        ModelBundle { scaler: dataset.scaler().clone(), groups, population_means, tc_std }
    }

    /// Rebuilds the bundle from a saved [`TrainedModel`] artifact — the
    /// warm-start path. The artifact carries the identical scaler bounds,
    /// trees, signatures, population means and `TC` deviation the training
    /// run produced, so a warm-started monitor behaves bit-for-bit like a
    /// cold-started one.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Malformed`] when the artifact's scaler
    /// bounds are inconsistent.
    pub fn from_trained(model: &TrainedModel) -> Result<Self, ModelError> {
        let scaler = model.scaler()?;
        let groups = model
            .groups
            .iter()
            .map(|g| GroupModel {
                failure_type: g.failure_type,
                tree: g.tree.clone(),
                signature: g.signature,
                rmse: g.rmse,
            })
            .collect();
        Ok(ModelBundle {
            scaler,
            groups,
            population_means: model.population_means,
            tc_std: model.tc_std,
        })
    }

    /// Builds a bundle directly from parts (e.g. models trained elsewhere).
    pub fn new(
        scaler: MinMaxScaler,
        groups: Vec<GroupModel>,
        population_means: [f64; NUM_ATTRIBUTES],
        tc_std: f64,
    ) -> Self {
        ModelBundle { scaler, groups, population_means, tc_std }
    }

    /// The training fleet's mean raw attribute values over good records.
    pub fn population_means(&self) -> &[f64; NUM_ATTRIBUTES] {
        &self.population_means
    }

    /// Standard deviation of good-population `TC` health values.
    pub fn tc_std(&self) -> f64 {
        self.tc_std
    }

    /// The per-type models.
    pub fn groups(&self) -> &[GroupModel] {
        &self.groups
    }

    /// The training fleet's Eq. (1) normalization bounds.
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// Normalizes a live record with the *training* bounds (values outside
    /// the training range extrapolate, which is exactly what a deployed
    /// scaler must do).
    pub fn normalize(&self, record: &HealthRecord) -> [f64; NUM_ATTRIBUTES] {
        let mut out = [0.0; NUM_ATTRIBUTES];
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = self.scaler.transform_value(c, record.values[c]);
        }
        out
    }

    /// Scores a normalized record with every group model and returns the
    /// most pessimistic `(group index, predicted degradation)`. A NaN
    /// prediction (impossible from a tree fit on finite data, but this
    /// sits downstream of the untrusted ingest path) sorts as equal
    /// rather than panicking the worker.
    pub fn worst_prediction(&self, normalized: &[f64]) -> Option<(usize, f64)> {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (i, g.tree.predict(normalized)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::{Analysis, AnalysisConfig, CategorizationConfig};
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn bundle() -> (Dataset, ModelBundle) {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(8_001)).run();
        let config = AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        };
        let report = Analysis::new(config).run(&dataset).unwrap();
        let bundle = ModelBundle::from_analysis(&dataset, &report);
        (dataset, bundle)
    }

    #[test]
    fn bundle_covers_every_group() {
        let (_, bundle) = bundle();
        assert_eq!(bundle.groups().len(), 3);
        let types: Vec<FailureType> = bundle.groups().iter().map(|g| g.failure_type).collect();
        assert!(types.contains(&FailureType::Logical));
        assert!(types.contains(&FailureType::BadSector));
        assert!(types.contains(&FailureType::HeadWear));
    }

    #[test]
    fn normalization_matches_training_dataset() {
        let (dataset, bundle) = bundle();
        let drive = dataset.failed_drives().next().unwrap();
        let record = drive.records().last().unwrap();
        assert_eq!(bundle.normalize(record), dataset.normalize_record(record));
    }

    #[test]
    fn from_trained_matches_from_analysis_bitwise() {
        use dds_core::TrainingContext;
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(8_001)).run();
        let config = AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        };
        let ctx = TrainingContext { seed: 8_001, scale: "test".into(), git_sha: String::new() };
        let (report, model) = Analysis::new(config).train(&dataset, &ctx).unwrap();
        let cold = ModelBundle::from_analysis(&dataset, &report);
        // Round-trip the artifact through its codec before rebuilding, so
        // this also covers serialization drift.
        let reloaded = TrainedModel::from_bytes(&model.to_bytes().unwrap()).unwrap();
        let warm = ModelBundle::from_trained(&reloaded).unwrap();

        assert_eq!(warm.scaler(), cold.scaler());
        for (w, c) in warm.population_means().iter().zip(cold.population_means()) {
            assert_eq!(w.to_bits(), c.to_bits());
        }
        assert_eq!(warm.tc_std().to_bits(), cold.tc_std().to_bits());
        assert_eq!(warm.groups().len(), cold.groups().len());
        for (w, c) in warm.groups().iter().zip(cold.groups()) {
            assert_eq!(w.failure_type, c.failure_type);
            assert_eq!(w.signature, c.signature);
            assert_eq!(w.tree, c.tree);
        }
        // And the bundles score records identically.
        let drive = dataset.failed_drives().next().unwrap();
        let record = drive.records().last().unwrap();
        let normalized = warm.normalize(record);
        assert_eq!(normalized, cold.normalize(record));
        let (wg, wv) = warm.worst_prediction(&normalized).unwrap();
        let (cg, cv) = cold.worst_prediction(&normalized).unwrap();
        assert_eq!((wg, wv.to_bits()), (cg, cv.to_bits()));
    }

    #[test]
    fn worst_prediction_flags_failure_records() {
        let (dataset, bundle) = bundle();
        // A bad-sector failure record must score pessimistically under at
        // least one model.
        let drive = dataset
            .failed_drives()
            .find(|d| d.label().failure_mode() == Some(dds_smartsim::FailureMode::BadSector))
            .unwrap();
        let normalized = bundle.normalize(drive.records().last().unwrap());
        let (_, degradation) = bundle.worst_prediction(&normalized).unwrap();
        assert!(degradation < 0.0, "failure record scored {degradation}");
        // A healthy record scores near 1 under every model.
        let good = dataset.good_drives().next().unwrap();
        let normalized = bundle.normalize(&good.records()[0]);
        let (_, degradation) = bundle.worst_prediction(&normalized).unwrap();
        assert!(degradation > 0.3, "good record scored {degradation}");
    }
}
