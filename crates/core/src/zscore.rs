//! Temporal z-scores of attributes, failed groups vs. the good population
//! (§V-A, Figs. 11–12).
//!
//! For each failure group and each number of hours τ before failure, the
//! group's attribute values at that time point are compared with *all*
//! health records of good drives using Eq. (7). The paper uses this to
//! pinpoint root causes that categorization alone cannot see: temperature
//! (`TC`) separates Group 1 — logical failures run hot — and power-on hours
//! (`POH`) separates Group 3 — head failures strike old drives.

use crate::categorize::Categorization;
use crate::columnar::FleetColumns;
use crate::error::AnalysisError;
use crate::features::FailureRecordSet;
use dds_smartsim::{Attribute, Dataset};
use dds_stats::hypothesis::{welch_z_score_with_reference, ReferenceStats};
use dds_stats::par::{par_map_indexed, Parallelism};

/// Configuration for the temporal z-score sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ZScoreConfig {
    /// Spacing between evaluated time points, in hours.
    pub stride_hours: usize,
    /// Largest hours-before-failure evaluated (paper: 480).
    pub max_hours: usize,
    /// Minimum failed samples required at a time point to emit a score.
    pub min_samples: usize,
}

impl Default for ZScoreConfig {
    fn default() -> Self {
        ZScoreConfig { stride_hours: 8, max_hours: 480, min_samples: 3 }
    }
}

/// The temporal z-scores of one attribute for every failure group.
#[derive(Debug, Clone)]
pub struct TemporalZScores {
    /// The attribute analyzed.
    pub attribute: Attribute,
    /// Evaluated hours-before-failure, ascending from 0.
    pub times: Vec<usize>,
    /// Per group (paper order): z-score at each time, `None` where too few
    /// failed drives have a record that far before failure.
    pub by_group: Vec<Vec<Option<f64>>>,
}

impl TemporalZScores {
    /// Mean z-score (over defined time points) for one group.
    pub fn mean_z(&self, group_index: usize) -> Option<f64> {
        let series = self.by_group.get(group_index)?;
        let defined: Vec<f64> = series.iter().flatten().copied().collect();
        if defined.is_empty() {
            None
        } else {
            Some(defined.iter().sum::<f64>() / defined.len() as f64)
        }
    }

    /// The group whose mean z has the largest magnitude — the group this
    /// attribute *distinguishes* (§V-A).
    pub fn most_separated_group(&self) -> Option<usize> {
        (0..self.by_group.len())
            .filter_map(|g| self.mean_z(g).map(|z| (g, z.abs())))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite z"))
            .map(|(g, _)| g)
    }
}

/// Computes temporal z-scores of one attribute (raw vendor scale; z-scores
/// are invariant to the affine Eq. (1) normalization).
///
/// # Errors
///
/// Returns [`AnalysisError::UnsuitableDataset`] if the dataset has no good
/// records.
pub fn temporal_z_scores(
    dataset: &Dataset,
    records: &FailureRecordSet,
    categorization: &Categorization,
    attribute: Attribute,
    config: &ZScoreConfig,
) -> Result<TemporalZScores, AnalysisError> {
    // Reference statistics over every good record. Non-finite values
    // (possible when callers bypass the quality gate) are skipped rather
    // than poisoning the reference mean.
    let good: Vec<f64> = dataset
        .good_drives()
        .flat_map(|d| d.records().iter().map(|r| r.value(attribute)))
        .filter(|v| v.is_finite())
        .collect();
    if good.is_empty() {
        return Err(AnalysisError::UnsuitableDataset(
            "z-scores need good drives for reference".to_string(),
        ));
    }

    let times: Vec<usize> = (0..=config.max_hours).step_by(config.stride_hours.max(1)).collect();
    let num_groups = categorization.num_groups();

    // Pre-index failed drives by group, as per-drive (hours, values)
    // series — the shape the shared sweep core consumes.
    let mut group_data: Vec<Vec<(Vec<u32>, Vec<f64>)>> = vec![Vec::new(); num_groups];
    for (i, &id) in records.drive_ids().iter().enumerate() {
        let group = categorization.assignments()[i];
        if let Some(profile) = dataset.drive(id) {
            let recs = profile.records();
            group_data[group].push((
                recs.iter().map(|r| r.hour).collect(),
                recs.iter().map(|r| r.value(attribute)).collect(),
            ));
        }
    }
    let groups: Vec<Vec<(&[u32], &[f64])>> = group_data
        .iter()
        .map(|g| g.iter().map(|(h, v)| (h.as_slice(), v.as_slice())).collect())
        .collect();

    let by_group = sweep_groups(&good, &groups, &times, config);
    Ok(TemporalZScores { attribute, times, by_group })
}

/// [`temporal_z_scores`] against column-major fleet storage: the good
/// reference is the pre-built finite-filtered attribute column, each failed
/// drive contributes contiguous hour/value slices (no per-record struct
/// walk), and lookups use the O(1) position map. Bit-identical to the
/// row-based path.
///
/// # Errors
///
/// Returns [`AnalysisError::UnsuitableDataset`] if the dataset has no good
/// records.
pub fn temporal_z_scores_columns(
    columns: &FleetColumns,
    records: &FailureRecordSet,
    categorization: &Categorization,
    attribute: Attribute,
    config: &ZScoreConfig,
) -> Result<TemporalZScores, AnalysisError> {
    let good = columns.good_attr_values(attribute.index());
    if good.is_empty() {
        return Err(AnalysisError::UnsuitableDataset(
            "z-scores need good drives for reference".to_string(),
        ));
    }

    let times: Vec<usize> = (0..=config.max_hours).step_by(config.stride_hours.max(1)).collect();
    let num_groups = categorization.num_groups();

    let mut groups: Vec<Vec<(&[u32], &[f64])>> = vec![Vec::new(); num_groups];
    for (i, &id) in records.drive_ids().iter().enumerate() {
        let group = categorization.assignments()[i];
        if let Some(pos) = columns.position(id) {
            groups[group].push((columns.hours(pos), columns.raw_slice(attribute.index(), pos)));
        }
    }

    let by_group = sweep_groups(good, &groups, &times, config);
    Ok(TemporalZScores { attribute, times, by_group })
}

/// The sweep core shared by both layouts: per group, per time point, gather
/// each drive's value τ hours before its failure and score it against the
/// good reference.
///
/// The reference moments are hoisted once via [`ReferenceStats`] — the
/// dominant cost of the old per-call [`welch_z_score`]
/// (`dds_stats::welch_z_score`) was recomputing the good mean/variance
/// (hundreds of thousands of values) for every `(group, τ)` cell; scores
/// are bit-identical.
fn sweep_groups(
    good: &[f64],
    groups: &[Vec<(&[u32], &[f64])>],
    times: &[usize],
    config: &ZScoreConfig,
) -> Vec<Vec<Option<f64>>> {
    let reference = ReferenceStats::from_sample(good).expect("good reference is non-empty");
    let mut by_group = Vec::with_capacity(groups.len());
    for drives in groups {
        let mut series = Vec::with_capacity(times.len());
        let mut values: Vec<f64> = Vec::with_capacity(drives.len());
        for &tau in times {
            // "τ hours before failure" resolves by record *hour*, not
            // index, so profiles with quarantined (missing) hours line
            // up correctly; a drive simply contributes nothing at a τ
            // it has no record for. On gap-free profiles this matches
            // the index `n - 1 - τ` exactly.
            values.clear();
            for &(hours, vals) in drives {
                let Some(&last_hour) = hours.last() else { continue };
                let Some(target) = last_hour.checked_sub(tau as u32) else { continue };
                if let Ok(idx) = hours.binary_search(&target) {
                    if vals[idx].is_finite() {
                        values.push(vals[idx]);
                    }
                }
            }
            if values.len() < config.min_samples {
                series.push(None);
                continue;
            }
            series.push(welch_z_score_with_reference(&values, &reference).ok());
        }
        by_group.push(series);
    }
    by_group
}

/// Runs the sweep for every attribute and ranks which attribute best
/// separates each group (the §V-A diagnosis table). Each attribute's
/// sweep is independent of the others (its own good-reference vector, its
/// own per-group series), so the 12 sweeps fan out across threads; output
/// order follows [`Attribute::ALL`] and a failure surfaces for the lowest
/// attribute index in every mode.
///
/// # Errors
///
/// Propagates [`temporal_z_scores`] errors.
pub fn all_attribute_z_scores_with(
    dataset: &Dataset,
    records: &FailureRecordSet,
    categorization: &Categorization,
    config: &ZScoreConfig,
    parallelism: Parallelism,
) -> Result<Vec<TemporalZScores>, AnalysisError> {
    let _span = dds_obs::span!(
        dds_obs::Level::Debug,
        "zscore.sweep",
        attributes = Attribute::ALL.len(),
        max_hours = config.max_hours,
    );
    par_map_indexed(parallelism, &Attribute::ALL, |_, &attr| {
        temporal_z_scores(dataset, records, categorization, attr, config)
    })
    .into_iter()
    .collect()
}

/// [`all_attribute_z_scores_with`] against column-major fleet storage —
/// the 12 per-attribute sweeps fan out over [`temporal_z_scores_columns`].
/// Bit-identical to the row-based sweep.
///
/// # Errors
///
/// Propagates [`temporal_z_scores_columns`] errors.
pub fn all_attribute_z_scores_columns(
    columns: &FleetColumns,
    records: &FailureRecordSet,
    categorization: &Categorization,
    config: &ZScoreConfig,
    parallelism: Parallelism,
) -> Result<Vec<TemporalZScores>, AnalysisError> {
    let _span = dds_obs::span!(
        dds_obs::Level::Debug,
        "zscore.sweep",
        attributes = Attribute::ALL.len(),
        max_hours = config.max_hours,
    );
    par_map_indexed(parallelism, &Attribute::ALL, |_, &attr| {
        temporal_z_scores_columns(columns, records, categorization, attr, config)
    })
    .into_iter()
    .collect()
}

/// The §V-A diagnosis table: mean z-score magnitude of every attribute for
/// every group, plus which group each attribute separates best.
#[derive(Debug, Clone)]
pub struct DiscriminationTable {
    /// One row per attribute, aligned with [`Attribute::ALL`].
    pub rows: Vec<DiscriminationRow>,
}

/// One attribute's discrimination summary.
#[derive(Debug, Clone)]
pub struct DiscriminationRow {
    /// The attribute.
    pub attribute: Attribute,
    /// Mean z-score per group (paper order), `None` when undefined.
    pub mean_z: Vec<Option<f64>>,
    /// The group with the largest |mean z|, if any.
    pub most_separated: Option<usize>,
}

impl DiscriminationTable {
    /// Builds the table from a full z-score sweep.
    pub fn from_sweeps(sweeps: &[TemporalZScores]) -> Self {
        let rows = sweeps
            .iter()
            .map(|z| DiscriminationRow {
                attribute: z.attribute,
                mean_z: (0..z.by_group.len()).map(|g| z.mean_z(g)).collect(),
                most_separated: z.most_separated_group(),
            })
            .collect();
        DiscriminationTable { rows }
    }

    /// The attribute that separates `group` most strongly from good drives
    /// *relative to how it separates the other groups* — §V-A's notion of
    /// the attribute that "can distinguish" a group (TC for Group 1).
    pub fn distinguishing_attribute(&self, group: usize) -> Option<Attribute> {
        self.rows
            .iter()
            .filter(|row| row.most_separated == Some(group))
            .max_by(|a, b| {
                let margin = |row: &DiscriminationRow| {
                    let own = row.mean_z.get(group).copied().flatten().unwrap_or(0.0).abs();
                    let other = row
                        .mean_z
                        .iter()
                        .enumerate()
                        .filter(|&(g, _)| g != group)
                        .filter_map(|(_, z)| *z)
                        .map(f64::abs)
                        .fold(0.0, f64::max);
                    own - other
                };
                margin(a).partial_cmp(&margin(b)).expect("finite margins")
            })
            .map(|row| row.attribute)
    }

    /// Like [`distinguishing_attribute`](Self::distinguishing_attribute)
    /// but restricted to the environmental attributes (`POH`, `TC`) — the
    /// §V-A root-cause view: symptoms (reallocations, uncorrectables)
    /// already define the groups; the question is which *condition*
    /// singles each group out.
    pub fn distinguishing_environmental_attribute(&self, group: usize) -> Option<Attribute> {
        self.rows
            .iter()
            .filter(|row| row.attribute.kind() == dds_smartsim::AttributeKind::Environmental)
            .filter(|row| row.most_separated == Some(group))
            .max_by(|a, b| {
                let own = |row: &DiscriminationRow| {
                    row.mean_z.get(group).copied().flatten().unwrap_or(0.0).abs()
                };
                own(a).partial_cmp(&own(b)).expect("finite z")
            })
            .map(|row| row.attribute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{CategorizationConfig, Categorizer};
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn setup() -> (Dataset, FailureRecordSet, Categorization) {
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_seed(61)).run();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
            .categorize(&ds, &records)
            .unwrap();
        (ds, records, cat)
    }

    #[test]
    fn tc_zscores_are_negative_and_group1_most_negative() {
        let (ds, records, cat) = setup();
        let z = temporal_z_scores(
            &ds,
            &records,
            &cat,
            Attribute::TemperatureCelsius,
            &ZScoreConfig::default(),
        )
        .unwrap();
        // Failed drives run hotter → lower TC health → negative z (Fig. 11).
        for g in 0..3 {
            let mean = z.mean_z(g).unwrap();
            assert!(mean < 0.0, "group {g} TC z {mean}");
        }
        assert_eq!(z.most_separated_group(), Some(0), "TC must single out Group 1");
        let g1 = z.mean_z(0).unwrap();
        let g2 = z.mean_z(1).unwrap();
        let g3 = z.mean_z(2).unwrap();
        assert!(g1 < g2 && g1 < g3, "G1 most negative: {g1} vs {g2}, {g3}");
    }

    #[test]
    fn poh_zscores_single_out_group3() {
        let (ds, records, cat) = setup();
        let z = temporal_z_scores(
            &ds,
            &records,
            &cat,
            Attribute::PowerOnHours,
            &ZScoreConfig::default(),
        )
        .unwrap();
        // Head-wear drives are the oldest → lowest POH health → most
        // negative z (Fig. 12).
        assert_eq!(z.most_separated_group(), Some(2));
        let g3 = z.mean_z(2).unwrap();
        assert!(g3 < 0.0);
    }

    #[test]
    fn time_grid_respects_config() {
        let (ds, records, cat) = setup();
        let config = ZScoreConfig { stride_hours: 48, max_hours: 480, min_samples: 3 };
        let z = temporal_z_scores(&ds, &records, &cat, Attribute::SpinUpTime, &config).unwrap();
        assert_eq!(z.times, vec![0, 48, 96, 144, 192, 240, 288, 336, 384, 432, 480]);
        assert_eq!(z.by_group.len(), 3);
        for series in &z.by_group {
            assert_eq!(series.len(), z.times.len());
        }
    }

    #[test]
    fn sparse_groups_yield_none_at_long_horizons() {
        let (ds, records, cat) = setup();
        let config = ZScoreConfig { stride_hours: 8, max_hours: 480, min_samples: 50 };
        let z = temporal_z_scores(&ds, &records, &cat, Attribute::SeekErrorRate, &config).unwrap();
        // The tiny Group 2 (≈4 drives at test scale) can never reach 50
        // samples.
        assert!(z.by_group[1].iter().all(|v| v.is_none()));
    }

    #[test]
    fn all_attributes_sweep_covers_twelve() {
        let (ds, records, cat) = setup();
        let all = all_attribute_z_scores_with(
            &ds,
            &records,
            &cat,
            &ZScoreConfig::default(),
            Parallelism::Sequential,
        )
        .unwrap();
        assert_eq!(all.len(), 12);
        // TC and POH are the two diagnostic attributes; they must single
        // out different groups (G1 vs G3).
        let tc = all.iter().find(|z| z.attribute == Attribute::TemperatureCelsius).unwrap();
        let poh = all.iter().find(|z| z.attribute == Attribute::PowerOnHours).unwrap();
        assert_ne!(tc.most_separated_group(), poh.most_separated_group());
    }

    #[test]
    fn needs_good_drives() {
        let ds =
            FleetSimulator::new(FleetConfig::test_scale().with_good_drives(0).with_seed(61)).run();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
            .categorize(&ds, &records)
            .unwrap();
        assert!(matches!(
            temporal_z_scores(
                &ds,
                &records,
                &cat,
                Attribute::TemperatureCelsius,
                &ZScoreConfig::default()
            ),
            Err(AnalysisError::UnsuitableDataset(_))
        ));
    }

    #[test]
    fn discrimination_table_names_tc_for_group1_and_poh_for_group3() {
        let (ds, records, cat) = setup();
        let sweeps = all_attribute_z_scores_with(
            &ds,
            &records,
            &cat,
            &ZScoreConfig::default(),
            Parallelism::Sequential,
        )
        .unwrap();
        let table = DiscriminationTable::from_sweeps(&sweeps);
        assert_eq!(table.rows.len(), 12);
        assert_eq!(
            table.distinguishing_environmental_attribute(0),
            Some(Attribute::TemperatureCelsius),
            "§V-A: TC is the attribute that distinguishes Group 1"
        );
        assert_eq!(
            table.distinguishing_environmental_attribute(2),
            Some(Attribute::PowerOnHours),
            "§V-A: POH singles out the old head-failure drives"
        );
        // Over all attributes, Group 3's strongest separator is its symptom
        // (reallocated sectors) — environmental filtering is what isolates
        // the root cause.
        assert!(table.distinguishing_attribute(0).is_some());
    }
}
