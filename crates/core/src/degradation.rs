//! Degradation signatures (§IV-C): distance-to-failure curves, degradation
//! window extraction, and automated signature-model selection.
//!
//! For every failed drive the similarity of each health record to the
//! drive's failure record is computed (Euclidean distance — the paper tested
//! Mahalanobis and rejected it); the final *monotone* stretch of the curve is
//! the degradation window `d_i`; the windowed curve is normalized to
//! `[-1, 0]` and fitted with both free polynomials (Fig. 8) and the fixed
//! signature forms `t^k/d^k − 1`, selecting the lowest-RMSE model. This
//! module is the "software tool \[that\] processes health records of each
//! failed drive … and selects the one with the smallest RMSE as the failure
//! degradation signature" described at the end of §IV-C.

use crate::categorize::Categorization;
use crate::columnar::FleetColumns;
use crate::error::AnalysisError;
use dds_smartsim::{Dataset, DriveId, DriveProfile, NUM_ATTRIBUTES};
use dds_stats::timeseries::moving_average;
use dds_stats::{euclidean, PolynomialFit, SignatureForm, SignatureModel};

/// Configuration for [`DegradationAnalyzer`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationConfig {
    /// Moving-average window (hours) applied to the distance curve before
    /// monotone-suffix extraction (1 = no smoothing).
    pub smoothing_window: usize,
    /// Fraction of the curve's maximum distance tolerated as a *cumulative*
    /// drop below the running maximum before the window is cut.
    pub tolerance_fraction: f64,
    /// Absolute floor on the tolerance (normalized-distance units), so tiny
    /// curves are not cut by sensor noise alone.
    pub tolerance_floor: f64,
    /// After the tolerant suffix extraction, leading samples whose distance
    /// still sits within this fraction of the window maximum are trimmed:
    /// a fluctuating plateau at the top of the curve belongs to the
    /// pre-degradation phase, not the window.
    pub trim_fraction: f64,
    /// Highest free-polynomial order fitted for the Fig. 8 comparison.
    pub max_poly_order: usize,
    /// Largest hour gap between consecutive window records tolerated
    /// inside the degradation window. A sanitized profile may carry gaps
    /// (quarantined hours); when a gap inside the extracted window
    /// exceeds this, the window is refit to start after the gap — unless
    /// that would leave fewer than 3 samples, in which case the gap is
    /// kept and the hour-based times absorb it.
    pub max_gap_hours: usize,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            smoothing_window: 3,
            tolerance_fraction: 0.05,
            tolerance_floor: 0.035,
            trim_fraction: 0.15,
            max_poly_order: 3,
            max_gap_hours: 12,
        }
    }
}

/// A free-polynomial fit summary for the Fig. 8 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PolyFitSummary {
    /// Polynomial order.
    pub order: usize,
    /// Coefficients, ascending powers.
    pub coefficients: Vec<f64>,
    /// Goodness of fit R².
    pub r_squared: f64,
    /// Training RMSE.
    pub rmse: f64,
}

/// The degradation analysis of one failed drive.
#[derive(Debug, Clone)]
pub struct DriveDegradation {
    /// The analyzed drive.
    pub drive_id: DriveId,
    /// Chronological Euclidean distances of each record to the failure
    /// record (last entry is 0) — the Fig. 7 curve.
    pub distances: Vec<f64>,
    /// Extracted degradation-window size `d_i` in hours (≥ 1).
    pub window_hours: usize,
    /// Hours-before-failure for each window record, descending `d..0`.
    pub times: Vec<f64>,
    /// Normalized degradation values in `[-1, 0]`, aligned with `times`
    /// (the Fig. 8 curve).
    pub degradation: Vec<f64>,
    /// The lowest-RMSE fixed-form signature.
    pub best_model: SignatureModel,
    /// RMSE of `best_model`.
    pub best_rmse: f64,
    /// RMSE of every candidate fixed form (the §IV-C model comparison).
    pub model_rmse: Vec<(SignatureForm, f64)>,
    /// Free-polynomial fits of orders `1..=max_poly_order` (Fig. 8);
    /// orders needing more points than the window provides are omitted.
    pub poly_fits: Vec<PolyFitSummary>,
}

impl DriveDegradation {
    /// Predicted remaining hours before failure when the degradation value
    /// reaches `s` (inverts the best signature model).
    pub fn remaining_hours_at(&self, s: f64) -> Option<f64> {
        self.best_model.time_before_failure(s)
    }
}

/// Per-group degradation summary.
#[derive(Debug, Clone)]
pub struct GroupDegradation {
    /// Paper-order group index.
    pub group_index: usize,
    /// `(min, mean, max)` of the group's window sizes in hours.
    pub window_stats: (usize, f64, usize),
    /// The form chosen most often across the group's drives — the group's
    /// degradation signature (Eqs. 3, 4, 6).
    pub dominant_form: SignatureForm,
    /// Vote counts per form.
    pub form_votes: Vec<(SignatureForm, usize)>,
    /// Mean RMSE per fixed form over the group.
    pub mean_rmse_by_form: Vec<(SignatureForm, f64)>,
    /// Full analysis of the group's centroid drive (Figs. 7–8).
    pub centroid: DriveDegradation,
    /// Per-drive window sizes (aligned with the group's drive order).
    pub windows: Vec<usize>,
}

/// Computes distance curves, degradation windows and signature fits.
#[derive(Debug, Clone, Default)]
pub struct DegradationAnalyzer {
    config: DegradationConfig,
}

impl DegradationAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: DegradationConfig) -> Self {
        DegradationAnalyzer { config }
    }

    /// Analyzes a single failed drive.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnsuitableDataset`] for good drives or
    /// profiles with fewer than 3 records, and propagates numerical errors.
    pub fn analyze_drive(
        &self,
        dataset: &Dataset,
        drive: &DriveProfile,
    ) -> Result<DriveDegradation, AnalysisError> {
        if !drive.label().is_failed() {
            return Err(AnalysisError::UnsuitableDataset(format!(
                "{} is not a failed drive",
                drive.id()
            )));
        }
        let normalized = dataset.normalized_matrix(drive);
        let n = normalized.len();
        if n < 3 {
            return Err(AnalysisError::UnsuitableDataset(format!(
                "{} has only {n} records; need at least 3",
                drive.id()
            )));
        }
        let failure = &normalized[n - 1];
        let distances: Vec<f64> =
            normalized.iter().map(|rec| euclidean(rec, failure)).collect::<Result<_, _>>()?;
        let hours: Vec<u32> = drive.records().iter().map(|r| r.hour).collect();
        self.analyze_from_distances(drive.id(), &hours, distances)
    }

    /// [`analyze_drive`](Self::analyze_drive) against column-major fleet
    /// storage: the distance-to-failure curve is accumulated attribute by
    /// attribute over contiguous column slices (a cache-friendly,
    /// auto-vectorizable sweep), everything downstream is shared with the
    /// row-based path. Per-record sums run in the same attribute order as
    /// [`euclidean`], so the results are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnsuitableDataset`] for good drives or
    /// profiles with fewer than 3 records, and propagates numerical errors.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn analyze_drive_columns(
        &self,
        columns: &FleetColumns,
        pos: usize,
    ) -> Result<DriveDegradation, AnalysisError> {
        if !columns.is_failed(pos) {
            return Err(AnalysisError::UnsuitableDataset(format!(
                "{} is not a failed drive",
                columns.id(pos)
            )));
        }
        let n = columns.drive_rows(pos).len();
        if n < 3 {
            return Err(AnalysisError::UnsuitableDataset(format!(
                "{} has only {n} records; need at least 3",
                columns.id(pos)
            )));
        }
        // Squared distance to the failure record, one attribute at a time:
        // each record's accumulator receives its 12 terms in attribute
        // order — the exact fold `euclidean` performs — while the inner
        // loop streams one contiguous column slice.
        let mut squared = vec![0.0f64; n];
        for a in 0..NUM_ATTRIBUTES {
            let col = columns.normalized_slice(a, pos);
            let fail = col[n - 1];
            for (acc, &x) in squared.iter_mut().zip(col) {
                let diff = x - fail;
                *acc += diff * diff;
            }
        }
        let distances: Vec<f64> = squared.iter().map(|&v| v.sqrt()).collect();
        self.analyze_from_distances(columns.id(pos), columns.hours(pos), distances)
    }

    /// Shared tail of both per-drive paths: window extraction, gap refit,
    /// normalization and model selection over an already-computed distance
    /// curve.
    fn analyze_from_distances(
        &self,
        drive_id: DriveId,
        hours: &[u32],
        distances: Vec<f64>,
    ) -> Result<DriveDegradation, AnalysisError> {
        let n = distances.len();
        // --- monotone-suffix window extraction ----------------------------
        // Walking backward from the failure the distance should keep
        // rising; the window ends where it has dropped more than `tol`
        // below its running maximum (a cumulative criterion, so slow
        // multi-hour declines count as violations, not only single-step
        // jumps).
        let smoothed = moving_average(&distances, self.config.smoothing_window.max(1));
        let max_dist = distances.iter().copied().fold(0.0, f64::max);
        let tol = (self.config.tolerance_fraction * max_dist).max(self.config.tolerance_floor);
        let mut j = n - 1;
        let mut running_max = smoothed[n - 1];
        while j > 0 && smoothed[j - 1] >= running_max - tol {
            running_max = running_max.max(smoothed[j - 1]);
            j -= 1;
        }
        // Trim the fluctuating plateau at the top: the window starts where
        // the curve leaves the plateau. The first pass always drops the
        // samples at the top level; further passes run only while the
        // remaining window still has a long flat head (more than a quarter
        // of its length inside the trim band) — the signature of
        // pre-degradation fluctuation rather than a genuine steep curve
        // (even a pure linear ramp keeps its head under ~15%).
        for pass in 0..5 {
            if j + 4 >= n {
                break;
            }
            let window_max_smoothed =
                smoothed[j..].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let trim_level = (1.0 - self.config.trim_fraction) * window_max_smoothed;
            let Some(offset) = smoothed[j..n - 1].iter().rposition(|&v| v >= trim_level) else {
                break;
            };
            let head_len = offset + 1;
            let window_len = n - j;
            if pass > 0 && head_len * 4 < window_len {
                break;
            }
            j += head_len;
        }
        // Keep at least two pre-failure samples so fits are well-posed.
        j = j.min(n.saturating_sub(3));
        // Gap refit: a sanitized profile may have lost hours inside the
        // window. A stretch of missing telemetry longer than
        // `max_gap_hours` severs the window — the pre-gap samples belong
        // to a different regime — so the window restarts after the last
        // such gap, provided ≥ 3 samples survive.
        let max_gap = self.config.max_gap_hours.max(1) as u32;
        for k in (j..n - 1).rev() {
            if hours[k + 1] - hours[k] > max_gap && k < n - 3 {
                j = k + 1;
                break;
            }
        }
        // The window spans real collection hours, not sample counts, so
        // surviving (sub-threshold) gaps still stretch it. On gap-free
        // profiles `hours` is contiguous and this equals `(n - 1) - j`.
        let window_hours = (hours[n - 1] - hours[j]) as usize;

        // --- normalization to [-1, 0] -------------------------------------
        let window_slice = &distances[j..];
        let window_max = window_slice.iter().copied().fold(0.0, f64::max);
        let times: Vec<f64> = hours[j..].iter().map(|&h| (hours[n - 1] - h) as f64).collect();
        let degradation: Vec<f64> = if window_max > 0.0 {
            window_slice.iter().map(|&d| d / window_max - 1.0).collect()
        } else {
            vec![-1.0; window_slice.len()]
        };

        // --- fixed-form model selection ------------------------------------
        let d = window_hours as f64;
        let mut model_rmse = Vec::with_capacity(SignatureForm::ALL.len());
        for form in SignatureForm::ALL {
            let model = SignatureModel::new(form, d)?;
            model_rmse.push((form, model.rmse_against(&times, &degradation)?));
        }
        let (best_model, best_rmse) = SignatureModel::best_fit(d, &times, &degradation)?;

        // --- free polynomial fits (Fig. 8) ---------------------------------
        let mut poly_fits = Vec::new();
        for order in 1..=self.config.max_poly_order {
            if times.len() <= order {
                break;
            }
            match PolynomialFit::fit(&times, &degradation, order) {
                Ok(fit) => poly_fits.push(PolyFitSummary {
                    order,
                    coefficients: fit.coefficients().to_vec(),
                    r_squared: fit.r_squared(),
                    rmse: fit.rmse(),
                }),
                // Degenerate windows (e.g. all-equal times) just skip the
                // order rather than failing the drive.
                Err(_) => break,
            }
        }

        Ok(DriveDegradation {
            drive_id,
            distances,
            window_hours,
            times,
            degradation,
            best_model,
            best_rmse,
            model_rmse,
            poly_fits,
        })
    }

    /// Analyzes every group of a categorization, producing per-group
    /// signature summaries.
    ///
    /// # Errors
    ///
    /// Propagates per-drive errors; groups whose centroid cannot be
    /// analyzed fail the whole call (they indicate corrupt input).
    pub fn analyze_groups(
        &self,
        dataset: &Dataset,
        categorization: &Categorization,
    ) -> Result<Vec<GroupDegradation>, AnalysisError> {
        summarize_groups(categorization, |id| {
            let drive = dataset.drive(id).expect("group drives exist in dataset");
            self.analyze_drive(dataset, drive)
        })
    }

    /// [`analyze_groups`](Self::analyze_groups) against column-major fleet
    /// storage: drives resolve through the O(1) position map instead of
    /// `Dataset::drive`'s linear scan, and each drive's distance curve is
    /// the cache-blocked columnar kernel. Bit-identical to the row-based
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates per-drive errors; groups whose centroid cannot be
    /// analyzed fail the whole call (they indicate corrupt input).
    pub fn analyze_groups_columns(
        &self,
        columns: &FleetColumns,
        categorization: &Categorization,
    ) -> Result<Vec<GroupDegradation>, AnalysisError> {
        summarize_groups(categorization, |id| {
            let pos = columns.position(id).expect("group drives exist in dataset");
            self.analyze_drive_columns(columns, pos)
        })
    }
}

/// Folds each group's per-drive analyses — `analyze` runs once per member
/// drive, in group order — into its signature summary: form votes, mean
/// RMSE per form, window statistics and the centroid drive's analysis.
fn summarize_groups(
    categorization: &Categorization,
    mut analyze: impl FnMut(DriveId) -> Result<DriveDegradation, AnalysisError>,
) -> Result<Vec<GroupDegradation>, AnalysisError> {
    let mut result = Vec::with_capacity(categorization.num_groups());
    for group in categorization.groups() {
        let mut windows = Vec::with_capacity(group.size());
        let mut votes: Vec<(SignatureForm, usize)> =
            SignatureForm::ALL.iter().map(|&f| (f, 0)).collect();
        let mut rmse_sums: Vec<(SignatureForm, f64)> =
            SignatureForm::ALL.iter().map(|&f| (f, 0.0)).collect();
        let mut centroid: Option<DriveDegradation> = None;
        let mut analyzed = 0usize;
        for &id in &group.drive_ids {
            let analysis = analyze(id)?;
            windows.push(analysis.window_hours);
            analyzed += 1;
            for (form, count) in &mut votes {
                if *form == analysis.best_model.form() {
                    *count += 1;
                }
            }
            for ((_, sum), (_, rmse)) in rmse_sums.iter_mut().zip(&analysis.model_rmse) {
                *sum += rmse;
            }
            if id == group.centroid_drive {
                centroid = Some(analysis);
            }
        }
        let centroid = centroid.ok_or_else(|| {
            AnalysisError::UnsuitableDataset(format!(
                "group {} centroid drive missing from dataset",
                group.index + 1
            ))
        })?;
        let mean_rmse_by_form: Vec<(SignatureForm, f64)> =
            rmse_sums.into_iter().map(|(f, sum)| (f, sum / analyzed.max(1) as f64)).collect();
        let dominant_form =
            votes.iter().max_by_key(|(_, count)| *count).map(|&(f, _)| f).expect("votes non-empty");
        let min = windows.iter().copied().min().unwrap_or(0);
        let max = windows.iter().copied().max().unwrap_or(0);
        let mean = windows.iter().sum::<usize>() as f64 / windows.len().max(1) as f64;
        result.push(GroupDegradation {
            group_index: group.index,
            window_stats: (min, mean, max),
            dominant_form,
            form_votes: votes,
            mean_rmse_by_form,
            centroid,
            windows,
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{CategorizationConfig, Categorizer};
    use crate::features::FailureRecordSet;
    use dds_smartsim::{FailureMode, FleetConfig, FleetSimulator};

    fn dataset() -> Dataset {
        FleetSimulator::new(FleetConfig::test_scale().with_seed(41)).run()
    }

    #[test]
    fn distance_curve_ends_at_zero() {
        let ds = dataset();
        let analyzer = DegradationAnalyzer::default();
        let drive = ds.failed_drives().next().unwrap();
        let analysis = analyzer.analyze_drive(&ds, drive).unwrap();
        assert_eq!(*analysis.distances.last().unwrap(), 0.0);
        assert_eq!(analysis.distances.len(), drive.records().len());
    }

    #[test]
    fn degradation_is_normalized_and_monotone_boundaries() {
        let ds = dataset();
        let analyzer = DegradationAnalyzer::default();
        for drive in ds.failed_drives().take(10) {
            let a = analyzer.analyze_drive(&ds, drive).unwrap();
            // Last value is the failure itself: -1.
            assert!((a.degradation.last().unwrap() + 1.0).abs() < 1e-12);
            // All values in [-1, 0].
            for &s in &a.degradation {
                assert!((-1.0 - 1e-9..=1e-9).contains(&s), "degradation {s}");
            }
            // Times descend from window to 0.
            assert_eq!(*a.times.last().unwrap(), 0.0);
            assert_eq!(a.times[0] as usize, a.window_hours.min(a.times.len() - 1));
        }
    }

    #[test]
    fn bad_sector_windows_are_long_logical_short() {
        let ds = dataset();
        let analyzer = DegradationAnalyzer::default();
        let mut sector_windows = Vec::new();
        let mut logical_windows = Vec::new();
        for drive in ds.failed_drives() {
            let a = analyzer.analyze_drive(&ds, drive).unwrap();
            match drive.label().failure_mode().unwrap() {
                FailureMode::BadSector if drive.profile_hours() >= 400 => {
                    sector_windows.push(a.window_hours)
                }
                FailureMode::Logical => logical_windows.push(a.window_hours),
                _ => {}
            }
        }
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        assert!(mean(&sector_windows) > 150.0, "bad-sector windows too short: {sector_windows:?}");
        assert!(mean(&logical_windows) < 40.0, "logical windows too long: {logical_windows:?}");
    }

    #[test]
    fn signature_forms_match_generating_dynamics() {
        let ds = dataset();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
            .categorize(&ds, &records)
            .unwrap();
        let groups = DegradationAnalyzer::default().analyze_groups(&ds, &cat).unwrap();
        assert_eq!(groups.len(), 3);
        // Group 2 must be dominated by the linear form (Eq. 4).
        assert_eq!(groups[1].dominant_form, SignatureForm::Linear, "{:?}", groups[1].form_votes);
        // Group 3's signature has a higher order than Group 2's.
        assert!(groups[2].dominant_form.order() >= 2, "G3 votes: {:?}", groups[2].form_votes);
    }

    #[test]
    fn group_window_stats_are_consistent() {
        let ds = dataset();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
            .categorize(&ds, &records)
            .unwrap();
        let groups = DegradationAnalyzer::default().analyze_groups(&ds, &cat).unwrap();
        for g in &groups {
            let (min, mean, max) = g.window_stats;
            assert!(min as f64 <= mean && mean <= max as f64);
            assert_eq!(g.windows.len(), cat.groups()[g.group_index].size());
            assert!(g.centroid.window_hours >= 1);
        }
        // Group 2 windows dwarf Group 1 windows on average.
        assert!(groups[1].window_stats.1 > 3.0 * groups[0].window_stats.1);
    }

    #[test]
    fn model_comparison_covers_all_forms() {
        let ds = dataset();
        let analyzer = DegradationAnalyzer::default();
        let drive = ds.failed_drives().next().unwrap();
        let a = analyzer.analyze_drive(&ds, drive).unwrap();
        assert_eq!(a.model_rmse.len(), SignatureForm::ALL.len());
        let best_listed = a.model_rmse.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        assert!((best_listed - a.best_rmse).abs() < 1e-12);
    }

    #[test]
    fn poly_fits_improve_with_order() {
        let ds = dataset();
        let analyzer = DegradationAnalyzer::default();
        // Pick a drive with a long window so all orders fit.
        let drive = ds
            .failed_drives()
            .find(|d| {
                d.label().failure_mode() == Some(FailureMode::BadSector) && d.profile_hours() >= 400
            })
            .expect("test fleet has long bad-sector profiles");
        let a = analyzer.analyze_drive(&ds, drive).unwrap();
        assert!(a.poly_fits.len() >= 2);
        for w in a.poly_fits.windows(2) {
            assert!(w[1].rmse <= w[0].rmse + 1e-9);
            assert!(w[1].r_squared >= w[0].r_squared - 1e-9);
        }
    }

    #[test]
    fn remaining_time_prediction_is_monotone() {
        let ds = dataset();
        let analyzer = DegradationAnalyzer::default();
        let drive = ds.failed_drives().next().unwrap();
        let a = analyzer.analyze_drive(&ds, drive).unwrap();
        let t_mid = a.remaining_hours_at(-0.5).unwrap();
        let t_late = a.remaining_hours_at(-0.9).unwrap();
        assert!(t_late < t_mid);
        assert!((a.remaining_hours_at(-1.0).unwrap() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn window_refits_past_a_telemetry_gap() {
        use dds_smartsim::{DriveLabel, DriveProfile, HealthRecord, NUM_ATTRIBUTES};
        // Linear approach to failure with a 250-hour hole in the middle:
        // hours 0..=150, then 400..=480 (failure at 480). The distance
        // curve rises monotonically toward the past, so without gap
        // awareness the window would span the hole.
        let mut records = Vec::new();
        for hour in (0..=150u32).chain(400..=480) {
            records.push(HealthRecord { hour, values: [(480 - hour) as f64; NUM_ATTRIBUTES] });
        }
        let drive =
            DriveProfile::new(DriveId(9), DriveLabel::Failed(FailureMode::BadSector), records);
        let ds = Dataset::new(vec![drive]).unwrap();
        let a = DegradationAnalyzer::default()
            .analyze_drive(&ds, ds.drive(DriveId(9)).unwrap())
            .unwrap();
        // The window restarts after the gap: spans hours 400..480 only.
        assert_eq!(a.window_hours, 80, "window must not bridge the gap");
        assert_eq!(a.times[0], 80.0);
        assert_eq!(*a.times.last().unwrap(), 0.0);
        assert_eq!(a.times.len(), 81);
        // Times are true hours-before-failure, descending one per record.
        assert!(a.times.windows(2).all(|w| w[0] - w[1] == 1.0));
    }

    #[test]
    fn sub_threshold_gaps_stretch_the_window_hours() {
        use dds_smartsim::{DriveLabel, DriveProfile, HealthRecord, NUM_ATTRIBUTES};
        // Every third hour lost (gap of 3 ≤ max_gap_hours): the window
        // keeps all samples but spans real hours, so `window_hours`
        // exceeds the sample count.
        let mut records = Vec::new();
        let mut hour = 0u32;
        for _ in 0..60 {
            records.push(HealthRecord { hour, values: [(300 - hour) as f64; NUM_ATTRIBUTES] });
            hour += 3;
        }
        let drive =
            DriveProfile::new(DriveId(4), DriveLabel::Failed(FailureMode::BadSector), records);
        let ds = Dataset::new(vec![drive]).unwrap();
        let a = DegradationAnalyzer::default()
            .analyze_drive(&ds, ds.drive(DriveId(4)).unwrap())
            .unwrap();
        assert!(a.window_hours > a.times.len(), "hour-based window outspans samples");
        assert!(a.times.windows(2).all(|w| w[0] - w[1] == 3.0));
    }

    #[test]
    fn rejects_good_drives() {
        let ds = dataset();
        let analyzer = DegradationAnalyzer::default();
        let good = ds.good_drives().next().unwrap();
        assert!(matches!(
            analyzer.analyze_drive(&ds, good),
            Err(AnalysisError::UnsuitableDataset(_))
        ));
    }
}
