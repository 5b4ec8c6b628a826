//! Degradation prediction (§V-B, Fig. 13, Table III) and the §II-C
//! baseline detectors.
//!
//! For each failure group a regression tree is trained to predict the
//! *degradation value* of a health sample: good samples get target `1`,
//! failed samples get the group signature `s(t)` (Eqs. 3/4/6 with the
//! group's window size), clamped to `[-1, 1]`. Samples are mixed with
//! 10× good records and split 70/30, exactly as the paper describes.
//! Accuracy is reported as RMSE and as an error rate (RMSE over the
//! target range of 2), matching Table III.
//!
//! Two classic whole-disk detectors are provided as baselines: the
//! conservative vendor threshold test (3–10% FDR at ~0.1% FAR in the
//! paper's telling) and the Wilcoxon rank-sum detector of Hughes et al.

use crate::categorize::Categorization;
use crate::columnar::FleetColumns;
use crate::degradation::GroupDegradation;
use crate::error::AnalysisError;
use crate::model::TrainedModel;
use dds_regtree::{FitScratch, RegressionTree, TreeConfig};
use dds_smartsim::{Attribute, Dataset, NUM_ATTRIBUTES};
use dds_stats::hypothesis::rank_sum_test;
use dds_stats::par::{par_for_each_mut, par_map_indexed, split_chunks_mut, Parallelism};
use dds_stats::{rmse, ColMatrix, SignatureModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Configuration for [`DegradationPredictor`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionConfig {
    /// Good samples mixed in per failed sample (paper: 10×).
    pub good_sample_ratio: f64,
    /// Fraction of the mixed dataset used for training (paper: 70%).
    pub train_fraction: f64,
    /// Per-group degradation-window override for the target signature
    /// (paper: 12 / 380 / 24). `None` uses each group's median extracted
    /// window.
    pub fixed_windows: Option<Vec<f64>>,
    /// Regression-tree hyper-parameters.
    pub tree: TreeConfig,
    /// RNG seed for sampling and the split.
    pub seed: u64,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig {
            good_sample_ratio: 10.0,
            train_fraction: 0.7,
            fixed_windows: None,
            tree: TreeConfig::default(),
            seed: 0x93ED,
        }
    }
}

/// Good-row budget of the warm (incremental) train split, as a multiple
/// of the split's failed rows. The paper's 10× good mix is kept for
/// sample assembly and for the test split — so reported RMSE stays
/// comparable to cold training — but the warm tree fits on a 1.5× mix,
/// which is where the incremental refit's predict-stage speedup comes
/// from (tree-fit cost is roughly linear in train rows, so the thinning
/// buys ~(1+10)/(1+1.5) ≈ 4.4× on the fit). The mix is set to keep the
/// chaos-seed RMSE inflation comfortably inside the tolerance suite's
/// absolute budget (`tests/online_learning.rs`); thinning further starts
/// to eat that headroom without a matching latency win.
pub const WARM_GOOD_TRAIN_RATIO: f64 = 1.5;

/// Trained predictor and its Table III accuracy for one group.
#[derive(Debug, Clone)]
pub struct GroupPrediction {
    /// Paper-order group index.
    pub group_index: usize,
    /// The signature used to label failed samples.
    pub signature: SignatureModel,
    /// The trained regression tree (Fig. 13 for Group 1).
    pub tree: RegressionTree,
    /// Test-set RMSE (Table III row 1).
    pub rmse: f64,
    /// `rmse / 2` — the error rate over the `[-1, 1]` target range
    /// (Table III row 2).
    pub error_rate: f64,
    /// Training-set size.
    pub train_samples: usize,
    /// Test-set size.
    pub test_samples: usize,
}

impl GroupPrediction {
    /// Predicts the degradation value for a normalized 12-attribute record.
    ///
    /// # Panics
    ///
    /// Panics if the record does not have 12 values.
    pub fn predict(&self, normalized_record: &[f64]) -> f64 {
        self.tree.predict(normalized_record)
    }

    /// Renders the tree with the attribute symbols (Fig. 13).
    pub fn render_tree(&self) -> String {
        let names: Vec<&str> = Attribute::ALL.iter().map(|a| a.symbol()).collect();
        self.tree.render(&names)
    }
}

/// Per-group degradation predictors (Table III).
#[derive(Debug, Clone)]
pub struct PredictionReport {
    /// One prediction per group, paper order.
    pub groups: Vec<GroupPrediction>,
}

/// Trains per-group degradation predictors.
#[derive(Debug, Clone, Default)]
pub struct DegradationPredictor {
    config: PredictionConfig,
}

impl DegradationPredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: PredictionConfig) -> Self {
        DegradationPredictor { config }
    }

    /// Trains and evaluates a predictor for every group.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidConfig`] for out-of-range fractions
    /// and [`AnalysisError::UnsuitableDataset`] when a group has no usable
    /// samples; propagates tree-training errors.
    pub fn train(
        &self,
        dataset: &Dataset,
        categorization: &Categorization,
        degradation: &[GroupDegradation],
    ) -> Result<PredictionReport, AnalysisError> {
        self.validate_config()?;
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            "predict.train",
            groups = categorization.num_groups(),
            train_fraction = self.config.train_fraction,
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // The good-record pool is group-independent, and at paper scale it
        // dwarfs every failed group — build it once (fanning the per-drive
        // normalization out across threads; drive and record order are
        // preserved) instead of rescanning the good population per group.
        let good_drives: Vec<&dds_smartsim::DriveProfile> = dataset.good_drives().collect();
        let good_pool: Vec<[f64; NUM_ATTRIBUTES]> =
            par_map_indexed(self.config.tree.parallelism, &good_drives, |_, drive| {
                drive.records().iter().map(|r| dataset.normalize_record(r)).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .filter(|row| row.iter().all(|v| v.is_finite()))
            .collect();

        let mut groups = Vec::with_capacity(categorization.num_groups());
        for group in categorization.groups() {
            let signature = self.group_signature(group, degradation)?;
            let (xs, ys) =
                self.assemble_samples_with_pool(dataset, group, &signature, &good_pool, &mut rng)?;

            // Shuffled 70/30 split.
            let mut order: Vec<usize> = (0..xs.len()).collect();
            order.shuffle(&mut rng);
            let cut = ((xs.len() as f64) * self.config.train_fraction).round() as usize;
            let cut = cut.clamp(1, xs.len() - 1);
            let (train_idx, test_idx) = order.split_at(cut);
            let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
            let train_y: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();
            // Test rows are only read once for scoring — borrow them
            // instead of cloning the whole held-out set.
            let test_x: Vec<&[f64]> = test_idx.iter().map(|&i| xs[i].as_slice()).collect();
            let test_y: Vec<f64> = test_idx.iter().map(|&i| ys[i]).collect();

            let tree = RegressionTree::fit(&train_x, &train_y, &self.config.tree)?;
            let predictions = tree.predict_batch_ref(&test_x);
            let test_rmse = rmse(&predictions, &test_y)?;
            groups.push(GroupPrediction {
                group_index: group.index,
                signature,
                tree,
                rmse: test_rmse,
                // Target range is [-1, 1] (§V-B: error rate over the range).
                error_rate: test_rmse / 2.0,
                train_samples: train_x.len(),
                test_samples: test_x.len(),
            });
        }
        Ok(PredictionReport { groups })
    }

    /// [`train`](Self::train) against column-major fleet storage: the good
    /// pool, sample assembly and the regression trees all work on
    /// per-attribute columns ([`RegressionTree::fit_columns`] with its
    /// presorted split scans), drives resolve through the O(1) position
    /// map, and good samples are read from the pool instead of being
    /// copied. The random sampling, shuffle and split consume the seeded
    /// RNG in exactly the row path's order, so the report is
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidConfig`] for out-of-range fractions
    /// and [`AnalysisError::UnsuitableDataset`] when a group has no usable
    /// samples; propagates tree-training errors.
    pub fn train_with_columns(
        &self,
        columns: &FleetColumns,
        categorization: &Categorization,
        degradation: &[GroupDegradation],
    ) -> Result<PredictionReport, AnalysisError> {
        self.fit_columns(columns, categorization, degradation, None, false)
            .map(|(report, _)| report)
    }

    /// The one column fit behind cold training and incremental refit.
    ///
    /// Only the failed rows are materialized into columns; good rows stay
    /// lazy as pick indices into the good pool (the row path's
    /// `random_range` draws). Sample index `i` addresses failed row `i`
    /// for `i < n_failed`, else `good_pool[good_picks[i - n_failed]]` with
    /// label `1.0` — the sample the row path appends at that index.
    ///
    /// A `warm` fit thins the good rows of each train split to
    /// [`WARM_GOOD_TRAIN_RATIO`] × the split's failed rows, cutting
    /// tree-fit cost by roughly the good-sample ratio while keeping every
    /// failed row; its quality cost is pinned by the tolerance suite in
    /// `tests/online_learning.rs`. The test split is never thinned, so
    /// warm and cold fits report RMSE over the same held-out rows. With a
    /// `prior`, every prior tree whose group index matches is scored on
    /// those rows as well; the mean over matched groups is the live RMSE
    /// of the drift channel (`None` when no group matched).
    pub(crate) fn fit_columns(
        &self,
        columns: &FleetColumns,
        categorization: &Categorization,
        degradation: &[GroupDegradation],
        prior: Option<&TrainedModel>,
        warm: bool,
    ) -> Result<(PredictionReport, Option<f64>), AnalysisError> {
        self.validate_config()?;
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            "predict.train",
            groups = categorization.num_groups(),
            train_fraction = self.config.train_fraction,
            warm = warm,
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let good_pool = {
            let _span = dds_obs::span!(dds_obs::Level::Debug, "predict.good_pool",);
            columns.finite_good_pool()
        };

        // Per-group working memory, allocated once and recycled across the
        // loop. Freeing the multi-megabyte train/test buffers after every
        // group lets glibc's main arena trim the heap back to the OS, and
        // the next group then refaults (and kernel-zeroes) every page;
        // reuse keeps the pages hot. Worker-thread fits get the same effect
        // for free from their per-thread arenas — this closes the gap for
        // the sequential path.
        let mut failed_cols: Vec<Vec<f64>> = vec![Vec::new(); NUM_ATTRIBUTES];
        let mut failed_ys: Vec<f64> = Vec::new();
        let mut finite: Vec<bool> = Vec::new();
        let mut good_picks: Vec<usize> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let mut train_cols: Vec<Vec<f64>> = vec![Vec::new(); NUM_ATTRIBUTES];
        let mut train_y: Vec<f64> = Vec::new();
        let mut test_rows: Vec<[f64; NUM_ATTRIBUTES]> = Vec::new();
        let mut test_y: Vec<f64> = Vec::new();
        let mut fit_scratch = FitScratch::default();

        let mut live_total = 0.0;
        let mut live_matched = 0usize;
        let mut groups = Vec::with_capacity(categorization.num_groups());
        for group in categorization.groups() {
            let signature = self.group_signature(group, degradation)?;
            {
                let _span =
                    dds_obs::span!(dds_obs::Level::Debug, "predict.assemble", group = group.index,);
                self.assemble_failed_sample_columns(
                    columns,
                    group,
                    &signature,
                    &mut failed_cols,
                    &mut failed_ys,
                    &mut finite,
                )?;
                self.draw_good_picks(failed_ys.len(), good_pool.len(), &mut rng, &mut good_picks);
            }
            let n_failed = failed_ys.len();
            let n = n_failed + good_picks.len();
            let row = |i: usize| -> [f64; NUM_ATTRIBUTES] {
                if i < n_failed {
                    std::array::from_fn(|a| failed_cols[a][i])
                } else {
                    good_pool[good_picks[i - n_failed]]
                }
            };
            let label = |i: usize| if i < n_failed { failed_ys[i] } else { 1.0 };

            // Shuffled 70/30 split — the same RNG draws as the row path.
            let _span =
                dds_obs::span!(dds_obs::Level::Debug, "predict.split_gather", group = group.index,);
            order.clear();
            order.extend(0..n);
            order.shuffle(&mut rng);
            let cut = ((n as f64) * self.config.train_fraction).round() as usize;
            let cut = cut.clamp(1, n - 1);
            let (train_idx, test_idx) = order.split_at(cut);

            // A warm fit keeps only the first good rows of the train split:
            // the shuffle already made them a uniform random subsample, so
            // the thinning consumes no extra RNG draws.
            let mut good_left = if warm {
                let failed_train = train_idx.iter().filter(|&&i| i < n_failed).count();
                ((failed_train as f64) * WARM_GOOD_TRAIN_RATIO).ceil() as usize
            } else {
                usize::MAX
            };
            kept.clear();
            for &i in train_idx {
                if i < n_failed {
                    kept.push(i);
                } else if good_left > 0 {
                    good_left -= 1;
                    kept.push(i);
                }
            }
            // The gathers are bound by random reads of pool rows, so they
            // run on several workers over contiguous chunks of the index
            // lists, each writing its own slice of the preallocated
            // buffers. Every row gathers the same values in every mode.
            let par = self.config.tree.parallelism;
            for col in &mut train_cols {
                col.resize(kept.len(), 0.0);
            }
            train_y.resize(kept.len(), 0.0);
            gather_columns(par, &kept, &mut train_cols, &mut train_y, &row, &label);
            let train_x = ColMatrix::from_columns(std::mem::take(&mut train_cols))?;
            // Test rows are only read once for scoring — gather them into
            // one row-major buffer.
            test_rows.resize(test_idx.len(), [0.0; NUM_ATTRIBUTES]);
            test_y.resize(test_idx.len(), 0.0);
            gather_rows(par, test_idx, &mut test_rows, &mut test_y, &row, &label);
            let test_x: Vec<&[f64]> = test_rows.iter().map(|r| r.as_slice()).collect();
            drop(_span);

            if let Some(prior_group) =
                prior.and_then(|p| p.groups.iter().find(|g| g.group_index == group.index))
            {
                live_total += rmse(&prior_group.tree.predict_batch_ref(&test_x), &test_y)?;
                live_matched += 1;
            }

            let tree = RegressionTree::fit_columns_with_scratch(
                &train_x,
                &train_y,
                &self.config.tree,
                &mut fit_scratch,
            )?;
            let predictions = tree.predict_batch_ref(&test_x);
            let test_rmse = rmse(&predictions, &test_y)?;
            groups.push(GroupPrediction {
                group_index: group.index,
                signature,
                tree,
                rmse: test_rmse,
                // Target range is [-1, 1] (§V-B: error rate over the range).
                error_rate: test_rmse / 2.0,
                train_samples: train_y.len(),
                test_samples: test_idx.len(),
            });
            // Hand the train columns' capacity back for the next group.
            train_cols = train_x.into_columns();
        }
        let live_rmse = (live_matched > 0).then(|| live_total / live_matched as f64);
        Ok((PredictionReport { groups }, live_rmse))
    }

    fn validate_config(&self) -> Result<(), AnalysisError> {
        if !(0.0..1.0).contains(&(self.config.train_fraction - f64::EPSILON))
            || self.config.train_fraction <= 0.0
            || self.config.train_fraction >= 1.0
        {
            return Err(AnalysisError::InvalidConfig(format!(
                "train fraction {} must be in (0, 1)",
                self.config.train_fraction
            )));
        }
        if self.config.good_sample_ratio < 0.0 {
            return Err(AnalysisError::InvalidConfig(
                "good sample ratio must be non-negative".to_string(),
            ));
        }
        Ok(())
    }

    /// Resolves one group's target signature: its dominant form with either
    /// the configured fixed window or the median extracted window.
    fn group_signature(
        &self,
        group: &crate::categorize::FailureGroup,
        degradation: &[GroupDegradation],
    ) -> Result<SignatureModel, AnalysisError> {
        let summary =
            degradation.iter().find(|g| g.group_index == group.index).ok_or_else(|| {
                AnalysisError::UnsuitableDataset(format!(
                    "missing degradation summary for group {}",
                    group.index + 1
                ))
            })?;
        let window = match &self.config.fixed_windows {
            Some(windows) => *windows.get(group.index).ok_or_else(|| {
                AnalysisError::InvalidConfig(format!(
                    "fixed_windows has no entry for group {}",
                    group.index + 1
                ))
            })?,
            None => median_window(&summary.windows),
        };
        Ok(SignatureModel::new(summary.dominant_form, window.max(1.0))?)
    }
}

impl DegradationPredictor {
    /// Assembles the §V-B labeled sample set for one group: every record of
    /// every group drive labeled by the signature value at its
    /// hours-before-failure (clamped to `[-1, 1]`), mixed with
    /// `good_sample_ratio ×` as many random good records labeled `1`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnsuitableDataset`] when the group has no
    /// records at all.
    pub fn assemble_samples<R: rand::Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        group: &crate::categorize::FailureGroup,
        signature: &SignatureModel,
        rng: &mut R,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>), AnalysisError> {
        let good_pool: Vec<[f64; NUM_ATTRIBUTES]> = dataset
            .good_drives()
            .flat_map(|d| d.records().iter().map(|r| dataset.normalize_record(r)))
            .filter(|row| row.iter().all(|v| v.is_finite()))
            .collect();
        self.assemble_samples_with_pool(dataset, group, signature, &good_pool, rng)
    }

    /// [`assemble_samples`](Self::assemble_samples) against a pre-built
    /// good-record pool, so [`train`](Self::train) pays the population scan
    /// once rather than once per group. Pool construction draws no random
    /// numbers, so the sampling sequence is unchanged.
    fn assemble_samples_with_pool<R: rand::Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        group: &crate::categorize::FailureGroup,
        signature: &SignatureModel,
        good_pool: &[[f64; NUM_ATTRIBUTES]],
        rng: &mut R,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>), AnalysisError> {
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for &id in &group.drive_ids {
            let drive = dataset.drive(id).expect("group drives exist");
            // Hours-before-failure by record *hour*, so profiles with
            // quarantined (missing) hours label each surviving sample at
            // its true distance to failure; identical to the index form
            // `n - 1 - i` on gap-free profiles.
            let last_hour = drive.records().last().expect("profiles are non-empty").hour;
            for record in drive.records() {
                let t = (last_hour - record.hour) as f64;
                let row = dataset.normalize_record(record);
                if row.iter().any(|v| !v.is_finite()) {
                    continue;
                }
                xs.push(row.to_vec());
                ys.push(signature.evaluate(t).clamp(-1.0, 1.0));
            }
        }
        if xs.is_empty() {
            return Err(AnalysisError::UnsuitableDataset(format!(
                "group {} has no failed samples",
                group.index + 1
            )));
        }
        let n_good = ((xs.len() as f64) * self.config.good_sample_ratio) as usize;
        for _ in 0..n_good.min(good_pool.len().saturating_mul(4)) {
            let pick = rng.random_range(0..good_pool.len().max(1));
            if let Some(rec) = good_pool.get(pick) {
                xs.push(rec.to_vec());
                ys.push(1.0);
            }
        }
        Ok((xs, ys))
    }

    /// The failed-drive half of sample assembly, straight into column-major
    /// storage: per drive, a columnwise finite mask selects the usable
    /// rows, then each attribute column is appended in one contiguous pass.
    /// Rows and labels match the row path's failed prefix exactly. Writes
    /// into caller-owned buffers (each cleared first) so the per-group loop
    /// reuses their capacity.
    fn assemble_failed_sample_columns(
        &self,
        columns: &FleetColumns,
        group: &crate::categorize::FailureGroup,
        signature: &SignatureModel,
        cols: &mut [Vec<f64>],
        ys: &mut Vec<f64>,
        finite: &mut Vec<bool>,
    ) -> Result<(), AnalysisError> {
        for col in cols.iter_mut() {
            col.clear();
        }
        ys.clear();
        for &id in &group.drive_ids {
            let pos = columns.position(id).expect("group drives exist");
            let hours = columns.hours(pos);
            let last_hour = *hours.last().expect("profiles are non-empty");
            finite.clear();
            finite.resize(hours.len(), true);
            for a in 0..NUM_ATTRIBUTES {
                for (f, v) in finite.iter_mut().zip(columns.normalized_slice(a, pos)) {
                    *f &= v.is_finite();
                }
            }
            for (a, col) in cols.iter_mut().enumerate() {
                for (&f, &v) in finite.iter().zip(columns.normalized_slice(a, pos)) {
                    if f {
                        col.push(v);
                    }
                }
            }
            // Hours-before-failure by record *hour*, exactly as the row
            // path labels its samples.
            for (&f, &h) in finite.iter().zip(hours) {
                if f {
                    let t = (last_hour - h) as f64;
                    ys.push(signature.evaluate(t).clamp(-1.0, 1.0));
                }
            }
        }
        if ys.is_empty() {
            return Err(AnalysisError::UnsuitableDataset(format!(
                "group {} has no failed samples",
                group.index + 1
            )));
        }
        Ok(())
    }

    /// Draws the good-row pool picks for a group of `n_failed` failed
    /// samples — `good_sample_ratio ×` as many, with replacement. These are
    /// exactly the draws the row path consumes while appending good rows,
    /// which keeps the column fit's shuffled split identical to it.
    fn draw_good_picks<R: rand::Rng + ?Sized>(
        &self,
        n_failed: usize,
        pool_len: usize,
        rng: &mut R,
        picks: &mut Vec<usize>,
    ) {
        picks.clear();
        let n_good = ((n_failed as f64) * self.config.good_sample_ratio) as usize;
        for _ in 0..n_good.min(pool_len.saturating_mul(4)) {
            let pick = rng.random_range(0..pool_len.max(1));
            if pick < pool_len {
                picks.push(pick);
            }
        }
    }
}

/// Writes sample `idx[k]`'s attributes to `cols[a][k]` and its label to
/// `ys[k]`, on `par` workers over contiguous chunks of `idx`. `cols` and
/// `ys` must already hold `idx.len()` values.
fn gather_columns(
    par: Parallelism,
    idx: &[usize],
    cols: &mut [Vec<f64>],
    ys: &mut [f64],
    row: &(impl Fn(usize) -> [f64; NUM_ATTRIBUTES] + Sync),
    label: &(impl Fn(usize) -> f64 + Sync),
) {
    let workers = par.effective_threads();
    let mut col_chunks: Vec<_> =
        cols.iter_mut().map(|col| split_chunks_mut(col, workers).into_iter()).collect();
    let mut tasks = Vec::with_capacity(workers);
    let mut rest = idx;
    for ys in split_chunks_mut(ys, workers) {
        let (idx, tail) = rest.split_at(ys.len());
        rest = tail;
        let cols: Vec<&mut [f64]> =
            col_chunks.iter_mut().map(|c| c.next().expect("one chunk per worker")).collect();
        tasks.push((idx, cols, ys));
    }
    par_for_each_mut(par, &mut tasks, |_, (idx, cols, ys)| {
        for (k, &i) in idx.iter().enumerate() {
            for (col, v) in cols.iter_mut().zip(row(i)) {
                col[k] = v;
            }
            ys[k] = label(i);
        }
    });
}

/// [`gather_columns`] into row-major storage: `rows[k]` and `ys[k]` take
/// sample `idx[k]`.
fn gather_rows(
    par: Parallelism,
    idx: &[usize],
    rows: &mut [[f64; NUM_ATTRIBUTES]],
    ys: &mut [f64],
    row: &(impl Fn(usize) -> [f64; NUM_ATTRIBUTES] + Sync),
    label: &(impl Fn(usize) -> f64 + Sync),
) {
    let workers = par.effective_threads();
    let mut tasks = Vec::with_capacity(workers);
    let mut rest = idx;
    for (rows, ys) in split_chunks_mut(rows, workers).into_iter().zip(split_chunks_mut(ys, workers))
    {
        let (idx, tail) = rest.split_at(ys.len());
        rest = tail;
        tasks.push((idx, rows, ys));
    }
    par_for_each_mut(par, &mut tasks, |_, (idx, rows, ys)| {
        for ((&i, out), y) in idx.iter().zip(rows.iter_mut()).zip(ys.iter_mut()) {
            *out = row(i);
            *y = label(i);
        }
    });
}

fn median_window(windows: &[usize]) -> f64 {
    if windows.is_empty() {
        return 1.0;
    }
    let mut sorted = windows.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2] as f64
}

// ---------------------------------------------------------------------------
// Baseline detectors (§II-C)
// ---------------------------------------------------------------------------

/// Outcome of a whole-disk failure detector: failure-detection rate over
/// failed drives and false-alarm rate over good drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorOutcome {
    /// Fraction of failed drives flagged (FDR).
    pub detection_rate: f64,
    /// Fraction of good drives flagged (FAR).
    pub false_alarm_rate: f64,
    /// Absolute number of flagged failed drives.
    pub flagged_failed: usize,
    /// Absolute number of flagged good drives.
    pub flagged_good: usize,
}

/// The conservative vendor threshold policy: a drive is flagged when any
/// health value drops below its attribute threshold. Manufacturers set
/// these low on purpose — "to keep the FAR to a minimum at the expense of
/// FDR" (§II-C).
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPolicy {
    /// `(attribute, minimum healthy value)` pairs.
    pub thresholds: Vec<(Attribute, f64)>,
}

impl ThresholdPolicy {
    /// The conservative vendor-style defaults.
    pub fn vendor_conservative() -> Self {
        ThresholdPolicy {
            thresholds: vec![
                (Attribute::ReallocatedSectors, 3.0),
                (Attribute::ReportedUncorrectable, 36.0),
                (Attribute::CurrentPendingSectors, 30.0),
                (Attribute::RawReadErrorRate, 40.0),
                (Attribute::SeekErrorRate, 40.0),
            ],
        }
    }
}

/// Runs the threshold detector over every drive.
pub fn threshold_detector(dataset: &Dataset, policy: &ThresholdPolicy) -> DetectorOutcome {
    let flag = |drive: &dds_smartsim::DriveProfile| -> bool {
        drive
            .records()
            .iter()
            .any(|r| policy.thresholds.iter().any(|&(attr, min)| r.value(attr) < min))
    };
    let flagged_failed = dataset.failed_drives().filter(|d| flag(d)).count();
    let flagged_good = dataset.good_drives().filter(|d| flag(d)).count();
    let failed_total = dataset.failed_drives().count().max(1);
    let good_total = dataset.good_drives().count().max(1);
    DetectorOutcome {
        detection_rate: flagged_failed as f64 / failed_total as f64,
        false_alarm_rate: flagged_good as f64 / good_total as f64,
        flagged_failed,
        flagged_good,
    }
}

/// Configuration for the rank-sum baseline detector.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSumConfig {
    /// Attributes tested (OR-ed via a max-|z| score, as in Hughes et al.).
    pub attributes: Vec<Attribute>,
    /// Target false-alarm rate the critical value is calibrated to
    /// (Hughes et al. operate at 0.5%).
    pub target_far: f64,
    /// Trailing window per drive (hours).
    pub window_hours: usize,
    /// Size of the good reference sample per attribute.
    pub reference_samples: usize,
    /// RNG seed for reference sampling.
    pub seed: u64,
}

impl Default for RankSumConfig {
    fn default() -> Self {
        RankSumConfig {
            // Counter attributes: the vendor "rate" health values have
            // per-drive baselines that would dominate pooled rank
            // comparisons.
            attributes: vec![
                Attribute::ReportedUncorrectable,
                Attribute::RawReallocatedSectors,
                Attribute::CurrentPendingSectors,
            ],
            target_far: 0.005,
            window_hours: 24,
            reference_samples: 256,
            seed: 0x4A4B,
        }
    }
}

/// Runs the Wilcoxon rank-sum detector (§II-C, Hughes et al.): every drive
/// gets a score — the largest |z| of the rank-sum tests of its trailing
/// window against a good reference sample, over the monitored attributes —
/// and the critical value is *calibrated on the good population* so the
/// false-alarm rate hits `target_far`, mirroring how the original work
/// tuned for 0.5% FAR.
///
/// # Errors
///
/// Returns [`AnalysisError::UnsuitableDataset`] when there are no good
/// records to build a reference from.
pub fn rank_sum_detector(
    dataset: &Dataset,
    config: &RankSumConfig,
) -> Result<DetectorOutcome, AnalysisError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Reference sample per attribute from random good records.
    let good_records: Vec<&dds_smartsim::HealthRecord> =
        dataset.good_drives().flat_map(|d| d.records().iter()).collect();
    if good_records.is_empty() {
        return Err(AnalysisError::UnsuitableDataset(
            "rank-sum detector needs good drives".to_string(),
        ));
    }
    let mut references: Vec<(Attribute, Vec<f64>)> = Vec::new();
    for &attr in &config.attributes {
        let sample: Vec<f64> = (0..config.reference_samples.max(8))
            .map(|_| good_records[rng.random_range(0..good_records.len())].value(attr))
            .collect();
        references.push((attr, sample));
    }

    let score = |drive: &dds_smartsim::DriveProfile| -> f64 {
        let n = drive.records().len();
        let start = n.saturating_sub(config.window_hours.max(1));
        references
            .iter()
            .map(|(attr, reference)| {
                let window: Vec<f64> =
                    drive.records()[start..].iter().map(|r| r.value(*attr)).collect();
                rank_sum_test(&window, reference).map(|r| r.z.abs()).unwrap_or(0.0)
            })
            .fold(0.0, f64::max)
    };

    // Calibrate the critical value on the good population.
    let mut good_scores: Vec<f64> = dataset.good_drives().map(score).collect();
    good_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let far = config.target_far.clamp(0.0, 1.0);
    let rank = ((good_scores.len() as f64) * (1.0 - far)).ceil() as usize;
    let critical =
        good_scores.get(rank.min(good_scores.len() - 1)).copied().unwrap_or(f64::INFINITY);

    let flagged_failed = dataset.failed_drives().filter(|d| score(d) > critical).count();
    let flagged_good = good_scores.iter().filter(|&&s| s > critical).count();
    let failed_total = dataset.failed_drives().count().max(1);
    let good_total = dataset.good_drives().count().max(1);
    Ok(DetectorOutcome {
        detection_rate: flagged_failed as f64 / failed_total as f64,
        false_alarm_rate: flagged_good as f64 / good_total as f64,
        flagged_failed,
        flagged_good,
    })
}

/// Configuration for the Mahalanobis-distance baseline detector
/// (Wang et al., §II-C reference \[26\]).
#[derive(Debug, Clone, PartialEq)]
pub struct MahalanobisConfig {
    /// Target false-alarm rate the critical value is calibrated to.
    pub target_far: f64,
    /// Trailing window per drive (hours); the drive's score is the mean
    /// Mahalanobis distance of the window's records from the good-population
    /// distribution.
    pub window_hours: usize,
    /// Ridge added to the covariance diagonal for invertibility.
    pub regularization: f64,
}

impl Default for MahalanobisConfig {
    fn default() -> Self {
        MahalanobisConfig { target_far: 0.005, window_hours: 24, regularization: 1e-6 }
    }
}

/// Runs the Mahalanobis online anomaly detector: fit the good population's
/// mean/covariance over the 12 attributes, score each drive by the mean
/// Mahalanobis distance of its trailing records, and calibrate the critical
/// value on the good population for the target FAR.
///
/// # Errors
///
/// Returns [`AnalysisError::UnsuitableDataset`] without good drives and
/// propagates covariance inversion failures.
pub fn mahalanobis_detector(
    dataset: &Dataset,
    config: &MahalanobisConfig,
) -> Result<DetectorOutcome, AnalysisError> {
    use dds_stats::correlation::covariance_matrix;
    use dds_stats::MahalanobisMetric;

    let good_rows: Vec<Vec<f64>> = dataset
        .good_drives()
        .flat_map(|d| d.records().iter().map(|r| dataset.normalize_record(r).to_vec()))
        .collect();
    if good_rows.is_empty() {
        return Err(AnalysisError::UnsuitableDataset(
            "mahalanobis detector needs good drives".to_string(),
        ));
    }
    let mut cov = covariance_matrix(&good_rows)?;
    for i in 0..cov.rows() {
        cov[(i, i)] += config.regularization.max(0.0);
    }
    let metric = MahalanobisMetric::new(&cov)?;
    let mut mean = vec![0.0f64; NUM_ATTRIBUTES];
    for row in &good_rows {
        for (m, v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= good_rows.len() as f64;
    }

    let score = |drive: &dds_smartsim::DriveProfile| -> f64 {
        let n = drive.records().len();
        let start = n.saturating_sub(config.window_hours.max(1));
        let window = &drive.records()[start..];
        let total: f64 = window
            .iter()
            .map(|r| {
                let row = dataset.normalize_record(r);
                metric.distance(&row, &mean).unwrap_or(0.0)
            })
            .sum();
        total / window.len().max(1) as f64
    };

    let mut good_scores: Vec<f64> = dataset.good_drives().map(score).collect();
    good_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let far = config.target_far.clamp(0.0, 1.0);
    let rank = ((good_scores.len() as f64) * (1.0 - far)).ceil() as usize;
    let critical =
        good_scores.get(rank.min(good_scores.len() - 1)).copied().unwrap_or(f64::INFINITY);

    let flagged_failed = dataset.failed_drives().filter(|d| score(d) > critical).count();
    let flagged_good = good_scores.iter().filter(|&&s| s > critical).count();
    Ok(DetectorOutcome {
        detection_rate: flagged_failed as f64 / dataset.failed_drives().count().max(1) as f64,
        false_alarm_rate: flagged_good as f64 / good_scores.len().max(1) as f64,
        flagged_failed,
        flagged_good,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{CategorizationConfig, Categorizer};
    use crate::degradation::DegradationAnalyzer;
    use crate::features::FailureRecordSet;
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn setup() -> (Dataset, Categorization, Vec<GroupDegradation>) {
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_seed(71)).run();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
            .categorize(&ds, &records)
            .unwrap();
        let deg = DegradationAnalyzer::default().analyze_groups(&ds, &cat).unwrap();
        (ds, cat, deg)
    }

    #[test]
    fn trains_one_predictor_per_group_with_low_error() {
        let (ds, cat, deg) = setup();
        let report = DegradationPredictor::default().train(&ds, &cat, &deg).unwrap();
        assert_eq!(report.groups.len(), 3);
        for g in &report.groups {
            assert!(g.rmse.is_finite());
            assert!(
                g.error_rate < 0.20,
                "group {} error rate {:.3} out of Table III range",
                g.group_index + 1,
                g.error_rate
            );
            assert!(g.train_samples > g.test_samples);
        }
    }

    #[test]
    fn paper_windows_override_is_used() {
        let (ds, cat, deg) = setup();
        let config =
            PredictionConfig { fixed_windows: Some(vec![12.0, 380.0, 24.0]), ..Default::default() };
        let report = DegradationPredictor::new(config).train(&ds, &cat, &deg).unwrap();
        assert_eq!(report.groups[0].signature.window(), 12.0);
        assert_eq!(report.groups[1].signature.window(), 380.0);
        assert_eq!(report.groups[2].signature.window(), 24.0);
    }

    #[test]
    fn rendered_tree_uses_attribute_symbols() {
        let (ds, cat, deg) = setup();
        let report = DegradationPredictor::default().train(&ds, &cat, &deg).unwrap();
        let text = report.groups[0].render_tree();
        assert!(text.contains('%'));
        // At least one SMART symbol appears in a split.
        let has_symbol = Attribute::ALL.iter().any(|a| text.contains(&format!("{} <", a.symbol())));
        assert!(has_symbol, "tree: {text}");
    }

    #[test]
    fn prediction_distinguishes_good_from_failing_records() {
        let (ds, cat, deg) = setup();
        let report = DegradationPredictor::default().train(&ds, &cat, &deg).unwrap();
        // Group 2 (bad sectors) failure records should predict near -1,
        // good records near +1.
        let g2 = &report.groups[1];
        let group = &cat.groups()[1];
        let failed_drive = ds.drive(group.centroid_drive).unwrap();
        let failure_record = ds.normalize_record(failed_drive.records().last().unwrap()).to_vec();
        let good_drive = ds.good_drives().next().unwrap();
        let good_record = ds.normalize_record(&good_drive.records()[0]).to_vec();
        assert!(g2.predict(&failure_record) < 0.0);
        assert!(g2.predict(&good_record) > 0.5);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (ds, cat, deg) = setup();
        let bad = PredictionConfig { train_fraction: 1.5, ..Default::default() };
        assert!(matches!(
            DegradationPredictor::new(bad).train(&ds, &cat, &deg),
            Err(AnalysisError::InvalidConfig(_))
        ));
        let bad = PredictionConfig { good_sample_ratio: -1.0, ..Default::default() };
        assert!(DegradationPredictor::new(bad).train(&ds, &cat, &deg).is_err());
    }

    #[test]
    fn threshold_detector_is_conservative() {
        let (ds, _, _) = setup();
        let outcome = threshold_detector(&ds, &ThresholdPolicy::vendor_conservative());
        // Low FDR at near-zero FAR — the vendor trade-off of §II-C.
        assert!(outcome.detection_rate < 0.5, "FDR {}", outcome.detection_rate);
        assert!(outcome.false_alarm_rate < 0.02, "FAR {}", outcome.false_alarm_rate);
    }

    #[test]
    fn rank_sum_detector_beats_thresholds_on_detection() {
        let (ds, _, _) = setup();
        let threshold = threshold_detector(&ds, &ThresholdPolicy::vendor_conservative());
        let rank = rank_sum_detector(&ds, &RankSumConfig::default()).unwrap();
        assert!(
            rank.detection_rate >= threshold.detection_rate,
            "rank-sum FDR {} vs threshold FDR {}",
            rank.detection_rate,
            threshold.detection_rate
        );
        assert!(rank.false_alarm_rate < 0.10, "FAR {}", rank.false_alarm_rate);
    }

    #[test]
    fn rank_sum_needs_good_drives() {
        let ds =
            FleetSimulator::new(FleetConfig::test_scale().with_good_drives(0).with_seed(71)).run();
        assert!(rank_sum_detector(&ds, &RankSumConfig::default()).is_err());
    }

    #[test]
    fn mahalanobis_detector_calibrates_far() {
        let (ds, _, _) = setup();
        let outcome = mahalanobis_detector(&ds, &MahalanobisConfig::default()).unwrap();
        assert!(outcome.false_alarm_rate <= 0.05, "FAR {}", outcome.false_alarm_rate);
        // It must catch at least the obvious sector/head failures.
        assert!(outcome.detection_rate > 0.1, "FDR {}", outcome.detection_rate);
    }

    #[test]
    fn mahalanobis_detector_needs_good_drives() {
        let ds =
            FleetSimulator::new(FleetConfig::test_scale().with_good_drives(0).with_seed(71)).run();
        assert!(mahalanobis_detector(&ds, &MahalanobisConfig::default()).is_err());
    }
}
