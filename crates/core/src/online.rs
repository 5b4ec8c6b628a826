//! Online learning: sliding-window accumulation of a live record stream
//! and a deterministic refit that is bit-identical to cold training.
//!
//! The paper fits its degradation signatures once over a static fleet,
//! but §IV-D's environmental findings imply the signatures drift as the
//! fleet ages. [`OnlineTrainer`] closes that gap for serving mode: it
//! rides the ingest path (observing every record *before* the shard
//! fan-out, so shard count can never change what it sees), accumulates
//! the most recent complete epoch as its refit window, and rebuilds the
//! full [`Analysis::train`] artifact from it on demand.
//!
//! Two disciplines make the refit safe to hot-swap into a serving
//! monitor:
//!
//! 1. **Bit-identity.** The window keeps one raw profile per manifest
//!    drive, in manifest order, with the manifest's labels and racks, and
//!    every refit passes it through the quality gate
//!    ([`sanitize_profiles`]). The gate admits a clean window's records
//!    unchanged, so [`OnlineTrainer::refit`] then produces an artifact
//!    byte-identical to a cold `Analysis::train` on the same window — the
//!    online analogue of the warm-vs-cold model proof. The property is
//!    pinned by `tests/online_learning.rs` across seeds and shard
//!    interleavings.
//! 2. **Recompute at refit time.** Observing only buffers each record
//!    under its drive; scaler bounds, K-means centroids, per-group
//!    signatures and z-score baselines are recomputed over the window at
//!    refit time, where the cache-blocked columnar kernels already run in
//!    well under an epoch.
//!
//! On a corrupted window (out-of-order hours, duplicates, missing values —
//! anything a chaos stream produces) the same gate quarantines and
//! imputes, and its [`QualityStats`] tell the caller how disordered the
//! window was, which the drift detector uses as the refit candidate's
//! expected-disorder baseline.

use crate::error::AnalysisError;
use crate::model::{TrainedModel, TrainingContext};
use crate::pipeline::{Analysis, AnalysisConfig, AnalysisReport};
use crate::quality::{sanitize_profiles, QualityPolicy, QualityStats};
use dds_smartsim::{Dataset, DriveId, DriveMap, HealthRecord, RawProfile};

/// Which refit math produced a [`RefitOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitPath {
    /// Full epoch replay through the batch trainer (no prior model, or
    /// the caller asked for it explicitly).
    Replay,
    /// Warm-started incremental fit: K-means refined from the prior
    /// model's centroids, trees fit on thinned good train rows.
    Incremental,
    /// The incremental attempt errored and the refit fell back to the
    /// cold fit, with the prior scored for the live RMSE only (counted in
    /// `dds_refit_fallback_total`).
    Fallback,
}

/// The result of one [`OnlineTrainer::refit`]: the full analysis report,
/// the deployable artifact, and the window's quality verdict.
#[derive(Debug, Clone)]
pub struct RefitOutcome {
    /// Every figure/table of the paper, recomputed over the window.
    pub report: AnalysisReport,
    /// The deployable artifact (codec-identical to a cold
    /// [`Analysis::train`] on the same window).
    pub model: TrainedModel,
    /// The quality gate's tallies over the window's records. On a clean
    /// window it admitted every record unchanged.
    pub quality: QualityStats,
    /// Which refit math produced this outcome.
    pub path: RefitPath,
    /// Mean RMSE of the *prior* (serving) model's trees scored on this
    /// window's held-out rows — the live half of the RMSE drift
    /// comparison. `None` when no prior was supplied or no prior group
    /// matched the window's groups.
    pub live_rmse: Option<f64>,
    /// Mean training RMSE recorded in the prior model's artifact, the
    /// baseline the live value is compared against. `None` without a
    /// prior.
    pub prior_training_rmse: Option<f64>,
    /// Records offered for drives outside the epoch manifest (mid-epoch
    /// fleet joins, stale collector echo) — excluded from the window but
    /// counted as expected disorder.
    pub ignored: u64,
}

impl RefitOutcome {
    /// Fraction of offered window records that did not make it into the
    /// refit: quality-gate quarantines plus records for drives outside
    /// the epoch manifest. This is the candidate model's *expected*
    /// disorder rate, which the drift detector adopts as its baseline
    /// after a promotion — counting the ignored records keeps the
    /// baseline honest on mid-epoch fleet joins.
    pub fn expected_disorder(&self) -> f64 {
        let offered = self.quality.ingested + self.ignored;
        if offered == 0 {
            return 0.0;
        }
        (self.quality.quarantined + self.ignored) as f64 / offered as f64
    }
}

/// Sliding-window online trainer over a live `(drive, record)` stream.
///
/// Feed it from the ingest path: [`begin_epoch`](OnlineTrainer::begin_epoch)
/// when a new epoch's manifest is known, [`observe`](OnlineTrainer::observe)
/// (or [`observe_batch`](OnlineTrainer::observe_batch)) for every record
/// offered to the monitor, and [`refit`](OnlineTrainer::refit) whenever a
/// fresh candidate model is wanted. Records are keyed per drive, so any
/// interleaving of the same record set — one shard or sixteen — refits to
/// the same artifact.
#[derive(Debug)]
pub struct OnlineTrainer {
    config: AnalysisConfig,
    /// The refit window: one raw profile per manifest drive, in manifest
    /// order (the order cold training sees them in).
    window: Vec<RawProfile>,
    /// Each manifest drive's position in `window`.
    index: DriveMap<u32>,
    observed: u64,
    /// Records offered for drives outside the epoch manifest this window.
    ignored: u64,
    refits: u64,
}

impl OnlineTrainer {
    /// Creates a trainer that refits with the given analysis
    /// configuration (use the same configuration the serving model was
    /// trained with, or the equivalence guarantee is about a different
    /// pipeline than the one serving).
    pub fn new(config: AnalysisConfig) -> Self {
        OnlineTrainer {
            config,
            window: Vec::new(),
            index: DriveMap::default(),
            observed: 0,
            ignored: 0,
            refits: 0,
        }
    }

    /// Starts a new refit window from an epoch manifest: captures the
    /// epoch's drive order, labels and rack topology, and discards the
    /// previous window's records. The manifest comes from the *clean*
    /// epoch dataset — labels and racks are fleet metadata, not wire
    /// payload, so a corrupted stream cannot forge them.
    pub fn begin_epoch(&mut self, manifest: &Dataset) {
        self.window.clear();
        self.index.clear();
        for drive in manifest.drives() {
            let position = u32::try_from(self.window.len()).expect("fewer than 2^32 drives");
            self.index.insert(drive.id(), position);
            self.window.push(RawProfile {
                id: drive.id(),
                label: drive.label(),
                rack: drive.rack(),
                records: Vec::with_capacity(drive.records().len()),
            });
        }
        self.observed = 0;
        self.ignored = 0;
    }

    /// Observes one record offered to the monitor. Records for drives
    /// outside the current epoch manifest are excluded from the window (a
    /// collector echoing stale traffic must not poison the refit) but
    /// *counted* — in `dds_refit_ignored_total` and in the window's
    /// [`RefitOutcome::expected_disorder`] — so mid-epoch fleet joins
    /// don't silently understate the drift baseline.
    pub fn observe(&mut self, drive: DriveId, record: &HealthRecord) {
        let Some(&position) = self.index.get(&drive) else {
            self.ignored += 1;
            dds_obs::metrics::global().counter("dds_refit_ignored_total").inc();
            return;
        };
        self.window[position as usize].records.push(record.clone());
        self.observed += 1;
    }

    /// Observes a whole `(drive, record)` batch — the shape the sharded
    /// ingest path hands around.
    pub fn observe_batch(&mut self, batch: &[(DriveId, HealthRecord)]) {
        for (drive, record) in batch {
            self.observe(*drive, record);
        }
    }

    /// Number of records observed in the current window.
    pub fn window_records(&self) -> u64 {
        self.observed
    }

    /// Number of completed refits.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Refits the full model over the current window.
    ///
    /// The window always passes the quality gate ([`sanitize_profiles`]
    /// under the default [`QualityPolicy`], the policy the artifact
    /// records) and the outcome reports its [`QualityStats`]. A clean
    /// window passes unchanged as the exact epoch dataset (manifest
    /// order, labels, racks), so the returned artifact is byte-identical
    /// (up to the `created_unix` wall-clock stamp) to `Analysis::train` on
    /// that window.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors; an empty window, or one where no
    /// drive survives the gate, reports
    /// [`AnalysisError::UnsuitableDataset`].
    pub fn refit(&mut self, ctx: &TrainingContext) -> Result<RefitOutcome, AnalysisError> {
        self.refit_with(ctx, None)
    }

    /// Refits with an optional prior (serving) model. With a prior, the
    /// warm-started incremental fit is attempted first — K-means refined
    /// from the prior centroids instead of the full elbow sweep, trees fit
    /// on thinned good train rows — and any incremental error falls back
    /// to the cold fit of the replay path (counted in
    /// `dds_refit_fallback_total`), so a caller that could refit before
    /// can always still refit. The prior also unlocks the RMSE drift
    /// channel: on either path its trees are scored on the window's
    /// held-out rows, and the outcome carries that live RMSE next to the
    /// prior's recorded training RMSE.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors from the (possibly fallback) replay
    /// path; an empty window, or one where no drive survives the gate,
    /// reports [`AnalysisError::UnsuitableDataset`].
    pub fn refit_with(
        &mut self,
        ctx: &TrainingContext,
        prior: Option<&TrainedModel>,
    ) -> Result<RefitOutcome, AnalysisError> {
        let _span =
            dds_obs::span!(dds_obs::Level::Info, "online.refit", records = self.observed as usize);
        if self.observed == 0 {
            return Err(AnalysisError::UnsuitableDataset(
                "online refit window is empty".to_string(),
            ));
        }
        let (dataset, quality) = sanitize_profiles(&self.window, QualityPolicy::default())?;
        let analysis = Analysis::new(self.config.clone());
        let (report, model, live_rmse, path) = match prior {
            Some(_) => match analysis.train_from(&dataset, ctx, prior, true) {
                Ok((report, model, live_rmse)) => {
                    dds_obs::metrics::global().counter("dds_refit_incremental_total").inc();
                    (report, model, live_rmse, RefitPath::Incremental)
                }
                Err(_) => {
                    dds_obs::metrics::global().counter("dds_refit_fallback_total").inc();
                    let (report, model, live_rmse) =
                        analysis.train_from(&dataset, ctx, prior, false)?;
                    (report, model, live_rmse, RefitPath::Fallback)
                }
            },
            None => {
                let (report, model) = analysis.train(&dataset, ctx)?;
                (report, model, None, RefitPath::Replay)
            }
        };
        let prior_training_rmse = prior
            .filter(|p| !p.groups.is_empty())
            .map(|p| p.groups.iter().map(|g| g.rmse).sum::<f64>() / p.groups.len() as f64);
        self.refits += 1;
        dds_obs::metrics::global().counter("dds_online_refits_total").inc();
        Ok(RefitOutcome {
            report,
            model,
            quality,
            path,
            live_rmse,
            prior_training_rmse,
            ignored: self.ignored,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::CategorizationConfig;
    use dds_smartsim::stream::hour_ordered;
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        }
    }

    fn ctx(seed: u64) -> TrainingContext {
        TrainingContext { seed, scale: "test".to_string(), git_sha: String::new() }
    }

    #[test]
    fn window_accounting_and_unknown_drives() {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(31)).run();
        let mut trainer = OnlineTrainer::new(config());
        trainer.begin_epoch(&dataset);
        let records = hour_ordered(&dataset);
        trainer.observe_batch(&records);
        assert_eq!(trainer.window_records(), records.len() as u64);
        // A drive outside the manifest is ignored, not accumulated.
        trainer.observe(DriveId(u32::MAX), &records[0].1);
        assert_eq!(trainer.window_records(), records.len() as u64);
        // A new epoch resets the window.
        trainer.begin_epoch(&dataset);
        assert_eq!(trainer.window_records(), 0);
    }

    #[test]
    fn empty_window_refit_is_a_clean_error() {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(31)).run();
        let mut trainer = OnlineTrainer::new(config());
        trainer.begin_epoch(&dataset);
        let err = trainer.refit(&ctx(31)).unwrap_err();
        assert!(matches!(err, AnalysisError::UnsuitableDataset(_)));
    }

    #[test]
    fn disordered_window_refits_through_the_quality_gate() {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(33)).run();
        let mut trainer = OnlineTrainer::new(config());
        trainer.begin_epoch(&dataset);
        let mut records = hour_ordered(&dataset);
        // Skew a handful of hours backwards: per-drive order breaks and
        // the gate quarantines the skewed records.
        for (i, (_, record)) in records.iter_mut().enumerate() {
            if i % 97 == 5 {
                record.hour = record.hour.saturating_sub(3);
            }
        }
        trainer.observe_batch(&records);
        let outcome = trainer.refit(&ctx(33)).unwrap();
        assert!(outcome.quality.quarantined > 0, "skewed hours must quarantine");
        assert!(outcome.expected_disorder() > 0.0);
        assert!(outcome.expected_disorder() < 0.05, "only a handful of records were skewed");
        assert_eq!(outcome.model.groups.len(), outcome.report.prediction.groups.len());
        assert_eq!(trainer.refits(), 1);
    }
}
