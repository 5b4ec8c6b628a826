//! Model-relative drift detection for the serving path.
//!
//! A deployed model is only as good as the match between the stream it
//! scores and the window it was trained on. [`DriftDetector`] watches the
//! raw ingest stream *before* shard fan-out and compares every record
//! against the serving model's training metadata on two channels:
//!
//! * **ordering drift** — a record whose hour regresses or repeats for
//!   its drive (the wire form of clock skew and replayed batches): the
//!   quality gate's `OutOfOrder` and `DuplicateHour` rule, with no
//!   exception for a wrapped hour counter. The training window's own
//!   disorder rate (the quality gate's quarantine fraction,
//!   [`DriftBaseline::expected_disorder`]) is subtracted as a baseline,
//!   so a model refit *on* a skewed stream stops flagging the same skew
//!   — promotion causally clears the drift signal.
//! * **range drift** — a value that normalizes outside the training
//!   scaler's `[-1, 1]` band by more than [`RANGE_MARGIN`]: the live
//!   distribution has left the bounds Eq. (1) was fitted on.
//!
//! Records are partitioned into `dds_drift_drifted_total` and
//! `dds_drift_clean_total` counters (always summing to
//! `dds_drift_records_total`), which the watchdog's
//! `SloRule::DriftBudget` turns into a windowed degraded/recovered
//! verdict. A running per-attribute mean-shift gauge
//! (`dds_drift_attr_shift_max`, in units of the training range) covers
//! slow distribution creep that never leaves the scaler band.
//!
//! All counters published through [`DriftDetector::publish`] are
//! monotonic: the drifted series is a high-watermark of the baseline
//! excess, and a baseline swap starts a fresh accounting window rather
//! than rewinding anything already published.

use crate::bundle::ModelBundle;
use dds_obs::metrics::Registry;
use dds_smartsim::smart::SENTINEL_VALUE;
use dds_smartsim::{DriveId, DriveMap, HealthRecord, NUM_ATTRIBUTES};
use dds_stats::MinMaxScaler;

/// How far outside the training normalization band `[-1, 1]` a value may
/// extrapolate before it counts as range drift. Live fleets legitimately
/// exceed the training min/max a little; a quarter of the range is far
/// beyond healthy spread but well inside what a shifted distribution
/// produces.
pub const RANGE_MARGIN: f64 = 0.25;

/// Live RMSE may exceed the artifact's training RMSE by this factor
/// before the refit registers an RMSE-drift breach
/// (`dds_drift_rmse_breaches_total`).
pub const RMSE_BUDGET_RATIO: f64 = 1.5;

/// The training-time metadata drift is measured against: the serving
/// model's normalization bounds, its population means, and the disorder
/// rate its own training window carried.
#[derive(Debug, Clone)]
pub struct DriftBaseline {
    scaler: MinMaxScaler,
    population_means: [f64; NUM_ATTRIBUTES],
    expected_disorder: f64,
    /// Mean per-group test RMSE the serving model recorded at training
    /// time — the yardstick of the RMSE drift channel. `None` when the
    /// bundle carries no groups (or all-zero placeholder RMSE).
    training_rmse: Option<f64>,
}

impl DriftBaseline {
    /// Builds the baseline from a deployable bundle plus the disorder
    /// fraction of the window the bundle was trained on (`0.0` for a
    /// clean-trained model; `RefitOutcome::expected_disorder()` for a
    /// streaming refit).
    pub fn from_bundle(bundle: &ModelBundle, expected_disorder: f64) -> Self {
        let groups = bundle.groups();
        let mean_rmse = if groups.is_empty() {
            0.0
        } else {
            groups.iter().map(|g| g.rmse).sum::<f64>() / groups.len() as f64
        };
        DriftBaseline {
            scaler: bundle.scaler().clone(),
            population_means: *bundle.population_means(),
            expected_disorder: expected_disorder.clamp(0.0, 1.0),
            training_rmse: (mean_rmse.is_finite() && mean_rmse > 0.0).then_some(mean_rmse),
        }
    }

    /// The disorder fraction already present in the model's training
    /// window — the part of live disorder that is *not* drift.
    pub fn expected_disorder(&self) -> f64 {
        self.expected_disorder
    }

    /// The serving model's mean training RMSE, when it recorded one.
    pub fn training_rmse(&self) -> Option<f64> {
        self.training_rmse
    }
}

/// Streaming drift detector: feed it every raw record the serving path
/// ingests (pre-sanitization — drift wants to see exactly what the
/// collector delivered), call [`DriftDetector::publish`] once per tick,
/// and [`DriftDetector::swap_baseline`] when a new model is promoted.
#[derive(Debug)]
pub struct DriftDetector {
    baseline: DriftBaseline,
    /// Last hour seen per drive, for the ordering channel.
    last_hour: DriveMap<u32>,
    /// Records observed since the last baseline swap.
    examined: u64,
    /// Records flagged on any channel since the last swap (union, each
    /// record counts once).
    drifted: u64,
    /// Channel breakdown for `/drift` (a record can appear in both).
    disordered: u64,
    out_of_range: u64,
    /// Running raw sums per attribute for the mean-shift gauge.
    sums: [f64; NUM_ATTRIBUTES],
    counts: [u64; NUM_ATTRIBUTES],
    /// Publication watermarks within the current baseline window.
    published_examined: u64,
    published_drifted: u64,
    published_clean: u64,
    /// Baseline swaps performed (0 = still on the boot model).
    swaps: u64,
    /// Latest `(live, training)` RMSE pair recorded by a refit against
    /// the *current* baseline; `None` until the first refit with a
    /// serving prior (and again right after a promotion).
    rmse: Option<(f64, f64)>,
    /// Refit RMSE samples that breached [`RMSE_BUDGET_RATIO`] — lifetime
    /// monotonic, like `swaps`.
    rmse_breaches: u64,
    published_rmse_breaches: u64,
}

impl DriftDetector {
    /// Creates a detector measuring against the given baseline.
    pub fn new(baseline: DriftBaseline) -> Self {
        DriftDetector {
            baseline,
            last_hour: DriveMap::default(),
            examined: 0,
            drifted: 0,
            disordered: 0,
            out_of_range: 0,
            sums: [0.0; NUM_ATTRIBUTES],
            counts: [0; NUM_ATTRIBUTES],
            published_examined: 0,
            published_drifted: 0,
            published_clean: 0,
            swaps: 0,
            rmse: None,
            rmse_breaches: 0,
            published_rmse_breaches: 0,
        }
    }

    /// Observes one raw record; returns `true` when it drifted on any
    /// channel.
    pub fn observe(&mut self, drive: DriveId, record: &HealthRecord) -> bool {
        self.examined += 1;

        let disordered = match self.last_hour.entry(drive) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                let last = *entry.get();
                if record.hour > last {
                    entry.insert(record.hour);
                    false
                } else {
                    true
                }
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(record.hour);
                false
            }
        };

        let mut out_of_range = false;
        for (c, &value) in record.values.iter().enumerate() {
            if !value.is_finite() || value == SENTINEL_VALUE {
                // Missing values (NaN, ±∞ and the vendor sentinel) are a
                // quality problem, not necessarily drift; the quality
                // gate owns them. Skip the channel.
                continue;
            }
            self.sums[c] += value;
            self.counts[c] += 1;
            let normalized = self.baseline.scaler.transform_value(c, value);
            if normalized.abs() > 1.0 + RANGE_MARGIN {
                out_of_range = true;
            }
        }

        if disordered {
            self.disordered += 1;
        }
        if out_of_range {
            self.out_of_range += 1;
        }
        let drifted = disordered || out_of_range;
        if drifted {
            self.drifted += 1;
        }
        drifted
    }

    /// Observes a whole batch; returns how many records drifted.
    pub fn observe_batch(&mut self, batch: &[(DriveId, HealthRecord)]) -> u64 {
        batch.iter().filter(|(drive, record)| self.observe(*drive, record)).count() as u64
    }

    /// Drifted records in excess of the baseline's expected disorder —
    /// the quantity the drift budget meters. A stream exactly as
    /// disordered as the training window scores zero.
    pub fn excess_drifted(&self) -> u64 {
        let expected = (self.baseline.expected_disorder * self.examined as f64).ceil() as u64;
        self.drifted.saturating_sub(expected)
    }

    /// Fraction of the current window's records drifted beyond baseline
    /// (`0.0` on an empty window).
    pub fn drift_score(&self) -> f64 {
        if self.examined == 0 {
            0.0
        } else {
            self.excess_drifted() as f64 / self.examined as f64
        }
    }

    /// Largest per-attribute shift of the live running mean from the
    /// training population mean, in units of the training range.
    pub fn attr_shift_max(&self) -> f64 {
        let mut max_shift: f64 = 0.0;
        for c in 0..NUM_ATTRIBUTES {
            if self.counts[c] == 0 {
                continue;
            }
            let span = self.baseline.scaler.maxs()[c] - self.baseline.scaler.mins()[c];
            if span <= 0.0 {
                continue;
            }
            let live_mean = self.sums[c] / self.counts[c] as f64;
            let shift = (live_mean - self.baseline.population_means[c]).abs() / span;
            max_shift = max_shift.max(shift);
        }
        max_shift
    }

    /// Records the RMSE drift sample a refit produced: the serving
    /// trees' RMSE scored live on the refit window (`live`) next to the
    /// RMSE they recorded at training time (`training`). Samples where
    /// `live > training ×` [`RMSE_BUDGET_RATIO`] count as breaches in
    /// `dds_drift_rmse_breaches_total`. Non-finite samples are dropped.
    pub fn record_rmse(&mut self, live: f64, training: f64) {
        if !live.is_finite() || !training.is_finite() || training <= 0.0 {
            return;
        }
        self.rmse = Some((live, training));
        if live > training * RMSE_BUDGET_RATIO {
            self.rmse_breaches += 1;
        }
    }

    /// The latest `(live, training)` RMSE pair, if a refit recorded one
    /// against the current baseline.
    pub fn rmse_sample(&self) -> Option<(f64, f64)> {
        self.rmse
    }

    /// Live-over-training RMSE ratio (`1.0` = serving exactly as well as
    /// at training time; above [`RMSE_BUDGET_RATIO`] = breach).
    pub fn rmse_ratio(&self) -> Option<f64> {
        self.rmse.map(|(live, training)| live / training)
    }

    /// RMSE budget breaches recorded so far (lifetime monotonic).
    pub fn rmse_breaches(&self) -> u64 {
        self.rmse_breaches
    }

    /// Records observed since the last baseline swap.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Baseline swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Resets the per-drive hour watermarks between replay epochs whose
    /// hour counters restart at zero — mirrors
    /// [`FleetMonitor::new_ingest_session`](crate::FleetMonitor::new_ingest_session),
    /// and must be called at the same epoch boundaries, or the first
    /// record of every drive's new epoch would read as ordering drift.
    pub fn new_session(&mut self) {
        self.last_hour.clear();
    }

    /// Swaps in a newly promoted model's baseline and opens a fresh
    /// accounting window: tallies, mean-shift state and publication
    /// watermarks reset, while everything already published to the
    /// registry counters stays (counters never rewind). The per-drive
    /// hour watermarks survive — the stream's continuity does not change
    /// because the model did.
    pub fn swap_baseline(&mut self, baseline: DriftBaseline) {
        self.baseline = baseline;
        self.examined = 0;
        self.drifted = 0;
        self.disordered = 0;
        self.out_of_range = 0;
        self.sums = [0.0; NUM_ATTRIBUTES];
        self.counts = [0; NUM_ATTRIBUTES];
        self.published_examined = 0;
        self.published_drifted = 0;
        self.published_clean = 0;
        // The RMSE pair described the *previous* serving model; the
        // breach tally is lifetime-monotonic and survives, like `swaps`.
        self.rmse = None;
        self.swaps += 1;
    }

    /// Publishes the detector's state into a metrics registry:
    /// `dds_drift_records_total`, `dds_drift_drifted_total` and
    /// `dds_drift_clean_total` counters (drifted + clean = records, all
    /// three monotonic) plus `dds_drift_score`,
    /// `dds_drift_attr_shift_max` and `dds_drift_expected_disorder`
    /// gauges. Call once per serve tick with the global registry, or
    /// with a local one in tests.
    pub fn publish(&mut self, registry: &Registry) {
        // Monotonic drifted series: high-watermark of the baseline
        // excess. Clean gets the rest, so the two always sum to records.
        // Every delta below is provably non-negative (watermarks only
        // move forward within a window, and a swap resets them all
        // together); the subtractions saturate anyway so an accounting
        // bug can never wrap a u64 and explode the published counters.
        let drifted_target = self.published_drifted.max(self.excess_drifted());
        let clean_target = self.examined.saturating_sub(drifted_target);

        registry
            .counter("dds_drift_records_total")
            .add(self.examined.saturating_sub(self.published_examined));
        registry
            .counter("dds_drift_drifted_total")
            .add(drifted_target.saturating_sub(self.published_drifted));
        registry
            .counter("dds_drift_clean_total")
            .add(clean_target.saturating_sub(self.published_clean));
        self.published_examined = self.examined;
        self.published_drifted = drifted_target;
        self.published_clean = clean_target.max(self.published_clean);

        registry.gauge("dds_drift_score").set(self.drift_score());
        registry.gauge("dds_drift_attr_shift_max").set(self.attr_shift_max());
        registry.gauge("dds_drift_expected_disorder").set(self.baseline.expected_disorder);

        // RMSE channel: gauges reflect the latest refit sample (0 until
        // one exists), the breach counter is published by watermark like
        // every other monotonic series here.
        let (live, training) = self.rmse.unwrap_or((0.0, 0.0));
        registry.gauge("dds_drift_rmse_live").set(live);
        registry.gauge("dds_drift_rmse_training").set(training);
        registry.gauge("dds_drift_rmse_ratio").set(self.rmse_ratio().unwrap_or(0.0));
        registry
            .counter("dds_drift_rmse_breaches_total")
            .add(self.rmse_breaches.saturating_sub(self.published_rmse_breaches));
        self.published_rmse_breaches = self.rmse_breaches;
    }

    /// Serializes the detector's state as one JSON object — the `/drift`
    /// endpoint's body.
    pub fn to_json(&self) -> String {
        let (rmse_live, rmse_training) = self.rmse.unwrap_or((0.0, 0.0));
        format!(
            "{{\"examined\": {}, \"drifted\": {}, \"excess_drifted\": {}, \
             \"disordered\": {}, \"out_of_range\": {}, \"expected_disorder\": {}, \
             \"drift_score\": {}, \"attr_shift_max\": {}, \"baseline_swaps\": {}, \
             \"rmse_live\": {}, \"rmse_training\": {}, \"rmse_ratio\": {}, \
             \"rmse_breaches\": {}}}",
            self.examined,
            self.drifted,
            self.excess_drifted(),
            self.disordered,
            self.out_of_range,
            dds_obs::json::number(self.baseline.expected_disorder),
            dds_obs::json::number(self.drift_score()),
            dds_obs::json::number(self.attr_shift_max()),
            self.swaps,
            dds_obs::json::number(rmse_live),
            dds_obs::json::number(rmse_training),
            dds_obs::json::number(self.rmse_ratio().unwrap_or(0.0)),
            self.rmse_breaches,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetMonitor, MonitorConfig};
    use dds_core::{Analysis, AnalysisConfig, CategorizationConfig, DataQualityError};
    use dds_smartsim::stream::hour_ordered;
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn bundle(seed: u64) -> ModelBundle {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run();
        let config = AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        };
        let report = Analysis::new(config).run(&dataset).unwrap();
        ModelBundle::from_analysis(&dataset, &report)
    }

    #[test]
    fn clean_stream_from_the_training_fleet_reads_as_clean() {
        let bundle = bundle(4_001);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_001)).run();
        let mut detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        let records = hour_ordered(&live);
        let drifted = detector.observe_batch(&records);
        assert_eq!(drifted, 0, "the training fleet itself cannot drift from its own model");
        assert_eq!(detector.examined(), records.len() as u64);
        assert_eq!(detector.drift_score(), 0.0);
        assert!(detector.attr_shift_max() < 0.25, "live means sit near training means");
    }

    #[test]
    fn vendor_sentinels_are_missing_values_not_drift() {
        let bundle = bundle(4_001);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_001)).run();
        let clean = hour_ordered(&live);
        let mut clean_detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        assert_eq!(clean_detector.observe_batch(&clean), 0);
        // The same stream with one attribute of every 20th record replaced
        // by the sentinel (as the chaos `sentinel` operator does), and
        // with NaN in the same slots.
        let with = |missing: f64| {
            let mut records = clean.clone();
            for (i, (_, record)) in records.iter_mut().enumerate() {
                if i % 20 == 3 {
                    record.values[i % NUM_ATTRIBUTES] = missing;
                }
            }
            records
        };
        let mut sentinel = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        let mut nan = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        assert_eq!(sentinel.observe_batch(&with(SENTINEL_VALUE)), 0, "sentinels are not drift");
        assert_eq!(nan.observe_batch(&with(f64::NAN)), 0);
        assert_eq!(sentinel.drift_score(), 0.0);
        // The mean-shift sums skip the sentinel exactly like NaN, so the
        // shift stays at the clean stream's level.
        assert_eq!(sentinel.attr_shift_max(), nan.attr_shift_max());
        let clean_shift = clean_detector.attr_shift_max();
        assert!(
            (sentinel.attr_shift_max() - clean_shift).abs() < 0.01,
            "shift {} against {clean_shift} clean",
            sentinel.attr_shift_max()
        );
    }

    #[test]
    fn hour_skew_reads_as_ordering_drift_and_the_baseline_absorbs_it() {
        let bundle = bundle(4_002);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_003)).run();
        let mut records = hour_ordered(&live);
        // Skew ~2% of records back in time, like the chaos `skew` spec.
        let mut skewed = 0u64;
        for (i, (_, record)) in records.iter_mut().enumerate() {
            if i % 50 == 7 {
                record.hour = record.hour.saturating_sub(3);
                skewed += 1;
            }
        }

        let mut naive = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        naive.observe_batch(&records);
        assert!(naive.excess_drifted() > 0, "skew must register as drift");
        assert!(
            naive.excess_drifted() <= 2 * skewed,
            "each skewed record disturbs at most itself and one successor"
        );

        // A baseline that already expects this much disorder (a model
        // refit on the skewed stream) absorbs it entirely.
        let expected = 2.0 * skewed as f64 / records.len() as f64;
        let mut refit = DriftDetector::new(DriftBaseline::from_bundle(&bundle, expected));
        refit.observe_batch(&records);
        assert_eq!(refit.excess_drifted(), 0, "expected disorder is not drift");
        assert_eq!(refit.drift_score(), 0.0);
    }

    #[test]
    fn out_of_range_values_read_as_range_drift() {
        let bundle = bundle(4_004);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_004)).run();
        let mut detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        let mut records = hour_ordered(&live);
        for (i, (_, record)) in records.iter_mut().enumerate() {
            if i % 10 == 0 {
                // Push one attribute far past the training maximum.
                record.values[0] = bundle.scaler().maxs()[0] * 4.0 + 1_000.0;
            }
        }
        detector.observe_batch(&records);
        assert!(detector.excess_drifted() >= (records.len() / 10) as u64);
        assert!(detector.drift_score() > 0.05);
    }

    #[test]
    fn publish_is_monotonic_and_partitions_records() {
        let bundle = bundle(4_005);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_006)).run();
        let mut detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        let registry = Registry::new();
        let records = hour_ordered(&live);

        let mut last = (0u64, 0u64, 0u64);
        for chunk in records.chunks(records.len() / 4 + 1) {
            detector.observe_batch(chunk);
            detector.publish(&registry);
            let snap = registry.snapshot();
            let now = (
                snap.counter_value("dds_drift_records_total").unwrap(),
                snap.counter_value("dds_drift_drifted_total").unwrap(),
                snap.counter_value("dds_drift_clean_total").unwrap(),
            );
            assert!(now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2, "monotonic");
            assert_eq!(now.1 + now.2, now.0, "drifted + clean = records");
            last = now;
        }
        assert_eq!(last.0, records.len() as u64);
    }

    #[test]
    fn swap_baseline_opens_a_fresh_window_without_rewinding_counters() {
        let bundle = bundle(4_007);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_008)).run();
        let mut detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        let registry = Registry::new();

        let mut records = hour_ordered(&live);
        for (i, (_, record)) in records.iter_mut().enumerate() {
            if i % 20 == 3 {
                record.hour = record.hour.saturating_sub(2);
            }
        }
        detector.observe_batch(&records);
        detector.publish(&registry);
        let before = registry.snapshot();
        let drifted_before = before.counter_value("dds_drift_drifted_total").unwrap();
        assert!(drifted_before > 0);
        assert!(detector.drift_score() > 0.0);

        // Promote a model whose training window carried the same skew.
        detector.swap_baseline(DriftBaseline::from_bundle(&bundle, 0.12));
        assert_eq!(detector.swaps(), 1);
        assert_eq!(detector.drift_score(), 0.0, "the new window starts clean");

        detector.new_session();
        detector.observe_batch(&records);
        detector.publish(&registry);
        let after = registry.snapshot();
        assert_eq!(
            after.counter_value("dds_drift_drifted_total").unwrap(),
            drifted_before,
            "the refit baseline absorbs the skew — no new drifted records"
        );
        assert!(
            after.counter_value("dds_drift_clean_total").unwrap()
                > before.counter_value("dds_drift_clean_total").unwrap(),
            "the same stream now publishes as clean"
        );
        assert_eq!(
            after.counter_value("dds_drift_records_total").unwrap(),
            2 * records.len() as u64
        );
    }

    #[test]
    fn ordering_drift_matches_the_quality_gate_verdict() {
        let bundle = bundle(4_010);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_010)).run();
        let mut detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        // The serving monitor's gate, which the serve loop resets beside
        // the detector at every epoch.
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        fn admit(
            monitor: &mut FleetMonitor,
            drive: DriveId,
            record: &HealthRecord,
        ) -> Result<HealthRecord, DataQualityError> {
            monitor.sanitize_slot(drive, record).map(|(_, clean)| clean.into_owned())
        }
        let (drive, record) = hour_ordered(&live).remove(0);
        let at = |hour: u32| HealthRecord { hour, ..record.clone() };

        // Run the drive's hour counter up to the top of the u32 range,
        // then wrap: the wrapped hour and every later one are ordering
        // drift exactly when the gate quarantines them as out of order.
        let late = at(u32::MAX - 2);
        assert!(!detector.observe(drive, &late));
        assert_eq!(admit(&mut monitor, drive, &late), Ok(late.clone()));
        for record in [at(1), at(2)] {
            assert!(detector.observe(drive, &record), "a backward jump is drift");
            let out_of_order =
                DataQualityError::OutOfOrder { drive, last_hour: late.hour, hour: record.hour };
            assert_eq!(admit(&mut monitor, drive, &record), Err(out_of_order));
        }
        assert_eq!(detector.excess_drifted(), 2);

        // A new session forgets the watermark on both sides alike.
        detector.new_session();
        monitor.new_ingest_session();
        let next = at(2);
        assert!(!detector.observe(drive, &next), "a new session forgets");
        assert_eq!(admit(&mut monitor, drive, &next), Ok(next.clone()), "a new session forgets");
    }

    #[test]
    fn rmse_channel_tracks_breaches_and_publishes_monotonically() {
        let bundle = bundle(4_011);
        let mut detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
        let registry = Registry::new();
        assert!(detector.rmse_sample().is_none());

        // Within budget: recorded, no breach.
        detector.record_rmse(0.10, 0.09);
        assert_eq!(detector.rmse_breaches(), 0);
        assert!(detector.rmse_ratio().unwrap() > 1.0);
        detector.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dds_drift_rmse_breaches_total").unwrap(), 0);

        // Past budget: one breach, published exactly once.
        detector.record_rmse(0.09 * RMSE_BUDGET_RATIO * 1.1, 0.09);
        assert_eq!(detector.rmse_breaches(), 1);
        detector.publish(&registry);
        detector.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dds_drift_rmse_breaches_total").unwrap(), 1);

        // Non-finite and zero-training samples are dropped.
        detector.record_rmse(f64::NAN, 0.09);
        detector.record_rmse(0.5, 0.0);
        assert_eq!(detector.rmse_breaches(), 1);

        // Promotion clears the sample but not the lifetime breach tally.
        detector.swap_baseline(DriftBaseline::from_bundle(&bundle, 0.0));
        assert!(detector.rmse_sample().is_none());
        assert_eq!(detector.rmse_breaches(), 1);
        detector.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dds_drift_rmse_breaches_total").unwrap(), 1);
    }

    #[test]
    fn baseline_carries_training_rmse_from_the_bundle() {
        let bundle = bundle(4_012);
        let baseline = DriftBaseline::from_bundle(&bundle, 0.0);
        let expected =
            bundle.groups().iter().map(|g| g.rmse).sum::<f64>() / bundle.groups().len() as f64;
        assert_eq!(baseline.training_rmse().unwrap().to_bits(), expected.to_bits());
    }

    #[test]
    fn json_shape_is_stable() {
        let bundle = bundle(4_009);
        let detector = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.25));
        let json = detector.to_json();
        for key in [
            "\"examined\"",
            "\"drifted\"",
            "\"excess_drifted\"",
            "\"disordered\"",
            "\"out_of_range\"",
            "\"expected_disorder\"",
            "\"drift_score\"",
            "\"attr_shift_max\"",
            "\"baseline_swaps\"",
            "\"rmse_live\"",
            "\"rmse_training\"",
            "\"rmse_ratio\"",
            "\"rmse_breaches\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
