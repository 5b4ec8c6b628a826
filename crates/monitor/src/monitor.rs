//! The streaming fleet monitor.
//!
//! [`FleetMonitor`] runs each record through two stages, the quality
//! gate and scoring; [`FleetMonitor::try_ingest`] is their composition.
//! Shard workers run the gate over a batch, then score the admitted
//! records with the serving monitor and, while a refit candidate soaks,
//! with the candidate's monitor ([`FleetMonitor::ingest_sanitized`]).
//! The monitor keeps one slot per drive, holding both the drive's gate
//! and its escalation state, so a shard finds a record's drive with one
//! hash lookup: the gate stage returns the slot and the scoring stage
//! reuses it. The monitor keeps its latched-drive counts in step with
//! every latch, so [`FleetMonitor::health_status`] costs O(1) however
//! many drives it tracks.

use crate::alert::{Alert, AlertKind, Severity};
use crate::bundle::{ModelBundle, BASELINE_ATTRIBUTES};
use dds_core::predict::ThresholdPolicy;
use dds_core::quality::{DataQualityError, DriveGate, QualityPolicy, QualityStats};
use dds_smartsim::{DriveId, DriveMap, HealthRecord};
use dds_stats::streaming::RunningMoments;
use std::borrow::Cow;

/// Configuration of the escalation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Predicted degradation below this raises a watch.
    pub watch_level: f64,
    /// Predicted degradation below this raises a warning.
    pub warning_level: f64,
    /// Predicted degradation below this raises a critical alert.
    pub critical_level: f64,
    /// Consecutive breaching hours required before a level latches.
    pub debounce_hours: usize,
    /// Hours of history used to learn each drive's vendor baselines for
    /// the rate attributes (unit-to-unit spread correction); 0 disables
    /// the correction.
    pub baseline_hours: usize,
    /// Thermal-risk threshold: a watch alert fires when a drive's mean `TC`
    /// health over the baseline window sits this many good-population
    /// standard deviations below the mean (§V-A's hot logical-failure
    /// cohort). 0 disables the check.
    pub thermal_sigma: f64,
    /// Vendor threshold policy checked alongside the predictor (emits
    /// critical alerts directly).
    pub thresholds: ThresholdPolicy,
    /// Data-quality gate limits applied to every record before scoring:
    /// ordering faults quarantine, missing values (NaN/sentinel) are
    /// LOCF-imputed up to the policy's caps.
    pub quality: QualityPolicy,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            watch_level: 0.5,
            warning_level: 0.0,
            critical_level: -0.5,
            debounce_hours: 2,
            baseline_hours: 24,
            thermal_sigma: 3.0,
            thresholds: ThresholdPolicy::vendor_conservative(),
            quality: QualityPolicy::default(),
        }
    }
}

impl MonitorConfig {
    /// The severity for a predicted degradation value, if any level is
    /// breached.
    fn severity_for(&self, degradation: f64) -> Option<Severity> {
        if degradation < self.critical_level {
            Some(Severity::Critical)
        } else if degradation < self.warning_level {
            Some(Severity::Warning)
        } else if degradation < self.watch_level {
            Some(Severity::Watch)
        } else {
            None
        }
    }
}

/// Per-drive escalation state.
#[derive(Debug, Clone, Default)]
struct DriveState {
    /// Consecutive hours at (at least) each candidate severity.
    run_len: usize,
    /// The severity of the current breach run.
    run_severity: Option<Severity>,
    /// Highest severity already alerted (one-way hysteresis).
    latched: Option<Severity>,
    /// Whether a vendor-threshold alert was already emitted.
    threshold_alerted: bool,
    /// Failure types already announced through prediction or
    /// reclassification alerts (at most one alert per type per drive).
    announced_types: Vec<dds_core::FailureType>,
    /// Whether a thermal-risk alert was already emitted.
    thermal_alerted: bool,
    /// Per-attribute baseline accumulators for the rate attributes
    /// (aligned with [`BASELINE_ATTRIBUTES`]).
    baselines: [RunningMoments; 4],
    /// Running `TC` statistics for the thermal-risk check.
    tc_moments: RunningMoments,
}

/// Everything a monitor keeps for one drive. `state` stays `None` until
/// the drive's first scored record, so a drive whose every record was
/// quarantined is not tracked.
#[derive(Debug, Clone, Default)]
struct DriveSlot {
    gate: DriveGate,
    state: Option<DriveState>,
}

/// A streaming monitor over a fleet of drives.
///
/// Feed hourly records in any drive interleaving; state is kept per drive.
/// Alerts only escalate (watch → warning → critical per drive); recoveries
/// reset the debounce run but never un-latch an emitted severity, so a
/// flapping drive cannot spam the operator.
///
/// The monitor writes no process-global metrics: serving publishes them
/// from the shard coordinator
/// ([`ShardedFleetMonitor`](crate::ShardedFleetMonitor)), so a shadow
/// candidate or a test monitor never counts into the serving totals.
#[derive(Debug, Clone)]
pub struct FleetMonitor {
    bundle: ModelBundle,
    config: MonitorConfig,
    /// Each drive's index into `slots`.
    index: DriveMap<u32>,
    /// One slot per drive, in first-seen order.
    slots: Vec<DriveSlot>,
    /// Slots holding escalation state.
    tracked: usize,
    /// Cumulative quality-gate tallies.
    stats: QualityStats,
    /// Regression-tree predictions made so far: one per group model for
    /// every scored record.
    predictions: u64,
    alerts_emitted: u64,
    /// Drives latched at (watch, warning, critical), kept in step with
    /// every `DriveState::latched` change. Drives are never removed, so
    /// the counts stay exact and [`health_status`] needs no drive scan.
    ///
    /// [`health_status`]: FleetMonitor::health_status
    latched: [usize; 3],
}

/// A point-in-time summary of the monitor's serving state, derived from
/// its own per-drive escalation map and alert count (not from global
/// metrics, so concurrent monitors in one process do not bleed into each
/// other's summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthStatus {
    /// Number of drives with monitoring state.
    pub drives_tracked: usize,
    /// Drives currently latched at each severity (watch, warning,
    /// critical).
    pub latched: [usize; 3],
    /// Lifetime alerts this monitor emitted.
    pub alerts_emitted: u64,
}

impl HealthStatus {
    /// Serializes the summary as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"drives_tracked\": {}, \"latched_watch\": {}, \"latched_warning\": {}, \
             \"latched_critical\": {}, \"alerts_emitted\": {}}}",
            self.drives_tracked,
            self.latched[0],
            self.latched[1],
            self.latched[2],
            self.alerts_emitted,
        )
    }
}

impl FleetMonitor {
    /// Creates a monitor from a deployable bundle.
    pub fn new(bundle: ModelBundle, config: MonitorConfig) -> Self {
        FleetMonitor {
            bundle,
            config,
            index: DriveMap::default(),
            slots: Vec::new(),
            tracked: 0,
            stats: QualityStats::default(),
            predictions: 0,
            alerts_emitted: 0,
            latched: [0; 3],
        }
    }

    /// Number of drives with monitoring state.
    pub fn drives_tracked(&self) -> usize {
        self.tracked
    }

    /// The highest severity already alerted for a drive.
    pub fn latched_severity(&self, drive: DriveId) -> Option<Severity> {
        let slot = *self.index.get(&drive)?;
        self.slots[slot as usize].state.as_ref().and_then(|s| s.latched)
    }

    /// The current serving-state summary, in constant time.
    pub fn health_status(&self) -> HealthStatus {
        HealthStatus {
            drives_tracked: self.tracked,
            latched: self.latched,
            alerts_emitted: self.alerts_emitted,
        }
    }

    /// Ingests one hourly record, returning any alerts it triggers
    /// (at most one prediction alert and one threshold alert).
    ///
    /// The vendor "rate" attributes carry unit-to-unit baseline spread;
    /// after `baseline_hours` of history the monitor re-centers them on the
    /// training population's means before scoring, so a drive whose healthy
    /// RRER sits high does not hide a depression from the models. Absolute
    /// attributes (temperature, counters, age) are never corrected.
    ///
    /// # Example
    ///
    /// Train on one fleet, then stream another fleet's failing drives
    /// record by record:
    ///
    /// ```
    /// use dds_core::{Analysis, AnalysisConfig};
    /// use dds_monitor::{FleetMonitor, ModelBundle, MonitorConfig};
    /// use dds_smartsim::{FleetConfig, FleetSimulator};
    ///
    /// let training = FleetSimulator::new(FleetConfig::test_scale().with_seed(1)).run();
    /// let report = Analysis::new(AnalysisConfig::default()).run(&training)?;
    /// let bundle = ModelBundle::from_analysis(&training, &report);
    /// let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
    ///
    /// let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(2)).run();
    /// let mut alerts = Vec::new();
    /// for drive in live.failed_drives() {
    ///     for record in drive.records() {
    ///         alerts.extend(monitor.ingest(drive.id(), record));
    ///     }
    /// }
    /// assert!(!alerts.is_empty(), "failing drives raise alerts before their end");
    /// # Ok::<(), dds_core::AnalysisError>(())
    /// ```
    ///
    /// Records that fail the data-quality gate (out-of-order hours,
    /// duplicates, unimputably missing attributes) are quarantined and
    /// yield no alerts; use [`FleetMonitor::try_ingest`] to observe the
    /// typed rejection.
    pub fn ingest(&mut self, drive: DriveId, record: &HealthRecord) -> Vec<Alert> {
        self.try_ingest(drive, record).unwrap_or_default()
    }

    /// Like [`FleetMonitor::ingest`], but surfaces the quality-gate verdict:
    /// `Err` means the record was quarantined (and counted in
    /// [`FleetMonitor::quality_stats`]) without touching any drive state.
    pub fn try_ingest(
        &mut self,
        drive: DriveId,
        record: &HealthRecord,
    ) -> Result<Vec<Alert>, DataQualityError> {
        let (slot, cleaned) = self.sanitize_slot(drive, record)?;
        Ok(self.ingest_slot(slot, drive, &cleaned))
    }

    /// The quality-gate stage of [`FleetMonitor::try_ingest`] on its own:
    /// admits (possibly repairing) one record or quarantines it with a
    /// typed rejection, without touching any scoring state. Returns the
    /// drive's slot for [`FleetMonitor::ingest_slot`] and the record,
    /// borrowed when it passed unchanged and owned when the gate repaired
    /// it. The sharded serving path runs this over a whole batch, then
    /// `ingest_slot` over the records that passed; `try_ingest` is exactly
    /// their composition, record by record.
    pub(crate) fn sanitize_slot<'a>(
        &mut self,
        drive: DriveId,
        record: &'a HealthRecord,
    ) -> Result<(u32, Cow<'a, HealthRecord>), DataQualityError> {
        let slot = self.slot(drive);
        let gate = &mut self.slots[slot as usize].gate;
        let cleaned = gate.admit(&self.config.quality, &mut self.stats, drive, record)?;
        Ok((slot, cleaned))
    }

    /// The drive's slot index, adding an empty slot for a new drive.
    fn slot(&mut self, drive: DriveId) -> u32 {
        let slots = &mut self.slots;
        *self.index.entry(drive).or_insert_with(|| {
            slots.push(DriveSlot::default());
            u32::try_from(slots.len() - 1).expect("fewer than 2^32 drives")
        })
    }

    /// The scoring stage of [`FleetMonitor::try_ingest`]: ingests a
    /// record that already passed a quality gate. Feeding a
    /// record that skipped the gate corrupts the quality accounting the
    /// watchdog budgets are built on — always pair the two stages. The
    /// gate may be another monitor's: a shard's refit candidate scores
    /// the records the serving monitor's gate admitted.
    pub fn ingest_sanitized(&mut self, drive: DriveId, record: &HealthRecord) -> Vec<Alert> {
        let slot = self.slot(drive);
        self.ingest_slot(slot, drive, record)
    }

    /// [`FleetMonitor::ingest_sanitized`] for a drive whose slot
    /// [`FleetMonitor::sanitize_slot`] returned.
    pub(crate) fn ingest_slot(
        &mut self,
        slot: u32,
        drive: DriveId,
        record: &HealthRecord,
    ) -> Vec<Alert> {
        let _span = dds_obs::span!(dds_obs::Level::Trace, "monitor.ingest", hour = record.hour);
        let alerts = self.ingest_inner(slot, drive, record);
        self.alerts_emitted += alerts.len() as u64;
        alerts
    }

    fn ingest_inner(&mut self, slot: u32, drive: DriveId, record: &HealthRecord) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let state = &mut self.slots[slot as usize].state;
        if state.is_none() {
            self.tracked += 1;
        }
        let state = state.get_or_insert_with(DriveState::default);

        // --- unit-to-unit baseline correction -----------------------------
        let mut corrected = record.clone();
        if self.config.baseline_hours > 0 {
            for (moments, attr) in state.baselines.iter_mut().zip(BASELINE_ATTRIBUTES) {
                if (moments.count() as usize) < self.config.baseline_hours {
                    moments.push(record.value(attr));
                } else {
                    // Only correct when the learned baseline was *stable*:
                    // a drive already degrading through its baseline window
                    // would otherwise have its anomaly erased.
                    let stable = moments.std_dev().map(|sd| sd < 2.0).unwrap_or(false);
                    if stable {
                        let shift = moments.mean() - self.bundle.population_means()[attr.index()];
                        corrected.values[attr.index()] -= shift;
                    }
                }
            }
        }
        let normalized = self.bundle.normalize(&corrected);
        let record = &corrected;

        // --- thermal-risk check (§V-A: logical failures run hot) ----------
        if self.config.thermal_sigma > 0.0 && !state.thermal_alerted {
            let tc = dds_smartsim::Attribute::TemperatureCelsius;
            state.tc_moments.push(record.value(tc));
            if state.tc_moments.count() as usize >= self.config.baseline_hours.max(1) {
                let pop_mean = self.bundle.population_means()[tc.index()];
                let limit = pop_mean - self.config.thermal_sigma * self.bundle.tc_std().max(1e-9);
                if state.tc_moments.mean() < limit {
                    state.thermal_alerted = true;
                    alerts.push(Alert {
                        drive,
                        hour: record.hour,
                        severity: Severity::Watch,
                        kind: AlertKind::ThermalRisk,
                        suspected_type: dds_core::FailureType::Logical,
                        degradation: f64::NAN,
                        estimated_remaining_hours: None,
                        message: format!(
                            "drive runs hot: mean TC health {:.1} vs population {:.1} (sd {:.1})",
                            state.tc_moments.mean(),
                            pop_mean,
                            self.bundle.tc_std()
                        ),
                    });
                }
            }
        }

        // --- vendor threshold check (direct critical) --------------------
        if !state.threshold_alerted {
            let breached = self
                .config
                .thresholds
                .thresholds
                .iter()
                .find(|&&(attr, min)| record.value(attr) < min);
            if let Some(&(attr, min)) = breached {
                state.threshold_alerted = true;
                alerts.push(Alert {
                    drive,
                    hour: record.hour,
                    severity: Severity::Critical,
                    kind: AlertKind::VendorThreshold,
                    suspected_type: dds_core::FailureType::Unknown,
                    degradation: f64::NAN,
                    estimated_remaining_hours: None,
                    message: format!(
                        "vendor threshold breached: {} = {:.1} < {min:.1}",
                        attr.symbol(),
                        record.value(attr)
                    ),
                });
            }
        }

        // --- degradation predictor ---------------------------------------
        self.predictions += self.bundle.groups().len() as u64;
        let Some((group_idx, degradation)) = self.bundle.worst_prediction(&normalized) else {
            return alerts;
        };
        let candidate = self.config.severity_for(degradation);
        match candidate {
            Some(severity) => {
                // The debounce run counts consecutive breaching hours at
                // *any* level: a drive that plunges straight through watch
                // and warning must still be able to latch critical.
                state.run_len += 1;
                state.run_severity = Some(severity);
                let debounced = state.run_len >= self.config.debounce_hours.max(1);
                let escalates = state.latched.is_none_or(|latched| severity > latched);
                // Attribute the type with the paper's Table II rules on
                // the record itself (robust), falling back to the
                // worst-scoring model's type; the matching signature
                // supplies the remaining-time estimate.
                let rule_type = dds_core::categorize::classify_normalized_record(&normalized);
                let model = self
                    .bundle
                    .groups()
                    .iter()
                    .find(|g| g.failure_type == rule_type)
                    .unwrap_or(&self.bundle.groups()[group_idx]);
                let remaining = model
                    .signature
                    .time_before_failure(degradation.min(0.0))
                    .filter(|_| degradation <= 0.0);
                if debounced && escalates {
                    if let Some(previous) = state.latched {
                        self.latched[previous as usize] -= 1;
                    }
                    self.latched[severity as usize] += 1;
                    state.latched = Some(severity);
                    if !state.announced_types.contains(&model.failure_type) {
                        state.announced_types.push(model.failure_type);
                    }
                    alerts.push(Alert {
                        drive,
                        hour: record.hour,
                        severity,
                        kind: AlertKind::DegradationPrediction,
                        suspected_type: model.failure_type,
                        degradation,
                        estimated_remaining_hours: remaining,
                        message: format!("{} suspected", model.failure_type),
                    });
                } else if debounced
                    && state.latched.is_some()
                    && !state.announced_types.contains(&model.failure_type)
                {
                    // A slow failure can out-live its escalation ladder: the
                    // predictor latches early (often on the trigger-happy
                    // short-window model) while the counters that pin down
                    // the *type* — Table II's RUE / R-RSC profile — only
                    // emerge hours later. Re-announce once per new type so
                    // the revised signature horizon reaches the operator.
                    state.announced_types.push(model.failure_type);
                    alerts.push(Alert {
                        drive,
                        hour: record.hour,
                        severity: state.latched.expect("checked above"),
                        kind: AlertKind::TypeReclassification,
                        suspected_type: model.failure_type,
                        degradation,
                        estimated_remaining_hours: remaining,
                        message: format!("diagnosis revised: {} suspected", model.failure_type),
                    });
                }
            }
            None => {
                state.run_severity = None;
                state.run_len = 0;
            }
        }
        alerts
    }

    /// Replays a whole profile, returning every alert in order — a
    /// convenience for offline evaluation.
    pub fn replay(&mut self, drive: DriveId, records: &[HealthRecord]) -> Vec<Alert> {
        let _span =
            dds_obs::span!(dds_obs::Level::Debug, "monitor.replay", records = records.len());
        let alerts: Vec<Alert> = records.iter().flat_map(|r| self.ingest(drive, r)).collect();
        if !alerts.is_empty() {
            dds_obs::event!(
                dds_obs::Level::Debug,
                "monitor.replay_alerts",
                alerts = alerts.len(),
                worst = alerts.iter().map(|a| a.severity).max().expect("non-empty").to_string(),
            );
        }
        alerts
    }

    /// Cumulative data-quality tallies for everything offered to
    /// [`FleetMonitor::ingest`] / [`FleetMonitor::try_ingest`].
    pub fn quality_stats(&self) -> &QualityStats {
        &self.stats
    }

    /// Regression-tree predictions this monitor has made: one per group
    /// model for every scored record. The shard coordinator publishes
    /// them as `dds_regtree_predictions_total`.
    pub(crate) fn tree_predictions(&self) -> u64 {
        self.predictions
    }

    /// Resets the quality gate's per-drive ordering history (imputation
    /// state and last-seen hours) without clearing the cumulative stats.
    ///
    /// Call this between replay epochs whose hour counters restart at
    /// zero — otherwise every record of the new epoch would look
    /// out-of-order against the previous epoch's final hours.
    pub fn new_ingest_session(&mut self) {
        for slot in &mut self.slots {
            slot.gate = DriveGate::default();
        }
    }

    /// Atomically replaces the deployed model bundle — the hot-swap half
    /// of a promotion.
    ///
    /// All per-drive escalation state (latched severities, debounce
    /// runs, learned baselines, announced types) survives the swap:
    /// promotion changes *how records are scored from now on*, never
    /// what has already been alerted. In particular, promoting a bundle
    /// identical to the serving one leaves the alert stream byte for
    /// byte unchanged.
    pub fn swap_bundle(&mut self, bundle: ModelBundle) {
        self.bundle = bundle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ModelBundle;
    use dds_core::{Analysis, AnalysisConfig, CategorizationConfig};
    use dds_smartsim::{Dataset, FailureMode, FleetConfig, FleetSimulator};

    fn trained_bundle(seed: u64) -> ModelBundle {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run();
        let config = AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        };
        let report = Analysis::new(config).run(&dataset).unwrap();
        ModelBundle::from_analysis(&dataset, &report)
    }

    fn live_fleet(seed: u64) -> Dataset {
        FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run()
    }

    #[test]
    fn failing_drives_escalate_good_drives_stay_quiet() {
        let bundle = trained_bundle(9_001);
        let live = live_fleet(9_002);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());

        // A cross-fleet generalization test: models trained on seed 9001
        // monitor drives from seed 9002. Expectations are per failure type,
        // mirroring the paper: sector/head failures carry large absolute
        // counter signals (robust across fleets); logical failures look
        // near-good (§IV-B) and are caught early via the thermal channel
        // rather than deep degradation predictions.
        let mut mechanical_critical = 0usize;
        let mut mechanical_total = 0usize;
        let mut logical_alerted = 0usize;
        let mut logical_total = 0usize;
        for drive in live.failed_drives() {
            let alerts = monitor.replay(drive.id(), drive.records());
            match drive.label().failure_mode().unwrap() {
                FailureMode::Logical => {
                    logical_total += 1;
                    if !alerts.is_empty() {
                        logical_alerted += 1;
                    }
                }
                FailureMode::BadSector | FailureMode::HeadWear => {
                    mechanical_total += 1;
                    if alerts.iter().any(|a| a.severity == Severity::Critical) {
                        mechanical_critical += 1;
                    }
                }
            }
        }
        assert!(
            mechanical_critical as f64 / mechanical_total as f64 > 0.9,
            "critical coverage of sector/head failures: {mechanical_critical}/{mechanical_total}"
        );
        // Logical failures are near-good on every counter until the last
        // hours (§IV-B, Table II), so cross-fleet coverage leans on the
        // thermal side channel — and drives whose internal heat is modest
        // sit inside the hot-rack good-drive band, where a more aggressive
        // limit would page on healthy hardware. ~80% coverage with a quiet
        // good fleet is the honest operating point at this scale.
        assert!(
            logical_alerted as f64 / logical_total as f64 > 0.8,
            "alert coverage of logical failures: {logical_alerted}/{logical_total}"
        );

        let mut good_warnings = 0usize;
        let mut good_thermal = 0usize;
        for drive in live.good_drives().take(60) {
            let alerts = monitor.replay(drive.id(), drive.records());
            good_warnings += alerts.iter().filter(|a| a.severity >= Severity::Warning).count();
            good_thermal += alerts.iter().filter(|a| a.kind == AlertKind::ThermalRisk).count();
        }
        assert!(good_warnings <= 3, "good drives raised {good_warnings} warnings+");
        assert!(good_thermal <= 3, "good drives raised {good_thermal} thermal alerts");
    }

    #[test]
    fn thermal_channel_flags_hot_logical_drives_early() {
        let bundle = trained_bundle(9_001);
        let live = live_fleet(9_002);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        let mut early_flags = 0usize;
        let mut total = 0usize;
        for drive in live.failed_drives() {
            if drive.label().failure_mode() != Some(FailureMode::Logical) {
                continue;
            }
            total += 1;
            let alerts = monitor.replay(drive.id(), drive.records());
            // The thermal flag must arrive within ~the baseline window, i.e.
            // days before the failure, not at the end.
            if let Some(a) = alerts.iter().find(|a| a.kind == AlertKind::ThermalRisk) {
                let first_hour = drive.records().first().unwrap().hour;
                if a.hour.saturating_sub(first_hour) <= 48 {
                    early_flags += 1;
                }
            }
        }
        assert!(
            early_flags as f64 / total as f64 > 0.8,
            "early thermal flags {early_flags}/{total}"
        );
    }

    #[test]
    fn alerts_only_escalate_per_drive() {
        let bundle = trained_bundle(9_003);
        let live = live_fleet(9_004);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        for drive in live.failed_drives() {
            let alerts = monitor.replay(drive.id(), drive.records());
            let prediction_alerts: Vec<&Alert> =
                alerts.iter().filter(|a| a.kind == AlertKind::DegradationPrediction).collect();
            for pair in prediction_alerts.windows(2) {
                assert!(
                    pair[1].severity > pair[0].severity,
                    "{}: severities must strictly escalate",
                    drive.id()
                );
            }
        }
    }

    #[test]
    fn remaining_time_estimates_shrink_toward_failure() {
        let bundle = trained_bundle(9_005);
        let live = live_fleet(9_006);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        // Bad-sector drives degrade slowly enough to produce multiple
        // escalations with remaining-time estimates.
        let mut checked = 0;
        for drive in live.failed_drives() {
            if drive.label().failure_mode() != Some(FailureMode::BadSector) {
                continue;
            }
            let alerts = monitor.replay(drive.id(), drive.records());
            // Compare only estimates made under the same suspected type —
            // early records of a slow failure can legitimately be typed
            // differently (and thus use a different signature) than late
            // ones.
            let estimates: Vec<f64> = alerts
                .iter()
                .filter(|a| a.suspected_type == dds_core::FailureType::BadSector)
                .filter_map(|a| a.estimated_remaining_hours)
                .collect();
            for pair in estimates.windows(2) {
                assert!(pair[1] <= pair[0] * 1.5, "estimates should trend down: {estimates:?}");
            }
            if !estimates.is_empty() {
                checked += 1;
            }
        }
        assert!(checked > 0, "at least one bad-sector drive produced estimates");
    }

    #[test]
    fn debouncing_suppresses_single_hour_spikes() {
        let bundle = trained_bundle(9_007);
        let live = live_fleet(9_008);
        let drive = live.failed_drives().next().unwrap();
        // With an absurd debounce the predictor can never latch.
        let config = MonitorConfig { debounce_hours: 10_000, ..MonitorConfig::default() };
        let mut monitor = FleetMonitor::new(trained_bundle(9_007), config);
        let alerts = monitor.replay(drive.id(), drive.records());
        assert!(
            alerts.iter().all(|a| a.kind != AlertKind::DegradationPrediction),
            "prediction alerts cannot fire under infinite debounce"
        );
        let _ = bundle;
    }

    #[test]
    fn tracked_state_and_latched_severity() {
        let bundle = trained_bundle(9_009);
        let live = live_fleet(9_010);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        assert_eq!(monitor.drives_tracked(), 0);
        // Use a bad-sector drive: its deep counter-driven degradation is
        // guaranteed to latch a severity.
        let drive = live
            .failed_drives()
            .find(|d| d.label().failure_mode() == Some(FailureMode::BadSector))
            .unwrap();
        assert_eq!(monitor.latched_severity(drive.id()), None);
        monitor.replay(drive.id(), drive.records());
        assert_eq!(monitor.drives_tracked(), 1);
        assert!(monitor.latched_severity(drive.id()).is_some());
        // A drive whose every record was quarantined is not tracked.
        let mut unreadable = drive.records()[0].clone();
        unreadable.values = [f64::NAN; dds_smartsim::NUM_ATTRIBUTES];
        let unseen = DriveId(u32::MAX);
        assert!(monitor.try_ingest(unseen, &unreadable).is_err());
        assert_eq!(monitor.drives_tracked(), 1);
        assert_eq!(monitor.latched_severity(unseen), None);

        // The O(1) latched counts agree with a scan over every drive,
        // also after replays that escalate a latched drive again.
        let mut escalated = 0usize;
        for drive in live.drives() {
            let alerts = monitor.replay(drive.id(), drive.records());
            let predictions =
                alerts.iter().filter(|a| a.kind == AlertKind::DegradationPrediction).count();
            if predictions > 1 {
                escalated += 1;
            }
        }
        assert!(escalated > 0, "some drive must escalate past its first latch");
        let mut scanned = [0usize; 3];
        for drive in live.drives() {
            if let Some(severity) = monitor.latched_severity(drive.id()) {
                scanned[severity as usize] += 1;
            }
        }
        assert_eq!(monitor.health_status().latched, scanned);
        assert!(scanned.iter().sum::<usize>() > 0);
    }

    #[test]
    fn severity_ladder_is_consistent() {
        let config = MonitorConfig::default();
        assert_eq!(config.severity_for(0.9), None);
        assert_eq!(config.severity_for(0.3), Some(Severity::Watch));
        assert_eq!(config.severity_for(-0.2), Some(Severity::Warning));
        assert_eq!(config.severity_for(-0.8), Some(Severity::Critical));
    }

    #[test]
    fn quality_gate_quarantines_ordering_faults_without_alerting() {
        let bundle = trained_bundle(9_011);
        let live = live_fleet(9_012);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        let drive = live.good_drives().next().unwrap();
        let records = drive.records();

        assert!(monitor.try_ingest(drive.id(), &records[5]).is_ok());
        // An earlier hour after a later one is un-repairable.
        let err = monitor.try_ingest(drive.id(), &records[2]).unwrap_err();
        assert_eq!(err.reason(), "out_of_order");
        // Re-sending the same hour is a duplicate.
        let dup = records[5].clone();
        let err = monitor.try_ingest(drive.id(), &dup).unwrap_err();
        assert_eq!(err.reason(), "duplicate_hour");
        // The lossy wrapper swallows the rejection and emits nothing.
        assert!(monitor.ingest(drive.id(), &records[2]).is_empty());

        let stats = monitor.quality_stats();
        assert_eq!(stats.ingested, 4);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.quarantined, 3);
        assert_eq!(stats.accepted + stats.quarantined, stats.ingested);
    }

    #[test]
    fn quality_gate_imputes_missing_attributes_in_stream() {
        let bundle = trained_bundle(9_011);
        let live = live_fleet(9_012);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        let drive = live.good_drives().next().unwrap();

        let mut poisoned = 0usize;
        for (i, record) in drive.records().iter().take(48).enumerate() {
            let mut record = record.clone();
            if i % 7 == 3 {
                record.values[2] = f64::NAN;
                record.values[5] = 65_535.0;
                poisoned += 1;
            }
            monitor.try_ingest(drive.id(), &record).expect("imputable record");
        }
        let stats = monitor.quality_stats();
        assert_eq!(stats.quarantined, 0, "sparse missing values must be repaired, not dropped");
        assert_eq!(stats.imputed_attrs, 2 * poisoned as u64);
        assert_eq!(stats.accepted, 48);
    }

    #[test]
    fn identical_bundle_swap_leaves_the_alert_stream_unchanged() {
        let bundle = trained_bundle(9_013);
        let live = live_fleet(9_014);

        // One uninterrupted replay...
        let mut plain = FleetMonitor::new(bundle.clone(), MonitorConfig::default());
        let mut plain_alerts = Vec::new();
        for drive in live.failed_drives() {
            plain_alerts.extend(plain.replay(drive.id(), drive.records()));
        }

        // ...versus the same replay with an identical-bundle swap before
        // every drive: escalation state survives, so the streams match.
        let mut swapped = FleetMonitor::new(bundle.clone(), MonitorConfig::default());
        let mut swapped_alerts = Vec::new();
        for drive in live.failed_drives() {
            swapped.swap_bundle(bundle.clone());
            swapped_alerts.extend(swapped.replay(drive.id(), drive.records()));
        }

        let render =
            |alerts: &[Alert]| -> Vec<String> { alerts.iter().map(Alert::to_json).collect() };
        assert_eq!(render(&plain_alerts), render(&swapped_alerts));
        assert_eq!(plain.drives_tracked(), swapped.drives_tracked());
    }

    #[test]
    fn new_ingest_session_allows_hour_counters_to_restart() {
        let bundle = trained_bundle(9_011);
        let live = live_fleet(9_012);
        let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
        let drive = live.good_drives().next().unwrap();
        let records = &drive.records()[..10];

        monitor.replay(drive.id(), records);
        assert_eq!(monitor.quality_stats().quarantined, 0);

        // Replaying the same epoch without a session reset looks like a
        // wall of ordering faults...
        monitor.replay(drive.id(), records);
        assert_eq!(monitor.quality_stats().quarantined, records.len() as u64);

        // ...but after a reset the restarted hours are accepted again.
        monitor.new_ingest_session();
        monitor.replay(drive.id(), records);
        assert_eq!(monitor.quality_stats().quarantined, records.len() as u64);
        assert_eq!(monitor.quality_stats().ingested, 3 * records.len() as u64);
    }
}
