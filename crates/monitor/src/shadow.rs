//! Shadow scoring: a refit candidate model scores the live stream next
//! to the serving model, silently.
//!
//! Before a candidate is promoted it must earn trust on real traffic.
//! [`ShadowScorer`] wraps the candidate bundle in a plain [`FleetMonitor`]
//! and replays every ingest batch the serving path processes. A
//! `FleetMonitor` writes no metrics and keeps no history (the serving
//! shard coordinator is the only publisher), so the candidate never
//! counts into the serving ingest, alert or quarantine totals. The
//! candidate's alerts are *never emitted*; they are only compared against
//! the serving model's alerts for the same batch, and the disagreement is
//! published as `dds_shadow_*` counters:
//!
//! * `dds_shadow_batches_total` — batches shadow-scored,
//! * `dds_shadow_alerts_serving_total` / `dds_shadow_alerts_candidate_total`
//!   — alert volume on each side,
//! * `dds_shadow_divergence_total` — alerts raised by exactly one side
//!   (symmetric difference on `(hour, drive, severity, kind)`).
//!
//! Zero divergence over a soak window is the promotion criterion for a
//! routine refit; a *deliberate* retrain (new thresholds, new training
//! window after confirmed drift) is expected to diverge, and the
//! counters quantify by how much before the operator commits.

use crate::alert::Alert;
use crate::bundle::ModelBundle;
use crate::monitor::{FleetMonitor, MonitorConfig};
use dds_obs::metrics::Registry;
use dds_smartsim::{DriveId, HealthRecord};
use std::collections::BTreeSet;

/// The identity of an alert for divergence purposes: where, when, how
/// severe and of what kind — but not the free-form message or the exact
/// degradation value, which legitimately differ between two models that
/// agree on the operational outcome.
fn alert_key(alert: &Alert) -> String {
    format!("{}|{}|{}|{}", alert.hour, alert.drive, alert.severity, alert.kind)
}

/// A candidate model silently scoring the serving stream.
#[derive(Debug)]
pub struct ShadowScorer {
    monitor: FleetMonitor,
    batches: u64,
    serving_alerts: u64,
    candidate_alerts: u64,
    divergence: u64,
    /// Publication watermarks: (batches, serving, candidate, divergence).
    published: [u64; 4],
}

impl ShadowScorer {
    /// Wraps a candidate bundle for shadow scoring. The monitor config
    /// should match the serving monitor's, so divergence measures the
    /// *model*, not the escalation ladder.
    pub fn new(bundle: ModelBundle, config: MonitorConfig) -> Self {
        ShadowScorer {
            monitor: FleetMonitor::new(bundle, config),
            batches: 0,
            serving_alerts: 0,
            candidate_alerts: 0,
            divergence: 0,
            published: [0; 4],
        }
    }

    /// Scores one ingest batch with the candidate and compares against
    /// the alerts the serving model raised for the same batch. Returns
    /// this batch's divergence (alerts raised by exactly one side).
    /// Nothing is emitted: the candidate's alerts die here.
    pub fn score_batch(
        &mut self,
        batch: &[(DriveId, HealthRecord)],
        serving_alerts: &[Alert],
    ) -> u64 {
        self.batches += 1;
        let candidate: Vec<Alert> =
            batch.iter().flat_map(|(drive, record)| self.monitor.ingest(*drive, record)).collect();
        self.serving_alerts += serving_alerts.len() as u64;
        self.candidate_alerts += candidate.len() as u64;

        let serving_keys: BTreeSet<String> = serving_alerts.iter().map(alert_key).collect();
        let candidate_keys: BTreeSet<String> = candidate.iter().map(alert_key).collect();
        let agreed = serving_keys.intersection(&candidate_keys).count() as u64;
        let diverged =
            (serving_keys.len() as u64 - agreed) + (candidate_keys.len() as u64 - agreed);
        self.divergence += diverged;
        diverged
    }

    /// Resets the candidate monitor's per-drive ordering history between
    /// replay epochs — call exactly when the serving monitor gets its
    /// [`FleetMonitor::new_ingest_session`], so both sides see the same
    /// quality-gate verdicts.
    pub fn new_ingest_session(&mut self) {
        self.monitor.new_ingest_session();
    }

    /// Batches shadow-scored so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total alerts raised by exactly one side.
    pub fn divergence(&self) -> u64 {
        self.divergence
    }

    /// Total alerts the candidate would have raised.
    pub fn candidate_alerts(&self) -> u64 {
        self.candidate_alerts
    }

    /// Total alerts the serving side raised on the shadowed batches.
    pub fn serving_alerts(&self) -> u64 {
        self.serving_alerts
    }

    /// Publishes the `dds_shadow_*` counters (monotonic deltas since the
    /// last call).
    pub fn publish(&mut self, registry: &Registry) {
        let now = [self.batches, self.serving_alerts, self.candidate_alerts, self.divergence];
        let names = [
            "dds_shadow_batches_total",
            "dds_shadow_alerts_serving_total",
            "dds_shadow_alerts_candidate_total",
            "dds_shadow_divergence_total",
        ];
        for ((name, value), published) in names.iter().zip(now).zip(&mut self.published) {
            registry.counter(name).add(value - *published);
            *published = value;
        }
    }

    /// Serializes the scorer's state as one JSON object (embedded in the
    /// `/drift` endpoint's body when a candidate is soaking).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"batches\": {}, \"serving_alerts\": {}, \"candidate_alerts\": {}, \
             \"divergence\": {}}}",
            self.batches, self.serving_alerts, self.candidate_alerts, self.divergence,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::{Analysis, AnalysisConfig, CategorizationConfig};
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
    fn identical_candidate_never_diverges() {
        let serving_bundle = bundle(5_001);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(5_002)).run();
        let records = hour_ordered(&live);

        let mut serving = FleetMonitor::new(serving_bundle.clone(), MonitorConfig::default());
        let mut shadow = ShadowScorer::new(serving_bundle, MonitorConfig::default());

        let mut total_serving_alerts = 0u64;
        for batch in records.chunks(256) {
            let alerts: Vec<Alert> =
                batch.iter().flat_map(|(d, r)| serving.ingest(*d, r)).collect();
            total_serving_alerts += alerts.len() as u64;
            assert_eq!(shadow.score_batch(batch, &alerts), 0, "same model cannot diverge");
        }
        assert_eq!(shadow.divergence(), 0);
        assert_eq!(shadow.candidate_alerts(), total_serving_alerts);
        assert!(total_serving_alerts > 0, "the live fleet must raise some alerts");
    }

    #[test]
    fn different_candidate_diverges_and_publishes_counters() {
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(5_003)).run();
        let records = hour_ordered(&live);

        let mut serving = FleetMonitor::new(bundle(5_001), MonitorConfig::default());
        // A candidate trained on a different fleet scores differently
        // somewhere in a full epoch.
        let mut shadow = ShadowScorer::new(bundle(5_004), MonitorConfig::default());
        for batch in records.chunks(512) {
            let alerts: Vec<Alert> =
                batch.iter().flat_map(|(d, r)| serving.ingest(*d, r)).collect();
            shadow.score_batch(batch, &alerts);
        }
        assert!(shadow.divergence() > 0, "cross-fleet candidates must disagree somewhere");
        assert!(shadow.batches() > 0);

        let registry = Registry::new();
        shadow.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dds_shadow_batches_total"), Some(shadow.batches()));
        assert_eq!(snap.counter_value("dds_shadow_divergence_total"), Some(shadow.divergence()));
        assert_eq!(
            snap.counter_value("dds_shadow_alerts_serving_total"),
            Some(shadow.serving_alerts())
        );
        assert_eq!(
            snap.counter_value("dds_shadow_alerts_candidate_total"),
            Some(shadow.candidate_alerts())
        );

        // Publishing twice adds nothing new.
        shadow.publish(&registry);
        let again = registry.snapshot();
        assert_eq!(again.counter_value("dds_shadow_divergence_total"), Some(shadow.divergence()));

        let json = shadow.to_json();
        for key in ["\"batches\"", "\"serving_alerts\"", "\"candidate_alerts\"", "\"divergence\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
