//! Shadow scoring: a refit candidate model scores the live stream next
//! to the serving model, silently.
//!
//! Before a candidate is promoted it must earn trust on real traffic.
//! [`ShardedFleetMonitor::set_candidate`](crate::ShardedFleetMonitor::set_candidate)
//! attaches the candidate bundle to every shard, where it scores each
//! batch after the serving pass. The candidate's alerts are *never
//! emitted*; each shard only compares them against the serving model's
//! alerts for the same batch, and the coordinator sums the shards'
//! [`ShadowTally`]s and publishes them as `dds_shadow_*` counters:
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

use crate::alert::{Alert, Severity};
use std::collections::BTreeSet;

/// The `dds_shadow_*` counter names, in [`ShadowTally::counts`] order.
pub(crate) const SHADOW_COUNTERS: [&str; 4] = [
    "dds_shadow_batches_total",
    "dds_shadow_alerts_serving_total",
    "dds_shadow_alerts_candidate_total",
    "dds_shadow_divergence_total",
];

/// The identity of an alert for divergence purposes: where, when, how
/// severe and of what kind — but not the free-form message or the exact
/// degradation value, which legitimately differ between two models that
/// agree on the operational outcome.
fn alert_key(alert: &Alert) -> (u32, u32, Severity, usize) {
    (alert.hour, alert.drive.0, alert.severity, alert.kind as usize)
}

/// How a soaking candidate compared with the serving model: over one
/// shard's share of a batch, or summed over every batch since the
/// candidate attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowTally {
    /// Batches shadow-scored.
    pub batches: u64,
    /// Alerts the serving model raised on those batches.
    pub serving_alerts: u64,
    /// Alerts the candidate would have raised.
    pub candidate_alerts: u64,
    /// Alerts raised by exactly one side.
    pub divergence: u64,
}

impl ShadowTally {
    /// Compares the two sides' alerts for one shard's share of a batch.
    /// `batches` stays 0: the coordinator counts a batch once, however
    /// many shards it touched. A drive's alerts all come from one shard,
    /// so the per-shard divergences sum to the whole batch's.
    pub(crate) fn of_batch(serving: &[Alert], candidate: &[Alert]) -> Self {
        let serving_keys: BTreeSet<_> = serving.iter().map(alert_key).collect();
        let candidate_keys: BTreeSet<_> = candidate.iter().map(alert_key).collect();
        ShadowTally {
            batches: 0,
            serving_alerts: serving.len() as u64,
            candidate_alerts: candidate.len() as u64,
            divergence: serving_keys.symmetric_difference(&candidate_keys).count() as u64,
        }
    }

    /// Adds another tally into this one.
    pub(crate) fn add(&mut self, other: &ShadowTally) {
        self.batches += other.batches;
        self.serving_alerts += other.serving_alerts;
        self.candidate_alerts += other.candidate_alerts;
        self.divergence += other.divergence;
    }

    /// The four tallies in [`SHADOW_COUNTERS`] order.
    pub(crate) fn counts(&self) -> [u64; 4] {
        [self.batches, self.serving_alerts, self.candidate_alerts, self.divergence]
    }

    /// Serializes the tally as one JSON object (embedded in the `/drift`
    /// endpoint's body while a candidate is soaking).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"batches\": {}, \"serving_alerts\": {}, \"candidate_alerts\": {}, \
             \"divergence\": {}}}",
            self.batches, self.serving_alerts, self.candidate_alerts, self.divergence,
        )
    }
}
