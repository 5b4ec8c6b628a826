//! A bounded, shareable history of emitted alerts.
//!
//! The serving metrics count alerts but forget them; the `/alerts`
//! endpoint needs the alerts themselves. [`AlertHistory`] keeps the most
//! recent `capacity` alerts in a ring buffer behind a mutex (alerts are
//! emitted at most a few per ingested record, so contention is nil) plus
//! a lifetime total, and is shared `Arc`-style between the ingesting
//! [`ShardedFleetMonitor`](crate::ShardedFleetMonitor) coordinator and
//! the scrape server's handler threads.

use crate::alert::Alert;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default retained-alert capacity for serving setups.
pub const DEFAULT_HISTORY_CAPACITY: usize = 1024;

/// A bounded ring buffer of the most recent alerts.
#[derive(Debug)]
pub struct AlertHistory {
    capacity: usize,
    total: AtomicU64,
    alerts: Mutex<VecDeque<Alert>>,
}

impl Default for AlertHistory {
    fn default() -> Self {
        AlertHistory::new(DEFAULT_HISTORY_CAPACITY)
    }
}

impl AlertHistory {
    /// Creates a history retaining the most recent `capacity` alerts
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        AlertHistory {
            capacity: capacity.max(1),
            total: AtomicU64::new(0),
            alerts: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends one alert, evicting the oldest when full.
    pub fn record(&self, alert: &Alert) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut alerts) = self.alerts.lock() {
            if alerts.len() == self.capacity {
                alerts.pop_front();
            }
            alerts.push_back(alert.clone());
        }
    }

    /// The lifetime number of alerts recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Number of currently retained alerts.
    pub fn len(&self) -> usize {
        self.alerts.lock().map(|a| a.len()).unwrap_or(0)
    }

    /// Whether no alert was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent `n` alerts, newest first.
    pub fn recent(&self, n: usize) -> Vec<Alert> {
        self.alerts
            .lock()
            .map(|alerts| alerts.iter().rev().take(n).cloned().collect())
            .unwrap_or_default()
    }

    /// The most recent `n` alerts as a JSON document:
    /// `{"total": …, "returned": …, "alerts": […]}` with rows newest first.
    pub fn to_json(&self, n: usize) -> String {
        let recent = self.recent(n);
        let rows: Vec<String> = recent.iter().map(Alert::to_json).collect();
        format!(
            "{{\"total\": {}, \"returned\": {}, \"alerts\": [{}]}}",
            self.total(),
            rows.len(),
            rows.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertKind, Severity};
    use dds_smartsim::DriveId;

    fn alert(hour: u32) -> Alert {
        Alert {
            drive: DriveId(1),
            hour,
            severity: Severity::Watch,
            kind: AlertKind::ThermalRisk,
            suspected_type: dds_core::FailureType::Logical,
            degradation: f64::NAN,
            estimated_remaining_hours: None,
            message: format!("alert at hour {hour}"),
        }
    }

    #[test]
    fn keeps_newest_and_counts_all() {
        let history = AlertHistory::new(3);
        assert!(history.is_empty());
        for hour in 0..10 {
            history.record(&alert(hour));
        }
        assert_eq!(history.total(), 10);
        assert_eq!(history.len(), 3);
        let recent = history.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].hour, 9, "newest first");
        assert_eq!(recent[1].hour, 8);
    }

    #[test]
    fn json_is_well_formed_and_nan_degradation_is_null() {
        let history = AlertHistory::new(8);
        history.record(&alert(5));
        let json = history.to_json(10);
        dds_obs::json::validate(&json).expect("alert history JSON");
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"degradation\": null"));
        assert!(json.contains("thermal_risk"));
    }
}
