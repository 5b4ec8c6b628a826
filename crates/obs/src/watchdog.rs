//! The SLO watchdog: window predicates over the metrics time series that
//! degrade the service's health state and emit self-alerts.
//!
//! The monitor watches disks; the watchdog watches the monitor. Each
//! [`SloRule`] is a predicate over a [`TimeSeriesStore`] window — an
//! ingest-latency p99 ceiling, an alert-rate spike against a trailing
//! baseline, an error budget. [`Watchdog::evaluate`] runs every rule,
//! fires a `Warn`-level [`event!`](crate::event!) per violation (so
//! `--trace-level warn` surfaces them like any other event), counts them
//! in `dds_watchdog_violations_total`, and flips the shared
//! [`HealthState`] to degraded; a clean evaluation clears the degradation
//! again. `/healthz` reads the same [`HealthState`].
//! [`Watchdog::evaluate_shards`] runs two of these rules, built from a
//! [`ShardSlo`], on each shard's store in a [`ShardSeriesStore`], so a
//! violation names its shard.
//!
//! # Example
//!
//! ```
//! use dds_obs::metrics::Registry;
//! use dds_obs::timeseries::TimeSeriesStore;
//! use dds_obs::watchdog::{SloRule, Watchdog};
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let store = TimeSeriesStore::new(16);
//! let watchdog = Watchdog::new(vec![SloRule::LatencyCeiling {
//!     histogram: "svc_seconds".into(),
//!     quantile: 0.99,
//!     ceiling_seconds: 1e-3,
//!     window: Duration::from_secs(60),
//! }]);
//!
//! registry.histogram("svc_seconds").observe(5e-3); // over the ceiling
//! store.push(Duration::from_secs(0), Registry::new().snapshot());
//! store.push(Duration::from_secs(1), registry.snapshot());
//! let violations = watchdog.evaluate(&store);
//! assert_eq!(violations.len(), 1);
//! assert!(watchdog.health().is_degraded());
//! ```

use crate::timeseries::{
    ShardSeriesStore, TimeSeriesStore, SHARD_ACCEPTED, SHARD_BATCH, SHARD_QUARANTINE,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shared liveness/readiness/degradation state, written by the serving
/// loop and the watchdog, read by the `/healthz` and `/readyz` endpoints.
///
/// *Ready* means the model bundle is loaded and the service can ingest;
/// *degraded* means an SLO rule is currently violated. The two are
/// independent: a service is typically ready long before it has enough
/// samples to be judged degraded.
#[derive(Debug, Default)]
pub struct HealthState {
    ready: AtomicBool,
    degraded: AtomicBool,
    reason: Mutex<String>,
}

impl HealthState {
    /// A fresh state: not ready, not degraded.
    pub fn new() -> Arc<Self> {
        Arc::new(HealthState::default())
    }

    /// Marks the model bundle as loaded (or unloaded).
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::SeqCst);
    }

    /// Whether the service can ingest records.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Whether an SLO rule is currently violated.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// The message of the most recent degradation, if degraded.
    pub fn degraded_reason(&self) -> Option<String> {
        if !self.is_degraded() {
            return None;
        }
        self.reason.lock().ok().map(|r| r.clone())
    }

    /// Degrades the state with a reason.
    pub fn degrade(&self, reason: &str) {
        if let Ok(mut slot) = self.reason.lock() {
            *slot = reason.to_string();
        }
        self.degraded.store(true, Ordering::SeqCst);
    }

    /// Clears a degradation.
    pub fn clear_degraded(&self) {
        self.degraded.store(false, Ordering::SeqCst);
    }
}

/// One SLO predicate evaluated per watchdog tick.
#[derive(Debug, Clone, PartialEq)]
pub enum SloRule {
    /// The `quantile` of `histogram` over the trailing `window` must stay
    /// below `ceiling_seconds`.
    LatencyCeiling {
        /// Histogram metric name (e.g. `dds_monitor_ingest_seconds`).
        histogram: String,
        /// Quantile to bound, e.g. `0.99`.
        quantile: f64,
        /// Ceiling in the histogram's unit (seconds by convention).
        ceiling_seconds: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// The rate of `counter` over the trailing `window` must not exceed
    /// `factor` × its rate over the longer `baseline_window` (and
    /// `min_per_sec`, which suppresses spikes off a near-zero baseline).
    RateSpike {
        /// Counter metric name (e.g. `dds_monitor_alerts_total`).
        counter: String,
        /// Short window whose rate is under suspicion.
        window: Duration,
        /// Longer trailing window supplying the baseline rate.
        baseline_window: Duration,
        /// Spike factor over baseline that trips the rule.
        factor: f64,
        /// Rates below this (events/sec) never trip, whatever the factor.
        min_per_sec: f64,
    },
    /// Over the trailing `window`, `errors` must stay below `max_ratio`
    /// of `total` (both counters). Windows with no `total` growth pass.
    ErrorBudget {
        /// Error counter name.
        errors: String,
        /// Total-attempts counter name.
        total: String,
        /// Maximum tolerated error fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// Over the trailing `window`, quarantined records must stay below
    /// `max_ratio` of everything offered (`quarantined + accepted` —
    /// the two counters partition the ingest stream, so their sum is the
    /// offered-record denominator). Windows where neither counter grows
    /// pass vacuously.
    QuarantineBudget {
        /// Quarantined-records counter name.
        quarantined: String,
        /// Accepted-records counter name.
        accepted: String,
        /// Maximum tolerated quarantine fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// Over the trailing `window`, records shed at the ingest gateway
    /// (bounded-queue overflow under backpressure) must stay below
    /// `max_ratio` of everything offered (`shed + accepted` partition the
    /// offered stream). Windows where neither counter grows pass
    /// vacuously: an idle gateway is not a degraded one.
    ShedBudget {
        /// Shed-records counter name.
        shed: String,
        /// Accepted-records counter name.
        accepted: String,
        /// Maximum tolerated shed fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// Over the trailing `window`, records the drift detector flags
    /// beyond the serving model's training baseline must stay below
    /// `max_ratio` of everything examined (`drifted + clean` partition
    /// the examined stream — both counters come from the same detector).
    /// Windows where neither counter grows pass vacuously: no traffic is
    /// no evidence of drift.
    DriftBudget {
        /// Drifted-records counter name.
        drifted: String,
        /// Clean-records counter name.
        clean: String,
        /// Maximum tolerated drift fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
}

impl SloRule {
    /// A short stable name for events and violation reports.
    pub fn name(&self) -> &'static str {
        match self {
            SloRule::LatencyCeiling { .. } => "latency_ceiling",
            SloRule::RateSpike { .. } => "rate_spike",
            SloRule::ErrorBudget { .. } => "error_budget",
            SloRule::QuarantineBudget { .. } => "quarantine_budget",
            SloRule::ShedBudget { .. } => "shed_budget",
            SloRule::DriftBudget { .. } => "drift_budget",
        }
    }

    /// Evaluates the rule, returning a violation message if it trips.
    /// Rules whose metrics have no samples yet pass vacuously.
    fn check(&self, store: &TimeSeriesStore) -> Option<String> {
        match self {
            SloRule::LatencyCeiling { histogram, quantile, ceiling_seconds, window } => {
                let observed = store.window_quantile(histogram, *window, *quantile)?;
                (observed > *ceiling_seconds).then(|| {
                    format!(
                        "{histogram} p{:.0} = {observed:.6}s over {:.0}s window exceeds \
                         ceiling {ceiling_seconds:.6}s",
                        quantile * 100.0,
                        window.as_secs_f64(),
                    )
                })
            }
            SloRule::RateSpike { counter, window, baseline_window, factor, min_per_sec } => {
                let current = store.rate_per_sec(counter, *window)?;
                let baseline = store.rate_per_sec(counter, *baseline_window)?;
                (current > *min_per_sec && current > factor * baseline.max(f64::MIN_POSITIVE)).then(
                    || {
                        format!(
                            "{counter} rate {current:.2}/s spikes {:.1}x over trailing \
                             baseline {baseline:.2}/s (limit {factor:.1}x)",
                            current / baseline.max(f64::MIN_POSITIVE),
                        )
                    },
                )
            }
            SloRule::ErrorBudget { errors, total, max_ratio, window } => {
                let error_rate = store.rate_per_sec(errors, *window)?;
                let total_rate = store.rate_per_sec(total, *window)?;
                if total_rate <= 0.0 {
                    return None;
                }
                let ratio = error_rate / total_rate;
                (ratio > *max_ratio).then(|| {
                    format!("{errors}/{total} error ratio {ratio:.4} exceeds budget {max_ratio:.4}")
                })
            }
            // The quarantine, shed and drift budgets are one rule: the
            // first counter's share of the stream the two counters
            // partition. A stream with no growth in the first counter may
            // never have registered it, and a fully quarantined, shed or
            // drifted one may never have grown the second — so a missing
            // series reads as a zero rate rather than a vacuous pass.
            SloRule::QuarantineBudget { quarantined: part, accepted: rest, max_ratio, window }
            | SloRule::ShedBudget { shed: part, accepted: rest, max_ratio, window }
            | SloRule::DriftBudget { drifted: part, clean: rest, max_ratio, window } => {
                let (noun, budget) = match self {
                    SloRule::QuarantineBudget { .. } => ("offered", "quarantine"),
                    SloRule::ShedBudget { .. } => ("offered", "shed"),
                    _ => ("examined", "drift"),
                };
                let part_rate = store.rate_per_sec(part, *window).unwrap_or(0.0);
                let rest_rate = store.rate_per_sec(rest, *window).unwrap_or(0.0);
                let total = part_rate + rest_rate;
                if total <= 0.0 {
                    return None;
                }
                let ratio = part_rate / total;
                (ratio > *max_ratio).then(|| {
                    format!(
                        "{part} ratio {ratio:.4} of {noun} records exceeds {budget} budget \
                         {max_ratio:.4}"
                    )
                })
            }
        }
    }
}

/// One tripped rule from an evaluation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// [`SloRule::name`] of the tripped rule.
    pub rule: &'static str,
    /// Human-readable description with the observed and limit values.
    pub message: String,
}

/// Per-shard SLO thresholds evaluated against a
/// [`ShardSeriesStore`] so the watchdog can *name* the offending shard
/// instead of reporting only an aggregate breach.
///
/// The fleet-level rules in [`Watchdog::standard_rules`] fire on
/// aggregate metrics; when one shard is slow behind a healthy average,
/// the aggregate hides it. These thresholds run per shard over the same
/// sliding windows.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSlo {
    /// Per-shard batch-latency p99 ceiling in seconds.
    pub batch_p99_ceiling_seconds: f64,
    /// Maximum tolerated per-shard quarantine fraction of offered
    /// records, in `0..=1`.
    pub quarantine_max_ratio: f64,
    /// Trailing window to evaluate over.
    pub window: Duration,
}

impl ShardSlo {
    /// The standard per-shard thresholds: batch p99 under 5 s and a 10%
    /// quarantine budget over the trailing minute. The batch ceiling is
    /// deliberately generous — a serving-path batch is thousands of
    /// records, not one — so only a genuinely wedged shard trips it.
    pub fn standard() -> Self {
        ShardSlo {
            batch_p99_ceiling_seconds: 5.0,
            quarantine_max_ratio: 0.10,
            window: Duration::from_secs(60),
        }
    }
}

/// Evaluates a fixed rule set against the time series and maintains the
/// shared [`HealthState`].
#[derive(Debug)]
pub struct Watchdog {
    rules: Vec<SloRule>,
    health: Arc<HealthState>,
}

impl Watchdog {
    /// Creates a watchdog with its own (not-ready) [`HealthState`].
    pub fn new(rules: Vec<SloRule>) -> Self {
        Watchdog { rules, health: HealthState::new() }
    }

    /// The shared health state `/healthz` and `/readyz` should read.
    pub fn health(&self) -> Arc<HealthState> {
        Arc::clone(&self.health)
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// The standard `dds serve` rule set: a 50 ms per-record ingest-latency
    /// p99 ceiling, an 8× alert-rate spike over the trailing minute, a
    /// 1% ingest-error budget, a 10% data-quality quarantine budget over
    /// the trailing 30 seconds, a 10% ingest-gateway shed budget over the
    /// same window (overload that sheds more than a tenth of offered
    /// records flips `/healthz`), and a 5% model-drift budget over the
    /// same window (a live stream drifting past the serving model's
    /// training baseline flips `/healthz` until a refit candidate is
    /// promoted).
    pub fn standard_rules() -> Vec<SloRule> {
        vec![
            SloRule::LatencyCeiling {
                histogram: "dds_monitor_ingest_seconds".into(),
                quantile: 0.99,
                ceiling_seconds: 0.05,
                window: Duration::from_secs(60),
            },
            SloRule::RateSpike {
                counter: "dds_monitor_alerts_total".into(),
                window: Duration::from_secs(10),
                baseline_window: Duration::from_secs(60),
                factor: 8.0,
                min_per_sec: 5.0,
            },
            SloRule::ErrorBudget {
                errors: "dds_serve_ingest_errors_total".into(),
                total: "dds_monitor_records_ingested_total".into(),
                max_ratio: 0.01,
                window: Duration::from_secs(60),
            },
            SloRule::QuarantineBudget {
                quarantined: "dds_records_quarantined_total".into(),
                accepted: "dds_monitor_records_ingested_total".into(),
                max_ratio: 0.10,
                window: Duration::from_secs(30),
            },
            SloRule::ShedBudget {
                shed: "dds_shed_records_total".into(),
                accepted: "dds_ingest_records_total".into(),
                max_ratio: 0.10,
                window: Duration::from_secs(30),
            },
            SloRule::DriftBudget {
                drifted: "dds_drift_drifted_total".into(),
                clean: "dds_drift_clean_total".into(),
                max_ratio: 0.05,
                window: Duration::from_secs(30),
            },
        ]
    }

    /// Runs every rule against `store`. Violations degrade the health
    /// state, fire one `Warn` event each and increment
    /// `dds_watchdog_violations_total`; a pass with no violations clears
    /// the degradation (the service self-heals when the window drains).
    pub fn evaluate(&self, store: &TimeSeriesStore) -> Vec<Violation> {
        let violations: Vec<Violation> = self
            .rules
            .iter()
            .filter_map(|rule| {
                rule.check(store).map(|message| Violation { rule: rule.name(), message })
            })
            .collect();
        self.report(&violations, "watchdog.slo_violation");
        match violations.first() {
            Some(first) => self.health.degrade(&first.message),
            None => self.health.clear_degraded(),
        }
        violations
    }

    /// Runs the per-shard thresholds against every shard's sliding
    /// window, so violations carry shard attribution ("shard 3 batch
    /// p99 …"). The thresholds become the fleet rules
    /// [`SloRule::LatencyCeiling`] over the shard's [`SHARD_BATCH`]
    /// histogram and [`SloRule::QuarantineBudget`] over its
    /// [`SHARD_QUARANTINE`] and [`SHARD_ACCEPTED`] counters, checked
    /// shard by shard in that order. Degrade-only: a clean pass here
    /// never *clears* the health state, and a violation here degrades it
    /// only while it is clean, so a fleet violation stays the `/healthz`
    /// reason. Call [`Watchdog::evaluate`] first each tick (it clears on
    /// a clean fleet pass) and this afterwards; every shard violation is
    /// still counted and logged. Shards with too few samples to span a
    /// window pass vacuously.
    pub fn evaluate_shards(&self, series: &ShardSeriesStore, slo: &ShardSlo) -> Vec<Violation> {
        let rules = [
            (
                "shard_latency_ceiling",
                SloRule::LatencyCeiling {
                    histogram: SHARD_BATCH.into(),
                    quantile: 0.99,
                    ceiling_seconds: slo.batch_p99_ceiling_seconds,
                    window: slo.window,
                },
            ),
            (
                "shard_quarantine_budget",
                SloRule::QuarantineBudget {
                    quarantined: SHARD_QUARANTINE.into(),
                    accepted: SHARD_ACCEPTED.into(),
                    max_ratio: slo.quarantine_max_ratio,
                    window: slo.window,
                },
            ),
        ];
        let mut violations = Vec::new();
        for (shard, store) in series.shards().iter().enumerate() {
            for (name, rule) in &rules {
                if let Some(message) = rule.check(store) {
                    violations.push(Violation {
                        rule: name,
                        message: format!("shard {shard} {message}"),
                    });
                }
            }
        }
        self.report(&violations, "watchdog.shard_slo_violation");
        if let Some(first) = violations.first() {
            if !self.health.is_degraded() {
                self.health.degrade(&first.message);
            }
        }
        violations
    }

    /// Counts each violation in `dds_watchdog_violations_total` and fires
    /// one `Warn` event named `event` per violation.
    fn report(&self, violations: &[Violation], event: &'static str) {
        if violations.is_empty() {
            return;
        }
        let counter = crate::metrics::global().counter("dds_watchdog_violations_total");
        for violation in violations {
            counter.inc();
            crate::event!(
                crate::Level::Warn,
                event,
                rule = violation.rule,
                detail = violation.message.clone(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn seeded_store(fill: impl Fn(&Registry)) -> (Registry, TimeSeriesStore) {
        let registry = Registry::new();
        let store = TimeSeriesStore::new(16);
        store.push(Duration::from_secs(0), registry.snapshot());
        fill(&registry);
        store.push(Duration::from_secs(10), registry.snapshot());
        (registry, store)
    }

    #[test]
    fn latency_ceiling_trips_and_recovers() {
        let watchdog = Watchdog::new(vec![SloRule::LatencyCeiling {
            histogram: "w_seconds".into(),
            quantile: 0.99,
            ceiling_seconds: 1e-4,
            window: Duration::from_secs(60),
        }]);
        watchdog.health().set_ready(true);

        let (registry, store) = seeded_store(|r| {
            for _ in 0..50 {
                r.histogram("w_seconds").observe(5e-3);
            }
        });
        let violations = watchdog.evaluate(&store);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "latency_ceiling");
        assert!(watchdog.health().is_degraded());
        assert!(watchdog.health().degraded_reason().unwrap().contains("w_seconds"));

        // A later window of fast observations clears the degradation.
        for _ in 0..500 {
            registry.histogram("w_seconds").observe(2e-6);
        }
        store.push(Duration::from_secs(70), registry.snapshot());
        assert!(watchdog.evaluate(&store).is_empty());
        assert!(!watchdog.health().is_degraded());
        assert!(watchdog.health().degraded_reason().is_none());
    }

    #[test]
    fn rate_spike_needs_both_factor_and_floor() {
        let rule = SloRule::RateSpike {
            counter: "w_total".into(),
            window: Duration::from_secs(10),
            baseline_window: Duration::from_secs(60),
            factor: 4.0,
            min_per_sec: 2.0,
        };
        // Steady growth: 10/s in both windows — no spike.
        let registry = Registry::new();
        let store = TimeSeriesStore::new(16);
        let counter = registry.counter("w_total");
        for t in 0..7u64 {
            store.push(Duration::from_secs(t * 10), registry.snapshot());
            counter.add(100);
        }
        assert_eq!(rule.check(&store), None);
        // A 100× burst in the final window trips it.
        counter.add(10_000);
        store.push(Duration::from_secs(70), registry.snapshot());
        let message = rule.check(&store).expect("spike detected");
        assert!(message.contains("w_total"), "{message}");
        // The same burst below the floor stays quiet.
        let quiet = SloRule::RateSpike {
            counter: "w_total".into(),
            window: Duration::from_secs(10),
            baseline_window: Duration::from_secs(60),
            factor: 4.0,
            min_per_sec: 1e9,
        };
        assert_eq!(quiet.check(&store), None);
    }

    #[test]
    fn error_budget_uses_windowed_ratio() {
        let watchdog = Watchdog::new(vec![SloRule::ErrorBudget {
            errors: "w_errors_total".into(),
            total: "w_requests_total".into(),
            max_ratio: 0.01,
            window: Duration::from_secs(60),
        }]);
        let (_registry, store) = seeded_store(|r| {
            r.counter("w_requests_total").add(1_000);
            r.counter("w_errors_total").add(100); // 10% — way over budget
        });
        let violations = watchdog.evaluate(&store);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "error_budget");
    }

    #[test]
    fn quarantine_budget_uses_offered_denominator() {
        let rule = SloRule::QuarantineBudget {
            quarantined: "w_quarantined_total".into(),
            accepted: "w_accepted_total".into(),
            max_ratio: 0.10,
            window: Duration::from_secs(60),
        };
        // 5% quarantine rate: within budget.
        let (registry, store) = seeded_store(|r| {
            r.counter("w_accepted_total").add(950);
            r.counter("w_quarantined_total").add(50);
        });
        assert_eq!(rule.check(&store), None);
        // A corrupt burst pushes the windowed ratio past 10%.
        registry.counter("w_quarantined_total").add(400);
        registry.counter("w_accepted_total").add(600);
        store.push(Duration::from_secs(20), registry.snapshot());
        let message = rule.check(&store).expect("budget breached");
        assert_eq!(
            message,
            "w_quarantined_total ratio 0.2250 of offered records exceeds quarantine budget 0.1000"
        );

        // Quarantines with a missing accepted counter still trip: the
        // denominator falls back to the quarantine rate alone.
        let (_r2, poisoned) = seeded_store(|r| {
            r.counter("w_quarantined_total").add(100);
        });
        assert!(rule.check(&poisoned).is_some());

        // No growth on either counter passes vacuously.
        let idle = TimeSeriesStore::new(4);
        assert_eq!(rule.check(&idle), None);
    }

    #[test]
    fn shed_budget_trips_on_overload_and_clears_when_idle() {
        let rule = SloRule::ShedBudget {
            shed: "w_shed_total".into(),
            accepted: "w_ingest_total".into(),
            max_ratio: 0.10,
            window: Duration::from_secs(60),
        };
        // 2% shed: a healthy gateway under mild bursts.
        let (registry, store) = seeded_store(|r| {
            r.counter("w_ingest_total").add(980);
            r.counter("w_shed_total").add(20);
        });
        assert_eq!(rule.check(&store), None);
        // Sustained overload sheds a third of offered records.
        registry.counter("w_shed_total").add(500);
        registry.counter("w_ingest_total").add(1_000);
        store.push(Duration::from_secs(20), registry.snapshot());
        let message = rule.check(&store).expect("budget breached");
        assert_eq!(
            message,
            "w_shed_total ratio 0.2080 of offered records exceeds shed budget 0.1000"
        );

        // A gateway shedding everything (accepted never grows) still trips.
        let (_r2, drowned) = seeded_store(|r| {
            r.counter("w_shed_total").add(100);
        });
        assert!(rule.check(&drowned).is_some());

        // No traffic at all passes vacuously.
        let idle = TimeSeriesStore::new(4);
        assert_eq!(rule.check(&idle), None);
    }

    #[test]
    fn drift_budget_trips_beyond_baseline_and_recovers() {
        let rule = SloRule::DriftBudget {
            drifted: "w_drifted_total".into(),
            clean: "w_clean_total".into(),
            max_ratio: 0.05,
            window: Duration::from_secs(60),
        };
        // 2% drifted records: within budget.
        let (registry, store) = seeded_store(|r| {
            r.counter("w_clean_total").add(980);
            r.counter("w_drifted_total").add(20);
        });
        assert_eq!(rule.check(&store), None);
        // A shifted stream drifts a quarter of examined records.
        registry.counter("w_drifted_total").add(250);
        registry.counter("w_clean_total").add(750);
        store.push(Duration::from_secs(20), registry.snapshot());
        let message = rule.check(&store).expect("budget breached");
        assert_eq!(
            message,
            "w_drifted_total ratio 0.1350 of examined records exceeds drift budget 0.0500"
        );

        // A stream where everything drifts (clean never grows) still trips.
        let (_r2, drowned) = seeded_store(|r| {
            r.counter("w_drifted_total").add(100);
        });
        assert!(rule.check(&drowned).is_some());

        // No traffic passes vacuously, and the standard rule set carries
        // the drift budget.
        let idle = TimeSeriesStore::new(4);
        assert_eq!(rule.check(&idle), None);
        assert!(Watchdog::standard_rules().iter().any(|r| r.name() == "drift_budget"));
    }

    #[test]
    fn missing_metrics_pass_vacuously() {
        let watchdog = Watchdog::new(Watchdog::standard_rules());
        let store = TimeSeriesStore::new(4);
        assert!(watchdog.evaluate(&store).is_empty());
        assert!(!watchdog.health().is_degraded());
    }

    #[test]
    fn shard_evaluation_names_the_offending_shard() {
        use crate::metrics::Histogram;
        use crate::timeseries::{ShardSample, ShardSeriesStore};

        let watchdog = Watchdog::new(Vec::new());
        let slo = ShardSlo::standard();
        let series = ShardSeriesStore::new(3, 8);
        // Seed every shard at t=0 with an empty sample.
        for shard in 0..3 {
            series.push(shard, Duration::from_secs(0), ShardSample::default());
        }
        // Shard 0 and 2 are healthy; shard 1 is wedged (slow batches,
        // heavy quarantine).
        let mut healthy = ShardSample { accepted: 1_000, batches: 4, ..ShardSample::default() };
        healthy.batch_buckets[Histogram::bucket_index(1e-3)] = 4;
        let mut wedged =
            ShardSample { accepted: 100, quarantined: 900, batches: 4, ..ShardSample::default() };
        wedged.batch_buckets[Histogram::bucket_index(20.0)] = 4;
        series.push(0, Duration::from_secs(10), healthy);
        series.push(1, Duration::from_secs(10), wedged);
        series.push(2, Duration::from_secs(10), healthy);

        let violations = watchdog.evaluate_shards(&series, &slo);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.message.contains("shard 1")), "{violations:?}");
        assert_eq!(violations[0].rule, "shard_latency_ceiling");
        assert_eq!(violations[1].rule, "shard_quarantine_budget");
        // The exact text operators read on /healthz and in the events.
        assert_eq!(
            violations[0].message,
            "shard 1 batch p99 = 33.554432s over 60s window exceeds ceiling 5.000000s"
        );
        assert_eq!(
            violations[1].message,
            "shard 1 quarantine ratio 0.9000 of offered records exceeds quarantine budget 0.1000"
        );
        assert!(watchdog.health().is_degraded());
        assert_eq!(watchdog.health().degraded_reason().as_deref(), Some(&*violations[0].message));
    }

    #[test]
    fn shard_evaluation_keeps_the_fleet_reason() {
        use crate::metrics::Histogram;
        use crate::timeseries::{ShardSample, ShardSeriesStore};

        // The fleet pass trips a quarantine budget...
        let watchdog = Watchdog::new(vec![SloRule::QuarantineBudget {
            quarantined: "w_quarantined_total".into(),
            accepted: "w_accepted_total".into(),
            max_ratio: 0.10,
            window: Duration::from_secs(60),
        }]);
        let (_registry, store) = seeded_store(|r| {
            r.counter("w_accepted_total").add(500);
            r.counter("w_quarantined_total").add(500);
        });
        let fleet = watchdog.evaluate(&store);
        assert_eq!(fleet.len(), 1, "{fleet:?}");
        // ...and the shard pass of the same tick finds a wedged shard.
        let series = ShardSeriesStore::new(2, 8);
        for shard in 0..2 {
            series.push(shard, Duration::from_secs(0), ShardSample::default());
        }
        let mut wedged = ShardSample { accepted: 1_000, batches: 4, ..ShardSample::default() };
        wedged.batch_buckets[Histogram::bucket_index(20.0)] = 4;
        series.push(1, Duration::from_secs(10), wedged);
        let shards = watchdog.evaluate_shards(&series, &ShardSlo::standard());
        assert_eq!(shards.len(), 1, "{shards:?}");
        assert!(shards[0].message.starts_with("shard 1 batch p99"), "{shards:?}");
        // The first violation of the tick, the fleet's, stays the reason.
        assert_eq!(watchdog.health().degraded_reason().as_deref(), Some(&*fleet[0].message));
    }

    #[test]
    fn shard_evaluation_is_degrade_only() {
        use crate::timeseries::ShardSeriesStore;

        let watchdog = Watchdog::new(Vec::new());
        watchdog.health().degrade("pre-existing fleet violation");
        // An empty shard store passes vacuously — but must NOT clear a
        // degradation set by the fleet-level pass.
        let series = ShardSeriesStore::new(2, 4);
        assert!(watchdog.evaluate_shards(&series, &ShardSlo::standard()).is_empty());
        assert!(watchdog.health().is_degraded());
    }

    #[test]
    fn health_state_defaults_to_not_ready() {
        let health = HealthState::new();
        assert!(!health.is_ready());
        health.set_ready(true);
        assert!(health.is_ready());
        health.set_ready(false);
        assert!(!health.is_ready());
    }
}
