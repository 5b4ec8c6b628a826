//! A lock-light metrics registry: counters, gauges and fixed log-scale
//! histograms, exported as JSON or Prometheus-style text.
//!
//! Registration (name → handle lookup) takes a mutex; **updates never
//! do** — every metric is one or a few atomics, so hot paths that cache
//! their [`Counter`]/[`Gauge`]/[`Histogram`] handles pay a relaxed atomic
//! op per update. [`Registry::reset`] zeroes values but keeps
//! registrations, so cached handles stay valid across test runs.
//!
//! # Naming convention
//!
//! Every workspace metric follows `dds_<area>_<what>_<unit>` (also
//! documented in `DESIGN.md`). Names are Prometheus-compatible
//! (`[a-z0-9_]`), and the suffix encodes the metric class:
//!
//! - **Counters** end in `_total` and only ever increase:
//!   `dds_monitor_alerts_critical_total`,
//!   `dds_monitor_records_ingested_total`.
//! - **Gauges** carry a bare unit (or none for dimensionless values):
//!   `dds_monitor_drives_tracked`, `dds_uptime_seconds`.
//! - **Histograms** end in their unit, conventionally `_seconds` for
//!   durations: `dds_pipeline_predict_seconds`. Derived quantile gauges
//!   published by [`publish_quantile_gauges`] append `_p50`/`_p95`/`_p99`
//!   to the histogram name (`dds_pipeline_predict_seconds_p99`).
//! - **Info metrics** ([`Registry::info`]) end in `_info`, always export
//!   the value `1`, and carry their payload as labels — the Prometheus
//!   idiom for build attribution: `dds_build_info{version="0.1.0",
//!   git_sha="abc123"} 1`. `dds_build_info` and `dds_uptime_seconds` are
//!   registered by every `dds` binary entry point so any scrape can be
//!   attributed to a build and a process start.
//!
//! # Example
//!
//! ```
//! use dds_obs::metrics;
//!
//! let registry = metrics::Registry::new();
//! registry.counter("dds_example_events_total").add(3);
//! registry.gauge("dds_example_depth").set(2.5);
//! registry.histogram("dds_example_seconds").observe(0.004);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter_value("dds_example_events_total"), Some(3));
//! assert_eq!(snapshot.gauge_value("dds_example_depth"), Some(2.5));
//! assert!(dds_obs::json::validate(&snapshot.to_json()).is_ok());
//! assert!(snapshot.to_prometheus().contains("dds_example_seconds_bucket"));
//! ```

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter (one atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge holding one `f64` (stored as bits in one atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) with a compare-exchange loop.
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.0.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// An info-style metric: a constant `1` whose payload lives in its labels
/// (the Prometheus idiom for build/version attribution). Labels are set
/// once at startup and survive [`Registry::reset`].
#[derive(Debug, Default)]
pub struct Info {
    labels: Mutex<Vec<(String, String)>>,
}

impl Info {
    /// Replaces the label set.
    pub fn set(&self, labels: &[(&str, &str)]) {
        let mut slot = self.labels.lock().expect("info labels poisoned");
        *slot = labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    }

    /// A copy of the current labels.
    pub fn labels(&self) -> Vec<(String, String)> {
        self.labels.lock().map(|l| l.clone()).unwrap_or_default()
    }
}

/// Number of histogram buckets (the last one is the `+Inf` overflow).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Smallest bucket upper bound. Buckets are log-scale: bucket `i` counts
/// observations in `(HISTOGRAM_BASE·2^(i−1), HISTOGRAM_BASE·2^i]`, so the
/// default base of 1 µs spans 1 µs … ~2000 s before overflowing.
pub const HISTOGRAM_BASE: f64 = 1e-6;

/// A histogram with fixed log-scale (powers-of-two) buckets.
///
/// Updates are three relaxed atomic ops (bucket, count, sum); no locks.
/// Designed for durations in seconds but accepts any non-negative `f64`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The upper bound of bucket `i`; `f64::INFINITY` for the last bucket.
    pub fn bucket_upper_bound(i: usize) -> f64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            f64::INFINITY
        } else {
            HISTOGRAM_BASE * f64::from(2u32).powi(i as i32)
        }
    }

    /// The bucket a value falls into — the inverse of
    /// [`bucket_upper_bound`](Histogram::bucket_upper_bound). Public so
    /// external accumulators (per-shard batch-duration rings) can build
    /// histogram-compatible bucket arrays that
    /// [`quantile_from_buckets`] understands.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value <= HISTOGRAM_BASE {
            // Covers tiny, zero, negative and NaN observations.
            return 0;
        }
        let idx = (value / HISTOGRAM_BASE).log2().ceil();
        if idx >= (HISTOGRAM_BUCKETS - 1) as f64 {
            HISTOGRAM_BUCKETS - 1
        } else {
            idx as usize
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(value);
    }

    /// Records many observations at once from a local accumulator: `buckets`
    /// counts them by [`bucket_index`](Histogram::bucket_index) and `sum`
    /// adds them up. A hot loop tallies into a plain array and publishes it
    /// here once per batch, so it shares no cache line per observation.
    ///
    /// ```
    /// use dds_obs::metrics::{Histogram, HISTOGRAM_BUCKETS};
    ///
    /// let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    /// let mut sum = 0.0;
    /// for seconds in [0.001, 0.002, 0.004] {
    ///     buckets[Histogram::bucket_index(seconds)] += 1;
    ///     sum += seconds;
    /// }
    /// let histogram = Histogram::default();
    /// histogram.observe_buckets(&buckets, sum);
    /// assert_eq!(histogram.count(), 3);
    /// assert!((histogram.sum() - 0.007).abs() < 1e-12);
    /// ```
    pub fn observe_buckets(&self, buckets: &[u64; HISTOGRAM_BUCKETS], sum: f64) {
        let mut count = 0;
        for (bucket, &n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
                count += n;
            }
        }
        if count > 0 {
            self.count.fetch_add(count, Ordering::Relaxed);
            self.add_sum(sum);
        }
    }

    fn add_sum(&self, value: f64) {
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) of the observations summarized
/// by per-bucket counts aligned with [`Histogram::bucket_upper_bound`].
///
/// The rank convention matches `sorted[ceil(q·n) − 1]`: the estimate lands
/// in the same bucket as the true order statistic and interpolates
/// linearly inside it, so the error is bounded by the bucket width (a
/// factor of 2 on the log-scale layout). The overflow bucket has no upper
/// bound, so ranks falling there return its lower bound. Returns `None`
/// when no observations were recorded.
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> Option<f64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if cumulative + n >= rank {
            let lo = if i == 0 { 0.0 } else { Histogram::bucket_upper_bound(i - 1) };
            let hi = Histogram::bucket_upper_bound(i);
            if !hi.is_finite() {
                return Some(lo);
            }
            let fraction = (rank - cumulative) as f64 / n as f64;
            return Some(lo + fraction * (hi - lo));
        }
        cumulative += n;
    }
    None
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Info(Arc<Info>),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
            Entry::Info(_) => "info",
        }
    }
}

/// A named collection of metrics.
///
/// Use [`global`] for the process-wide registry the workspace
/// instrumentation reports into, or construct private registries for
/// tests.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry(&self, name: &str, make: impl FnOnce() -> Entry) -> Entry {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        entries.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Returns (registering on first use) the counter called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.entry(name, || Entry::Counter(Arc::new(Counter::default()))) {
            Entry::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns (registering on first use) the gauge called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.entry(name, || Entry::Gauge(Arc::new(Gauge::default()))) {
            Entry::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns (registering on first use) the histogram called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.entry(name, || Entry::Histogram(Arc::new(Histogram::default()))) {
            Entry::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns (registering on first use) the info metric called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn info(&self, name: &str) -> Arc<Info> {
        match self.entry(name, || Entry::Info(Arc::new(Info::default()))) {
            Entry::Info(i) => i,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Zeroes every metric's value while keeping all registrations, so
    /// handles cached by instrumented code remain live. Intended for test
    /// isolation around a shared [`global`] registry.
    pub fn reset(&self) {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        for entry in entries.values() {
            match entry {
                Entry::Counter(c) => c.reset(),
                Entry::Gauge(g) => g.reset(),
                Entry::Histogram(h) => h.reset(),
                // Info labels describe the build/process, not a run.
                Entry::Info(_) => {}
            }
        }
    }

    /// Takes a point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut snapshot = MetricsSnapshot::default();
        for (name, entry) in entries.iter() {
            match entry {
                Entry::Counter(c) => {
                    snapshot.counters.insert(name.clone(), c.get());
                }
                Entry::Gauge(g) => {
                    snapshot.gauges.insert(name.clone(), g.get());
                }
                Entry::Histogram(h) => {
                    snapshot.histograms.insert(name.clone(), h.snapshot());
                }
                Entry::Info(i) => {
                    snapshot.infos.insert(name.clone(), i.labels());
                }
            }
        }
        snapshot
    }
}

/// Computes p50/p95/p99 for every histogram in `registry` that has
/// observations and publishes them as `<histogram>_p50` / `_p95` / `_p99`
/// gauges in the same registry, so plain gauge scrapes carry latency
/// quantiles without the scraper having to integrate buckets itself.
pub fn publish_quantile_gauges(registry: &Registry) {
    let snapshot = registry.snapshot();
    for (name, hist) in &snapshot.histograms {
        for (q, suffix) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            if let Some(value) = quantile_from_buckets(&hist.buckets, q) {
                registry.gauge(&format!("{name}_{suffix}")).set(value);
            }
        }
    }
}

/// The process-wide registry that workspace instrumentation reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Per-bucket observation counts (not cumulative), aligned with
    /// [`Histogram::bucket_upper_bound`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Estimated `q`-quantile from the bucket counts (see
    /// [`quantile_from_buckets`] for the error bound).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.buckets, q)
    }
}

/// Point-in-time copy of a [`Registry`], exportable as JSON or
/// Prometheus-style text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Info-metric labels by name.
    pub infos: BTreeMap<String, Vec<(String, String)>>,
}

impl MetricsSnapshot {
    /// The value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// One histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as one JSON document.
    ///
    /// Histogram buckets appear as `{"le": <upper bound>, "count": n}`
    /// objects (zero-count buckets omitted); the overflow bucket's bound
    /// renders as `null` since JSON has no infinity.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {value}", json::escape(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json::escape(name), json::number(*value)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, hist) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json::escape(name),
                hist.count,
                json::number(hist.sum)
            ));
            let mut first_bucket = true;
            for (i, &count) in hist.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push_str(", ");
                }
                first_bucket = false;
                out.push_str(&format!(
                    "{{\"le\": {}, \"count\": {count}}}",
                    json::number(Histogram::bucket_upper_bound(i))
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  },\n  \"infos\": {");
        first = true;
        for (name, labels) in &self.infos {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {{", json::escape(name)));
            let mut first_label = true;
            for (key, value) in labels {
                if !first_label {
                    out.push_str(", ");
                }
                first_label = false;
                out.push_str(&format!("\"{}\": \"{}\"", json::escape(key), json::escape(value)));
            }
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` comments, cumulative `_bucket{le="…"}` histogram series,
    /// `_sum` and `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, labels) in &self.infos {
            // Info metrics render as a constant-1 gauge carrying its
            // payload in labels (label values get JSON-style escaping,
            // which matches the Prometheus text format's rules).
            out.push_str(&format!("# TYPE {name} gauge\n{name}{{"));
            for (i, (key, value)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{key}=\"{}\"", json::escape(value)));
            }
            out.push_str("} 1\n");
        }
        for (name, hist) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &count) in hist.buckets.iter().enumerate() {
                cumulative += count;
                if count == 0 && i + 1 < hist.buckets.len() {
                    continue;
                }
                let bound = Histogram::bucket_upper_bound(i);
                let le = if bound.is_finite() { format!("{bound}") } else { "+Inf".to_string() };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", hist.sum, hist.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_accumulate() {
        let registry = Registry::new();
        let c = registry.counter("t_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying atomic.
        registry.counter("t_total").inc();
        assert_eq!(c.get(), 6);

        let g = registry.gauge("t_gauge");
        g.set(2.0);
        g.add(-0.5);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1e-6), 0);
        // 3 µs sits in (2 µs, 4 µs] → bucket 2.
        assert_eq!(Histogram::bucket_index(3e-6), 2);
        assert_eq!(Histogram::bucket_index(1e12), HISTOGRAM_BUCKETS - 1);
        assert!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1).is_infinite());

        let h = Histogram::default();
        h.observe(3e-6);
        h.observe(3e-6);
        h.observe(1e12);
        assert_eq!(h.count(), 3);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert!(snap.mean().unwrap() > 1e11);
    }

    #[test]
    fn reset_keeps_handles_live() {
        let registry = Registry::new();
        let c = registry.counter("t_reset_total");
        c.add(7);
        registry.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(registry.snapshot().counter_value("t_reset_total"), Some(1));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("t_kind");
        registry.gauge("t_kind");
    }

    #[test]
    fn snapshot_exports_valid_json_and_prometheus() {
        let registry = Registry::new();
        registry.counter("t_events_total").add(2);
        registry.gauge("t_depth").set(1.25);
        let h = registry.histogram("t_seconds");
        h.observe(0.003);
        h.observe(250.0);
        let snap = registry.snapshot();

        let jsonned = snap.to_json();
        crate::json::validate(&jsonned).unwrap();
        assert!(jsonned.contains("\"t_events_total\": 2"));

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE t_events_total counter"));
        assert!(prom.contains("t_events_total 2"));
        assert!(prom.contains("t_depth 1.25"));
        assert!(prom.contains("le=\"+Inf\"} 2"));
        assert!(prom.contains("t_seconds_count 2"));
    }

    #[test]
    fn info_metric_exports_labels() {
        let registry = Registry::new();
        registry.info("t_build_info").set(&[("version", "0.1.0"), ("git_sha", "abc123")]);
        registry.counter("t_info_events_total").inc();
        let snap = registry.snapshot();

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE t_build_info gauge"));
        assert!(prom.contains("t_build_info{version=\"0.1.0\",git_sha=\"abc123\"} 1"));

        let jsonned = snap.to_json();
        crate::json::validate(&jsonned).unwrap();
        assert!(jsonned.contains("\"t_build_info\": {\"version\": \"0.1.0\""));

        // Reset keeps the labels: they describe the build, not a run.
        registry.reset();
        assert_eq!(registry.info("t_build_info").labels().len(), 2);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        assert_eq!(quantile_from_buckets(&[0; HISTOGRAM_BUCKETS], 0.5), None);
        let h = Histogram::default();
        // 90 fast observations in (2 µs, 4 µs], 10 slow in (1 ms, 2 ms].
        for _ in 0..90 {
            h.observe(3e-6);
        }
        for _ in 0..10 {
            h.observe(1.5e-3);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        assert!((2e-6..=4e-6).contains(&p50), "p50 {p50}");
        let p95 = snap.quantile(0.95).unwrap();
        assert!((1e-3..=2e-3).contains(&p95), "p95 {p95}");
        // Quantiles are monotone in q.
        assert!(snap.quantile(0.99).unwrap() >= p95);
        // The overflow bucket returns its lower bound.
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        buckets[HISTOGRAM_BUCKETS - 1] = 4;
        let p = quantile_from_buckets(&buckets, 0.5).unwrap();
        assert_eq!(p, Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 2));
    }

    #[test]
    fn publish_quantile_gauges_adds_pxx_gauges() {
        let registry = Registry::new();
        let h = registry.histogram("t_q_seconds");
        for _ in 0..100 {
            h.observe(3e-6);
        }
        publish_quantile_gauges(&registry);
        let snap = registry.snapshot();
        for suffix in ["p50", "p95", "p99"] {
            let v = snap.gauge_value(&format!("t_q_seconds_{suffix}")).unwrap();
            assert!((2e-6..=4e-6).contains(&v), "{suffix} = {v}");
        }
        assert!(snap.to_prometheus().contains("# TYPE t_q_seconds_p99 gauge"));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let registry = Registry::new();
        let c = registry.counter("t_par_total");
        let h = registry.histogram("t_par_seconds");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                        h.observe(1e-5);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
        assert_eq!(h.count(), 4_000);
        assert!((h.sum() - 4_000.0 * 1e-5).abs() < 1e-9);
    }
}
