//! Sliding-window time series over the metrics registry: a ring buffer of
//! periodic [`MetricsSnapshot`]s exposing window rates (alerts/min,
//! ingests/sec) and windowed latency quantiles.
//!
//! The raw registry only ever accumulates: counters and histogram buckets
//! are lifetime totals, which is the right exchange format for Prometheus
//! (it differentiates server-side) but useless for a watchdog that must
//! ask "what happened in the last minute?". [`TimeSeriesStore`] fills that
//! gap: a sampler calls [`sample`](TimeSeriesStore::sample) on a fixed
//! tick, the store keeps the last `capacity` snapshots, and window
//! queries subtract the snapshot at the window's left edge from the
//! newest one — counters become rates, cumulative histogram buckets
//! become a windowed histogram whose quantiles describe only recent
//! observations.
//!
//! [`ShardSeriesStore`] keeps one such store per shard, fed from
//! [`ShardSample`]s, so a shard's windows are answered by the same
//! queries as the fleet's.
//!
//! # Example
//!
//! ```
//! use dds_obs::metrics::Registry;
//! use dds_obs::timeseries::TimeSeriesStore;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let store = TimeSeriesStore::new(8);
//! registry.counter("dds_demo_events_total").add(10);
//! store.push(Duration::from_secs(0), registry.snapshot());
//! registry.counter("dds_demo_events_total").add(30);
//! store.push(Duration::from_secs(10), registry.snapshot());
//!
//! let rate = store.rate_per_sec("dds_demo_events_total", Duration::from_secs(60)).unwrap();
//! assert!((rate - 3.0).abs() < 1e-9); // 30 events over 10 s
//! ```

use crate::metrics::{quantile_from_buckets, HistogramSnapshot, MetricsSnapshot, Registry};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One retained sample: the registry state at `elapsed` since the store
/// was created.
#[derive(Debug, Clone)]
pub struct TimePoint {
    /// Time since the store's creation when the sample was taken.
    pub elapsed: Duration,
    /// The registry state at that instant.
    pub snapshot: MetricsSnapshot,
}

/// A bounded ring buffer of registry snapshots with window queries.
///
/// All methods take `&self`; the store is safe to share between a sampler
/// thread, the watchdog and HTTP scrape handlers.
#[derive(Debug)]
pub struct TimeSeriesStore {
    capacity: usize,
    start: Instant,
    points: Mutex<VecDeque<TimePoint>>,
}

impl TimeSeriesStore {
    /// Creates a store retaining the most recent `capacity` samples
    /// (minimum 2 — a window needs two edges).
    pub fn new(capacity: usize) -> Self {
        TimeSeriesStore {
            capacity: capacity.max(2),
            start: Instant::now(),
            points: Mutex::new(VecDeque::new()),
        }
    }

    /// Samples `registry` now. Call on a fixed tick.
    pub fn sample(&self, registry: &Registry) {
        self.push(self.start.elapsed(), registry.snapshot());
    }

    /// Appends a snapshot with an explicit timestamp (what
    /// [`sample`](TimeSeriesStore::sample) does with the wall clock;
    /// exposed so tests can drive deterministic timelines). Samples must
    /// be pushed in non-decreasing `elapsed` order.
    pub fn push(&self, elapsed: Duration, snapshot: MetricsSnapshot) {
        let mut points = self.points.lock().expect("timeseries poisoned");
        if points.len() == self.capacity {
            points.pop_front();
        }
        points.push_back(TimePoint { elapsed, snapshot });
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.points.lock().map(|p| p.len()).unwrap_or(0)
    }

    /// Whether no samples have been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<TimePoint> {
        self.points.lock().ok()?.back().cloned()
    }

    /// Runs `query` on the oldest retained sample no older than `window`
    /// before the newest one and on the newest, while holding the lock.
    /// `None` until two samples span a nonzero interval.
    fn with_edges<T>(
        &self,
        window: Duration,
        query: impl FnOnce(&TimePoint, &TimePoint) -> Option<T>,
    ) -> Option<T> {
        let points = self.points.lock().ok()?;
        let newest = points.back()?;
        let left_edge = newest.elapsed.saturating_sub(window);
        let oldest = points.iter().find(|p| p.elapsed >= left_edge)?;
        if newest.elapsed > oldest.elapsed {
            query(oldest, newest)
        } else {
            None
        }
    }

    /// Runs `interval` on each of the most recent `n` consecutive sample
    /// pairs, oldest first; pairs it cannot answer contribute `0.0`.
    fn interval_series(
        &self,
        n: usize,
        interval: impl Fn(&TimePoint, &TimePoint) -> Option<f64>,
    ) -> Vec<f64> {
        let Ok(points) = self.points.lock() else { return Vec::new() };
        let skip = points.len().saturating_sub(n + 1);
        points
            .iter()
            .skip(skip)
            .zip(points.iter().skip(skip + 1))
            .map(|(old, new)| interval(old, new).unwrap_or(0.0))
            .collect()
    }

    /// The increase of counter `name` over the trailing `window`, divided
    /// by the actually-covered interval, in events per second. A counter
    /// absent from the window's left edge was zero then (counters are
    /// born at zero); `None` until the newest sample covers the counter.
    pub fn rate_per_sec(&self, name: &str, window: Duration) -> Option<f64> {
        self.with_edges(window, |old, new| counter_rate(old, new, name))
    }

    /// [`rate_per_sec`](TimeSeriesStore::rate_per_sec) scaled to events
    /// per minute — the natural unit for alert rates.
    pub fn rate_per_min(&self, name: &str, window: Duration) -> Option<f64> {
        self.rate_per_sec(name, window).map(|r| r * 60.0)
    }

    /// The number of observations histogram `name` received over the
    /// trailing `window`. A histogram absent from the window's left edge
    /// had zero observations then.
    pub fn window_count(&self, name: &str, window: Duration) -> Option<u64> {
        self.with_edges(window, |old, new| {
            let new = new.snapshot.histogram(name)?;
            let old = old.snapshot.histogram(name).map_or(0, |h| h.count);
            Some(new.count.saturating_sub(old))
        })
    }

    /// The estimated `q`-quantile of histogram `name` over the trailing
    /// `window`: bucket counts at the window's left edge are subtracted
    /// from the newest ones, so old observations stop dragging the
    /// estimate. A histogram absent from the left edge had empty buckets
    /// then. `None` when the window saw no observations.
    pub fn window_quantile(&self, name: &str, window: Duration, q: f64) -> Option<f64> {
        self.with_edges(window, |old, new| bucket_quantile(old, new, name, q))
    }

    /// Per-interval rates of counter `name` over the most recent `n`
    /// consecutive sample pairs, oldest first — the sparkline feed.
    /// Intervals where the counter is absent (or time stands still)
    /// contribute `0.0`; a store with fewer than two samples yields an
    /// empty series.
    pub fn rate_series(&self, name: &str, n: usize) -> Vec<f64> {
        self.interval_series(n, |old, new| counter_rate(old, new, name))
    }

    /// Per-interval `q`-quantiles of histogram `name` over the most
    /// recent `n` consecutive sample pairs, oldest first. Intervals with
    /// no observations contribute `0.0` (a flat-zero sparkline segment,
    /// not a hole).
    pub fn quantile_series(&self, name: &str, n: usize, q: f64) -> Vec<f64> {
        self.interval_series(n, |old, new| bucket_quantile(old, new, name, q))
    }
}

/// The increase of counter `name` from `old` to `new` per second between
/// them. A counter absent from `old` was zero then; `None` when `new`
/// lacks the counter or no time passed.
fn counter_rate(old: &TimePoint, new: &TimePoint, name: &str) -> Option<f64> {
    let increase = new
        .snapshot
        .counter_value(name)?
        .saturating_sub(old.snapshot.counter_value(name).unwrap_or(0));
    let dt = new.elapsed.saturating_sub(old.elapsed).as_secs_f64();
    (dt > 0.0).then(|| increase as f64 / dt)
}

/// The `q`-quantile of the observations histogram `name` gained from `old`
/// to `new`: `old`'s bucket counts (empty if absent) are subtracted from
/// `new`'s. `None` when `new` lacks the histogram or gained nothing.
fn bucket_quantile(old: &TimePoint, new: &TimePoint, name: &str, q: f64) -> Option<f64> {
    let new = new.snapshot.histogram(name)?;
    let old = old.snapshot.histogram(name);
    let buckets: Vec<u64> = new
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &n)| n.saturating_sub(old.map_or(0, |h| h.buckets[i])))
        .collect();
    quantile_from_buckets(&buckets, q)
}

/// Name of the counter of records past a shard's quality gate, in that
/// shard's [`ShardSeriesStore`] store.
pub const SHARD_ACCEPTED: &str = "accepted";
/// Name of the counter of records a shard's quality gate quarantined.
pub const SHARD_QUARANTINE: &str = "quarantine";
/// Name of the counter of alerts a shard emitted.
pub const SHARD_ALERTS: &str = "alerts";
/// Name of the histogram of a shard's per-batch worker durations, in
/// seconds.
pub const SHARD_BATCH: &str = "batch";

/// One per-shard cumulative sample, published by the serve loop from
/// [`ShardStatus`]-style worker state after every ingested batch tick.
/// All fields are lifetime totals — window queries subtract edges, the
/// same discipline as [`MetricsSnapshot`] counters.
///
/// [`ShardStatus`]: https://docs.rs/dds-monitor
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardSample {
    /// Records past this shard's quality gate (lifetime).
    pub accepted: u64,
    /// Records quarantined by this shard's quality gate (lifetime).
    pub quarantined: u64,
    /// Alerts this shard has emitted (lifetime).
    pub alerts: u64,
    /// Batches this shard's worker has processed (lifetime).
    pub batches: u64,
    /// Cumulative per-batch worker-duration histogram buckets, in the
    /// registry's log-scale layout ([`crate::metrics::HISTOGRAM_BUCKETS`]
    /// buckets, indexed by [`crate::metrics::Histogram::bucket_index`]).
    pub batch_buckets: [u64; crate::metrics::HISTOGRAM_BUCKETS],
}

impl ShardSample {
    /// The sample as a snapshot of a shard's four series. The batch
    /// histogram carries no duration sum: the workers keep none.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for (name, value) in [
            (SHARD_ACCEPTED, self.accepted),
            (SHARD_QUARANTINE, self.quarantined),
            (SHARD_ALERTS, self.alerts),
        ] {
            snapshot.counters.insert(name.to_string(), value);
        }
        let batch = HistogramSnapshot {
            count: self.batches,
            sum: 0.0,
            buckets: self.batch_buckets.to_vec(),
        };
        snapshot.histograms.insert(SHARD_BATCH.to_string(), batch);
        snapshot
    }
}

/// Per-shard sliding windows: one [`TimeSeriesStore`] per shard, holding
/// the series [`SHARD_ACCEPTED`], [`SHARD_QUARANTINE`], [`SHARD_ALERTS`]
/// and [`SHARD_BATCH`]. A shard's windows answer the same queries as the
/// fleet's, so the watchdog and `/timeseries` can name *which* shard is
/// slow, shedding work to quarantine, or spiking alerts.
///
/// All methods take `&self`; the store is shared between the serve loop
/// (writer) and HTTP scrape handlers (readers).
#[derive(Debug)]
pub struct ShardSeriesStore {
    start: Instant,
    shards: Vec<TimeSeriesStore>,
}

impl ShardSeriesStore {
    /// Creates a store for `shards` shards, each retaining the most
    /// recent `capacity` samples (minimum 2 — a window needs two edges).
    pub fn new(shards: usize, capacity: usize) -> Self {
        ShardSeriesStore {
            start: Instant::now(),
            shards: (0..shards.max(1)).map(|_| TimeSeriesStore::new(capacity)).collect(),
        }
    }

    /// Every shard's store, indexed by shard.
    pub fn shards(&self) -> &[TimeSeriesStore] {
        &self.shards
    }

    /// Samples one shard now (wall clock). Out-of-range shards are
    /// ignored.
    pub fn sample(&self, shard: usize, sample: ShardSample) {
        self.push(shard, self.start.elapsed(), sample);
    }

    /// Appends a sample with an explicit timestamp (the deterministic
    /// hook tests drive; [`sample`](ShardSeriesStore::sample) is the
    /// wall-clock wrapper). Samples must arrive in non-decreasing
    /// `elapsed` order per shard. Out-of-range shards are ignored.
    pub fn push(&self, shard: usize, elapsed: Duration, sample: ShardSample) {
        if let Some(store) = self.shards.get(shard) {
            store.push(elapsed, sample.snapshot());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with_counter(name: &str, value: u64) -> MetricsSnapshot {
        let registry = Registry::new();
        registry.counter(name).add(value);
        registry.snapshot()
    }

    #[test]
    fn rates_use_the_covered_interval() {
        let store = TimeSeriesStore::new(16);
        for (t, v) in [(0u64, 0u64), (5, 10), (10, 40)] {
            store.push(Duration::from_secs(t), snapshot_with_counter("c_total", v));
        }
        // Full window: 40 events over 10 s.
        let r = store.rate_per_sec("c_total", Duration::from_secs(60)).unwrap();
        assert!((r - 4.0).abs() < 1e-12);
        // 5 s window: 30 events over the last 5 s.
        let r = store.rate_per_sec("c_total", Duration::from_secs(5)).unwrap();
        assert!((r - 6.0).abs() < 1e-12);
        assert!(
            (store.rate_per_min("c_total", Duration::from_secs(5)).unwrap() - 360.0).abs() < 1e-9
        );
        // Unknown counters and single-sample stores yield None.
        assert_eq!(store.rate_per_sec("missing_total", Duration::from_secs(5)), None);
        let single = TimeSeriesStore::new(4);
        single.push(Duration::ZERO, snapshot_with_counter("c_total", 1));
        assert_eq!(single.rate_per_sec("c_total", Duration::from_secs(5)), None);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let store = TimeSeriesStore::new(3);
        for t in 0..10u64 {
            store.push(Duration::from_secs(t), snapshot_with_counter("c_total", t * 10));
        }
        assert_eq!(store.len(), 3);
        // Only samples at t = 7, 8, 9 remain; a huge window clamps to them.
        let r = store.rate_per_sec("c_total", Duration::from_secs(3600)).unwrap();
        assert!((r - 10.0).abs() < 1e-12);
        assert_eq!(store.latest().unwrap().elapsed, Duration::from_secs(9));
    }

    #[test]
    fn window_quantiles_ignore_old_observations() {
        let registry = Registry::new();
        let h = registry.histogram("h_seconds");
        // Epoch 1: slow observations.
        for _ in 0..100 {
            h.observe(1.5e-3);
        }
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(0), registry.snapshot());
        // Epoch 2: fast observations only.
        for _ in 0..100 {
            h.observe(3e-6);
        }
        store.push(Duration::from_secs(10), registry.snapshot());

        // Lifetime p99 is slow; the 10 s window's p99 is fast.
        let lifetime = registry.snapshot().histogram("h_seconds").unwrap().quantile(0.99).unwrap();
        assert!(lifetime > 1e-3);
        let windowed = store.window_quantile("h_seconds", Duration::from_secs(10), 0.99).unwrap();
        assert!(windowed <= 4e-6, "windowed p99 {windowed}");
        assert_eq!(store.window_count("h_seconds", Duration::from_secs(10)), Some(100));
    }

    #[test]
    fn sample_reads_a_live_registry() {
        let registry = Registry::new();
        registry.counter("s_total").add(5);
        let store = TimeSeriesStore::new(4);
        store.sample(&registry);
        assert_eq!(store.len(), 1);
        assert_eq!(store.latest().unwrap().snapshot.counter_value("s_total"), Some(5));
    }

    // --- edge cases: empty windows, single samples, saturation, time ---

    #[test]
    fn empty_store_answers_none_everywhere() {
        let store = TimeSeriesStore::new(8);
        let w = Duration::from_secs(60);
        assert!(store.is_empty());
        assert_eq!(store.rate_per_sec("c_total", w), None);
        assert_eq!(store.rate_per_min("c_total", w), None);
        assert_eq!(store.window_count("h_seconds", w), None);
        assert_eq!(store.window_quantile("h_seconds", w, 0.99), None);
        assert!(store.latest().is_none());
        assert!(store.rate_series("c_total", 8).is_empty());
        assert!(store.quantile_series("h_seconds", 8, 0.5).is_empty());
    }

    #[test]
    fn single_sample_yields_no_window_but_quantiles_need_only_one_observation() {
        // A single snapshot cannot span a window: every windowed query is
        // None, even though the snapshot itself holds data.
        let registry = Registry::new();
        registry.counter("c_total").add(10);
        registry.histogram("h_seconds").observe(1e-4);
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(5), registry.snapshot());
        let w = Duration::from_secs(60);
        assert_eq!(store.rate_per_sec("c_total", w), None);
        assert_eq!(store.window_quantile("h_seconds", w, 0.5), None);
        // With a second (empty-at-birth) edge, one observation is enough
        // for every quantile: p0 through p100 all land in its bucket.
        let fresh = TimeSeriesStore::new(8);
        fresh.push(Duration::from_secs(0), Registry::new().snapshot());
        fresh.push(Duration::from_secs(5), registry.snapshot());
        let p50 = fresh.window_quantile("h_seconds", w, 0.5).unwrap();
        let p99 = fresh.window_quantile("h_seconds", w, 0.99).unwrap();
        assert_eq!(p50, p99, "a single observation pins every quantile to its bucket");
        assert_eq!(fresh.window_count("h_seconds", w), Some(1));
    }

    #[test]
    fn window_clamps_to_retained_samples_after_ring_saturation() {
        // 100 samples through a 4-slot ring: only t = 96..=99 survive.
        let store = TimeSeriesStore::new(4);
        for t in 0..100u64 {
            store.push(Duration::from_secs(t), snapshot_with_counter("c_total", t * 7));
        }
        assert_eq!(store.len(), 4);
        // A window wider than the retained span clamps to what is left —
        // the rate reflects the survivors, not the evicted history.
        let r = store.rate_per_sec("c_total", Duration::from_secs(1_000_000)).unwrap();
        assert!((r - 7.0).abs() < 1e-12);
        // A narrow window still selects inside the retained tail.
        let r = store.rate_per_sec("c_total", Duration::from_secs(1)).unwrap();
        assert!((r - 7.0).abs() < 1e-12);
        // Series requests clamp the same way: at most len-1 intervals.
        assert_eq!(store.rate_series("c_total", 50).len(), 3);
    }

    #[test]
    fn stalled_clocks_and_counter_regressions_never_panic_or_go_negative() {
        // Two samples at the same instant: no interval, no rate.
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(3), snapshot_with_counter("c_total", 10));
        store.push(Duration::from_secs(3), snapshot_with_counter("c_total", 20));
        assert_eq!(store.rate_per_sec("c_total", Duration::from_secs(60)), None);
        assert_eq!(store.rate_series("c_total", 8), vec![0.0]);

        // A counter that goes backwards (process restart behind the same
        // store) clamps to zero instead of reporting a negative rate.
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(0), snapshot_with_counter("c_total", 1_000));
        store.push(Duration::from_secs(10), snapshot_with_counter("c_total", 50));
        let r = store.rate_per_sec("c_total", Duration::from_secs(60)).unwrap();
        assert_eq!(r, 0.0);
        assert!(store.rate_series("c_total", 8).iter().all(|&v| v >= 0.0));
    }

    // --- per-shard series ---

    fn shard_sample(accepted: u64, quarantined: u64, alerts: u64, batch_ms: &[f64]) -> ShardSample {
        let mut sample = ShardSample {
            accepted,
            quarantined,
            alerts,
            batches: batch_ms.len() as u64,
            ..ShardSample::default()
        };
        for &ms in batch_ms {
            sample.batch_buckets[crate::metrics::Histogram::bucket_index(ms * 1e-3)] += 1;
        }
        sample
    }

    #[test]
    fn shard_series_windows_are_per_shard() {
        let store = ShardSeriesStore::new(2, 8);
        assert_eq!(store.shards().len(), 2);
        // Shard 0: steady fast batches. Shard 1: slow, quarantining.
        store.push(0, Duration::from_secs(0), shard_sample(0, 0, 0, &[]));
        store.push(1, Duration::from_secs(0), shard_sample(0, 0, 0, &[]));
        store.push(0, Duration::from_secs(10), shard_sample(1_000, 0, 5, &[1.0, 1.0]));
        store.push(1, Duration::from_secs(10), shard_sample(100, 400, 60, &[500.0, 900.0]));

        let w = Duration::from_secs(60);
        let [fast, slow] = store.shards() else { panic!("two shards") };
        assert!((fast.rate_per_sec(SHARD_ACCEPTED, w).unwrap() - 100.0).abs() < 1e-9);
        assert!((slow.rate_per_sec(SHARD_ACCEPTED, w).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(fast.rate_per_sec(SHARD_QUARANTINE, w), Some(0.0));
        assert!((slow.rate_per_sec(SHARD_QUARANTINE, w).unwrap() - 40.0).abs() < 1e-9);
        assert!((slow.rate_per_min(SHARD_ALERTS, w).unwrap() - 360.0).abs() < 1e-9);
        // The slow shard's p99 is ~1000x the fast shard's.
        let fast_p99 = fast.window_quantile(SHARD_BATCH, w, 0.99).unwrap();
        let slow_p99 = slow.window_quantile(SHARD_BATCH, w, 0.99).unwrap();
        assert!(slow_p99 > 100.0 * fast_p99, "fast {fast_p99}, slow {slow_p99}");
        // Sparkline series come from consecutive intervals.
        assert_eq!(fast.rate_series(SHARD_ACCEPTED, 8), vec![100.0]);
    }

    #[test]
    fn shard_series_edge_cases_mirror_the_fleet_store() {
        let store = ShardSeriesStore::new(1, 4);
        let shard = &store.shards()[0];
        let w = Duration::from_secs(60);
        // Empty and single-sample shards answer None.
        assert!(shard.is_empty());
        assert_eq!(shard.rate_per_sec(SHARD_ACCEPTED, w), None);
        store.push(0, Duration::from_secs(1), shard_sample(10, 0, 0, &[1.0]));
        assert_eq!(shard.rate_per_sec(SHARD_ACCEPTED, w), None);
        assert_eq!(shard.window_quantile(SHARD_BATCH, w, 0.5), None);
        // Out-of-range shards are inert, not panics: the push lands
        // nowhere and there is no store to query.
        store.push(9, Duration::from_secs(2), ShardSample::default());
        assert!(store.shards().get(9).is_none());
        assert_eq!(shard.len(), 1);
        // Saturation: the ring keeps the newest `capacity` samples.
        for t in 2..20u64 {
            store.push(0, Duration::from_secs(t), shard_sample(t * 10, 0, 0, &[]));
        }
        assert_eq!(shard.len(), 4);
        let r = shard.rate_per_sec(SHARD_ACCEPTED, Duration::from_secs(1_000_000)).unwrap();
        assert!((r - 10.0).abs() < 1e-9);
        // A stalled clock yields no window...
        let stalled = ShardSeriesStore::new(1, 4);
        stalled.push(0, Duration::from_secs(5), shard_sample(10, 0, 0, &[]));
        stalled.push(0, Duration::from_secs(5), shard_sample(20, 0, 0, &[]));
        assert_eq!(stalled.shards()[0].rate_per_sec(SHARD_ACCEPTED, w), None);
        // ...and a cumulative-count regression clamps to zero.
        let reset = ShardSeriesStore::new(1, 4);
        reset.push(0, Duration::from_secs(0), shard_sample(500, 0, 0, &[]));
        reset.push(0, Duration::from_secs(10), shard_sample(50, 0, 0, &[]));
        assert_eq!(reset.shards()[0].rate_per_sec(SHARD_ACCEPTED, w), Some(0.0));
    }
}
