//! Zero-dependency observability for the `dds` workspace: structured
//! tracing, a lock-light metrics registry, and stage profiling.
//!
//! The workspace builds without crates.io access, so this crate provides
//! the pieces that `tracing` + `metrics` + a profiler would normally
//! supply, scoped to what the disk-degradation pipeline actually needs:
//!
//! - [`trace`] — a span/event facade ([`span!`]/[`event!`] macros with
//!   levels and key-value fields) dispatching to one pluggable global
//!   [`Subscriber`](trace::Subscriber). With no subscriber installed (the
//!   null state), every instrumentation site costs a single relaxed
//!   atomic load and evaluates no field expressions — which is what lets
//!   the bit-for-bit determinism suites run with instrumentation
//!   compiled in.
//! - [`subscribers`] — the stderr pretty-printer, the JSON-lines writer
//!   behind `--trace-json`, an in-memory capturer for tests, and a tee.
//! - [`metrics`] — counters, gauges and log-scale histograms registered
//!   by name in a process-global [`Registry`](metrics::Registry);
//!   snapshots export as JSON or Prometheus-style text.
//! - [`profile`] — a [`StageProfiler`](profile::StageProfiler)
//!   subscriber aggregating per-stage wall time, call counts, latency
//!   quantiles and allocation counts.
//! - [`alloc`] — the opt-in [`CountingAllocator`] feeding span
//!   allocation deltas.
//! - [`json`] — escaping helpers shared by the writers, plus a small
//!   recursive-descent parser/validator ([`json::Json`]) used by the
//!   model-artifact codec.
//! - [`fsio`] — crash-safe [`atomic_write`](fsio::atomic_write) (temp
//!   file + rename) for snapshot and artifact files.
//! - [`http`] — a zero-dependency HTTP/1.1 scrape server
//!   ([`HttpServer`](http::HttpServer)) for `/metrics`-style endpoints.
//! - [`journal`] — the flight recorder
//!   ([`FlightRecorder`](journal::FlightRecorder)): a bounded ring of
//!   per-batch span records (stage timings, shard breakdown,
//!   shed/quarantine outcomes) behind `GET /trace`.
//! - [`render`] — pure terminal-rendering primitives (braille
//!   sparklines, bars, ASCII fallback) for the `dds top` dashboard.
//! - [`timeseries`] — a ring buffer of registry snapshots
//!   ([`TimeSeriesStore`](timeseries::TimeSeriesStore)) answering
//!   sliding-window rate and quantile queries; the per-shard windows
//!   ([`ShardSeriesStore`](timeseries::ShardSeriesStore)) are one such
//!   store per shard.
//! - [`watchdog`] — an SLO rule engine ([`Watchdog`](watchdog::Watchdog))
//!   evaluating window predicates and flipping a shared
//!   [`HealthState`](watchdog::HealthState) to degraded; the per-shard
//!   thresholds run as the same rules on each shard's store.
//!
//! # Quick start
//!
//! ```
//! use dds_obs::metrics;
//! use dds_obs::subscribers::CapturingSubscriber;
//! use dds_obs::trace::{self, Level};
//! use std::sync::Arc;
//!
//! // 1. Tracing: install a subscriber, open spans, fire events.
//! let capture = Arc::new(CapturingSubscriber::new(Level::Info));
//! trace::install(capture.clone());
//! {
//!     let _span = dds_obs::span!(Level::Info, "job.run", items = 10usize);
//!     dds_obs::event!(Level::Info, "job.progress", done = 10usize);
//! }
//! trace::reset();
//! assert_eq!(capture.span_names(), vec!["job.run"]);
//!
//! // 2. Metrics: cheap atomic handles, JSON/Prometheus export.
//! let registry = metrics::Registry::new();
//! registry.counter("dds_job_items_total").add(10);
//! assert!(registry.snapshot().to_prometheus().contains("dds_job_items_total 10"));
//! ```
//!
//! # Conventions
//!
//! Span names are dotted and static (`"pipeline.categorize"`,
//! `"kmeans.fit"`); metric names follow `dds_<area>_<what>_<unit>`
//! (see `DESIGN.md` in the repository root for the full scheme and the
//! overhead budget).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod fsio;
pub mod http;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod render;
pub mod subscribers;
pub mod timeseries;
pub mod trace;
pub mod watchdog;

pub use alloc::CountingAllocator;
pub use trace::{Field, Level, Span, Value};

#[cfg(test)]
pub(crate) mod test_support {
    //! The trace subscriber and its level filter are process globals, so
    //! unit tests that install subscribers serialize on one mutex.
    use std::sync::{Mutex, MutexGuard};

    pub fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
