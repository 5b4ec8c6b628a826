//! The scrape-endpoint handler: routes the observability HTTP server's
//! requests to the metrics registry, alert history, health state and
//! stage profiler.
//!
//! [`MonitorService`] implements [`Handler`] and is shared across the
//! server's worker threads; every endpoint reads shared state, so scrapes
//! never block ingest. The endpoints (all `GET`/`HEAD`):
//!
//! | Path            | Payload |
//! |-----------------|---------|
//! | `/metrics`      | Prometheus text exposition of the global registry |
//! | `/metrics.json` | The same snapshot as JSON |
//! | `/healthz`      | `200 {"status": "ok"}` or `503 {"status": "degraded", …}` |
//! | `/readyz`       | `200` once the model bundle is loaded, `503` before |
//! | `/alerts?n=K`   | The most recent `K` alerts (default 20), newest first |
//! | `/profile`      | Per-stage wall time, counts and p50/p95/p99 as JSON |
//! | `/model`        | Provenance + generation of the serving model (`503 {"status": "training"}` until one is published) |
//! | `/shards`       | Per-shard serving state published by the sharded serve loop (404 without one) |
//! | `/drift`        | Drift-detector state published by the serve loop (404 without online learning) |
//! | `/trace?n=K`    | The last `K` flight-recorder batch spans as JSON lines (404 without a recorder) |
//! | `/timeseries`   | Fleet + per-shard sliding-window rates, quantiles and sparkline series |
//!
//! Plus two `POST` endpoints. `/ingest`: a batched record payload (binary
//! [`wire`] batch or CSV chunk, sniffed by leading bytes) decoded and
//! offered to the attached [`IngestQueue`]. Replies are a JSON receipt —
//! `200 {"status": "queued", …}` or, when the bounded queue is full and
//! the batch is shed, `429 {"status": "shed", …}`; malformed payloads get
//! a 400 and count into `dds_serve_ingest_errors_total`. And
//! `/model/promote`: requests an atomic hot-swap of the serving model
//! through the attached [`PromotionGate`] — the serve loop performs the
//! swap between ingest batches and the reply carries the new `/model`
//! generation.
//!
//! Both metrics endpoints refresh `dds_uptime_seconds` and the derived
//! `_p50`/`_p95`/`_p99` gauges before snapshotting, so every scrape sees
//! current quantiles without a background publisher thread.

use crate::history::AlertHistory;
use crate::shard::IngestQueue;
use crate::wire;
use dds_obs::http::{Handler, Request, Response};
use dds_obs::journal::FlightRecorder;
use dds_obs::metrics;
use dds_obs::profile::StageProfiler;
use dds_obs::timeseries::{
    ShardSeriesStore, TimeSeriesStore, SHARD_ACCEPTED, SHARD_ALERTS, SHARD_BATCH, SHARD_QUARANTINE,
};
use dds_obs::watchdog::HealthState;
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default number of alerts returned by `/alerts` without a `n=` query.
const DEFAULT_ALERTS: usize = 20;

/// How long `POST /model/promote` waits for the serve loop to pick the
/// request up and perform the swap before answering 503. Generous against
/// the default tick cadence; a stalled serve loop fails the request
/// rather than hanging the HTTP worker forever.
const PROMOTE_TIMEOUT: Duration = Duration::from_secs(5);

/// The serving model's provenance document plus a monotonic generation
/// counter, shared between the serve loop (which publishes) and the
/// `/model` endpoint (which reads).
///
/// Every [`ModelSlot::publish`] — initial load and each promotion —
/// increments the generation, so scrape clients can detect hot-swaps:
/// two `/model` reads with the same generation are guaranteed to
/// describe the same model, and the generation strictly increases across
/// promotions (never torn, never reused).
#[derive(Debug, Default)]
pub struct ModelSlot {
    inner: Mutex<Option<(u64, String)>>,
}

impl ModelSlot {
    /// An empty slot: `/model` answers `503 training` until the first
    /// publish.
    pub fn new() -> Self {
        ModelSlot { inner: Mutex::new(None) }
    }

    /// Locks the slot, recovering from poisoning: the guarded value is a
    /// plain `(generation, string)` that every writer replaces whole, so
    /// it is consistent even if a panic-isolated handler died mid-read —
    /// one crashed request must not turn every later `/model` scrape
    /// into a panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<(u64, String)>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Publishes a provenance document, returning the new generation
    /// (1 for the initial model, +1 per promotion).
    pub fn publish(&self, provenance: String) -> u64 {
        let mut inner = self.lock();
        let generation = inner.as_ref().map_or(0, |(g, _)| *g) + 1;
        *inner = Some((generation, provenance));
        generation
    }

    /// The current `(generation, provenance)`, if a model is published.
    pub fn get(&self) -> Option<(u64, String)> {
        self.lock().clone()
    }

    /// The current generation (0 before the first publish).
    pub fn generation(&self) -> u64 {
        self.lock().as_ref().map_or(0, |(g, _)| *g)
    }
}

/// The outcome of a promotion request, produced by the serve loop and
/// relayed verbatim as the `POST /model/promote` reply.
#[derive(Debug, Clone)]
pub struct PromotionOutcome {
    /// HTTP status for the reply (200 promoted, 409 nothing to promote…).
    pub status: u16,
    /// JSON reply body.
    pub body: String,
}

/// The rendezvous between `POST /model/promote` handlers and the serve
/// loop: handlers enqueue a reply channel and block (bounded by
/// `PROMOTE_TIMEOUT`, 5 s); the serve loop drains the queue between ingest
/// batches, performs at most one atomic swap, and answers every waiter.
/// The swap therefore never lands mid-batch, which is what keeps the
/// alert stream deterministic across promotion timing.
#[derive(Debug, Default)]
pub struct PromotionGate {
    waiters: Mutex<Vec<SyncSender<PromotionOutcome>>>,
}

impl PromotionGate {
    /// An empty gate.
    pub fn new() -> Self {
        PromotionGate { waiters: Mutex::new(Vec::new()) }
    }

    /// Handler side: enqueue a promotion request and wait for the serve
    /// loop's verdict. `None` means the loop never picked it up in time.
    pub fn request(&self, timeout: Duration) -> Option<PromotionOutcome> {
        let (reply, outcome) = mpsc::sync_channel(1);
        // Poison recovery: the queue is a plain Vec of senders, valid at
        // every instruction boundary, and a poisoned gate would otherwise
        // panic every later promotion request.
        self.waiters.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(reply);
        match outcome.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Serve-loop side: takes every pending request (empty almost every
    /// tick — one `Mutex` lock is the whole cost).
    pub fn take(&self) -> Vec<SyncSender<PromotionOutcome>> {
        std::mem::take(&mut *self.waiters.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

/// Default number of spans returned by `/trace` without a `n=` query.
const DEFAULT_TRACE: usize = 50;

/// Sliding window over which `/timeseries` computes its rates and
/// quantiles.
const TIMESERIES_WINDOW: Duration = Duration::from_secs(60);

/// Number of per-interval points in each `/timeseries` sparkline series.
const SERIES_POINTS: usize = 60;

/// The shared request handler behind every scrape endpoint.
#[derive(Debug)]
pub struct MonitorService {
    history: Arc<AlertHistory>,
    health: Arc<HealthState>,
    profiler: Option<Arc<StageProfiler>>,
    /// Provenance + generation of the serving model, published by the
    /// host when the model is trained, loaded or promoted; `/model`
    /// answers 503 before the first publish.
    model: Arc<ModelSlot>,
    /// The bounded intake behind `/ingest`; without one the endpoint
    /// answers 503 (this deployment does not accept pushed records).
    ingest: Option<Arc<IngestQueue>>,
    /// Per-shard state document behind `/shards`, re-published by the
    /// sharded serve loop after every ingested fleet-hour.
    shards: Option<Arc<Mutex<String>>>,
    /// Drift-detector state document behind `/drift`, re-published by
    /// the serve loop each tick when online learning is on.
    drift: Option<Arc<Mutex<String>>>,
    /// The promotion rendezvous behind `POST /model/promote`; without
    /// one the endpoint answers 503 (no online learning loop to swap).
    promotions: Option<Arc<PromotionGate>>,
    /// The flight recorder behind `/trace`; without one the endpoint
    /// answers 404 (this deployment records no spans).
    recorder: Option<Arc<FlightRecorder>>,
    /// The fleet-level snapshot ring behind `/timeseries`.
    timeseries: Option<Arc<TimeSeriesStore>>,
    /// The per-shard rings feeding `/timeseries`'s `per_shard` section.
    shard_series: Option<Arc<ShardSeriesStore>>,
    started: Instant,
}

impl MonitorService {
    /// Creates a service over a shared alert history and health state.
    pub fn new(history: Arc<AlertHistory>, health: Arc<HealthState>) -> Self {
        MonitorService {
            history,
            health,
            profiler: None,
            model: Arc::new(ModelSlot::new()),
            ingest: None,
            shards: None,
            drift: None,
            promotions: None,
            recorder: None,
            timeseries: None,
            shard_series: None,
            started: Instant::now(),
        }
    }

    /// Attaches the flight recorder backing the `/trace` endpoint.
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches the fleet-level snapshot ring backing `/timeseries`.
    pub fn with_timeseries(mut self, store: Arc<TimeSeriesStore>) -> Self {
        self.timeseries = Some(store);
        self
    }

    /// Attaches the per-shard rings feeding `/timeseries`'s `per_shard`
    /// section (optional — a non-sharded deployment serves only the
    /// fleet section).
    pub fn with_shard_series(mut self, series: Arc<ShardSeriesStore>) -> Self {
        self.shard_series = Some(series);
        self
    }

    /// Attaches the bounded ingest queue backing the `/ingest` endpoint.
    /// The host keeps the other `Arc` and drains it from the serve loop.
    pub fn with_ingest(mut self, queue: Arc<IngestQueue>) -> Self {
        self.ingest = Some(queue);
        self
    }

    /// Attaches the shared `/shards` document slot. The host re-publishes
    /// [`crate::ShardedFleetMonitor::statuses_json`] into it as serving
    /// progresses; an empty string answers 503 (still starting).
    pub fn with_shards_slot(mut self, shards: Arc<Mutex<String>>) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Attaches a stage profiler backing the `/profile` endpoint (without
    /// one the endpoint answers an empty object).
    pub fn with_profiler(mut self, profiler: Arc<StageProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Attaches a shared provenance slot backing the `/model` endpoint.
    /// The host keeps the other `Arc` and publishes the provenance JSON
    /// (via [`ModelSlot::publish`]) once a model is trained or loaded,
    /// and again on every promotion.
    pub fn with_model_slot(mut self, model: Arc<ModelSlot>) -> Self {
        self.model = model;
        self
    }

    /// Attaches the shared `/drift` document slot. The serve loop
    /// re-publishes [`crate::DriftDetector::to_json`] into it each tick;
    /// an empty string answers 503 (still starting).
    pub fn with_drift_slot(mut self, drift: Arc<Mutex<String>>) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Attaches the promotion gate backing `POST /model/promote`. The
    /// host keeps the other `Arc` and drains it from the serve loop.
    pub fn with_promotion_gate(mut self, gate: Arc<PromotionGate>) -> Self {
        self.promotions = Some(gate);
        self
    }

    fn model_endpoint(&self) -> Response {
        match self.model.get() {
            Some((generation, provenance)) => {
                // Inject the generation as the leading top-level field of
                // the provenance object, keeping every original field.
                let body = match provenance.strip_prefix('{').map(str::trim_start) {
                    Some("}") => format!("{{\"generation\": {generation}}}"),
                    Some(rest) => format!("{{\"generation\": {generation}, {rest}"),
                    None => provenance,
                };
                Response::ok_json(body)
            }
            None => Response {
                status: 503,
                content_type: "application/json",
                body: "{\"status\": \"training\"}".to_string(),
            },
        }
    }

    fn promote_endpoint(&self) -> Response {
        let Some(gate) = &self.promotions else {
            return Response {
                status: 503,
                content_type: "application/json",
                body: "{\"status\": \"promotion disabled\"}".to_string(),
            };
        };
        match gate.request(PROMOTE_TIMEOUT) {
            Some(outcome) => Response {
                status: outcome.status,
                content_type: "application/json",
                body: outcome.body,
            },
            None => Response {
                status: 503,
                content_type: "application/json",
                body: "{\"status\": \"promotion timed out\"}".to_string(),
            },
        }
    }

    /// Refreshes scrape-time derived metrics, then snapshots the registry.
    fn fresh_snapshot(&self) -> metrics::MetricsSnapshot {
        let registry = metrics::global();
        registry.gauge("dds_uptime_seconds").set(self.started.elapsed().as_secs_f64());
        metrics::publish_quantile_gauges(registry);
        registry.snapshot()
    }

    fn healthz(&self) -> Response {
        if self.health.is_degraded() {
            let reason = self.health.degraded_reason().unwrap_or_default();
            let body = format!(
                "{{\"status\": \"degraded\", \"reason\": \"{}\"}}",
                dds_obs::json::escape(&reason)
            );
            Response { status: 503, content_type: "application/json", body }
        } else {
            Response::ok_json("{\"status\": \"ok\"}")
        }
    }

    fn readyz(&self) -> Response {
        if self.health.is_ready() {
            Response::ok_json("{\"status\": \"ready\"}")
        } else {
            Response {
                status: 503,
                content_type: "application/json",
                body: "{\"status\": \"starting\"}".to_string(),
            }
        }
    }

    fn alerts(&self, request: &Request) -> Response {
        let n = match request.query_param("n") {
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return Response::bad_request(),
            },
            None => DEFAULT_ALERTS,
        };
        Response::ok_json(self.history.to_json(n))
    }

    fn index(&self) -> Response {
        Response::ok_text(
            "dds monitor observability endpoints:\n\
             /metrics /metrics.json /healthz /readyz /alerts?n=K /profile /model /shards\n\
             /drift /trace?n=K /timeseries\n\
             POST /ingest (binary DDSB batch or CSV chunk)\n\
             POST /model/promote (hot-swap the refit candidate)\n",
        )
    }

    fn trace_endpoint(&self, request: &Request) -> Response {
        let Some(recorder) = &self.recorder else {
            return Response::not_found();
        };
        let n = match request.query_param("n") {
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return Response::bad_request(),
            },
            None => DEFAULT_TRACE,
        };
        Response {
            status: 200,
            content_type: "application/x-ndjson",
            body: recorder.to_json_lines(n),
        }
    }

    fn timeseries_endpoint(&self) -> Response {
        let Some(store) = &self.timeseries else {
            return Response::not_found();
        };
        let w = TIMESERIES_WINDOW;
        let batch = "dds_ingest_batch_seconds";
        let fleet = format!(
            "{{\"ingest_per_sec\": {}, \"alert_per_min\": {}, \"shed_per_sec\": {}, \
             \"quarantine_per_sec\": {}, \"batch_p50_seconds\": {}, \"batch_p95_seconds\": {}, \
             \"batch_p99_seconds\": {}, \"ingest_series\": {}, \"batch_p99_series\": {}}}",
            json_opt(store.rate_per_sec("dds_monitor_records_ingested_total", w)),
            json_opt(store.rate_per_min("dds_monitor_alerts_total", w)),
            json_opt(store.rate_per_sec("dds_shed_records_total", w)),
            json_opt(store.rate_per_sec("dds_records_quarantined_total", w)),
            json_opt(store.window_quantile(batch, w, 0.5)),
            json_opt(store.window_quantile(batch, w, 0.95)),
            json_opt(store.window_quantile(batch, w, 0.99)),
            json_series(&store.rate_series("dds_monitor_records_ingested_total", SERIES_POINTS)),
            json_series(&store.quantile_series(batch, SERIES_POINTS, 0.99)),
        );
        let per_shard = match &self.shard_series {
            Some(series) => {
                let rows: Vec<String> = series
                    .shards()
                    .iter()
                    .enumerate()
                    .map(|(shard, store)| {
                        format!(
                            "{{\"shard\": {shard}, \"accepted_per_sec\": {}, \
                             \"quarantine_per_sec\": {}, \"alert_per_min\": {}, \
                             \"batch_p50_seconds\": {}, \"batch_p99_seconds\": {}, \
                             \"ingest_series\": {}}}",
                            json_opt(store.rate_per_sec(SHARD_ACCEPTED, w)),
                            json_opt(store.rate_per_sec(SHARD_QUARANTINE, w)),
                            json_opt(store.rate_per_min(SHARD_ALERTS, w)),
                            json_opt(store.window_quantile(SHARD_BATCH, w, 0.5)),
                            json_opt(store.window_quantile(SHARD_BATCH, w, 0.99)),
                            json_series(&store.rate_series(SHARD_ACCEPTED, SERIES_POINTS)),
                        )
                    })
                    .collect();
                format!("[{}]", rows.join(", "))
            }
            None => "[]".to_string(),
        };
        Response::ok_json(format!(
            "{{\"window_seconds\": {}, \"fleet\": {fleet}, \"per_shard\": {per_shard}}}",
            w.as_secs(),
        ))
    }

    fn ingest_endpoint(&self, request: &Request) -> Response {
        let Some(queue) = &self.ingest else {
            return Response {
                status: 503,
                content_type: "application/json",
                body: "{\"status\": \"ingest disabled\"}".to_string(),
            };
        };
        let decoded = if wire::looks_binary(&request.body) {
            wire::decode_batch(&request.body)
        } else {
            match std::str::from_utf8(&request.body) {
                Ok(text) => wire::parse_csv_chunk(text),
                Err(_) => Err(wire::WireError::BadMagic),
            }
        };
        let batch = match decoded {
            Ok(batch) => batch,
            Err(error) => {
                metrics::global().counter("dds_serve_ingest_errors_total").inc();
                let body = format!(
                    "{{\"status\": \"rejected\", \"error\": \"{}\"}}",
                    dds_obs::json::escape(&error.to_string())
                );
                return Response { status: 400, content_type: "application/json", body };
            }
        };
        match queue.offer(batch) {
            Ok(records) => {
                Response::ok_json(format!("{{\"status\": \"queued\", \"records\": {records}}}"))
            }
            Err(records) => Response {
                status: 429,
                content_type: "application/json",
                body: format!("{{\"status\": \"shed\", \"records\": {records}}}"),
            },
        }
    }
}

impl Handler for MonitorService {
    fn handle(&self, request: &Request) -> Response {
        // `/ingest` and `/model/promote` are the only mutating endpoints
        // and require POST; every scrape endpoint is read-only and
        // rejects POST bodies.
        if request.path == "/ingest" {
            return if request.method == "POST" {
                self.ingest_endpoint(request)
            } else {
                Response::text(405, "POST a record batch to /ingest\n")
            };
        }
        if request.path == "/model/promote" {
            return if request.method == "POST" {
                self.promote_endpoint()
            } else {
                Response::text(405, "POST to /model/promote\n")
            };
        }
        if request.method == "POST" {
            return Response::text(405, "only /ingest and /model/promote accept POST\n");
        }
        match request.path.as_str() {
            "/" => self.index(),
            "/metrics" => {
                let body = self.fresh_snapshot().to_prometheus();
                Response { status: 200, content_type: "text/plain; version=0.0.4", body }
            }
            "/metrics.json" => Response::ok_json(self.fresh_snapshot().to_json()),
            "/healthz" => self.healthz(),
            "/readyz" => self.readyz(),
            "/alerts" => self.alerts(request),
            "/profile" => Response::ok_json(
                self.profiler.as_ref().map_or_else(|| "{}".to_string(), |p| p.to_json()),
            ),
            "/model" => self.model_endpoint(),
            "/shards" => published_document(self.shards.as_deref()),
            "/drift" => published_document(self.drift.as_deref()),
            "/trace" => self.trace_endpoint(request),
            "/timeseries" => self.timeseries_endpoint(),
            _ => Response::not_found(),
        }
    }
}

/// Serves a document slot the serve loop re-publishes (`/shards`,
/// `/drift`): 404 when the deployment has no slot, `503 {"status":
/// "starting"}` while it is still empty, the document otherwise.
fn published_document(slot: Option<&Mutex<String>>) -> Response {
    let Some(slot) = slot else {
        return Response::not_found();
    };
    let document = slot.lock().map(|doc| doc.clone()).unwrap_or_default();
    if document.is_empty() {
        Response {
            status: 503,
            content_type: "application/json",
            body: "{\"status\": \"starting\"}".to_string(),
        }
    } else {
        Response::ok_json(document)
    }
}

/// Renders an optional metric value as a JSON number or `null` (a window
/// that cannot be answered yet is "unknown", not zero).
fn json_opt(value: Option<f64>) -> String {
    value.map(dds_obs::json::number).unwrap_or_else(|| "null".to_string())
}

/// Renders a sparkline series as a JSON array of numbers.
fn json_series(values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|&v| dds_obs::json::number(v)).collect();
    format!("[{}]", rendered.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{Alert, AlertKind, Severity};

    fn request(path: &str, query: Option<&str>) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query.map(String::from),
            body: Vec::new(),
        }
    }

    fn service() -> MonitorService {
        MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
    }

    #[test]
    fn health_and_ready_follow_the_shared_state() {
        let service = service();
        assert_eq!(service.handle(&request("/readyz", None)).status, 503);
        service.health.set_ready(true);
        assert_eq!(service.handle(&request("/readyz", None)).status, 200);

        assert_eq!(service.handle(&request("/healthz", None)).status, 200);
        service.health.degrade("p99 over ceiling");
        let degraded = service.handle(&request("/healthz", None));
        assert_eq!(degraded.status, 503);
        assert!(degraded.body.contains("p99 over ceiling"));
        service.health.clear_degraded();
        assert_eq!(service.handle(&request("/healthz", None)).status, 200);
    }

    #[test]
    fn alerts_endpoint_respects_n_and_rejects_garbage() {
        let service = service();
        for hour in 0..5 {
            service.history.record(&Alert {
                drive: dds_smartsim::DriveId(2),
                hour,
                severity: Severity::Critical,
                kind: AlertKind::VendorThreshold,
                suspected_type: dds_core::FailureType::Unknown,
                degradation: f64::NAN,
                estimated_remaining_hours: None,
                message: "threshold".to_string(),
            });
        }
        let two = service.handle(&request("/alerts", Some("n=2")));
        assert_eq!(two.status, 200);
        assert!(two.body.contains("\"returned\": 2"));
        dds_obs::json::validate(&two.body).expect("alerts JSON");
        assert_eq!(service.handle(&request("/alerts", Some("n=banana"))).status, 400);
        assert_eq!(service.handle(&request("/nope", None)).status, 404);
    }

    #[test]
    fn metrics_endpoints_refresh_uptime_and_quantiles() {
        let service = service();
        metrics::global().histogram("dds_service_test_seconds").observe(3e-5);
        let text = service.handle(&request("/metrics", None));
        assert_eq!(text.status, 200);
        assert!(text.body.contains("dds_uptime_seconds"));
        assert!(text.body.contains("dds_service_test_seconds_p99"));
        let json = service.handle(&request("/metrics.json", None));
        dds_obs::json::validate(&json.body).expect("metrics JSON");
    }

    #[test]
    fn model_endpoint_serves_provenance_and_generation() {
        let slot = Arc::new(ModelSlot::new());
        let service = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_model_slot(slot.clone());
        // Before a model exists: 503 training.
        let before = service.handle(&request("/model", None));
        assert_eq!(before.status, 503);
        assert!(before.body.contains("training"));
        assert_eq!(slot.generation(), 0);
        // After publishing: the provenance document plus the generation.
        assert_eq!(slot.publish("{\"magic\":\"dds-model\",\"seed\":\"7\"}".to_string()), 1);
        let after = service.handle(&request("/model", None));
        assert_eq!(after.status, 200);
        assert!(after.body.contains("\"generation\": 1"), "{}", after.body);
        assert!(after.body.contains("\"seed\":\"7\""));
        dds_obs::json::validate(&after.body).expect("model JSON");
        // A promotion re-publishes under the next generation.
        assert_eq!(slot.publish("{\"magic\":\"dds-model\",\"seed\":\"8\"}".to_string()), 2);
        let promoted = service.handle(&request("/model", None));
        assert!(promoted.body.contains("\"generation\": 2"), "{}", promoted.body);
        assert!(promoted.body.contains("\"seed\":\"8\""));
        dds_obs::json::validate(&promoted.body).expect("model JSON");
        // Without a slot the default service also answers 503.
        assert_eq!(self::service().handle(&request("/model", None)).status, 503);
    }

    #[test]
    fn drift_endpoint_serves_the_published_document() {
        // No slot: this deployment has no online-learning loop.
        assert_eq!(service().handle(&request("/drift", None)).status, 404);

        let slot = Arc::new(Mutex::new(String::new()));
        let service = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_drift_slot(Arc::clone(&slot));
        // Empty slot: still starting.
        assert_eq!(service.handle(&request("/drift", None)).status, 503);
        *slot.lock().unwrap() = "{\"examined\": 10, \"drifted\": 0}".to_string();
        let reply = service.handle(&request("/drift", None));
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"examined\": 10"));
        dds_obs::json::validate(&reply.body).expect("drift JSON");
    }

    #[test]
    fn promote_endpoint_rendezvous_with_the_serve_loop() {
        // No gate: promotion is disabled.
        let disabled = service().handle(&post("/model/promote", Vec::new()));
        assert_eq!(disabled.status, 503);
        assert!(disabled.body.contains("promotion disabled"));

        let gate = Arc::new(PromotionGate::new());
        let service = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_promotion_gate(Arc::clone(&gate));

        // A stand-in serve loop: answer the first request that shows up.
        let loop_gate = Arc::clone(&gate);
        let serve_loop = std::thread::spawn(move || loop {
            let waiters = loop_gate.take();
            if waiters.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            for waiter in waiters {
                let _ = waiter.send(PromotionOutcome {
                    status: 200,
                    body: "{\"status\": \"promoted\", \"generation\": 2}".to_string(),
                });
            }
            break;
        });
        let reply = service.handle(&post("/model/promote", Vec::new()));
        serve_loop.join().unwrap();
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"generation\": 2"), "{}", reply.body);
        dds_obs::json::validate(&reply.body).expect("promote JSON");

        // GET is a 405, like /ingest.
        assert_eq!(service.handle(&request("/model/promote", None)).status, 405);
    }

    fn post(path: &str, body: Vec<u8>) -> Request {
        Request { method: "POST".to_string(), path: path.to_string(), query: None, body }
    }

    #[test]
    fn ingest_endpoint_queues_sheds_and_rejects() {
        let queue = Arc::new(IngestQueue::bounded(1));
        let service = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_ingest(Arc::clone(&queue));

        // Binary batch: queued with a receipt.
        let batch = vec![(
            dds_smartsim::DriveId(3),
            dds_smartsim::HealthRecord { hour: 0, values: [1.0; dds_smartsim::NUM_ATTRIBUTES] },
        )];
        let reply = service.handle(&post("/ingest", crate::wire::encode_batch(&batch)));
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"queued\""), "{}", reply.body);
        assert!(reply.body.contains("\"records\": 1"), "{}", reply.body);

        // Queue full: the batch is shed with a 429.
        let reply = service.handle(&post("/ingest", crate::wire::encode_batch(&batch)));
        assert_eq!(reply.status, 429);
        assert!(reply.body.contains("\"shed\""), "{}", reply.body);
        assert_eq!(queue.counts().shed_batches, 1);

        // CSV chunks decode through the same endpoint.
        assert_eq!(queue.drain().len(), 1);
        let reply = service.handle(&post("/ingest", b"7,0,1,2,3,4,5,6,7,8,9,10,11,12\n".to_vec()));
        assert_eq!(reply.status, 200);

        // Garbage is a 400 with the wire error surfaced.
        let reply = service.handle(&post("/ingest", b"DDSB\x09garbage".to_vec()));
        assert_eq!(reply.status, 400);
        assert!(reply.body.contains("\"rejected\""), "{}", reply.body);

        // GET on /ingest and POST anywhere else are 405s.
        assert_eq!(service.handle(&request("/ingest", None)).status, 405);
        assert_eq!(service.handle(&post("/metrics", Vec::new())).status, 405);

        // Without a queue the endpoint is disabled.
        assert_eq!(self::service().handle(&post("/ingest", Vec::new())).status, 503);
    }

    #[test]
    fn shards_endpoint_serves_the_published_document() {
        // No slot: the deployment is not sharded.
        assert_eq!(service().handle(&request("/shards", None)).status, 404);

        let slot = Arc::new(Mutex::new(String::new()));
        let service = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_shards_slot(Arc::clone(&slot));
        // Empty slot: still starting.
        assert_eq!(service.handle(&request("/shards", None)).status, 503);
        *slot.lock().unwrap() = "{\"shards\": 2, \"per_shard\": []}".to_string();
        let reply = service.handle(&request("/shards", None));
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"shards\": 2"));
        dds_obs::json::validate(&reply.body).expect("shards JSON");
    }

    #[test]
    fn profile_endpoint_defaults_to_empty_object() {
        let service = service();
        let reply = service.handle(&request("/profile", None));
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, "{}");
    }

    #[test]
    fn trace_endpoint_serves_json_lines_with_n_and_rejects_garbage() {
        use dds_obs::journal::{BatchSpan, FlightRecorder};

        // Without a recorder, the deployment has no trace.
        assert_eq!(service().handle(&request("/trace", None)).status, 404);

        let recorder = Arc::new(FlightRecorder::new(16));
        let service = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_flight_recorder(Arc::clone(&recorder));
        // Empty recorder: an empty (but well-typed) NDJSON payload.
        let empty = service.handle(&request("/trace", None));
        assert_eq!(empty.status, 200);
        assert_eq!(empty.content_type, "application/x-ndjson");
        assert!(empty.body.is_empty());

        for i in 0..5u64 {
            recorder.record(BatchSpan {
                records: 10 + i,
                accepted: 10 + i,
                ..BatchSpan::default()
            });
        }
        let two = service.handle(&request("/trace", Some("n=2")));
        assert_eq!(two.status, 200);
        let rows: Vec<&str> = two.body.lines().collect();
        assert_eq!(rows.len(), 2);
        // Oldest-first tail of the lifetime sequence: batches 4 and 5.
        assert!(rows[0].contains("\"batch\": 4"), "{}", rows[0]);
        assert!(rows[1].contains("\"batch\": 5"), "{}", rows[1]);
        for row in rows {
            dds_obs::json::validate(row).expect("trace line JSON");
        }
        assert_eq!(service.handle(&request("/trace", Some("n=banana"))).status, 400);
    }

    #[test]
    fn timeseries_endpoint_serves_fleet_and_per_shard_windows() {
        use dds_obs::timeseries::{ShardSample, ShardSeriesStore, TimeSeriesStore};

        // Without a store, the deployment has no time series.
        assert_eq!(service().handle(&request("/timeseries", None)).status, 404);

        let registry = metrics::Registry::new();
        let store = Arc::new(TimeSeriesStore::new(16));
        store.push(Duration::from_secs(0), registry.snapshot());
        registry.counter("dds_monitor_records_ingested_total").add(500);
        registry.counter("dds_monitor_alerts_total").add(10);
        registry.histogram("dds_ingest_batch_seconds").observe(2e-3);
        store.push(Duration::from_secs(10), registry.snapshot());

        // Shard 0 runs fast and clean; shard 1 runs slow, quarantines
        // and alerts. Every per-shard field differs between the two.
        let shard_sample = |accepted, quarantined, alerts, batch_seconds: &[f64]| {
            let mut sample = ShardSample {
                accepted,
                quarantined,
                alerts,
                batches: batch_seconds.len() as u64,
                ..ShardSample::default()
            };
            for &seconds in batch_seconds {
                sample.batch_buckets[metrics::Histogram::bucket_index(seconds)] += 1;
            }
            sample
        };
        let shard_series = Arc::new(ShardSeriesStore::new(2, 16));
        for shard in 0..2 {
            shard_series.push(shard, Duration::from_secs(0), ShardSample::default());
        }
        let t10 = Duration::from_secs(10);
        let t15 = Duration::from_secs(15);
        shard_series.push(0, t10, shard_sample(200, 0, 2, &[1e-3, 1e-3]));
        shard_series.push(1, t10, shard_sample(100, 40, 10, &[0.2, 1.5]));
        shard_series.push(0, t15, shard_sample(375, 0, 3, &[1e-3, 1e-3, 2e-3]));
        shard_series.push(1, t15, shard_sample(130, 95, 25, &[0.2, 1.5, 3.0, 0.05]));

        let service = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_timeseries(Arc::clone(&store))
            .with_shard_series(Arc::clone(&shard_series));
        let reply = service.handle(&request("/timeseries", None));
        assert_eq!(reply.status, 200);
        assert_eq!(reply.content_type, "application/json");
        dds_obs::json::validate(&reply.body).expect("timeseries JSON");
        let doc = dds_obs::json::parse(&reply.body).expect("timeseries JSON");
        assert_eq!(doc.get("window_seconds").and_then(|v| v.as_u64()), Some(60));
        let fleet = doc.get("fleet").expect("fleet section");
        assert_eq!(fleet.get("ingest_per_sec").and_then(|v| v.as_f64()), Some(50.0));
        assert_eq!(fleet.get("alert_per_min").and_then(|v| v.as_f64()), Some(60.0));
        // Counters that never grew render as 0 rates; quantiles answer.
        assert!(fleet.get("batch_p99_seconds").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let shards = doc.get("per_shard").and_then(|v| v.as_array()).expect("per_shard");
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("accepted_per_sec").and_then(|v| v.as_f64()), Some(25.0));
        // The whole document, byte for byte: every fleet and per-shard
        // field, its number rendering and its order.
        assert_eq!(
            reply.body,
            "{\"window_seconds\": 60, \"fleet\": {\"ingest_per_sec\": 50.0, \
             \"alert_per_min\": 60.0, \"shed_per_sec\": null, \"quarantine_per_sec\": null, \
             \"batch_p50_seconds\": 0.002048, \"batch_p95_seconds\": 0.002048, \
             \"batch_p99_seconds\": 0.002048, \"ingest_series\": [50.0], \
             \"batch_p99_series\": [0.002048]}, \"per_shard\": [{\"shard\": 0, \
             \"accepted_per_sec\": 25.0, \"quarantine_per_sec\": 0.0, \"alert_per_min\": 12.0, \
             \"batch_p50_seconds\": 0.001024, \"batch_p99_seconds\": 0.002048, \
             \"ingest_series\": [20.0, 35.0]}, {\"shard\": 1, \
             \"accepted_per_sec\": 8.666666666666666, \"quarantine_per_sec\": 6.333333333333333, \
             \"alert_per_min\": 100.0, \"batch_p50_seconds\": 0.262144, \
             \"batch_p99_seconds\": 4.194304, \"ingest_series\": [10.0, 6.0]}]}"
        );

        // A fleet-only deployment serves an empty per_shard array.
        let fleet_only = MonitorService::new(Arc::new(AlertHistory::new(16)), HealthState::new())
            .with_timeseries(store);
        let reply = fleet_only.handle(&request("/timeseries", None));
        assert!(reply.body.contains("\"per_shard\": []"), "{}", reply.body);
    }

    #[test]
    fn every_route_declares_its_content_type() {
        // The satellite audit: every endpoint must carry an explicit,
        // correct Content-Type — JSON payloads as application/json, the
        // Prometheus exposition as versioned text/plain, traces as NDJSON.
        let service = service();
        for (path, expected) in [
            ("/", "text/plain; charset=utf-8"),
            ("/metrics", "text/plain; version=0.0.4"),
            ("/metrics.json", "application/json"),
            ("/healthz", "application/json"),
            ("/readyz", "application/json"),
            ("/alerts", "application/json"),
            ("/profile", "application/json"),
            ("/model", "application/json"),
            ("/nope", "text/plain; charset=utf-8"),
        ] {
            let reply = service.handle(&request(path, None));
            assert_eq!(reply.content_type, expected, "content type of {path}");
        }
        // POST receipts are JSON too (handled by the queue-less 503 here).
        assert_eq!(service.handle(&post("/ingest", Vec::new())).content_type, "application/json");
    }
}
