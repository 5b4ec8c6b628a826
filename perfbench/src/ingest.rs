//! The serving workloads, `ingest_mixed` and `ingest_saturate`.
//!
//! Both drive the stack `dds serve` assembles — [`HttpServer`] with
//! [`HTTP_WORKERS`] workers in front of a [`MonitorService`], the bounded
//! [`IngestQueue`], a [`ShardedFleetMonitor`] with [`SHARDS`] shards, an
//! [`AlertHistory`] and a [`FlightRecorder`] — over real loopback HTTP.
//! A benchmark-side drain loop makes, for every drained batch, the calls
//! the serve loop makes for external traffic: `drain`, then
//! `ingest_batch_from(.., "external")`, `DriftDetector::observe_batch`
//! and `publish`, the time-series and shard-status sampling and the
//! watchdog evaluation. The simulated stream and the tick sleep are left
//! out, so the program sees only the records generated here from the
//! seed.
//!
//! * `ingest_mixed` is an open loop: one thread POSTs
//!   [`MIXED_BATCH_RECORDS`]-record DDSB batches at a fixed
//!   [`MIXED_BATCHES_PER_S`] while a second GETs `/metrics` and `/alerts`
//!   at [`SCRAPES_PER_S`]. The fleet is clean, tiled to about
//!   [`MIXED_DRIVES`] drives. Latency counts from the time a batch was
//!   due, so a stall also delays the batches queued behind it.
//! * `ingest_saturate` is a closed loop: two threads each own half the
//!   drive ids (by parity, so per-drive hour order holds however their
//!   batches interleave) and POST back to back, retrying a 429 after
//!   [`RETRY_BACKOFF`]. The fleet is tiled to about [`SATURATE_DRIVES`]
//!   drives and carries the fixed [`CHAOS_SPEC`] fault mix.
//!
//! After the timed phase the served alerts (an order-insensitive
//! fingerprint, stable-sorted by drive) and the `QualityStats` are
//! compared with a fresh `ShardedFleetMonitor` fed the same accepted
//! records directly; any mismatch voids the run.

use crate::stats::{median, Summary};
use crate::trace::{ms, now_ns, overlap, self_times, write_jsonl, Span, Tracer};
use crate::train::{self, delta, mean_rmse, stage_sums, STAGES};
use crate::{peak_rss_mb, Outcome, SETTLE, SETUP_REPS};
use dds_chaos::{ChaosEngine, ChaosSpec};
use dds_core::quality::QualityStats;
use dds_core::Analysis;
use dds_monitor::wire::{decode_batch, encode_batch};
use dds_monitor::{
    Alert, AlertHistory, DriftBaseline, DriftDetector, IngestQueue, ModelBundle, ModelSlot,
    MonitorConfig, MonitorService, ShardStatus, ShardedFleetMonitor,
};
use dds_obs::http::{Handler, HttpServer, Request, Response};
use dds_obs::journal::{BatchSpan, FlightRecorder, DEFAULT_JOURNAL_CAPACITY};
use dds_obs::metrics::Registry;
use dds_obs::timeseries::{ShardSample, ShardSeriesStore, TimeSeriesStore};
use dds_obs::watchdog::{ShardSlo, Watchdog};
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::{DriveId, FleetSimulator, HealthRecord};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serving shards.
pub const SHARDS: usize = 2;
/// HTTP worker threads (what `dds serve` binds).
pub const HTTP_WORKERS: usize = 4;
/// `/ingest` queue capacity in batches (the `dds serve` default).
pub const QUEUE_CAPACITY: usize = 256;
/// Drives of the clean `ingest_mixed` fleet after tiling.
pub const MIXED_DRIVES: u64 = 50_000;
/// Drives of the `ingest_saturate` fleet after tiling.
pub const SATURATE_DRIVES: u64 = 1_000_000;
/// Records per `ingest_mixed` batch.
pub const MIXED_BATCH_RECORDS: usize = 500;
/// The fixed `ingest_mixed` rate in batches per second: about half of
/// `ingest_saturate`'s records per second on the 2-core host the
/// benchmark was sized on. It is a constant, never adapted at run time.
pub const MIXED_BATCHES_PER_S: u64 = 300;
/// `ingest_mixed` scrapes per second, alternating `/metrics` and
/// `/alerts`.
pub const SCRAPES_PER_S: u64 = 100;
/// Records per `ingest_saturate` batch.
pub const SATURATE_BATCH_RECORDS: usize = 1_000;
/// Pause before retrying a batch shed with 429.
pub const RETRY_BACKOFF: Duration = Duration::from_millis(10);
/// 429 retries after which a batch counts as failed.
pub const RETRY_BUDGET: u32 = 1_000;
/// Traffic sent before the timed phase at the phase's own pace, so the
/// timed phase starts with the stack's memory touched and its caches
/// warm; it is checked for correctness but not measured.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Sleep of the drain loop when the queue is empty.
pub const IDLE_POLL: Duration = Duration::from_micros(200);
/// The fault mix of `ingest_saturate` (`dds-chaos` spec syntax): every
/// operator here keeps batch boundaries irrelevant.
pub const CHAOS_SPEC: &str = "nullattr=0.02,sentinel=0.01,dup=0.02";
/// A mixed run whose generator p99 lateness exceeds this is void.
pub const LATENESS_BOUND_MS: f64 = 250.0;
/// Largest relative gap between the blocking-path components and the
/// `ingest_scored_p50_ms` median that the accounting accepts.
pub const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// Fleet seed of the served model's training data.
pub const SERVING_MODEL_SEED: u64 = crate::REFERENCE_SEED;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open loop with scrapes, clean 50K-drive fleet.
    Mixed,
    /// Closed loop, chaos-corrupted 1M-drive fleet.
    Saturate,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Mixed => "ingest_mixed",
            Kind::Saturate => "ingest_saturate",
        }
    }

    fn batch_records(self) -> usize {
        match self {
            Kind::Mixed => MIXED_BATCH_RECORDS,
            Kind::Saturate => SATURATE_BATCH_RECORDS,
        }
    }

    fn lanes(self) -> u32 {
        match self {
            Kind::Mixed => 1,
            Kind::Saturate => 2,
        }
    }
}

/// A simulated fleet's hour-ordered stream tiled onto disjoint drive-id
/// ranges (copy `c` of drive `d` is `d + c · stride`), hour run by hour
/// run, without materializing the copies.
struct TiledStream {
    base: Vec<(DriveId, HealthRecord)>,
    /// `[start, end)` of every hour run in `base`.
    runs: Vec<(usize, usize)>,
    copies: u32,
    stride: u32,
}

impl TiledStream {
    fn new(base: Vec<(DriveId, HealthRecord)>, base_drives: u64, target_drives: u64) -> Self {
        let mut runs = Vec::new();
        let mut start = 0;
        while start < base.len() {
            let hour = base[start].1.hour;
            let end = start + base[start..].iter().take_while(|(_, r)| r.hour == hour).count();
            runs.push((start, end));
            start = end;
        }
        let stride = base.iter().map(|(d, _)| d.0).max().unwrap_or(0) + 1;
        let copies = target_drives.div_ceil(base_drives.max(1)).max(1) as u32;
        TiledStream { base, runs, copies, stride }
    }

    fn drives(&self, base_drives: u64) -> u64 {
        base_drives * u64::from(self.copies)
    }

    /// A cursor over the records of one lane (`drive id % lanes == lane`).
    fn cursor(&self, lanes: u32, lane: u32) -> Cursor<'_> {
        Cursor { stream: self, lanes, lane, run: 0, copy: 0, pos: 0 }
    }
}

/// Position in a [`TiledStream`] lane.
struct Cursor<'a> {
    stream: &'a TiledStream,
    lanes: u32,
    lane: u32,
    run: usize,
    copy: u32,
    pos: usize,
}

impl Cursor<'_> {
    /// The lane's next `n` records (fewer only if the tiled stream ends).
    fn next_batch(&mut self, n: usize) -> Vec<(DriveId, HealthRecord)> {
        let s = self.stream;
        let mut batch = Vec::with_capacity(n);
        while batch.len() < n && self.run < s.runs.len() {
            let (start, end) = s.runs[self.run];
            let index = start + self.pos;
            if index >= end {
                self.pos = 0;
                self.copy += 1;
                if self.copy == s.copies {
                    self.copy = 0;
                    self.run += 1;
                }
                continue;
            }
            self.pos += 1;
            let (drive, record) = &s.base[index];
            let id = drive.0 + self.copy * s.stride;
            if id % self.lanes == self.lane {
                batch.push((DriveId(id), record.clone()));
            }
        }
        batch
    }
}

/// Everything set-up produces.
struct Prepared {
    bundle: ModelBundle,
    provenance: String,
    model_rmse: f64,
    /// Wall time of the serving model's cold train.
    train_s: f64,
    /// Stage-histogram sums of the cold train (`STAGES` order first).
    train_stages: Vec<f64>,
    stream: TiledStream,
    drives: u64,
}

/// Simulates the training fleet, cold-trains the serving model the way a
/// cold `dds serve` does, and simulates (and for saturate corrupts) the
/// live fleet whose tiled stream the generators send. The served model is
/// the same for every workload seed — its training cost and memory vary
/// with the fleet and would otherwise swamp the serving numbers — while
/// the traffic comes from the seed.
fn prepare(kind: Kind, seed: u64) -> Result<Prepared, String> {
    let training = FleetSimulator::new(train::fleet_config(SERVING_MODEL_SEED)).run();
    let before = stage_sums();
    let started = Instant::now();
    let (analysis, model) = Analysis::new(train::analysis_config())
        .train(&training, &train::training_context(SERVING_MODEL_SEED))
        .map_err(|e| format!("serving model training failed: {e}"))?;
    let train_s = started.elapsed().as_secs_f64();
    let train_stages = delta(&before, &stage_sums());
    let bundle = ModelBundle::from_analysis(&training, &analysis);
    drop(training);

    let config = train::fleet_config(seed);
    let live_seed = config.seed.wrapping_add(1);
    let live = FleetSimulator::new(config.with_seed(live_seed)).run();
    let base_drives = live.drives().len() as u64;
    let mut base = hour_ordered(&live);
    drop(live);
    if kind == Kind::Saturate {
        let spec: ChaosSpec = CHAOS_SPEC.parse().map_err(|e| format!("chaos spec: {e:?}"))?;
        base = ChaosEngine::new(spec, seed ^ 0xC4A0_5EED).corrupt_stream(0, &base).0;
    }
    let target = match kind {
        Kind::Mixed => MIXED_DRIVES,
        Kind::Saturate => SATURATE_DRIVES,
    };
    let stream = TiledStream::new(base, base_drives, target);
    Ok(Prepared {
        drives: stream.drives(base_drives),
        bundle,
        provenance: model.provenance_json("trained in-process"),
        model_rmse: mean_rmse(&model),
        train_s,
        train_stages,
        stream,
    })
}

/// Times every handler call, per route, into the tracer. Wrapped around
/// the `MonitorService` only in the traced pass.
struct TimedHandler {
    inner: MonitorService,
    tracer: Arc<Tracer>,
}

impl Handler for TimedHandler {
    fn handle(&self, request: &Request) -> Response {
        let start = now_ns();
        let response = self.inner.handle(request);
        let end = now_ns();
        if request.path == "/ingest" {
            let batch = request.query_param("b").and_then(|b| b.parse().ok());
            self.tracer.record("service.ingest_handle", start, end, None, batch);
        } else {
            self.tracer.record("service.scrape_handle", start, end, None, None);
        }
        response
    }
}

/// The assembled serving stack.
struct Stack {
    server: HttpServer,
    queue: Arc<IngestQueue>,
    monitor: ShardedFleetMonitor,
    recorder: Arc<FlightRecorder>,
    drift: DriftDetector,
    drift_slot: Arc<Mutex<String>>,
    shards_slot: Arc<Mutex<String>>,
    store: Arc<TimeSeriesStore>,
    shard_series: Arc<ShardSeriesStore>,
    watchdog: Watchdog,
    shard_slo: ShardSlo,
}

/// Assembles the stack the way `dds serve` does and binds the server on
/// an ephemeral loopback port.
fn build_stack(prepared: &Prepared, tracer: &Arc<Tracer>) -> Result<Stack, String> {
    let history = Arc::new(AlertHistory::default());
    let watchdog = Watchdog::new(Watchdog::standard_rules());
    let health = watchdog.health();
    let model_slot = Arc::new(ModelSlot::new());
    let recorder = Arc::new(FlightRecorder::new(DEFAULT_JOURNAL_CAPACITY));
    let queue =
        Arc::new(IngestQueue::bounded(QUEUE_CAPACITY).with_flight_recorder(Arc::clone(&recorder)));
    let shards_slot = Arc::new(Mutex::new(String::new()));
    let drift_slot = Arc::new(Mutex::new(String::new()));
    let store = Arc::new(TimeSeriesStore::new(512));
    let shard_series = Arc::new(ShardSeriesStore::new(SHARDS, 512));
    let service = MonitorService::new(Arc::clone(&history), Arc::clone(&health))
        .with_model_slot(Arc::clone(&model_slot))
        .with_ingest(Arc::clone(&queue))
        .with_shards_slot(Arc::clone(&shards_slot))
        .with_drift_slot(Arc::clone(&drift_slot))
        .with_flight_recorder(Arc::clone(&recorder))
        .with_timeseries(Arc::clone(&store))
        .with_shard_series(Arc::clone(&shard_series));
    let handler: Arc<dyn Handler> = if tracer.enabled() {
        Arc::new(TimedHandler { inner: service, tracer: Arc::clone(tracer) })
    } else {
        Arc::new(service)
    };
    let server = HttpServer::bind("127.0.0.1:0", HTTP_WORKERS, handler)
        .map_err(|e| format!("cannot bind the server: {e}"))?;
    model_slot.publish(prepared.provenance.clone());
    let monitor =
        ShardedFleetMonitor::new(prepared.bundle.clone(), MonitorConfig::default(), SHARDS)
            .with_history(history)
            .with_flight_recorder(Arc::clone(&recorder));
    let drift = DriftDetector::new(DriftBaseline::from_bundle(&prepared.bundle, 0.0));
    health.set_ready(true);
    store.sample(dds_obs::metrics::global());
    Ok(Stack {
        server,
        queue,
        monitor,
        recorder,
        drift,
        drift_slot,
        shards_slot,
        store,
        shard_series,
        watchdog,
        shard_slo: ShardSlo::standard(),
    })
}

/// One HTTP/1.1 request on a fresh connection (the server closes every
/// connection); returns the status code.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let status = reply
        .get(9..12)
        .and_then(|code| std::str::from_utf8(code).ok())
        .and_then(|code| code.parse().ok());
    status.ok_or_else(|| std::io::Error::other("malformed status line"))
}

/// Sleeps until the benchmark clock reaches `target_ns`.
fn sleep_until(target_ns: u64) {
    let now = now_ns();
    if target_ns > now {
        std::thread::sleep(Duration::from_nanos(target_ns - now));
    }
}

/// What the generator registered about a batch before sending it.
#[derive(Debug, Clone, Copy)]
struct BatchInfo {
    id: u64,
    /// When the batch was due (mixed: its schedule slot; saturate: its
    /// first send).
    due: u64,
}

/// Per-batch registry shared by the generators and the drain loop, keyed
/// by the batch's first record.
type BatchTable = Mutex<HashMap<(u32, u32), BatchInfo>>;

/// What one generator thread measured.
#[derive(Debug, Default)]
struct GenStats {
    attempted: u64,
    failed: u64,
    /// Per generated batch (in lane order): accepted by the server?
    accepted: Vec<bool>,
    /// Client round trips from due, per ingest batch (ms).
    receipt_ms: Vec<f64>,
    /// Scrape round trips from due (ms).
    scrape_ms: Vec<f64>,
    /// Generator lateness (ms): send start minus due (mixed) or minus the
    /// moment the thread was free to send (saturate).
    late_ms: Vec<f64>,
    retries: u64,
    errors: Vec<String>,
}

/// The open-loop batch generator of `ingest_mixed`.
fn mixed_sender(
    addr: SocketAddr,
    stream: &TiledStream,
    table: &BatchTable,
    (warm, start, deadline): (u64, u64, u64),
    tracer: &Tracer,
) -> GenStats {
    let mut stats = GenStats::default();
    let interval = 1_000_000_000 / MIXED_BATCHES_PER_S;
    let mut cursor = stream.cursor(1, 0);
    for k in 0.. {
        let due = warm + k * interval;
        if due >= deadline {
            break;
        }
        let batch = cursor.next_batch(MIXED_BATCH_RECORDS);
        if batch.len() < MIXED_BATCH_RECORDS {
            stats.errors.push("tiled stream exhausted".to_string());
            break;
        }
        let payload = encode_batch(&batch);
        register(table, &batch, BatchInfo { id: k, due }, &mut stats);
        sleep_until(due);
        let send = now_ns();
        let status = request(addr, "POST", &format!("/ingest?b={k}"), &payload);
        let done = now_ns();
        tracer.record("gen.late", due, send, None, Some(k));
        tracer.record("http.request", send, done, None, Some(k));
        stats.attempted += 1;
        if due >= start {
            stats.late_ms.push(ms(due, send));
            stats.receipt_ms.push(ms(due, done));
        }
        let ok = matches!(status, Ok(200));
        stats.failed += u64::from(!ok);
        stats.accepted.push(ok);
    }
    stats
}

/// The open-loop scraper of `ingest_mixed`.
fn scraper(addr: SocketAddr, start: u64, deadline: u64, tracer: &Tracer) -> GenStats {
    let mut stats = GenStats::default();
    let interval = 1_000_000_000 / SCRAPES_PER_S;
    for k in 0.. {
        let due = start + k * interval + interval / 2;
        if due >= deadline {
            break;
        }
        let path = if k % 2 == 0 { "/metrics" } else { "/alerts" };
        sleep_until(due);
        let send = now_ns();
        let status = request(addr, "GET", path, &[]);
        let done = now_ns();
        tracer.record("http.scrape", send, done, None, None);
        stats.attempted += 1;
        stats.late_ms.push(ms(due, send));
        stats.scrape_ms.push(ms(due, done));
        stats.failed += u64::from(!matches!(status, Ok(200)));
    }
    stats
}

/// One closed-loop lane of `ingest_saturate`.
fn saturate_sender(
    addr: SocketAddr,
    stream: &TiledStream,
    lane: u32,
    table: &BatchTable,
    (start, deadline): (u64, u64),
    tracer: &Tracer,
) -> GenStats {
    let mut stats = GenStats::default();
    let mut cursor = stream.cursor(2, lane);
    let mut ready = now_ns();
    for seq in 0u64.. {
        if now_ns() >= deadline {
            break;
        }
        let batch = cursor.next_batch(SATURATE_BATCH_RECORDS);
        if batch.len() < SATURATE_BATCH_RECORDS {
            stats.errors.push("tiled stream exhausted".to_string());
            break;
        }
        let payload = encode_batch(&batch);
        let id = seq * 2 + u64::from(lane);
        let path = format!("/ingest?b={id}");
        let first_send = now_ns();
        register(table, &batch, BatchInfo { id, due: first_send }, &mut stats);
        tracer.record("gen.late", ready, first_send, None, Some(id));
        let timed = first_send >= start;
        if timed {
            stats.late_ms.push(ms(ready, first_send));
        }
        stats.attempted += 1;
        let mut retries = 0;
        let accepted = loop {
            let send = now_ns();
            let status = request(addr, "POST", &path, &payload);
            let done = now_ns();
            tracer.record("http.request", send, done, None, Some(id));
            match status {
                Ok(200) => {
                    if timed {
                        stats.receipt_ms.push(ms(first_send, done));
                    }
                    break true;
                }
                Ok(429) if retries < RETRY_BUDGET => {
                    retries += 1;
                    std::thread::sleep(RETRY_BACKOFF);
                    tracer.record("client.backoff", done, now_ns(), None, Some(id));
                }
                _ => break false,
            }
        };
        stats.retries += u64::from(retries);
        stats.failed += u64::from(!accepted);
        stats.accepted.push(accepted);
        ready = now_ns();
    }
    stats
}

/// Registers a batch under its first record before it is sent.
fn register(
    table: &BatchTable,
    batch: &[(DriveId, HealthRecord)],
    info: BatchInfo,
    stats: &mut GenStats,
) {
    let key = (batch[0].0 .0, batch[0].1.hour);
    if table.lock().expect("batch table poisoned").insert(key, info).is_some() {
        stats.errors.push(format!("two batches start with record {key:?}"));
    }
}

/// What the drain loop measured.
#[derive(Debug, Default)]
struct DrainStats {
    /// Scored latency per batch, from due (ms).
    scored_ms: Vec<f64>,
    /// (batch id, due, pickup, scored) per batch, traced pass only.
    batches: Vec<(u64, u64, u64, u64)>,
    /// Records of the drains that ran wholly inside the timed phase, and
    /// the span from the first such drain's start to the last one's end.
    scored_in_window: u64,
    window: Option<(u64, u64)>,
    /// Records of batches due inside the timed phase.
    timed_records: u64,
    records: u64,
    alerts: Vec<Alert>,
    drains: u64,
    batches_drained: u64,
    shard_ms: Vec<f64>,
    drift_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    busy_ns: u64,
    last_scored: u64,
    /// Flight-recorder spans of the drained batches, traced pass only.
    spans: Vec<BatchSpan>,
    errors: Vec<String>,
}

/// The serve loop's per-batch work for external traffic, without the
/// simulated stream and the tick sleep.
fn drain_loop(
    stack: &mut Stack,
    kind: Kind,
    table: &BatchTable,
    generators_left: &AtomicUsize,
    (start, deadline): (u64, u64),
    tracer: &Tracer,
) -> DrainStats {
    let registry: &Registry = dds_obs::metrics::global();
    let size = kind.batch_records();
    let mut stats = DrainStats::default();
    let mut last_span = 0u64;
    loop {
        let finished = generators_left.load(Ordering::SeqCst) == 0;
        let t0 = now_ns();
        let records = stack.queue.drain();
        let t1 = now_ns();
        if records.is_empty() {
            if finished {
                break;
            }
            std::thread::sleep(IDLE_POLL);
            tracer.record("drain.idle", t0, now_ns(), None, None);
            continue;
        }
        let alerts = stack.monitor.ingest_batch_from(&records, "external");
        let t2 = now_ns();
        stack.drift.observe_batch(&records);
        stack.drift.publish(registry);
        if let Ok(mut slot) = stack.drift_slot.lock() {
            *slot = format!(
                "{{\"drift\": {}, \"shadow\": null, \"candidate\": null, \"promotions\": 0}}",
                stack.drift.to_json()
            );
        }
        let t3 = now_ns();
        stack.store.sample(registry);
        let statuses = stack.monitor.shard_statuses();
        for status in &statuses {
            stack.shard_series.sample(
                status.shard,
                ShardSample {
                    accepted: status.quality.accepted,
                    quarantined: status.quality.quarantined,
                    alerts: status.alerts_emitted,
                    batches: status.batches,
                    batch_buckets: status.batch_buckets,
                },
            );
        }
        stack.watchdog.evaluate(&stack.store);
        stack.watchdog.evaluate_shards(&stack.shard_series, &stack.shard_slo);
        if let Ok(mut slot) = stack.shards_slot.lock() {
            let per_shard: Vec<String> = statuses.iter().map(ShardStatus::to_json).collect();
            *slot = format!("{{\"shards\": {SHARDS}, \"per_shard\": [{}]}}", per_shard.join(", "));
        }
        let t4 = now_ns();

        if !records.len().is_multiple_of(size) {
            stats.errors.push(format!("drained {} records, not whole batches", records.len()));
        }
        let table = table.lock().expect("batch table poisoned");
        for first in records.iter().step_by(size) {
            match table.get(&(first.0 .0, first.1.hour)) {
                Some(info) if info.due >= start => {
                    stats.scored_ms.push(ms(info.due, t2));
                    stats.timed_records += size as u64;
                    if tracer.enabled() {
                        stats.batches.push((info.id, info.due, t1, t2));
                    }
                }
                Some(_) => {}
                None => stats.errors.push("drained a batch nobody registered".to_string()),
            }
        }
        drop(table);
        stats.records += records.len() as u64;
        stats.alerts.extend(alerts);
        if t0 < start {
            continue;
        }
        if t2 <= deadline {
            stats.scored_in_window += records.len() as u64;
            stats.window = Some((stats.window.map_or(t0, |w| w.0), t2));
        }
        stats.drains += 1;
        stats.batches_drained += (records.len() / size) as u64;
        stats.shard_ms.push(ms(t1, t2));
        stats.drift_ms.push(ms(t2, t3));
        stats.tick_ms.push(ms(t3, t4));
        stats.busy_ns += t4 - t0;
        stats.last_scored = t2;
        if tracer.enabled() {
            let iteration = tracer.record("drain.iteration", t0, t4, None, None);
            tracer.record("queue.drain", t0, t1, Some(iteration), None);
            tracer.record("shard.batch", t1, t2, Some(iteration), None);
            tracer.record("drift.observe", t2, t3, Some(iteration), None);
            tracer.record("tick", t3, t4, Some(iteration), None);
            // The queue journals shed batches into the same recorder from
            // the HTTP workers, so pick this call's span by outcome.
            if let Some(span) = stack
                .recorder
                .last(64)
                .into_iter()
                .rev()
                .find(|s| s.outcome == "ingested" && s.batch > last_span)
            {
                last_span = span.batch;
                stats.spans.push(span);
            }
        }
    }
    stats
}

/// FNV-1a over alert lines stable-sorted by drive: equal for any batch
/// boundaries and any interleaving of drives.
fn fingerprint(mut alerts: Vec<Alert>) -> (usize, u64) {
    alerts.sort_by_key(|alert| alert.drive.0);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for alert in &alerts {
        for byte in format!("{alert}\n").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (alerts.len(), hash)
}

/// Result of one timed pass.
struct Pass {
    gens: Vec<GenStats>,
    drain: DrainStats,
    quality: QualityStats,
    offered_batches: u64,
    shed_batches: u64,
    responses_5xx: u64,
    start: u64,
    records_per_s: f64,
}

/// Runs the generators against a stack for `seconds` and drains until
/// every accepted batch is scored.
fn timed_pass(
    kind: Kind,
    prepared: &Prepared,
    mut stack: Stack,
    seconds: u64,
    tracer: &Arc<Tracer>,
) -> Pass {
    let registry = dds_obs::metrics::global();
    let errors_5xx = registry.counter("dds_http_responses_5xx_total");
    let before_5xx = errors_5xx.get();
    let addr = stack.server.local_addr();
    let table: BatchTable = Mutex::new(HashMap::new());
    let tracer_ref: &Tracer = tracer;
    let warm = now_ns() + 20_000_000;
    let start = warm + WARMUP.as_nanos() as u64;
    let deadline = start + seconds * 1_000_000_000;
    // Both workloads run two generator threads.
    let left = AtomicUsize::new(2);
    let (gens, drain) = std::thread::scope(|scope| {
        let stream = &prepared.stream;
        let (table, left) = (&table, &left);
        let handles: Vec<_> = match kind {
            Kind::Mixed => vec![
                scope.spawn(move || {
                    let stats =
                        mixed_sender(addr, stream, table, (warm, start, deadline), tracer_ref);
                    left.fetch_sub(1, Ordering::SeqCst);
                    stats
                }),
                scope.spawn(move || {
                    let stats = scraper(addr, start, deadline, tracer_ref);
                    left.fetch_sub(1, Ordering::SeqCst);
                    stats
                }),
            ],
            Kind::Saturate => (0..2)
                .map(|lane| {
                    scope.spawn(move || {
                        sleep_until(warm);
                        let window = (start, deadline);
                        let stats = saturate_sender(addr, stream, lane, table, window, tracer_ref);
                        left.fetch_sub(1, Ordering::SeqCst);
                        stats
                    })
                })
                .collect(),
        };
        let drain = drain_loop(&mut stack, kind, table, left, (start, deadline), tracer_ref);
        let gens: Vec<GenStats> =
            handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect();
        (gens, drain)
    });
    stack.server.shutdown();
    let counts = stack.queue.counts();
    let quality = stack.monitor.quality_stats();
    let responses_5xx = errors_5xx.get() - before_5xx;
    // Free the served per-drive state before the reference builds its own.
    drop(stack.monitor);
    // Closed loop: the scoring rate over whole drains inside the timed
    // phase (a saturated drain takes a whole queue, so counting partial
    // ones would quantize the rate). Open loop: the offered records are
    // fixed, so time how long scoring them all took.
    let records_per_s = match kind {
        Kind::Mixed => {
            drain.timed_records as f64 / drain.last_scored.saturating_sub(start).max(1) as f64
        }
        Kind::Saturate => {
            let (first, last) = drain.window.unwrap_or((start, deadline));
            drain.scored_in_window as f64 / last.saturating_sub(first).max(1) as f64
        }
    } * 1e9;
    Pass {
        records_per_s,
        gens,
        drain,
        quality,
        offered_batches: counts.accepted_batches + counts.shed_batches,
        shed_batches: counts.shed_batches,
        responses_5xx,
        start,
    }
}

/// Feeds the accepted batches straight into a fresh monitor and compares
/// alerts and quality tallies with what the served stack produced.
fn check_against_reference(kind: Kind, prepared: &Prepared, pass: Pass, out: &mut Outcome) {
    let started = Instant::now();
    let mut reference =
        ShardedFleetMonitor::new(prepared.bundle.clone(), MonitorConfig::default(), SHARDS);
    let mut alerts = Vec::new();
    let lanes: Vec<&GenStats> = match kind {
        Kind::Mixed => vec![&pass.gens[0]],
        Kind::Saturate => pass.gens.iter().collect(),
    };
    let mut fed = 0u64;
    for (lane, stats) in lanes.iter().enumerate() {
        let mut cursor = prepared.stream.cursor(kind.lanes(), lane as u32);
        for &accepted in &stats.accepted {
            let batch = cursor.next_batch(kind.batch_records());
            if accepted {
                fed += batch.len() as u64;
                alerts.extend(reference.ingest_batch(&batch));
            }
        }
    }
    let expected = fingerprint(alerts);
    let quality = reference.quality_stats();
    drop(reference);
    let served = fingerprint(pass.drain.alerts);
    if served != expected {
        out.error(format!("alert fingerprint {served:?} differs from the reference {expected:?}"));
    }
    if pass.quality != quality {
        out.error(format!(
            "quality stats differ: served [{}] vs reference [{}]",
            pass.quality, quality
        ));
    }
    if pass.drain.records != fed {
        out.error(format!("scored {} records but {fed} were accepted", pass.drain.records));
    }
    out.line(format!(
        "correctness: {} alerts (fingerprint {:016x}), quality [{}] match the reference \
         ({fed} records, checked in {:.1} s)",
        expected.0,
        expected.1,
        quality,
        started.elapsed().as_secs_f64()
    ));
}

/// Adds a latency distribution's p50/p99 under `name` to the per-layer
/// metrics.
fn layer_quantiles(out: &mut Outcome, name: &str, samples: &[f64]) {
    let summary = Summary::of(samples);
    if let Some(s) = &summary {
        out.line(format!("{name}: {}", s.describe("ms")));
    }
    out.metric(&format!("{name}.p50"), summary.as_ref().map_or(0.0, |s| s.p50), "ms");
    out.metric(&format!("{name}.p99"), summary.as_ref().map_or(0.0, |s| s.p99), "ms");
}

/// Links the raw spans of a traced pass into trees: every scored batch
/// gets a `batch` root (due → scored) over its generator, request,
/// `queue.wait` (accepted handler end → drain pickup) and `batch.scoring`
/// (pickup → scored) spans; each handler call becomes the child of the
/// client request that contains it.
fn link(mut spans: Vec<Span>, batches: &[(u64, u64, u64, u64)]) -> Vec<Span> {
    let mut roots = HashMap::new();
    for &(id, due, pickup, scored) in batches {
        roots.insert(id, spans.len());
        spans.push(Span { name: "batch", start: due, end: scored, parent: None, batch: Some(id) });
        let root = Some(spans.len() - 1);
        spans.push(Span {
            name: "batch.scoring",
            start: pickup,
            end: scored,
            parent: root,
            batch: Some(id),
        });
    }
    // Requests per batch (and scrapes), for handler lookup by containment.
    let mut requests: HashMap<Option<u64>, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if matches!(span.name, "http.request" | "http.scrape") {
            requests.entry(span.batch).or_default().push(i);
        }
    }
    let mut accepted_handler: HashMap<u64, (u64, u64)> = HashMap::new();
    for i in 0..spans.len() {
        let span = &spans[i];
        let parent = match span.name {
            "gen.late" | "http.request" | "client.backoff" => {
                span.batch.and_then(|b| roots.get(&b).copied())
            }
            "service.ingest_handle" | "service.scrape_handle" => {
                if let Some(b) = span.batch {
                    let latest = accepted_handler.entry(b).or_insert((span.start, span.end));
                    if span.start > latest.0 {
                        *latest = (span.start, span.end);
                    }
                }
                requests.get(&span.batch).and_then(|reqs| {
                    reqs.iter()
                        .copied()
                        .find(|&r| spans[r].start <= span.start && spans[r].end >= span.end)
                })
            }
            _ => span.parent,
        };
        spans[i].parent = parent;
    }
    for &(id, _, pickup, _) in batches {
        if let Some(&(_, handler_end)) = accepted_handler.get(&id) {
            spans.push(Span {
                name: "queue.wait",
                start: handler_end,
                end: pickup,
                parent: roots.get(&id).copied(),
                batch: Some(id),
            });
        }
    }
    spans
}

/// The traced pass's per-layer metrics and blocking-path accounting.
fn per_layer(kind: Kind, prepared: &Prepared, pass: &Pass, spans: &[Span], out: &mut Outcome) {
    // Layer self times: a request's self time is its transport (round
    // trip minus the handler call it contains).
    let own = self_times(spans);
    let transport: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "http.request")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    // Index generator and handler spans by batch id.
    let mut handlers: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut late: HashMap<u64, &Span> = HashMap::new();
    let mut scrape_handles = Vec::new();
    let mut drain_spans: Vec<&Span> = Vec::new();
    for span in spans {
        match (span.name, span.batch) {
            ("service.ingest_handle", Some(b)) => handlers.entry(b).or_default().push(span),
            ("gen.late", Some(b)) => {
                late.insert(b, span);
            }
            ("service.scrape_handle", _) => scrape_handles.push(ms(span.start, span.end)),
            ("queue.drain" | "shard.batch" | "drift.observe" | "tick" | "drain.idle", _) => {
                drain_spans.push(span)
            }
            _ => {}
        }
    }
    drain_spans.sort_by_key(|s| s.start);

    let handle: Vec<f64> = handlers.values().flatten().map(|h| ms(h.start, h.end)).collect();
    layer_quantiles(out, "http.transport_ms", &transport);
    layer_quantiles(out, "service.ingest_handle_ms", &handle);
    layer_quantiles(out, "service.scrape_handle_ms", &scrape_handles);

    // Wire decode over payloads regenerated from the run's own batches.
    let mut cursor = prepared.stream.cursor(kind.lanes(), 0);
    let payloads: Vec<Vec<u8>> = (0..pass.gens[0].accepted.len().min(600))
        .map(|_| encode_batch(&cursor.next_batch(kind.batch_records())))
        .collect();
    let decode_start = Instant::now();
    let mut decoded = 0usize;
    for payload in &payloads {
        decoded += std::hint::black_box(decode_batch(payload)).map_or(0, |b| b.len());
    }
    let decode_ns = decode_start.elapsed().as_nanos() as f64 / decoded.max(1) as f64;
    out.line(format!("wire.decode_ns_per_record: {decode_ns:.2} ns over {decoded} records"));
    out.metric("wire.decode_ns_per_record", decode_ns, "ns");

    // Queue wait and the blocking path of every scored batch:
    // due → send → handler → queue → pickup → scored.
    let mut queue_wait = Vec::new();
    let mut paths: Vec<(f64, [f64; 10])> = Vec::new();
    for &(id, due, pickup, scored) in &pass.drain.batches {
        // The accepted attempt is the batch's last handler call.
        let Some(h) = handlers.get(&id).and_then(|hs| hs.iter().max_by_key(|h| h.start)) else {
            continue;
        };
        let Some(first_send) = late.get(&id).map(|l| l.end) else {
            continue;
        };
        queue_wait.push(ms(h.end, pickup));
        // Split the wait by what the drain loop was doing meanwhile.
        let mut behind = [0u64; 5];
        for span in &drain_spans {
            if span.start >= pickup {
                break;
            }
            let slot = match span.name {
                "shard.batch" => 0,
                "drift.observe" => 1,
                "tick" => 2,
                "queue.drain" => 3,
                _ => 4,
            };
            behind[slot] += overlap(h.end, pickup, span.start, span.end);
        }
        let wait = pickup.saturating_sub(h.end);
        let other = wait.saturating_sub(behind.iter().sum());
        let to_ms = |ns: u64| ns as f64 / 1e6;
        paths.push((
            ms(due, scored),
            [
                ms(due, first_send),
                ms(first_send, h.start),
                ms(h.start, h.end),
                to_ms(behind[0]),
                to_ms(behind[1]),
                to_ms(behind[2]),
                to_ms(behind[3]),
                to_ms(behind[4]),
                to_ms(other),
                ms(pickup, scored),
            ],
        ));
    }
    layer_quantiles(out, "queue.wait_ms", &queue_wait);
    let batches_per_drain = pass.drain.batches_drained as f64 / pass.drain.drains.max(1) as f64;
    let useful =
        (pass.offered_batches - pass.shed_batches) as f64 / pass.offered_batches.max(1) as f64;
    out.line(format!(
        "queue: {batches_per_drain:.3} batches per drain, {} shed of {} offered (useful {useful:.4})",
        pass.shed_batches, pass.offered_batches
    ));
    out.metric("queue.batches_per_drain", batches_per_drain, "count");
    out.metric("queue.shed_batches", pass.shed_batches as f64, "count");
    out.metric("queue.useful_ratio", useful, "ratio");

    // Shards: ingest_batch_from wall time, and the flight recorder's
    // per-stage sums.
    layer_quantiles(out, "shard.batch_ms", &pass.drain.shard_ms);
    let mut per_shard = [0.0f64; SHARDS];
    let (mut sanitize, mut score, mut merge) = (0.0, 0.0, 0.0);
    for span in &pass.drain.spans {
        merge += span.merge_seconds;
        for shard in &span.shards {
            sanitize += shard.sanitize_seconds;
            score += shard.ingest_seconds;
            per_shard[shard.shard] += shard.sanitize_seconds + shard.ingest_seconds;
        }
    }
    let phase_s = (pass.drain.last_scored.saturating_sub(pass.start)) as f64 / 1e9;
    let busy = (sanitize + score) / (SHARDS as f64 * phase_s.max(1e-9));
    let mean_shard = per_shard.iter().sum::<f64>() / SHARDS as f64;
    let skew = per_shard.iter().fold(0.0f64, |m, &v| m.max(v)) / mean_shard.max(1e-12);
    out.line(format!(
        "shard: sanitize {sanitize:.4} s, score {score:.4} s, merge {merge:.4} s over {} batches \
         ({} spans), busy {busy:.4}, skew {skew:.4}",
        pass.drain.drains,
        pass.drain.spans.len()
    ));
    out.metric("shard.sanitize_s", sanitize, "s");
    out.metric("shard.score_s", score, "s");
    out.metric("shard.merge_s", merge, "s");
    out.metric("shard.busy_ratio", busy, "ratio");
    out.metric("shard.skew", skew, "ratio");

    out.line(format!("quality: [{}]", pass.quality));
    out.metric("quality.quarantined", pass.quality.quarantined as f64, "count");
    out.metric("quality.imputed_attrs", pass.quality.imputed_attrs as f64, "count");

    layer_quantiles(out, "drift.observe_ms", &pass.drain.drift_ms);
    layer_quantiles(out, "tick.ms", &pass.drain.tick_ms);
    let drain_busy = pass.drain.busy_ns as f64 / 1e9 / phase_s.max(1e-9);
    out.line(format!("drain.busy_ratio: {drain_busy:.4}"));
    out.metric("drain.busy_ratio", drain_busy, "ratio");

    for (stage, value) in STAGES.iter().zip(&prepared.train_stages) {
        out.metric(&format!("train.stage_s.{stage}"), *value, "s");
    }
    out.metric("pipeline.train_s", prepared.train_s, "s");
    out.metric("pipeline.train_rmse", prepared.model_rmse, "1");

    // Blocking-path accounting on the batches around the median.
    if kind == Kind::Mixed && !paths.is_empty() {
        paths.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = paths.len();
        let band = &paths[n * 2 / 5..(n * 3 / 5).max(n * 2 / 5 + 1)];
        let mut mean = [0.0f64; 10];
        for (_, parts) in band {
            for (m, p) in mean.iter_mut().zip(parts) {
                *m += p / band.len() as f64;
            }
        }
        let p50 = Summary::of(&pass.drain.scored_ms).map_or(f64::NAN, |s| s.p50);
        let sum: f64 = mean.iter().sum();
        let gap = (sum - p50) / p50;
        let names = [
            "gen late",
            "transport in",
            "handle",
            "queue behind shard batch",
            "queue behind drift",
            "queue behind tick",
            "queue in drain call",
            "queue idle poll",
            "queue other",
            "shard batch",
        ];
        let parts: Vec<String> =
            names.iter().zip(&mean).map(|(name, v)| format!("{name} {v:.4}")).collect();
        out.line(format!(
            "blocking path of the {} batches in the p40-p60 band (ms): {}",
            band.len(),
            parts.join(", ")
        ));
        out.line(format!(
            "blocking path sum {sum:.4} ms vs ingest_scored_p50_ms {p50:.4} ms \
             (gap {:.1}%, tolerance {:.0}%) {}",
            gap * 100.0,
            ACCOUNTING_TOLERANCE * 100.0,
            if gap.abs() <= ACCOUNTING_TOLERANCE { "ok" } else { "OUT OF TOLERANCE" }
        ));
    }
}

/// Checks the run-validity conditions and the generators' own errors.
fn validate(kind: Kind, pass: &Pass, out: &mut Outcome) {
    for stats in &pass.gens {
        for error in &stats.errors {
            out.error(error.clone());
        }
    }
    for error in &pass.drain.errors {
        out.error(error.clone());
    }
    if pass.responses_5xx > 0 {
        out.error(format!("{} responses were 5xx", pass.responses_5xx));
    }
    if kind == Kind::Mixed && out.gen_late_p99_ms > LATENESS_BOUND_MS {
        out.error(format!(
            "generator ran {:.1} ms late at p99, past the {LATENESS_BOUND_MS} ms bound",
            out.gen_late_p99_ms
        ));
    }
}

/// Tallies operations and reports the workload's end-to-end metrics under
/// the names the workload gives them. Returns the scored-latency median.
fn summarize(kind: Kind, pass: &Pass, out: &mut Outcome) -> f64 {
    out.attempted = pass.gens.iter().map(|g| g.attempted).sum();
    out.failed = pass.gens.iter().map(|g| g.failed).sum();
    let late: Vec<f64> = match kind {
        Kind::Mixed => pass.gens[0].late_ms.clone(),
        Kind::Saturate => pass.gens.iter().flat_map(|g| g.late_ms.iter().copied()).collect(),
    };
    let late = Summary::of(&late);
    out.gen_late_p99_ms = late.as_ref().map_or(0.0, |s| s.p99);
    let scored = Summary::of(&pass.drain.scored_ms);
    let (p50, p99) = scored.as_ref().map_or((f64::NAN, f64::NAN), |s| (s.p50, s.p99));
    let describe =
        |s: &Option<Summary>| s.as_ref().map_or("no samples".to_string(), |s| s.describe("ms"));
    match kind {
        Kind::Mixed => {
            let receipts = Summary::of(&pass.gens[0].receipt_ms);
            let scrapes = Summary::of(&pass.gens[1].scrape_ms);
            out.line(format!(
                "ingest_scored_p50_ms = {p50:.4} ms, ingest_scored_p99_ms = {p99:.4} ms ({})",
                describe(&scored)
            ));
            out.line(format!(
                "ingest_receipt_p99_ms = {:.4} ms ({})",
                receipts.as_ref().map_or(f64::NAN, |s| s.p99),
                describe(&receipts)
            ));
            out.line(format!(
                "scrape_p99_ms = {:.4} ms ({})",
                scrapes.as_ref().map_or(f64::NAN, |s| s.p99),
                describe(&scrapes)
            ));
            out.line(format!("scored records per second: {:.1} 1/s", pass.records_per_s));
        }
        Kind::Saturate => {
            let retries: u64 = pass.gens.iter().map(|g| g.retries).sum();
            out.line(format!("ingest_records_per_s = {:.1} 1/s", pass.records_per_s));
            out.line(format!(
                "scored latency from first send: {} ({retries} 429 retries)",
                describe(&scored)
            ));
        }
    }
    out.line(format!("gen.late_ms: {}", describe(&late)));
    p50
}

/// Runs an ingest workload.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced = Arc::new(Tracer::new(false));

    // Set-up: time to ready, SETUP_REPS times (once in a traced run).
    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        drop(ready.take());
        let started = Instant::now();
        let prepared = prepare(kind, seed)?;
        let stack = build_stack(&prepared, &untraced)?;
        setup_times.push(started.elapsed().as_secs_f64());
        ready = Some((prepared, stack));
    }
    let (prepared, stack) = ready.expect("at least one set-up");
    eprintln!(
        "[perfbench] {}: {} drives, set-up {:.3} s",
        kind.name(),
        prepared.drives,
        median(&setup_times)
    );
    out.line(format!(
        "setup_s = {:.4} s (median of {}); {} drives, serving model rmse {:.6}",
        median(&setup_times),
        setup_times.len(),
        prepared.drives,
        prepared.model_rmse
    ));

    std::thread::sleep(SETTLE);
    crate::alloc::reset_peak();
    let pass = timed_pass(kind, &prepared, stack, seconds, &untraced);
    let peak_heap_mb = crate::alloc::peak_mb();
    let p50 = summarize(kind, &pass, &mut out);
    validate(kind, &pass, &mut out);
    let records_per_s = pass.records_per_s;
    check_against_reference(kind, &prepared, pass, &mut out);

    if !traced {
        out.line(format!(
            "peak_rss_mb = {:.1} MB (process); peak_heap_mb = {peak_heap_mb:.1} MB (timed phase)",
            peak_rss_mb()
        ));
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("peak_heap_mb", peak_heap_mb, "MB");
        out.metric("records_per_s", records_per_s, "1/s");
        out.metric("latency_p50_ms", p50, "ms");
        return Ok(out);
    }

    // The traced pass: a fresh stack with the timing handler.
    let tracer = Arc::new(Tracer::new(true));
    let stack = build_stack(&prepared, &tracer)?;
    std::thread::sleep(SETTLE);
    let pass = timed_pass(kind, &prepared, stack, seconds, &tracer);
    let mut traced_out = Outcome::default();
    let traced_p50 = summarize(kind, &pass, &mut traced_out);
    validate(kind, &pass, &mut traced_out);
    let spans = link(tracer.spans(), &pass.drain.batches);
    per_layer(kind, &prepared, &pass, &spans, &mut traced_out);
    traced_out.metric("gen.late_ms.p99", traced_out.gen_late_p99_ms, "ms");
    traced_out.metric("http.responses_5xx", pass.responses_5xx as f64, "count");
    traced_out.metric("trace.overhead_latency_p50_ms", traced_p50 - p50, "ms");
    traced_out.line(format!(
        "tracing overhead: scored p50 {traced_p50:.4} ms traced vs {p50:.4} ms untraced"
    ));
    check_against_reference(kind, &prepared, pass, &mut traced_out);
    let path = std::path::PathBuf::from(format!(".bench_trace/{}-seed{seed}.jsonl", kind.name()));
    let written =
        write_jsonl(&spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    traced_out.line(format!("{written} spans written to {}", path.display()));

    out.report.extend(traced_out.report);
    out.errors.extend(traced_out.errors);
    out.metrics = traced_out.metrics;
    Ok(out)
}
