//! Sharded serving: hash-partition a fleet across N independent
//! [`FleetMonitor`] workers behind one deterministic coordinator.
//!
//! A single monitor serializes every record through one escalation map —
//! fine for the paper's 23 k drives, a bottleneck at the ROADMAP's
//! millions. [`ShardedFleetMonitor`] splits the fleet by drive id
//! ([`shard_for`], FNV-1a) onto per-shard worker threads, each owning a
//! full `FleetMonitor` (models, sanitizer, escalation state). Because a
//! drive's entire history lands on exactly one shard, per-drive semantics
//! (debounce, hysteresis, quality watermarks) are untouched, and the
//! coordinator's merge — a stable sort by `(hour, drive)` — reproduces
//! the single-monitor alert stream byte for byte at any shard count.
//!
//! The coordinator is also the one publisher of serving metrics. Shard
//! workers write nothing process-global except one
//! `dds_monitor_ingest_seconds` observation per scored record; each
//! batch reply carries the shard's quality tallies, alerts and stage
//! clocks, and the coordinator adds them to the ingest, alert,
//! quarantine and imputation counters once per merged batch, next to the
//! fleet-wide drive gauges. A [`FleetMonitor`] scoring outside a
//! coordinator (a shadow candidate, a test) therefore counts into
//! nothing.
//!
//! [`IngestQueue`] is the bounded intake in front of the coordinator:
//! HTTP batches are queued if there is room and **shed** (counted, 429)
//! if not, so overload degrades the ingest SLO instead of deadlocking the
//! serve loop; the watchdog's shed budget flips `/healthz` when shedding
//! exceeds its ratio.

use crate::alert::{Alert, AlertKind, Severity};
use crate::bundle::ModelBundle;
use crate::history::AlertHistory;
use crate::monitor::{FleetMonitor, HealthStatus, MonitorConfig};
use dds_core::quality::{QualityStats, QUARANTINE_REASONS};
use dds_obs::journal::{BatchSpan, FlightRecorder, ShardSpan};
use dds_obs::metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
use dds_smartsim::{DriveId, HealthRecord};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// The shard a drive belongs to, by FNV-1a over the id's little-endian
/// bytes. Stable across runs, platforms and shard-count-preserving
/// restarts: the same `(drive, shards)` always maps to the same shard.
///
/// # Example
///
/// ```
/// use dds_monitor::shard::shard_for;
/// use dds_smartsim::DriveId;
///
/// // One shard degenerates to a single monitor.
/// assert_eq!(shard_for(DriveId(12345), 1), 0);
///
/// // The assignment is a pure function of (drive, shards)...
/// assert_eq!(shard_for(DriveId(7), 8), shard_for(DriveId(7), 8));
///
/// // ...and spreads a contiguous id range over every shard.
/// let mut hit = [false; 4];
/// for id in 0..64 {
///     hit[shard_for(DriveId(id), 4)] = true;
/// }
/// assert_eq!(hit, [true; 4]);
/// ```
pub fn shard_for(drive: DriveId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in drive.0.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    (hash % shards as u64) as usize
}

/// One batch's result from a shard worker: its alerts, the quality
/// tallies it added, the two stage clocks the flight recorder assembles
/// into a [`BatchSpan`], and the shard's gauge state after it.
struct ShardBatch {
    alerts: Vec<Alert>,
    quality: QualityStats,
    sanitize_seconds: f64,
    ingest_seconds: f64,
    drives_tracked: usize,
    latched: [usize; 3],
}

/// The tallies a sanitizer gained between two of its cumulative
/// snapshots.
fn quality_delta(after: &QualityStats, before: &QualityStats) -> QualityStats {
    let mut by_reason = after.by_reason;
    for (n, earlier) in by_reason.iter_mut().zip(before.by_reason) {
        *n -= earlier;
    }
    QualityStats {
        ingested: after.ingested - before.ingested,
        accepted: after.accepted - before.accepted,
        quarantined: after.quarantined - before.quarantined,
        imputed_attrs: after.imputed_attrs - before.imputed_attrs,
        drives_dropped: after.drives_dropped - before.drives_dropped,
        by_reason,
    }
}

/// Point-in-time state of one shard, for the `/shards` endpoint, the
/// per-shard time-series rings behind `/timeseries`, and the scaling
/// handbook's sizing checks.
#[derive(Debug, Clone, Copy)]
pub struct ShardStatus {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// Drives with escalation state on this shard.
    pub drives_tracked: usize,
    /// Drives latched at (watch, warning, critical) on this shard.
    pub latched: [usize; 3],
    /// This shard's sanitizer tallies.
    pub quality: QualityStats,
    /// Lifetime alerts this shard emitted.
    pub alerts_emitted: u64,
    /// Lifetime batches this shard processed.
    pub batches: u64,
    /// Histogram-compatible bucket counts of this shard's per-batch wall
    /// times (see [`Histogram::bucket_index`]); feeds the per-shard
    /// latency quantiles in [`dds_obs::timeseries::ShardSeriesStore`].
    pub batch_buckets: [u64; HISTOGRAM_BUCKETS],
}

impl ShardStatus {
    /// Serializes the status as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shard\": {}, \"drives_tracked\": {}, \"latched_watch\": {}, \
             \"latched_warning\": {}, \"latched_critical\": {}, \"accepted\": {}, \
             \"quarantined\": {}, \"imputed_attrs\": {}, \"alerts_emitted\": {}, \
             \"batches\": {}}}",
            self.shard,
            self.drives_tracked,
            self.latched[0],
            self.latched[1],
            self.latched[2],
            self.quality.accepted,
            self.quality.quarantined,
            self.quality.imputed_attrs,
            self.alerts_emitted,
            self.batches,
        )
    }
}

enum Job {
    Batch {
        records: Vec<(DriveId, HealthRecord)>,
        reply: SyncSender<(usize, ShardBatch)>,
    },
    NewSession {
        reply: SyncSender<()>,
    },
    /// Hot-swap the shard's model bundle (promotion). Boxed: the bundle
    /// carries whole regression trees and would otherwise dominate the
    /// job enum's size for every queued batch.
    SwapBundle {
        bundle: Box<ModelBundle>,
        reply: SyncSender<()>,
    },
    Status {
        reply: SyncSender<ShardStatus>,
    },
}

struct Worker {
    sender: Option<mpsc::Sender<Job>>,
    handle: Option<thread::JoinHandle<()>>,
}

fn worker_loop(
    shard: usize,
    mut monitor: FleetMonitor,
    record_seconds: Arc<Histogram>,
    jobs: Receiver<Job>,
) {
    // Cheap per-shard lifetime tallies behind `/shards` and the
    // per-shard time-series rings.
    let mut batches = 0u64;
    let mut batch_buckets = [0u64; HISTOGRAM_BUCKETS];
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Batch { mut records, reply } => {
                let started = Instant::now();
                let before = *monitor.quality_stats();
                // The quality gate over the whole batch: repair records in
                // place, drop the quarantined ones. Gate and scoring state
                // are disjoint, so this equals `try_ingest` record by record.
                records.retain_mut(|(drive, record)| match monitor.sanitize(*drive, record) {
                    Ok(cleaned) => {
                        *record = cleaned;
                        true
                    }
                    Err(_) => false,
                });
                let sanitize_seconds = started.elapsed().as_secs_f64();
                let mut alerts = Vec::new();
                let mut ingest_seconds = 0.0;
                for (drive, record) in &records {
                    let score = Instant::now();
                    alerts.append(&mut monitor.ingest_sanitized(*drive, record));
                    let seconds = score.elapsed().as_secs_f64();
                    record_seconds.observe(seconds);
                    ingest_seconds += seconds;
                }
                batches += 1;
                batch_buckets[Histogram::bucket_index(started.elapsed().as_secs_f64())] += 1;
                let status = monitor.health_status();
                let _ = reply.send((
                    shard,
                    ShardBatch {
                        alerts,
                        quality: quality_delta(monitor.quality_stats(), &before),
                        sanitize_seconds,
                        ingest_seconds,
                        drives_tracked: status.drives_tracked,
                        latched: status.latched,
                    },
                ));
            }
            Job::NewSession { reply } => {
                monitor.new_ingest_session();
                let _ = reply.send(());
            }
            Job::SwapBundle { bundle, reply } => {
                monitor.swap_bundle(*bundle);
                let _ = reply.send(());
            }
            Job::Status { reply } => {
                let status = monitor.health_status();
                let _ = reply.send(ShardStatus {
                    shard,
                    drives_tracked: status.drives_tracked,
                    latched: status.latched,
                    quality: *monitor.quality_stats(),
                    alerts_emitted: status.alerts_emitted,
                    batches,
                    batch_buckets,
                });
            }
        }
    }
}

/// Cached handles for every serving metric the coordinator publishes.
#[derive(Debug)]
struct CoordinatorMetrics {
    shards: Arc<Gauge>,
    batch_seconds: Arc<Histogram>,
    /// Per-record scoring time, observed by the shard workers.
    record_seconds: Arc<Histogram>,
    records: Arc<Counter>,
    alerts: Arc<Counter>,
    /// Indexed by `AlertKind as usize`.
    alerts_by_kind: [Arc<Counter>; 4],
    /// Indexed by `Severity as usize`.
    alerts_by_severity: [Arc<Counter>; 3],
    quarantined: Arc<Counter>,
    /// [`QUARANTINE_REASONS`] order.
    quarantined_by_reason: [Arc<Counter>; 4],
    imputed: Arc<Counter>,
    drives_tracked: Arc<Gauge>,
    latched: [Arc<Gauge>; 3],
}

impl CoordinatorMetrics {
    fn new() -> Self {
        let registry = dds_obs::metrics::global();
        let alert_counter =
            |label: String| registry.counter(&format!("dds_monitor_alerts_{label}_total"));
        CoordinatorMetrics {
            shards: registry.gauge("dds_ingest_shards"),
            batch_seconds: registry.histogram("dds_ingest_batch_seconds"),
            record_seconds: registry.histogram("dds_monitor_ingest_seconds"),
            records: registry.counter("dds_monitor_records_ingested_total"),
            alerts: registry.counter("dds_monitor_alerts_total"),
            alerts_by_kind: [
                AlertKind::DegradationPrediction,
                AlertKind::VendorThreshold,
                AlertKind::ThermalRisk,
                AlertKind::TypeReclassification,
            ]
            .map(|kind| alert_counter(kind.to_string())),
            alerts_by_severity: [Severity::Watch, Severity::Warning, Severity::Critical]
                .map(|severity| alert_counter(severity.to_string())),
            quarantined: registry.counter("dds_records_quarantined_total"),
            quarantined_by_reason: QUARANTINE_REASONS
                .map(|reason| registry.counter(&format!("dds_records_quarantined_{reason}_total"))),
            imputed: registry.counter("dds_attrs_imputed_total"),
            drives_tracked: registry.gauge("dds_monitor_drives_tracked"),
            latched: [
                registry.gauge("dds_monitor_drives_latched_watch"),
                registry.gauge("dds_monitor_drives_latched_warning"),
                registry.gauge("dds_monitor_drives_latched_critical"),
            ],
        }
    }
}

/// N per-shard [`FleetMonitor`] workers behind one deterministic
/// fan-out/fan-in coordinator.
///
/// Batches go in ([`ingest_batch`]); the merged alert stream comes out in
/// `(hour, drive)` order — byte-identical to a single monitor fed the
/// same records, at any shard count. After every batch the coordinator
/// publishes the serving counters (records ingested, alerts by kind and
/// severity, quarantines by reason, imputed attributes) and the
/// fleet-wide `dds_monitor_drives_tracked` / `dds_monitor_drives_latched_*`
/// gauges, and records every emitted alert into the attached
/// [`AlertHistory`] in merged order.
///
/// [`ingest_batch`]: ShardedFleetMonitor::ingest_batch
#[derive(Debug)]
pub struct ShardedFleetMonitor {
    workers: Vec<Worker>,
    history: Option<Arc<AlertHistory>>,
    recorder: Option<Arc<FlightRecorder>>,
    metrics: CoordinatorMetrics,
    /// Last-known (drives_tracked, latched) per shard, refreshed by every
    /// batch reply, so gauge aggregation never needs an extra round trip.
    shard_state: Vec<(usize, [usize; 3])>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker").field("alive", &self.handle.is_some()).finish()
    }
}

impl ShardedFleetMonitor {
    /// Spawns `shards` workers (clamped to at least 1), each with its own
    /// clone of the bundle and config.
    pub fn new(bundle: ModelBundle, config: MonitorConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let metrics = CoordinatorMetrics::new();
        let workers = (0..shards)
            .map(|shard| {
                let (sender, receiver) = mpsc::channel();
                let monitor = FleetMonitor::new(bundle.clone(), config.clone());
                let record_seconds = Arc::clone(&metrics.record_seconds);
                let handle = thread::Builder::new()
                    .name(format!("dds-shard-{shard}"))
                    .spawn(move || worker_loop(shard, monitor, record_seconds, receiver))
                    .expect("spawn shard worker");
                Worker { sender: Some(sender), handle: Some(handle) }
            })
            .collect();
        metrics.shards.set(shards as f64);
        ShardedFleetMonitor {
            workers,
            history: None,
            recorder: None,
            metrics,
            shard_state: vec![(0, [0; 3]); shards],
        }
    }

    /// Attaches a shared alert history; the coordinator records every
    /// merged alert into it (shard workers never touch it).
    #[must_use]
    pub fn with_history(mut self, history: Arc<AlertHistory>) -> Self {
        self.history = Some(history);
        self
    }

    /// Attaches a flight recorder; every subsequent non-empty batch
    /// deposits one [`BatchSpan`] (per-stage timings, shard breakdown)
    /// into it. The stage clocks run either way, so attaching a recorder
    /// changes no result and no timing path.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    fn send(&self, shard: usize, job: Job) {
        self.workers[shard]
            .sender
            .as_ref()
            .expect("worker channel open")
            .send(job)
            .expect("shard worker alive");
    }

    /// Routes a batch to its shards, waits for every shard to finish, and
    /// returns the merged alert stream in `(hour, drive)` order.
    ///
    /// Records quarantined by a shard's quality gate yield no alerts
    /// (exactly as [`FleetMonitor::ingest`]); the per-shard tallies remain
    /// visible through [`shard_statuses`](ShardedFleetMonitor::shard_statuses).
    pub fn ingest_batch(&mut self, records: &[(DriveId, HealthRecord)]) -> Vec<Alert> {
        self.ingest_batch_from(records, "batch")
    }

    /// [`ingest_batch`](ShardedFleetMonitor::ingest_batch) with a source
    /// tag for the flight recorder's span (`"stream"` for the serve
    /// loop's simulated epochs, `"external"` for drained `/ingest`
    /// batches, `"batch"` for direct API calls). The tag changes nothing
    /// about routing or alerting.
    pub fn ingest_batch_from(
        &mut self,
        records: &[(DriveId, HealthRecord)],
        source: &'static str,
    ) -> Vec<Alert> {
        let started = Instant::now();
        let shards = self.workers.len();
        let mut buckets: Vec<Vec<(DriveId, HealthRecord)>> = vec![Vec::new(); shards];
        if shards == 1 {
            buckets[0] = records.to_vec();
        } else {
            for (drive, record) in records {
                buckets[shard_for(*drive, shards)].push((*drive, record.clone()));
            }
        }

        let (reply, replies) = mpsc::sync_channel(shards);
        let mut outstanding = 0usize;
        for (shard, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.send(shard, Job::Batch { records: bucket, reply: reply.clone() });
            outstanding += 1;
        }
        drop(reply);

        let mut alerts = Vec::new();
        let mut quality = QualityStats::default();
        let mut shard_spans: Vec<ShardSpan> = Vec::new();
        for _ in 0..outstanding {
            let (shard, batch) = replies.recv().expect("shard worker alive");
            self.shard_state[shard] = (batch.drives_tracked, batch.latched);
            quality.merge(&batch.quality);
            shard_spans.push(ShardSpan {
                shard,
                records: batch.quality.ingested,
                accepted: batch.quality.accepted,
                quarantined: batch.quality.quarantined,
                alerts: batch.alerts.len() as u64,
                sanitize_seconds: batch.sanitize_seconds,
                ingest_seconds: batch.ingest_seconds,
            });
            alerts.extend(batch.alerts);
        }
        let merge_started = Instant::now();
        // Alerts of one drive live entirely on one shard and arrive there
        // in emission order, so a stable sort on (hour, drive) is a full
        // deterministic merge — equal keys never span shards.
        alerts.sort_by_key(|alert| (alert.hour, alert.drive.0));

        if let Some(history) = &self.history {
            for alert in &alerts {
                history.record(alert);
            }
        }
        self.publish(&quality, &alerts);
        self.metrics.batch_seconds.observe(started.elapsed().as_secs_f64());
        if let Some(recorder) = &self.recorder {
            if !records.is_empty() {
                shard_spans.sort_by_key(|span| span.shard);
                recorder.record(BatchSpan {
                    source,
                    outcome: "ingested",
                    records: records.len() as u64,
                    accepted: quality.accepted,
                    quarantined: quality.quarantined,
                    alerts: alerts.len() as u64,
                    merge_seconds: merge_started.elapsed().as_secs_f64(),
                    total_seconds: started.elapsed().as_secs_f64(),
                    shards: shard_spans,
                    ..BatchSpan::default()
                });
            }
        }
        alerts
    }

    /// Adds one merged batch to the serving counters and refreshes the
    /// fleet-wide gauges from the last-known shard state.
    fn publish(&self, quality: &QualityStats, alerts: &[Alert]) {
        let metrics = &self.metrics;
        metrics.records.add(quality.accepted);
        metrics.quarantined.add(quality.quarantined);
        for (counter, &n) in metrics.quarantined_by_reason.iter().zip(&quality.by_reason) {
            counter.add(n);
        }
        metrics.imputed.add(quality.imputed_attrs);
        metrics.alerts.add(alerts.len() as u64);
        for alert in alerts {
            metrics.alerts_by_kind[alert.kind as usize].inc();
            metrics.alerts_by_severity[alert.severity as usize].inc();
        }
        let tracked: usize = self.shard_state.iter().map(|(t, _)| t).sum();
        metrics.drives_tracked.set(tracked as f64);
        for (i, gauge) in metrics.latched.iter().enumerate() {
            let latched: usize = self.shard_state.iter().map(|(_, l)| l[i]).sum();
            gauge.set(latched as f64);
        }
    }

    /// Resets every shard's ingest session (ordering watermarks restart;
    /// cumulative stats are kept), blocking until all shards have done so.
    pub fn new_ingest_session(&mut self) {
        let (reply, replies) = mpsc::sync_channel(self.workers.len());
        for shard in 0..self.workers.len() {
            self.send(shard, Job::NewSession { reply: reply.clone() });
        }
        drop(reply);
        for _ in 0..self.workers.len() {
            replies.recv().expect("shard worker alive");
        }
    }

    /// Hot-swaps every shard's model bundle — the sharded half of a
    /// promotion — blocking until all shards run the new model.
    ///
    /// The coordinator serializes this between batches (it owns `&mut
    /// self` for both), so a swap never lands mid-batch: every batch is
    /// scored wholly by one model, which keeps the merged alert stream
    /// deterministic across promotion timing. Per-shard escalation state
    /// survives, exactly as in [`FleetMonitor::swap_bundle`].
    pub fn swap_bundle(&mut self, bundle: ModelBundle) {
        let (reply, replies) = mpsc::sync_channel(self.workers.len());
        for shard in 0..self.workers.len() {
            self.send(
                shard,
                Job::SwapBundle { bundle: Box::new(bundle.clone()), reply: reply.clone() },
            );
        }
        drop(reply);
        for _ in 0..self.workers.len() {
            replies.recv().expect("shard worker alive");
        }
    }

    /// Per-shard serving state, in shard order.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        let (reply, replies) = mpsc::sync_channel(self.workers.len());
        for shard in 0..self.workers.len() {
            self.send(shard, Job::Status { reply: reply.clone() });
        }
        drop(reply);
        let mut statuses: Vec<ShardStatus> = replies.iter().collect();
        statuses.sort_by_key(|s| s.shard);
        statuses
    }

    /// The `/shards` endpoint document: shard count plus per-shard state.
    pub fn statuses_json(&self) -> String {
        let per_shard: Vec<String> =
            self.shard_statuses().iter().map(ShardStatus::to_json).collect();
        format!("{{\"shards\": {}, \"per_shard\": [{}]}}", self.workers.len(), per_shard.join(", "))
    }

    /// The fleet-wide serving summary, aggregated across shards (same
    /// shape as [`FleetMonitor::health_status`]).
    pub fn health_status(&self) -> HealthStatus {
        let statuses = self.shard_statuses();
        let mut latched = [0usize; 3];
        for status in &statuses {
            for (total, n) in latched.iter_mut().zip(status.latched) {
                *total += n;
            }
        }
        HealthStatus {
            drives_tracked: statuses.iter().map(|s| s.drives_tracked).sum(),
            latched,
            alerts_emitted: statuses.iter().map(|s| s.alerts_emitted).sum(),
        }
    }

    /// Fleet-wide quality tallies: every shard's sanitizer stats merged.
    pub fn quality_stats(&self) -> QualityStats {
        let mut merged = QualityStats::default();
        for status in self.shard_statuses() {
            merged.merge(&status.quality);
        }
        merged
    }
}

impl Drop for ShardedFleetMonitor {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            drop(worker.sender.take());
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Counts of everything offered to an [`IngestQueue`]. The conservation
/// invariant `offered = accepted + shed` holds at all times (records and
/// batches alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestCounts {
    /// Records offered (accepted + shed).
    pub offered_records: u64,
    /// Records queued for the serve loop.
    pub accepted_records: u64,
    /// Records dropped because the queue was full.
    pub shed_records: u64,
    /// Batches queued.
    pub accepted_batches: u64,
    /// Batches dropped whole (a batch is never split).
    pub shed_batches: u64,
}

/// The bounded intake between the HTTP `/ingest` endpoint and the serve
/// loop: `offer` never blocks — a full queue sheds the batch (HTTP 429)
/// and counts it (`dds_shed_records_total`), which is what the watchdog's
/// shed budget and the overload runbook key off.
#[derive(Debug)]
pub struct IngestQueue {
    sender: SyncSender<Vec<(DriveId, HealthRecord)>>,
    receiver: Mutex<Receiver<Vec<(DriveId, HealthRecord)>>>,
    counts: Mutex<IngestCounts>,
    recorder: Option<Arc<FlightRecorder>>,
    accepted_records: Arc<Counter>,
    accepted_batches: Arc<Counter>,
    shed_records: Arc<Counter>,
    shed_batches: Arc<Counter>,
}

impl IngestQueue {
    /// A queue holding at most `capacity` batches.
    pub fn bounded(capacity: usize) -> Self {
        let (sender, receiver) = mpsc::sync_channel(capacity.max(1));
        let registry = dds_obs::metrics::global();
        IngestQueue {
            sender,
            receiver: Mutex::new(receiver),
            counts: Mutex::new(IngestCounts::default()),
            recorder: None,
            accepted_records: registry.counter("dds_ingest_records_total"),
            accepted_batches: registry.counter("dds_ingest_batches_total"),
            shed_records: registry.counter("dds_shed_records_total"),
            shed_batches: registry.counter("dds_shed_batches_total"),
        }
    }

    /// Attaches a flight recorder; every *shed* batch then deposits a
    /// `"shed"`-outcome span (zero timings, no shard breakdown — the
    /// batch never reached a shard). Accepted batches are recorded later
    /// by the coordinator when the serve loop drains them.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Offers one decoded batch. `Ok(n)` queued `n` records; `Err(n)`
    /// shed all `n` because the queue was full (backpressure) — the
    /// caller should answer HTTP 429 and let the relay retry later.
    pub fn offer(&self, batch: Vec<(DriveId, HealthRecord)>) -> Result<usize, usize> {
        let records = batch.len() as u64;
        // Poison recovery: the tallies are plain integers updated in
        // place; a panic-isolated handler dying mid-offer must not turn
        // every later /ingest into a 500.
        let mut counts = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counts.offered_records += records;
        match self.sender.try_send(batch) {
            Ok(()) => {
                counts.accepted_records += records;
                counts.accepted_batches += 1;
                self.accepted_records.add(records);
                self.accepted_batches.inc();
                Ok(records as usize)
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                counts.shed_records += records;
                counts.shed_batches += 1;
                self.shed_records.add(records);
                self.shed_batches.inc();
                if let Some(recorder) = &self.recorder {
                    recorder.record(BatchSpan {
                        source: "external",
                        outcome: "shed",
                        records,
                        ..BatchSpan::default()
                    });
                }
                Err(records as usize)
            }
        }
    }

    /// Drains every queued batch into one record list, in arrival order.
    /// Called by the serve loop between stream ticks; never blocks.
    pub fn drain(&self) -> Vec<(DriveId, HealthRecord)> {
        let receiver = self.receiver.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut records = Vec::new();
        while let Ok(batch) = receiver.try_recv() {
            records.extend(batch);
        }
        records
    }

    /// A snapshot of the conservation counters.
    pub fn counts(&self) -> IngestCounts {
        *self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::{Analysis, AnalysisConfig, CategorizationConfig};
    use dds_smartsim::stream::hour_ordered;
    use dds_smartsim::{FleetConfig, FleetSimulator, NUM_ATTRIBUTES};

    fn trained_bundle(seed: u64) -> ModelBundle {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run();
        let config = AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        };
        let report = Analysis::new(config).run(&dataset).unwrap();
        ModelBundle::from_analysis(&dataset, &report)
    }

    fn alert_lines(alerts: &[Alert]) -> Vec<String> {
        alerts.iter().map(|a| format!("{a}")).collect()
    }

    #[test]
    fn shard_for_is_stable_and_covers_all_shards() {
        for shards in [1usize, 2, 3, 8] {
            let mut population = vec![0usize; shards];
            for id in 0..10_000u32 {
                let shard = shard_for(DriveId(id), shards);
                assert!(shard < shards);
                assert_eq!(shard, shard_for(DriveId(id), shards), "must be pure");
                population[shard] += 1;
            }
            let expected = 10_000 / shards;
            for (shard, &n) in population.iter().enumerate() {
                assert!(
                    n > expected / 2 && n < expected * 2,
                    "shard {shard}/{shards} holds {n} of 10000 (expected ~{expected})"
                );
            }
        }
    }

    #[test]
    fn sharded_alerts_match_a_single_monitor_byte_for_byte() {
        let bundle = trained_bundle(9_101);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_102)).run();
        let records = hour_ordered(&live);
        // A corrupted copy that quarantines and imputes: every 17th record
        // duplicated, one attribute of every 23rd record unreadable.
        let mut corrupted = Vec::with_capacity(records.len() + records.len() / 17 + 1);
        for (i, (drive, record)) in records.iter().enumerate() {
            let mut record = record.clone();
            if i % 23 == 0 {
                record.values[i % NUM_ATTRIBUTES] = f64::NAN;
            }
            if i % 17 == 0 {
                corrupted.push((*drive, record.clone()));
            }
            corrupted.push((*drive, record));
        }

        for (stream, records) in [("clean", &records), ("corrupted", &corrupted)] {
            let mut single = FleetMonitor::new(bundle.clone(), MonitorConfig::default());
            let mut expected = Vec::new();
            for (drive, record) in records {
                expected.extend(single.try_ingest(*drive, record).unwrap_or_default());
            }
            let reference = *single.quality_stats();
            if stream == "clean" {
                assert_eq!(reference.accepted, records.len() as u64);
            } else {
                assert!(reference.quarantined > 0 && reference.imputed_attrs > 0, "{reference}");
            }

            for shards in [1usize, 3, 4] {
                let mut sharded =
                    ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), shards);
                let alerts = sharded.ingest_batch(records);
                assert_eq!(
                    alert_lines(&alerts),
                    alert_lines(&expected),
                    "{shards} shard(s) must reproduce the single-monitor {stream} stream"
                );
                assert_eq!(sharded.health_status(), single.health_status(), "{stream}");
                assert_eq!(sharded.quality_stats(), reference, "{stream}, {shards} shard(s)");
            }
        }
    }

    #[test]
    fn batches_can_be_split_arbitrarily_without_changing_alerts() {
        let bundle = trained_bundle(9_103);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_104)).run();
        let records = hour_ordered(&live);

        let mut whole = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 2);
        let expected = whole.ingest_batch(&records);

        let mut chunked = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 2);
        let mut alerts = Vec::new();
        for chunk in records.chunks(97) {
            alerts.extend(chunked.ingest_batch(chunk));
        }
        assert_eq!(alert_lines(&alerts), alert_lines(&expected));
    }

    #[test]
    fn shard_statuses_partition_the_fleet() {
        let bundle = trained_bundle(9_105);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_106)).run();
        let records = hour_ordered(&live);
        let mut sharded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 4);
        sharded.ingest_batch(&records);

        let statuses = sharded.shard_statuses();
        assert_eq!(statuses.len(), 4);
        let tracked: usize = statuses.iter().map(|s| s.drives_tracked).sum();
        assert_eq!(tracked, sharded.health_status().drives_tracked);
        assert!(statuses.iter().all(|s| s.drives_tracked > 0), "test fleet spans all 4 shards");
        let accepted: u64 = statuses.iter().map(|s| s.quality.accepted).sum();
        assert_eq!(accepted, records.len() as u64);
        let json = sharded.statuses_json();
        dds_obs::json::validate(&json).expect("shards JSON");
        assert!(json.contains("\"shards\": 4"));
    }

    #[test]
    fn new_ingest_session_resets_every_shard() {
        let bundle = trained_bundle(9_107);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_108)).run();
        let records = hour_ordered(&live);
        let mut sharded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 3);

        sharded.ingest_batch(&records);
        assert_eq!(sharded.quality_stats().quarantined, 0);
        // Replaying the same epoch looks like ordering faults...
        sharded.ingest_batch(&records);
        assert_eq!(sharded.quality_stats().quarantined, records.len() as u64);
        // ...until the session restarts on every shard.
        sharded.new_ingest_session();
        sharded.ingest_batch(&records);
        assert_eq!(sharded.quality_stats().quarantined, records.len() as u64);
    }

    #[test]
    fn bundle_swap_between_batches_keeps_identical_models_byte_identical() {
        let bundle = trained_bundle(9_113);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_114)).run();
        let records = hour_ordered(&live);

        let mut plain = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 3);
        let mut expected = Vec::new();
        for chunk in records.chunks(300) {
            expected.extend(plain.ingest_batch(chunk));
        }

        // Promote the *same* bundle between every pair of batches: the
        // escalation state survives each swap, so the stream is unchanged.
        let mut swapped = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 3);
        let mut alerts = Vec::new();
        for chunk in records.chunks(300) {
            alerts.extend(swapped.ingest_batch(chunk));
            swapped.swap_bundle(bundle.clone());
        }
        assert_eq!(alert_lines(&alerts), alert_lines(&expected));
        assert_eq!(swapped.health_status().latched, plain.health_status().latched);

        // A *different* bundle actually changes scoring somewhere.
        let other = trained_bundle(9_115);
        let mut diverged = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 3);
        diverged.swap_bundle(other);
        let mut re_alerts = Vec::new();
        let mut re_plain = Vec::new();
        // Fresh streams (new session semantics): replay from scratch.
        let mut baseline =
            ShardedFleetMonitor::new(trained_bundle(9_113), MonitorConfig::default(), 3);
        for chunk in records.chunks(300) {
            re_alerts.extend(diverged.ingest_batch(chunk));
            re_plain.extend(baseline.ingest_batch(chunk));
        }
        assert_ne!(
            alert_lines(&re_alerts),
            alert_lines(&re_plain),
            "a cross-fleet bundle must score differently somewhere"
        );
    }

    #[test]
    fn flight_recorder_spans_conserve_records_across_shards() {
        let bundle = trained_bundle(9_109);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_110)).run();
        let records = hour_ordered(&live);
        // Capacity exceeds the batch count so the conservation sums below
        // can see every span (the ring never evicts in this test).
        let recorder = Arc::new(FlightRecorder::new(256));
        let mut sharded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 3)
            .with_flight_recorder(Arc::clone(&recorder));

        let mut batches = 0u64;
        for chunk in records.chunks(500) {
            sharded.ingest_batch_from(chunk, "stream");
            batches += 1;
        }
        assert_eq!(recorder.total(), batches);

        for span in recorder.last(batches as usize) {
            assert_eq!(span.source, "stream");
            assert_eq!(span.outcome, "ingested");
            // The quality gate partitions every batch...
            assert_eq!(span.accepted + span.quarantined, span.records);
            // ...and the shard spans partition it again, in shard order.
            let shard_records: u64 = span.shards.iter().map(|s| s.records).sum();
            assert_eq!(shard_records, span.records);
            for pair in span.shards.windows(2) {
                assert!(pair[0].shard < pair[1].shard);
            }
            // Stage clocks ran (timed mode) and nest inside the total.
            for shard in &span.shards {
                assert!(shard.sanitize_seconds + shard.ingest_seconds <= span.total_seconds);
            }
            assert!(span.merge_seconds <= span.total_seconds);
        }
        // The recorded totals agree with the quality tallies.
        let spans = recorder.last(batches as usize);
        let accepted: u64 = spans.iter().map(|s| s.accepted).sum();
        assert_eq!(accepted, sharded.quality_stats().accepted);
        // Per-shard lifetime tallies behind `/shards` saw every batch.
        let statuses = sharded.shard_statuses();
        let shard_batches: u64 = statuses.iter().map(|s| s.batches).sum();
        assert!(shard_batches >= batches, "every batch hit at least one shard");
        let bucketed: u64 = statuses.iter().map(|s| s.batch_buckets.iter().sum::<u64>()).sum();
        assert_eq!(bucketed, shard_batches, "every batch landed in exactly one bucket");
    }

    #[test]
    fn detached_recorder_changes_nothing_and_records_nothing() {
        let bundle = trained_bundle(9_111);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_112)).run();
        let records = hour_ordered(&live);

        let mut plain = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 2);
        let expected = plain.ingest_batch(&records);

        let recorder = Arc::new(FlightRecorder::new(64));
        let mut recorded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 2)
            .with_flight_recorder(Arc::clone(&recorder));
        let observed = recorded.ingest_batch(&records);

        assert_eq!(alert_lines(&observed), alert_lines(&expected));
        assert_eq!(recorder.total(), 1);
        assert_eq!(recorder.last(1)[0].source, "batch");
        // An empty batch is not a span: idle ticks must not flood the ring.
        recorded.ingest_batch(&[]);
        assert_eq!(recorder.total(), 1);
    }

    #[test]
    fn shed_batches_deposit_shed_spans() {
        let queue = IngestQueue::bounded(1);
        let recorder = Arc::new(FlightRecorder::new(8));
        let queue = queue.with_flight_recorder(Arc::clone(&recorder));
        let batch = |n: u32| -> Vec<(DriveId, HealthRecord)> {
            (0..n)
                .map(|i| (DriveId(i), HealthRecord { hour: 0, values: [1.0; NUM_ATTRIBUTES] }))
                .collect()
        };
        assert_eq!(queue.offer(batch(4)), Ok(4));
        assert_eq!(queue.offer(batch(9)), Err(9));
        // Only the shed batch left a span; the accepted one is recorded
        // later, when the serve loop drains and ingests it.
        assert_eq!(recorder.total(), 1);
        let span = &recorder.last(1)[0];
        assert_eq!(span.outcome, "shed");
        assert_eq!(span.source, "external");
        assert_eq!(span.records, 9);
        assert!(span.shards.is_empty());
        assert_eq!(span.records as usize, queue.counts().shed_records as usize);
    }

    #[test]
    fn ingest_queue_sheds_on_overflow_and_conserves_counts() {
        let queue = IngestQueue::bounded(2);
        let batch = |n: u32| -> Vec<(DriveId, HealthRecord)> {
            (0..n)
                .map(|i| (DriveId(i), HealthRecord { hour: 0, values: [1.0; NUM_ATTRIBUTES] }))
                .collect()
        };
        assert_eq!(queue.offer(batch(10)), Ok(10));
        assert_eq!(queue.offer(batch(5)), Ok(5));
        // Queue full: the whole batch is shed, never split.
        assert_eq!(queue.offer(batch(7)), Err(7));
        let counts = queue.counts();
        assert_eq!(counts.offered_records, 22);
        assert_eq!(counts.accepted_records, 15);
        assert_eq!(counts.shed_records, 7);
        assert_eq!(counts.accepted_records + counts.shed_records, counts.offered_records);
        assert_eq!(counts.accepted_batches, 2);
        assert_eq!(counts.shed_batches, 1);

        // Draining frees capacity and concatenates in arrival order.
        let drained = queue.drain();
        assert_eq!(drained.len(), 15);
        assert_eq!(queue.offer(batch(3)), Ok(3));
        assert_eq!(queue.drain().len(), 3);
        assert!(queue.drain().is_empty());
    }
}
