//! Sharded serving: hash-partition a fleet across N independent
//! [`FleetMonitor`] workers behind one deterministic coordinator.
//!
//! A single monitor serializes every record through one thread — fine
//! for the paper's 23 k drives, a bottleneck at the ROADMAP's millions.
//! [`ShardedFleetMonitor`] splits the fleet by drive id ([`shard_for`],
//! FNV-1a) onto per-shard worker threads, each owning a full
//! `FleetMonitor` (models, and one slot per drive holding its quality
//! gate and escalation state). The coordinator copies each batch once
//! and shares it with every worker, which takes the records of its own
//! drives. Because a drive's entire history lands on exactly one shard,
//! per-drive semantics (debounce, hysteresis, quality watermarks) are
//! untouched, and the coordinator's merge — a stable sort by
//! `(hour, drive)` — reproduces the single-monitor alert stream byte for
//! byte at any shard count.
//!
//! One reply per shard batch is the only way results leave a worker. It
//! carries the shard's alerts, quality tallies, stage clocks, serving
//! wall time, gauge state, tree predictions and, while a refit candidate
//! soaks, the candidate's [`ShadowTally`]; a shard that owns none of the
//! batch replies with nothing. From those replies the coordinator
//!
//! * publishes every serving metric: a worker writes nothing
//!   process-global per record. It tallies its records' scoring times
//!   locally and adds them to `dds_monitor_ingest_seconds` once per
//!   batch, and the coordinator adds the ingest, alert, quarantine,
//!   imputation, `dds_regtree_predictions_total` and `dds_shadow_*`
//!   counters once per merged batch, next to the fleet-wide drive
//!   gauges. A [`FleetMonitor`] scoring outside a coordinator (a test)
//!   therefore counts into nothing;
//! * keeps one [`ShardStatus`] per shard, so reading shard state
//!   ([`ShardedFleetMonitor::shard_statuses`], `health_status`,
//!   `quality_stats`, `statuses_json`) sends no message to the workers.
//!
//! A candidate bundle ([`ShardedFleetMonitor::set_candidate`]) scores on
//! every shard beside the serving one: after the serving pass the worker
//! feeds the candidate the records the serving gate admitted, so each
//! record passes one quality gate, and counts the batch's divergence on
//! its shard. A drive's alert keys never span shards, so the per-shard
//! divergences sum to the whole batch's at any shard count. Candidate
//! alerts are never emitted, recorded or counted as serving alerts.
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
use crate::shadow::{ShadowTally, SHADOW_COUNTERS};
use dds_core::quality::{QualityStats, QUARANTINE_REASONS};
use dds_obs::journal::{BatchSpan, FlightRecorder, ShardSpan};
use dds_obs::metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
use dds_smartsim::{DriveId, HealthRecord};
use std::borrow::Cow;
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
/// into a [`BatchSpan`], the batch's serving wall time (gate and
/// serving model; candidate scoring excluded), the shard's gauge state
/// after it, the regression-tree predictions it made (serving model and
/// candidate), and the soaking candidate's tallies when one is attached.
struct ShardBatch {
    alerts: Vec<Alert>,
    quality: QualityStats,
    sanitize_seconds: f64,
    ingest_seconds: f64,
    seconds: f64,
    drives_tracked: usize,
    latched: [usize; 3],
    predictions: u64,
    shadow: Option<ShadowTally>,
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
/// handbook's sizing checks. The coordinator keeps it up to date from
/// the shard's batch replies.
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
    /// Histogram-compatible bucket counts of this shard's per-batch
    /// serving wall times (see [`Histogram::bucket_index`]; a soaking
    /// candidate's scoring is not included); feeds the per-shard latency
    /// quantiles in [`dds_obs::timeseries::ShardSeriesStore`].
    pub batch_buckets: [u64; HISTOGRAM_BUCKETS],
}

impl ShardStatus {
    fn new(shard: usize) -> Self {
        ShardStatus {
            shard,
            drives_tracked: 0,
            latched: [0; 3],
            quality: QualityStats::default(),
            alerts_emitted: 0,
            batches: 0,
            batch_buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Folds one batch reply of this shard in.
    fn absorb(&mut self, batch: &ShardBatch) {
        self.drives_tracked = batch.drives_tracked;
        self.latched = batch.latched;
        self.quality.merge(&batch.quality);
        self.alerts_emitted += batch.alerts.len() as u64;
        self.batches += 1;
        self.batch_buckets[Histogram::bucket_index(batch.seconds)] += 1;
    }

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

/// Bundles are boxed: they carry whole regression trees and would
/// otherwise dominate the job enum's size for every queued batch.
enum Job {
    /// The whole batch, shared by every shard; each takes its own drives
    /// and replies `None` when it owns none of them.
    Batch {
        records: Arc<[(DriveId, HealthRecord)]>,
        reply: SyncSender<(usize, Option<ShardBatch>)>,
    },
    NewSession {
        reply: SyncSender<()>,
    },
    /// Hot-swap the shard's model bundle (promotion).
    SwapBundle {
        bundle: Box<ModelBundle>,
        reply: SyncSender<()>,
    },
    /// Attach a fresh candidate monitor for this bundle, or drop it.
    Candidate {
        bundle: Option<Box<ModelBundle>>,
        reply: SyncSender<()>,
    },
}

struct Worker {
    sender: Option<mpsc::Sender<Job>>,
    handle: Option<thread::JoinHandle<()>>,
}

fn worker_loop(
    shard: usize,
    shards: usize,
    mut monitor: FleetMonitor,
    config: MonitorConfig,
    record_seconds: Arc<Histogram>,
    jobs: Receiver<Job>,
) {
    // The soaking refit candidate: its own escalation state, fed only
    // records the serving gate admitted.
    let mut candidate: Option<FleetMonitor> = None;
    // This shard's admitted records of the current batch: the drive's
    // slot, the record's position in the shared batch and, when the gate
    // repaired the record, its index in `repaired`. Both are reused
    // across batches.
    let mut admitted: Vec<(u32, usize, Option<usize>)> = Vec::new();
    let mut repaired: Vec<HealthRecord> = Vec::new();
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Batch { records, reply } => {
                let started = Instant::now();
                let before = *monitor.quality_stats();
                // The quality gate over this shard's records. Gate and
                // scoring state are disjoint, so this equals `try_ingest`
                // record by record.
                admitted.clear();
                repaired.clear();
                for (position, (drive, record)) in records.iter().enumerate() {
                    if shard_for(*drive, shards) != shard {
                        continue;
                    }
                    if let Ok((slot, cleaned)) = monitor.sanitize_slot(*drive, record) {
                        let fixed = match cleaned {
                            Cow::Borrowed(_) => None,
                            Cow::Owned(record) => {
                                repaired.push(record);
                                Some(repaired.len() - 1)
                            }
                        };
                        admitted.push((slot, position, fixed));
                    }
                }
                let quality = quality_delta(monitor.quality_stats(), &before);
                if quality.ingested == 0 {
                    let _ = reply.send((shard, None));
                    continue;
                }
                // The admitted records, as the gate passed them.
                let passed = || {
                    admitted.iter().map(|&(slot, position, fixed)| {
                        let (drive, record) = &records[position];
                        (slot, *drive, fixed.map_or(record, |i| &repaired[i]))
                    })
                };
                // One clock read per scored record: each record's time
                // runs from the end of the one before it. The times go
                // into a local histogram, published once per batch.
                let scoring = Instant::now();
                let predicted = monitor.tree_predictions();
                let mut alerts = Vec::new();
                let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                let mut last = scoring;
                for (slot, drive, record) in passed() {
                    alerts.append(&mut monitor.ingest_slot(slot, drive, record));
                    let now = Instant::now();
                    buckets[Histogram::bucket_index((now - last).as_secs_f64())] += 1;
                    last = now;
                }
                let ingest_seconds = (last - scoring).as_secs_f64();
                record_seconds.observe_buckets(&buckets, ingest_seconds);
                let mut predictions = monitor.tree_predictions() - predicted;
                // The shard's batch time (`/shards`, the per-shard SLO)
                // measures serving work only, so it stops before the
                // candidate pass.
                let seconds = started.elapsed().as_secs_f64();
                // The candidate shares the serving gate: it scores exactly
                // the records admitted above, as the gate repaired them.
                let shadow = candidate.as_mut().map(|candidate| {
                    let predicted = candidate.tree_predictions();
                    let candidate_alerts: Vec<Alert> = passed()
                        .flat_map(|(_, drive, record)| candidate.ingest_sanitized(drive, record))
                        .collect();
                    predictions += candidate.tree_predictions() - predicted;
                    ShadowTally::of_batch(&alerts, &candidate_alerts)
                });
                let status = monitor.health_status();
                let _ = reply.send((
                    shard,
                    Some(ShardBatch {
                        alerts,
                        quality,
                        sanitize_seconds: (scoring - started).as_secs_f64(),
                        ingest_seconds,
                        seconds,
                        drives_tracked: status.drives_tracked,
                        latched: status.latched,
                        predictions,
                        shadow,
                    }),
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
            Job::Candidate { bundle, reply } => {
                candidate = bundle.map(|bundle| FleetMonitor::new(*bundle, config.clone()));
                let _ = reply.send(());
            }
        }
    }
}

/// Cached handles for every serving metric the coordinator publishes.
#[derive(Debug)]
struct CoordinatorMetrics {
    shards: Arc<Gauge>,
    batch_seconds: Arc<Histogram>,
    /// Per-record scoring time, added by the shard workers once per batch.
    record_seconds: Arc<Histogram>,
    /// `dds_regtree_predictions_total`: the shards' tree predictions.
    predictions: Arc<Counter>,
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
            predictions: registry.counter("dds_regtree_predictions_total"),
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
/// [`AlertHistory`] in merged order. While a candidate soaks
/// ([`set_candidate`]) it also adds the batch's shadow tallies to the
/// `dds_shadow_*` counters.
///
/// [`ingest_batch`]: ShardedFleetMonitor::ingest_batch
/// [`set_candidate`]: ShardedFleetMonitor::set_candidate
#[derive(Debug)]
pub struct ShardedFleetMonitor {
    workers: Vec<Worker>,
    history: Option<Arc<AlertHistory>>,
    recorder: Option<Arc<FlightRecorder>>,
    metrics: CoordinatorMetrics,
    /// Each shard's state as of its last batch reply, in shard order.
    statuses: Vec<ShardStatus>,
    /// The soaking candidate's tallies since it attached.
    shadow: Option<ShadowTally>,
    /// The `dds_shadow_*` counters in [`SHADOW_COUNTERS`] order,
    /// registered by the first shadow-scored batch.
    shadow_counters: Option<[Arc<Counter>; 4]>,
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
                let config = config.clone();
                let record_seconds = Arc::clone(&metrics.record_seconds);
                let handle = thread::Builder::new()
                    .name(format!("dds-shard-{shard}"))
                    .spawn(move || {
                        worker_loop(shard, shards, monitor, config, record_seconds, receiver)
                    })
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
            statuses: (0..shards).map(ShardStatus::new).collect(),
            shadow: None,
            shadow_counters: None,
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

    /// Sends one `job(reply)` to every shard and blocks until all of them
    /// have acknowledged it.
    fn broadcast(&self, job: impl Fn(SyncSender<()>) -> Job) {
        let (reply, replies) = mpsc::sync_channel(self.workers.len());
        for shard in 0..self.workers.len() {
            self.send(shard, job(reply.clone()));
        }
        drop(reply);
        for _ in 0..self.workers.len() {
            replies.recv().expect("shard worker alive");
        }
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
        // One copy of the batch, shared by every shard: each worker takes
        // the records of the drives `shard_for` routes to it.
        let (reply, replies) = mpsc::sync_channel(shards);
        let outstanding = if records.is_empty() { 0 } else { shards };
        if outstanding > 0 {
            let batch: Arc<[(DriveId, HealthRecord)]> = Arc::from(records);
            for shard in 0..shards {
                self.send(shard, Job::Batch { records: Arc::clone(&batch), reply: reply.clone() });
            }
        }
        drop(reply);

        let mut alerts = Vec::new();
        let mut quality = QualityStats::default();
        let mut predictions = 0;
        let mut shadow = ShadowTally::default();
        let mut shard_spans: Vec<ShardSpan> = Vec::new();
        for _ in 0..outstanding {
            let (shard, batch) = replies.recv().expect("shard worker alive");
            // A shard that owned none of the batch has nothing to absorb.
            let Some(batch) = batch else { continue };
            self.statuses[shard].absorb(&batch);
            quality.merge(&batch.quality);
            predictions += batch.predictions;
            if let Some(tally) = &batch.shadow {
                shadow.add(tally);
            }
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
        self.publish(&quality, &alerts, predictions);
        if !records.is_empty() {
            self.publish_shadow(shadow);
        }
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
    fn publish(&self, quality: &QualityStats, alerts: &[Alert], predictions: u64) {
        let metrics = &self.metrics;
        metrics.predictions.add(predictions);
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
        let tracked: usize = self.statuses.iter().map(|s| s.drives_tracked).sum();
        metrics.drives_tracked.set(tracked as f64);
        for (i, gauge) in metrics.latched.iter().enumerate() {
            let latched: usize = self.statuses.iter().map(|s| s.latched[i]).sum();
            gauge.set(latched as f64);
        }
    }

    /// Adds one merged non-empty batch's shadow tallies to the soaking
    /// candidate's totals and to the `dds_shadow_*` counters; a no-op
    /// while no candidate is attached.
    fn publish_shadow(&mut self, mut batch: ShadowTally) {
        let Some(total) = self.shadow.as_mut() else {
            return;
        };
        batch.batches = 1;
        total.add(&batch);
        let counters = self.shadow_counters.get_or_insert_with(|| {
            let registry = dds_obs::metrics::global();
            SHADOW_COUNTERS.map(|name| registry.counter(name))
        });
        for (counter, n) in counters.iter().zip(batch.counts()) {
            counter.add(n);
        }
    }

    /// Resets every shard's ingest session (ordering watermarks restart;
    /// cumulative stats are kept), blocking until all shards have done so.
    pub fn new_ingest_session(&mut self) {
        self.broadcast(|reply| Job::NewSession { reply });
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
        self.broadcast(|reply| Job::SwapBundle { bundle: Box::new(bundle.clone()), reply });
    }

    /// Attaches a refit candidate to every shard (`Some`), replacing any
    /// candidate already soaking, or drops it (`None`), blocking until
    /// all shards have done so.
    ///
    /// From the next batch on, each shard scores the candidate beside the
    /// serving bundle on the records its serving quality gate admitted,
    /// with fresh escalation state and the serving config, and the
    /// coordinator tallies the agreement ([`shadow_tally`]) and publishes
    /// it as `dds_shadow_*` counters. The candidate shares the serving
    /// gate, so it matches a separate monitor fed the same raw records
    /// exactly when that monitor's gate would be in the serving gate's
    /// state: attach at an ingest-session start, as `dds serve` does
    /// after each epoch's refit. Candidate alerts are never returned,
    /// recorded or counted as serving alerts, and candidate scoring stays
    /// out of `dds_monitor_ingest_seconds` and the shards' batch times;
    /// the coordinator waits for it, so it does add to
    /// `dds_ingest_batch_seconds` and the flight recorder's
    /// `total_seconds`.
    ///
    /// [`shadow_tally`]: ShardedFleetMonitor::shadow_tally
    pub fn set_candidate(&mut self, bundle: Option<ModelBundle>) {
        self.broadcast(|reply| Job::Candidate { bundle: bundle.clone().map(Box::new), reply });
        self.shadow = bundle.map(|_| ShadowTally::default());
    }

    /// The soaking candidate's tallies since it attached, or `None` while
    /// no candidate is attached.
    pub fn shadow_tally(&self) -> Option<ShadowTally> {
        self.shadow
    }

    /// Per-shard serving state, in shard order, as of each shard's last
    /// batch reply.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.statuses.clone()
    }

    /// The `/shards` endpoint document: shard count plus per-shard state.
    pub fn statuses_json(&self) -> String {
        let per_shard: Vec<String> = self.statuses.iter().map(ShardStatus::to_json).collect();
        format!("{{\"shards\": {}, \"per_shard\": [{}]}}", self.workers.len(), per_shard.join(", "))
    }

    /// The fleet-wide serving summary, aggregated across shards (same
    /// shape as [`FleetMonitor::health_status`]).
    pub fn health_status(&self) -> HealthStatus {
        let mut latched = [0usize; 3];
        for status in &self.statuses {
            for (total, n) in latched.iter_mut().zip(status.latched) {
                *total += n;
            }
        }
        HealthStatus {
            drives_tracked: self.statuses.iter().map(|s| s.drives_tracked).sum(),
            latched,
            alerts_emitted: self.statuses.iter().map(|s| s.alerts_emitted).sum(),
        }
    }

    /// Fleet-wide quality tallies: every shard's sanitizer stats merged.
    pub fn quality_stats(&self) -> QualityStats {
        let mut merged = QualityStats::default();
        for status in &self.statuses {
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

            for shards in [1usize, 2, 3, 4, 8] {
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

    /// What the in-shard candidate must reproduce: separate serving and
    /// candidate monitors, each behind its own quality gate, fed the same
    /// raw batches, with the candidate attached at the session start.
    /// Returns the serving alerts and the candidate's tally.
    fn reference_soak(
        serving: &mut FleetMonitor,
        candidate_bundle: &ModelBundle,
        batches: &[&[(DriveId, HealthRecord)]],
    ) -> (Vec<Alert>, ShadowTally) {
        let key = |a: &Alert| format!("{}|{}|{}|{}", a.hour, a.drive, a.severity, a.kind);
        let mut candidate = FleetMonitor::new(candidate_bundle.clone(), MonitorConfig::default());
        let mut served = Vec::new();
        let mut tally = ShadowTally::default();
        for batch in batches {
            let ours: Vec<Alert> = batch.iter().flat_map(|(d, r)| serving.ingest(*d, r)).collect();
            let theirs: Vec<Alert> =
                batch.iter().flat_map(|(d, r)| candidate.ingest(*d, r)).collect();
            let our_keys: std::collections::BTreeSet<String> = ours.iter().map(key).collect();
            let their_keys: std::collections::BTreeSet<String> = theirs.iter().map(key).collect();
            tally.batches += 1;
            tally.serving_alerts += ours.len() as u64;
            tally.candidate_alerts += theirs.len() as u64;
            tally.divergence += our_keys.symmetric_difference(&their_keys).count() as u64;
            served.extend(ours);
        }
        (served, tally)
    }

    #[test]
    fn shadow_tallies_match_a_serving_and_candidate_monitor_pair() {
        let serving_bundle = trained_bundle(5_001);
        let cross_fleet = trained_bundle(5_004);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(5_002)).run();
        let records = hour_ordered(&live);
        // Every 17th record duplicated, one attribute of every 23rd
        // unreadable: the gate quarantines and imputes while the
        // candidate soaks.
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

        // The four `dds_shadow_*` counters, named here rather than through
        // the crate's own list so a mislabelled counter shows.
        let published = || {
            let registry = dds_obs::metrics::global();
            [
                "dds_shadow_batches_total",
                "dds_shadow_alerts_serving_total",
                "dds_shadow_alerts_candidate_total",
                "dds_shadow_divergence_total",
            ]
            .map(|name| registry.counter(name).get())
        };

        let cases = [
            ("identical", &serving_bundle, &records),
            ("cross-fleet", &cross_fleet, &records),
            ("corrupted", &cross_fleet, &corrupted),
        ];
        for (case, candidate_bundle, stream) in cases {
            let batches: Vec<&[(DriveId, HealthRecord)]> = stream.chunks(300).collect();
            // Two soaks: one attached at the first session start, then a
            // fresh candidate attached at the next session start, against
            // a serving side that keeps its escalation state.
            let mut serving = FleetMonitor::new(serving_bundle.clone(), MonitorConfig::default());
            let first = reference_soak(&mut serving, candidate_bundle, &batches);
            serving.new_ingest_session();
            let second = reference_soak(&mut serving, candidate_bundle, &batches);
            if case == "identical" {
                assert_eq!(first.1.divergence, 0, "the same model cannot diverge");
                assert_eq!(first.1.candidate_alerts, first.1.serving_alerts);
                assert!(first.1.serving_alerts > 0, "the live fleet must raise some alerts");
            } else {
                assert!(first.1.divergence > 0, "cross-fleet candidates must disagree somewhere");
            }
            if case == "corrupted" {
                let quality = serving.quality_stats();
                assert!(quality.quarantined > 0 && quality.imputed_attrs > 0, "{quality}");
            }

            for shards in [1usize, 2, 3, 4, 8] {
                let mut sharded = ShardedFleetMonitor::new(
                    serving_bundle.clone(),
                    MonitorConfig::default(),
                    shards,
                );
                assert_eq!(sharded.shadow_tally(), None);
                for (expected, tally) in [&first, &second] {
                    sharded.set_candidate(Some(candidate_bundle.clone()));
                    assert_eq!(sharded.shadow_tally(), Some(ShadowTally::default()));
                    // No other test in this crate attaches a candidate, so
                    // the soak's counter deltas are exact.
                    let published_before = published();
                    let mut alerts = Vec::new();
                    for batch in &batches {
                        alerts.extend(sharded.ingest_batch(batch));
                    }
                    let published_after = published();
                    let published_delta: [u64; 4] =
                        std::array::from_fn(|i| published_after[i] - published_before[i]);
                    assert_eq!(
                        published_delta,
                        [
                            tally.batches,
                            tally.serving_alerts,
                            tally.candidate_alerts,
                            tally.divergence
                        ],
                        "{case}, {shards} shard(s): published dds_shadow_* counters \
                         (batches, serving alerts, candidate alerts, divergence)"
                    );
                    assert_eq!(
                        alert_lines(&alerts),
                        alert_lines(expected),
                        "{case}, {shards} shard(s): the candidate must not touch serving alerts"
                    );
                    assert_eq!(sharded.shadow_tally(), Some(*tally), "{case}, {shards} shard(s)");
                    sharded.new_ingest_session();
                }
                assert_eq!(sharded.quality_stats(), *serving.quality_stats(), "{case}");
                sharded.set_candidate(None);
                assert_eq!(sharded.shadow_tally(), None);
            }

            let json = first.1.to_json();
            dds_obs::json::validate(&json).expect("shadow JSON");
            for key in
                ["\"batches\"", "\"serving_alerts\"", "\"candidate_alerts\"", "\"divergence\""]
            {
                assert!(json.contains(key), "missing {key} in {json}");
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
