//! The `dds serve` loop: continuous simulated ingest with the scrape
//! server attached.
//!
//! Serving composes the pieces the other subcommands use once into a
//! long-lived process: train a [`ModelBundle`] (readiness flips only
//! after), then stream endless [`StreamingFleet`] epochs through a
//! [`ShardedFleetMonitor`] in hour order — drives hash onto `--shards N`
//! per-shard monitor workers, and `--shards 1` (the default) is
//! byte-identical to the historical single-monitor loop. After every
//! ingested fleet-hour the loop drains the bounded [`IngestQueue`] fed by
//! the `/ingest` endpoint (external batches ride along with the simulated
//! stream), samples the metrics registry into a [`TimeSeriesStore`] and
//! each shard's counters into its own store in the [`ShardSeriesStore`],
//! evaluates the [`Watchdog`]'s standard SLO rules — including the
//! shed-rate budget that flips `/healthz` under sustained overload — then
//! the same latency and quarantine rules on each shard's store, which
//! name the offending shard, and sleeps the configured tick. Every
//! batch also deposits a span into the [`FlightRecorder`] behind
//! `/trace`. The [`MonitorService`] endpoints (`/metrics`, `/healthz`,
//! `/alerts`, `/shards`, `/trace`, `/timeseries`, …) answer from shared
//! state on the server's worker threads throughout, so scrapes never
//! block ingest. SIGINT/SIGTERM (or a test-driven stop flag) ends the
//! loop cleanly: the server drains, readiness drops, and a final summary
//! (plus `--metrics` snapshot) is emitted.

use crate::{analysis_config, fleet_config, ChaosOptions, CliError, ObsOptions};
use dds_core::{Analysis, OnlineTrainer, TrainedModel, TrainingContext};
use dds_monitor::{
    AlertHistory, DriftBaseline, DriftDetector, IngestQueue, ModelBundle, ModelSlot, MonitorConfig,
    MonitorService, PromotionGate, PromotionOutcome, ShardedFleetMonitor,
};
use dds_obs::http::HttpServer;
use dds_obs::journal::{FlightRecorder, DEFAULT_JOURNAL_CAPACITY};
use dds_obs::metrics::Registry;
use dds_obs::profile::StageProfiler;
use dds_obs::timeseries::{ShardSample, ShardSeriesStore, TimeSeriesStore};
use dds_obs::watchdog::{ShardSlo, Watchdog};
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::{Dataset, DriveId, FleetSimulator, HealthRecord, StreamingFleet};
use dds_stats::par::Parallelism;
use std::error::Error;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Options of the `dds serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Simulation scale (`test`, `bench`, `consumer` or `paper`).
    pub scale: String,
    /// Training seed; ingest epochs derive their seeds from it.
    pub seed: u64,
    /// Worker threads for simulation/analysis (0 = all cores).
    pub threads: usize,
    /// Listen address for the scrape server.
    pub listen: String,
    /// Stop after this many ingest epochs (0 = run until interrupted).
    pub epochs: u64,
    /// Pause between ingested fleet-hours, pacing the stream.
    pub tick_ms: u64,
    /// Fault injection applied to the ingest epochs.
    pub chaos: ChaosOptions,
    /// Corrupt only the first N epochs, then stream clean (0 = all).
    pub chaos_epochs: u64,
    /// Warm-start from a saved model artifact instead of training
    /// (`--model`); train→ready collapses to load→ready.
    pub model: Option<PathBuf>,
    /// Serving shards: drives hash onto this many independent monitor
    /// workers (`--shards`, default 1).
    pub shards: usize,
    /// Streaming refit cadence in epochs (`--refit-every`, 0 = off):
    /// every N epochs the online trainer refits a candidate model on the
    /// last full epoch window; the candidate shadow-scores subsequent
    /// traffic until `POST /model/promote` hot-swaps it in.
    pub refit_every: u64,
    /// Capacity of the `/ingest` queue in batches (`--ingest-queue`);
    /// a full queue sheds the whole batch with a 429 receipt.
    pub ingest_queue: usize,
    /// Observability flags.
    pub obs: ObsOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            scale: "test".to_string(),
            seed: 0x2015_115C,
            threads: 0,
            listen: "127.0.0.1:9150".to_string(),
            epochs: 0,
            tick_ms: 50,
            chaos: ChaosOptions::default(),
            chaos_epochs: 0,
            model: None,
            shards: 1,
            refit_every: 0,
            ingest_queue: 256,
            obs: ObsOptions::default(),
        }
    }
}

/// Loads a model artifact, recording `dds_model_load_seconds` and
/// `dds_model_age_seconds` on `registry` — the warm-start path shared by
/// `dds serve --model` and `dds predict --model`.
///
/// # Errors
///
/// Maps every [`dds_core::ModelError`] to a [`CliError`] naming the path.
pub(crate) fn load_model(path: &Path, registry: &Registry) -> Result<TrainedModel, Box<dyn Error>> {
    let started = Instant::now();
    let model = TrainedModel::load(path)
        .map_err(|e| CliError::boxed(format!("cannot load model {}: {e}", path.display())))?;
    registry.gauge("dds_model_load_seconds").set(started.elapsed().as_secs_f64());
    registry.gauge("dds_model_age_seconds").set(model_age_seconds(&model));
    Ok(model)
}

/// Seconds since the model was assembled (0 when the clock is behind the
/// artifact's stamp).
pub(crate) fn model_age_seconds(model: &TrainedModel) -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|now| now.as_secs().saturating_sub(model.meta.created_unix))
        .unwrap_or(0) as f64
}

/// Registers the build-attribution metrics (`dds_build_info`,
/// `dds_uptime_seconds`) on `registry`; called by every entry point that
/// exports metrics.
pub fn register_build_info(registry: &Registry) {
    registry.info("dds_build_info").set(&[
        ("version", env!("CARGO_PKG_VERSION")),
        ("git_sha", option_env!("DDS_GIT_SHA").unwrap_or("unknown")),
    ]);
    registry.gauge("dds_uptime_seconds").set(0.0);
}

/// A refit artifact soaking in the shards beside the serving model,
/// waiting for `POST /model/promote`.
#[derive(Debug)]
struct RefitCandidate {
    bundle: ModelBundle,
    model: TrainedModel,
    /// The refit window's quarantine rate — adopted as the drift
    /// detector's expected-disorder baseline on promotion.
    expected_disorder: f64,
    provenance: String,
}

/// Simulates the next epoch: its clean manifest (labels and racks, which
/// a refit window needs) and its [`hour_ordered`] records, corrupted with
/// the epoch index as salt while that index is below `chaos_epochs` (0
/// corrupts every epoch).
fn next_epoch(
    stream: &mut StreamingFleet,
    chaos: &ChaosOptions,
    chaos_epochs: u64,
) -> (Dataset, Vec<(DriveId, HealthRecord)>) {
    let index = stream.epochs_generated();
    let manifest = stream.next_epoch();
    let mut records = hour_ordered(&manifest);
    if chaos_epochs == 0 || index < chaos_epochs {
        records = chaos.corrupt(index, records).0;
    }
    (manifest, records)
}

/// Sleeps `tick` in small slices so a stop request interrupts the pause
/// promptly.
fn interruptible_sleep(tick: Duration, stop: &AtomicBool) {
    let mut remaining = tick;
    while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
        let slice = remaining.min(Duration::from_millis(25));
        std::thread::sleep(slice);
        remaining -= slice;
    }
}

/// Runs the serving loop until `stop` is set or the epoch budget is
/// exhausted, returning the final summary text. `on_bound` receives the
/// server's actual address once it listens (the way tests learn an
/// ephemeral port).
///
/// # Errors
///
/// Returns an error if the listen address cannot be bound or training
/// fails; ingest itself cannot fail.
pub fn serve(
    options: &ServeOptions,
    stop: &AtomicBool,
    profiler: Option<Arc<StageProfiler>>,
    on_bound: impl FnOnce(SocketAddr),
) -> Result<String, Box<dyn Error>> {
    let registry = dds_obs::metrics::global();
    register_build_info(registry);
    // Pre-register the serve error counter so the watchdog's error-budget
    // rule sees it from the first sample.
    let ingest_errors = registry.counter("dds_serve_ingest_errors_total");
    // Online-learning failures (refit errors, unpersistable promotions)
    // degrade the loop's self-improvement, not its serving path, so they
    // get their own counter instead of the ingest error budget.
    let refit_errors = registry.counter("dds_online_refit_errors_total");

    let history = Arc::new(AlertHistory::default());
    let watchdog = Watchdog::new(Watchdog::standard_rules());
    let health = watchdog.health();
    let model_slot = Arc::new(ModelSlot::new());
    let promotion_gate = Arc::new(PromotionGate::new());
    let recorder = Arc::new(FlightRecorder::new(DEFAULT_JOURNAL_CAPACITY));
    let ingest_queue = Arc::new(
        IngestQueue::bounded(options.ingest_queue).with_flight_recorder(Arc::clone(&recorder)),
    );
    let shards_slot = Arc::new(Mutex::new(String::new()));
    let drift_slot = Arc::new(Mutex::new(String::new()));
    let store = Arc::new(TimeSeriesStore::new(512));
    let shard_series = Arc::new(ShardSeriesStore::new(options.shards.max(1), 512));
    let mut service = MonitorService::new(Arc::clone(&history), Arc::clone(&health))
        .with_model_slot(Arc::clone(&model_slot))
        .with_promotion_gate(Arc::clone(&promotion_gate))
        .with_ingest(Arc::clone(&ingest_queue))
        .with_shards_slot(Arc::clone(&shards_slot))
        .with_drift_slot(Arc::clone(&drift_slot))
        .with_flight_recorder(Arc::clone(&recorder))
        .with_timeseries(Arc::clone(&store))
        .with_shard_series(Arc::clone(&shard_series));
    if let Some(profiler) = profiler {
        service = service.with_profiler(profiler);
    }
    let server = HttpServer::bind(options.listen.as_str(), 4, Arc::new(service))
        .map_err(|e| CliError::boxed(format!("cannot listen on {}: {e}", options.listen)))?;
    let addr = server.local_addr();
    on_bound(addr);

    // Obtain the bundle — warm (load an artifact) or cold (train in
    // process); /readyz answers 503 until it is ready. Both paths publish
    // provenance for `/model` and produce bit-identical bundles for the
    // same training run, so the ingest below behaves the same either way.
    let par = Parallelism::from_thread_count(options.threads);
    let ctx = TrainingContext {
        seed: options.seed,
        scale: options.scale.clone(),
        git_sha: option_env!("DDS_GIT_SHA").unwrap_or("unknown").to_string(),
    };
    let (bundle, serving_provenance, serving_model) = match &options.model {
        Some(path) => {
            let model = load_model(path, registry)?;
            let bundle = ModelBundle::from_trained(&model)
                .map_err(|e| CliError::boxed(format!("model {}: {e}", path.display())))?;
            let provenance = model.provenance_json(&path.display().to_string());
            (bundle, provenance, model)
        }
        None => {
            let training = FleetSimulator::new(
                fleet_config(&options.scale).with_seed(options.seed).with_parallelism(par),
            )
            .run();
            let (analysis, model) =
                Analysis::new(analysis_config(None, options.threads)).train(&training, &ctx)?;
            registry.gauge("dds_model_load_seconds").set(0.0);
            registry.gauge("dds_model_age_seconds").set(0.0);
            let bundle = ModelBundle::from_analysis(&training, &analysis);
            let provenance = model.provenance_json("trained in-process");
            (bundle, provenance, model)
        }
    };
    model_slot.publish(serving_provenance.clone());
    let mut serving_bundle = bundle.clone();
    let mut serving_provenance = serving_provenance;
    // The serving artifact doubles as the warm-start prior for
    // incremental refits and as the training-RMSE baseline of the RMSE
    // drift channel; promotions replace it alongside the bundle.
    let mut serving_model = serving_model;
    let mut monitor = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), options.shards)
        .with_history(Arc::clone(&history))
        .with_flight_recorder(Arc::clone(&recorder));
    // The online-learning loop: the drift detector watches every raw
    // record against the serving model's training metadata (always on);
    // the trainer and the shards' candidate only run under
    // `--refit-every N`.
    let mut drift = DriftDetector::new(DriftBaseline::from_bundle(&serving_bundle, 0.0));
    let mut trainer = (options.refit_every > 0)
        .then(|| OnlineTrainer::new(analysis_config(None, options.threads)));
    let mut candidate: Option<RefitCandidate> = None;
    let mut promotions = 0u64;
    health.set_ready(true);

    store.sample(registry);
    let shard_slo = ShardSlo::standard();
    let mut stream = StreamingFleet::new(
        fleet_config(&options.scale).with_seed(options.seed.wrapping_add(1)).with_parallelism(par),
    );
    let tick = Duration::from_millis(options.tick_ms);

    'serve: while !stop.load(Ordering::SeqCst) {
        // Each epoch restarts the fleet's hour counters, so the quality
        // gate's per-drive ordering history (the serving gate, which the
        // soaking candidate shares, and the drift side) must restart with
        // it.
        monitor.new_ingest_session();
        drift.new_session();
        let (manifest, records) = next_epoch(&mut stream, &options.chaos, options.chaos_epochs);
        if let Some(trainer) = trainer.as_mut() {
            trainer.begin_epoch(&manifest);
            // The trainer observes only the simulated stream: external
            // /ingest traffic may reuse manifest drive ids, and letting
            // it into the window would make the refit depend on scrape
            // timing instead of the seed.
            trainer.observe_batch(&records);
        }
        // Only the trainer reads the manifest; free it before streaming.
        drop(manifest);
        let mut start = 0;
        while start < records.len() {
            if stop.load(Ordering::SeqCst) {
                break 'serve;
            }
            // One fleet-hour at a time: the simulated stream is hour-major,
            // so each run is a natural ingest batch fanned across shards.
            let hour = records[start].1.hour;
            let end = start + records[start..].iter().take_while(|(_, r)| r.hour == hour).count();
            let batch = &records[start..end];
            monitor.ingest_batch_from(batch, "stream");
            drift.observe_batch(batch);
            // External batches POSTed to /ingest ride along after the
            // simulated hour; shedding already happened at offer time.
            let external = ingest_queue.drain();
            if !external.is_empty() {
                monitor.ingest_batch_from(&external, "external");
                drift.observe_batch(&external);
            }
            drift.publish(registry);
            if let Ok(mut slot) = drift_slot.lock() {
                *slot = format!(
                    "{{\"drift\": {}, \"shadow\": {}, \"candidate\": {}, \"promotions\": {}}}",
                    drift.to_json(),
                    monitor.shadow_tally().map_or("null".to_string(), |t| t.to_json()),
                    candidate.as_ref().map_or("null", |c| c.provenance.as_str()),
                    promotions,
                );
            }
            // Promotion requests rendezvous here, between ingest batches,
            // so a hot-swap can never land mid-batch.
            let waiters = promotion_gate.take();
            if !waiters.is_empty() {
                // A soaking candidate becomes the serving model; without
                // one the serving model is re-promoted. The swap is real
                // either way (new generation, same bytes when re-promoted),
                // which is exactly the hot-swap torture test's control
                // case — the alert stream must not notice.
                let promoted = match candidate.take() {
                    Some(cand) => {
                        monitor.set_candidate(None);
                        drift.swap_baseline(DriftBaseline::from_bundle(
                            &cand.bundle,
                            cand.expected_disorder,
                        ));
                        if let Some(path) = &options.model {
                            if let Err(e) = cand.model.save(path) {
                                refit_errors.inc();
                                eprintln!(
                                    "warning: cannot persist promoted model {}: {e}",
                                    path.display()
                                );
                            }
                        }
                        serving_bundle = cand.bundle;
                        serving_model = cand.model;
                        serving_provenance = cand.provenance;
                        "candidate"
                    }
                    None => "serving",
                };
                monitor.swap_bundle(serving_bundle.clone());
                let generation = model_slot.publish(serving_provenance.clone());
                promotions += 1;
                let outcome = PromotionOutcome {
                    status: 200,
                    body: format!(
                        "{{\"status\": \"promoted\", \"promoted\": \"{promoted}\", \
                         \"generation\": {generation}}}"
                    ),
                };
                for waiter in waiters {
                    let _ = waiter.send(outcome.clone());
                }
            }
            // Hour fully ingested: sample the registry and the per-shard
            // rings, judge the SLOs (fleet first — it clears on a clean
            // pass — then the shard thresholds, which only degrade),
            // publish the per-shard view, pace the stream.
            store.sample(registry);
            for status in &monitor.shard_statuses() {
                shard_series.sample(
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
            watchdog.evaluate(&store);
            watchdog.evaluate_shards(&shard_series, &shard_slo);
            if let Ok(mut slot) = shards_slot.lock() {
                *slot = monitor.statuses_json();
            }
            start = end;
            if start < records.len() {
                interruptible_sleep(tick, stop);
            }
        }
        // Epoch complete: on the refit cadence, rebuild a candidate model
        // from the window just streamed. Refit failure (e.g. a chaos
        // stream that quarantined the whole window) never kills serving —
        // it is counted and the previous candidate (if any) keeps soaking.
        if let Some(trainer) = trainer.as_mut() {
            if stream.epochs_generated().is_multiple_of(options.refit_every) {
                // Warm-start from the serving artifact: the incremental
                // path refines its centroids instead of re-running the
                // elbow sweep, falling back to epoch replay on any error
                // (counted in dds_refit_fallback_total).
                match trainer.refit_with(&ctx, Some(&serving_model)) {
                    Ok(outcome) => match ModelBundle::from_trained(&outcome.model) {
                        Ok(bundle) => {
                            // The RMSE drift channel: how the serving
                            // trees score on the window the fleet just
                            // streamed, next to their training RMSE.
                            if let (Some(live), Some(training)) =
                                (outcome.live_rmse, outcome.prior_training_rmse)
                            {
                                drift.record_rmse(live, training);
                                drift.publish(registry);
                            }
                            let provenance = outcome.model.provenance_json(&format!(
                                "online refit (epoch {})",
                                stream.epochs_generated()
                            ));
                            monitor.set_candidate(Some(bundle.clone()));
                            candidate = Some(RefitCandidate {
                                bundle,
                                expected_disorder: outcome.expected_disorder(),
                                model: outcome.model,
                                provenance,
                            });
                        }
                        Err(e) => {
                            refit_errors.inc();
                            eprintln!("warning: refit bundle rejected: {e}");
                        }
                    },
                    Err(e) => {
                        refit_errors.inc();
                        eprintln!("warning: online refit failed: {e}");
                    }
                }
            }
        }
        if options.epochs > 0 && stream.epochs_generated() >= options.epochs {
            break;
        }
    }

    health.set_ready(false);
    server.shutdown();

    let status = monitor.health_status();
    let quality = monitor.quality_stats();
    let queued = ingest_queue.counts();
    let mut out = format!(
        "served on {addr}: {} epochs, {} records ingested over {} shards\n\
         alerts emitted: {} ({} drives latched watch, {} warning, {} critical)\n\
         records quarantined: {} of {} offered ({} attrs imputed)\n\
         external ingest: {} records accepted, {} shed\n\
         ingest errors: {}\n\
         final health: {}\n",
        stream.epochs_generated(),
        quality.accepted,
        monitor.shards(),
        status.alerts_emitted,
        status.latched[0],
        status.latched[1],
        status.latched[2],
        quality.quarantined,
        quality.ingested,
        quality.imputed_attrs,
        queued.accepted_records,
        queued.shed_records,
        ingest_errors.get(),
        match health.degraded_reason() {
            Some(reason) => format!("degraded ({reason})"),
            None => "ok".to_string(),
        },
    );
    if options.refit_every > 0 || promotions > 0 {
        out.push_str(&format!(
            "online learning: {} refits ({} incremental, {} fallback), {} promotions, \
             {} refit errors, {} records ignored\n\
             drift: {} records examined, {} excess drifted, {} baseline swaps, \
             {} rmse breaches\n",
            trainer.as_ref().map_or(0, OnlineTrainer::refits),
            registry.counter("dds_refit_incremental_total").get(),
            registry.counter("dds_refit_fallback_total").get(),
            promotions,
            refit_errors.get(),
            registry.counter("dds_refit_ignored_total").get(),
            drift.examined(),
            drift.excess_drifted(),
            drift.swaps(),
            drift.rmse_breaches(),
        ));
    }
    if options.chaos.active() {
        out.push_str(&format!(
            "chaos {} (seed {}) applied to {}\n",
            options.chaos.spec,
            options.chaos.seed,
            match options.chaos_epochs {
                0 => "every epoch".to_string(),
                n => format!("the first {n} epochs"),
            },
        ));
    }
    out.push_str(&format!("status: {}\n", status.to_json()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_chaos::ChaosEngine;
    use dds_smartsim::FleetConfig;

    #[test]
    fn epochs_below_the_chaos_budget_are_corrupted_and_later_ones_are_clean() {
        let config = FleetConfig::test_scale().with_seed(9);
        let chaos = ChaosOptions { spec: "drop=0.5".parse().expect("spec"), seed: 19 };
        let engine = ChaosEngine::new(chaos.spec.clone(), chaos.seed);
        let mut reference = StreamingFleet::new(config.clone());
        let clean: Vec<_> = (0..2).map(|_| hour_ordered(&reference.next_epoch())).collect();

        // A budget of one epoch: epoch 0 is corrupted under salt 0, epoch
        // 1 streams byte-identical to the clean epoch.
        let mut stream = StreamingFleet::new(config.clone());
        let (manifest, corrupted) = next_epoch(&mut stream, &chaos, 1);
        assert_eq!(hour_ordered(&manifest), clean[0], "the manifest stays clean");
        assert!(corrupted.len() < clean[0].len(), "epoch 0 must be corrupted");
        assert_eq!(corrupted, engine.corrupt_stream(0, &clean[0]).0);
        let (_, past_budget) = next_epoch(&mut stream, &chaos, 1);
        assert_eq!(past_budget, clean[1], "epoch 1 is past the chaos budget and must be clean");

        // A budget of 0 corrupts every epoch, each salted by its index.
        let mut stream = StreamingFleet::new(config);
        next_epoch(&mut stream, &chaos, 0);
        let (_, second) = next_epoch(&mut stream, &chaos, 0);
        assert_eq!(second, engine.corrupt_stream(1, &clean[1]).0);
    }
}
