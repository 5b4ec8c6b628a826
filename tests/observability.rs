//! Integration tests of the observability layer against the real pipeline:
//! span nesting over a full analysis run, metric values after a known
//! pipeline + monitoring run, and the guarantee that instrumentation never
//! changes computed results.
//!
//! The tracing subscriber and the global metrics registry are
//! process-wide, so every test takes `OBS_LOCK` before touching them.

use dds::prelude::*;
use dds_obs::subscribers::{CapturingSubscriber, JsonLinesSubscriber, NullSubscriber, TraceRecord};
use dds_obs::trace::{self, Level};
use dds_obs::{json, metrics};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    // A panicking test must not starve the others of the lock.
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_analysis(seed: u64) -> (Dataset, dds_core::AnalysisReport) {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run();
    let report = Analysis::new(AnalysisConfig::default()).run(&dataset).unwrap();
    (dataset, report)
}

#[test]
fn pipeline_spans_nest_under_pipeline_run() {
    let _guard = obs_lock();
    let capture = Arc::new(CapturingSubscriber::new(Level::Trace));
    trace::install(capture.clone());
    let _ = run_analysis(91_001);
    trace::reset();

    let records = capture.records();
    let run_id = records
        .iter()
        .find_map(|r| match r {
            TraceRecord::SpanStart { id, name: "pipeline.run", parent, .. } => {
                assert_eq!(*parent, None, "pipeline.run must be a root span");
                Some(*id)
            }
            _ => None,
        })
        .expect("pipeline.run span recorded");

    // Every pipeline stage appears exactly once, as a child of pipeline.run.
    for stage in [
        "pipeline.profile_durations",
        "pipeline.features",
        "pipeline.boxplots",
        "pipeline.categorize",
        "pipeline.columnar",
        "pipeline.degradation",
        "pipeline.influence_zscore",
        "pipeline.predict",
    ] {
        let starts: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::SpanStart { name, parent, .. } if *name == stage => Some(*parent),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![Some(run_id)], "{stage} nested under pipeline.run");
        let ends = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::SpanEnd { name, .. } if *name == stage))
            .count();
        assert_eq!(ends, 1, "{stage} closed exactly once");
    }

    // Inner algorithm spans fire too, below Info.
    let names = capture.span_names();
    assert!(names.contains(&"kmeans.fit"), "spans: {names:?}");
    assert!(names.contains(&"columnar.build"), "spans: {names:?}");
    assert!(names.contains(&"zscore.sweep"), "spans: {names:?}");
    assert!(names.contains(&"regtree.fit_columns"), "spans: {names:?}");
}

#[test]
fn metrics_reflect_a_known_pipeline_and_monitoring_run() {
    let _guard = obs_lock();
    metrics::global().reset();

    let (training, report) = run_analysis(91_002);
    let bundle = ModelBundle::from_analysis(&training, &report);
    let groups = bundle.groups().len() as u64;
    // Serving metrics are published by the shard coordinator.
    let mut monitor = dds_monitor::ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 1);
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(91_003)).run();
    let mut batch = Vec::new();
    for drive in live.drives() {
        batch.extend(drive.records().iter().map(|r| (drive.id(), r.clone())));
    }
    let predictions =
        || metrics::global().snapshot().counter_value("dds_regtree_predictions_total").unwrap_or(0);
    let predicted = predictions();
    let alerts = monitor.ingest_batch(&batch).len();
    assert!(alerts > 0, "a test-scale fleet must raise alerts");
    // Every scored record costs one prediction per group model.
    assert_eq!(predictions() - predicted, live.num_records() as u64 * groups);

    let snap = metrics::global().snapshot();
    assert_eq!(snap.counter_value("dds_pipeline_runs_total"), Some(1));
    assert!(snap.counter_value("dds_kmeans_fits_total").unwrap_or(0) >= 1);
    assert!(snap.counter_value("dds_regtree_fits_total").unwrap_or(0) >= 1);
    assert!(predicted > 0, "the pipeline's batch predictions count too");
    assert_eq!(
        snap.counter_value("dds_monitor_records_ingested_total"),
        Some(live.num_records() as u64)
    );
    // One scoring-time observation per scored record.
    let scored = snap.histogram("dds_monitor_ingest_seconds").expect("scoring histogram");
    assert_eq!(scored.count, live.num_records() as u64);
    assert_eq!(snap.counter_value("dds_monitor_alerts_total"), Some(alerts as u64));
    assert_eq!(snap.gauge_value("dds_monitor_drives_tracked"), Some(live.drives().len() as f64));

    // Each pipeline stage records exactly one duration observation.
    let categorize = snap.histogram("dds_pipeline_categorize_seconds").expect("stage histogram");
    assert_eq!(categorize.count, 1);
    assert!(categorize.sum >= 0.0);

    // Snapshots export as valid JSON and non-empty Prometheus text.
    dds_obs::json::validate(&snap.to_json()).expect("snapshot JSON is valid");
    assert!(snap.to_prometheus().contains("# TYPE dds_monitor_alerts_total counter"));
}

#[test]
fn json_lines_trace_covers_every_pipeline_stage() {
    let _guard = obs_lock();

    // Shared in-memory sink standing in for the CLI's --trace-json file.
    #[derive(Clone)]
    struct Sink(Arc<Mutex<Vec<u8>>>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    let sink = Sink(Arc::new(Mutex::new(Vec::new())));
    trace::install(Arc::new(JsonLinesSubscriber::new(Box::new(sink.clone()))));
    let _ = run_analysis(91_005);
    trace::reset();

    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    assert!(!text.is_empty(), "trace output produced");
    for line in text.lines() {
        json::validate(line).unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}"));
    }
    for stage in [
        "pipeline.run",
        "pipeline.profile_durations",
        "pipeline.features",
        "pipeline.boxplots",
        "pipeline.categorize",
        "pipeline.columnar",
        "pipeline.degradation",
        "pipeline.influence_zscore",
        "pipeline.predict",
    ] {
        let name = format!("\"name\": \"{stage}\"");
        assert!(
            text.lines().any(|l| l.contains("\"type\": \"span_end\"") && l.contains(&name)),
            "stage {stage} has a span_end line"
        );
    }
}

#[test]
fn sharded_instrumentation_is_inert() {
    let _guard = obs_lock();
    metrics::global().reset();

    // The flight recorder's per-record stage clocks only run when a
    // recorder is attached; either way the sharded path must emit the
    // exact same alerts as an uninstrumented run of the same batch.
    use dds_monitor::ShardedFleetMonitor;
    use dds_obs::journal::{FlightRecorder, DEFAULT_JOURNAL_CAPACITY};

    let (training, report) = run_analysis(91_006);
    let bundle = ModelBundle::from_analysis(&training, &report);
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(91_007)).run();
    let mut batch = Vec::new();
    for drive in live.drives() {
        batch.extend(drive.records().iter().map(|r| (drive.id(), r.clone())));
    }

    let mut plain = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 3);
    let baseline = plain.ingest_batch(&batch);
    assert!(!baseline.is_empty(), "a test-scale fleet must raise alerts");

    let recorder = Arc::new(FlightRecorder::new(DEFAULT_JOURNAL_CAPACITY));
    let mut wired = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 3)
        .with_flight_recorder(Arc::clone(&recorder));
    let traced = wired.ingest_batch(&batch);

    assert_eq!(baseline.len(), traced.len(), "recorder must not change the alert count");
    for (a, b) in baseline.iter().zip(&traced) {
        assert_eq!(a.drive, b.drive);
        assert_eq!(a.hour, b.hour);
        assert_eq!(a.severity, b.severity);
        assert_eq!(a.degradation.to_bits(), b.degradation.to_bits(), "bit-identical scores");
    }
    assert_eq!(plain.quality_stats(), wired.quality_stats(), "identical quality ledgers");

    // And the recorder saw exactly this one batch, fully attributed.
    assert_eq!(recorder.total(), 1);
    let span = &recorder.last(1)[0];
    assert_eq!(span.records, batch.len() as u64);
    assert_eq!(span.accepted + span.quarantined, batch.len() as u64);
    assert_eq!(span.alerts, traced.len() as u64);
}

#[test]
fn instrumentation_does_not_change_results() {
    let _guard = obs_lock();

    // Baseline: no subscriber installed (the zero-overhead default).
    trace::reset();
    let (_, quiet) = run_analysis(91_004);

    // Same analysis under a null subscriber and under full capture.
    for subscriber in [
        Arc::new(NullSubscriber) as Arc<dyn trace::Subscriber>,
        Arc::new(CapturingSubscriber::new(Level::Trace)),
    ] {
        trace::install(subscriber);
        let (_, traced) = run_analysis(91_004);
        trace::reset();

        assert_eq!(
            quiet.categorization.assignments(),
            traced.categorization.assignments(),
            "group assignments must be identical with tracing on"
        );
        for (a, b) in quiet.prediction.groups.iter().zip(&traced.prediction.groups) {
            assert_eq!(a.rmse.to_bits(), b.rmse.to_bits(), "bit-identical RMSE");
        }
        for (a, b) in quiet.degradation.iter().zip(&traced.degradation) {
            assert_eq!(a.windows, b.windows);
            assert_eq!(a.dominant_form, b.dominant_form);
        }
    }
}
