//! Wall-clock gates on the serving and training paths, ignored by default
//! because they time real work. CI runs them on every push, one at a time
//! so the timings do not share cores:
//!
//! ```sh
//! cargo test --release -p dds-bench --test speed_gates -- \
//!     --ignored --test-threads 1 --nocapture
//! ```
//!
//! Every gate runs at test scale with the experiment seed. The benchmark
//! proper, end to end and per layer, is `perfbench` (`BENCHMARK.json`).

use dds_bench::EXPERIMENT_SEED;
use dds_core::categorize::CategorizationConfig;
use dds_core::{Analysis, AnalysisConfig, OnlineTrainer, RefitPath, TrainedModel, TrainingContext};
use dds_monitor::{ModelBundle, MonitorConfig, ShardedFleetMonitor};
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::{DriveId, FleetConfig, FleetSimulator, HealthRecord, StreamingFleet};
use dds_stats::Parallelism;
use std::time::Instant;

fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` once, returning its wall time in seconds and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64(), value)
}

/// The analysis configuration of the ingest and thread-scaling gates: the
/// SVC cross-check only labels the report, so it stays out of the timing.
fn without_svc() -> AnalysisConfig {
    AnalysisConfig {
        categorization: CategorizationConfig { run_svc: false, ..Default::default() },
        ..Default::default()
    }
}

/// `hours` fleet-hour batches of the seed+1 test-scale live fleet, sampled
/// evenly across its lifetime and tiled onto disjoint drive-id ranges to
/// about `drives` drives. One stride for every hour keeps each tiled
/// drive's history in order, so it replays a real drive bit for bit.
fn tiled_fleet_hours(drives: u64, hours: usize) -> Vec<Vec<(DriveId, HealthRecord)>> {
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(EXPERIMENT_SEED + 1)).run();
    let records = hour_ordered(&live);
    let runs: Vec<&[(DriveId, HealthRecord)]> =
        records.chunk_by(|a, b| a.1.hour == b.1.hour).collect();
    let step = (runs.len() / hours).max(1);
    let stride = records.iter().map(|(d, _)| d.0).max().unwrap_or(0) + 1;
    let copies = drives.div_ceil(live.drives().len() as u64).max(1) as u32;
    runs.iter()
        .step_by(step)
        .take(hours)
        .map(|run| {
            (0..copies)
                .flat_map(|copy| {
                    run.iter().map(move |(d, r)| (DriveId(d.0 + copy * stride), r.clone()))
                })
                .collect()
        })
        .collect()
}

#[test]
#[ignore = "wall-clock gate; run with --ignored --test-threads 1"]
fn sharded_ingest_keeps_alerts_identical_and_scales_to_four_shards() {
    let training = FleetSimulator::new(FleetConfig::test_scale().with_seed(EXPERIMENT_SEED)).run();
    let report = Analysis::new(without_svc()).run(&training).expect("training analysis");
    let bundle = ModelBundle::from_analysis(&training, &report);
    let batches = tiled_fleet_hours(100_000, 24);
    let records: usize = batches.iter().map(Vec::len).sum();

    let mut runs = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut monitor =
            ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), shards);
        monitor.new_ingest_session();
        let (wall, alerts) =
            timed(|| batches.iter().flat_map(|b| monitor.ingest_batch(b)).collect::<Vec<_>>());
        let lines: Vec<String> = alerts.iter().map(ToString::to_string).collect();
        eprintln!(
            "{shards} shard(s): {:.0} records/s, {} alerts",
            records as f64 / wall,
            lines.len()
        );
        runs.push((shards, wall, lines));
    }

    let (_, one_shard_wall, reference) = &runs[0];
    assert!(!reference.is_empty(), "the fixture must raise alerts");
    for (shards, _, lines) in &runs {
        assert!(lines == reference, "the alert stream at {shards} shards differs from 1 shard");
    }
    let ratio = one_shard_wall / runs[2].1;
    let cores = cores();
    eprintln!("4 shards vs 1: {ratio:.2}x records/s on {cores} core(s), {records} records");
    if cores >= 4 {
        assert!(ratio >= 3.0, "4 shards ingest only {ratio:.2}x the records/s of 1");
    } else {
        eprintln!("fewer than 4 cores: the >= 3x assertion is skipped");
    }
}

fn mean_rmse(model: &TrainedModel) -> f64 {
    model.groups.iter().map(|g| g.rmse).sum::<f64>() / model.groups.len().max(1) as f64
}

#[test]
#[ignore = "wall-clock gate; run with --ignored --test-threads 1"]
fn warm_refit_beats_epoch_replay_without_losing_accuracy() {
    let config = AnalysisConfig::default();
    let ctx = TrainingContext {
        seed: EXPERIMENT_SEED,
        scale: "test".to_string(),
        git_sha: String::new(),
    };
    let mut stream = StreamingFleet::new(FleetConfig::test_scale().with_seed(EXPERIMENT_SEED));
    let first = stream.next_epoch();
    let second = stream.next_epoch();
    let (_, prior) = Analysis::new(config.clone()).train(&first, &ctx).expect("prior epoch trains");
    let mut trainer = OnlineTrainer::new(config);
    trainer.begin_epoch(&second);
    trainer.observe_batch(&hour_ordered(&second));

    // Best of three per path, replay first. Every run is deterministic, so
    // the last run's RMSE stands for all three.
    let mut best = [f64::INFINITY; 2];
    let mut rmse = [f64::NAN; 2];
    let paths = [(None, RefitPath::Replay), (Some(&prior), RefitPath::Incremental)];
    for (i, (warm_start, path)) in paths.into_iter().enumerate() {
        for _ in 0..3 {
            let (wall, outcome) = timed(|| trainer.refit_with(&ctx, warm_start));
            let outcome = outcome.expect("refit");
            assert_eq!(outcome.path, path, "a warm refit must not fall back to replay");
            best[i] = best[i].min(wall);
            rmse[i] = mean_rmse(&outcome.model);
        }
    }
    let [replay, warm] = best;
    let speedup = replay / warm;
    eprintln!(
        "replay {:.1} ms, warm {:.1} ms: {speedup:.2}x on {} core(s); rmse {:.4} -> {:.4}",
        replay * 1e3,
        warm * 1e3,
        cores(),
        rmse[0],
        rmse[1]
    );
    assert!(speedup >= 1.5, "the warm refit is only {speedup:.2}x faster than replay");
    assert!(rmse[1] - rmse[0] <= 0.02, "warm RMSE {:.4} vs replay {:.4}", rmse[1], rmse[0]);
}

#[test]
#[ignore = "wall-clock gate; run with --ignored --test-threads 1"]
fn full_analysis_at_four_threads_is_no_slower_than_sequential() {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(EXPERIMENT_SEED)).run();
    let run = |parallelism| {
        let analysis = Analysis::new(without_svc().with_parallelism(parallelism));
        timed(|| {
            analysis.run(&dataset).expect("analysis");
        })
        .0
    };
    // A fresh process pays allocator growth on its first analysis, and
    // interleaving the repetitions spreads later drift over both modes.
    run(Parallelism::Sequential);
    let modes = [Parallelism::Sequential, Parallelism::Threads(4)];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for (best, mode) in best.iter_mut().zip(modes) {
            *best = best.min(run(mode));
        }
    }
    let [sequential, threads] = best;
    eprintln!(
        "full_analysis: {:.1} ms sequential, {:.1} ms at 4 threads on {} core(s)",
        sequential * 1e3,
        threads * 1e3,
        cores()
    );
    assert!(threads <= sequential * 1.05, "4 threads ({threads:.3} s) vs 1 ({sequential:.3} s)");
}
