//! The `train_refit` workload: the batch training path and the online
//! refit, in process, at bench scale with parallelism fixed at
//! [`THREADS`].
//!
//! Set-up simulates two consecutive bench-scale epochs and streams the
//! second into an [`OnlineTrainer`] window, as the serve loop would. The
//! timed phase repeats cycles of a cold [`Analysis::train`] on epoch 1
//! followed by [`REFITS_PER_CYCLE`] runs of [`OnlineTrainer::refit_with`]
//! the cold model on epoch 2 — the incremental path `bench_online` times —
//! until `--seconds` have passed (and at least two cycles ran, so
//! artifacts can be compared).
//!
//! Correctness: every cycle must produce byte-identical artifacts (the
//! `created_unix` stamp zeroed) and the refit must take
//! [`RefitPath::Incremental`]; anything else voids the run.
//!
//! Per-layer numbers are the exact sums of the program's own
//! `dds_pipeline_<stage>_seconds` histograms around each call (sums are
//! exact; bucket quantiles are never used).

use crate::stats::median;
use crate::trace::{now_ns, write_jsonl, Tracer};
use crate::{peak_rss_mb, Outcome, SETTLE, SETUP_REPS, THREADS};
use dds_core::{Analysis, AnalysisConfig, OnlineTrainer, RefitPath, TrainedModel, TrainingContext};
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::{Dataset, FleetConfig, StreamingFleet};
use dds_stats::par::Parallelism;
use std::time::Instant;

/// Pipeline stages reported per layer (the `dds_pipeline_<stage>_seconds`
/// histograms).
pub const STAGES: [&str; 7] =
    ["columnar", "categorize", "degradation", "features", "influence_zscore", "predict", "model"];

/// Stages that also run but are too small to report on their own; they
/// count toward the stage-sum accounting.
const MINOR_STAGES: [&str; 3] = ["quality", "profile_durations", "boxplots"];

/// Refits warm-started from each cold model.
pub const REFITS_PER_CYCLE: usize = 3;

/// Largest relative gap between the stage sums and a cold train's wall
/// time that the accounting accepts.
pub const TRAIN_TOLERANCE: f64 = 0.10;

/// The same for a refit, which also reassembles its window into a dataset
/// outside any pipeline stage (about a tenth of a refit).
pub const REFIT_TOLERANCE: f64 = 0.25;

/// The analysis configuration `dds serve --threads 2` trains with.
pub fn analysis_config() -> AnalysisConfig {
    AnalysisConfig::default().with_parallelism(Parallelism::from_thread_count(THREADS))
}

/// The bench-scale fleet of a workload seed.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig::bench_scale()
        .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2015)
        .with_parallelism(Parallelism::from_thread_count(THREADS))
}

/// Provenance stamped into every artifact the benchmark trains.
pub fn training_context(seed: u64) -> TrainingContext {
    TrainingContext { seed, scale: "bench".to_string(), git_sha: String::new() }
}

/// Current sums of every pipeline stage histogram, in
/// `STAGES ++ MINOR_STAGES` order.
pub fn stage_sums() -> Vec<f64> {
    let registry = dds_obs::metrics::global();
    STAGES
        .iter()
        .chain(&MINOR_STAGES)
        .map(|stage| registry.histogram(&format!("dds_pipeline_{stage}_seconds")).sum())
        .collect()
}

/// Element-wise `after - before`.
pub fn delta(before: &[f64], after: &[f64]) -> Vec<f64> {
    before.iter().zip(after).map(|(b, a)| a - b).collect()
}

/// Mean of the groups' RMSEs.
pub fn mean_rmse(model: &TrainedModel) -> f64 {
    model.groups.iter().map(|g| g.rmse).sum::<f64>() / model.groups.len().max(1) as f64
}

/// The artifact's bytes with the wall-clock stamp zeroed.
fn artifact_bytes(model: &TrainedModel) -> Result<Vec<u8>, String> {
    let mut model = model.clone();
    model.meta.created_unix = 0;
    model.to_bytes().map_err(|e| format!("artifact encode: {e}"))
}

/// One timed fit: wall seconds and the stage-histogram sums it added.
struct Fit {
    seconds: f64,
    stages: Vec<f64>,
}

struct Pass {
    trains: Vec<Fit>,
    refits: Vec<Fit>,
    train_rmse: f64,
    refit_rmse: f64,
}

/// Median wall seconds of a set of fits.
fn median_seconds(fits: &[Fit]) -> f64 {
    median(&fits.iter().map(|f| f.seconds).collect::<Vec<_>>())
}

/// Runs cycles — one cold train, then [`REFITS_PER_CYCLE`] refits warm-
/// started from it — until `seconds` have passed and at least two cycles
/// completed, checking every artifact against the first cycle's.
fn timed_pass(
    epochs: &(Dataset, Dataset),
    trainer: &mut OnlineTrainer,
    ctx: &TrainingContext,
    seconds: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let analysis = Analysis::new(analysis_config());
    let started = Instant::now();
    let mut pass =
        Pass { trains: Vec::new(), refits: Vec::new(), train_rmse: f64::NAN, refit_rmse: f64::NAN };
    let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
    while pass.trains.len() < 2 || started.elapsed().as_secs_f64() < seconds as f64 {
        let before = stage_sums();
        let t0 = now_ns();
        let trained = analysis.train(&epochs.0, ctx);
        let t1 = now_ns();
        let cycle = tracer.record("fit.cycle", t0, t1, None, None);
        tracer.record("pipeline.train", t0, t1, Some(cycle), None);
        out.attempted += 1;
        let (_, model) = trained.map_err(|e| format!("cold train failed: {e}"))?;
        pass.trains
            .push(Fit { seconds: (t1 - t0) as f64 / 1e9, stages: delta(&before, &stage_sums()) });
        let model_bytes = artifact_bytes(&model)?;
        pass.train_rmse = mean_rmse(&model);
        if model.groups.len() != 3 || !pass.train_rmse.is_finite() {
            out.error("the cold model must carry three groups with finite RMSE");
        }
        for _ in 0..REFITS_PER_CYCLE {
            let before = stage_sums();
            let t2 = now_ns();
            let refit = trainer.refit_with(ctx, Some(&model));
            let t3 = now_ns();
            tracer.record("online.refit", t2, t3, Some(cycle), None);
            out.attempted += 1;
            let outcome = refit.map_err(|e| format!("refit failed: {e}"))?;
            pass.refits.push(Fit {
                seconds: (t3 - t2) as f64 / 1e9,
                stages: delta(&before, &stage_sums()),
            });
            if outcome.path != RefitPath::Incremental {
                // A fallback is a failed refit operation and voids the run.
                out.failed += 1;
                out.error(format!("refit took {:?}, not the incremental path", outcome.path));
            }
            pass.refit_rmse = mean_rmse(&outcome.model);
            let artifacts = (model_bytes.clone(), artifact_bytes(&outcome.model)?);
            match &reference {
                None => reference = Some(artifacts),
                Some(first) => {
                    if first.0 != artifacts.0 {
                        out.error("cold-train artifact differs between cycles");
                    }
                    if first.1 != artifacts.1 {
                        out.error("refit artifact differs between refits");
                    }
                }
            }
        }
    }
    Ok(pass)
}

/// Runs the `train_refit` workload.
///
/// # Errors
///
/// Returns a message when a fit fails outright.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ctx = training_context(seed);

    // Set-up: simulate both epochs and stream epoch 2 into the trainer's
    // window, SETUP_REPS times; the last repetition's products are used.
    let mut setup_times = Vec::new();
    let mut prepared = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        drop(prepared.take());
        let started = Instant::now();
        let mut stream = StreamingFleet::new(fleet_config(seed));
        let first = stream.next_epoch();
        let second = stream.next_epoch();
        let mut trainer = OnlineTrainer::new(analysis_config());
        trainer.begin_epoch(&second);
        trainer.observe_batch(&hour_ordered(&second));
        setup_times.push(started.elapsed().as_secs_f64());
        prepared = Some(((first, second), trainer));
    }
    let (epochs, mut trainer) = prepared.expect("at least one set-up");
    let records = (epochs.0.num_records() + epochs.1.num_records()) as f64;
    eprintln!(
        "[perfbench] train_refit: epochs of {} and {} records, set-up {:.3} s",
        epochs.0.num_records(),
        epochs.1.num_records(),
        median(&setup_times)
    );

    std::thread::sleep(SETTLE);
    crate::alloc::reset_peak();
    let untraced = timed_pass(&epochs, &mut trainer, &ctx, seconds, &Tracer::new(false), &mut out)?;
    let peak_heap_mb = crate::alloc::peak_mb();
    let train_s = median_seconds(&untraced.trains);
    let refit_s = median_seconds(&untraced.refits);
    out.line(format!("train_s = {train_s:.4} s (median of {})", untraced.trains.len()));
    out.line(format!("refit_s = {refit_s:.4} s (median of {})", untraced.refits.len()));
    out.line(format!("train_rmse = {:.6}", untraced.train_rmse));
    out.line(format!("refit_rmse = {:.6}", untraced.refit_rmse));
    out.line(format!("setup_s = {:.4} s (median of {})", median(&setup_times), setup_times.len()));

    if !traced {
        out.line(format!(
            "peak_rss_mb = {:.1} MB (process); peak_heap_mb = {peak_heap_mb:.1} MB (timed phase)",
            peak_rss_mb()
        ));
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("peak_heap_mb", peak_heap_mb, "MB");
        out.metric("records_per_s", records / (train_s + refit_s), "1/s");
        out.metric("latency_p50_ms", refit_s * 1e3, "ms");
        return Ok(out);
    }

    let tracer = Tracer::new(true);
    let traced_pass = timed_pass(&epochs, &mut trainer, &ctx, seconds, &tracer, &mut out)?;
    for (label, layer, fits, tolerance) in [
        ("train", "pipeline", &traced_pass.trains, TRAIN_TOLERANCE),
        ("refit", "online", &traced_pass.refits, REFIT_TOLERANCE),
    ] {
        let wall = median_seconds(fits);
        let sums: Vec<f64> = (0..STAGES.len() + MINOR_STAGES.len())
            .map(|i| median(&fits.iter().map(|f| f.stages[i]).collect::<Vec<_>>()))
            .collect();
        for (stage, value) in STAGES.iter().zip(&sums) {
            out.metric(&format!("{label}.stage_s.{stage}"), *value, "s");
        }
        let accounted: f64 = sums.iter().sum();
        let gap = (wall - accounted) / wall;
        out.line(format!(
            "{label} accounting: stage sums {accounted:.4} s of {label}_s {wall:.4} s \
             (unaccounted {:.1}%, tolerance {:.0}%) {}",
            gap * 100.0,
            tolerance * 100.0,
            if gap.abs() <= tolerance { "ok" } else { "OUT OF TOLERANCE" }
        ));
        out.metric(&format!("{layer}.{label}_s"), wall, "s");
    }
    let traced_refit_s = median_seconds(&traced_pass.refits);
    out.line(format!(
        "tracing overhead: refit_s {traced_refit_s:.4} s traced vs {refit_s:.4} s untraced"
    ));
    out.metric("trace.overhead_latency_p50_ms", (traced_refit_s - refit_s) * 1e3, "ms");
    out.metric("pipeline.train_rmse", traced_pass.train_rmse, "1");
    out.metric("online.refit_rmse", traced_pass.refit_rmse, "1");
    let path = std::path::PathBuf::from(format!(".bench_trace/train_refit-seed{seed}.jsonl"));
    let spans = write_jsonl(&tracer.spans(), &path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.line(format!("{spans} spans written to {}", path.display()));
    Ok(out)
}
