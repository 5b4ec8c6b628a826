//! Online-learning equivalence suite: a full-window streaming refit must
//! be bit-identical to cold training on the same window.
//!
//! This is the online analogue of the warm-vs-cold model-artifact proof:
//! the serving path may only hot-swap a refit candidate because nothing
//! about *how* the window's records arrived — hour-interleaved, shard by
//! shard, one shard or four — can change the artifact the trainer
//! produces. The only permitted difference is the `created_unix`
//! wall-clock stamp, which both sides normalize before comparing bytes.

use dds_chaos::{ChaosEngine, ChaosSpec};
use dds_core::quality::SENTINEL_VALUE;
use dds_core::{
    sanitize_profiles, Analysis, AnalysisConfig, CategorizationConfig, OnlineTrainer,
    QualityPolicy, RefitPath, TrainedModel, TrainingContext,
};
use dds_monitor::shard_for;
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::{Dataset, DriveId, FleetConfig, HealthRecord, RawProfile, StreamingFleet};

fn config() -> AnalysisConfig {
    AnalysisConfig {
        categorization: CategorizationConfig { run_svc: false, ..Default::default() },
        ..Default::default()
    }
}

fn ctx(seed: u64) -> TrainingContext {
    TrainingContext { seed, scale: "test".to_string(), git_sha: String::new() }
}

/// Canonical byte form of a model with the wall-clock stamp normalized
/// out (the one field two training runs of the same window legitimately
/// disagree on).
fn stamped_bytes(mut model: TrainedModel) -> Vec<u8> {
    model.meta.created_unix = 0;
    model.to_bytes().expect("model serializes")
}

/// Re-orders an hour-ordered stream the way an N-shard ingest tier would
/// consume it: shard 0's records first (in arrival order), then shard
/// 1's, and so on — the most adversarial legal reordering, since a
/// drive's history never spans shards.
fn sharded_order(
    records: &[(DriveId, HealthRecord)],
    shards: usize,
) -> Vec<(DriveId, HealthRecord)> {
    let mut out = Vec::with_capacity(records.len());
    for shard in 0..shards {
        out.extend(records.iter().filter(|(drive, _)| shard_for(*drive, shards) == shard).cloned());
    }
    out
}

#[test]
fn streaming_refit_is_bit_identical_to_cold_training() {
    for seed in [7u64, 23, 1051] {
        let mut stream = StreamingFleet::new(FleetConfig::test_scale().with_seed(seed));
        let window = stream.next_epoch();
        let (_, cold_model) =
            Analysis::new(config()).train(&window, &ctx(seed)).expect("cold training succeeds");
        let cold_bytes = stamped_bytes(cold_model);

        let records = hour_ordered(&window);
        for shards in [1usize, 4] {
            let mut trainer = OnlineTrainer::new(config());
            trainer.begin_epoch(&window);
            trainer.observe_batch(&sharded_order(&records, shards));
            assert_eq!(trainer.window_records(), records.len() as u64);

            let outcome = trainer.refit(&ctx(seed)).expect("streaming refit succeeds");
            // The gate admits a clean window's every record unchanged.
            let quality = outcome.quality;
            assert_eq!(
                (quality.quarantined, quality.imputed_attrs, quality.drives_dropped),
                (0, 0, 0),
                "a clean window passes the quality gate untouched"
            );
            assert_eq!(quality.accepted, records.len() as u64);
            assert_eq!(outcome.expected_disorder(), 0.0);
            assert_eq!(
                stamped_bytes(outcome.model),
                cold_bytes,
                "seed {seed}, {shards} shard(s): refit artifact must match cold training byte \
                 for byte"
            );
        }
    }
}

/// Mean per-group training RMSE — the model-level predictive-quality
/// fingerprint the tolerance gate compares (robust to the warm path
/// keeping the prior `k` while a cold elbow sweep may pick another).
fn mean_rmse(model: &TrainedModel) -> f64 {
    assert!(!model.groups.is_empty(), "a trained model has groups");
    model.groups.iter().map(|g| g.rmse).sum::<f64>() / model.groups.len() as f64
}

/// The pinned equivalence budget for the incremental path, as an
/// *absolute* RMSE inflation over cold training: warm-started K-means
/// may settle in a different local optimum and the warm trees fit on a
/// good-thinned train split, so the artifact is not byte-comparable —
/// the gate is on predictive quality instead. 0.02 RMSE over the
/// `[-1, 1]` target range is a 1% error-rate budget (Table III terms);
/// the observed gaps across the chaos seeds are ≤ 0.011.
const INCREMENTAL_RMSE_TOLERANCE: f64 = 0.02;

#[test]
fn incremental_refit_under_chaos_converges_to_cold_training_within_tolerance() {
    // The property ISSUE 10 pins: for every chaos seed and shard count,
    // a warm-started incremental refit on the *next* epoch — fed a
    // reorder/dup-corrupted stream — either converges to the cold-train
    // artifact's predictive quality within `INCREMENTAL_RMSE_TOLERANCE`,
    // or falls back to epoch replay (in which case it *is* the cold
    // artifact and the fallback is visible in the outcome path).
    let spec: ChaosSpec = "reorder=0.2,dup=0.3".parse().expect("spec parses");
    for seed in [7u64, 23, 1051] {
        let mut stream = StreamingFleet::new(FleetConfig::test_scale().with_seed(seed));
        let first = stream.next_epoch();
        let second = stream.next_epoch();

        let analysis = Analysis::new(config());
        let (_, prior) = analysis.train(&first, &ctx(seed)).expect("prior epoch trains");
        let (_, cold) = analysis.train(&second, &ctx(seed)).expect("cold reference trains");
        let cold_rmse = mean_rmse(&cold);
        let cold_bytes = stamped_bytes(cold);

        let engine = ChaosEngine::new(spec.clone(), seed);
        let (corrupted, faults) = engine.corrupt_stream(0, &hour_ordered(&second));
        assert!(faults.total() > 0, "the chaos spec must actually fire");

        for shards in [1usize, 4] {
            let mut trainer = OnlineTrainer::new(config());
            trainer.begin_epoch(&second);
            trainer.observe_batch(&sharded_order(&corrupted, shards));

            let outcome =
                trainer.refit_with(&ctx(seed), Some(&prior)).expect("incremental refit succeeds");
            assert!(outcome.live_rmse.is_some(), "a prior unlocks the live RMSE channel");
            assert!(outcome.live_rmse.unwrap().is_finite());
            assert!(outcome.prior_training_rmse.unwrap().is_finite());
            match outcome.path {
                RefitPath::Incremental => {
                    let refit_rmse = mean_rmse(&outcome.model);
                    let gap = refit_rmse - cold_rmse;
                    assert!(
                        gap <= INCREMENTAL_RMSE_TOLERANCE,
                        "seed {seed}, {shards} shard(s): incremental refit RMSE {refit_rmse:.4} \
                         vs cold {cold_rmse:.4} (inflation {gap:+.4}) exceeds the tolerance"
                    );
                }
                RefitPath::Fallback => {
                    // The fallback leg *is* epoch replay on the sanitized
                    // window; quality-identical to the replay path.
                    assert_eq!(
                        stamped_bytes(outcome.model.clone()),
                        cold_bytes,
                        "seed {seed}, {shards} shard(s): fallback must be the replay artifact"
                    );
                }
                RefitPath::Replay => {
                    panic!("a refit with a prior never takes the bare replay path")
                }
            }
        }
    }
}

#[test]
fn refit_window_slides_with_epochs() {
    // Two consecutive epochs refit to two *different* models (the window
    // really slides), and replaying epoch 2 alone matches a cold train on
    // epoch 2 — the window holds exactly one epoch, no residue.
    let seed = 7u64;
    let mut stream = StreamingFleet::new(FleetConfig::test_scale().with_seed(seed));
    let first = stream.next_epoch();
    let second = stream.next_epoch();

    let mut trainer = OnlineTrainer::new(config());
    trainer.begin_epoch(&first);
    trainer.observe_batch(&hour_ordered(&first));
    let refit_first = trainer.refit(&ctx(seed)).expect("epoch 1 refit");

    trainer.begin_epoch(&second);
    trainer.observe_batch(&hour_ordered(&second));
    let refit_second = trainer.refit(&ctx(seed)).expect("epoch 2 refit");

    let (_, cold_second) =
        Analysis::new(config()).train(&second, &ctx(seed)).expect("cold training succeeds");

    let first_bytes = stamped_bytes(refit_first.model);
    let second_bytes = stamped_bytes(refit_second.model);
    assert_ne!(first_bytes, second_bytes, "consecutive epochs must refit differently");
    assert_eq!(second_bytes, stamped_bytes(cold_second), "no residue from the previous window");
}

#[test]
fn fallback_refit_is_the_cold_fit_scored_against_the_prior() {
    // A prior whose first centroid has the wrong dimension makes warm
    // K-means reject it, forcing the fallback. The fallback is the cold
    // fit, so its artifact matches cold training byte for byte, and the
    // prior's trees are scored on the held-out rows they were tested on
    // when trained — the live RMSE equals their recorded training RMSE.
    for seed in [7u64, 23, 1051] {
        let mut stream = StreamingFleet::new(FleetConfig::test_scale().with_seed(seed));
        let window = stream.next_epoch();
        let (_, cold) =
            Analysis::new(config()).train(&window, &ctx(seed)).expect("cold training succeeds");
        let cold_bytes = stamped_bytes(cold.clone());
        let mut prior = cold;
        prior.groups[0].centroid.truncate(1);

        let mut trainer = OnlineTrainer::new(config());
        trainer.begin_epoch(&window);
        trainer.observe_batch(&hour_ordered(&window));
        let outcome =
            trainer.refit_with(&ctx(seed), Some(&prior)).expect("fallback refit succeeds");
        assert_eq!(outcome.path, RefitPath::Fallback, "seed {seed}: warm K-means must reject");
        assert_eq!(
            stamped_bytes(outcome.model),
            cold_bytes,
            "seed {seed}: the fallback artifact must be the cold artifact"
        );
        let live = outcome.live_rmse.expect("a prior yields a live RMSE");
        let training = outcome.prior_training_rmse.expect("a prior yields a training RMSE");
        assert_eq!(
            live.to_bits(),
            training.to_bits(),
            "seed {seed}: live RMSE {live} vs training RMSE {training}"
        );
    }
}

/// The first epoch of `seed`'s test fleet and its hour-ordered stream
/// corrupted by `spec` (chaos seed 7).
fn corrupted_epoch(seed: u64, spec: &str) -> (Dataset, Vec<(DriveId, HealthRecord)>) {
    let window = StreamingFleet::new(FleetConfig::test_scale().with_seed(seed)).next_epoch();
    let spec: ChaosSpec = spec.parse().expect("spec parses");
    let (corrupted, faults) = ChaosEngine::new(spec, 7).corrupt_stream(0, &hour_ordered(&window));
    assert!(faults.total() > 0, "the chaos spec must actually fire");
    (window, corrupted)
}

#[test]
fn refit_of_a_window_with_unreadable_attributes_imputes_them() {
    // Unreadable attributes leave every drive's hours in order; the
    // window still passes the gate, which imputes the NaNs the scaler
    // fit would reject.
    let (window, corrupted) = corrupted_epoch(77, "nullattr=0.02");
    let mut trainer = OnlineTrainer::new(config());
    trainer.begin_epoch(&window);
    trainer.observe_batch(&corrupted);
    let outcome = trainer.refit(&ctx(77)).expect("a window with NaN attributes refits");
    assert_eq!(outcome.quality.ingested, corrupted.len() as u64);
    assert!(outcome.quality.imputed_attrs > 0, "the gate imputes: {}", outcome.quality);
}

#[test]
fn refit_of_a_sentinel_window_trains_on_the_gated_window() {
    let (window, corrupted) = corrupted_epoch(78, "sentinel=0.01");
    let mut trainer = OnlineTrainer::new(config());
    trainer.begin_epoch(&window);
    trainer.observe_batch(&corrupted);
    // One record for a drive outside the manifest: ignored, but counted
    // as expected disorder.
    trainer.observe(DriveId(u32::MAX), &corrupted[0].1);
    let outcome = trainer.refit(&ctx(78)).expect("a sentinel window refits");

    // The artifact carries the scaler of the gated window, never one
    // stretched to the sentinel.
    let raw: Vec<RawProfile> = window
        .drives()
        .iter()
        .map(|drive| RawProfile {
            id: drive.id(),
            label: drive.label(),
            rack: drive.rack(),
            records: corrupted
                .iter()
                .filter(|(id, _)| *id == drive.id())
                .map(|(_, record)| record.clone())
                .collect(),
        })
        .collect();
    let (gated, stats) = sanitize_profiles(&raw, QualityPolicy::default()).expect("gate");
    assert_eq!(outcome.quality, stats);
    let scaler = outcome.model.scaler().expect("artifact scaler");
    assert_eq!(&scaler, gated.scaler(), "the artifact's scaler is the gated window's");
    assert!(
        scaler.maxs().iter().all(|&max| max < SENTINEL_VALUE),
        "no attribute max at the sentinel: {:?}",
        scaler.maxs()
    );

    // The expected disorder counts the gate's quarantines and the
    // ignored record.
    let quality = outcome.quality;
    assert_eq!(outcome.ignored, 1);
    let expected = (quality.quarantined + outcome.ignored) as f64
        / (quality.ingested + outcome.ignored) as f64;
    assert_eq!(outcome.expected_disorder(), expected);
    assert!(quality.quarantined > 0, "sentinels on a drive's first hour quarantine: {quality}");
    assert!(outcome.expected_disorder() > 0.0);
}
