//! Golden regression pins for the default-seed pipeline.
//!
//! The CLI's default seed (`0x2015_115C`) at test scale produces a known
//! partition, known degradation signatures and a known prediction-error
//! ordering. These tests pin those values so an accidental behavior change
//! anywhere in the simulate → categorize → fit → predict chain shows up as
//! a crisp diff rather than a silent drift — the reproduction's analogue
//! of the paper's 59.6% / 7.6% / 32.8% Table II population split.

use dds_core::{
    report, Analysis, AnalysisConfig, AnalysisReport, OnlineTrainer, TrainedModel, TrainingContext,
};
use dds_smartsim::{Dataset, FleetConfig, FleetSimulator};
use dds_stats::SignatureForm;

/// The CLI's default seed (`dds pipeline` with no `--seed`).
const GOLDEN_SEED: u64 = 0x2015_115C;

fn golden_run() -> (Dataset, AnalysisReport) {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(GOLDEN_SEED)).run();
    let analysis = Analysis::new(AnalysisConfig::default()).run(&dataset).expect("golden analysis");
    (dataset, analysis)
}

#[test]
fn group_shares_match_the_golden_partition() {
    let (_, analysis) = golden_run();
    let groups = analysis.categorization.groups();
    assert_eq!(groups.len(), 3);

    // 60 failed drives split 36 / 4 / 20 — the reproduction's shape of the
    // paper's dominant / rare / mid-size group structure.
    let sizes: Vec<usize> = groups.iter().map(|g| g.drive_ids.len()).collect();
    assert_eq!(sizes, vec![36, 4, 20]);
    let total: usize = sizes.iter().sum();
    for (group, &size) in groups.iter().zip(&sizes) {
        let expected = size as f64 / total as f64;
        assert!(
            (group.population_fraction - expected).abs() < 1e-12,
            "group {} fraction {} != {expected}",
            group.index,
            group.population_fraction
        );
    }
}

#[test]
fn signature_forms_and_rmse_ordering_are_pinned() {
    let (_, analysis) = golden_run();
    assert_eq!(analysis.degradation.len(), 3);

    // Dominant forms per paper-order group: the large fast-failing group
    // fits a quadratic, the slow small group a linear, the mid group a
    // cubic (the reproduction's Fig. 7/8 shape).
    let dominant: Vec<SignatureForm> =
        analysis.degradation.iter().map(|g| g.dominant_form).collect();
    assert_eq!(
        dominant,
        vec![SignatureForm::Quadratic, SignatureForm::Linear, SignatureForm::Cubic]
    );

    for group in &analysis.degradation {
        // The dominant form must also be the best mean-RMSE form — votes
        // and error agree on the signature.
        let best = group
            .mean_rmse_by_form
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite rmse"))
            .expect("non-empty rmse table");
        assert_eq!(
            best.0, group.dominant_form,
            "group {}: dominant form must minimize mean RMSE",
            group.group_index
        );
        for &(form, rmse) in &group.mean_rmse_by_form {
            assert!(
                rmse.is_finite() && rmse >= 0.0,
                "group {} {form}: rmse {rmse}",
                group.group_index
            );
        }
    }

    // Full pinned per-group orderings (best form first).
    let orderings: Vec<Vec<SignatureForm>> = analysis
        .degradation
        .iter()
        .map(|g| {
            let mut by_rmse = g.mean_rmse_by_form.clone();
            by_rmse.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite rmse"));
            by_rmse.into_iter().map(|(form, _)| form).collect()
        })
        .collect();
    use SignatureForm::{Cubic, Linear, Quadratic, QuadraticWithLinearTerm};
    assert_eq!(
        orderings,
        vec![
            vec![Quadratic, Cubic, Linear, QuadraticWithLinearTerm],
            vec![Linear, Quadratic, Cubic, QuadraticWithLinearTerm],
            vec![Cubic, Quadratic, QuadraticWithLinearTerm, Linear],
        ]
    );
}

#[test]
fn prediction_error_ordering_is_pinned() {
    let (_, analysis) = golden_run();
    let rmse: Vec<f64> = analysis.prediction.groups.iter().map(|g| g.rmse).collect();
    assert_eq!(rmse.len(), 3);
    // The slow linear group predicts best, the dominant fast group worst;
    // all three stay well under the paper-grade 0.06 ceiling at this scale.
    assert!(rmse[1] < rmse[2] && rmse[2] < rmse[0], "rmse ordering drifted: {rmse:?}");
    for (i, &r) in rmse.iter().enumerate() {
        assert!(r < 0.06, "group {i} rmse {r} breaches the golden ceiling");
    }
}

#[test]
fn golden_model_artifact_reproduces_the_pipeline_report() {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(GOLDEN_SEED)).run();
    let ctx =
        TrainingContext { seed: GOLDEN_SEED, scale: "test".to_string(), git_sha: String::new() };
    let (analysis, model) =
        Analysis::new(AnalysisConfig::default()).train(&dataset, &ctx).expect("golden training");

    // `train` runs the identical pipeline `run` does.
    assert_eq!(
        report::render_full_report(&analysis),
        report::render_full_report(&golden_run().1),
        "train() must not perturb the analysis report"
    );

    // Save → load reproduces the pinned Table III byte for byte.
    let reloaded = TrainedModel::from_bytes(&model.to_bytes().expect("encode")).expect("decode");
    assert_eq!(reloaded, model);
    assert_eq!(
        report::render_prediction_table(&reloaded.prediction_report()),
        report::render_prediction_table(&analysis.prediction),
        "the golden prediction table must survive the artifact round-trip"
    );
    assert_eq!(reloaded.meta.seed, GOLDEN_SEED);
}

#[test]
fn online_refit_of_the_golden_window_renders_the_pinned_report() {
    // Stream the golden epoch through the online trainer record by
    // record; a clean window must refit to the byte-identical report a
    // cold run produces — so every golden pin above also pins the
    // streaming refit path.
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(GOLDEN_SEED)).run();
    let ctx =
        TrainingContext { seed: GOLDEN_SEED, scale: "test".to_string(), git_sha: String::new() };
    let mut trainer = OnlineTrainer::new(AnalysisConfig::default());
    trainer.begin_epoch(&dataset);
    trainer.observe_batch(&dds_smartsim::stream::hour_ordered(&dataset));
    let outcome = trainer.refit(&ctx).expect("golden refit");
    let quality = outcome.quality;
    assert_eq!(
        (quality.quarantined, quality.imputed_attrs, quality.drives_dropped),
        (0, 0, 0),
        "the clean golden window passes the quality gate untouched"
    );
    assert_eq!(quality.accepted, dataset.num_records() as u64);
    assert_eq!(
        report::render_full_report(&outcome.report),
        report::render_full_report(&golden_run().1),
        "a streamed refit of the golden window must render the pinned report"
    );
}

#[test]
fn default_seed_report_is_byte_identical_across_runs() {
    let (_, first) = golden_run();
    let (_, second) = golden_run();
    assert_eq!(
        report::render_full_report(&first),
        report::render_full_report(&second),
        "two default-seed runs must render byte-identical reports"
    );
}
