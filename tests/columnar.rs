//! Property tests of the columnar (SoA) hot-path rewrite: the column store
//! is a lossless transpose of the record-major [`Dataset`], and every
//! rewritten kernel — degradation windows, temporal z-scores, regression
//! trees, the trained predictors — is *bit-identical* to its scalar
//! (AoS) predecessor on seeded random fleets.

use dds::prelude::*;
use dds_core::categorize::{Categorization, CategorizationConfig, Categorizer};
use dds_core::columnar::FleetColumns;
use dds_core::degradation::DegradationAnalyzer;
use dds_core::features::FailureRecordSet;
use dds_core::predict::DegradationPredictor;
use dds_core::zscore::{
    all_attribute_z_scores_columns, all_attribute_z_scores_with, temporal_z_scores,
    temporal_z_scores_columns, ZScoreConfig,
};
use dds_regtree::{RegressionTree, TreeConfig};
use dds_smartsim::NUM_ATTRIBUTES;
use dds_stats::{ColMatrix, Parallelism};

const SEEDS: [u64; 3] = [11, 4242, 987_654_321];

fn fleet(seed: u64) -> Dataset {
    FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run()
}

fn categorize(dataset: &Dataset) -> (FailureRecordSet, Categorization) {
    let records = FailureRecordSet::extract(dataset, 24).expect("failure records");
    let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
        .categorize(dataset, &records)
        .expect("categorization");
    (records, cat)
}

#[test]
fn column_store_round_trips_every_record() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        assert_eq!(columns.num_drives(), dataset.drives().len());
        assert_eq!(columns.num_rows(), dataset.num_records());
        for (pos, drive) in dataset.drives().iter().enumerate() {
            // column -> record: rebuilt records equal the originals (hour
            // and all 12 raw values; f64 equality is exact because the
            // transpose only moves bits).
            assert_eq!(columns.rebuild_records(pos), drive.records(), "seed {seed} drive {pos}");
            // record -> column: normalized columns equal the Eq. (1)
            // normalization of each record, bit for bit.
            for (i, record) in drive.records().iter().enumerate() {
                let normalized = dataset.normalize_record(record);
                for (a, expected) in normalized.iter().enumerate() {
                    assert_eq!(
                        columns.normalized_slice(a, pos)[i].to_bits(),
                        expected.to_bits(),
                        "seed {seed} drive {pos} record {i} attr {a}"
                    );
                }
            }
        }
        // And the round trip survives a second transpose: rebuilding a
        // dataset-shaped row matrix from columns and re-transposing it
        // yields the same columns.
        let rows: Vec<Vec<f64>> = (0..columns.num_drives())
            .flat_map(|pos| columns.rebuild_records(pos).into_iter().map(|r| r.values.to_vec()))
            .collect();
        let matrix = ColMatrix::from_rows(&rows).expect("transpose");
        for a in 0..NUM_ATTRIBUTES {
            assert_eq!(matrix.col(a), columns.raw_col(a), "seed {seed} attr {a}");
        }
    }
}

#[test]
fn degradation_kernel_is_bit_identical_across_layouts() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        let analyzer = DegradationAnalyzer::default();
        for drive in dataset.failed_drives() {
            let aos = analyzer.analyze_drive(&dataset, drive).expect("aos");
            let pos = columns.position(drive.id()).expect("drive in columns");
            let soa = analyzer.analyze_drive_columns(&columns, pos).expect("soa");
            assert_eq!(aos.drive_id, soa.drive_id);
            assert_eq!(aos.window_hours, soa.window_hours, "seed {seed} {:?}", drive.id());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&aos.distances), bits(&soa.distances));
            assert_eq!(bits(&aos.times), bits(&soa.times));
            assert_eq!(bits(&aos.degradation), bits(&soa.degradation));
            assert_eq!(aos.best_model, soa.best_model);
            assert_eq!(aos.best_rmse.to_bits(), soa.best_rmse.to_bits());
            assert_eq!(aos.model_rmse.len(), soa.model_rmse.len());
            for ((fa, ra), (fb, rb)) in aos.model_rmse.iter().zip(&soa.model_rmse) {
                assert_eq!(fa, fb);
                assert_eq!(ra.to_bits(), rb.to_bits());
            }
        }
    }
}

#[test]
fn group_degradation_is_bit_identical_across_layouts() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let (_, cat) = categorize(&dataset);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        let analyzer = DegradationAnalyzer::default();
        let aos = analyzer.analyze_groups(&dataset, &cat).expect("aos groups");
        let soa = analyzer.analyze_groups_columns(&columns, &cat).expect("soa groups");
        assert_eq!(aos.len(), soa.len());
        for (a, b) in aos.iter().zip(&soa) {
            assert_eq!(a.group_index, b.group_index);
            assert_eq!(a.windows, b.windows, "seed {seed} group {}", a.group_index);
            assert_eq!(a.dominant_form, b.dominant_form);
            assert_eq!(a.form_votes, b.form_votes);
            assert_eq!(a.window_stats.0, b.window_stats.0);
            assert_eq!(a.window_stats.1.to_bits(), b.window_stats.1.to_bits());
            assert_eq!(a.window_stats.2, b.window_stats.2);
            for ((fa, ra), (fb, rb)) in a.mean_rmse_by_form.iter().zip(&b.mean_rmse_by_form) {
                assert_eq!(fa, fb);
                assert_eq!(ra.to_bits(), rb.to_bits());
            }
            assert_eq!(a.centroid.drive_id, b.centroid.drive_id);
            assert_eq!(a.centroid.best_rmse.to_bits(), b.centroid.best_rmse.to_bits());
        }
    }
}

#[test]
fn zscore_kernel_is_bit_identical_across_layouts() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let (records, cat) = categorize(&dataset);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        let config = ZScoreConfig::default();
        for &attr in &[Attribute::TemperatureCelsius, Attribute::PowerOnHours] {
            let aos = temporal_z_scores(&dataset, &records, &cat, attr, &config).expect("aos");
            let soa =
                temporal_z_scores_columns(&columns, &records, &cat, attr, &config).expect("soa");
            assert_eq!(aos.times, soa.times);
            assert_eq!(aos.by_group.len(), soa.by_group.len());
            for (ga, gb) in aos.by_group.iter().zip(&soa.by_group) {
                let bits =
                    |s: &[Option<f64>]| s.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>();
                assert_eq!(bits(ga), bits(gb), "seed {seed} {attr:?}");
            }
        }
        // The full sweep agrees too, in every parallelism mode.
        let aos =
            all_attribute_z_scores_with(&dataset, &records, &cat, &config, Parallelism::Sequential)
                .expect("aos sweep");
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let soa = all_attribute_z_scores_columns(&columns, &records, &cat, &config, par)
                .expect("soa sweep");
            assert_eq!(aos.len(), soa.len());
            for (a, b) in aos.iter().zip(&soa) {
                assert_eq!(a.attribute, b.attribute);
                for (ga, gb) in a.by_group.iter().zip(&b.by_group) {
                    let bits = |s: &[Option<f64>]| {
                        s.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(ga), bits(gb));
                }
            }
        }
    }
}

#[test]
fn trained_predictors_are_bit_identical_across_layouts() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let (_, cat) = categorize(&dataset);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        let degradation =
            DegradationAnalyzer::default().analyze_groups(&dataset, &cat).expect("degradation");
        let predictor = DegradationPredictor::default();
        let aos = predictor.train(&dataset, &cat, &degradation).expect("aos train");
        let soa = predictor.train_with_columns(&columns, &cat, &degradation).expect("soa train");
        assert_eq!(aos.groups.len(), soa.groups.len());
        for (a, b) in aos.groups.iter().zip(&soa.groups) {
            assert_eq!(a.group_index, b.group_index);
            assert_eq!(a.signature, b.signature);
            assert_eq!(a.tree, b.tree, "seed {seed} group {} trees differ", a.group_index);
            assert_eq!(a.rmse.to_bits(), b.rmse.to_bits());
            assert_eq!(a.error_rate.to_bits(), b.error_rate.to_bits());
            assert_eq!(a.train_samples, b.train_samples);
            assert_eq!(a.test_samples, b.test_samples);
        }
    }
}

#[test]
fn regression_tree_fit_is_bit_identical_on_fleet_samples() {
    // fit vs fit_columns on real fleet-derived matrices (the in-crate
    // regtree tests cover synthetic tie-heavy fixtures; this covers the
    // actual sample distribution the pipeline trains on).
    for seed in SEEDS {
        let dataset = fleet(seed);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for drive in dataset.failed_drives() {
            let last = drive.records().last().expect("non-empty").hour;
            for record in drive.records() {
                xs.push(dataset.normalize_record(record).to_vec());
                ys.push(-((last - record.hour) as f64) / 480.0);
            }
        }
        let matrix = ColMatrix::from_rows(&xs).expect("matrix");
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let config = TreeConfig::default().with_parallelism(par);
            let aos = RegressionTree::fit(&xs, &ys, &config).expect("fit");
            let soa = RegressionTree::fit_columns(&matrix, &ys, &config).expect("fit_columns");
            assert_eq!(aos, soa, "seed {seed} {par:?}");
        }
    }
}
