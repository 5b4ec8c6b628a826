//! Determinism regression: every parallelism mode must produce results
//! identical to sequential execution — same drives, same clusters, same
//! trained models, bit for bit. The execution layer (see
//! `dds_stats::par`) promises this via per-item RNG streams and
//! fixed-order reductions; these tests pin the promise at the three
//! user-facing entry points.

use dds::prelude::*;
use dds_cluster::{KMeans, KMeansConfig};
use dds_stats::Parallelism;

const MODES: [Parallelism; 2] = [Parallelism::Threads(4), Parallelism::Auto];

fn assert_bits_eq(label: &str, a: f64, b: f64) {
    assert_eq!(a.to_bits(), b.to_bits(), "{label}: {a} != {b}");
}

#[test]
fn fleet_generation_is_identical_across_modes() {
    let baseline = FleetSimulator::new(
        FleetConfig::test_scale().with_seed(4_242).with_parallelism(Parallelism::Sequential),
    )
    .run();
    for mode in MODES {
        let dataset =
            FleetSimulator::new(FleetConfig::test_scale().with_seed(4_242).with_parallelism(mode))
                .run();
        // DriveProfile equality covers ids, labels and every health record.
        assert_eq!(dataset.drives(), baseline.drives(), "fleet generation diverged under {mode:?}");
    }
}

#[test]
fn kmeans_fit_is_identical_across_modes() {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_243)).run();
    let records = dds_core::FailureRecordSet::extract(&dataset, 24).unwrap();
    let points: Vec<Vec<f64>> = records.failure_records().iter().map(|r| r.to_vec()).collect();
    let baseline =
        KMeans::new(KMeansConfig::new(3).with_seed(7).with_parallelism(Parallelism::Sequential))
            .fit(&points)
            .unwrap();
    for mode in MODES {
        let result = KMeans::new(KMeansConfig::new(3).with_seed(7).with_parallelism(mode))
            .fit(&points)
            .unwrap();
        assert_eq!(result, baseline, "k-means diverged under {mode:?}");
    }
}

#[test]
fn full_analysis_is_identical_across_modes() {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_244)).run();
    let run = |mode: Parallelism| {
        Analysis::new(AnalysisConfig::default().with_parallelism(mode)).run(&dataset).unwrap()
    };
    let baseline = run(Parallelism::Sequential);
    for mode in MODES {
        let report = run(mode);
        assert_eq!(
            report.categorization.assignments(),
            baseline.categorization.assignments(),
            "cluster assignments diverged under {mode:?}"
        );
        assert_eq!(
            report.categorization.svc_agreement(),
            baseline.categorization.svc_agreement(),
            "SVC cross-check diverged under {mode:?}"
        );
        for (group, base) in
            report.categorization.groups().iter().zip(baseline.categorization.groups())
        {
            assert_eq!(group.failure_type, base.failure_type);
            assert_eq!(group.centroid_drive, base.centroid_drive);
        }
        for (group, base) in report.degradation.iter().zip(&baseline.degradation) {
            assert_eq!(group.dominant_form, base.dominant_form);
            for (a, b) in group.centroid.degradation.iter().zip(&base.centroid.degradation) {
                assert_bits_eq("centroid degradation", *a, *b);
            }
        }
        for (group, base) in report.prediction.groups.iter().zip(&baseline.prediction.groups) {
            assert_eq!(group.tree, base.tree, "trained tree diverged under {mode:?}");
            assert_bits_eq("error rate", group.error_rate, base.error_rate);
        }
        for (z, base) in report.z_scores.iter().zip(&baseline.z_scores) {
            assert_eq!(z.attribute, base.attribute);
            for (row, base_row) in z.by_group.iter().zip(&base.by_group) {
                for (a, b) in row.iter().zip(base_row) {
                    match (a, b) {
                        (Some(a), Some(b)) => assert_bits_eq("z-score", *a, *b),
                        (None, None) => {}
                        _ => panic!("z-score defined-ness diverged under {mode:?}"),
                    }
                }
            }
        }
        for ((attr, summary), (base_attr, base_summary)) in
            report.attribute_boxplots.iter().zip(&baseline.attribute_boxplots)
        {
            assert_eq!(attr, base_attr);
            assert_eq!(summary, base_summary, "boxplots diverged under {mode:?}");
        }
    }
}
