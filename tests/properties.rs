//! Property-based tests on the core invariants: Eq. (1) normalization,
//! signature models, window extraction, clustering and tree behavior under
//! arbitrary inputs.

use dds_cluster::{KMeans, KMeansConfig};
use dds_regtree::{RegressionTree, TreeConfig};
use dds_stats::{
    deciles, euclidean, quantile, BoxplotSummary, Histogram, MinMaxScaler, SignatureForm,
    SignatureModel,
};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, len)
}

proptest! {
    #[test]
    fn normalization_roundtrips(rows in prop::collection::vec(finite_vec(4), 2..20)) {
        let scaler = MinMaxScaler::fit(&rows).unwrap();
        for row in &rows {
            let t = scaler.transform_row(row).unwrap();
            for (c, &norm) in t.iter().enumerate() {
                // Values stay in [-1, 1] and invert back.
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&norm));
                let back = scaler.inverse_value(c, norm);
                let range = scaler.maxs()[c] - scaler.mins()[c];
                if range > 0.0 {
                    prop_assert!((back - row[c]).abs() < 1e-6 * range.max(1.0));
                }
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q(values in prop::collection::vec(-1e6..1e6f64, 1..64)) {
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = quantile(&values, i as f64 / 10.0).unwrap();
            prop_assert!(q >= prev - 1e-9);
            prev = q;
        }
        let d = deciles(&values).unwrap();
        for w in d.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
    }

    #[test]
    fn euclidean_is_a_metric(
        a in finite_vec(6),
        b in finite_vec(6),
        c in finite_vec(6),
    ) {
        let ab = euclidean(&a, &b).unwrap();
        let ba = euclidean(&b, &a).unwrap();
        let ac = euclidean(&a, &c).unwrap();
        let cb = euclidean(&c, &b).unwrap();
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= 0.0);
        prop_assert!(ab <= ac + cb + 1e-6 * (1.0 + ab));
        prop_assert_eq!(euclidean(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn signature_models_are_monotone_and_bounded(
        window in 1.0..500.0f64,
        steps in 2usize..50,
    ) {
        for form in [SignatureForm::Linear, SignatureForm::Quadratic, SignatureForm::Cubic] {
            let model = SignatureModel::new(form, window).unwrap();
            let mut prev = model.evaluate(0.0);
            prop_assert!((prev + 1.0).abs() < 1e-12);
            for i in 1..=steps {
                let t = window * i as f64 / steps as f64;
                let s = model.evaluate(t);
                prop_assert!(s >= prev - 1e-12, "{form}: s must rise with t");
                prop_assert!((-1.0..=1e-9).contains(&s));
                prev = s;
                // Inverse agrees.
                let back = model.time_before_failure(s).unwrap();
                prop_assert!((back - t).abs() < 1e-6 * window);
            }
        }
    }

    #[test]
    fn kmeans_assignments_are_nearest_centroid(
        points in prop::collection::vec(finite_vec(3), 6..40),
        k in 1usize..5,
    ) {
        prop_assume!(points.len() >= k);
        let result = KMeans::new(KMeansConfig::new(k).with_seed(9)).fit(&points).unwrap();
        for (p, &a) in points.iter().zip(result.assignments()) {
            let own = euclidean(p, &result.centroids()[a]).unwrap();
            for centroid in result.centroids() {
                let other = euclidean(p, centroid).unwrap();
                prop_assert!(own <= other + 1e-9);
            }
        }
        prop_assert_eq!(result.cluster_sizes().iter().sum::<usize>(), points.len());
    }

    #[test]
    fn regression_tree_predictions_stay_in_target_hull(
        ys in prop::collection::vec(-100.0..100.0f64, 10..80),
    ) {
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let config = TreeConfig::default().with_min_samples_split(2).with_min_samples_leaf(1);
        let tree = RegressionTree::fit(&xs, &ys, &config).unwrap();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for x in &xs {
            let p = tree.predict(x);
            prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&p));
        }
    }

    #[test]
    fn histogram_conserves_counts(values in prop::collection::vec(-10.0..110.0f64, 0..200)) {
        let h = Histogram::from_values(0.0, 100.0, 10, &values).unwrap();
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.out_of_range(), h.total());
        prop_assert_eq!(h.total() as usize, values.len());
    }

    #[test]
    fn boxplot_invariants(values in prop::collection::vec(-1e4..1e4f64, 1..128)) {
        let b = BoxplotSummary::from_values(&values).unwrap();
        prop_assert!(b.min <= b.q1 && b.q1 <= b.median);
        prop_assert!(b.median <= b.q3 && b.q3 <= b.max);
        prop_assert!(b.lower_whisker >= b.min && b.upper_whisker <= b.max);
        prop_assert!(b.iqr() >= 0.0);
        prop_assert_eq!(b.count, values.len());
        // Outliers are genuinely outside the whiskers.
        for &o in &b.outliers {
            prop_assert!(o < b.lower_whisker || o > b.upper_whisker);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn window_extraction_is_bounded_and_normalized(seed in 0u64..500) {
        use dds_core::degradation::DegradationAnalyzer;
        use dds_smartsim::{FleetConfig, FleetSimulator};
        let config = FleetConfig::test_scale()
            .with_good_drives(10)
            .with_failed_drives(6)
            .with_seed(seed);
        let dataset = FleetSimulator::new(config).run();
        let analyzer = DegradationAnalyzer::default();
        for drive in dataset.failed_drives() {
            let a = analyzer.analyze_drive(&dataset, drive).unwrap();
            prop_assert!(a.window_hours >= 1);
            prop_assert!(a.window_hours < drive.records().len());
            prop_assert_eq!(*a.degradation.last().unwrap(), -1.0);
            prop_assert!(a.degradation.iter().all(|&s| (-1.0..=1e-9).contains(&s)));
            prop_assert!(a.best_rmse.is_finite());
        }
    }
}

// Observability invariants: the sliding-window time series must agree with
// a from-scratch recomputation — rates exactly, bucket-estimated quantiles
// within the log-scale histograms' factor-of-2 bucket resolution.
proptest! {
    #[test]
    fn window_rates_match_naive_recomputation(
        increments in prop::collection::vec(0u64..1_000, 2..20),
        window_s in 1u64..100,
    ) {
        use dds_obs::metrics::Registry;
        use dds_obs::timeseries::TimeSeriesStore;
        use std::time::Duration;

        let registry = Registry::new();
        let counter = registry.counter("prop_events_total");
        let store = TimeSeriesStore::new(64);
        // One sample every 3 s at t = 0, 3, 6, …
        let mut samples: Vec<(u64, u64)> = Vec::new();
        for (i, inc) in increments.iter().enumerate() {
            counter.add(*inc);
            let t = 3 * i as u64;
            store.push(Duration::from_secs(t), registry.snapshot());
            samples.push((t, counter.get()));
        }

        // Naive recomputation straight from the sample list: newest total
        // minus the total at the first sample inside the window, over the
        // actually-covered interval.
        let &(newest_t, newest_v) = samples.last().unwrap();
        let left_edge = newest_t.saturating_sub(window_s);
        let &(oldest_t, oldest_v) =
            samples.iter().find(|(t, _)| *t >= left_edge).unwrap();
        let naive = (newest_t > oldest_t)
            .then(|| (newest_v - oldest_v) as f64 / (newest_t - oldest_t) as f64);

        let window = Duration::from_secs(window_s);
        let rate = store.rate_per_sec("prop_events_total", window);
        match (naive, rate) {
            (Some(expected), Some(actual)) => {
                prop_assert!((actual - expected).abs() <= 1e-9 * expected.max(1.0));
                let per_min = store.rate_per_min("prop_events_total", window).unwrap();
                prop_assert!((per_min - 60.0 * expected).abs() <= 1e-7 * expected.max(1.0));
            }
            (None, None) => {}
            (expected, actual) => prop_assert!(false, "naive {expected:?} vs store {actual:?}"),
        }
    }

    #[test]
    fn windowed_quantiles_track_naive_order_statistics(
        old_values in prop::collection::vec(1e-5..10.0f64, 0..50),
        new_values in prop::collection::vec(1e-5..10.0f64, 1..50),
        decile in 1usize..=9,
    ) {
        use dds_obs::metrics::Registry;
        use dds_obs::timeseries::TimeSeriesStore;
        use std::time::Duration;

        let registry = Registry::new();
        let h = registry.histogram("prop_latency_seconds");
        for v in &old_values {
            h.observe(*v);
        }
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(0), registry.snapshot());
        for v in &new_values {
            h.observe(*v);
        }
        store.push(Duration::from_secs(30), registry.snapshot());

        // Naive order statistic over ONLY the in-window observations, with
        // the same rank convention the bucket estimator uses
        // (rank = clamp(ceil(q·n), 1, n)).
        let q = decile as f64 / 10.0;
        let mut sorted = new_values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let naive = sorted[rank - 1];

        let est = store
            .window_quantile("prop_latency_seconds", Duration::from_secs(30), q)
            .unwrap();
        // Both the estimate (interpolated inside the bucket) and the naive
        // order statistic land in the same log-scale bucket (lo, 2·lo], so
        // they agree within the bucket resolution: a factor of 2 each way.
        prop_assert!(est > naive / 2.0 * (1.0 - 1e-12), "estimate {est} under half of naive {naive}");
        prop_assert!(est <= naive * 2.0 * (1.0 + 1e-12), "estimate {est} over 2x naive {naive}");

        let count = store
            .window_count("prop_latency_seconds", Duration::from_secs(30))
            .unwrap();
        prop_assert_eq!(count as usize, new_values.len());
    }
}

// Chaos-operator invariants: seeded fault injection must be bit-exact
// under replay, conserve records according to its own tally, collapse to
// the identity at rate zero, and never break the quality gate's
// `accepted + quarantined == ingested` accounting downstream.
mod chaos_support {
    use dds_smartsim::{DriveId, HealthRecord};

    /// An hour-major interleaved stream like `hour_ordered` produces, with
    /// distinct deterministic values in every attribute cell.
    pub fn synthetic_stream(drives: usize, hours: usize) -> Vec<(DriveId, HealthRecord)> {
        let mut out = Vec::with_capacity(drives * hours);
        for hour in 0..hours {
            for d in 0..drives {
                let mut values = [0.0f64; 12];
                for (i, v) in values.iter_mut().enumerate() {
                    *v = ((hour * 31 + d * 7 + i * 13) % 97) as f64 + 0.5;
                }
                out.push((DriveId(d as u32), HealthRecord { hour: hour as u32, values }));
            }
        }
        out
    }

    /// Bit-exact fingerprint of a stream (NaN-safe, unlike `PartialEq`).
    pub fn stream_bits(stream: &[(DriveId, HealthRecord)]) -> Vec<(u32, u32, [u64; 12])> {
        stream.iter().map(|(d, r)| (d.0, r.hour, r.values.map(f64::to_bits))).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chaos_replay_is_bit_exact(
        drop in 0.0..0.3f64,
        truncate in 0.0..0.3f64,
        nullattr in 0.0..0.1f64,
        sentinel in 0.0..0.1f64,
        dup in 0.0..0.3f64,
        reorder in 0.0..0.3f64,
        skew in 0.0..0.3f64,
        seed in 0u64..u64::MAX,
        salt in 0u64..4,
    ) {
        use chaos_support::{stream_bits, synthetic_stream};
        use dds_chaos::{ChaosEngine, ChaosSpec, FaultKind};

        let spec = ChaosSpec::none()
            .with_rate(FaultKind::Drop, drop).unwrap()
            .with_rate(FaultKind::Truncate, truncate).unwrap()
            .with_rate(FaultKind::NullAttr, nullattr).unwrap()
            .with_rate(FaultKind::Sentinel, sentinel).unwrap()
            .with_rate(FaultKind::Duplicate, dup).unwrap()
            .with_rate(FaultKind::Reorder, reorder).unwrap()
            .with_rate(FaultKind::Skew, skew).unwrap();
        let stream = synthetic_stream(5, 24);

        let engine = ChaosEngine::new(spec, seed);
        let (first, first_counts) = engine.corrupt_stream(salt, &stream);
        let (second, second_counts) = engine.corrupt_stream(salt, &stream);
        prop_assert_eq!(stream_bits(&first), stream_bits(&second));
        prop_assert_eq!(first_counts, second_counts);
    }

    #[test]
    fn chaos_corrupts_each_drive_alike_in_any_interleaving(
        drop in 0.0..0.3f64,
        truncate in 0.0..0.3f64,
        nullattr in 0.0..0.1f64,
        sentinel in 0.0..0.1f64,
        dup in 0.0..0.3f64,
        reorder in 0.0..0.3f64,
        skew in 0.0..0.3f64,
        seed in 0u64..u64::MAX,
        salt in 0u64..4,
    ) {
        use chaos_support::{stream_bits, synthetic_stream};
        use dds_chaos::{ChaosEngine, ChaosSpec, FaultKind};
        use std::collections::BTreeMap;

        let spec = ChaosSpec::none()
            .with_rate(FaultKind::Drop, drop).unwrap()
            .with_rate(FaultKind::Truncate, truncate).unwrap()
            .with_rate(FaultKind::NullAttr, nullattr).unwrap()
            .with_rate(FaultKind::Sentinel, sentinel).unwrap()
            .with_rate(FaultKind::Duplicate, dup).unwrap()
            .with_rate(FaultKind::Reorder, reorder).unwrap()
            .with_rate(FaultKind::Skew, skew).unwrap();
        let hour_major = synthetic_stream(5, 24);
        let mut drive_major = hour_major.clone();
        drive_major.sort_by_key(|(drive, _)| drive.0);

        // Each drive's corrupted sequence, in stream order.
        let per_drive = |stream: &[_]| {
            let mut by_drive: BTreeMap<u32, Vec<_>> = BTreeMap::new();
            for (drive, hour, bits) in stream_bits(stream) {
                by_drive.entry(drive).or_default().push((hour, bits));
            }
            by_drive
        };
        let engine = ChaosEngine::new(spec, seed);
        let (by_hour, hour_counts) = engine.corrupt_stream(salt, &hour_major);
        let (by_drive, drive_counts) = engine.corrupt_stream(salt, &drive_major);
        prop_assert_eq!(per_drive(&by_hour), per_drive(&by_drive));
        prop_assert_eq!(hour_counts, drive_counts);
    }

    #[test]
    fn chaos_tally_conserves_records(
        drop in 0.0..0.3f64,
        truncate in 0.0..0.3f64,
        dup in 0.0..0.3f64,
        reorder in 0.0..0.3f64,
        seed in 0u64..u64::MAX,
    ) {
        use chaos_support::synthetic_stream;
        use dds_chaos::{ChaosEngine, ChaosSpec, FaultKind};

        let spec = ChaosSpec::none()
            .with_rate(FaultKind::Drop, drop).unwrap()
            .with_rate(FaultKind::Truncate, truncate).unwrap()
            .with_rate(FaultKind::Duplicate, dup).unwrap()
            .with_rate(FaultKind::Reorder, reorder).unwrap();
        let stream = synthetic_stream(4, 30);

        let (corrupted, counts) = ChaosEngine::new(spec, seed).corrupt_stream(0, &stream);
        // Drop and truncate each remove exactly one record per fault,
        // duplicate adds one; every other operator edits in place.
        let expected = stream.len() as i64
            - counts.get(FaultKind::Drop) as i64
            - counts.get(FaultKind::Truncate) as i64
            + counts.get(FaultKind::Duplicate) as i64;
        prop_assert_eq!(corrupted.len() as i64, expected);
    }

    #[test]
    fn zero_rate_chaos_is_the_identity(
        seed in 0u64..u64::MAX,
        salt in 0u64..4,
        drives in 1usize..6,
        hours in 1usize..40,
    ) {
        use chaos_support::{stream_bits, synthetic_stream};
        use dds_chaos::{ChaosEngine, ChaosSpec};

        let stream = synthetic_stream(drives, hours);
        let engine = ChaosEngine::new(ChaosSpec::none(), seed);
        let (out, counts) = engine.corrupt_stream(salt, &stream);
        prop_assert_eq!(counts.total(), 0);
        prop_assert_eq!(stream_bits(&out), stream_bits(&stream));
    }

    #[test]
    fn quality_gate_accounting_survives_any_chaos(
        drop in 0.0..0.4f64,
        nullattr in 0.0..0.2f64,
        sentinel in 0.0..0.2f64,
        dup in 0.0..0.4f64,
        reorder in 0.0..0.4f64,
        skew in 0.0..0.4f64,
        seed in 0u64..u64::MAX,
    ) {
        use chaos_support::synthetic_stream;
        use dds_chaos::{ChaosEngine, ChaosSpec, FaultKind};
        use dds_core::quality::{DriveGate, QualityPolicy, QualityStats};
        use std::collections::HashMap;

        let spec = ChaosSpec::none()
            .with_rate(FaultKind::Drop, drop).unwrap()
            .with_rate(FaultKind::NullAttr, nullattr).unwrap()
            .with_rate(FaultKind::Sentinel, sentinel).unwrap()
            .with_rate(FaultKind::Duplicate, dup).unwrap()
            .with_rate(FaultKind::Reorder, reorder).unwrap()
            .with_rate(FaultKind::Skew, skew).unwrap();
        let stream = synthetic_stream(5, 24);
        let (corrupted, _) = ChaosEngine::new(spec, seed).corrupt_stream(0, &stream);

        // One gate per drive and one tally, as a serving monitor keeps them.
        let policy = QualityPolicy::default();
        let mut gates: HashMap<u32, DriveGate> = HashMap::new();
        let mut stats = QualityStats::default();
        let mut last_hour: HashMap<u32, u32> = HashMap::new();
        let mut accepted = 0u64;
        for (drive, record) in &corrupted {
            let gate = gates.entry(drive.0).or_default();
            if let Ok(clean) = gate.admit(&policy, &mut stats, *drive, record) {
                accepted += 1;
                // Accepted records are finite and strictly chronological
                // per drive — exactly what `DriveProfile::new` demands.
                prop_assert!(clean.values.iter().all(|v| v.is_finite()));
                if let Some(&prev) = last_hour.get(&drive.0) {
                    prop_assert!(clean.hour > prev);
                }
                last_hour.insert(drive.0, clean.hour);
            }
        }
        prop_assert_eq!(stats.ingested, corrupted.len() as u64);
        prop_assert_eq!(stats.accepted, accepted);
        prop_assert_eq!(stats.accepted + stats.quarantined, stats.ingested);
    }
}
