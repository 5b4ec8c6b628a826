//! The chaos engine: applies a [`ChaosSpec`] to `(drive, record)`
//! streams with per-drive seeded generators.
//!
//! [`ChaosEngine::corrupt_stream`] is the only corruption path: every
//! command flattens its fleet into a stream first — drive by drive for
//! the batch commands, [`hour_ordered`](dds_smartsim::stream::hour_ordered)
//! for `dds serve`'s epochs — and hands it here.
//!
//! # Determinism
//!
//! Every drive gets its own generator seeded as
//! `stream_seed(stream_seed(seed, salt), drive_id)`, so corruption of one
//! drive is a pure function of `(spec, seed, salt, that drive's records)`
//! — independent of how many other drives exist or how the stream
//! interleaves them. The `salt` separates corruption *contexts* (training
//! fleet vs. live fleet vs. serve epoch index) so the same drive id is
//! corrupted differently in each.
//!
//! # Conservation
//!
//! A rate-0 operator still consumes its generator draws but never fires,
//! so `ChaosSpec::none()` is the identity on any input and raising one
//! operator's rate never changes *which* records another operator hits.

use crate::spec::{ChaosSpec, FaultKind};
use dds_smartsim::{DriveId, HealthRecord};
use dds_stats::par::stream_seed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// The 16-bit-saturated vendor sentinel the [`FaultKind::Sentinel`]
/// operator writes: the classic 0xFFFF "no data" encoding.
pub const SENTINEL_VALUE: f64 = 65_535.0;

/// Longest history head (in records) the truncate operator removes.
const MAX_TRUNCATE_RECORDS: u32 = 72;

/// Largest timestamp shift (hours) the skew operator applies.
const MAX_SKEW_HOURS: u32 = 3;

/// Tally of injected faults, indexed by [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    counts: [u64; FaultKind::ALL.len()],
}

impl FaultCounts {
    /// Number of faults injected by one operator.
    pub fn get(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total faults injected across all operators.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn record(&mut self, kind: FaultKind) {
        self.counts[kind.index()] += 1;
    }
}

impl fmt::Display for FaultCounts {
    /// `"<total> (drop 3, dup 1)"` — non-zero operators only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.total())?;
        if self.total() == 0 {
            return Ok(());
        }
        f.write_str(" (")?;
        let mut first = true;
        for kind in FaultKind::ALL {
            let n = self.get(kind);
            if n > 0 {
                if !first {
                    f.write_str(", ")?;
                }
                write!(f, "{} {n}", kind.key())?;
                first = false;
            }
        }
        f.write_str(")")
    }
}

/// Per-drive corruption state: the drive's own generator plus the
/// first-encounter truncation decision.
struct DriveChaos {
    rng: StdRng,
    truncate_remaining: u32,
    emitted: usize,
}

/// Applies a [`ChaosSpec`] deterministically. Cheap to construct and
/// stateless between calls — every [`corrupt_stream`] invocation
/// re-derives all per-drive generators from `(seed, salt, drive_id)`.
///
/// [`corrupt_stream`]: ChaosEngine::corrupt_stream
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEngine {
    spec: ChaosSpec,
    seed: u64,
}

impl ChaosEngine {
    /// Creates an engine from a spec and master seed.
    pub fn new(spec: ChaosSpec, seed: u64) -> Self {
        ChaosEngine { spec, seed }
    }

    fn drive_state(&self, salt: u64, drive: DriveId) -> DriveChaos {
        let mut rng =
            StdRng::seed_from_u64(stream_seed(stream_seed(self.seed, salt), u64::from(drive.0)));
        let truncate_remaining = if rng.random_bool(self.spec.rate(FaultKind::Truncate)) {
            rng.random_range(1..=MAX_TRUNCATE_RECORDS)
        } else {
            0
        };
        DriveChaos { rng, truncate_remaining, emitted: 0 }
    }

    /// Runs one record through every operator except reorder (which needs
    /// the drive's emission history and is handled by the caller).
    /// Appends 0, 1 or 2 records to `out`.
    fn corrupt_one(
        &self,
        st: &mut DriveChaos,
        record: &HealthRecord,
        counts: &mut FaultCounts,
        out: &mut Vec<HealthRecord>,
    ) {
        if st.truncate_remaining > 0 {
            st.truncate_remaining -= 1;
            counts.record(FaultKind::Truncate);
            return;
        }
        if st.rng.random_bool(self.spec.rate(FaultKind::Drop)) {
            counts.record(FaultKind::Drop);
            return;
        }
        let mut rec = record.clone();
        for value in rec.values.iter_mut() {
            if st.rng.random_bool(self.spec.rate(FaultKind::NullAttr)) {
                *value = f64::NAN;
                counts.record(FaultKind::NullAttr);
            } else if st.rng.random_bool(self.spec.rate(FaultKind::Sentinel)) {
                *value = SENTINEL_VALUE;
                counts.record(FaultKind::Sentinel);
            }
        }
        if st.rng.random_bool(self.spec.rate(FaultKind::Skew)) {
            let delta = st.rng.random_range(1..=MAX_SKEW_HOURS);
            rec.hour = if st.rng.random_bool(0.5) {
                rec.hour.saturating_add(delta)
            } else {
                rec.hour.saturating_sub(delta)
            };
            counts.record(FaultKind::Skew);
        }
        let duplicate = st.rng.random_bool(self.spec.rate(FaultKind::Duplicate));
        out.push(rec);
        if duplicate {
            out.push(out.last().expect("just pushed").clone());
            counts.record(FaultKind::Duplicate);
        }
    }

    /// One reorder decision per emitted record: swap it with the drive's
    /// previously emitted record? (Only drawn once the drive has emitted
    /// at least two records.)
    fn reorder_fires(&self, st: &mut DriveChaos) -> bool {
        st.emitted += 1;
        st.emitted >= 2 && st.rng.random_bool(self.spec.rate(FaultKind::Reorder))
    }

    /// Corrupts a `(drive, record)` stream in any interleaving. Each
    /// drive's output is a function of its own records only, so a
    /// drive-major and an hour-major flattening of one fleet yield the
    /// same per-drive sequences and the same [`FaultCounts`]. Drive tags
    /// keep their relative order: dropped records leave no slot and a
    /// duplicate lands right after its original. Reorder swaps the
    /// *payloads* of a drive's two most recent stream slots, so disorder
    /// is per drive (the property ingest gates actually check).
    pub fn corrupt_stream(
        &self,
        salt: u64,
        records: &[(DriveId, HealthRecord)],
    ) -> (Vec<(DriveId, HealthRecord)>, FaultCounts) {
        let mut counts = FaultCounts::default();
        let mut states: HashMap<DriveId, DriveChaos> = HashMap::new();
        let mut last_slot: HashMap<DriveId, usize> = HashMap::new();
        let mut out: Vec<(DriveId, HealthRecord)> = Vec::with_capacity(records.len());
        let mut emitted: Vec<HealthRecord> = Vec::new();
        for (drive, record) in records {
            let st = states.entry(*drive).or_insert_with(|| self.drive_state(salt, *drive));
            emitted.clear();
            self.corrupt_one(st, record, &mut counts, &mut emitted);
            for rec in emitted.drain(..) {
                out.push((*drive, rec));
                let slot = out.len() - 1;
                if self.reorder_fires(st) {
                    let prev = last_slot[drive];
                    let newest = out[slot].1.clone();
                    let moved = std::mem::replace(&mut out[prev].1, newest);
                    out[slot].1 = moved;
                    counts.record(FaultKind::Reorder);
                }
                last_slot.insert(*drive, slot);
            }
        }
        (out, counts)
    }

    /// Exports the tally to the global metrics registry
    /// (`dds_chaos_faults_injected_total` plus one per-operator counter).
    /// A zero tally publishes nothing.
    pub fn publish(&self, counts: &FaultCounts) {
        if counts.total() == 0 {
            return;
        }
        let registry = dds_obs::metrics::global();
        registry.counter("dds_chaos_faults_injected_total").add(counts.total());
        for kind in FaultKind::ALL {
            let n = counts.get(kind);
            if n > 0 {
                registry.counter(&format!("dds_chaos_faults_{}_total", kind.key())).add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_smartsim::stream::{drive_major, hour_ordered};
    use dds_smartsim::{Dataset, FleetConfig, FleetSimulator};

    fn small_fleet(seed: u64) -> Dataset {
        FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run()
    }

    fn spec(s: &str) -> ChaosSpec {
        s.parse().expect("test spec")
    }

    /// NaN-aware record equality (NaN != NaN under PartialEq).
    fn same_record(a: &HealthRecord, b: &HealthRecord) -> bool {
        a.hour == b.hour && a.values.iter().zip(&b.values).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Regroups a corrupted stream into one record list per fleet drive,
    /// in fleet order; a drive chaos removed entirely gets an empty list.
    fn per_drive(dataset: &Dataset, stream: &[(DriveId, HealthRecord)]) -> Vec<Vec<HealthRecord>> {
        let mut by_drive: HashMap<DriveId, Vec<HealthRecord>> = HashMap::new();
        for (drive, record) in stream {
            by_drive.entry(*drive).or_default().push(record.clone());
        }
        dataset.drives().iter().map(|d| by_drive.remove(&d.id()).unwrap_or_default()).collect()
    }

    #[test]
    fn identity_spec_is_a_no_op_on_every_interleaving() {
        let dataset = small_fleet(3);
        let engine = ChaosEngine::new(ChaosSpec::none(), 99);
        for stream in [hour_ordered(&dataset), drive_major(&dataset)] {
            let (out, counts) = engine.corrupt_stream(0, &stream);
            assert_eq!(counts.total(), 0);
            assert_eq!(out, stream);
        }
    }

    #[test]
    fn corruption_is_deterministic_per_seed_and_differs_across_seeds() {
        let dataset = small_fleet(4);
        let stream = drive_major(&dataset);
        let spec = spec("drop=0.1,nullattr=0.05,dup=0.1,reorder=0.05,skew=0.05,truncate=0.3");
        let (a, ca) = ChaosEngine::new(spec.clone(), 7).corrupt_stream(0, &stream);
        let (b, cb) = ChaosEngine::new(spec.clone(), 7).corrupt_stream(0, &stream);
        assert_eq!(ca, cb);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && same_record(&x.1, &y.1)));
        let (_, c_other) = ChaosEngine::new(spec, 8).corrupt_stream(0, &stream);
        assert_ne!(ca, c_other, "different seeds must corrupt differently");
    }

    #[test]
    fn salt_separates_corruption_contexts() {
        let dataset = small_fleet(4);
        let stream = drive_major(&dataset);
        let engine = ChaosEngine::new(spec("drop=0.2"), 7);
        let (_, train) = engine.corrupt_stream(0, &stream);
        let (_, live) = engine.corrupt_stream(1, &stream);
        assert_ne!(train, live, "salts 0 and 1 must draw different streams");
    }

    #[test]
    fn truncate_removes_a_bounded_history_head() {
        let dataset = small_fleet(5);
        let engine = ChaosEngine::new(spec("truncate=1"), 11);
        let (out, counts) = engine.corrupt_stream(0, &drive_major(&dataset));
        assert!(counts.get(FaultKind::Truncate) > 0);
        for (records, drive) in per_drive(&dataset, &out).iter().zip(dataset.drives()) {
            let removed = drive.records().len().saturating_sub(records.len());
            assert!(removed >= 1, "rate 1 truncates every drive");
            assert!(removed <= MAX_TRUNCATE_RECORDS as usize);
            // The surviving tail is exactly the original tail.
            assert_eq!(records.as_slice(), &drive.records()[removed..]);
        }
    }

    #[test]
    fn duplicate_and_drop_change_counts_by_exactly_the_tally() {
        let dataset = small_fleet(6);
        let engine = ChaosEngine::new(spec("drop=0.1,dup=0.1"), 13);
        let stream = hour_ordered(&dataset);
        let (out, counts) = engine.corrupt_stream(0, &stream);
        let expected = stream.len() + counts.get(FaultKind::Duplicate) as usize
            - counts.get(FaultKind::Drop) as usize;
        assert_eq!(out.len(), expected);
    }

    #[test]
    fn reorder_swaps_stay_within_a_drive() {
        let dataset = small_fleet(8);
        let engine = ChaosEngine::new(spec("reorder=0.3"), 17);
        let stream = hour_ordered(&dataset);
        let (out, counts) = engine.corrupt_stream(0, &stream);
        assert!(counts.get(FaultKind::Reorder) > 0);
        assert_eq!(out.len(), stream.len());
        // Drive tags are untouched; only payloads moved between a
        // drive's own slots, so each drive keeps its own multiset of
        // hours.
        for (a, b) in out.iter().zip(&stream) {
            assert_eq!(a.0, b.0);
        }
        let hours_of = |records: &[(DriveId, HealthRecord)]| {
            let mut by_drive: HashMap<DriveId, Vec<u32>> = HashMap::new();
            for (drive, rec) in records {
                by_drive.entry(*drive).or_default().push(rec.hour);
            }
            by_drive.values_mut().for_each(|h| h.sort_unstable());
            by_drive
        };
        assert_eq!(hours_of(&out), hours_of(&stream));
        // And at least one drive is actually out of order now.
        let disordered = {
            let mut by_drive: HashMap<DriveId, Vec<u32>> = HashMap::new();
            for (drive, rec) in &out {
                by_drive.entry(*drive).or_default().push(rec.hour);
            }
            by_drive.values().any(|h| h.windows(2).any(|w| w[0] > w[1]))
        };
        assert!(disordered, "reorder must produce per-drive disorder");
    }
}
