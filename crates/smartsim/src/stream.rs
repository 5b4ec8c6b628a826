//! Streaming ingest sources: hour-ordered record iteration over a
//! simulated fleet, and an endless epoch generator for serving mode.
//!
//! The batch [`Dataset`] hands out whole per-drive profiles, which is the
//! right shape for training but not for a live monitor: a datacenter
//! collector emits records in *time* order, interleaving every drive at
//! each collection hour. [`hour_ordered`] re-serializes a dataset into
//! that order deterministically (sorted by `(hour, drive_id)`), and
//! [`StreamingFleet`] chains endless simulated epochs of it — the ingest
//! source behind `dds serve`.

use crate::dataset::{Dataset, DriveId, HealthRecord};
use crate::fleet::{FleetConfig, FleetSimulator};
use std::fmt;

/// A transformation applied to each epoch's hour-ordered record stream
/// before it is handed to consumers — the hook fault-injection layers use
/// to corrupt a live stream. The first argument is the epoch index the
/// records belong to (0-based).
pub type RecordStage =
    Box<dyn FnMut(u64, Vec<(DriveId, HealthRecord)>) -> Vec<(DriveId, HealthRecord)> + Send>;

/// Flattens a dataset into `(drive, record)` pairs sorted by
/// `(hour, drive_id)` — the deterministic time-interleaved order a live
/// collector would deliver them in.
pub fn hour_ordered(dataset: &Dataset) -> Vec<(DriveId, HealthRecord)> {
    let mut records: Vec<(DriveId, HealthRecord)> = dataset
        .drives()
        .iter()
        .flat_map(|drive| drive.records().iter().map(|r| (drive.id(), r.clone())))
        .collect();
    records.sort_by_key(|(drive, record)| (record.hour, drive.0));
    records
}

/// An endless sequence of simulated fleet epochs for long-lived serving.
///
/// Epoch `k` runs the configured fleet with seed `base_seed + k`, so the
/// stream never repeats an epoch yet is fully reproducible from the
/// config. Each epoch's records come out in [`hour_ordered`] order.
///
/// # Example
///
/// ```
/// use dds_smartsim::{FleetConfig, StreamingFleet};
///
/// let mut stream = StreamingFleet::new(FleetConfig::test_scale().with_seed(7));
/// let first = stream.next_epoch();
/// let records = dds_smartsim::stream::hour_ordered(&first);
/// assert!(!records.is_empty());
/// // Hours never decrease within an epoch.
/// assert!(records.windows(2).all(|w| w[0].1.hour <= w[1].1.hour));
/// ```
pub struct StreamingFleet {
    config: FleetConfig,
    epoch: u64,
    stage: Option<RecordStage>,
}

impl fmt::Debug for StreamingFleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingFleet")
            .field("config", &self.config)
            .field("epoch", &self.epoch)
            .field("stage", &self.stage.as_ref().map(|_| "<record stage>"))
            .finish()
    }
}

impl StreamingFleet {
    /// Creates a stream over the given fleet shape. The config's seed is
    /// the first epoch's seed.
    pub fn new(config: FleetConfig) -> Self {
        StreamingFleet { config, epoch: 0, stage: None }
    }

    /// Installs a [`RecordStage`] applied by [`next_epoch_records`] to each
    /// epoch's hour-ordered stream. [`next_epoch`] is unaffected — the
    /// stage only sees the serialized record form.
    ///
    /// [`next_epoch_records`]: StreamingFleet::next_epoch_records
    /// [`next_epoch`]: StreamingFleet::next_epoch
    #[must_use]
    pub fn with_record_stage(mut self, stage: RecordStage) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Number of epochs already generated.
    pub fn epochs_generated(&self) -> u64 {
        self.epoch
    }

    /// Simulates and returns the next epoch's dataset.
    pub fn next_epoch(&mut self) -> Dataset {
        let seed = self.config.seed.wrapping_add(self.epoch);
        self.epoch += 1;
        FleetSimulator::new(self.config.clone().with_seed(seed)).run()
    }

    /// Simulates the next epoch and returns its [`hour_ordered`] record
    /// stream, passed through the installed record stage (if any).
    pub fn next_epoch_records(&mut self) -> Vec<(DriveId, HealthRecord)> {
        self.next_epoch_with_records().1
    }

    /// Simulates the next epoch and returns both the epoch [`Dataset`]
    /// (clean, pre-stage — the drive manifest an online refit window
    /// needs for labels and rack topology) and its [`hour_ordered`]
    /// record stream passed through the installed record stage (the
    /// possibly-corrupted wire form a collector would deliver).
    pub fn next_epoch_with_records(&mut self) -> (Dataset, Vec<(DriveId, HealthRecord)>) {
        let index = self.epoch;
        let dataset = self.next_epoch();
        let records = hour_ordered(&dataset);
        let records = match self.stage.as_mut() {
            Some(stage) => stage(index, records),
            None => records,
        };
        (dataset, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_ordered_is_deterministic_and_time_sorted() {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(11)).run();
        let a = hour_ordered(&dataset);
        let b = hour_ordered(&dataset);
        assert_eq!(a.len(), dataset.num_records());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.hour, y.1.hour);
        }
        for pair in a.windows(2) {
            let key0 = (pair[0].1.hour, pair[0].0 .0);
            let key1 = (pair[1].1.hour, pair[1].0 .0);
            assert!(key0 <= key1, "records must sort by (hour, drive)");
        }
    }

    #[test]
    fn record_stage_sees_each_epoch_and_can_rewrite_it() {
        let config = FleetConfig::test_scale().with_seed(5);
        let mut plain = StreamingFleet::new(config.clone());
        let baseline = plain.next_epoch_records();
        assert!(!baseline.is_empty());

        // A stage that drops every other record, tagged with the epoch index.
        let mut staged = StreamingFleet::new(config).with_record_stage(Box::new(
            |epoch, records: Vec<(DriveId, HealthRecord)>| {
                assert_eq!(epoch, 0, "first epoch is index 0");
                records.into_iter().step_by(2).collect()
            },
        ));
        let thinned = staged.next_epoch_records();
        assert_eq!(thinned.len(), baseline.len().div_ceil(2));
        assert_eq!(thinned[0].0, baseline[0].0);
        assert_eq!(thinned[0].1, baseline[0].1);
    }

    #[test]
    fn epoch_with_records_exposes_the_manifest_and_the_staged_stream() {
        let config = FleetConfig::test_scale().with_seed(5);
        let mut plain = StreamingFleet::new(config.clone());
        let (dataset, records) = plain.next_epoch_with_records();
        assert_eq!(records, hour_ordered(&dataset));
        assert_eq!(plain.epochs_generated(), 1);

        // The stage rewrites the wire stream but never the manifest dataset.
        let mut staged = StreamingFleet::new(config).with_record_stage(Box::new(
            |_, records: Vec<(DriveId, HealthRecord)>| records.into_iter().take(3).collect(),
        ));
        let (dataset, staged_records) = staged.next_epoch_with_records();
        assert_eq!(staged_records.len(), 3);
        assert_eq!(staged_records[..], hour_ordered(&dataset)[..3]);
    }

    #[test]
    fn epochs_differ_but_replay_identically() {
        let config = FleetConfig::test_scale().with_seed(21);
        let mut stream = StreamingFleet::new(config.clone());
        let first = stream.next_epoch();
        let second = stream.next_epoch();
        assert_eq!(stream.epochs_generated(), 2);
        // Different epochs use different seeds...
        let same = first.drives().iter().zip(second.drives()).all(|(a, b)| {
            a.records().first().map(|r| r.values) == b.records().first().map(|r| r.values)
        });
        assert!(!same, "consecutive epochs must differ");
        // ...but a fresh stream replays the same epochs bit-for-bit.
        let mut replay = StreamingFleet::new(config);
        let first_again = replay.next_epoch();
        for (a, b) in first.drives().iter().zip(first_again.drives()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.records().len(), b.records().len());
            for (ra, rb) in a.records().iter().zip(b.records()) {
                assert_eq!(ra.values, rb.values, "replayed epoch must be identical");
            }
        }
    }
}
