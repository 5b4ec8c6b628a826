//! Streaming ingest sources: `(drive, record)` flattenings of a
//! simulated fleet, and an endless epoch generator for serving mode.
//!
//! The batch [`Dataset`] hands out whole per-drive profiles, which is the
//! right shape for training but not for an ingest path. [`drive_major`]
//! flattens a dataset drive by drive — the one batch the batch commands
//! hand a monitor. A datacenter collector instead emits records in *time*
//! order, interleaving every drive at each collection hour:
//! [`hour_ordered`] re-serializes a dataset into that order
//! deterministically (sorted by `(hour, drive_id)`), and
//! [`StreamingFleet`] chains endless simulated epochs — the ingest source
//! behind `dds serve`. Fault injection, when asked for, is applied by the
//! caller to either flattening.

use crate::dataset::{Dataset, DriveId, HealthRecord};
use crate::fleet::{FleetConfig, FleetSimulator};

/// Flattens a dataset into `(drive, record)` pairs drive by drive, each
/// drive's records in order.
pub fn drive_major(dataset: &Dataset) -> Vec<(DriveId, HealthRecord)> {
    dataset
        .drives()
        .iter()
        .flat_map(|drive| drive.records().iter().map(|r| (drive.id(), r.clone())))
        .collect()
}

/// Flattens a dataset into `(drive, record)` pairs sorted by
/// `(hour, drive_id)` — the deterministic time-interleaved order a live
/// collector would deliver them in.
pub fn hour_ordered(dataset: &Dataset) -> Vec<(DriveId, HealthRecord)> {
    let mut records = drive_major(dataset);
    records.sort_by_key(|(drive, record)| (record.hour, drive.0));
    records
}

/// An endless sequence of simulated fleet epochs for long-lived serving.
///
/// Epoch `k` runs the configured fleet with seed `base_seed + k`, so the
/// stream never repeats an epoch yet is fully reproducible from the
/// config. Serving flattens each epoch with [`hour_ordered`].
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
#[derive(Debug)]
pub struct StreamingFleet {
    config: FleetConfig,
    epoch: u64,
}

impl StreamingFleet {
    /// Creates a stream over the given fleet shape. The config's seed is
    /// the first epoch's seed.
    pub fn new(config: FleetConfig) -> Self {
        StreamingFleet { config, epoch: 0 }
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
