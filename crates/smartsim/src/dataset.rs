//! Dataset types: hourly health records, per-drive profiles and the
//! fleet-wide dataset with its Eq. (1) normalization.
//!
//! The schema mirrors §III of the paper: each record carries the twelve
//! attribute values of Table I; failed drives contribute up to 20 days
//! (480 hourly records) ending at the failure record, good drives up to
//! 7 days (168 records).

use crate::attr::{Attribute, NUM_ATTRIBUTES};
use crate::failure::FailureMode;
use crate::topology::RackId;
use dds_stats::{MinMaxScaler, StatsError};
use std::fmt;

/// Identifier of a drive within a dataset (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DriveId(pub u32);

impl fmt::Display for DriveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "drive#{}", self.0)
    }
}

/// Ground-truth label of a drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriveLabel {
    /// The drive survived the collection period.
    Good,
    /// The drive was replaced; its last record is the failure record.
    ///
    /// The contained [`FailureMode`] is simulator ground truth that real
    /// datasets lack — analysis code must not consult it except to validate
    /// unsupervised results.
    Failed(FailureMode),
}

impl DriveLabel {
    /// Whether the drive failed.
    pub fn is_failed(self) -> bool {
        matches!(self, DriveLabel::Failed(_))
    }

    /// The ground-truth failure mode, if failed.
    pub fn failure_mode(self) -> Option<FailureMode> {
        match self {
            DriveLabel::Good => None,
            DriveLabel::Failed(mode) => Some(mode),
        }
    }
}

/// One hourly SMART sample: the collection hour and the twelve attribute
/// values in [`Attribute::ALL`] column order (raw vendor scale, not yet
/// normalized).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRecord {
    /// Absolute hour within the collection period.
    pub hour: u32,
    /// Attribute values, indexed by [`Attribute::index`].
    pub values: [f64; NUM_ATTRIBUTES],
}

impl HealthRecord {
    /// Value of one attribute.
    pub fn value(&self, attr: Attribute) -> f64 {
        self.values[attr.index()]
    }
}

/// The recorded history of one drive.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveProfile {
    id: DriveId,
    label: DriveLabel,
    records: Vec<HealthRecord>,
    rack: Option<RackId>,
}

impl DriveProfile {
    /// Builds a profile. `records` must be non-empty and chronological.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty or not sorted by hour.
    pub fn new(id: DriveId, label: DriveLabel, records: Vec<HealthRecord>) -> Self {
        assert!(!records.is_empty(), "a drive profile needs at least one record");
        assert!(
            records.windows(2).all(|w| w[0].hour < w[1].hour),
            "records must be strictly chronological"
        );
        DriveProfile { id, label, records, rack: None }
    }

    /// Attaches the rack this drive is slotted into.
    #[must_use]
    pub fn with_rack(mut self, rack: RackId) -> Self {
        self.rack = Some(rack);
        self
    }

    /// The rack this drive sits in, when the topology is known (simulated
    /// fleets always know it; imported datasets may not).
    pub fn rack(&self) -> Option<RackId> {
        self.rack
    }

    /// The drive identifier.
    pub fn id(&self) -> DriveId {
        self.id
    }

    /// Ground-truth label.
    pub fn label(&self) -> DriveLabel {
        self.label
    }

    /// All records, chronological.
    pub fn records(&self) -> &[HealthRecord] {
        &self.records
    }

    /// The failure record (last record) of a failed drive, `None` for good
    /// drives.
    pub fn failure_record(&self) -> Option<&HealthRecord> {
        if self.label.is_failed() {
            self.records.last()
        } else {
            None
        }
    }

    /// Length of the recorded profile in hours (= number of hourly records).
    pub fn profile_hours(&self) -> usize {
        self.records.len()
    }

    /// The time series of one attribute over this profile (raw scale).
    pub fn series(&self, attr: Attribute) -> Vec<f64> {
        self.records.iter().map(|r| r.value(attr)).collect()
    }
}

/// The *unvalidated* history of one drive, as a collector would hand it
/// over: records may contain gaps, duplicated or out-of-order hours, and
/// missing (NaN / sentinel) attribute values.
///
/// Unlike [`DriveProfile`] — which asserts strict chronology on
/// construction — `RawProfile` carries whatever arrived on the wire.
/// Fault-injection layers produce it and data-quality gates consume it;
/// only sanitized records graduate into a [`DriveProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct RawProfile {
    /// The drive identifier.
    pub id: DriveId,
    /// Ground-truth label.
    pub label: DriveLabel,
    /// The rack this drive sits in, when known.
    pub rack: Option<RackId>,
    /// Records in arrival order — no ordering or completeness guarantee.
    pub records: Vec<HealthRecord>,
}

impl From<&DriveProfile> for RawProfile {
    fn from(profile: &DriveProfile) -> Self {
        RawProfile {
            id: profile.id(),
            label: profile.label(),
            rack: profile.rack(),
            records: profile.records().to_vec(),
        }
    }
}

/// A fleet-wide dataset: every drive profile plus the Eq. (1) min–max
/// normalization fitted on all records of all drives.
#[derive(Debug, Clone)]
pub struct Dataset {
    drives: Vec<DriveProfile>,
    scaler: MinMaxScaler,
}

impl Dataset {
    /// Assembles a dataset and fits the Eq. (1) scaler over every record.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when no drive has any record.
    pub fn new(drives: Vec<DriveProfile>) -> Result<Self, StatsError> {
        let rows: Vec<Vec<f64>> =
            drives.iter().flat_map(|d| d.records().iter().map(|r| r.values.to_vec())).collect();
        let scaler = MinMaxScaler::fit(&rows)?;
        Ok(Dataset { drives, scaler })
    }

    /// All drives.
    pub fn drives(&self) -> &[DriveProfile] {
        &self.drives
    }

    /// Looks up a drive by id.
    pub fn drive(&self, id: DriveId) -> Option<&DriveProfile> {
        self.drives.iter().find(|d| d.id() == id)
    }

    /// Iterator over failed drives.
    pub fn failed_drives(&self) -> impl Iterator<Item = &DriveProfile> {
        self.drives.iter().filter(|d| d.label().is_failed())
    }

    /// Iterator over good drives.
    pub fn good_drives(&self) -> impl Iterator<Item = &DriveProfile> {
        self.drives.iter().filter(|d| !d.label().is_failed())
    }

    /// Total number of health records across all drives.
    pub fn num_records(&self) -> usize {
        self.drives.iter().map(|d| d.records().len()).sum()
    }

    /// Total number of health records of failed drives.
    pub fn num_failed_records(&self) -> usize {
        self.failed_drives().map(|d| d.records().len()).sum()
    }

    /// The fitted Eq. (1) scaler (columns = [`Attribute::ALL`] order).
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// Normalizes one record to `[-1, 1]` per Eq. (1).
    pub fn normalize_record(&self, record: &HealthRecord) -> [f64; NUM_ATTRIBUTES] {
        let mut out = [0.0; NUM_ATTRIBUTES];
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = self.scaler.transform_value(c, record.values[c]);
        }
        out
    }

    /// Normalized time series of one attribute over a profile.
    pub fn normalized_series(&self, profile: &DriveProfile, attr: Attribute) -> Vec<f64> {
        profile
            .records()
            .iter()
            .map(|r| self.scaler.transform_value(attr.index(), r.value(attr)))
            .collect()
    }

    /// Normalized full-record matrix (rows = records) for a profile.
    pub fn normalized_matrix(&self, profile: &DriveProfile) -> Vec<[f64; NUM_ATTRIBUTES]> {
        profile.records().iter().map(|r| self.normalize_record(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(hour: u32, fill: f64) -> HealthRecord {
        HealthRecord { hour, values: [fill; NUM_ATTRIBUTES] }
    }

    fn two_drive_dataset() -> Dataset {
        let good =
            DriveProfile::new(DriveId(0), DriveLabel::Good, vec![record(0, 10.0), record(1, 20.0)]);
        let failed = DriveProfile::new(
            DriveId(1),
            DriveLabel::Failed(FailureMode::Logical),
            vec![record(0, 0.0), record(1, 40.0)],
        );
        Dataset::new(vec![good, failed]).unwrap()
    }

    #[test]
    fn profile_accessors() {
        let ds = two_drive_dataset();
        assert_eq!(ds.drives().len(), 2);
        assert_eq!(ds.failed_drives().count(), 1);
        assert_eq!(ds.good_drives().count(), 1);
        assert_eq!(ds.num_records(), 4);
        assert_eq!(ds.num_failed_records(), 2);
        assert!(ds.drive(DriveId(1)).unwrap().label().is_failed());
        assert!(ds.drive(DriveId(9)).is_none());
    }

    #[test]
    fn failure_record_is_last_for_failed_only() {
        let ds = two_drive_dataset();
        let failed = ds.drive(DriveId(1)).unwrap();
        assert_eq!(failed.failure_record().unwrap().hour, 1);
        let good = ds.drive(DriveId(0)).unwrap();
        assert!(good.failure_record().is_none());
    }

    #[test]
    fn normalization_uses_dataset_wide_bounds() {
        let ds = two_drive_dataset();
        // Column range over all records is [0, 40].
        let rec = record(0, 40.0);
        let norm = ds.normalize_record(&rec);
        assert!(norm.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        let rec0 = record(0, 0.0);
        let norm0 = ds.normalize_record(&rec0);
        assert!(norm0.iter().all(|&v| (v + 1.0).abs() < 1e-12));
    }

    #[test]
    fn normalized_series_tracks_profile() {
        let ds = two_drive_dataset();
        let failed = ds.drive(DriveId(1)).unwrap();
        let series = ds.normalized_series(failed, Attribute::RawReadErrorRate);
        assert_eq!(series, vec![-1.0, 1.0]);
        let matrix = ds.normalized_matrix(failed);
        assert_eq!(matrix.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_profile_panics() {
        DriveProfile::new(DriveId(0), DriveLabel::Good, vec![]);
    }

    #[test]
    #[should_panic(expected = "strictly chronological")]
    fn unsorted_records_panic() {
        DriveProfile::new(DriveId(0), DriveLabel::Good, vec![record(5, 1.0), record(3, 1.0)]);
    }

    #[test]
    fn label_helpers() {
        assert!(DriveLabel::Failed(FailureMode::HeadWear).is_failed());
        assert!(!DriveLabel::Good.is_failed());
        assert_eq!(
            DriveLabel::Failed(FailureMode::BadSector).failure_mode(),
            Some(FailureMode::BadSector)
        );
        assert_eq!(DriveLabel::Good.failure_mode(), None);
        assert_eq!(DriveId(3).to_string(), "drive#3");
    }
}
