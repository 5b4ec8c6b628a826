//! Data-quality gate: quarantine + imputation for messy telemetry.
//!
//! Real collectors deliver what chaos testing simulates — lost hours,
//! duplicated or out-of-order arrivals, unreadable attributes (NaN) and
//! vendor sentinels. The rest of the pipeline assumes strictly
//! chronological, fully populated records ([`DriveProfile::new`] panics
//! otherwise), so everything messy must pass through this gate first:
//!
//! * **Ordering faults** (out-of-order or duplicate hours) quarantine the
//!   record with a typed [`DataQualityError`] — they cannot be repaired
//!   without trusting the corrupted timestamp.
//! * **Missing values** (NaN, ±∞, or the 65535-style sentinel) are
//!   imputed per attribute by last observation carried forward (LOCF),
//!   capped at [`QualityPolicy::max_consecutive_imputes`] consecutive
//!   repairs per attribute; past the cap — or when too many attributes of
//!   one record are missing, or there is no history to carry forward —
//!   the record is quarantined instead.
//!
//! Batch telemetry passes this gate once, where it enters:
//! [`sanitize_profiles`] turns raw profiles into a clean [`Dataset`] plus
//! [`QualityStats`], running a fresh [`DriveGate`] over each profile.
//! [`Analysis`](crate::Analysis) requires clean input and never gates
//! itself. A serving monitor keeps a [`DriveGate`] in each drive's slot
//! and calls [`DriveGate::admit`]. Both run the same per-drive gate.
//! The gate only tallies into its [`QualityStats`] and writes no metrics:
//! the serving path's shard coordinator publishes the quarantine and
//! imputation counters for the records offered to it, so training,
//! refit and shadow sanitization never inflate the serving rates.
//!
//! [`DriveProfile::new`]: dds_smartsim::DriveProfile::new

use crate::error::AnalysisError;
use crate::pipeline::stage;
use dds_obs::trace::Level;
use dds_smartsim::dataset::RawProfile;
use dds_smartsim::{Dataset, DriveId, DriveProfile, HealthRecord, NUM_ATTRIBUTES};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// The vendor "no data" sentinel, treated as missing by default.
pub use dds_smartsim::smart::SENTINEL_VALUE;

/// Why a record was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataQualityError {
    /// The record's hour precedes the drive's last accepted hour.
    OutOfOrder {
        /// The offending drive.
        drive: DriveId,
        /// Hour of the drive's last accepted record.
        last_hour: u32,
        /// Hour of the rejected record.
        hour: u32,
    },
    /// The drive already has an accepted record for this hour.
    DuplicateHour {
        /// The offending drive.
        drive: DriveId,
        /// The duplicated hour.
        hour: u32,
    },
    /// Missing values could not be repaired: no history to carry
    /// forward, too many attributes missing at once, or an attribute past
    /// its consecutive-imputation cap.
    Unimputable {
        /// The offending drive.
        drive: DriveId,
        /// Hour of the rejected record.
        hour: u32,
        /// Number of missing attribute values in the record.
        missing: usize,
    },
    /// A drive retained too few accepted records to be analyzable; its
    /// surviving records were discarded with it.
    ShortProfile {
        /// The dropped drive.
        drive: DriveId,
        /// Accepted records at drop time.
        kept: usize,
        /// Minimum the drive's label requires.
        needed: usize,
    },
}

/// Quarantine reasons in [`QualityStats::by_reason`] index order.
pub const QUARANTINE_REASONS: [&str; 4] =
    ["out_of_order", "duplicate_hour", "unimputable", "short_profile"];

impl DataQualityError {
    /// Dense index of this reason within [`QUARANTINE_REASONS`].
    pub fn reason_index(&self) -> usize {
        match self {
            DataQualityError::OutOfOrder { .. } => 0,
            DataQualityError::DuplicateHour { .. } => 1,
            DataQualityError::Unimputable { .. } => 2,
            DataQualityError::ShortProfile { .. } => 3,
        }
    }

    /// The stable reason key (`out_of_order`, `duplicate_hour`, …).
    pub fn reason(&self) -> &'static str {
        QUARANTINE_REASONS[self.reason_index()]
    }
}

impl fmt::Display for DataQualityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataQualityError::OutOfOrder { drive, last_hour, hour } => {
                write!(f, "{drive}: record hour {hour} arrived after hour {last_hour} was accepted")
            }
            DataQualityError::DuplicateHour { drive, hour } => {
                write!(f, "{drive}: duplicate record for hour {hour}")
            }
            DataQualityError::Unimputable { drive, hour, missing } => write!(
                f,
                "{drive}: {missing} missing attribute value(s) at hour {hour} cannot be imputed"
            ),
            DataQualityError::ShortProfile { drive, kept, needed } => {
                write!(f, "{drive}: only {kept} clean record(s) survived, needs {needed}")
            }
        }
    }
}

impl Error for DataQualityError {}

/// Tunable limits of the quality gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityPolicy {
    /// Values equal to this (or non-finite) count as missing.
    pub sentinel: f64,
    /// Longest run of consecutive LOCF repairs allowed per attribute
    /// before the record is quarantined instead.
    pub max_consecutive_imputes: usize,
    /// Most attributes of one record that may be missing and still be
    /// repaired; more and the record is quarantined wholesale.
    pub max_missing_per_record: usize,
}

impl Default for QualityPolicy {
    fn default() -> Self {
        QualityPolicy {
            sentinel: SENTINEL_VALUE,
            max_consecutive_imputes: 6,
            max_missing_per_record: 6,
        }
    }
}

impl QualityPolicy {
    /// Whether one attribute value counts as missing.
    pub fn is_missing(&self, value: f64) -> bool {
        !value.is_finite() || value == self.sentinel
    }

    /// Whether a record contains any missing value.
    pub fn record_has_missing(&self, record: &HealthRecord) -> bool {
        record.values.iter().any(|&v| self.is_missing(v))
    }
}

/// One drive's quality gate: its ordering watermark plus the LOCF
/// baseline. [`sanitize_profiles`] runs a fresh one over each profile; a
/// serving monitor keeps one in each drive's slot, beside the drive's
/// escalation state.
#[derive(Debug, Clone)]
pub struct DriveGate {
    last_hour: Option<u32>,
    last_values: [f64; NUM_ATTRIBUTES],
    has_history: bool,
    impute_runs: [usize; NUM_ATTRIBUTES],
}

impl Default for DriveGate {
    fn default() -> Self {
        DriveGate {
            last_hour: None,
            last_values: [0.0; NUM_ATTRIBUTES],
            has_history: false,
            impute_runs: [0; NUM_ATTRIBUTES],
        }
    }
}

impl DriveGate {
    /// Offers one of `drive`'s records. Returns the record (borrowed when
    /// it passed unchanged, owned when the gate repaired it), or the
    /// quarantine reason; `stats` tallies the verdict either way.
    pub fn admit<'a>(
        &mut self,
        policy: &QualityPolicy,
        stats: &mut QualityStats,
        drive: DriveId,
        record: &'a HealthRecord,
    ) -> Result<Cow<'a, HealthRecord>, DataQualityError> {
        stats.ingested += 1;
        match self.sanitize(policy, drive, record) {
            Ok((clean, imputed)) => {
                stats.accepted += 1;
                stats.imputed_attrs += imputed as u64;
                Ok(clean)
            }
            Err(e) => {
                stats.quarantine_one(&e);
                Err(e)
            }
        }
    }

    /// Validates and repairs one record. All checks run before any state
    /// mutation, so a rejected record leaves the gate unchanged.
    fn sanitize<'a>(
        &mut self,
        policy: &QualityPolicy,
        drive: DriveId,
        record: &'a HealthRecord,
    ) -> Result<(Cow<'a, HealthRecord>, usize), DataQualityError> {
        if let Some(last) = self.last_hour {
            if record.hour == last {
                return Err(DataQualityError::DuplicateHour { drive, hour: record.hour });
            }
            if record.hour < last {
                return Err(DataQualityError::OutOfOrder {
                    drive,
                    last_hour: last,
                    hour: record.hour,
                });
            }
        }
        let mut missing = 0;
        let mut past_cap = false;
        for (&value, &run) in record.values.iter().zip(&self.impute_runs) {
            if policy.is_missing(value) {
                missing += 1;
                past_cap |= run + 1 > policy.max_consecutive_imputes;
            }
        }
        if missing > 0 && (!self.has_history || missing > policy.max_missing_per_record || past_cap)
        {
            return Err(DataQualityError::Unimputable { drive, hour: record.hour, missing });
        }
        let clean = if missing == 0 {
            self.impute_runs = [0; NUM_ATTRIBUTES];
            Cow::Borrowed(record)
        } else {
            let mut clean = record.clone();
            for c in 0..NUM_ATTRIBUTES {
                if policy.is_missing(clean.values[c]) {
                    clean.values[c] = self.last_values[c];
                    self.impute_runs[c] += 1;
                } else {
                    self.impute_runs[c] = 0;
                }
            }
            Cow::Owned(clean)
        };
        self.last_hour = Some(clean.hour);
        self.last_values = clean.values;
        self.has_history = true;
        Ok((clean, missing))
    }
}

/// Cumulative quality bookkeeping of one sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QualityStats {
    /// Records offered to the gate.
    pub ingested: u64,
    /// Records that passed (possibly repaired).
    pub accepted: u64,
    /// Records rejected.
    pub quarantined: u64,
    /// Attribute values repaired by LOCF.
    pub imputed_attrs: u64,
    /// Whole drives dropped for retaining too few clean records.
    pub drives_dropped: u64,
    /// Quarantines per reason, [`QUARANTINE_REASONS`] order.
    pub by_reason: [u64; 4],
}

impl QualityStats {
    /// Folds another sanitizer's tallies into this one — the cross-shard
    /// aggregation used by sharded serving, where every shard runs its
    /// own quality gate but operators read one fleet-wide summary.
    ///
    /// ```
    /// use dds_core::quality::QualityStats;
    ///
    /// let mut fleet = QualityStats { ingested: 10, accepted: 9, quarantined: 1, ..Default::default() };
    /// let shard = QualityStats { ingested: 4, accepted: 4, ..Default::default() };
    /// fleet.merge(&shard);
    /// assert_eq!(fleet.ingested, 14);
    /// assert_eq!(fleet.accepted + fleet.quarantined, fleet.ingested);
    /// ```
    pub fn merge(&mut self, other: &QualityStats) {
        self.ingested += other.ingested;
        self.accepted += other.accepted;
        self.quarantined += other.quarantined;
        self.imputed_attrs += other.imputed_attrs;
        self.drives_dropped += other.drives_dropped;
        for (mine, theirs) in self.by_reason.iter_mut().zip(&other.by_reason) {
            *mine += theirs;
        }
    }

    fn quarantine_one(&mut self, error: &DataQualityError) {
        self.quarantined += 1;
        self.by_reason[error.reason_index()] += 1;
    }
}

impl fmt::Display for QualityStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accepted, {} quarantined, {} attrs imputed",
            self.accepted, self.quarantined, self.imputed_attrs
        )?;
        if self.quarantined > 0 {
            let mut first = true;
            for (reason, &n) in QUARANTINE_REASONS.iter().zip(&self.by_reason) {
                if n > 0 {
                    f.write_str(if first { " [" } else { ", " })?;
                    write!(f, "{reason} {n}")?;
                    first = false;
                }
            }
            if !first {
                f.write_str("]")?;
            }
        }
        if self.drives_dropped > 0 {
            write!(f, ", {} drives dropped", self.drives_dropped)?;
        }
        Ok(())
    }
}

/// Fewest clean records a drive must retain to stay in the dataset:
/// failed drives need 3 (the degradation fit minimum), good drives 1.
pub fn min_records_for(label: dds_smartsim::DriveLabel) -> usize {
    if label.is_failed() {
        3
    } else {
        1
    }
}

/// The batch quality gate: sanitizes raw profiles (one per drive) into an
/// analyzable [`Dataset`]. Each profile's records pass a fresh
/// [`DriveGate`]; a drive left with fewer clean records than
/// [`min_records_for`] its label is dropped and those records are
/// reclassified as `short_profile` quarantines; the Eq. (1) scaler is then
/// fitted over the surviving records only. A clean profile passes
/// unchanged, so a clean fleet yields exactly its own dataset.
///
/// Runs as the `pipeline.quality` stage (span and
/// `dds_pipeline_quality_seconds`), and emits the Warn event
/// `pipeline.quality_gate` when it quarantined, imputed or dropped
/// anything.
///
/// # Errors
///
/// [`AnalysisError::UnsuitableDataset`] when nothing survives.
pub fn sanitize_profiles(
    profiles: &[RawProfile],
    policy: QualityPolicy,
) -> Result<(Dataset, QualityStats), AnalysisError> {
    let (dataset, stats) = stage("pipeline.quality", "dds_pipeline_quality_seconds", || {
        let mut stats = QualityStats::default();
        let mut clean: Vec<DriveProfile> = Vec::with_capacity(profiles.len());
        for raw in profiles {
            let mut gate = DriveGate::default();
            let mut records: Vec<HealthRecord> = Vec::with_capacity(raw.records.len());
            for record in &raw.records {
                if let Ok(clean_record) = gate.admit(&policy, &mut stats, raw.id, record) {
                    records.push(clean_record.into_owned());
                }
            }
            let (kept, needed) = (records.len(), min_records_for(raw.label));
            if kept < needed {
                // The drive's accepted records are quarantined with it.
                let error = DataQualityError::ShortProfile { drive: raw.id, kept, needed };
                stats.accepted -= kept as u64;
                stats.drives_dropped += 1;
                for _ in 0..kept {
                    stats.quarantine_one(&error);
                }
                continue;
            }
            let mut profile = DriveProfile::new(raw.id, raw.label, records);
            if let Some(rack) = raw.rack {
                profile = profile.with_rack(rack);
            }
            clean.push(profile);
        }
        if clean.is_empty() {
            return Err(AnalysisError::UnsuitableDataset(
                "no drive survived the data-quality gate".to_string(),
            ));
        }
        Ok((Dataset::new(clean)?, stats))
    })?;
    if stats.quarantined > 0 || stats.imputed_attrs > 0 || stats.drives_dropped > 0 {
        dds_obs::event!(
            Level::Warn,
            "pipeline.quality_gate",
            quarantined = stats.quarantined,
            imputed_attrs = stats.imputed_attrs,
            drives_dropped = stats.drives_dropped,
        );
    }
    Ok((dataset, stats))
}

/// Re-validates an already-assembled [`Dataset`] (profiles are
/// chronological by construction, but may carry missing values — e.g.
/// from an imported CSV). Returns the cleaned dataset with a re-fitted
/// scaler.
pub fn sanitize_dataset(
    dataset: &Dataset,
    policy: QualityPolicy,
) -> Result<(Dataset, QualityStats), AnalysisError> {
    let raw: Vec<RawProfile> = dataset.drives().iter().map(RawProfile::from).collect();
    sanitize_profiles(&raw, policy)
}

/// Whether any record of the dataset carries a missing value — the scan
/// behind [`Analysis::run`](crate::Analysis::run)'s clean-input
/// precondition, and the test for whether a loaded CSV needs
/// [`sanitize_dataset`].
pub fn needs_sanitizing(dataset: &Dataset, policy: &QualityPolicy) -> bool {
    dataset
        .drives()
        .iter()
        .flat_map(|d| d.records())
        .any(|record| policy.record_has_missing(record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_smartsim::{DriveLabel, FailureMode};

    fn record(hour: u32, fill: f64) -> HealthRecord {
        HealthRecord { hour, values: [fill; NUM_ATTRIBUTES] }
    }

    fn record_with(hour: u32, fill: f64, missing: &[usize], value: f64) -> HealthRecord {
        let mut r = record(hour, fill);
        for &c in missing {
            r.values[c] = value;
        }
        r
    }

    /// The gates of drives 0, 1 and 2 under one policy and one tally —
    /// the shape a serving monitor's slots give them.
    struct Gates {
        policy: QualityPolicy,
        gates: [DriveGate; 3],
        stats: QualityStats,
    }

    impl Gates {
        fn new(policy: QualityPolicy) -> Self {
            Gates { policy, gates: Default::default(), stats: QualityStats::default() }
        }

        fn admit(
            &mut self,
            drive: DriveId,
            record: &HealthRecord,
        ) -> Result<HealthRecord, DataQualityError> {
            let gate = &mut self.gates[drive.0 as usize];
            gate.admit(&self.policy, &mut self.stats, drive, record).map(Cow::into_owned)
        }

        fn stats(&self) -> &QualityStats {
            &self.stats
        }
    }

    #[test]
    fn clean_records_pass_untouched() {
        let mut gate = Gates::new(QualityPolicy::default());
        for hour in 0..5 {
            let rec = record(hour, 10.0 + hour as f64);
            let out = gate.admit(DriveId(0), &rec).unwrap();
            assert_eq!(out, rec);
        }
        let stats = gate.stats();
        assert_eq!(stats.ingested, 5);
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.imputed_attrs, 0);
    }

    #[test]
    fn ordering_faults_quarantine_without_corrupting_state() {
        let mut gate = Gates::new(QualityPolicy::default());
        gate.admit(DriveId(0), &record(5, 1.0)).unwrap();
        let dup = gate.admit(DriveId(0), &record(5, 2.0)).unwrap_err();
        assert!(matches!(dup, DataQualityError::DuplicateHour { hour: 5, .. }));
        assert_eq!(dup.reason(), "duplicate_hour");
        let ooo = gate.admit(DriveId(0), &record(3, 2.0)).unwrap_err();
        assert!(matches!(ooo, DataQualityError::OutOfOrder { last_hour: 5, hour: 3, .. }));
        // The watermark is still hour 5: the next in-order record passes.
        gate.admit(DriveId(0), &record(6, 3.0)).unwrap();
        assert_eq!(gate.stats().quarantined, 2);
        assert_eq!(gate.stats().by_reason, [1, 1, 0, 0]);
        // Other drives are unaffected.
        gate.admit(DriveId(1), &record(0, 1.0)).unwrap();
    }

    #[test]
    fn locf_imputes_nan_and_sentinel_up_to_the_cap() {
        let policy = QualityPolicy { max_consecutive_imputes: 2, ..Default::default() };
        let mut gate = Gates::new(policy);
        gate.admit(DriveId(0), &record(0, 42.0)).unwrap();
        let out = gate.admit(DriveId(0), &record_with(1, 7.0, &[3], f64::NAN)).unwrap();
        assert_eq!(out.values[3], 42.0, "LOCF carries the last observation");
        assert_eq!(out.values[0], 7.0, "present values untouched");
        let out = gate.admit(DriveId(0), &record_with(2, 8.0, &[3], SENTINEL_VALUE)).unwrap();
        assert_eq!(out.values[3], 42.0, "sentinel treated as missing");
        // Third consecutive miss on the same attribute breaches the cap.
        let err = gate.admit(DriveId(0), &record_with(3, 9.0, &[3], f64::NAN)).unwrap_err();
        assert!(matches!(err, DataQualityError::Unimputable { missing: 1, .. }));
        // A real value resets the run; imputation works again.
        gate.admit(DriveId(0), &record(4, 10.0)).unwrap();
        let out = gate.admit(DriveId(0), &record_with(5, 11.0, &[3], f64::NAN)).unwrap();
        assert_eq!(out.values[3], 10.0);
        assert_eq!(gate.stats().imputed_attrs, 3);
    }

    #[test]
    fn first_record_missing_and_wide_missing_are_unimputable() {
        let policy = QualityPolicy { max_missing_per_record: 2, ..Default::default() };
        let mut gate = Gates::new(policy);
        let err = gate.admit(DriveId(0), &record_with(0, 1.0, &[2], f64::NAN)).unwrap_err();
        assert!(matches!(err, DataQualityError::Unimputable { .. }), "no history to carry");
        gate.admit(DriveId(0), &record(1, 1.0)).unwrap();
        let err = gate.admit(DriveId(0), &record_with(2, 1.0, &[0, 1, 2], f64::NAN)).unwrap_err();
        assert!(matches!(err, DataQualityError::Unimputable { missing: 3, .. }));
        assert_eq!(gate.stats().by_reason[2], 2);
    }

    #[test]
    fn bounds_invariant_accepted_plus_quarantined_is_ingested() {
        let mut gate = Gates::new(QualityPolicy::default());
        let mut hour = 0u32;
        for i in 0..100u32 {
            // A messy mix: every 7th record duplicated, every 11th NaN.
            hour += 1;
            let rec = if i % 7 == 0 {
                record(hour - 1, 1.0)
            } else if i % 11 == 0 {
                record_with(hour, 1.0, &[i as usize % NUM_ATTRIBUTES], f64::NAN)
            } else {
                record(hour, 1.0)
            };
            let _ = gate.admit(DriveId(i % 3), &rec);
        }
        let stats = gate.stats();
        assert_eq!(stats.ingested, 100);
        assert_eq!(stats.accepted + stats.quarantined, stats.ingested);
        assert_eq!(stats.by_reason.iter().sum::<u64>(), stats.quarantined);
    }

    #[test]
    fn sanitize_profiles_drops_short_drives_and_refits() {
        let failed = DriveLabel::Failed(FailureMode::BadSector);
        let profiles = vec![
            RawProfile {
                id: DriveId(0),
                label: failed,
                rack: None,
                records: vec![record(0, 1.0), record(1, 2.0), record(2, 3.0), record(3, 4.0)],
            },
            // Failed drive with only 2 clean records: dropped.
            RawProfile {
                id: DriveId(1),
                label: failed,
                rack: None,
                records: vec![record(0, 1.0), record(1, 2.0)],
            },
            RawProfile {
                id: DriveId(2),
                label: DriveLabel::Good,
                rack: None,
                records: vec![record(0, 5.0)],
            },
        ];
        let (dataset, stats) = sanitize_profiles(&profiles, QualityPolicy::default()).unwrap();
        assert_eq!(dataset.drives().len(), 2);
        assert!(dataset.drive(DriveId(1)).is_none());
        assert_eq!(stats.drives_dropped, 1);
        assert_eq!(stats.by_reason[3], 2, "the dropped drive's records reclassified");
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.accepted + stats.quarantined, stats.ingested);
    }

    #[test]
    fn sanitize_profiles_errors_when_nothing_survives() {
        let profiles = vec![RawProfile {
            id: DriveId(0),
            label: DriveLabel::Good,
            rack: None,
            records: vec![record_with(0, 1.0, &[0], f64::NAN)],
        }];
        assert!(matches!(
            sanitize_profiles(&profiles, QualityPolicy::default()),
            Err(AnalysisError::UnsuitableDataset(_))
        ));
    }

    #[test]
    fn needs_sanitizing_detects_missing_values_only() {
        let clean = Dataset::new(vec![DriveProfile::new(
            DriveId(0),
            DriveLabel::Good,
            vec![record(0, 1.0), record(1, 2.0)],
        )])
        .unwrap();
        let policy = QualityPolicy::default();
        assert!(!needs_sanitizing(&clean, &policy));
        let dirty = Dataset::new(vec![DriveProfile::new(
            DriveId(0),
            DriveLabel::Good,
            vec![record(0, 1.0), record_with(1, 2.0, &[4], SENTINEL_VALUE)],
        )])
        .unwrap();
        assert!(needs_sanitizing(&dirty, &policy));
    }

    #[test]
    fn quality_stats_render_for_humans() {
        let mut gate = Gates::new(QualityPolicy::default());
        gate.admit(DriveId(0), &record(1, 1.0)).unwrap();
        let _ = gate.admit(DriveId(0), &record(1, 1.0));
        let text = gate.stats().to_string();
        assert!(text.contains("1 accepted"), "{text}");
        assert!(text.contains("1 quarantined"), "{text}");
        assert!(text.contains("duplicate_hour 1"), "{text}");
    }
}
