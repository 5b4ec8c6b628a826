//! Component-level SMART telemetry simulator for a datacenter disk fleet.
//!
//! The IISWC 2015 paper *"Characterizing Disk Failures with Quantified Disk
//! Degradation Signatures"* analyses a proprietary dataset: 23,395
//! enterprise drives of a single model sampled hourly for eight weeks, with
//! 433 failed drives (20-day pre-failure history) and 22,962 good drives
//! (up to 7-day history). That dataset is not public, so this crate builds
//! the closest synthetic equivalent: a mechanistic drive model whose three
//! failure processes — **logical/firmware corruption** (heat-triggered,
//! abrupt), **bad-sector accumulation** (pending → uncorrectable, slow and
//! monotone) and **read/write-head wear** (reallocation storms on old
//! drives) — produce SMART trajectories with the same shapes the paper
//! derives its results from.
//!
//! The output is a [`Dataset`] with the exact schema of the paper's Table I:
//! twelve attributes per hourly [`HealthRecord`] (eight R/W health values,
//! two R/W raw counters, two environmental values), vendor encoding quirks
//! included (noisy Seagate-style "rate" health values, the 876-hour
//! power-on-hours step, one-byte health saturation).
//!
//! # Example
//!
//! ```
//! use dds_smartsim::{FleetConfig, FleetSimulator};
//!
//! let config = FleetConfig::test_scale().with_seed(7);
//! let dataset = FleetSimulator::new(config).run();
//! assert!(dataset.failed_drives().count() > 0);
//! let failed = dataset.failed_drives().next().unwrap();
//! // The last record of a failed drive is its failure record.
//! assert!(!failed.records().is_empty());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod attr;
pub mod dataset;
pub mod drive;
pub mod environment;
pub mod failure;
pub mod fleet;
pub mod io;
pub mod randutil;
pub mod smart;
pub mod stream;
pub mod topology;

pub use attr::{Attribute, AttributeKind, ValueKind, NUM_ATTRIBUTES};
pub use dataset::{
    Dataset, DriveHasher, DriveId, DriveLabel, DriveMap, DriveProfile, HealthRecord, RawProfile,
};
pub use environment::{Environment, LoadModel};
pub use failure::FailureMode;
pub use fleet::{FleetConfig, FleetSimulator};
pub use stream::StreamingFleet;
pub use topology::{Rack, RackId, Topology};
