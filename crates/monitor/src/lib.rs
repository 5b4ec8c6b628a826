//! Online SMART monitoring middleware built on disk degradation signatures.
//!
//! §VI of the paper closes with the plan to "build a middleware software
//! that will enhance storage reliability" from the degradation signatures.
//! This crate is that system: train the paper's per-type models once
//! ([`ModelBundle::from_analysis`]), deploy them as a [`FleetMonitor`],
//! and stream hourly SMART records through it. The monitor
//!
//! * normalizes each record with the training fleet's Eq. (1) bounds,
//! * scores it with every failure group's regression tree,
//! * escalates per-drive severity (watch → warning → critical) with
//!   debouncing and one-way hysteresis, and
//! * attaches the suspected failure type and the remaining-time estimate
//!   obtained by inverting that type's degradation signature — the
//!   "available time for data rescue" of §I.
//!
//! For long-lived serving, [`AlertHistory`] retains recent alerts,
//! [`HealthStatus`] summarizes the escalation map, and [`MonitorService`]
//! exposes both (plus the metrics registry and stage profiles) through
//! the zero-dependency scrape server in `dds_obs::http`. At fleet scale,
//! [`ShardedFleetMonitor`] hash-partitions drives across per-shard
//! monitor workers behind a deterministic coordinator (see [`shard`]),
//! fed through the batched `/ingest` endpoint ([`wire`] codecs) and the
//! bounded, load-shedding [`IngestQueue`].
//!
//! # Example
//!
//! ```
//! use dds_core::{Analysis, AnalysisConfig};
//! use dds_monitor::{FleetMonitor, ModelBundle, MonitorConfig};
//! use dds_smartsim::{FleetConfig, FleetSimulator};
//!
//! // Train on one fleet...
//! let training = FleetSimulator::new(FleetConfig::test_scale().with_seed(1)).run();
//! let analysis = Analysis::new(AnalysisConfig::default()).run(&training)?;
//! let bundle = ModelBundle::from_analysis(&training, &analysis);
//!
//! // ...monitor another.
//! let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(2)).run();
//! let mut monitor = FleetMonitor::new(bundle, MonitorConfig::default());
//! let drive = live.failed_drives().next().unwrap();
//! let mut alerts = Vec::new();
//! for record in drive.records() {
//!     alerts.extend(monitor.ingest(drive.id(), record));
//! }
//! assert!(!alerts.is_empty(), "a failing drive must raise alerts");
//! # Ok::<(), dds_core::AnalysisError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod alert;
mod bundle;
mod drift;
mod history;
mod monitor;
mod service;
mod shadow;
pub mod shard;
pub mod wire;

pub use alert::{Alert, AlertKind, Severity};
pub use bundle::{GroupModel, ModelBundle};
pub use drift::{DriftBaseline, DriftDetector, RANGE_MARGIN, RMSE_BUDGET_RATIO};
pub use history::{AlertHistory, DEFAULT_HISTORY_CAPACITY};
pub use monitor::{FleetMonitor, HealthStatus, MonitorConfig};
pub use service::{ModelSlot, MonitorService, PromotionGate, PromotionOutcome};
pub use shadow::ShadowTally;
pub use shard::{shard_for, IngestQueue, ShardStatus, ShardedFleetMonitor};
