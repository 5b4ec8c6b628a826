//! Deterministic fault injection over SMART telemetry.
//!
//! The paper's field dataset is messy by construction — hourly samples
//! from 23,395 drives with gaps, truncated pre-failure histories and
//! attribute noise — while [`dds_smartsim`] emits pristine fleets. This
//! crate closes that gap with *seeded chaos*: composable corruption
//! operators ([`FaultKind`]) applied to `(drive, record)` streams by a
//! [`ChaosEngine`], every draw derived through the workspace
//! `stream_seed` discipline so a corrupted run is bit-reproducible from
//! `(spec, seed)` alone and independent of drive iteration order.
//!
//! The seven operators model the defect classes Han et al. identify as
//! dominating real-world prediction error:
//!
//! | operator    | spec key   | defect modelled                                |
//! |-------------|------------|------------------------------------------------|
//! | drop        | `drop`     | lost collection hours (gaps)                   |
//! | truncate    | `truncate` | missing pre-failure history head               |
//! | null-attr   | `nullattr` | unreadable attribute → NaN                     |
//! | sentinel    | `sentinel` | vendor sentinel (65535-style) in place of data |
//! | duplicate   | `dup`      | collector retransmission                       |
//! | reorder     | `reorder`  | out-of-order arrival                           |
//! | skew        | `skew`     | clock skew on the record timestamp             |
//!
//! # Example
//!
//! ```
//! use dds_chaos::{ChaosEngine, ChaosSpec};
//! use dds_smartsim::stream::drive_major;
//! use dds_smartsim::{FleetConfig, FleetSimulator};
//!
//! let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(1)).run();
//! let stream = drive_major(&dataset);
//! // (`nullattr` writes NaN, which `PartialEq` can't compare — the
//! // sentinel operator keeps this example's equality check simple.)
//! let spec: ChaosSpec = "drop=0.05,sentinel=0.02".parse().unwrap();
//! let engine = ChaosEngine::new(spec, 7);
//! let (corrupted, counts) = engine.corrupt_stream(0, &stream);
//! assert!(corrupted.len() < stream.len());
//! assert!(counts.total() > 0);
//! // Same spec + seed ⇒ identical corruption, always.
//! let (again, counts_again) = engine.corrupt_stream(0, &stream);
//! assert_eq!(corrupted, again);
//! assert_eq!(counts, counts_again);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod spec;

pub use engine::{ChaosEngine, FaultCounts, SENTINEL_VALUE};
pub use spec::{ChaosSpec, FaultKind, SpecParseError};
