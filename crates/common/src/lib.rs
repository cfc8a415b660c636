//! Shared foundations for the D2M split-cache-hierarchy reproduction.
//!
//! This crate hosts the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`addr`] — strongly-typed addresses and the line/region geometry of the
//!   paper (64 B cachelines, 16-line regions).
//! * [`config`] — the machine configuration (Table III analogue) shared by the
//!   baselines and all D2M variants.
//! * [`faultpoint`] — env-driven fault injection (`D2M_FAULT`) so tests and
//!   CI can provoke the panics and kills that the sweep engine's
//!   fault-tolerance paths must survive.
//! * [`json`] — minimal deterministic JSON (the workspace builds without
//!   external crates; byte-stable output is what the sweep engine's
//!   determinism guarantee is stated in terms of).
//! * [`rng`] — deterministic, stream-splittable random number generation so
//!   that every simulation is exactly reproducible.
//! * [`stats`] — counter registries, histograms and running means used for
//!   metric extraction.
//!
//! # Example
//!
//! ```
//! use d2m_common::addr::{PAddr, LINE_BYTES, LINES_PER_REGION};
//! use d2m_common::config::MachineConfig;
//!
//! let cfg = MachineConfig::default();
//! assert_eq!(cfg.nodes, 8);
//! let a = PAddr::new(0x1234_5678);
//! assert_eq!(a.line().region(), a.region());
//! assert!(usize::from(a.line().region_offset()) < LINES_PER_REGION);
//! assert_eq!(LINE_BYTES, 64);
//! ```

pub mod addr;
pub mod config;
pub mod fasthash;
pub mod faultpoint;
pub mod json;
pub mod oracle;
pub mod outcome;
pub mod probe;
pub mod rng;
pub mod stats;

pub use addr::{LineAddr, NodeId, PAddr, RegionAddr, VAddr, VRegionAddr};
pub use config::MachineConfig;
pub use fasthash::{fnv1a_64, FastHasher, FastMap};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use oracle::VersionOracle;
pub use outcome::{AccessResult, ServicedBy};
pub use probe::{LookupLevel, NoopProbe, Probe, RecordingProbe, TxnEvent, TxnKind};
pub use rng::{derive_stream_seed, SimRng, Zipf};
pub use stats::Counters;
