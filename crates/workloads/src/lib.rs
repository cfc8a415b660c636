//! Synthetic multicore workloads calibrated to the D2M paper's suites.
//!
//! The paper evaluates five suites — Parallel (Parsec), HPC (Splash2x),
//! Mobile (Chrome+Telemetry), Server (SPEC CPU2006 mixes) and Database
//! (TPC-C) — on a gem5 full-system setup. Full-system traces are not
//! reproducible here, so this crate substitutes a **parameterized synthetic
//! generator**: each named benchmark is a [`spec::WorkloadSpec`] controlling
//! instruction footprint and jumpiness, private/shared data footprints,
//! sharing pattern, write fraction, Zipf locality and strided scans. The
//! category parameters are calibrated against Table IV's per-suite L1 miss
//! ratios and the paper's sharing statistics (68% of misses to private
//! regions; Server fully private), which are the workload properties every
//! figure in the evaluation responds to. See `DESIGN.md` §2.
//!
//! # Example
//!
//! ```
//! use d2m_workloads::{catalog, gen::TraceGen};
//!
//! let spec = catalog::by_name("tpc-c").unwrap();
//! let mut gen = TraceGen::new(&spec, 8, 42);
//! let mut batch = Vec::new();
//! let insts = gen.next_batch(&mut batch);
//! assert!(insts > 0 && !batch.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod gen;
pub mod spec;
pub mod trace_io;

pub use catalog::CatalogError;
pub use gen::{Access, AccessKind, Trace, TraceGen};
pub use spec::{Category, Sharing, WorkloadSpec};
