//! Trace-driven simulation runner and experiment presets.
//!
//! Ties the workload generator to the five simulated systems (Base-2L,
//! Base-3L, D2M-FS, D2M-NS, D2M-NS-R), applies the analytic core timing
//! model (paper §V-D: infinite bandwidth, I-misses stall the core, D-misses
//! are mostly hidden), finalizes energy (structure accesses + NoC + memory +
//! leakage) and extracts every metric the paper's tables and figures report.
//! The [`sweep`] module fans declarative (config × workload × system) grids
//! over a deterministic work-stealing thread pool, generating each
//! (config, workload) group's trace once for all its systems, with per-cell
//! panic isolation; the [`checkpoint`] module adds an append-only journal so
//! a killed sweep resumes without losing completed cells. Plain, observed
//! and checkpointed sweeps all run on one driver.
//!
//! # Example
//!
//! ```no_run
//! use d2m_sim::{run_one_checked, RunConfig, SystemKind};
//! use d2m_common::MachineConfig;
//! use d2m_workloads::catalog;
//!
//! let cfg = MachineConfig::default();
//! let spec = catalog::by_name("tpc-c").unwrap();
//! match run_one_checked(SystemKind::D2mNsR, &cfg, &spec, &RunConfig::quick()) {
//!     Ok(m) => println!("{}: {:.1} msgs/KI", m.system, m.msgs_per_kilo_inst),
//!     Err(e) => eprintln!("run failed: {e}"),
//! }
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod experiments;
pub mod metrics;
pub mod runner;
pub mod sweep;
pub mod systems;

pub use checkpoint::{run_sweep_checkpointed, CheckpointError};
pub use experiments::MatrixResult;
pub use metrics::RunMetrics;
pub use runner::{
    run_one_checked, run_one_observed, run_system_observed, RunConfig, RunError, RunObservation,
};
pub use sweep::{
    default_jobs, run_sweep_observed_with_jobs, run_sweep_with_jobs, CellResult, ConfigPoint,
    ObservedSweep, SweepResult, SweepSpec,
};
pub use systems::{AnySystem, SystemKind};
