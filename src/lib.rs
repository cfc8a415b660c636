//! Umbrella crate for the D2M (HPCA 2017) reproduction workspace.
//!
//! Re-exports every workspace crate so integration tests and examples can
//! use a single dependency. See the individual crates for the real APIs:
//!
//! * [`d2m_core`] — the split metadata/data hierarchy (the paper's contribution)
//! * [`d2m_baseline`] — Base-2L / Base-3L comparison systems
//! * [`d2m_sim`] — the trace-driven runner and metrics
//! * [`d2m_workloads`] — synthetic workloads calibrated to the paper's suites

#![forbid(unsafe_code)]

pub use d2m_baseline as baseline;
pub use d2m_cache as cache;
pub use d2m_common as common;
pub use d2m_core as core;
pub use d2m_energy as energy;
pub use d2m_noc as noc;
pub use d2m_sim as sim;
pub use d2m_workloads as workloads;
