//! Base-2L and Base-3L: the paper's traditional-hierarchy baselines (§V-A).
//!
//! * **Base-2L** — per-node TLB + 8-way L1-I/L1-D (with perfect way
//!   prediction, i.e. one tag comparison per access) and a shared, inclusive
//!   32-way far-side LLC with an embedded full-map MESI directory. Modeled on
//!   an ARM A57-class mobile part.
//! * **Base-3L** — Base-2L plus a private, inclusive 256 KB 8-way L2 per
//!   node. Modeled on a server part; note its substantially higher
//!   implementation cost (paper Figure 4).
//!
//! These systems pay all the costs D2M eliminates: level-by-level searches,
//! associative tag comparisons at every level, directory indirections for
//! every miss, and back-invalidations to keep the inclusive LLC consistent.
//! Every such event is counted so the experiment harness can reproduce the
//! paper's traffic (Figure 5), EDP (Figure 6), speedup (Figure 7) and
//! invalidation (Table V) comparisons.
//!
//! # Example
//!
//! ```
//! use d2m_baseline::{Baseline, BaselineKind};
//! use d2m_common::MachineConfig;
//! use d2m_workloads::{catalog, TraceGen};
//!
//! let cfg = MachineConfig::default();
//! let mut sys = Baseline::new(&cfg, BaselineKind::TwoLevel);
//! let mut gen = TraceGen::new(&catalog::by_name("swaptions").unwrap(), 8, 1);
//! let mut batch = Vec::new();
//! gen.next_batch(&mut batch);
//! for a in &batch {
//!     let r = sys.access(a, 0);
//!     assert!(r.latency >= 2);
//! }
//! ```

#![forbid(unsafe_code)]

mod counters;
mod system;

pub use counters::BaselineCounters;
pub use system::{Baseline, BaselineKind};
