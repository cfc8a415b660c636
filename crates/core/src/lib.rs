//! Direct-to-Master (D2M): a split metadata/data cache hierarchy.
//!
//! Reproduction of *A Split Cache Hierarchy for Enabling Data-oriented
//! Optimizations* (Sembrant, Hagersten, Black-Schaffer — HPCA 2017).
//!
//! D2M splits the cache hierarchy in two:
//!
//! * a **metadata hierarchy** — per-node MD1 (virtually tagged, replacing
//!   the TLB on the L1 path) and MD2 (physically tagged), plus a shared MD3
//!   with per-region presence bits — that tracks, per 16-line region, a
//!   6-bit [`li::Li`] location pointer per cacheline;
//! * a **data hierarchy** of tag-less SRAM arrays (L1s and LLC slices) whose
//!   lines carry only a replacement pointer ([`data::DataLine::rp`]).
//!
//! Because the metadata is *deterministic* (an LI always names a slot that
//! holds valid data), nodes access masters directly — no level-by-level
//! searches, no tag comparisons, and no directory indirection for ~90% of
//! misses. Region classification from the presence bits then enables the
//! paper's data-oriented optimizations, all implemented here: dynamic
//! coherence for private regions, the near-side LLC with pressure-based
//! placement (§IV-B), cooperative replication (§IV-C), dynamic index
//! scrambling (§IV-D), and MD2 pruning (§IV-A).
//!
//! # Example
//!
//! ```
//! use d2m_core::{D2mSystem, D2mVariant};
//! use d2m_common::MachineConfig;
//! use d2m_workloads::{catalog, TraceGen};
//!
//! let cfg = MachineConfig::default();
//! let mut sys = D2mSystem::new(&cfg, D2mVariant::NearSideRepl);
//! let mut gen = TraceGen::new(&catalog::by_name("swaptions").unwrap(), 8, 1);
//! let mut batch = Vec::new();
//! gen.next_batch(&mut batch);
//! for a in &batch {
//!     sys.access(a, 0).unwrap();
//! }
//! assert_eq!(sys.coherence_errors(), 0);
//! sys.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod counters;
pub mod data;
pub mod error;
pub mod invariants;
pub mod li;
pub mod lockbits;
pub mod meta;
pub mod packed;
pub mod protocol;
pub mod system;

#[cfg(test)]
mod tests;

pub use counters::{D2mCounters, ProtocolEvents};
pub use error::ProtocolError;
pub use li::{Li, LiEncoding};
pub use lockbits::LockBits;
pub use meta::{classify_pb, MetadataFootprint, RegionClass};
pub use packed::PackedLiArray;
pub use system::{D2mFeatures, D2mSystem, D2mVariant};

use d2m_common::addr::LineOffset;

/// Converts a 0..16 metadata LI index into a [`LineOffset`].
pub(crate) fn meta_line_offset(off: usize) -> LineOffset {
    LineOffset::new(off as u8)
}
