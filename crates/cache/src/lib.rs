//! Generic cache structures shared by the baselines and D2M.
//!
//! * [`banked`] — the one cache-array core: a banked arena of
//!   set-associative banks in one contiguous allocation, addressed by
//!   `(bank, set, way)` arithmetic, with LRU replacement, cost-biased victim
//!   selection (used by the metadata stores' region-aware policies) and
//!   direct slot addressing (used by D2M's tag-less data arrays, which are
//!   never searched by key). Per-bank structures (MD1s, L1s, LLC slices)
//!   flatten onto it.
//! * [`set_assoc`] — the single-bank view of that core.
//! * [`tlb`] — a small TLB model with deterministic translation.
//! * [`scramble`] — index-scrambling helpers for the paper's dynamic-indexing
//!   optimization (§IV-D).
//!
//! # Example
//!
//! ```
//! use d2m_cache::set_assoc::SetAssoc;
//!
//! let mut l1: SetAssoc<u32> = SetAssoc::new(64, 8);
//! let set = l1.set_index(0x40);
//! let way = l1.victim_way(set);
//! l1.insert_at(set, way, 0x40, 7);
//! assert_eq!(l1.get(set, 0x40), Some(&7));
//! ```

#![deny(unsafe_code)]

pub mod banked;
pub mod scramble;
pub mod set_assoc;
pub mod tlb;

pub use banked::Banked;
pub use set_assoc::SetAssoc;
pub use tlb::Tlb;
