//! Tag-less data-array line state.
//!
//! D2M's data arrays carry no address tags: a line can only be found through
//! the metadata hierarchy. Each slot instead carries the per-line fields of
//! Figure 2: the replacement pointer (RP) and — implicitly via the simulator
//! (hardware uses tracking pointers) — which line it holds.
//!
//! A slot is either:
//!
//! * a **master** — the single coherent home of the line; always dirty when
//!   in a node's L1, possibly clean (w.r.t. memory) in an LLC slot;
//! * a **replica** — a valid copy; its RP names the master's location;
//! * a **stale victim** — an allocated LLC slot whose contents are outdated
//!   because the master moved into a node on a write upgrade; its owner's RP
//!   points back so evictions can land here (`stale == true`). No LI ever
//!   points at a stale slot (checked by the invariant suite).

use crate::li::Li;

/// One tag-less data-array slot (L1, or an LLC slice/bank).
#[derive(Clone, Copy, Debug)]
pub struct DataLine {
    /// True if this copy is the line's master location.
    pub master: bool,
    /// Master only: no other valid replicas exist (write permission without
    /// coherence; an M-vs-O distinction).
    pub excl: bool,
    /// Data differs from main memory.
    pub dirty: bool,
    /// Victim slot whose contents are outdated (see module docs).
    pub stale: bool,
    /// Value-coherence oracle token carried by this copy.
    pub version: u64,
    /// Node-local cycle at which the fill completes (late-hit model;
    /// only meaningful for L1 slots).
    pub ready_at: u64,
    /// Replacement pointer: victim location (masters) or master location
    /// (replicas).
    pub rp: Li,
}

impl DataLine {
    /// A fresh replica of data whose master lives at `master_loc`.
    pub fn replica(version: u64, ready_at: u64, master_loc: Li) -> Self {
        Self {
            master: false,
            excl: false,
            dirty: false,
            stale: false,
            version,
            ready_at,
            rp: master_loc,
        }
    }

    /// A master copy with victim location `victim`.
    pub fn master(version: u64, ready_at: u64, dirty: bool, victim: Li) -> Self {
        Self {
            master: true,
            excl: true,
            dirty,
            stale: false,
            version,
            ready_at,
            rp: victim,
        }
    }

    /// True if this slot's data may legally be served to a read.
    pub fn serveable(&self) -> bool {
        !self.stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_roles() {
        let r = DataLine::replica(3, 100, Li::Mem);
        assert!(!r.master && !r.dirty && r.serveable());
        assert_eq!(r.rp, Li::Mem);
        let m = DataLine::master(4, 0, true, Li::LlcFs { way: 2 });
        assert!(m.master && m.excl && m.dirty && m.serveable());
    }

    #[test]
    fn stale_slots_are_not_serveable() {
        let mut s = DataLine::replica(1, 0, Li::Mem);
        s.stale = true;
        assert!(!s.serveable());
    }
}
