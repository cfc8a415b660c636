//! Event counters for the baseline systems.

use d2m_common::stats::Counters;

/// Raw event counts accumulated by a [`crate::Baseline`] run, beyond the
/// per-access counts its [`d2m_common::outcome::AccessTally`] holds.
///
/// Fields are public plain counters (C-struct spirit); use
/// [`BaselineCounters::to_counters`] for a named snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineCounters {
    /// L2 hits (Base-3L only).
    pub l2_hits: u64,
    /// L2 misses (Base-3L only).
    pub l2_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Directory lookups/updates.
    pub dir_accesses: u64,
    /// Invalidation messages *received* by nodes (including false
    /// invalidations to nodes that no longer hold the line) — Table V.
    pub invalidations_received: u64,
    /// Ownership upgrades (store to a Shared line).
    pub upgrades: u64,
    /// Back-invalidations caused by inclusive-LLC evictions.
    pub back_invalidations: u64,
    /// Writebacks of dirty data (any level).
    pub writebacks: u64,
}

impl BaselineCounters {
    /// Named snapshot for the harness.
    pub fn to_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("l2.hits", self.l2_hits)
            .set("l2.misses", self.l2_misses)
            .set("llc.hits", self.llc_hits)
            .set("llc.misses", self.llc_misses)
            .set("dir.accesses", self.dir_accesses)
            .set("inv.received", self.invalidations_received)
            .set("upgrades", self.upgrades)
            .set("back_invalidations", self.back_invalidations)
            .set("writebacks", self.writebacks);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_contains_key_metrics() {
        let mut b = BaselineCounters::default();
        b.llc_misses = 10;
        let c = b.to_counters();
        assert_eq!(c.get("llc.misses"), 10);
    }
}
