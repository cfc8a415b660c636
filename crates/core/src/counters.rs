//! Event counters for D2M: cache events, metadata-structure pressure, and
//! the appendix's protocol-case (PKMO) statistics.

use d2m_common::stats::Counters;

/// Protocol-case counters matching the appendix's coherence examples.
///
/// The appendix reports each case in events **per kilo memory operation**
/// (PKMO): A 12.5 (LLC 8.9 / MEM 2.7 / remote 0.8), B 1.7, C 0.72,
/// D 0.82 (D1 0.32, D2 0.02, D3 0.14, D4 0.34). Cases A and B need no MD3
/// involvement — the paper's "~90% of misses are directory-free" claim.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtocolEvents {
    /// Case A: read miss with MD1/MD2 hit (total).
    pub a_read_md_hit: u64,
    /// Case A sub-case: master in the LLC.
    pub a_master_llc: u64,
    /// Case A sub-case: master in memory.
    pub a_master_mem: u64,
    /// Case A sub-case: master in a remote node (one indirection through
    /// that node's MD).
    pub a_master_remote: u64,
    /// Case B: write miss, private region, MD1/MD2 hit.
    pub b_write_private: u64,
    /// Case C: write miss/upgrade, shared region (blocking MD3 round).
    pub c_write_shared: u64,
    /// Case D: MD2 miss (total ReadMM transactions).
    pub d_md_miss: u64,
    /// D1: untracked → private.
    pub d1_untracked_to_private: u64,
    /// D2: private → shared (GetMD to the previous owner).
    pub d2_private_to_shared: u64,
    /// D3: shared → shared.
    pub d3_shared_to_shared: u64,
    /// D4: uncached → private (new MD3 entry).
    pub d4_uncached_to_private: u64,
    /// Case E: eviction of a dirty master, private region (local only).
    pub e_evict_private: u64,
    /// Case F: eviction of a master, shared region (NewMaster round).
    pub f_evict_shared: u64,
    /// Silent write upgrades on an L1 replica hit in a private region.
    pub silent_upgrades: u64,
}

impl ProtocolEvents {
    /// Named snapshot.
    pub fn to_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("case.a", self.a_read_md_hit)
            .set("case.a_llc", self.a_master_llc)
            .set("case.a_mem", self.a_master_mem)
            .set("case.a_remote", self.a_master_remote)
            .set("case.b", self.b_write_private)
            .set("case.c", self.c_write_shared)
            .set("case.d", self.d_md_miss)
            .set("case.d1", self.d1_untracked_to_private)
            .set("case.d2", self.d2_private_to_shared)
            .set("case.d3", self.d3_shared_to_shared)
            .set("case.d4", self.d4_uncached_to_private)
            .set("case.e", self.e_evict_private)
            .set("case.f", self.f_evict_shared)
            .set("case.silent_upgrade", self.silent_upgrades);
        c
    }
}

/// Cache/metadata event counters for one D2M run, beyond the per-access
/// counts its [`d2m_common::outcome::AccessTally`] holds.
#[derive(Clone, Copy, Debug, Default)]
pub struct D2mCounters {
    /// MD1 lookups.
    pub md1_accesses: u64,
    /// MD1 hits.
    pub md1_hits: u64,
    /// MD2 lookups.
    pub md2_accesses: u64,
    /// MD2 hits.
    pub md2_hits: u64,
    /// MD3 transactions.
    pub md3_accesses: u64,
    /// Reads serviced by the local NS slice — instruction side.
    pub ns_local_i: u64,
    /// Reads serviced by a remote NS slice — instruction side.
    pub ns_remote_i: u64,
    /// Reads serviced by the local NS slice — data side.
    pub ns_local_d: u64,
    /// Reads serviced by a remote NS slice — data side.
    pub ns_remote_d: u64,
    /// Reads serviced by the far-side LLC.
    pub llc_fs_hits: u64,
    /// Accesses serviced by main memory.
    pub mem_fills: u64,
    /// Reads serviced by a remote node's private hierarchy.
    pub remote_node_reads: u64,
    /// Invalidation messages received by nodes (incl. false invalidations
    /// from region-grain PB multicast) — Table V.
    pub invalidations_received: u64,
    /// Invalidations received for lines the node did not actually hold.
    pub false_invalidations: u64,
    /// L1 misses to regions classified private (Table V right column).
    pub private_region_misses: u64,
    /// L1 misses total (denominator for the private fraction).
    pub classified_misses: u64,
    /// Lines replicated into a local NS slice (§IV-C heuristic).
    pub replications: u64,
    /// Memory fills that bypassed LLC allocation (bypass feature).
    pub bypassed_fills: u64,
    /// NS allocations placed in the local slice.
    pub ns_alloc_local: u64,
    /// NS allocations placed in a remote slice.
    pub ns_alloc_remote: u64,
    /// MD2 entries dropped by the pruning heuristic.
    pub md2_prunes: u64,
    /// MD2 region evictions (spills).
    pub md2_evictions: u64,
    /// MD3 region evictions (global purges).
    pub md3_evictions: u64,
}

impl D2mCounters {
    /// Named snapshot.
    pub fn to_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("md1.accesses", self.md1_accesses)
            .set("md1.hits", self.md1_hits)
            .set("md2.accesses", self.md2_accesses)
            .set("md2.hits", self.md2_hits)
            .set("md3.accesses", self.md3_accesses)
            .set("ns.local_i", self.ns_local_i)
            .set("ns.remote_i", self.ns_remote_i)
            .set("ns.local_d", self.ns_local_d)
            .set("ns.remote_d", self.ns_remote_d)
            .set("llc_fs.hits", self.llc_fs_hits)
            .set("mem.fills", self.mem_fills)
            .set("remote_node.reads", self.remote_node_reads)
            .set("inv.received", self.invalidations_received)
            .set("inv.false", self.false_invalidations)
            .set("private.misses", self.private_region_misses)
            .set("private.classified", self.classified_misses)
            .set("replications", self.replications)
            .set("bypassed_fills", self.bypassed_fills)
            .set("ns_alloc.local", self.ns_alloc_local)
            .set("ns_alloc.remote", self.ns_alloc_remote)
            .set("md2.prunes", self.md2_prunes)
            .set("md2.evictions", self.md2_evictions)
            .set("md3.evictions", self.md3_evictions);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_include_cases() {
        let ev = ProtocolEvents {
            a_read_md_hit: 1,
            ..Default::default()
        };
        assert_eq!(ev.to_counters().get("case.a"), 1);
        let c = D2mCounters {
            md2_prunes: 3,
            ..Default::default()
        };
        assert_eq!(c.to_counters().get("md2.prunes"), 3);
    }
}
