//! Per-access outcome vocabulary shared by all simulated systems.
//!
//! Every system (Base-2L, Base-3L, the D2M variants) reports each memory
//! access through the same [`AccessResult`] so the runner can compute the
//! paper's metrics — L1 miss ratios and late hits (Table IV), near-side hit
//! ratios (Table IV right half), average L1 miss latency (§V-D) — without
//! knowing which hierarchy produced them. The counts that depend only on an
//! access's kind and its result live in one [`AccessTally`], which each
//! hierarchy updates once per access.

use crate::probe::LookupLevel;
use crate::stats::Counters;

/// Which level ultimately serviced an access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ServicedBy {
    /// L1 hit (I or D side implied by the access kind).
    L1,
    /// Private L2 hit (Base-3L only).
    L2,
    /// The node's own near-side LLC slice (D2M-NS/NS-R only).
    LocalNs,
    /// A remote node's NS slice (D2M-NS/NS-R only).
    RemoteNs,
    /// The far-side shared LLC.
    Llc,
    /// A master copy in a remote node's private hierarchy.
    RemoteNode,
    /// Main memory.
    Mem,
}

impl ServicedBy {
    /// All endpoints, in a stable report order.
    pub const ALL: [ServicedBy; 7] = [
        ServicedBy::L1,
        ServicedBy::L2,
        ServicedBy::LocalNs,
        ServicedBy::RemoteNs,
        ServicedBy::Llc,
        ServicedBy::RemoteNode,
        ServicedBy::Mem,
    ];

    /// Stable display name (used as a JSON key by the probe reports).
    pub fn name(self) -> &'static str {
        match self {
            ServicedBy::L1 => "l1",
            ServicedBy::L2 => "l2",
            ServicedBy::LocalNs => "ns_local",
            ServicedBy::RemoteNs => "ns_remote",
            ServicedBy::Llc => "llc",
            ServicedBy::RemoteNode => "remote_node",
            ServicedBy::Mem => "mem",
        }
    }

    /// Position in [`Self::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Outcome of one memory access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    /// End-to-end latency in cycles (including the L1 access itself).
    pub latency: u64,
    /// True when the access hit in L1.
    pub l1_hit: bool,
    /// True when the access hit a line whose fill had not yet completed
    /// (Table IV "Late Hits"): it pays the remaining fill latency.
    pub late: bool,
    /// The level that ultimately provided the data.
    pub serviced_by: ServicedBy,
    /// For systems with region classification (D2M): on a private-cache
    /// miss, whether the missing region was classified private (Table V).
    /// `None` for L1 hits and for the baselines.
    pub private_miss: Option<bool>,
    /// The deepest lookup level the transaction reached (see
    /// [`LookupLevel`]; each hierarchy documents its rule).
    pub level: LookupLevel,
}

// `level` sits in the padding after the one-byte fields, so a result stays
// two words: every access returns one by value.
const _: () = assert!(std::mem::size_of::<AccessResult>() == 16);

/// The per-access counts that depend only on an access's kind and its
/// [`AccessResult`]: accesses by kind, L1 hits, misses and late hits per
/// side, and the L1-miss latency sum.
///
/// Each hierarchy owns one and feeds it every access it serves with
/// [`Self::record`], the only place these counts change. `accesses` and
/// `miss_count` are exported as the sums they equal.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccessTally {
    ifetches: u64,
    loads: u64,
    stores: u64,
    l1i_hits: u64,
    l1i_misses: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    late_hits_i: u64,
    late_hits_d: u64,
    miss_latency_sum: u64,
}

impl AccessTally {
    /// Counts one access, an instruction fetch when `ifetch` is set and
    /// otherwise a store or a load as `store` says, whose outcome was `r`.
    #[inline]
    pub fn record(&mut self, ifetch: bool, store: bool, r: &AccessResult) {
        let (hits, misses, late) = if ifetch {
            self.ifetches += 1;
            (
                &mut self.l1i_hits,
                &mut self.l1i_misses,
                &mut self.late_hits_i,
            )
        } else {
            if store {
                self.stores += 1;
            } else {
                self.loads += 1;
            }
            (
                &mut self.l1d_hits,
                &mut self.l1d_misses,
                &mut self.late_hits_d,
            )
        };
        if r.l1_hit {
            *hits += 1;
            *late += u64::from(r.late);
        } else {
            *misses += 1;
            self.miss_latency_sum += r.latency;
        }
    }

    /// Sets the named counts in `c`: `accesses`, `ifetches`, `loads`,
    /// `stores`, `l1{i,d}.{hits,misses}`, `late_hits.{i,d}`,
    /// `miss_latency_sum` and `miss_count`.
    pub fn export(&self, c: &mut Counters) {
        c.set("accesses", self.ifetches + self.loads + self.stores)
            .set("ifetches", self.ifetches)
            .set("loads", self.loads)
            .set("stores", self.stores)
            .set("l1i.hits", self.l1i_hits)
            .set("l1i.misses", self.l1i_misses)
            .set("l1d.hits", self.l1d_hits)
            .set("l1d.misses", self.l1d_misses)
            .set("late_hits.i", self.late_hits_i)
            .set("late_hits.d", self.late_hits_d)
            .set("miss_latency_sum", self.miss_latency_sum)
            .set("miss_count", self.l1i_misses + self.l1d_misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(l1_hit: bool, late: bool, latency: u64) -> AccessResult {
        AccessResult {
            latency,
            l1_hit,
            late,
            serviced_by: if l1_hit {
                ServicedBy::L1
            } else {
                ServicedBy::Mem
            },
            private_miss: None,
            level: LookupLevel::L1,
        }
    }

    #[test]
    fn tally_counts_each_access_by_kind_side_and_outcome() {
        let mut t = AccessTally::default();
        t.record(true, false, &result(false, false, 100)); // ifetch miss
        t.record(true, false, &result(true, true, 30)); // late ifetch hit
        t.record(false, false, &result(true, false, 2)); // load hit
        t.record(false, true, &result(false, false, 50)); // store miss
        let mut c = Counters::new();
        t.export(&mut c);
        let want = [
            ("accesses", 4),
            ("ifetches", 2),
            ("loads", 1),
            ("stores", 1),
            ("l1i.hits", 1),
            ("l1i.misses", 1),
            ("l1d.hits", 1),
            ("l1d.misses", 1),
            ("late_hits.i", 1),
            ("late_hits.d", 0),
            ("miss_latency_sum", 150),
            ("miss_count", 2),
        ];
        for (name, v) in want {
            assert_eq!(c.get(name), v, "{name}");
        }
        assert_eq!(c.len(), want.len());
    }
}
