//! Per-access outcome vocabulary shared by all simulated systems.
//!
//! Every system (Base-2L, Base-3L, the D2M variants) reports each memory
//! access through the same [`AccessResult`] so the runner can compute the
//! paper's metrics — L1 miss ratios and late hits (Table IV), near-side hit
//! ratios (Table IV right half), average L1 miss latency (§V-D) — without
//! knowing which hierarchy produced them.

use crate::probe::LookupLevel;

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

    /// True when the data came from some LLC slice (near or far) — the
    /// denominator of Table IV's near-side hit ratios.
    pub fn is_llc_level(self) -> bool {
        matches!(
            self,
            ServicedBy::LocalNs | ServicedBy::RemoteNs | ServicedBy::Llc
        )
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
