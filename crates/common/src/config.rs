//! Machine configuration — the Table III analogue shared by every system.
//!
//! One [`MachineConfig`] instance describes the whole chip: node count, cache
//! geometries for the baselines *and* the D2M variants, metadata-store sizes,
//! and the latency parameters of the timing model. All experiment presets
//! start from [`MachineConfig::default`] and tweak individual fields.

use crate::addr::LINE_BYTES;
use crate::impl_json_struct;

/// Geometry of one set-associative structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        Self { sets, ways }
    }

    /// Geometry from a capacity in bytes for line-granular caches.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is not a power of two.
    pub fn from_capacity(bytes: usize, ways: usize) -> Self {
        let lines = bytes / LINE_BYTES;
        Self::new(lines / ways, ways)
    }

    /// Total number of entries (sets × ways).
    pub const fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Capacity in bytes if entries are cachelines.
    pub const fn capacity_bytes(&self) -> usize {
        self.entries() * LINE_BYTES
    }
}

/// Latency parameters (in core cycles) for the timing model.
///
/// Values are of published magnitude for an energy-efficient ~2 GHz design;
/// absolute numbers are documented in `DESIGN.md` §4 and only relative
/// behaviour matters for the normalized results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latencies {
    /// L1 (I or D) array access, hit latency.
    pub l1: u64,
    /// MD1 lookup (overlapped with L1 access on hits).
    pub md1: u64,
    /// Private L2 (Base-3L) array access.
    pub l2: u64,
    /// Local near-side LLC slice access (no interconnect crossing).
    pub ns_slice: u64,
    /// One interconnect traversal (node ↔ far side, or node ↔ node).
    pub noc: u64,
    /// Far-side LLC data-array access (excluding interconnect).
    pub llc: u64,
    /// MD2 lookup.
    pub md2: u64,
    /// TLB2 lookup (on the MD2 path; TLB1 is replaced by MD1 in D2M).
    pub tlb2: u64,
    /// MD3 lookup (far side; excluding interconnect).
    pub md3: u64,
    /// Directory lookup in the baselines (embedded with the LLC tags).
    pub directory: u64,
    /// Main memory access (from the far side).
    pub mem: u64,
    /// Page-table walk on a TLB miss.
    pub tlb_walk: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            l1: 2,
            md1: 1,
            l2: 12,
            ns_slice: 10,
            noc: 10,
            llc: 16,
            md2: 4,
            tlb2: 2,
            md3: 20,
            directory: 20,
            mem: 160,
            tlb_walk: 30,
        }
    }
}

/// Parameters of the analytic core model (see `DESIGN.md` §2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreModel {
    /// Baseline instructions per cycle when no miss stalls the core.
    pub base_ipc: f64,
    /// Fraction of an instruction-miss latency the core is stalled
    /// (OoO cores cannot hide I-misses — paper §V-D).
    pub ifetch_blocking: f64,
    /// Fraction of a data-miss latency the core is stalled.
    pub data_blocking: f64,
}

impl Default for CoreModel {
    fn default() -> Self {
        Self {
            base_ipc: 2.0,
            ifetch_blocking: 0.6,
            data_blocking: 0.12,
        }
    }
}

/// Near-side-LLC placement-policy parameters (paper §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NsPolicy {
    /// Cycle window over which slice pressure (replacements) is measured and
    /// exchanged (10 k cycles in the paper).
    pub pressure_window: u64,
    /// Percentage of allocations made locally when the local slice pressure
    /// is *higher* than the remote average (80% in the paper).
    pub local_alloc_pct_under_pressure: u32,
}

impl Default for NsPolicy {
    fn default() -> Self {
        Self {
            pressure_window: 10_000,
            local_alloc_pct_under_pressure: 80,
        }
    }
}

/// Complete machine description.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of nodes (cores), at most 8 for the 6-bit LI encoding.
    pub nodes: usize,
    /// L1 instruction cache geometry (32 KB 8-way by default).
    pub l1i: CacheGeometry,
    /// L1 data cache geometry (32 KB 8-way by default).
    pub l1d: CacheGeometry,
    /// Private L2 geometry for Base-3L (256 KB 8-way by default).
    pub l2: CacheGeometry,
    /// Far-side shared LLC geometry (8 MB 32-way by default).
    pub llc: CacheGeometry,
    /// Per-node near-side LLC slice geometry (1 MB 4-way by default;
    /// `nodes × slice` capacity equals the far-side LLC capacity).
    pub ns_slice: CacheGeometry,
    /// MD1 geometry in regions (128 entries, 8-way by default) — one each
    /// for instructions and data.
    pub md1: CacheGeometry,
    /// MD2 geometry in regions (4 K entries, 8-way).
    pub md2: CacheGeometry,
    /// MD3 geometry in regions (16 K entries, 16-way).
    pub md3: CacheGeometry,
    /// TLB entries (baselines' TLB1 and D2M's TLB2).
    pub tlb: CacheGeometry,
    /// Timing parameters.
    pub lat: Latencies,
    /// Core model parameters.
    pub core: CoreModel,
    /// NS-LLC placement policy parameters.
    pub ns_policy: NsPolicy,
    /// Number of MD3 lock bits modelled for the blocking mechanism
    /// (1 K in the paper's appendix).
    pub md3_lock_bits: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            nodes: 8,
            l1i: CacheGeometry::from_capacity(32 << 10, 8),
            l1d: CacheGeometry::from_capacity(32 << 10, 8),
            l2: CacheGeometry::from_capacity(256 << 10, 8),
            llc: CacheGeometry::from_capacity(8 << 20, 32),
            ns_slice: CacheGeometry::from_capacity(1 << 20, 4),
            md1: CacheGeometry::new(16, 8),
            md2: CacheGeometry::new(512, 8),
            md3: CacheGeometry::new(1024, 16),
            tlb: CacheGeometry::new(16, 4),
            lat: Latencies::default(),
            core: CoreModel::default(),
            ns_policy: NsPolicy::default(),
            md3_lock_bits: 1024,
        }
    }
}

impl MachineConfig {
    /// Scales the metadata capacity (MD1/MD2/MD3 entry counts) by a factor,
    /// used by the footnote-5 ablation (1×/2×/4×).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or not a power of two.
    pub fn scale_metadata(mut self, factor: usize) -> Self {
        assert!(factor.is_power_of_two() && factor > 0);
        self.md1.sets *= factor;
        self.md2.sets *= factor;
        self.md3.sets *= factor;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency found
    /// (e.g. NS slices not covering the LLC capacity, node count out of the
    /// LI encoding range).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.nodes > crate::addr::NodeId::MAX_NODES {
            return Err(format!("nodes must be 1..=8, got {}", self.nodes));
        }
        let ns_total = self.ns_slice.capacity_bytes() * self.nodes;
        if ns_total != self.llc.capacity_bytes() {
            return Err(format!(
                "NS slices ({} B total) must equal far-side LLC capacity ({} B)",
                ns_total,
                self.llc.capacity_bytes()
            ));
        }
        if self.llc.ways > 32 {
            return Err("LLC associativity above 32 does not fit the LI encoding".into());
        }
        if !self.md3_lock_bits.is_power_of_two() {
            return Err("md3_lock_bits must be a power of two".into());
        }
        Ok(())
    }

    /// Number of cachelines trackable by MD2 (4× the L2 size rule of thumb
    /// from the paper is satisfied by the default geometry).
    pub fn md2_tracked_lines(&self) -> usize {
        self.md2.entries() * crate::addr::LINES_PER_REGION
    }
}

impl_json_struct!(CacheGeometry { sets, ways });
impl_json_struct!(Latencies {
    l1,
    md1,
    l2,
    ns_slice,
    noc,
    llc,
    md2,
    tlb2,
    md3,
    directory,
    mem,
    tlb_walk,
});
impl_json_struct!(CoreModel {
    base_ipc,
    ifetch_blocking,
    data_blocking,
});
impl_json_struct!(NsPolicy {
    pressure_window,
    local_alloc_pct_under_pressure,
});
impl_json_struct!(MachineConfig {
    nodes,
    l1i,
    l1d,
    l2,
    llc,
    ns_slice,
    md1,
    md2,
    md3,
    tlb,
    lat,
    core,
    ns_policy,
    md3_lock_bits,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_geometry() {
        let cfg = MachineConfig::default();
        cfg.validate().expect("default config must be valid");
        assert_eq!(cfg.l1d.capacity_bytes(), 32 << 10);
        assert_eq!(cfg.llc.capacity_bytes(), 8 << 20);
        assert_eq!(cfg.ns_slice.capacity_bytes() * cfg.nodes, 8 << 20);
        assert_eq!(cfg.md1.entries(), 128);
        assert_eq!(cfg.md2.entries(), 4096);
        assert_eq!(cfg.md3.entries(), 16384);
    }

    #[test]
    fn md2_tracks_at_least_4x_l2_capacity() {
        // Paper §II-A: MD2 tracks ~4× more lines than the L2 holds.
        let cfg = MachineConfig::default();
        let l2_lines = cfg.l2.entries();
        assert!(cfg.md2_tracked_lines() >= 4 * l2_lines);
    }

    #[test]
    fn scale_metadata_doubles_entry_counts() {
        let cfg = MachineConfig::default().scale_metadata(2);
        assert_eq!(cfg.md1.entries(), 256);
        assert_eq!(cfg.md2.entries(), 8192);
        assert_eq!(cfg.md3.entries(), 32768);
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_mismatched_ns_capacity() {
        let mut cfg = MachineConfig::default();
        cfg.ns_slice = CacheGeometry::from_capacity(512 << 10, 4);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_too_many_nodes() {
        let mut cfg = MachineConfig::default();
        cfg.nodes = 9;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn geometry_from_capacity() {
        let g = CacheGeometry::from_capacity(32 << 10, 8);
        assert_eq!(g.sets, 64);
        assert_eq!(g.ways, 8);
        assert_eq!(g.capacity_bytes(), 32 << 10);
    }

    #[test]
    fn config_json_roundtrip() {
        use crate::json::{FromJson, Json, ToJson};
        let cfg = MachineConfig::default();
        let text = cfg.to_json().to_string_compact();
        let back = MachineConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }
}
