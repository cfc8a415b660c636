//! CACTI-magnitude energy model and dynamic-energy accounting (paper
//! §V-A/§V-C).
//!
//! The paper estimates energy with CACTI 6.0 / McPAT at 22 nm and reports
//! **cache-hierarchy EDP normalized to Base-2L** (Figure 6), split into
//! *standard* structures (darker bars: caches, tags, TLB, directory, NoC)
//! and *D2M-only* structures (lighter bars: the location trackers MD1/2/3).
//!
//! Absolute joules are irrelevant for the normalized figure; what matters is
//! that per-access energies have realistic magnitude *ratios* (an LLC access
//! costs several L1 accesses, a NoC data crossing costs more than a header,
//! metadata arrays are far smaller than the tags+TLB they replace). The
//! default [`EnergyModel`] encodes those ratios; every value is documented
//! and overridable. A system records its structure accesses in an
//! [`EnergyAccount`]; the runner adds message and memory energy, and leakage
//! from [`EnergyModel::leak_pj_per_kb_cycle`], to get a run's energy and EDP.
//!
//! # Example
//!
//! ```
//! use d2m_energy::{EnergyAccount, EnergyEvent, EnergyModel};
//!
//! let model = EnergyModel::default();
//! let mut acc = EnergyAccount::new(model);
//! acc.record(EnergyEvent::L1Array, 1);
//! acc.record(EnergyEvent::Md1, 1);
//! assert_eq!(acc.total_pj(), model.l1_array_pj + model.md1_pj);
//! assert_eq!(acc.dynamic_d2m_pj(), model.md1_pj);
//! ```

#![forbid(unsafe_code)]

use d2m_common::impl_json_struct;

/// A dynamic energy event, one per structure access or message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EnergyEvent {
    /// One 64 B L1 data/instruction array way read or write.
    L1Array,
    /// One L1 tag way comparison (baselines pay `ways` of these on a search
    /// without way prediction; Base-2L's perfect way prediction pays 1).
    L1TagWay,
    /// One L2 array access (Base-3L private L2).
    L2Array,
    /// One L2 tag way comparison.
    L2TagWay,
    /// One far-side LLC bank access.
    LlcArray,
    /// One LLC tag way comparison.
    LlcTagWay,
    /// One near-side LLC slice access.
    NsSliceArray,
    /// One TLB lookup.
    Tlb,
    /// One baseline directory lookup/update.
    Directory,
    /// One NoC message header traversal.
    NocHeader,
    /// One NoC 64 B data traversal.
    NocData,
    /// One off-chip memory access (read or write).
    Mem,
    /// One MD1 lookup/update (D2M-only).
    Md1,
    /// One MD2 lookup/update (D2M-only).
    Md2,
    /// One MD3 lookup/update (D2M-only).
    Md3,
}

/// Number of distinct energy events.
pub const ENERGY_EVENTS: usize = 15;

impl EnergyEvent {
    /// All events, in a stable order.
    pub const ALL: [EnergyEvent; ENERGY_EVENTS] = [
        EnergyEvent::L1Array,
        EnergyEvent::L1TagWay,
        EnergyEvent::L2Array,
        EnergyEvent::L2TagWay,
        EnergyEvent::LlcArray,
        EnergyEvent::LlcTagWay,
        EnergyEvent::NsSliceArray,
        EnergyEvent::Tlb,
        EnergyEvent::Directory,
        EnergyEvent::NocHeader,
        EnergyEvent::NocData,
        EnergyEvent::Mem,
        EnergyEvent::Md1,
        EnergyEvent::Md2,
        EnergyEvent::Md3,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EnergyEvent::L1Array => "l1_array",
            EnergyEvent::L1TagWay => "l1_tag",
            EnergyEvent::L2Array => "l2_array",
            EnergyEvent::L2TagWay => "l2_tag",
            EnergyEvent::LlcArray => "llc_array",
            EnergyEvent::LlcTagWay => "llc_tag",
            EnergyEvent::NsSliceArray => "ns_slice",
            EnergyEvent::Tlb => "tlb",
            EnergyEvent::Directory => "directory",
            EnergyEvent::NocHeader => "noc_header",
            EnergyEvent::NocData => "noc_data",
            EnergyEvent::Mem => "mem_ctrl",
            EnergyEvent::Md1 => "md1",
            EnergyEvent::Md2 => "md2",
            EnergyEvent::Md3 => "md3",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|e| *e == self).expect("in ALL")
    }

    /// True for the structures that exist only in D2M (Figure 6's lighter
    /// bars).
    pub fn is_d2m_only(self) -> bool {
        matches!(self, EnergyEvent::Md1 | EnergyEvent::Md2 | EnergyEvent::Md3)
    }
}

/// Per-event dynamic energies (pJ) and leakage parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// pJ per [`EnergyEvent::L1Array`].
    pub l1_array_pj: f64,
    /// pJ per [`EnergyEvent::L1TagWay`].
    pub l1_tag_way_pj: f64,
    /// pJ per [`EnergyEvent::L2Array`].
    pub l2_array_pj: f64,
    /// pJ per [`EnergyEvent::L2TagWay`].
    pub l2_tag_way_pj: f64,
    /// pJ per [`EnergyEvent::LlcArray`].
    pub llc_array_pj: f64,
    /// pJ per [`EnergyEvent::LlcTagWay`].
    pub llc_tag_way_pj: f64,
    /// pJ per [`EnergyEvent::NsSliceArray`].
    pub ns_slice_pj: f64,
    /// pJ per [`EnergyEvent::Tlb`].
    pub tlb_pj: f64,
    /// pJ per [`EnergyEvent::Directory`].
    pub directory_pj: f64,
    /// pJ per [`EnergyEvent::NocHeader`].
    pub noc_header_pj: f64,
    /// pJ per [`EnergyEvent::NocData`].
    pub noc_data_pj: f64,
    /// pJ per [`EnergyEvent::Mem`].
    pub mem_pj: f64,
    /// pJ per [`EnergyEvent::Md1`].
    pub md1_pj: f64,
    /// pJ per [`EnergyEvent::Md2`].
    pub md2_pj: f64,
    /// pJ per [`EnergyEvent::Md3`].
    pub md3_pj: f64,
    /// Leakage, pJ per KB of standard SRAM per cycle.
    pub leak_pj_per_kb_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // 22 nm CACTI-magnitude values; see module docs for why only the
        // ratios matter. Tag comparisons include the comparator; the MD
        // arrays are small (128 / 4 K / 16 K regions × ~14 B).
        Self {
            l1_array_pj: 12.0,
            l1_tag_way_pj: 1.2,
            l2_array_pj: 30.0,
            l2_tag_way_pj: 1.6,
            llc_array_pj: 65.0,
            llc_tag_way_pj: 2.0,
            ns_slice_pj: 34.0,
            tlb_pj: 2.5,
            directory_pj: 28.0,
            noc_header_pj: 9.0,
            noc_data_pj: 62.0,
            // On-chip memory-controller/PHY cost per access; DRAM core
            // energy is outside the "cache hierarchy EDP" the paper reports.
            mem_pj: 380.0,
            md1_pj: 2.0,
            md2_pj: 9.0,
            md3_pj: 26.0,
            leak_pj_per_kb_cycle: 0.006,
        }
    }
}

impl_json_struct!(EnergyModel {
    l1_array_pj,
    l1_tag_way_pj,
    l2_array_pj,
    l2_tag_way_pj,
    llc_array_pj,
    llc_tag_way_pj,
    ns_slice_pj,
    tlb_pj,
    directory_pj,
    noc_header_pj,
    noc_data_pj,
    mem_pj,
    md1_pj,
    md2_pj,
    md3_pj,
    leak_pj_per_kb_cycle,
});

impl EnergyModel {
    /// Dynamic energy of one event in pJ.
    pub fn event_pj(&self, e: EnergyEvent) -> f64 {
        match e {
            EnergyEvent::L1Array => self.l1_array_pj,
            EnergyEvent::L1TagWay => self.l1_tag_way_pj,
            EnergyEvent::L2Array => self.l2_array_pj,
            EnergyEvent::L2TagWay => self.l2_tag_way_pj,
            EnergyEvent::LlcArray => self.llc_array_pj,
            EnergyEvent::LlcTagWay => self.llc_tag_way_pj,
            EnergyEvent::NsSliceArray => self.ns_slice_pj,
            EnergyEvent::Tlb => self.tlb_pj,
            EnergyEvent::Directory => self.directory_pj,
            EnergyEvent::NocHeader => self.noc_header_pj,
            EnergyEvent::NocData => self.noc_data_pj,
            EnergyEvent::Mem => self.mem_pj,
            EnergyEvent::Md1 => self.md1_pj,
            EnergyEvent::Md2 => self.md2_pj,
            EnergyEvent::Md3 => self.md3_pj,
        }
    }
}

/// Accumulates the dynamic energy of one simulated system's structure
/// accesses.
#[derive(Clone, Debug)]
pub struct EnergyAccount {
    model: EnergyModel,
    dynamic_std_pj: f64,
    dynamic_d2m_pj: f64,
    by_event_pj: [f64; ENERGY_EVENTS],
}

impl EnergyAccount {
    /// Creates an empty account using `model`.
    pub fn new(model: EnergyModel) -> Self {
        Self {
            model,
            dynamic_std_pj: 0.0,
            dynamic_d2m_pj: 0.0,
            by_event_pj: [0.0; ENERGY_EVENTS],
        }
    }

    /// Records `count` occurrences of `event`.
    #[inline]
    pub fn record(&mut self, event: EnergyEvent, count: u64) {
        let pj = self.model.event_pj(event) * count as f64;
        self.by_event_pj[event.index()] += pj;
        if event.is_d2m_only() {
            self.dynamic_d2m_pj += pj;
        } else {
            self.dynamic_std_pj += pj;
        }
    }

    /// Dynamic energy recorded for one event class (pJ) — the per-structure
    /// split behind Figure 6's stacked bars.
    pub fn event_pj_total(&self, event: EnergyEvent) -> f64 {
        self.by_event_pj[event.index()]
    }

    /// Per-structure dynamic-energy breakdown as deterministic JSON.
    ///
    /// Events appear in [`EnergyEvent::ALL`] order (not sorted by magnitude),
    /// zero rows omitted, so equal accounts serialize byte-identically.
    pub fn breakdown_json(&self) -> d2m_common::json::Json {
        use d2m_common::json::Json;
        let rows = EnergyEvent::ALL
            .iter()
            .filter(|e| self.by_event_pj[e.index()] > 0.0)
            .map(|e| (e.name().to_string(), Json::F64(self.by_event_pj[e.index()])))
            .collect();
        Json::Obj(rows)
    }

    /// Dynamic energy of standard structures (pJ) — Figure 6's darker bars.
    pub fn dynamic_std_pj(&self) -> f64 {
        self.dynamic_std_pj
    }

    /// Dynamic energy of D2M-only structures (pJ) — Figure 6's lighter bars.
    pub fn dynamic_d2m_pj(&self) -> f64 {
        self.dynamic_d2m_pj
    }

    /// Total dynamic energy (pJ): standard plus D2M-only structures.
    pub fn total_pj(&self) -> f64 {
        self.dynamic_std_pj + self.dynamic_d2m_pj
    }

    /// The model in use.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ratios_are_sane() {
        let m = EnergyModel::default();
        // An LLC access costs several L1 accesses.
        assert!(m.llc_array_pj > 3.0 * m.l1_array_pj);
        // The MD1 replaces TLB1+L1 tags and must be cheaper than them.
        assert!(m.md1_pj < m.tlb_pj + 8.0 * m.l1_tag_way_pj);
        // NS slice cheaper than far LLC bank.
        assert!(m.ns_slice_pj < m.llc_array_pj);
        // Data crossing dwarfs a header.
        assert!(m.noc_data_pj > 4.0 * m.noc_header_pj);
    }

    #[test]
    fn record_splits_std_and_d2m() {
        let mut a = EnergyAccount::new(EnergyModel::default());
        a.record(EnergyEvent::L1Array, 2);
        a.record(EnergyEvent::Md2, 3);
        assert!(a.dynamic_std_pj() > 0.0);
        assert!(a.dynamic_d2m_pj() > 0.0);
        assert_eq!(a.total_pj(), a.dynamic_std_pj() + a.dynamic_d2m_pj());
    }

    #[test]
    fn breakdown_tracks_per_event_energy() {
        let mut a = EnergyAccount::new(EnergyModel::default());
        a.record(EnergyEvent::L1Array, 3);
        a.record(EnergyEvent::Md3, 2);
        assert!((a.event_pj_total(EnergyEvent::L1Array) - 36.0).abs() < 1e-9);
        let sum: f64 = EnergyEvent::ALL.iter().map(|e| a.event_pj_total(*e)).sum();
        assert!((sum - a.total_pj()).abs() < 1e-9);
        // The JSON lists the two recorded events, in `ALL` order.
        let json = a.breakdown_json().to_string_compact();
        assert!(json.starts_with("{\"l1_array\":36"), "{json}");
        assert!(json.contains("\"md3\":52"), "{json}");
        assert!(!json.contains("md1"), "{json}");
    }

    #[test]
    fn event_names_are_unique() {
        let mut names: Vec<_> = EnergyEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ENERGY_EVENTS);
    }

    #[test]
    fn every_event_has_positive_energy() {
        let m = EnergyModel::default();
        for e in [
            EnergyEvent::L1Array,
            EnergyEvent::L1TagWay,
            EnergyEvent::L2Array,
            EnergyEvent::L2TagWay,
            EnergyEvent::LlcArray,
            EnergyEvent::LlcTagWay,
            EnergyEvent::NsSliceArray,
            EnergyEvent::Tlb,
            EnergyEvent::Directory,
            EnergyEvent::NocHeader,
            EnergyEvent::NocData,
            EnergyEvent::Mem,
            EnergyEvent::Md1,
            EnergyEvent::Md2,
            EnergyEvent::Md3,
        ] {
            assert!(m.event_pj(e) > 0.0, "{e:?}");
        }
    }
}
