//! The D2M system: state, construction, addressing helpers and accessors.
//!
//! The protocol flows (reads, writes, evictions, MD3 transactions) live in
//! [`crate::protocol`]; the whole-system invariant checker in
//! [`crate::invariants`].
//!
//! # Storage layout
//!
//! Every per-node structure (the MD1s, the L1 arrays, the MD2s, the LLC
//! slices) is stored as ONE contiguous [`Banked`] arena with one bank per
//! node/slice, addressed by `(bank, set, way)` arithmetic — there is no
//! per-node struct and no `Vec<Vec<...>>` nesting on the transaction hot
//! path. Each bank keeps its own LRU clock, so the arena makes exactly the
//! same replacement decisions as independent per-node arrays (simulation
//! output is byte-identical to the previous layout). MD3 is a single global
//! structure and stays a flat [`SetAssoc`] (itself one contiguous arena).

use d2m_cache::scramble::{region_scramble, scrambled_index};
use d2m_cache::{Banked, SetAssoc, Tlb};
use d2m_common::addr::{LineAddr, NodeId, RegionAddr};
use d2m_common::config::MachineConfig;
use d2m_common::oracle::VersionOracle;
use d2m_common::rng::SimRng;
use d2m_common::stats::Counters;
use d2m_energy::{EnergyAccount, EnergyModel};
use d2m_noc::{Endpoint, Noc};

use crate::counters::{D2mCounters, ProtocolEvents};
use crate::data::{DataLine, L1Line};
use crate::error::ProtocolError;
use crate::li::{Li, LiEncoding};
use crate::lockbits::LockBits;
use crate::meta::{Md1Entry, Md2Entry, Md3Entry};

/// The three evaluated D2M configurations (paper §V-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum D2mVariant {
    /// L1 caches + far-side LLC.
    FarSide,
    /// L1 caches + near-side LLC slices with the pressure placement policy.
    NearSide,
    /// D2M-NS plus replication heuristics and dynamic indexing.
    NearSideRepl,
}

impl D2mVariant {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            D2mVariant::FarSide => "D2M-FS",
            D2mVariant::NearSide => "D2M-NS",
            D2mVariant::NearSideRepl => "D2M-NS-R",
        }
    }

    /// Feature set implied by the variant.
    pub fn features(self) -> D2mFeatures {
        match self {
            D2mVariant::FarSide => D2mFeatures {
                near_side: false,
                replication: false,
                dynamic_indexing: false,
                bypass: false,
                traditional_l1: false,
            },
            D2mVariant::NearSide => D2mFeatures {
                near_side: true,
                replication: false,
                dynamic_indexing: false,
                bypass: false,
                traditional_l1: false,
            },
            D2mVariant::NearSideRepl => D2mFeatures {
                near_side: true,
                replication: true,
                dynamic_indexing: true,
                bypass: false,
                traditional_l1: false,
            },
        }
    }
}

/// Individually-toggleable D2M features (ablation hooks).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct D2mFeatures {
    /// LLC slices on the core side of the interconnect (§IV-B).
    pub near_side: bool,
    /// Replicate instructions / remote-MRU data into the local slice (§IV-C).
    pub replication: bool,
    /// Per-region scrambled cache indices (§IV-D).
    pub dynamic_indexing: bool,
    /// Region-predictor cache bypassing (paper §I's optimization list):
    /// streaming regions skip LLC allocation on memory fills. Off in the
    /// paper's evaluated variants; exposed for the bypass ablation.
    pub bypass: bool,
    /// Traditional front end (paper §III-A): an unmodified core with a TLB
    /// and a *tagged* L1 sits in front of the D2M metadata hierarchy. The
    /// node pays TLB + tag energy on every access and consults MD2 directly
    /// on misses (no MD1); everything from MD2 down is unchanged. Models the
    /// claim that such a system "achieves most of the reported D2M
    /// advantages".
    pub traditional_l1: bool,
}

/// Which data array a node-resident line lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ArrKind {
    L1I,
    L1D,
}

/// A resolved reference to the active metadata entry for a region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MdRef {
    Md1 { is_i: bool, set: usize, way: usize },
    Md2 { set: usize, way: usize },
}

/// The Direct-to-Master split cache hierarchy.
///
/// See the crate docs for the architecture; see `DESIGN.md` for how this
/// reproduction maps onto the paper.
pub struct D2mSystem {
    pub(crate) cfg: MachineConfig,
    pub(crate) feats: D2mFeatures,
    variant: D2mVariant,
    pub(crate) enc: LiEncoding,
    /// Instruction-side MD1s: one bank per node.
    pub(crate) md1i: Banked<Md1Entry>,
    /// Data-side MD1s: one bank per node.
    pub(crate) md1d: Banked<Md1Entry>,
    /// MD2s: one bank per node.
    pub(crate) md2: Banked<Md2Entry>,
    pub(crate) tlb2: Vec<Tlb>,
    /// L1 instruction data arrays: one bank per node.
    pub(crate) l1i: Banked<L1Line>,
    /// L1 data arrays: one bank per node.
    pub(crate) l1d: Banked<L1Line>,
    /// LLC data arrays: a single bank (index 0) for far-side, one bank per
    /// node for near-side.
    pub(crate) llc: Banked<DataLine>,
    pub(crate) md3: SetAssoc<Md3Entry>,
    pub(crate) lockbits: LockBits,
    pub(crate) noc: Noc,
    pub(crate) energy: EnergyAccount,
    pub(crate) oracle: VersionOracle,
    pub(crate) rng: SimRng,
    pub(crate) ctr: D2mCounters,
    pub(crate) ev: ProtocolEvents,
    /// Replacements per slice in the current pressure window (§IV-B).
    pub(crate) pressure: Vec<u64>,
    /// Snapshot the placement policy actually consults.
    pub(crate) pressure_last: Vec<u64>,
    pub(crate) window_accesses: u64,
    /// Reusable scratch for the case-C prune-candidate list, so the write
    /// hot path performs no per-access heap allocation.
    pub(crate) scratch_prune: Vec<usize>,
    scramble_salt: u64,
}

impl D2mSystem {
    /// Builds a D2M system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: &MachineConfig, variant: D2mVariant) -> Self {
        Self::with_features(cfg, variant, variant.features(), 0xd2a5)
    }

    /// Builds a D2M system with an explicit feature set (ablations) and
    /// policy seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation, or if D2M cannot address its
    /// geometry: more L1 ways (8) or near-side slice ways (4) than the LI
    /// way fields hold, or L1-I and L1-D set counts that differ.
    pub fn with_features(
        cfg: &MachineConfig,
        variant: D2mVariant,
        feats: D2mFeatures,
        seed: u64,
    ) -> Self {
        cfg.validate().expect("invalid machine config");
        if let Err(e) = Self::check_geometry(cfg, feats) {
            panic!("invalid machine config for {}: {e}", variant.name());
        }
        let n = cfg.nodes;
        let (llc, enc) = if feats.near_side {
            (
                Banked::new(n, cfg.ns_slice.sets, cfg.ns_slice.ways),
                LiEncoding::NearSide,
            )
        } else {
            (
                Banked::new(1, cfg.llc.sets, cfg.llc.ways),
                LiEncoding::FarSide,
            )
        };
        Self {
            cfg: cfg.clone(),
            feats,
            variant,
            enc,
            md1i: Banked::with_hashed_index(n, cfg.md1.sets, cfg.md1.ways),
            md1d: Banked::with_hashed_index(n, cfg.md1.sets, cfg.md1.ways),
            md2: Banked::with_hashed_index(n, cfg.md2.sets, cfg.md2.ways),
            tlb2: (0..n)
                .map(|_| Tlb::new(cfg.tlb.sets, cfg.tlb.ways))
                .collect(),
            l1i: Banked::new(n, cfg.l1i.sets, cfg.l1i.ways),
            l1d: Banked::new(n, cfg.l1d.sets, cfg.l1d.ways),
            llc,
            md3: SetAssoc::with_hashed_index(cfg.md3.sets, cfg.md3.ways),
            lockbits: LockBits::new(cfg.md3_lock_bits, 8),
            noc: Noc::new(cfg.lat.noc),
            energy: EnergyAccount::new(EnergyModel::default()),
            oracle: VersionOracle::new(),
            rng: SimRng::from_label(seed, "d2m/policy"),
            ctr: D2mCounters::default(),
            ev: ProtocolEvents::default(),
            pressure: vec![0; n],
            pressure_last: vec![0; n],
            window_accesses: 0,
            scratch_prune: Vec::with_capacity(n),
            scramble_salt: seed ^ 0x5c7a_3bbd,
        }
    }

    /// Checks the geometry a D2M system with `feats` would build from `cfg`
    /// against what its LIs can name. [`MachineConfig::validate`] accepts
    /// these configs, since the baselines can run them.
    ///
    /// # Errors
    ///
    /// A message naming the field and its limit when:
    /// * `l1i.ways` or `l1d.ways` is above 8, the ways the L1 LI `001WWW`
    ///   encodes;
    /// * with a near-side LLC, `ns_slice.ways` is above 4, the ways the LLC
    ///   LI `1NNNWW` encodes;
    /// * `l1i.sets` differs from `l1d.sets`: one L1 set index
    ///   (`l1_set`) serves both arrays.
    fn check_geometry(cfg: &MachineConfig, feats: D2mFeatures) -> Result<(), String> {
        const L1_LI_WAYS: usize = 8;
        const NS_LI_WAYS: usize = 4;
        for (field, ways) in [("l1i.ways", cfg.l1i.ways), ("l1d.ways", cfg.l1d.ways)] {
            if ways > L1_LI_WAYS {
                return Err(format!(
                    "{field} = {ways} is above {L1_LI_WAYS}, the ways the L1 LI `001WWW` encodes"
                ));
            }
        }
        if feats.near_side && cfg.ns_slice.ways > NS_LI_WAYS {
            return Err(format!(
                "ns_slice.ways = {} is above {NS_LI_WAYS}, the ways the near-side LLC LI \
                 `1NNNWW` encodes",
                cfg.ns_slice.ways
            ));
        }
        if cfg.l1i.sets != cfg.l1d.sets {
            return Err(format!(
                "l1i.sets = {} must equal l1d.sets = {}: one L1 set index serves both arrays",
                cfg.l1i.sets, cfg.l1d.sets
            ));
        }
        Ok(())
    }

    /// The configured variant.
    pub fn variant(&self) -> D2mVariant {
        self.variant
    }

    /// The active feature set.
    pub fn features(&self) -> D2mFeatures {
        self.feats
    }

    /// Interconnect accumulator.
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Mutable interconnect accumulator (e.g. to enable traffic recording).
    pub fn noc_mut(&mut self) -> &mut Noc {
        &mut self.noc
    }

    /// Energy account (structure accesses; NoC/memory energy is derived from
    /// the [`Noc`] counters by the runner).
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    /// Raw cache/metadata counters.
    pub fn raw_counters(&self) -> &D2mCounters {
        &self.ctr
    }

    /// Raw protocol-case (PKMO) counters.
    pub fn protocol_events(&self) -> &ProtocolEvents {
        &self.ev
    }

    /// Value-coherence violations observed (must stay zero).
    pub fn coherence_errors(&self) -> u64 {
        self.ctr.coherence_errors
    }

    /// Always 0. A deterministic-LI violation fails its transaction with
    /// [`crate::ProtocolError::Determinism`] instead of being counted; the
    /// accessor stays only until the benchmark stops reading it.
    pub fn determinism_errors(&self) -> u64 {
        0
    }

    /// Named counter snapshot (events + protocol cases + messages).
    pub fn counters(&self) -> Counters {
        let mut c = self.ctr.to_counters();
        c.merge_prefixed("", &self.ev.to_counters());
        c.merge_prefixed("noc.", &self.noc.counters());
        c.set("lockbits.acquisitions", self.lockbits.acquisitions());
        c.set("lockbits.collisions", self.lockbits.collisions());
        c
    }

    /// Total SRAM capacity in KB for leakage accounting. D2M has no L1 tags
    /// and no TLB1; it adds the MD arrays (~14 B per region entry: tag +
    /// 16 × 6-bit LI + bits) and keeps a TLB2 per node.
    pub fn sram_kb(&self) -> f64 {
        let n = self.cfg.nodes as f64;
        let l1 = (self.cfg.l1i.capacity_bytes() + self.cfg.l1d.capacity_bytes()) as f64;
        let md1 = (2 * self.cfg.md1.entries() * 14) as f64;
        let md2 = (self.cfg.md2.entries() * 14) as f64;
        let tlb2 = (self.cfg.tlb.entries() * 8) as f64;
        // Per-line TP/RP bits in the data arrays (~2 B per line).
        let line_meta = ((self.cfg.l1i.entries() + self.cfg.l1d.entries()) * 2) as f64;
        let llc = self.cfg.llc.capacity_bytes() as f64;
        let llc_meta = (self.cfg.llc.entries() * 2) as f64;
        let md3 = (self.cfg.md3.entries() * 15) as f64;
        (n * (l1 + md1 + md2 + tlb2 + line_meta) + llc + llc_meta + md3) / 1024.0
    }

    /// Simulator-resident metadata footprint (entry sizes × configured
    /// capacities). This is what the region packing shrinks: each entry's
    /// LI array is two `u64` words instead of a 16-element enum array.
    pub fn metadata_footprint(&self) -> crate::meta::MetadataFootprint {
        let n = self.cfg.nodes as u64;
        crate::meta::MetadataFootprint {
            md1_bytes: 2
                * n
                * self.cfg.md1.entries() as u64
                * std::mem::size_of::<Md1Entry>() as u64,
            md2_bytes: n * self.cfg.md2.entries() as u64 * std::mem::size_of::<Md2Entry>() as u64,
            md3_bytes: self.cfg.md3.entries() as u64 * std::mem::size_of::<Md3Entry>() as u64,
        }
    }

    // ---------------- addressing helpers ----------------

    /// Per-region index scramble (0 when dynamic indexing is off).
    #[inline]
    pub(crate) fn scramble(&self, region: RegionAddr) -> u16 {
        if self.feats.dynamic_indexing {
            region_scramble(region.raw(), self.scramble_salt)
        } else {
            0
        }
    }

    /// L1 set index for a line.
    ///
    /// The L1 index is *not* scrambled: dense L1-resident working sets rely
    /// on the uniform placement of consecutive lines, and randomizing them
    /// costs more conflicts than it removes. Dynamic indexing (§IV-D)
    /// targets the LLC, where regular power-of-two strides pile thousands of
    /// lines onto a few sets — see [`Self::llc_set`].
    #[inline]
    pub(crate) fn l1_set(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.cfg.l1d.sets - 1)
    }

    /// LLC set index for a line within `slice`.
    #[inline]
    pub(crate) fn llc_set(&self, line: LineAddr, slice: usize) -> usize {
        let _ = slice; // all slices share one geometry in the banked arena
        scrambled_index(
            line.raw() as usize,
            self.scramble(line.region()),
            self.llc.sets(),
        )
    }

    /// Maps an LLC-pointing LI to `(slice, way)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotAnLlcLocation`] when `li` does not point
    /// at the LLC at all, and [`ProtocolError::LlcSlotOutOfRange`] when it
    /// names a slice or way outside this system's geometry (e.g. a
    /// near-side pointer leaked into a far-side system). Either means the
    /// metadata is corrupt; callers propagate the error so the transaction
    /// fails instead of aborting the process.
    pub(crate) fn llc_slice_way(&self, li: Li) -> Result<(usize, usize), ProtocolError> {
        let (slice, way) = match li {
            Li::LlcFs { way } => (0, way as usize),
            Li::LlcNs { node, way } => (node.index(), way as usize),
            _ => return Err(ProtocolError::NotAnLlcLocation { li }),
        };
        let slices = self.llc.banks();
        let ways = self.llc.ways();
        if slice >= slices || way >= ways {
            return Err(ProtocolError::LlcSlotOutOfRange { li, slices, ways });
        }
        Ok((slice, way))
    }

    /// The LI naming slot `(slice, way)` under the current encoding.
    pub(crate) fn li_of_llc(&self, slice: usize, way: usize) -> Li {
        match self.enc {
            LiEncoding::FarSide => Li::LlcFs { way: way as u8 },
            LiEncoding::NearSide => Li::LlcNs {
                node: NodeId::new(slice as u8),
                way: way as u8,
            },
        }
    }

    /// NoC endpoint of an LLC slice.
    pub(crate) fn llc_endpoint(&self, slice: usize) -> Endpoint {
        match self.enc {
            LiEncoding::FarSide => Endpoint::FarSide,
            LiEncoding::NearSide => Endpoint::Node(NodeId::new(slice as u8)),
        }
    }

    /// MD1 key: virtual region combined with the ASID (virtual tagging).
    /// The ASID occupies high bits so the region bits drive set selection.
    #[inline]
    pub(crate) fn md1_key(vregion: u64, asid: u16) -> u64 {
        vregion ^ ((asid as u64) << 50)
    }

    // ---------------- metadata resolution ----------------

    /// The active metadata reference for `region` at `node`, if the node
    /// tracks it. Pure resolution — no energy/latency accounting.
    pub(crate) fn find_active_md(&self, node: usize, region: RegionAddr) -> Option<MdRef> {
        let set = self.md2.set_index(region.raw());
        let way = self.md2.way_of(node, set, region.raw())?;
        let entry = self
            .md2
            .at(node, set, way)
            .map(|(_, e)| *e)
            .expect("occupied");
        Some(match entry.tp {
            Some(tp) => MdRef::Md1 {
                is_i: tp.side == crate::meta::Md1Side::Instruction,
                set: tp.set as usize,
                way: tp.way as usize,
            },
            None => MdRef::Md2 { set, way },
        })
    }

    /// Reads one LI through an [`MdRef`] (a branch-free shift/mask on the
    /// packed array).
    pub(crate) fn li_get(&self, node: usize, md: MdRef, off: usize) -> Li {
        match md {
            MdRef::Md1 { is_i, set, way } => {
                let arr = if is_i { &self.md1i } else { &self.md1d };
                arr.at(node, set, way)
                    .map(|(_, e)| e.li.get(off, self.enc))
                    .expect("active MD1 entry")
            }
            MdRef::Md2 { set, way } => self
                .md2
                .at(node, set, way)
                .map(|(_, e)| e.li.get(off, self.enc))
                .expect("active MD2 entry"),
        }
    }

    /// Writes one LI through an [`MdRef`].
    pub(crate) fn li_set(&mut self, node: usize, md: MdRef, off: usize, li: Li) {
        let enc = self.enc;
        match md {
            MdRef::Md1 { is_i, set, way } => {
                let arr = if is_i { &mut self.md1i } else { &mut self.md1d };
                let (_, e) = arr.at_mut(node, set, way).expect("active MD1 entry");
                e.li.set(off, li, enc);
            }
            MdRef::Md2 { set, way } => {
                let (_, e) = self.md2.at_mut(node, set, way).expect("active MD2 entry");
                e.li.set(off, li, enc);
            }
        }
    }

    /// Reads the region's private bit through an [`MdRef`].
    pub(crate) fn md_private(&self, node: usize, md: MdRef) -> bool {
        match md {
            MdRef::Md1 { is_i, set, way } => {
                let arr = if is_i { &self.md1i } else { &self.md1d };
                arr.at(node, set, way)
                    .map(|(_, e)| e.private)
                    .expect("active MD1 entry")
            }
            MdRef::Md2 { set, way } => self
                .md2
                .at(node, set, way)
                .map(|(_, e)| e.private)
                .expect("active MD2 entry"),
        }
    }

    /// Clears the private bit in both the MD2 entry and (if active) the MD1
    /// entry for `region` at `node`.
    pub(crate) fn clear_private(&mut self, node: usize, region: RegionAddr) {
        let set = self.md2.set_index(region.raw());
        let Some(way) = self.md2.way_of(node, set, region.raw()) else {
            return;
        };
        let (_, e) = self.md2.at_mut(node, set, way).expect("occupied");
        e.private = false;
        let tp = e.tp;
        if let Some(tp) = tp {
            let arr = match tp.side {
                crate::meta::Md1Side::Instruction => &mut self.md1i,
                crate::meta::Md1Side::Data => &mut self.md1d,
            };
            if let Some((_, e1)) = arr.at_mut(node, tp.set as usize, tp.way as usize) {
                e1.private = false;
            }
        }
    }

    /// The data arena for `kind`; index it with the node as the bank.
    pub(crate) fn arr(&self, kind: ArrKind) -> &Banked<L1Line> {
        match kind {
            ArrKind::L1I => &self.l1i,
            ArrKind::L1D => &self.l1d,
        }
    }

    /// Mutable data arena for `kind`; index it with the node as the bank.
    pub(crate) fn arr_mut(&mut self, kind: ArrKind) -> &mut Banked<L1Line> {
        match kind {
            ArrKind::L1I => &mut self.l1i,
            ArrKind::L1D => &mut self.l1d,
        }
    }

    /// Finds `line` anywhere in node `n`'s L1 arrays (simulation-side sweep;
    /// hardware walks tracking pointers).
    pub(crate) fn node_slot_of(
        &self,
        node: usize,
        line: LineAddr,
    ) -> Option<(ArrKind, usize, usize)> {
        let set = self.l1_set(line);
        for kind in [ArrKind::L1D, ArrKind::L1I] {
            if let Some(way) = self.arr(kind).way_of(node, set, line.raw()) {
                return Some((kind, set, way));
            }
        }
        None
    }

    /// Replaces every pointer to `from` for `line` with `to`: active MD LIs,
    /// data-line RPs, and the MD3 LI. Returns `(fixed_nodes_mask, md3_fixed)`
    /// so the caller can count the corresponding update messages.
    pub(crate) fn retarget(&mut self, line: LineAddr, from: Li, to: Li) -> (u8, bool) {
        debug_assert!(
            !matches!(from, Li::L1 { .. } | Li::L2 { .. }),
            "retarget is for global locations"
        );
        let region = line.region();
        let off = usize::from(line.region_offset());
        let mut mask = 0u8;
        for n in 0..self.cfg.nodes {
            let mut fixed = false;
            if let Some(md) = self.find_active_md(n, region) {
                if self.li_get(n, md, off) == from {
                    self.li_set(n, md, off, to);
                    fixed = true;
                }
            }
            if let Some((kind, set, way)) = self.node_slot_of(n, line) {
                let (_, dl) = self.arr_mut(kind).at_mut(n, set, way).expect("occupied");
                if dl.rp == from {
                    dl.rp = to;
                    fixed = true;
                }
            }
            // Replicas of `line` in n's local slice whose RP names `from`.
            if self.feats.near_side {
                let set = self.llc_set(line, n);
                if let Some(way) = self.llc.way_of(n, set, line.raw()) {
                    let (_, dl) = self.llc.at_mut(n, set, way).expect("occupied");
                    if dl.rp == from {
                        dl.rp = to;
                        fixed = true;
                    }
                }
            }
            if fixed {
                mask |= 1 << n;
            }
        }
        let mut md3_fixed = false;
        let enc = self.enc;
        let set3 = self.md3.set_index(region.raw());
        if let Some(way3) = self.md3.way_of(set3, region.raw()) {
            let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
            if e3.li.get(off, enc) == from {
                e3.li.set(off, to, enc);
                md3_fixed = true;
            }
        }
        (mask, md3_fixed)
    }

    /// Rolls the NS pressure window (called once per access by the
    /// protocol): every `pressure_window × nodes` accesses the per-slice
    /// replacement counts are snapshotted and exchanged (§IV-B).
    pub(crate) fn tick_pressure_window(&mut self) {
        if !self.feats.near_side {
            return;
        }
        self.window_accesses += 1;
        let window = self.cfg.ns_policy.pressure_window * self.cfg.nodes as u64;
        if self.window_accesses >= window {
            self.window_accesses = 0;
            self.pressure_last.copy_from_slice(&self.pressure);
            self.pressure.iter_mut().for_each(|p| *p = 0);
            for n in 0..self.cfg.nodes {
                self.noc.send(
                    d2m_noc::MsgClass::Pressure,
                    Endpoint::Node(NodeId::new(n as u8)),
                    Endpoint::FarSide,
                );
            }
        }
    }

    /// Picks the NS slice for a new allocation by `node` (§IV-B policy).
    pub(crate) fn choose_ns_slice(&mut self, node: usize) -> usize {
        let local = self.pressure_last[node];
        let (remote_min_idx, remote_min) = self
            .pressure_last
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != node)
            .min_by_key(|(_, p)| **p)
            .map(|(i, p)| (i, *p))
            .unwrap_or((node, u64::MAX));
        if local <= remote_min {
            node
        } else {
            let pct = self.cfg.ns_policy.local_alloc_pct_under_pressure as f64 / 100.0;
            if self.rng.chance(pct) {
                node
            } else {
                remote_min_idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2m_common::config::CacheGeometry;

    #[test]
    fn construction_matches_variant() {
        let cfg = MachineConfig::default();
        let fs = D2mSystem::new(&cfg, D2mVariant::FarSide);
        assert_eq!(fs.llc.banks(), 1);
        assert_eq!(fs.enc, LiEncoding::FarSide);
        let ns = D2mSystem::new(&cfg, D2mVariant::NearSide);
        assert_eq!(ns.llc.banks(), 8);
        assert!(!ns.features().replication);
        let nsr = D2mSystem::new(&cfg, D2mVariant::NearSideRepl);
        assert!(nsr.features().replication && nsr.features().dynamic_indexing);
    }

    const VARIANTS: [D2mVariant; 3] = [
        D2mVariant::FarSide,
        D2mVariant::NearSide,
        D2mVariant::NearSideRepl,
    ];

    #[test]
    fn l1_ways_beyond_the_li_way_field_are_rejected() {
        let mut cfg = MachineConfig::default();
        cfg.l1d = CacheGeometry::new(64, 16);
        assert!(cfg.validate().is_ok(), "the baselines accept it");
        for v in VARIANTS {
            let err = D2mSystem::check_geometry(&cfg, v.features()).unwrap_err();
            assert!(err.starts_with("l1d.ways = 16 is above 8"), "{err}");
        }
        cfg.l1d = MachineConfig::default().l1d;
        cfg.l1i = CacheGeometry::new(64, 16);
        let err = D2mSystem::check_geometry(&cfg, D2mVariant::FarSide.features()).unwrap_err();
        assert!(err.starts_with("l1i.ways = 16 is above 8"), "{err}");
    }

    #[test]
    fn ns_slice_ways_beyond_the_li_way_field_are_rejected() {
        let mut cfg = MachineConfig::default();
        cfg.ns_slice = CacheGeometry::new(2048, 8);
        assert!(cfg.validate().is_ok(), "the baselines accept it");
        for v in [D2mVariant::NearSide, D2mVariant::NearSideRepl] {
            let err = D2mSystem::check_geometry(&cfg, v.features()).unwrap_err();
            assert!(err.starts_with("ns_slice.ways = 8 is above 4"), "{err}");
        }
        // A far-side system has no slices; the field does not bind it.
        assert_eq!(
            D2mSystem::check_geometry(&cfg, D2mVariant::FarSide.features()),
            Ok(())
        );
    }

    #[test]
    fn l1i_sets_other_than_l1d_sets_are_rejected() {
        let mut cfg = MachineConfig::default();
        cfg.l1i = CacheGeometry::new(32, 8);
        assert!(cfg.validate().is_ok(), "the baselines accept it");
        for v in VARIANTS {
            let err = D2mSystem::check_geometry(&cfg, v.features()).unwrap_err();
            assert!(
                err.starts_with("l1i.sets = 32 must equal l1d.sets = 64"),
                "{err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid machine config for D2M-NS-R: l1d.ways = 16")]
    fn building_checks_the_geometry() {
        let mut cfg = MachineConfig::default();
        cfg.l1d = CacheGeometry::new(64, 16);
        let _ = D2mSystem::new(&cfg, D2mVariant::NearSideRepl);
    }

    #[test]
    fn llc_li_mapping_roundtrips() {
        let cfg = MachineConfig::default();
        let ns = D2mSystem::new(&cfg, D2mVariant::NearSide);
        let li = ns.li_of_llc(3, 2);
        assert_eq!(ns.llc_slice_way(li), Ok((3, 2)));
        let fs = D2mSystem::new(&cfg, D2mVariant::FarSide);
        let li = fs.li_of_llc(0, 17);
        assert_eq!(fs.llc_slice_way(li), Ok((0, 17)));
    }

    #[test]
    fn llc_slice_way_rejects_corrupt_lis() {
        let cfg = MachineConfig::default();
        let fs = D2mSystem::new(&cfg, D2mVariant::FarSide);
        assert_eq!(
            fs.llc_slice_way(Li::Mem),
            Err(ProtocolError::NotAnLlcLocation { li: Li::Mem })
        );
        // A near-side pointer on a far-side system indexes a slice that does
        // not exist — previously an out-of-bounds panic deep in the vec.
        let bad = Li::LlcNs {
            node: NodeId::new(5),
            way: 1,
        };
        assert!(matches!(
            fs.llc_slice_way(bad),
            Err(ProtocolError::LlcSlotOutOfRange { slices: 1, .. })
        ));
        // A way beyond the slice geometry is caught too.
        let ns = D2mSystem::new(&cfg, D2mVariant::NearSide);
        let wide = Li::LlcNs {
            node: NodeId::new(0),
            way: 63,
        };
        assert!(matches!(
            ns.llc_slice_way(wide),
            Err(ProtocolError::LlcSlotOutOfRange { .. })
        ));
    }

    #[test]
    fn scramble_only_when_dynamic_indexing() {
        let cfg = MachineConfig::default();
        let ns = D2mSystem::new(&cfg, D2mVariant::NearSide);
        assert_eq!(ns.scramble(RegionAddr::new(77)), 0);
        let nsr = D2mSystem::new(&cfg, D2mVariant::NearSideRepl);
        // Not a guarantee for every region, but this one scrambles.
        assert_ne!(nsr.scramble(RegionAddr::new(77)), 0);
    }

    #[test]
    fn ns_slice_choice_prefers_low_pressure() {
        let cfg = MachineConfig::default();
        let mut ns = D2mSystem::new(&cfg, D2mVariant::NearSide);
        // Equal pressure: always local.
        assert_eq!(ns.choose_ns_slice(2), 2);
        // Local under heavy pressure: mostly local (80%), sometimes the
        // least-pressured remote.
        ns.pressure_last = vec![0, 100, 900, 3, 50, 60, 70, 80];
        let picks: Vec<usize> = (0..200).map(|_| ns.choose_ns_slice(2)).collect();
        let local = picks.iter().filter(|p| **p == 2).count();
        assert!(local > 120 && local < 195, "local={local}");
        assert!(
            picks.iter().all(|p| *p == 2 || *p == 0),
            "remote must be argmin"
        );
    }

    #[test]
    fn sram_kb_is_cheaper_than_a_3l_server_baseline() {
        // Paper Figure 4: D2M-NS-R has Base-2L-like cost, far below Base-3L.
        let cfg = MachineConfig::default();
        let d2m = D2mSystem::new(&cfg, D2mVariant::NearSideRepl).sram_kb();
        let l2_total = (cfg.l2.capacity_bytes() * cfg.nodes) as f64 / 1024.0;
        let base3l_floor = (cfg.llc.capacity_bytes() as f64 / 1024.0) + l2_total;
        assert!(d2m < base3l_floor);
    }

    #[test]
    fn md1_key_separates_asids() {
        assert_ne!(D2mSystem::md1_key(10, 1), D2mSystem::md1_key(10, 2));
        assert_ne!(D2mSystem::md1_key(10, 0), D2mSystem::md1_key(11, 0));
    }
}
