//! The unified data + metadata coherence protocol (paper §III-C, appendix).
//!
//! Every memory access executes one atomic transaction (MD3 blocking is
//! implicit — see `DESIGN.md` §2). The appendix's cases map to:
//!
//! * **A** (read miss, MD hit) — `D2mSystem::read_miss` with direct access
//!   to the master (LLC slot, memory, or a remote node's MD).
//! * **B** (write miss, private) — `D2mSystem::write_miss`: direct read of
//!   the master, silent promotion to a new master.
//! * **C** (write, shared) — `D2mSystem::case_c_invalidate`: blocking MD3
//!   round, invalidations multicast to PB nodes, LIs repointed to the writer.
//! * **D1–D4** (MD2 miss) — `D2mSystem::md3_transaction`.
//! * **E/F** (master evictions) — `D2mSystem::evict_data_line`: copy to
//!   the victim location named by the RP, flip the active LI; shared regions
//!   add the EvictReq/NewMaster round.
//!
//! Key invariants maintained throughout (checked by [`crate::invariants`]):
//! deterministic LIs, a single master per line, metadata inclusion, and
//! PB ⇔ MD2-residency.
//!
//! An LI is followed, never second-guessed: a slot it names that does not
//! hold its line fails the transaction with
//! [`ProtocolError::Determinism`], and an LI of a class that cannot occur
//! where it is found fails it with [`ProtocolError::UnexpectedLi`] (this
//! includes `Li::L2`, an encoding no D2M data array here produces). Debug
//! and release builds take the same path.

use d2m_cache::Banked;
use d2m_common::addr::{LineAddr, LineOffset, NodeId, RegionAddr, LINES_PER_REGION};
use d2m_common::outcome::{AccessResult, ServicedBy};
use d2m_common::probe::LookupLevel;
use d2m_energy::EnergyEvent;
use d2m_noc::{Endpoint, MsgClass};
use d2m_workloads::{Access, AccessKind};

use crate::data::{DataLine, L1Line};
use crate::error::ProtocolError;
use crate::li::Li;
use crate::meta::{Md1Entry, Md1Side, Md2Entry, Md3Entry, RegionClass, TrackingPtr};
use crate::packed::PackedLiArray;
use crate::system::{ArrKind, D2mSystem, MdRef};

/// A stale LLC victim slot, allocated for a new node-held master so that its
/// eventual eviction lands in the LLC rather than going to memory (see
/// [`crate::data`]).
const VICTIM_SLOT: DataLine = DataLine {
    master: false,
    excl: false,
    dirty: false,
    stale: true,
    version: 0,
    rp: Li::Mem,
};

/// The active metadata entry an access resolved to, and what the access
/// path reads from it.
struct Resolved {
    /// The active entry: MD1, or MD2 in the traditional front end.
    md: MdRef,
    /// The physical region.
    region: RegionAddr,
    /// The region's private bit.
    private: bool,
    /// The accessed line's LI.
    li: Li,
    /// The metadata was already resident (MD1 or MD2 hit).
    md_hit: bool,
    /// Latency the resolution added.
    latency: u64,
}

impl D2mSystem {
    /// Simulates one access issued at node-local cycle `now`.
    ///
    /// The result's lookup level is the deepest metadata level the
    /// transaction reached, read off the access counters: L3 if it made an
    /// MD3 access, else L2 if it made an MD2 access, else L1. So a remote
    /// node's MD2 lookup and a case-C MD3 round count, even behind an MD1
    /// hit.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] when corrupted metadata (an LI naming a
    /// location that cannot exist) makes the transaction unactionable. The
    /// system's state is no longer trustworthy after an error; callers
    /// should fail the run, not retry.
    pub fn access(&mut self, a: &Access, now: u64) -> Result<AccessResult, ProtocolError> {
        let md2_0 = self.ctr.md2_accesses;
        let md3_0 = self.ctr.md3_accesses;
        let r = self.access_inner(a, now)?;
        let level = if self.ctr.md3_accesses > md3_0 {
            LookupLevel::L3
        } else if self.ctr.md2_accesses > md2_0 {
            LookupLevel::L2
        } else {
            LookupLevel::L1
        };
        Ok(AccessResult { level, ..r })
    }

    /// [`Self::access`] without its lookup level, which the result leaves
    /// at L1.
    fn access_inner(&mut self, a: &Access, now: u64) -> Result<AccessResult, ProtocolError> {
        self.ctr.accesses += 1;
        match a.kind {
            AccessKind::IFetch => self.ctr.ifetches += 1,
            AccessKind::Load => self.ctr.loads += 1,
            AccessKind::Store => self.ctr.stores += 1,
        }
        self.tick_pressure_window();
        let node = a.node.index();
        let is_i = a.kind.is_ifetch();
        let is_store = a.kind.is_store();
        let off = usize::from(a.vaddr.region_offset());

        let mut res = self.resolve_metadata(node, is_i, a, off)?;
        let line = res.region.line(crate::meta_line_offset(off));
        res.latency += self.cfg.lat.l1;

        if let Li::L1 { way } = res.li {
            // ---- L1 hit (the MD1 lookup doubles as the "tag" check) ----
            let kind = if is_i { ArrKind::L1I } else { ArrKind::L1D };
            let set = self.l1_set(line);
            self.energy.record(EnergyEvent::L1Array, 1);
            let slot = *Self::named_slot(
                self.arr_mut(kind),
                (node, set, way as usize),
                line,
                Li::L1 { way },
                "L1 hit",
            )?;
            let mut latency = res.latency;
            let mut late = false;
            if now < slot.ready_at {
                late = true;
                latency += slot.ready_at - now;
                if is_i {
                    self.ctr.late_hits_i += 1;
                } else {
                    self.ctr.late_hits_d += 1;
                }
            }
            if is_i {
                self.ctr.l1i_hits += 1;
            } else {
                self.ctr.l1d_hits += 1;
            }
            if is_store {
                latency += self.write_hit(node, line, off, res.private, set, way as usize)?;
            } else {
                self.check_load(line, slot.version);
            }
            self.arr_mut(kind).touch(node, set, way as usize);
            return Ok(AccessResult {
                latency,
                l1_hit: true,
                late,
                serviced_by: ServicedBy::L1,
                private_miss: None,
                level: LookupLevel::L1,
            });
        }

        self.miss_path(node, is_i, is_store, line, off, res, now)
    }

    /// An L1 miss on `line`, whose metadata `res` resolved.
    #[allow(clippy::too_many_arguments)]
    fn miss_path(
        &mut self,
        node: usize,
        is_i: bool,
        is_store: bool,
        line: LineAddr,
        off: usize,
        res: Resolved,
        now: u64,
    ) -> Result<AccessResult, ProtocolError> {
        let Resolved {
            md,
            private,
            li,
            md_hit,
            mut latency,
            ..
        } = res;
        if is_i {
            self.ctr.l1i_misses += 1;
        } else {
            self.ctr.l1d_misses += 1;
        }
        // Table V classifies *data* misses (the paper reports "percent of
        // data misses to private regions").
        if !is_i {
            self.ctr.classified_misses += 1;
            if private {
                self.ctr.private_region_misses += 1;
            }
        }

        let (lat, serviced, dl) = if is_store {
            let r = self.write_miss(node, line, off, private, li)?;
            if md_hit {
                if private {
                    self.ev.b_write_private += 1;
                } else {
                    self.ev.c_write_shared += 1;
                }
            }
            r
        } else {
            let r = self.read_miss(node, is_i, line, li)?;
            if md_hit {
                self.ev.a_read_md_hit += 1;
                match r.1 {
                    ServicedBy::Llc | ServicedBy::LocalNs | ServicedBy::RemoteNs => {
                        self.ev.a_master_llc += 1
                    }
                    ServicedBy::Mem => self.ev.a_master_mem += 1,
                    ServicedBy::RemoteNode => self.ev.a_master_remote += 1,
                    _ => {}
                }
            }
            r
        };
        latency += lat;

        if !is_store {
            self.check_load(line, dl.version);
        }

        let way = self.install_l1(node, is_i, line, dl, now + latency)?;
        self.li_set(node, md, off, Li::L1 { way: way as u8 });

        self.ctr.miss_latency_sum += latency;
        self.ctr.miss_count += 1;
        Ok(AccessResult {
            latency,
            l1_hit: false,
            late: false,
            serviced_by: serviced,
            private_miss: Some(private),
            level: LookupLevel::L1,
        })
    }

    /// Counts a load of `line` that observed a version older than the
    /// latest store; the runner fails a run with any, in every build.
    fn check_load(&mut self, line: LineAddr, version: u64) {
        if !self.oracle.check_load(line, version) {
            self.ctr.coherence_errors += 1;
        }
    }

    /// `line`'s copy in slot `(bank, set, way)` of `arr`: the slot `li`
    /// names as the line's location.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Determinism`] when the slot holds another line or
    /// none; a deterministic LI (paper §II) never does.
    fn named_slot<'a, V: Copy>(
        arr: &'a mut Banked<V>,
        (bank, set, way): (usize, usize, usize),
        line: LineAddr,
        li: Li,
        context: &'static str,
    ) -> Result<&'a mut V, ProtocolError> {
        match arr.at_mut(bank, set, way) {
            Some((k, dl)) if k == line.raw() => Ok(dl),
            _ => Err(ProtocolError::Determinism { li, context }),
        }
    }

    // ================= metadata resolution =================

    /// MD1 → MD2 → (case D) resolution of the region holding offset `off`
    /// (see [`Resolved`]).
    fn resolve_metadata(
        &mut self,
        node: usize,
        is_i: bool,
        a: &Access,
        off: usize,
    ) -> Result<Resolved, ProtocolError> {
        let (md, region, md_hit, latency) = if self.feats.traditional_l1 {
            self.resolve_metadata_traditional(node, is_i, a)?
        } else {
            let key1 = Self::md1_key(a.vaddr.vregion().raw(), a.asid.0);
            self.ctr.md1_accesses += 1;
            self.energy.record(EnergyEvent::Md1, 1);
            let enc = self.enc;
            let md1 = if is_i { &mut self.md1i } else { &mut self.md1d };
            let set1 = md1.set_index(key1);
            if let Some(way1) = md1.way_of(node, set1, key1) {
                // An MD1 hit: the one read of the entry gives the region,
                // its private bit and this access's LI.
                self.ctr.md1_hits += 1;
                md1.touch(node, set1, way1);
                let (region, private, li) = md1
                    .at(node, set1, way1)
                    .map(|(_, e)| (e.region, e.private, e.li.get(off, enc)))
                    .expect("occupied");
                return Ok(Resolved {
                    md: MdRef::Md1 {
                        is_i,
                        set: set1,
                        way: way1,
                    },
                    region,
                    private,
                    li,
                    md_hit: true,
                    latency: 0,
                });
            }
            self.resolve_md1_miss(node, is_i, a, key1)?
        };
        Ok(Resolved {
            md,
            region,
            private: self.md_private(node, md),
            li: self.li_get(node, md, off),
            md_hit,
            latency,
        })
    }

    /// An MD1 miss: TLB2 translation, MD2 lookup (case D on an MD2 miss)
    /// and activation of the region in the MD1. Returns the active
    /// metadata reference, the physical region, whether the metadata was
    /// resident in the MD2, and the added latency.
    fn resolve_md1_miss(
        &mut self,
        node: usize,
        is_i: bool,
        a: &Access,
        key1: u64,
    ) -> Result<(MdRef, RegionAddr, bool, u64), ProtocolError> {
        let mut lat = self.cfg.lat.tlb2 + self.cfg.lat.md2;
        self.energy.record(EnergyEvent::Tlb, 1);
        let (paddr, tlb_hit) = self.tlb2[node].access(a.asid, a.vaddr);
        if !tlb_hit {
            lat += self.cfg.lat.tlb_walk;
        }
        let region = paddr.region();
        let (set2, way2, md_hit, dlat) = self.md2_lookup(node, is_i, region)?;
        let mdref = self.activate_md1(node, is_i, key1, region, set2, way2)?;
        Ok((mdref, region, md_hit, lat + dlat))
    }

    /// The MD2 lookup of `region` at `node`; on a miss, case D fetches the
    /// region's metadata from MD3 and installs it in the MD2. Returns the
    /// entry's MD2 set and way, whether it was resident, and the latency
    /// case D added.
    fn md2_lookup(
        &mut self,
        node: usize,
        is_i: bool,
        region: RegionAddr,
    ) -> Result<(usize, usize, bool, u64), ProtocolError> {
        self.ctr.md2_accesses += 1;
        self.energy.record(EnergyEvent::Md2, 1);
        let md2 = &mut self.md2;
        let set2 = md2.set_index(region.raw());
        if let Some(way2) = md2.way_of(node, set2, region.raw()) {
            self.ctr.md2_hits += 1;
            md2.touch(node, set2, way2);
            return Ok((set2, way2, true, 0));
        }
        let (private, li, dlat) = self.md3_transaction(node, region)?;
        let (set2, way2) = self.install_md2(node, region, private, li, is_i)?;
        Ok((set2, way2, false, dlat))
    }

    /// §III-A traditional front end: every access pays TLB1 + one L1 tag
    /// comparison (way prediction) instead of the MD1 lookup, and metadata
    /// resolution goes straight to the physically-tagged MD2.
    fn resolve_metadata_traditional(
        &mut self,
        node: usize,
        is_i: bool,
        a: &Access,
    ) -> Result<(MdRef, RegionAddr, bool, u64), ProtocolError> {
        self.energy.record(EnergyEvent::Tlb, 1);
        self.energy.record(EnergyEvent::L1TagWay, 1);
        let (paddr, tlb_hit) = self.tlb2[node].access(a.asid, a.vaddr);
        let mut lat = 0;
        if !tlb_hit {
            lat += self.cfg.lat.tlb_walk;
        }
        let region = paddr.region();
        let (set2, way2, md_hit, dlat) = self.md2_lookup(node, is_i, region)?;
        lat += dlat;
        if !md_hit {
            lat += self.cfg.lat.md2;
        }
        // MD1 is never used in this mode, so the MD2 entry is always
        // authoritative.
        let e2 = self.md2.at(node, set2, way2).expect("occupied").1;
        debug_assert!(e2.tp.is_none(), "traditional mode never activates MD1");
        self.switch_l1_side(node, is_i, region, set2, way2)?;
        Ok((
            MdRef::Md2 {
                set: set2,
                way: way2,
            },
            region,
            md_hit,
            lat,
        ))
    }

    /// Moves a region's active LI array into the MD1 (D2D activation),
    /// deactivating the MD1 victim back into its MD2 entry.
    fn activate_md1(
        &mut self,
        node: usize,
        is_i: bool,
        key1: u64,
        region: RegionAddr,
        md2_set: usize,
        md2_way: usize,
    ) -> Result<MdRef, ProtocolError> {
        let e2 = *self
            .md2
            .at(node, md2_set, md2_way)
            .map(|(_, e)| e)
            .expect("occupied");
        // Fold the active MD1 entry (possibly on the other side) back into
        // MD2 so the MD2 entry is authoritative while we shuffle.
        if let Some(tp) = e2.tp {
            let arr = match tp.side {
                Md1Side::Instruction => &mut self.md1i,
                Md1Side::Data => &mut self.md1d,
            };
            let (_, e1) = arr
                .remove(node, tp.set as usize, tp.way as usize)
                .expect("TP names a live MD1 entry");
            let (_, e2m) = self.md2.at_mut(node, md2_set, md2_way).expect("occupied");
            e2m.li = e1.li;
            e2m.private = e1.private;
            e2m.tp = None;
        }
        self.switch_l1_side(node, is_i, region, md2_set, md2_way)?;
        let (li, private) = self
            .md2
            .at(node, md2_set, md2_way)
            .map(|(_, e)| (e.li, e.private))
            .expect("occupied");

        let md1 = if is_i { &mut self.md1i } else { &mut self.md1d };
        let set1 = md1.set_index(key1);
        let way1 = md1.victim_way(node, set1);
        if let Some((_, victim)) = md1.remove(node, set1, way1) {
            // Deactivate the victim: its LIs flow back to its MD2 entry.
            let vkey = victim.region.raw();
            let md2 = &mut self.md2;
            let vset = md2.set_index(vkey);
            let vway = md2.way_of(node, vset, vkey).expect("metadata inclusion");
            let (_, ve) = md2.at_mut(node, vset, vway).expect("occupied");
            ve.li = victim.li;
            ve.private = victim.private;
            ve.tp = None;
        }
        let md1 = if is_i { &mut self.md1i } else { &mut self.md1d };
        md1.insert_at(
            node,
            set1,
            way1,
            key1,
            Md1Entry {
                region,
                private,
                li,
            },
        );
        let (_, e2) = self.md2.at_mut(node, md2_set, md2_way).expect("occupied");
        e2.tp = Some(TrackingPtr {
            side: if is_i {
                Md1Side::Instruction
            } else {
                Md1Side::Data
            },
            set: set1 as u16,
            way: way1 as u8,
        });
        Ok(MdRef::Md1 {
            is_i,
            set: set1,
            way: way1,
        })
    }

    /// Side switch: makes `is_i` the side of `region`, whose authoritative
    /// MD2 entry is at `(md2_set, md2_way)` in `node`. When a code region is
    /// accessed as data or vice versa, its L1-resident lines live in the
    /// other L1 array, where the new side could never find them, so they
    /// are forced out first.
    fn switch_l1_side(
        &mut self,
        node: usize,
        is_i: bool,
        region: RegionAddr,
        md2_set: usize,
        md2_way: usize,
    ) -> Result<(), ProtocolError> {
        let was_i = self
            .md2
            .at(node, md2_set, md2_way)
            .expect("occupied")
            .1
            .is_icache;
        if was_i != is_i {
            let old_kind = if was_i { ArrKind::L1I } else { ArrKind::L1D };
            for off in 0..LINES_PER_REGION {
                let li = self
                    .md2
                    .at(node, md2_set, md2_way)
                    .map(|(_, e)| e.li.get(off, self.enc))
                    .expect("occupied");
                if let Li::L1 { way: lway } = li {
                    let line = region.line(crate::meta_line_offset(off));
                    let lset = self.l1_set(line);
                    self.evict_data_line(node, old_kind, lset, lway as usize, false)?;
                }
            }
        }
        self.md2
            .at_mut(node, md2_set, md2_way)
            .expect("occupied")
            .1
            .is_icache = is_i;
        Ok(())
    }

    /// Case D: the blocking ReadMM transaction at MD3 (paper appendix D1–D4).
    /// Returns `(private, li_array, latency)`.
    fn md3_transaction(
        &mut self,
        node: usize,
        region: RegionAddr,
    ) -> Result<(bool, PackedLiArray, u64), ProtocolError> {
        let me = Endpoint::Node(NodeId::new(node as u8));
        let mut lat = self.noc.send(MsgClass::ReadMM, me, Endpoint::FarSide);
        lat += self.cfg.lat.md3;
        self.ctr.md3_accesses += 1;
        self.ev.d_md_miss += 1;
        self.energy.record(EnergyEvent::Md3, 1);
        self.lockbits.acquire(region);

        let set3 = self.md3.set_index(region.raw());
        let (private, li) = if let Some(way3) = self.md3.way_of(set3, region.raw()) {
            let entry = *self.md3.at(set3, way3).map(|(_, e)| e).expect("occupied");
            self.md3.touch(set3, way3);
            match entry.class() {
                RegionClass::Untracked => {
                    // D1: untracked → private. MD3's LIs move to the new
                    // owner; MD3 stops tracking locations.
                    self.ev.d1_untracked_to_private += 1;
                    let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
                    e3.pb = 1 << node;
                    let li = entry.li;
                    let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
                    e3.li = PackedLiArray::INVALID;
                    (true, li)
                }
                RegionClass::Private if entry.li.any_valid() => {
                    // One PB bit but valid MD3 LIs: the region lost its
                    // other sharers (pruning/spills) without ever being
                    // privately owned — MD3 is authoritative, so this is a
                    // plain shared join. Clobbering MD3's LIs with the
                    // remaining tracker's view would orphan LLC masters it
                    // never learned about.
                    self.ev.d3_shared_to_shared += 1;
                    let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
                    e3.pb |= 1 << node;
                    (false, entry.li)
                }
                RegionClass::Private => {
                    // D2: private → shared. GetMD to the single owner.
                    self.ev.d2_private_to_shared += 1;
                    let owner = entry.pb_nodes().next().expect("one PB bit").index();
                    debug_assert_ne!(owner, node, "requester cannot hold the PB bit");
                    lat += self.noc.send(
                        MsgClass::GetMd,
                        Endpoint::FarSide,
                        Endpoint::Node(NodeId::new(owner as u8)),
                    );
                    self.ctr.md2_accesses += 1;
                    self.energy.record(EnergyEvent::Md2, 1);
                    let converted = self.convert_owner_lis(owner, region)?;
                    lat += self.noc.send(
                        MsgClass::MdReply,
                        Endpoint::Node(NodeId::new(owner as u8)),
                        Endpoint::FarSide,
                    );
                    self.clear_private(owner, region);
                    let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
                    e3.li = converted;
                    e3.pb |= 1 << node;
                    (false, converted)
                }
                RegionClass::Shared => {
                    // D3: shared → shared.
                    self.ev.d3_shared_to_shared += 1;
                    let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
                    e3.pb |= 1 << node;
                    (false, entry.li)
                }
                RegionClass::Uncached => {
                    return Err(ProtocolError::CorruptMetadata {
                        context: "resident MD3 entry classified as Uncached",
                    })
                }
            }
        } else {
            // D4: uncached → private. Allocate an MD3 entry.
            self.ev.d4_uncached_to_private += 1;
            let way3 = self.md3.victim_way_with_cost(set3, |_, e: &Md3Entry| {
                u64::from(e.pb.count_ones()) * 64 + e.llc_resident_lines()
            });
            if self.md3.at(set3, way3).is_some() {
                self.evict_md3_entry(set3, way3)?;
            }
            self.md3.insert_at(
                set3,
                way3,
                region.raw(),
                Md3Entry {
                    pb: 1 << node,
                    li: PackedLiArray::INVALID,
                    llc_seen: 0,
                },
            );
            (true, PackedLiArray::MEM)
        };
        lat += self.noc.send(MsgClass::MdReply, Endpoint::FarSide, me);
        self.noc.send(MsgClass::Done, me, Endpoint::FarSide);
        Ok((private, li, lat))
    }

    /// D2 helper: the previous private owner converts its active LIs into
    /// globally-meaningful master locations. Lines whose master it holds
    /// become `Node(owner)`; its replicas contribute their RP (the true
    /// master location) so determinism survives later silent replica drops.
    fn convert_owner_lis(
        &mut self,
        owner: usize,
        region: RegionAddr,
    ) -> Result<PackedLiArray, ProtocolError> {
        let md = self
            .find_active_md(owner, region)
            .expect("PB bit implies an MD2 entry");
        let enc = self.enc;
        let mut out = PackedLiArray::INVALID;
        for off in 0..LINES_PER_REGION {
            let li = self.li_get(owner, md, off);
            let line = region.line(crate::meta_line_offset(off));
            let converted = match li {
                Li::L1 { way } => {
                    let set = self.l1_set(line);
                    let is_i = self.region_is_icache(owner, region);
                    let kind = if is_i { ArrKind::L1I } else { ArrKind::L1D };
                    let dl = *Self::named_slot(
                        self.arr_mut(kind),
                        (owner, set, way as usize),
                        line,
                        li,
                        "D2 owner LI conversion",
                    )?;
                    if dl.master {
                        Li::Node(NodeId::new(owner as u8))
                    } else {
                        // Replica: follow its RP chain (which may pass
                        // through the owner's local slice replica) to the
                        // true master.
                        self.resolve_replica_chain(line, dl.rp)?
                    }
                }
                Li::L2 { .. } => {
                    return Err(ProtocolError::UnexpectedLi {
                        li,
                        context: "D2 owner LI conversion: no D2M data array is an L2",
                    })
                }
                // A direct pointer into an LLC slot may name the owner's
                // local replica; resolve it to the true master.
                other => self.resolve_replica_chain(line, other)?,
            };
            out.set(off, converted, enc);
        }
        Ok(out)
    }

    /// Follows a chain of LLC replica slots to the true master location
    /// (a master slot, `Mem`, or a remote node).
    fn resolve_replica_chain(&self, line: LineAddr, start: Li) -> Result<Li, ProtocolError> {
        let mut cur = start;
        for _ in 0..4 {
            match cur {
                Li::LlcFs { .. } | Li::LlcNs { .. } => {
                    let (slice, way) = self.llc_slice_way(cur)?;
                    let set = self.llc_set(line, slice);
                    match self.llc.at(slice, set, way) {
                        Some((k, dl)) if k == line.raw() && !dl.master && !dl.stale => {
                            cur = dl.rp;
                        }
                        _ => return Ok(cur),
                    }
                }
                _ => return Ok(cur),
            }
        }
        Ok(cur)
    }

    /// Whether `region` is currently an instruction-side region at `node`.
    fn region_is_icache(&self, node: usize, region: RegionAddr) -> bool {
        let md2 = &self.md2;
        let set = md2.set_index(region.raw());
        md2.way_of(node, set, region.raw())
            .and_then(|w| md2.at(node, set, w))
            .map(|(_, e)| e.is_icache)
            .unwrap_or(false)
    }

    /// Installs freshly-fetched region metadata into MD2, evicting (and
    /// purging, per metadata inclusion) a victim region if needed.
    fn install_md2(
        &mut self,
        node: usize,
        region: RegionAddr,
        private: bool,
        li: PackedLiArray,
        is_i: bool,
    ) -> Result<(usize, usize), ProtocolError> {
        let md2 = &self.md2;
        let set = md2.set_index(region.raw());
        // Region-aware replacement: prefer inactive regions with few
        // node-resident lines (paper §II-A).
        let way = md2.victim_way_with_cost(node, set, |_, e: &Md2Entry| {
            e.node_resident_lines() + if e.tp.is_some() { 64 } else { 0 }
        });
        if self.md2.at(node, set, way).is_some() {
            self.evict_md2_entry(node, set, way, true)?;
        }
        self.md2.insert_at(
            node,
            set,
            way,
            region.raw(),
            Md2Entry {
                private,
                li,
                tp: None,
                is_icache: is_i,
                fills: 0,
                reuse: 0,
            },
        );
        Ok((set, way))
    }

    // ================= data serves =================

    /// Case A read path: fetch the line named by `li` and produce the L1
    /// replica to install. Returns `(latency, serviced_by, data_line)`.
    fn read_miss(
        &mut self,
        node: usize,
        is_i: bool,
        line: LineAddr,
        li: Li,
    ) -> Result<(u64, ServicedBy, DataLine), ProtocolError> {
        match li {
            // An L1 LI is an L1 hit, taken before the miss path.
            Li::L1 { .. } | Li::L2 { .. } => Err(ProtocolError::UnexpectedLi {
                li,
                context: "node-local LI on the miss path",
            }),
            Li::LlcFs { .. } | Li::LlcNs { .. } => self.serve_llc(node, is_i, line, li),
            Li::Mem | Li::Invalid => self.serve_memory(node, line),
            Li::Node(m) => self.serve_remote_node(node, line, m),
        }
    }

    /// Serves a read from an LLC slot (far-side bank or NS slice), applying
    /// the §IV-C replication heuristic when enabled.
    fn serve_llc(
        &mut self,
        node: usize,
        is_i: bool,
        line: LineAddr,
        li: Li,
    ) -> Result<(u64, ServicedBy, DataLine), ProtocolError> {
        let (slice, way) = self.llc_slice_way(li)?;
        let set = self.llc_set(line, slice);
        let slot = *Self::named_slot(&mut self.llc, (slice, set, way), line, li, "LLC read")?;
        if !slot.serveable() {
            return Err(ProtocolError::Determinism {
                li,
                context: "LLC read: the slot is a stale victim",
            });
        }
        let was_mru = self.llc.is_mru(slice, set, way);
        self.llc.touch(slice, set, way);
        self.note_region_reuse(node, line.region());

        let me = Endpoint::Node(NodeId::new(node as u8));
        let endpoint = self.llc_endpoint(slice);
        let serviced = Self::llc_serviced_by(me, endpoint);
        let mut lat = 0;
        if serviced != ServicedBy::LocalNs {
            lat = self.noc.send(MsgClass::ReadReq, me, endpoint);
            lat += self.noc.send(MsgClass::DataReply, endpoint, me);
        }
        if serviced == ServicedBy::Llc {
            lat += self.cfg.lat.llc;
            self.energy.record(EnergyEvent::LlcArray, 1);
            self.ctr.llc_fs_hits += 1;
        } else {
            lat += self.cfg.lat.ns_slice;
            self.energy.record(EnergyEvent::NsSliceArray, 1);
            let ctr = &mut self.ctr;
            let count = match (serviced == ServicedBy::LocalNs, is_i) {
                (true, true) => &mut ctr.ns_local_i,
                (true, false) => &mut ctr.ns_local_d,
                (false, true) => &mut ctr.ns_remote_i,
                (false, false) => &mut ctr.ns_remote_d,
            };
            *count += 1;
        }

        // §IV-C replication: instructions always; data read from the MRU
        // position of a remote slice.
        let mut rp = li;
        if self.feats.replication && slice != node && (is_i || was_mru) {
            rp = self.replicate_local(node, line, slot.version, li)?;
        }
        Ok((lat, serviced, DataLine::replica(slot.version, rp)))
    }

    /// Which endpoint a serve from the LLC slice at `ep` reports to a
    /// request from `me`: its own slice, the far-side LLC or a remote slice.
    fn llc_serviced_by(me: Endpoint, ep: Endpoint) -> ServicedBy {
        if ep == me {
            ServicedBy::LocalNs
        } else if ep == Endpoint::FarSide {
            ServicedBy::Llc
        } else {
            ServicedBy::RemoteNs
        }
    }

    /// Serves a read from memory. The request travels to the far side where
    /// MD3 is co-located: if MD3 already tracks an LLC master for the line
    /// (another sharer allocated it), the read is redirected there instead of
    /// creating a second master. Otherwise the fill allocates an LLC victim
    /// slot as the new master (placement per the §IV-B policy) and MD3's LI
    /// is updated in the same far-side transaction.
    fn serve_memory(
        &mut self,
        node: usize,
        line: LineAddr,
    ) -> Result<(u64, ServicedBy, DataLine), ProtocolError> {
        let me = Endpoint::Node(NodeId::new(node as u8));
        let region = line.region();
        let off = usize::from(line.region_offset());
        let mut lat = self.noc.send(MsgClass::ReadReq, me, Endpoint::FarSide);

        // Far-side MD3 peek (no separate transaction; same trip).
        let set3 = self.md3.set_index(region.raw());
        if let Some(way3) = self.md3.way_of(set3, region.raw()) {
            let tracked = self
                .md3
                .at(set3, way3)
                .map(|(_, e)| e.li.get(off, self.enc))
                .expect("occupied");
            if tracked.is_llc() {
                // Redirect to the existing LLC master.
                let (slice, way) = self.llc_slice_way(tracked)?;
                let set = self.llc_set(line, slice);
                if let Some((k, dl)) = self.llc.at(slice, set, way) {
                    if k == line.raw() && dl.serveable() {
                        let version = dl.version;
                        self.llc.touch(slice, set, way);
                        let endpoint = self.llc_endpoint(slice);
                        if endpoint != Endpoint::FarSide {
                            lat += self.noc.send(MsgClass::Fwd, Endpoint::FarSide, endpoint);
                        }
                        lat += self.noc.send(MsgClass::DataReply, endpoint, me);
                        lat += if endpoint == Endpoint::FarSide {
                            self.cfg.lat.llc
                        } else {
                            self.cfg.lat.ns_slice
                        };
                        let serviced = Self::llc_serviced_by(me, endpoint);
                        return Ok((lat, serviced, DataLine::replica(version, tracked)));
                    }
                }
            }
        }

        // Genuine memory fill.
        self.noc.offchip(MsgClass::MemRead);
        lat += self.cfg.lat.mem;
        let version = self.oracle.memory(line);
        self.ctr.mem_fills += 1;
        if self.feats.bypass && self.note_region_fill(node, region) {
            // Bypass (paper §I optimization list): a streaming region skips
            // LLC allocation entirely — the L1 copy's master stays memory,
            // and inclusion still holds for everything else.
            self.ctr.bypassed_fills += 1;
            lat += self.noc.send(MsgClass::DataReply, Endpoint::FarSide, me);
            return Ok((lat, ServicedBy::Mem, DataLine::replica(version, Li::Mem)));
        }
        let master = DataLine {
            master: true,
            ..DataLine::replica(version, Li::Mem)
        };
        let slot_li = self.alloc_llc_slot(node, line, master)?;
        // Record the new master in MD3 unless the region is private there
        // (Invalid LIs: the owner's MD2 is authoritative and gets the slot
        // via the L1 replica's RP).
        if let Some(way3) = self.md3.way_of(set3, region.raw()) {
            let enc = self.enc;
            let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
            if e3.li.is_valid(off) {
                e3.li.set(off, slot_li, enc);
            }
        }
        // Data to the requester (and implicitly to the slice on the same
        // path when the slice is the requester's own).
        let (slice, _) = self.llc_slice_way(slot_li)?;
        let slice_ep = self.llc_endpoint(slice);
        if slice_ep != me && slice_ep != Endpoint::FarSide {
            self.noc
                .send(MsgClass::DataReply, Endpoint::FarSide, slice_ep);
        }
        lat += self.noc.send(MsgClass::DataReply, Endpoint::FarSide, me);
        Ok((lat, ServicedBy::Mem, DataLine::replica(version, slot_li)))
    }

    /// Case A with a remote master node: the request goes directly to the
    /// master node (no directory), which resolves its own MD to find and
    /// serve the line.
    fn serve_remote_node(
        &mut self,
        node: usize,
        line: LineAddr,
        m: NodeId,
    ) -> Result<(u64, ServicedBy, DataLine), ProtocolError> {
        let me = Endpoint::Node(NodeId::new(node as u8));
        let remote = Endpoint::Node(m);
        let mut lat = self.noc.send(MsgClass::ReadReq, me, remote);
        // The master node resolves through its MD2 (and MD1 if active).
        self.ctr.md2_accesses += 1;
        self.energy.record(EnergyEvent::Md2, 1);
        lat += self.cfg.lat.md2 + self.cfg.lat.l1;
        match self.node_slot_of(m.index(), line) {
            Some((kind, set, way)) => {
                self.energy.record(EnergyEvent::L1Array, 1);
                let arr = self.arr_mut(kind);
                let (_, dl) = arr.at_mut(m.index(), set, way).expect("occupied");
                debug_assert!(dl.master, "MD3/LIs said node {m} holds the master");
                dl.excl = false; // a replica now exists elsewhere
                let version = dl.version;
                lat += self.noc.send(MsgClass::DataReply, remote, me);
                self.ctr.remote_node_reads += 1;
                Ok((
                    lat,
                    ServicedBy::RemoteNode,
                    DataLine::replica(version, Li::Node(m)),
                ))
            }
            None => Err(ProtocolError::Determinism {
                li: Li::Node(m),
                context: "direct-to-master read: the node lacks the line",
            }),
        }
    }

    // ================= writes =================

    /// Store to a line already in L1. Returns added latency.
    fn write_hit(
        &mut self,
        node: usize,
        line: LineAddr,
        off: usize,
        private: bool,
        set: usize,
        way: usize,
    ) -> Result<u64, ProtocolError> {
        let slot = *self
            .arr(ArrKind::L1D)
            .at(node, set, way)
            .map(|(_, dl)| dl)
            .expect("checked by caller");
        let mut lat = 0;
        let mut rp = slot.rp;
        if slot.master {
            if !slot.excl && !private {
                // Master without exclusivity (replicas exist): shared-region
                // invalidation round (case C without a data fetch).
                self.ev.c_write_shared += 1;
                let (l, _victim, _v, _s) = self.case_c_invalidate(node, line, off, false)?;
                lat += l;
            }
        } else if private {
            // Case B at hit granularity: silent upgrade (paper §IV-A).
            self.ev.silent_upgrades += 1;
            rp = self.collapse_chain(slot.rp, line)?;
        } else {
            // Shared-region upgrade: full case C (data already local).
            self.ev.c_write_shared += 1;
            let (l, victim, _v, _s) = self.case_c_invalidate(node, line, off, false)?;
            lat += l;
            // Our own slice replica (if the chain had one) would otherwise
            // survive with stale data.
            self.purge_local_slice_replica(node, line);
            // Only a victim location produced by the case-C round is usable
            // as the new master's RP. The replica's own RP is *not* one — it
            // names the master (or the local replication chain, which the
            // purge below removes) — so default to memory when the round
            // yielded none.
            rp = match victim {
                Some(v) if !matches!(v, Li::Node(_)) => v,
                _ => Li::Mem,
            };
            if rp == Li::Mem {
                rp = self.alloc_llc_slot(node, line, VICTIM_SLOT)?;
            }
        }
        let version = self.oracle.on_store(line);
        let arr = self.arr_mut(ArrKind::L1D);
        let (_, dl) = arr.at_mut(node, set, way).expect("occupied");
        dl.master = true;
        dl.excl = true;
        dl.dirty = true;
        dl.version = version;
        dl.rp = rp;
        Ok(lat)
    }

    /// Store miss: acquire the line with write permission (cases B and C).
    fn write_miss(
        &mut self,
        node: usize,
        line: LineAddr,
        off: usize,
        private: bool,
        li: Li,
    ) -> Result<(u64, ServicedBy, DataLine), ProtocolError> {
        if private {
            // Case B: direct read from the master, silent promotion.
            let (lat, serviced, fetched) = self.read_miss(node, false, line, li)?;
            self.check_load(line, fetched.version);
            let downstream = self.collapse_chain(fetched.rp, line)?;
            let victim = if downstream == Li::Mem {
                self.alloc_llc_slot(node, line, VICTIM_SLOT)?
            } else {
                downstream
            };
            let version = self.oracle.on_store(line);
            Ok((lat, serviced, DataLine::master(version, true, victim)))
        } else {
            // Case C: blocking MD3 round with invalidations.
            let (lat, victim, fetched_version, serviced) =
                self.case_c_invalidate(node, line, off, true)?;
            self.purge_local_slice_replica(node, line);
            self.check_load(line, fetched_version);
            let victim = match victim {
                Some(v) if v != Li::Mem => v,
                _ => self.alloc_llc_slot(node, line, VICTIM_SLOT)?,
            };
            let version = self.oracle.on_store(line);
            Ok((lat, serviced, DataLine::master(version, true, victim)))
        }
    }

    /// Case C: the blocking write round for shared regions. Demotes the old
    /// master (named by MD3's LI), invalidates every PB node's copies,
    /// repoints their LIs to the writer, and updates MD3. Returns
    /// `(latency, victim_location, data_version, serviced_by)`.
    fn case_c_invalidate(
        &mut self,
        node: usize,
        line: LineAddr,
        off: usize,
        fetch_data: bool,
    ) -> Result<(u64, Option<Li>, u64, ServicedBy), ProtocolError> {
        let me = Endpoint::Node(NodeId::new(node as u8));
        let region = line.region();
        let mut lat = self.noc.send(MsgClass::ReadEx, me, Endpoint::FarSide);
        lat += self.cfg.lat.md3;
        self.ctr.md3_accesses += 1;
        self.energy.record(EnergyEvent::Md3, 1);
        self.lockbits.acquire(region);

        let set3 = self.md3.set_index(region.raw());
        let way3 = self
            .md3
            .way_of(set3, region.raw())
            .expect("metadata inclusion: writer's MD2 entry implies an MD3 entry");
        let entry = *self.md3.at(set3, way3).map(|(_, e)| e).expect("occupied");

        // --- demote the old master & fetch the data ---
        let old = entry.li.get(off, self.enc);
        let mut victim = None;
        let mut version = 0;
        let mut serviced = ServicedBy::Llc;
        let mut master_node: Option<usize> = None;
        match old {
            Li::LlcFs { .. } | Li::LlcNs { .. } => {
                let (slice, way) = self.llc_slice_way(old)?;
                let set = self.llc_set(line, slice);
                let dl = Self::named_slot(
                    &mut self.llc,
                    (slice, set, way),
                    line,
                    old,
                    "case C: demoting the LLC master",
                )?;
                version = dl.version;
                dl.master = false;
                dl.stale = true;
                victim = Some(old);
                let ep = self.llc_endpoint(slice);
                if fetch_data {
                    if ep != Endpoint::FarSide {
                        lat += self.noc.send(MsgClass::Fwd, Endpoint::FarSide, ep);
                    }
                    lat += self.noc.send(MsgClass::DataReply, ep, me);
                    serviced = Self::llc_serviced_by(me, ep);
                }
            }
            Li::Mem | Li::Invalid => {
                version = self.oracle.memory(line);
                if fetch_data {
                    self.noc.offchip(MsgClass::MemRead);
                    lat += self.cfg.lat.mem;
                    lat += self.noc.send(MsgClass::DataReply, Endpoint::FarSide, me);
                    serviced = ServicedBy::Mem;
                }
            }
            Li::Node(m) if m.index() == node => {
                // The writer already holds the master (an O→M upgrade).
                if let Some((kind, s, w)) = self.node_slot_of(node, line) {
                    let arr = self.arr(kind);
                    version = arr
                        .at(node, s, w)
                        .map(|(_, dl)| dl.version)
                        .expect("occupied");
                }
                serviced = ServicedBy::L1;
            }
            Li::Node(m) => {
                master_node = Some(m.index());
                let remote = Endpoint::Node(m);
                lat += self
                    .noc
                    .send(MsgClass::ReadExReq, Endpoint::FarSide, remote);
                self.ctr.md2_accesses += 1;
                self.energy.record(EnergyEvent::Md2, 1);
                lat += self.cfg.lat.md2 + self.cfg.lat.l1;
                let Some((kind, s, w)) = self.node_slot_of(m.index(), line) else {
                    return Err(ProtocolError::Determinism {
                        li: old,
                        context: "case C: the old master node lacks the line",
                    });
                };
                let dl = *self
                    .arr(kind)
                    .at(m.index(), s, w)
                    .map(|(_, dl)| dl)
                    .expect("occupied");
                version = dl.version;
                // Inherit the old master's victim slot if it has one.
                if dl.rp.is_llc() {
                    victim = Some(dl.rp);
                }
                self.purge_node_line(m.index(), line);
                if let Some(mdm) = self.find_active_md(m.index(), region) {
                    self.li_set(m.index(), mdm, off, Li::Node(NodeId::new(node as u8)));
                }
                if fetch_data {
                    lat += self.noc.send(MsgClass::DataReply, remote, me);
                    serviced = ServicedBy::RemoteNode;
                }
            }
            Li::L1 { .. } | Li::L2 { .. } => {
                return Err(ProtocolError::UnexpectedLi {
                    li: old,
                    context: "MD3 LIs are global, found a node-local LI",
                })
            }
        }

        // --- invalidate the PB nodes (region-grain multicast) ---
        let mut prune_candidates = std::mem::take(&mut self.scratch_prune);
        prune_candidates.clear();
        let mut inv_lat = 0;
        for t in entry.pb_nodes().map(|n| n.index()) {
            if t == node || Some(t) == master_node {
                continue;
            }
            inv_lat = inv_lat.max(self.noc.send(
                MsgClass::Inv,
                Endpoint::FarSide,
                Endpoint::Node(NodeId::new(t as u8)),
            ));
            self.ctr.invalidations_received += 1;
            self.ctr.md2_accesses += 1;
            self.energy.record(EnergyEvent::Md2, 1);
            let had = self.purge_node_line(t, line);
            if !had {
                self.ctr.false_invalidations += 1;
            }
            if let Some(mdt) = self.find_active_md(t, region) {
                self.li_set(t, mdt, off, Li::Node(NodeId::new(node as u8)));
            }
            inv_lat = inv_lat.max(self.noc.send(
                MsgClass::Ack,
                Endpoint::Node(NodeId::new(t as u8)),
                me,
            ));
            prune_candidates.push(t);
        }
        lat += inv_lat;

        let enc = self.enc;
        let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
        e3.li.set(off, Li::Node(NodeId::new(node as u8)), enc);
        self.noc.send(MsgClass::Done, me, Endpoint::FarSide);

        // MD2 pruning heuristic (paper §IV-A): nodes that received an
        // invalidation for a region they no longer use drop their MD2 entry.
        for t in prune_candidates.drain(..) {
            self.md2_prune_check(t, region)?;
        }
        self.scratch_prune = prune_candidates;
        Ok((lat, victim, version, serviced))
    }

    /// Removes every copy of `line` at node `t` (L1 arrays and, for NS
    /// systems, replicas in `t`'s local slice). Returns whether any copy
    /// existed (false-invalidation accounting).
    fn purge_node_line(&mut self, t: usize, line: LineAddr) -> bool {
        let in_l1 = self.node_slot_of(t, line);
        if let Some((kind, set, way)) = in_l1 {
            self.arr_mut(kind).remove(t, set, way);
        }
        let in_slice = self.purge_local_slice_replica(t, line);
        in_l1.is_some() || in_slice
    }

    /// Drops the node's own slice replica of `line` (if any) so a write
    /// upgrade cannot leave an orphaned stale-but-serveable copy behind.
    /// Stale victim slots stay: a master's RP may target them. Returns
    /// whether a replica was dropped.
    fn purge_local_slice_replica(&mut self, node: usize, line: LineAddr) -> bool {
        if !self.feats.near_side {
            return false;
        }
        let set = self.llc_set(line, node);
        let Some(way) = self.llc.way_of(node, set, line.raw()) else {
            return false;
        };
        let is_replica = self
            .llc
            .at(node, set, way)
            .is_some_and(|(_, dl)| !dl.master && !dl.stale);
        if is_replica {
            self.llc.remove(node, set, way);
        }
        is_replica
    }

    /// §IV-A pruning: drop `t`'s MD2 entry for `region` if it tracks nothing
    /// locally and is not MD1-active.
    fn md2_prune_check(&mut self, t: usize, region: RegionAddr) -> Result<(), ProtocolError> {
        let md2 = &self.md2;
        let set = md2.set_index(region.raw());
        let Some(way) = md2.way_of(t, set, region.raw()) else {
            return Ok(());
        };
        let e = md2.at(t, set, way).map(|(_, e)| *e).expect("occupied");
        if e.tp.is_none() && e.node_resident_lines() == 0 {
            self.evict_md2_entry(t, set, way, true)?;
            self.ctr.md2_prunes += 1;
        }
        Ok(())
    }

    /// Collapses a replica RP chain for a silent write upgrade: local
    /// replica slots along the chain are dropped, the final master slot is
    /// demoted to a stale victim, and its location is returned as the new
    /// master's RP (or `Mem`).
    fn collapse_chain(&mut self, start: Li, line: LineAddr) -> Result<Li, ProtocolError> {
        let mut cur = start;
        for _ in 0..4 {
            match cur {
                Li::LlcFs { .. } | Li::LlcNs { .. } => {
                    let (slice, way) = self.llc_slice_way(cur)?;
                    let set = self.llc_set(line, slice);
                    let dl = Self::named_slot(
                        &mut self.llc,
                        (slice, set, way),
                        line,
                        cur,
                        "silent upgrade: collapsing the RP chain",
                    )?;
                    if dl.master {
                        dl.master = false;
                        dl.stale = true;
                        return Ok(cur);
                    }
                    if dl.stale {
                        // Already a victim slot reserved for us.
                        return Ok(cur);
                    }
                    let next = dl.rp;
                    self.llc.remove(slice, set, way);
                    cur = next;
                }
                Li::Mem | Li::Invalid => return Ok(Li::Mem),
                // Private regions cannot have remote masters, and RP chains
                // hold only global locations.
                Li::Node(_) | Li::L1 { .. } | Li::L2 { .. } => {
                    return Err(ProtocolError::UnexpectedLi {
                        li: cur,
                        context: "silent upgrade: RP chain element",
                    })
                }
            }
        }
        Ok(Li::Mem)
    }

    // ================= placement & replication =================

    /// The LLC way `line` is to occupy in `(slice, set)`: the slot it
    /// already holds (a stale victim or replica slot is reused — the same
    /// line must never occupy two ways of one set), or else the LRU victim,
    /// with its occupant evicted.
    fn llc_way_for(&mut self, slice: usize, set: usize, line: LineAddr) -> usize {
        if let Some(existing) = self.llc.way_of(slice, set, line.raw()) {
            return existing;
        }
        let way = self.llc.victim_way(slice, set);
        if self.llc.at(slice, set, way).is_some() {
            self.evict_llc_slot(slice, set, way);
        }
        way
    }

    /// Allocates an LLC slot holding `dl` for `line`, in the way
    /// [`Self::llc_way_for`] picks, and returns its location: a clean master
    /// for a memory fill, or a [`VICTIM_SLOT`] for a new node-held master.
    fn alloc_llc_slot(
        &mut self,
        node: usize,
        line: LineAddr,
        dl: DataLine,
    ) -> Result<Li, ProtocolError> {
        let slice = self.pick_slice(node);
        let set = self.llc_set(line, slice);
        let way = self.llc_way_for(slice, set, line);
        self.llc_place(slice, set, way, line, dl)?;
        Ok(self.li_of_llc(slice, way))
    }

    /// Places `dl` for `line` in an LLC slot and marks the line's offset in
    /// its region's MD3 `llc_seen` index. Every LLC insert goes through
    /// here, which keeps the index a superset of the resident offsets.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptMetadata`] if the region has no MD3 entry: an
    /// LLC line outside MD3 breaks metadata inclusion.
    fn llc_place(
        &mut self,
        slice: usize,
        set: usize,
        way: usize,
        line: LineAddr,
        dl: DataLine,
    ) -> Result<(), ProtocolError> {
        let region = line.region();
        let set3 = self.md3.set_index(region.raw());
        let Some(way3) = self.md3.way_of(set3, region.raw()) else {
            return Err(ProtocolError::CorruptMetadata {
                context: "LLC insert for a region without an MD3 entry",
            });
        };
        let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
        e3.llc_seen |= 1 << line.region_offset().raw();
        self.llc.insert_at(slice, set, way, line.raw(), dl);
        Ok(())
    }

    fn pick_slice(&mut self, node: usize) -> usize {
        if self.feats.near_side {
            let s = self.choose_ns_slice(node);
            if s == node {
                self.ctr.ns_alloc_local += 1;
            } else {
                self.ctr.ns_alloc_remote += 1;
            }
            s
        } else {
            0
        }
    }

    /// §IV-C: replicate a line read from a remote slice into the local
    /// slice; returns the local replica's location (the L1 copy's new RP).
    fn replicate_local(
        &mut self,
        node: usize,
        line: LineAddr,
        version: u64,
        master_li: Li,
    ) -> Result<Li, ProtocolError> {
        let set = self.llc_set(line, node);
        if let Some(way) = self.llc.way_of(node, set, line.raw()) {
            // Already present locally (replica or master): reuse.
            return Ok(self.li_of_llc(node, way));
        }
        let way = self.llc.victim_way(node, set);
        if self.llc.at(node, set, way).is_some() {
            self.evict_llc_slot(node, set, way);
        }
        self.llc_place(node, set, way, line, DataLine::replica(version, master_li))?;
        self.ctr.replications += 1;
        self.energy.record(EnergyEvent::NsSliceArray, 1);
        Ok(self.li_of_llc(node, way))
    }

    // ================= evictions =================

    /// Installs `dl` for `line` in `node`'s L1, its fill completing at
    /// node-local cycle `ready_at`, evicting the victim first (cases E/F or
    /// a silent replica drop). Returns the way used.
    fn install_l1(
        &mut self,
        node: usize,
        is_i: bool,
        line: LineAddr,
        dl: DataLine,
        ready_at: u64,
    ) -> Result<usize, ProtocolError> {
        let kind = if is_i { ArrKind::L1I } else { ArrKind::L1D };
        let set = self.l1_set(line);
        let way = self.arr(kind).victim_way(node, set);
        if self.arr(kind).at(node, set, way).is_some() {
            self.evict_data_line(node, kind, set, way, false)?;
        }
        let slot = L1Line { data: dl, ready_at };
        self.arr_mut(kind)
            .insert_at(node, set, way, line.raw(), slot);
        Ok(way)
    }

    /// Evicts one L1 line: silent for replicas (LI := RP), copy-to-victim
    /// plus LI flip for masters (case E), with the EvictReq/NewMaster round
    /// for shared regions (case F). `quiet` suppresses all messaging and
    /// cross-node fixes during global purges.
    pub(crate) fn evict_data_line(
        &mut self,
        node: usize,
        kind: ArrKind,
        set: usize,
        way: usize,
        quiet: bool,
    ) -> Result<(), ProtocolError> {
        let (key, slot) = match self.arr_mut(kind).remove(node, set, way) {
            Some(x) => x,
            None => return Ok(()),
        };
        let line = LineAddr::new(key);
        let region = line.region();
        let off = usize::from(line.region_offset());
        let md = self.find_active_md(node, region);

        if !slot.master {
            let li_here = Li::L1 { way: way as u8 };
            // Silent replica drop: the LI falls back to the master location.
            if let Some(md) = md {
                if self.li_get(node, md, off) == li_here {
                    self.li_set(node, md, off, slot.rp);
                }
            }
            return Ok(());
        }

        debug_assert!(slot.dirty, "node-held masters are always dirty");
        let me = Endpoint::Node(NodeId::new(node as u8));
        let private = md.map(|m| self.md_private(node, m)).unwrap_or(true);
        // Copy the data to the victim location named by the RP.
        let victim = match slot.rp {
            Li::LlcFs { .. } | Li::LlcNs { .. } => {
                let (slice, vway) = self.llc_slice_way(slot.rp)?;
                let vset = self.llc_set(line, slice);
                let vdl = Self::named_slot(
                    &mut self.llc,
                    (slice, vset, vway),
                    line,
                    slot.rp,
                    "master eviction: the RP's victim slot",
                )?;
                vdl.master = true;
                vdl.excl = false;
                vdl.dirty = true;
                vdl.stale = false;
                vdl.version = slot.version;
                let ep = self.llc_endpoint(slice);
                if !quiet {
                    self.noc.send(MsgClass::WbData, me, ep);
                }
                slot.rp
            }
            Li::Mem | Li::Invalid => {
                self.noc.offchip(MsgClass::MemWrite);
                self.oracle.write_memory(line, slot.version);
                Li::Mem
            }
            other @ (Li::Node(_) | Li::L1 { .. } | Li::L2 { .. }) => {
                return Err(ProtocolError::UnexpectedLi {
                    li: other,
                    context: "master eviction: an RP must name a victim location",
                })
            }
        };

        if let Some(md) = md {
            self.li_set(node, md, off, victim);
        }

        if private || quiet {
            if !quiet {
                self.ev.e_evict_private += 1;
            }
            // Private regions: no other node can reference us; done.
            return Ok(());
        }

        // Case F: shared region — repoint everyone tracking Node(self).
        self.ev.f_evict_shared += 1;
        self.noc.send(MsgClass::EvictReq, me, Endpoint::FarSide);
        self.ctr.md3_accesses += 1;
        self.energy.record(EnergyEvent::Md3, 1);
        self.lockbits.acquire(region);
        let (mask, _md3_fixed) = self.retarget(line, Li::Node(NodeId::new(node as u8)), victim);
        for t in 0..self.cfg.nodes {
            if t == node || mask & (1 << t) == 0 {
                continue;
            }
            self.noc.send(
                MsgClass::NewMaster,
                Endpoint::FarSide,
                Endpoint::Node(NodeId::new(t as u8)),
            );
            self.noc
                .send(MsgClass::Ack, Endpoint::Node(NodeId::new(t as u8)), me);
        }
        self.noc.send(MsgClass::Done, me, Endpoint::FarSide);
        Ok(())
    }

    /// Evicts one LLC slot (replacement): masters fall back to memory with a
    /// NewMaster/RpFix fan-out to whoever pointed here; stale victims fix
    /// their master's RP; replicas fix their owner's chain.
    pub(crate) fn evict_llc_slot(&mut self, slice: usize, set: usize, way: usize) {
        let Some((key, slot)) = self.llc.remove(slice, set, way) else {
            return;
        };
        self.pressure[slice] += 1;
        let line = LineAddr::new(key);
        let from = self.li_of_llc(slice, way);
        let to = if slot.master {
            if slot.dirty {
                self.noc.offchip(MsgClass::MemWrite);
                self.oracle.write_memory(line, slot.version);
            }
            Li::Mem
        } else if slot.stale {
            // The owner's master keeps its data; its victim just moved to
            // memory.
            Li::Mem
        } else {
            // NS replica: chains fall back to the true master.
            slot.rp
        };
        let (mask, md3_fixed) = self.retarget(line, from, to);
        // Update messages to remote trackers (slice-local fixes are free).
        let class = if slot.master {
            MsgClass::NewMaster
        } else {
            MsgClass::RpFix
        };
        let slice_ep = self.llc_endpoint(slice);
        for t in 0..self.cfg.nodes {
            if mask & (1 << t) == 0 {
                continue;
            }
            self.noc
                .send(class, slice_ep, Endpoint::Node(NodeId::new(t as u8)));
        }
        if md3_fixed && slice_ep != Endpoint::FarSide {
            self.noc.send(class, slice_ep, Endpoint::FarSide);
        }
    }

    /// Evicts a node's MD2 entry: metadata inclusion forces out every line
    /// the region tracks inside the node, then the final LIs spill to MD3
    /// and the node's PB bit clears.
    pub(crate) fn evict_md2_entry(
        &mut self,
        node: usize,
        set: usize,
        way: usize,
        notify: bool,
    ) -> Result<(), ProtocolError> {
        let Some((key, entry)) = self.md2.at(node, set, way).map(|(k, e)| (k, *e)) else {
            return Ok(());
        };
        let region = RegionAddr::new(key);
        self.ctr.md2_evictions += 1;

        // Fold the active MD1 entry (if any) back in, so the resident MD2
        // entry is authoritative during the forced evictions.
        if let Some(tp) = entry.tp {
            let arr = match tp.side {
                Md1Side::Instruction => &mut self.md1i,
                Md1Side::Data => &mut self.md1d,
            };
            let (_, e1) = arr
                .remove(node, tp.set as usize, tp.way as usize)
                .expect("TP names a live MD1 entry");
            let (_, e2) = self.md2.at_mut(node, set, way).expect("occupied");
            e2.li = e1.li;
            e2.private = e1.private;
            e2.tp = None;
        }

        // Forced eviction of node-resident lines (and local-slice replicas).
        // An eviction can re-point the LI at another node-resident location
        // (e.g. L1 replica → local slice replica), so iterate per line until
        // the LI stabilizes on a global location.
        let is_i = self.region_is_icache(node, region);
        let enc = self.enc;
        for off in 0..LINES_PER_REGION {
            let line = region.line(crate::meta_line_offset(off));
            for _ in 0..4 {
                let li = self
                    .md2
                    .at(node, set, way)
                    .map(|(_, e)| e.li.get(off, enc))
                    .expect("occupied");
                match li {
                    Li::L1 { way: lway } => {
                        let kind = if is_i { ArrKind::L1I } else { ArrKind::L1D };
                        let lset = self.l1_set(line);
                        self.evict_data_line(node, kind, lset, lway as usize, !notify)?;
                    }
                    Li::L2 { .. } => {
                        return Err(ProtocolError::UnexpectedLi {
                            li,
                            context: "MD2 eviction: no D2M data array is an L2",
                        })
                    }
                    Li::LlcNs { node: n, way: lway }
                        if n.index() == node && self.feats.near_side =>
                    {
                        let lset = self.llc_set(line, node);
                        let is_replica = self
                            .llc
                            .at(node, lset, lway as usize)
                            .is_some_and(|(k, dl)| k == line.raw() && !dl.master && !dl.stale);
                        if !is_replica {
                            break; // a master/victim slot in our slice may stay
                        }
                        let rp = self
                            .llc
                            .at(node, lset, lway as usize)
                            .map(|(_, dl)| dl.rp)
                            .expect("occupied");
                        self.llc.remove(node, lset, lway as usize);
                        let (_, e2) = self.md2.at_mut(node, set, way).expect("occupied");
                        e2.li.set(off, rp, enc);
                    }
                    _ => break,
                }
            }
        }

        let final_li = self
            .md2
            .at(node, set, way)
            .map(|(_, e)| e.li)
            .expect("occupied");
        self.md2.remove(node, set, way);

        if notify {
            self.noc.send(
                MsgClass::Md2Spill,
                Endpoint::Node(NodeId::new(node as u8)),
                Endpoint::FarSide,
            );
            self.energy.record(EnergyEvent::Md3, 1);
            let set3 = self.md3.set_index(region.raw());
            if let Some(way3) = self.md3.way_of(set3, region.raw()) {
                let (_, e3) = self.md3.at_mut(set3, way3).expect("occupied");
                e3.pb &= !(1 << node);
                // If we were the private owner, MD3's LIs were invalid: our
                // final LIs (all global now) re-seed them.
                if e3.li.all_invalid() {
                    debug_assert!(
                        final_li.node_local_mask() == 0,
                        "spill must upload only global LIs: {final_li:?}"
                    );
                    e3.li = final_li;
                }
            }
        }
        Ok(())
    }

    /// Evicts one MD3 entry: a global purge of the region (every PB node's
    /// MD2 entry plus all LLC-resident lines go; dirty data drains to
    /// memory).
    pub(crate) fn evict_md3_entry(
        &mut self,
        set3: usize,
        way3: usize,
    ) -> Result<(), ProtocolError> {
        let Some((key, entry)) = self.md3.at(set3, way3).map(|(k, e)| (k, *e)) else {
            return Ok(());
        };
        let region = RegionAddr::new(key);
        self.ctr.md3_evictions += 1;

        for t in entry.pb_nodes().map(|n| n.index()) {
            self.noc.send(
                MsgClass::Inv,
                Endpoint::FarSide,
                Endpoint::Node(NodeId::new(t as u8)),
            );
            self.ctr.invalidations_received += 1;
            let md2 = &self.md2;
            let s2 = md2.set_index(region.raw());
            if let Some(w2) = md2.way_of(t, s2, region.raw()) {
                self.evict_md2_entry(t, s2, w2, false)?;
            }
            self.noc.send(
                MsgClass::Ack,
                Endpoint::Node(NodeId::new(t as u8)),
                Endpoint::FarSide,
            );
        }

        // Sweep the region's lines out of every LLC slice. Only offsets in
        // `llc_seen` can be resident there, and the mask is read only now:
        // the MD2 evictions above can park masters in LLC victim slots.
        let seen = self.md3.at(set3, way3).expect("occupied").1.llc_seen;
        for slice in 0..self.llc.banks() {
            let mut mask = seen;
            while mask != 0 {
                let line = region.line(LineOffset::new(mask.trailing_zeros() as u8));
                mask &= mask - 1;
                let set = self.llc_set(line, slice);
                if let Some(way) = self.llc.way_of(slice, set, line.raw()) {
                    let (_, dl) = self.llc.at(slice, set, way).expect("occupied");
                    if dl.master && dl.dirty {
                        self.noc.offchip(MsgClass::MemWrite);
                        self.oracle.write_memory(line, dl.version);
                    }
                    self.llc.remove(slice, set, way);
                }
            }
        }
        self.md3.remove(set3, way3);
        Ok(())
    }

    /// Bumps the bypass predictor's fill counter for `region` at `node`;
    /// returns the current streaming prediction.
    fn note_region_fill(&mut self, node: usize, region: RegionAddr) -> bool {
        let md2 = &mut self.md2;
        let set = md2.set_index(region.raw());
        let Some(way) = md2.way_of(node, set, region.raw()) else {
            return false;
        };
        let (_, e) = md2.at_mut(node, set, way).expect("occupied");
        let streaming = e.predicts_streaming();
        e.fills = e.fills.saturating_add(1);
        streaming
    }

    /// Records an LLC-level reuse hit for the bypass predictor.
    fn note_region_reuse(&mut self, node: usize, region: RegionAddr) {
        if !self.feats.bypass {
            return;
        }
        let md2 = &mut self.md2;
        let set = md2.set_index(region.raw());
        if let Some(way) = md2.way_of(node, set, region.raw()) {
            let (_, e) = md2.at_mut(node, set, way).expect("occupied");
            e.reuse = e.reuse.saturating_add(1);
        }
    }
}
