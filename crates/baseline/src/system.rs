//! The Base-2L / Base-3L hierarchy with a MESI full-map directory.
//!
//! Protocol summary (per access, executed atomically):
//!
//! 1. TLB1 translate (walk latency on miss).
//! 2. L1 lookup (one tag comparison — perfect way prediction, §V-A).
//! 3. Base-3L only: L2 lookup (full 8-way tag search).
//! 4. Far side: directory + 32-way LLC tag search. Reads may be forwarded to
//!    a remote owner (3-hop miss); writes invalidate sharers through the
//!    directory. LLC misses fetch from memory and may back-invalidate nodes
//!    to preserve inclusion.
//!
//! Directory state per LLC line: `owner` (node holding M/E) and a `sharers`
//! superset (S-state evictions are silent, so invalidations can be "false" —
//! counted, as Table V does). Every load is validated against the
//! [`VersionOracle`].

use d2m_cache::{SetAssoc, Tlb};
use d2m_common::addr::{LineAddr, NodeId};
use d2m_common::config::MachineConfig;
use d2m_common::oracle::VersionOracle;
use d2m_common::outcome::{AccessResult, AccessTally, ServicedBy};
use d2m_common::probe::LookupLevel;
use d2m_common::stats::Counters;
use d2m_energy::{EnergyAccount, EnergyEvent, EnergyModel};
use d2m_noc::{Endpoint, MsgClass, Noc};
use d2m_workloads::Access;

use crate::counters::BaselineCounters;

/// Which baseline to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BaselineKind {
    /// L1 + shared LLC (paper Base-2L, mobile-class).
    TwoLevel,
    /// L1 + private L2 + shared LLC (paper Base-3L, server-class).
    ThreeLevel,
}

impl BaselineKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::TwoLevel => "Base-2L",
            BaselineKind::ThreeLevel => "Base-3L",
        }
    }
}

/// MESI states for private copies (Invalid = absent).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mesi {
    Modified,
    Exclusive,
    Shared,
}

/// One line in a private cache (L1 or L2).
#[derive(Clone, Copy, Debug)]
struct PrivLine {
    state: Mesi,
    version: u64,
    /// Node-local cycle at which the fill completes (late-hit modelling).
    ready_at: u64,
}

/// One line in the shared LLC, with its embedded directory entry.
#[derive(Clone, Copy, Debug)]
struct LlcLine {
    dirty: bool,
    version: u64,
    /// Node holding this line in M or E (may be stale after silent E drops).
    owner: Option<u8>,
    /// Superset of nodes holding this line in S.
    sharers: u8,
}

struct BaseNode {
    tlb: Tlb,
    l1i: SetAssoc<PrivLine>,
    l1d: SetAssoc<PrivLine>,
    l2: Option<SetAssoc<PrivLine>>,
}

/// A Base-2L or Base-3L system (see crate docs).
pub struct Baseline {
    kind: BaselineKind,
    cfg: MachineConfig,
    nodes: Vec<BaseNode>,
    llc: SetAssoc<LlcLine>,
    noc: Noc,
    energy: EnergyAccount,
    oracle: VersionOracle,
    tally: AccessTally,
    ctr: BaselineCounters,
}

impl Baseline {
    /// Builds a baseline system from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: &MachineConfig, kind: BaselineKind) -> Self {
        cfg.validate().expect("invalid machine config");
        let nodes = (0..cfg.nodes)
            .map(|_| BaseNode {
                tlb: Tlb::new(cfg.tlb.sets, cfg.tlb.ways),
                l1i: SetAssoc::new(cfg.l1i.sets, cfg.l1i.ways),
                l1d: SetAssoc::new(cfg.l1d.sets, cfg.l1d.ways),
                l2: match kind {
                    BaselineKind::TwoLevel => None,
                    BaselineKind::ThreeLevel => Some(SetAssoc::new(cfg.l2.sets, cfg.l2.ways)),
                },
            })
            .collect();
        Self {
            kind,
            cfg: cfg.clone(),
            nodes,
            llc: SetAssoc::new(cfg.llc.sets, cfg.llc.ways),
            noc: Noc::new(cfg.lat.noc),
            energy: EnergyAccount::new(EnergyModel::default()),
            oracle: VersionOracle::new(),
            tally: AccessTally::default(),
            ctr: BaselineCounters::default(),
        }
    }

    /// The modelled configuration.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Raw event counters.
    pub fn raw_counters(&self) -> &BaselineCounters {
        &self.ctr
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

    /// Total SRAM capacity in KB for leakage accounting (arrays + tags +
    /// TLB + directory).
    pub fn sram_kb(&self) -> f64 {
        let n = self.cfg.nodes as f64;
        let l1 = (self.cfg.l1i.capacity_bytes() + self.cfg.l1d.capacity_bytes()) as f64;
        let l1_tags = ((self.cfg.l1i.entries() + self.cfg.l1d.entries()) * 6) as f64;
        let tlb = (self.cfg.tlb.entries() * 8) as f64;
        let l2 = match self.kind {
            BaselineKind::TwoLevel => 0.0,
            BaselineKind::ThreeLevel => {
                (self.cfg.l2.capacity_bytes() + self.cfg.l2.entries() * 6) as f64
            }
        };
        let llc = self.cfg.llc.capacity_bytes() as f64;
        let llc_tags = (self.cfg.llc.entries() * 6) as f64;
        let dir = (self.cfg.llc.entries() * 2) as f64;
        (n * (l1 + l1_tags + tlb + l2) + llc + llc_tags + dir) / 1024.0
    }

    /// Named counter snapshot (per-access tally + events + oracle
    /// violations + messages).
    pub fn counters(&self) -> Counters {
        let mut c = self.ctr.to_counters();
        self.tally.export(&mut c);
        c.set("coherence_errors", self.oracle.violations());
        c.merge_prefixed("noc.", &self.noc.counters());
        c
    }

    /// Coherence-oracle violations seen so far (must stay zero).
    pub fn coherence_errors(&self) -> u64 {
        self.oracle.violations()
    }

    fn node_bit(n: usize) -> u8 {
        1u8 << n
    }

    /// The nodes a store by node `n` invalidates: `entry`'s sharers plus a
    /// foreign owner, never `n` itself.
    fn inv_targets(entry: &LlcLine, n: usize) -> u8 {
        let owner = entry.owner.map_or(0, |o| Self::node_bit(o as usize));
        (entry.sharers | owner) & !Self::node_bit(n)
    }

    #[cfg(test)]
    pub(crate) fn cfg_lat_walk(&self) -> u64 {
        self.cfg.lat.tlb_walk
    }

    /// Simulates one access issued at node-local cycle `now`. Its lookup
    /// level is the deepest level that serviced it: an L1 hit is L1, an L2
    /// serve is L2, and everything beyond the private levels is L3.
    pub fn access(&mut self, a: &Access, now: u64) -> AccessResult {
        let r = self.access_inner(a, now);
        self.tally.record(a.is_ifetch(), a.is_store(), &r);
        r
    }

    /// [`Self::access`] without the per-access tally.
    fn access_inner(&mut self, a: &Access, now: u64) -> AccessResult {
        let n = a.node().index();
        let is_i = a.is_ifetch();
        let is_store = a.is_store();

        // 1. TLB
        self.energy.record(EnergyEvent::Tlb, 1);
        let (paddr, tlb_hit) = self.nodes[n].tlb.access(a.asid(), a.vaddr());
        let mut latency = self.cfg.lat.l1;
        if !tlb_hit {
            latency += self.cfg.lat.tlb_walk;
        }
        let line = paddr.line();
        let key = line.raw();

        // 2. L1 lookup (perfect way prediction: one tag comparison).
        self.energy.record(EnergyEvent::L1TagWay, 1);
        let l1 = if is_i {
            &mut self.nodes[n].l1i
        } else {
            &mut self.nodes[n].l1d
        };
        let set = l1.set_index(key);
        if let Some(way) = l1.way_of(set, key) {
            let pl = *l1.at(set, way).map(|(_, v)| v).expect("occupied");
            l1.touch(set, way);
            self.energy.record(EnergyEvent::L1Array, 1);
            let mut late = false;
            if now < pl.ready_at {
                late = true;
                latency += pl.ready_at - now;
            }
            if is_store {
                match pl.state {
                    Mesi::Modified => {}
                    Mesi::Exclusive => {
                        // Silent E→M upgrade (MESI).
                        let (_, v) = self.nodes[n].l1d.at_mut(set, way).expect("occupied");
                        v.state = Mesi::Modified;
                    }
                    Mesi::Shared => {
                        latency += self.upgrade_shared(n, line);
                        let l1 = &mut self.nodes[n].l1d;
                        let (_, v) = l1.at_mut(set, way).expect("occupied");
                        v.state = Mesi::Modified;
                    }
                }
                let ver = self.oracle.on_store(line);
                let l1 = &mut self.nodes[n].l1d;
                let (_, v) = l1.at_mut(set, way).expect("occupied");
                v.version = ver;
                if let Some(l2) = &mut self.nodes[n].l2 {
                    // Keep the inclusive L2 copy's state in sync (its version
                    // catches up on L1 writeback).
                    let s2 = l2.set_index(key);
                    if let Some(w2) = l2.way_of(s2, key) {
                        let (_, v2) = l2.at_mut(s2, w2).expect("occupied");
                        v2.state = Mesi::Modified;
                    }
                }
            } else {
                self.oracle.check_load(line, pl.version);
            }
            return AccessResult {
                latency,
                l1_hit: true,
                late,
                serviced_by: ServicedBy::L1,
                private_miss: None,
                level: LookupLevel::L1,
            };
        }

        // --- L1 miss ---
        // 3. Base-3L: private L2 (full tag search).
        let mut serviced = None;
        let mut version = 0;
        let mut state = Mesi::Shared;
        if self.nodes[n].l2.is_some() {
            self.energy
                .record(EnergyEvent::L2TagWay, self.cfg.l2.ways as u64);
            let l2 = self.nodes[n].l2.as_mut().expect("3L");
            let s2 = l2.set_index(key);
            if let Some(w2) = l2.way_of(s2, key) {
                latency += self.cfg.lat.l2;
                self.energy.record(EnergyEvent::L2Array, 1);
                let pl2 = *l2.at(s2, w2).map(|(_, v)| v).expect("occupied");
                l2.touch(s2, w2);
                self.ctr.l2_hits += 1;
                version = pl2.version;
                state = pl2.state;
                if is_store && pl2.state == Mesi::Shared {
                    latency += self.upgrade_shared(n, line);
                    let l2 = self.nodes[n].l2.as_mut().expect("3L");
                    let (_, v2) = l2.at_mut(s2, w2).expect("occupied");
                    v2.state = Mesi::Modified;
                    state = Mesi::Modified;
                } else if is_store {
                    let l2 = self.nodes[n].l2.as_mut().expect("3L");
                    let (_, v2) = l2.at_mut(s2, w2).expect("occupied");
                    v2.state = Mesi::Modified;
                    state = Mesi::Modified;
                }
                serviced = Some(ServicedBy::L2);
            } else {
                self.ctr.l2_misses += 1;
            }
        }

        // 4. Far side.
        if serviced.is_none() {
            let (v, st, lat, sv) = self.far_access(n, line, is_store);
            version = v;
            state = st;
            latency += lat;
            serviced = Some(sv);
            // Fill the inclusive L2 on the way in.
            if self.nodes[n].l2.is_some() {
                self.install_l2(n, line, state, version);
            }
        }

        let serviced = serviced.expect("set above");
        if is_store {
            version = self.oracle.on_store(line);
            state = Mesi::Modified;
        } else {
            self.oracle.check_load(line, version);
        }
        self.install_l1(n, is_i, line, state, version, now + latency);

        AccessResult {
            latency,
            l1_hit: false,
            late: false,
            serviced_by: serviced,
            private_miss: None,
            level: if serviced == ServicedBy::L2 {
                LookupLevel::L2
            } else {
                LookupLevel::L3
            },
        }
    }

    /// Store hit on a Shared copy: directory-mediated ownership upgrade.
    fn upgrade_shared(&mut self, n: usize, line: LineAddr) -> u64 {
        self.ctr.upgrades += 1;
        let me = Endpoint::Node(NodeId::new(n as u8));
        let mut lat = self.noc.send(MsgClass::UpgradeReq, me, Endpoint::FarSide);
        lat += self.cfg.lat.directory;
        self.ctr.dir_accesses += 1;
        self.energy.record(EnergyEvent::Directory, 1);
        let key = line.raw();
        let set = self.llc.set_index(key);
        // Inclusion guarantees the directory entry exists.
        let entry = *self
            .llc
            .peek(set, key)
            .expect("inclusive LLC lost a cached line");
        lat += self.invalidate_nodes(Self::inv_targets(&entry, n), line, Some(n));
        if let Some(e) = self.llc.get_mut(set, key) {
            e.owner = Some(n as u8);
            e.sharers = 0;
        }
        lat
    }

    /// Sends Inv to every node in `targets`, removing their copies.
    /// Dirty victims write back to the LLC entry. Returns added latency
    /// (one Inv + one Ack round; legs in parallel). `acks_to`: requesting
    /// node, or `None` to ack the far side (back-invalidations).
    fn invalidate_nodes(&mut self, targets: u8, line: LineAddr, acks_to: Option<usize>) -> u64 {
        if targets == 0 {
            return 0;
        }
        let mut lat = 0;
        for t in 0..self.cfg.nodes {
            if targets & Self::node_bit(t) == 0 {
                continue;
            }
            lat = lat.max(self.noc.send(
                MsgClass::Inv,
                Endpoint::FarSide,
                Endpoint::Node(NodeId::new(t as u8)),
            ));
            self.ctr.invalidations_received += 1;
            let dirty = self.purge_node_copies(t, line);
            if let Some((ver, was_m)) = dirty {
                if was_m {
                    // Dirty data rides the ack back to the LLC.
                    self.noc.send(
                        MsgClass::WbData,
                        Endpoint::Node(NodeId::new(t as u8)),
                        Endpoint::FarSide,
                    );
                    self.ctr.writebacks += 1;
                    let key = line.raw();
                    let set = self.llc.set_index(key);
                    if let Some(e) = self.llc.get_mut(set, key) {
                        e.version = ver;
                        e.dirty = true;
                    }
                }
            }
            let ack_dst = match acks_to {
                Some(r) => Endpoint::Node(NodeId::new(r as u8)),
                None => Endpoint::FarSide,
            };
            lat = lat.max(self.noc.send(
                MsgClass::Ack,
                Endpoint::Node(NodeId::new(t as u8)),
                ack_dst,
            ));
        }
        lat
    }

    /// Visits node `t`'s copies of `line` in its L1-D, L1-I and L2
    /// arrays, in that order, calling `f` with each copy's array, set and
    /// way. Returns the freshest copy's `(version, was_modified)`: the first
    /// visited of equal versions.
    fn walk_node_copies(
        &mut self,
        t: usize,
        line: LineAddr,
        mut f: impl FnMut(&mut SetAssoc<PrivLine>, usize, usize),
    ) -> Option<(u64, bool)> {
        let key = line.raw();
        let mut best: Option<(u64, bool)> = None;
        let node = &mut self.nodes[t];
        for arr in [&mut node.l1d, &mut node.l1i]
            .into_iter()
            .chain(node.l2.as_mut())
        {
            let s = arr.set_index(key);
            if let Some(w) = arr.way_of(s, key) {
                let pl = *arr.at(s, w).expect("occupied").1;
                if best.is_none_or(|(v, _)| pl.version > v) {
                    best = Some((pl.version, pl.state == Mesi::Modified));
                }
                f(arr, s, w);
            }
        }
        best
    }

    /// Removes all copies of `line` from node `t`'s caches.
    /// Returns `Some((version, was_modified))` of the freshest removed copy.
    fn purge_node_copies(&mut self, t: usize, line: LineAddr) -> Option<(u64, bool)> {
        self.walk_node_copies(t, line, |arr, s, w| {
            arr.remove(s, w);
        })
    }

    /// The freshest valid copy of `line` in node `t` without removing it;
    /// downgrades all copies to Shared (read-forward path).
    ///
    /// Every copy the node keeps takes the freshest version: an L1 store
    /// hit advances only the L1 copy, and once that copy is a clean Shared
    /// line its eviction is silent, so the inclusive L2 copy would
    /// otherwise serve the node's next miss with a stale version.
    fn downgrade_node_copies(&mut self, t: usize, line: LineAddr) -> Option<(u64, bool)> {
        let best = self.walk_node_copies(t, line, |arr, s, w| {
            arr.at_mut(s, w).expect("occupied").1.state = Mesi::Shared;
        });
        if let Some((version, _)) = best {
            self.walk_node_copies(t, line, |arr, s, w| {
                arr.at_mut(s, w).expect("occupied").1.version = version;
            });
        }
        best
    }

    /// The far-side transaction: directory + LLC, possibly forwarded to a
    /// remote owner or to memory. Returns `(version, granted_state, latency,
    /// serviced_by)`.
    fn far_access(
        &mut self,
        n: usize,
        line: LineAddr,
        want_store: bool,
    ) -> (u64, Mesi, u64, ServicedBy) {
        let me = Endpoint::Node(NodeId::new(n as u8));
        let req_class = if want_store {
            MsgClass::ReadExReq
        } else {
            MsgClass::ReadReq
        };
        let mut lat = self.noc.send(req_class, me, Endpoint::FarSide);
        lat += self.cfg.lat.directory;
        self.ctr.dir_accesses += 1;
        self.energy.record(EnergyEvent::Directory, 1);
        self.energy
            .record(EnergyEvent::LlcTagWay, self.cfg.llc.ways as u64);

        let key = line.raw();
        let set = self.llc.set_index(key);
        if let Some(way) = self.llc.way_of(set, key) {
            // --- LLC hit --- (one tag scan: read the slot, then LRU touch)
            let entry = *self
                .llc
                .at(set, way)
                .expect("way_of found an occupied slot")
                .1;
            self.ctr.llc_hits += 1;
            self.llc.touch(set, way);
            self.energy.record(EnergyEvent::LlcArray, 1);
            lat += self.cfg.lat.llc;
            if want_store {
                // Freshest data: a remote M copy wins over the LLC copy.
                let mut version = entry.version;
                let mut serviced = ServicedBy::Llc;
                if let Some(o) = entry.owner {
                    if o as usize != n {
                        if let Some((v, was_m)) =
                            self.walk_node_copies(o as usize, line, |_, _, _| {})
                        {
                            if was_m {
                                version = v;
                                serviced = ServicedBy::RemoteNode;
                                lat += self.noc.send(
                                    MsgClass::Fwd,
                                    Endpoint::FarSide,
                                    Endpoint::Node(NodeId::new(o)),
                                );
                            }
                        }
                    }
                }
                lat += self.invalidate_nodes(Self::inv_targets(&entry, n), line, Some(n));
                lat += self.noc.send(MsgClass::DataReply, Endpoint::FarSide, me);
                if let Some(e) = self.llc.get_mut(set, key) {
                    e.owner = Some(n as u8);
                    e.sharers = 0;
                }
                (version, Mesi::Modified, lat, serviced)
            } else {
                // Read: maybe forward to the owner.
                match entry.owner {
                    Some(o) if o as usize != n => {
                        lat += self.noc.send(
                            MsgClass::Fwd,
                            Endpoint::FarSide,
                            Endpoint::Node(NodeId::new(o)),
                        );
                        // Owner pays an L1 lookup to source the data.
                        self.energy.record(EnergyEvent::L1TagWay, 1);
                        self.energy.record(EnergyEvent::L1Array, 1);
                        lat += self.cfg.lat.l1;
                        if let Some((ver, was_m)) = self.downgrade_node_copies(o as usize, line) {
                            lat += self.noc.send(
                                MsgClass::DataReply,
                                Endpoint::Node(NodeId::new(o)),
                                me,
                            );
                            if was_m {
                                // Owner also cleans the LLC copy.
                                self.noc.send(
                                    MsgClass::WbData,
                                    Endpoint::Node(NodeId::new(o)),
                                    Endpoint::FarSide,
                                );
                                self.ctr.writebacks += 1;
                            }
                            if let Some(e) = self.llc.get_mut(set, key) {
                                e.owner = None;
                                e.sharers |= Self::node_bit(o as usize) | Self::node_bit(n);
                                if was_m {
                                    e.version = ver;
                                    e.dirty = true;
                                }
                            }
                            (ver, Mesi::Shared, lat, ServicedBy::RemoteNode)
                        } else {
                            // Stale owner pointer (silent E drop): LLC data
                            // is current; pay the wasted hop.
                            lat += self.noc.send(
                                MsgClass::Ack,
                                Endpoint::Node(NodeId::new(o)),
                                Endpoint::FarSide,
                            );
                            lat += self.noc.send(MsgClass::DataReply, Endpoint::FarSide, me);
                            if let Some(e) = self.llc.get_mut(set, key) {
                                e.owner = None;
                                e.sharers |= Self::node_bit(n);
                            }
                            (entry.version, Mesi::Shared, lat, ServicedBy::Llc)
                        }
                    }
                    _ => {
                        lat += self.noc.send(MsgClass::DataReply, Endpoint::FarSide, me);
                        let alone = entry.sharers & !Self::node_bit(n) == 0;
                        let state = if alone && entry.owner.is_none() {
                            Mesi::Exclusive
                        } else {
                            Mesi::Shared
                        };
                        if let Some(e) = self.llc.get_mut(set, key) {
                            if state == Mesi::Exclusive {
                                e.owner = Some(n as u8);
                                e.sharers = 0;
                            } else {
                                e.owner = None;
                                e.sharers |= Self::node_bit(n);
                            }
                        }
                        (entry.version, state, lat, ServicedBy::Llc)
                    }
                }
            }
        } else {
            // --- LLC miss: fetch from memory, install (inclusive). ---
            self.ctr.llc_misses += 1;
            self.noc.offchip(MsgClass::MemRead);
            lat += self.cfg.lat.mem;
            let version = self.oracle.memory(line);
            let victim_way = self.llc.victim_way(set);
            if let Some((old_key, old)) = self.llc.at(set, victim_way).map(|(k, v)| (k, *v)) {
                self.evict_llc_entry(LineAddr::new(old_key), old);
                self.llc.remove(set, victim_way);
            }
            let (owner, sharers, state) = if want_store {
                (Some(n as u8), 0, Mesi::Modified)
            } else {
                (Some(n as u8), 0, Mesi::Exclusive)
            };
            self.llc.insert_at(
                set,
                victim_way,
                key,
                LlcLine {
                    dirty: false,
                    version,
                    owner,
                    sharers,
                },
            );
            self.energy.record(EnergyEvent::LlcArray, 1);
            lat += self.noc.send(MsgClass::DataReply, Endpoint::FarSide, me);
            (version, state, lat, ServicedBy::Mem)
        }
    }

    /// Evicts one LLC entry: back-invalidates all private copies
    /// (inclusion), writes dirty data to memory.
    fn evict_llc_entry(&mut self, line: LineAddr, entry: LlcLine) {
        let mut targets = entry.sharers;
        if let Some(o) = entry.owner {
            targets |= Self::node_bit(o as usize);
        }
        let mut best_version = entry.version;
        let mut dirty = entry.dirty;
        for t in 0..self.cfg.nodes {
            if targets & Self::node_bit(t) == 0 {
                continue;
            }
            self.noc.send(
                MsgClass::Inv,
                Endpoint::FarSide,
                Endpoint::Node(NodeId::new(t as u8)),
            );
            self.ctr.invalidations_received += 1;
            self.ctr.back_invalidations += 1;
            if let Some((ver, was_m)) = self.purge_node_copies(t, line) {
                if was_m {
                    self.noc.send(
                        MsgClass::WbData,
                        Endpoint::Node(NodeId::new(t as u8)),
                        Endpoint::FarSide,
                    );
                    self.ctr.writebacks += 1;
                    best_version = best_version.max(ver);
                    dirty = true;
                }
            }
            self.noc.send(
                MsgClass::Ack,
                Endpoint::Node(NodeId::new(t as u8)),
                Endpoint::FarSide,
            );
        }
        if dirty {
            self.noc.offchip(MsgClass::MemWrite);
            self.ctr.writebacks += 1;
            self.oracle.write_memory(line, best_version);
        }
    }

    /// Installs a line in node `n`'s L1, evicting as needed.
    fn install_l1(
        &mut self,
        n: usize,
        is_i: bool,
        line: LineAddr,
        state: Mesi,
        version: u64,
        ready_at: u64,
    ) {
        let key = line.raw();
        let has_l2 = self.nodes[n].l2.is_some();
        let l1 = if is_i {
            &mut self.nodes[n].l1i
        } else {
            &mut self.nodes[n].l1d
        };
        let set = l1.set_index(key);
        let way = l1.victim_way(set);
        let evicted = l1.insert_at(
            set,
            way,
            key,
            PrivLine {
                state,
                version,
                ready_at,
            },
        );
        if let Some((old_key, old)) = evicted {
            if old.state == Mesi::Modified {
                self.writeback_from_l1(n, has_l2, LineAddr::new(old_key), old.version);
            }
            // E/S evictions are silent (directory keeps a stale superset).
        }
    }

    /// Writes a dirty L1 victim back: to the L2 (Base-3L) or the LLC
    /// (Base-2L).
    fn writeback_from_l1(&mut self, n: usize, has_l2: bool, line: LineAddr, version: u64) {
        self.ctr.writebacks += 1;
        let key = line.raw();
        if has_l2 {
            let l2 = self.nodes[n].l2.as_mut().expect("3L");
            let s2 = l2.set_index(key);
            let w2 = l2
                .way_of(s2, key)
                .expect("L2 inclusion: an L1 victim's line has an L2 copy");
            let (_, v2) = l2.at_mut(s2, w2).expect("occupied");
            v2.version = version;
            v2.state = Mesi::Modified;
            return;
        }
        self.noc.send(
            MsgClass::WbData,
            Endpoint::Node(NodeId::new(n as u8)),
            Endpoint::FarSide,
        );
        let set = self.llc.set_index(key);
        if let Some(e) = self.llc.get_mut(set, key) {
            e.version = version;
            e.dirty = true;
            e.owner = None;
        }
    }

    /// Installs a line in the inclusive private L2 (Base-3L).
    fn install_l2(&mut self, n: usize, line: LineAddr, state: Mesi, version: u64) {
        let key = line.raw();
        let l2 = self.nodes[n].l2.as_mut().expect("3L");
        let s2 = l2.set_index(key);
        let w2 = l2.victim_way(s2);
        let evicted = l2.insert_at(
            s2,
            w2,
            key,
            PrivLine {
                state,
                version,
                ready_at: 0,
            },
        );
        if let Some((old_key, old)) = evicted {
            // L2 inclusion over L1: purge the L1 copy of the victim.
            let mut fresh = (old.version, old.state == Mesi::Modified);
            let node = &mut self.nodes[n];
            for arr in [&mut node.l1d, &mut node.l1i] {
                let s1 = arr.set_index(old_key);
                if let Some(w1) = arr.way_of(s1, old_key) {
                    if let Some((_, pl)) = arr.remove(s1, w1) {
                        if pl.version > fresh.0 {
                            fresh = (pl.version, pl.state == Mesi::Modified);
                        } else if pl.state == Mesi::Modified {
                            fresh.1 = true;
                        }
                        self.ctr.back_invalidations += 1;
                    }
                }
            }
            if fresh.1 {
                self.noc.send(
                    MsgClass::WbData,
                    Endpoint::Node(NodeId::new(n as u8)),
                    Endpoint::FarSide,
                );
                self.ctr.writebacks += 1;
                let set = self.llc.set_index(old_key);
                if let Some(e) = self.llc.get_mut(set, old_key) {
                    e.version = fresh.0;
                    e.dirty = true;
                    e.owner = None;
                }
            }
        }
    }

    /// Structural invariant check used by tests:
    ///
    /// * inclusion — every private copy has an LLC entry;
    /// * every Modified copy's holder is the directory owner.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (n, node) in self.nodes.iter().enumerate() {
            let mut arrays: Vec<(&str, &SetAssoc<PrivLine>)> =
                vec![("l1d", &node.l1d), ("l1i", &node.l1i)];
            if let Some(l2) = &node.l2 {
                arrays.push(("l2", l2));
            }
            for (name, arr) in arrays {
                for (_, _, key, pl) in arr.iter() {
                    let set = self.llc.set_index(key);
                    let Some(e) = self.llc.peek(set, key) else {
                        return Err(format!(
                            "inclusion violated: node {n} {name} holds {key:#x} absent from LLC"
                        ));
                    };
                    if pl.state == Mesi::Modified && e.owner != Some(n as u8) {
                        return Err(format!(
                            "node {n} {name} holds {key:#x} in M but directory owner is {:?}",
                            e.owner
                        ));
                    }
                    if pl.state == Mesi::Shared
                        && e.owner != Some(n as u8)
                        && e.sharers & Self::node_bit(n) == 0
                    {
                        return Err(format!(
                            "node {n} {name} holds {key:#x} in S but is not in sharers"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2m_common::addr::{translate, Asid, VAddr};
    use d2m_workloads::{catalog, AccessKind, TraceGen};

    fn acc(node: u8, kind: AccessKind, va: u64) -> Access {
        Access::new(NodeId::new(node), Asid(0), kind, VAddr::new(va))
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        let r1 = sys.access(&acc(0, AccessKind::Load, 0x10_0000), 0);
        assert!(!r1.l1_hit);
        assert_eq!(r1.serviced_by, ServicedBy::Mem);
        let r2 = sys.access(&acc(0, AccessKind::Load, 0x10_0000), 1000);
        assert!(r2.l1_hit);
        assert!(r2.latency < r1.latency);
    }

    #[test]
    fn second_node_read_is_sourced_from_owner_or_llc() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        sys.access(&acc(0, AccessKind::Load, 0x20_0000), 0);
        let r = sys.access(&acc(1, AccessKind::Load, 0x20_0000), 0);
        assert!(!r.l1_hit);
        // Node 0 got an E grant, so the read is forwarded to it.
        assert_eq!(r.serviced_by, ServicedBy::RemoteNode);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn store_invalidates_sharers() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        for n in 0..4 {
            sys.access(&acc(n, AccessKind::Load, 0x30_0000), 0);
        }
        let inv_before = sys.raw_counters().invalidations_received;
        sys.access(&acc(0, AccessKind::Store, 0x30_0000), 0);
        assert!(sys.raw_counters().invalidations_received > inv_before);
        // Readers must now see the new version (serviced by owner node 0).
        let r = sys.access(&acc(2, AccessKind::Load, 0x30_0000), 0);
        assert!(!r.l1_hit);
        assert_eq!(sys.coherence_errors(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn store_then_remote_load_returns_latest_value() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        sys.access(&acc(0, AccessKind::Store, 0x40_0000), 0);
        sys.access(&acc(1, AccessKind::Load, 0x40_0000), 0);
        sys.access(&acc(1, AccessKind::Load, 0x40_0000), 10_000);
        assert_eq!(sys.coherence_errors(), 0);
    }

    #[test]
    fn three_level_uses_l2() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::ThreeLevel);
        sys.access(&acc(0, AccessKind::Load, 0x50_0000), 0);
        // Evict from tiny L1 by touching many same-set lines; L1 has 64 sets,
        // so addresses 64 lines apart collide.
        for i in 1..=9u64 {
            sys.access(&acc(0, AccessKind::Load, 0x50_0000 + i * 64 * 64), 0);
        }
        let r = sys.access(&acc(0, AccessKind::Load, 0x50_0000), 0);
        assert!(!r.l1_hit);
        assert_eq!(r.serviced_by, ServicedBy::L2);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn read_forward_leaves_no_stale_l2_copy_in_3l() {
        // A store hit advances only the L1 copy. A remote read then
        // downgrades it to a clean Shared line, whose eviction is silent;
        // the node's next miss on the line hits its inclusive L2, which
        // must hold the stored version, not the one it was filled with.
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::ThreeLevel);
        let x = 0xF0_0000;
        sys.access(&acc(0, AccessKind::Store, x), 0);
        sys.access(&acc(1, AccessKind::Load, x), 0);
        // Eight more lines in X's L1-D set (64 sets apart) evict it.
        for k in 1..=8u64 {
            sys.access(&acc(0, AccessKind::Load, x + k * 4096), 0);
        }
        let r = sys.access(&acc(0, AccessKind::Load, x), 0);
        assert!(!r.l1_hit);
        assert_eq!(r.serviced_by, ServicedBy::L2);
        assert_eq!(sys.coherence_errors(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn lookup_level_is_the_level_that_served_the_access_in_3l() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::ThreeLevel);
        let x = 0x50_0000;
        let r = sys.access(&acc(0, AccessKind::Load, x), 0);
        assert_eq!((r.serviced_by, r.level), (ServicedBy::Mem, LookupLevel::L3));
        let r = sys.access(&acc(0, AccessKind::Load, x), 1000);
        assert_eq!((r.serviced_by, r.level), (ServicedBy::L1, LookupLevel::L1));
        // Eight more lines in X's L1-D set (64 sets apart) evict it from L1.
        for k in 1..=8u64 {
            sys.access(&acc(0, AccessKind::Load, x + k * 4096), 2000);
        }
        let r = sys.access(&acc(0, AccessKind::Load, x), 3000);
        assert_eq!((r.serviced_by, r.level), (ServicedBy::L2, LookupLevel::L2));
        // Node 1's read is forwarded to node 0, which leaves X shared with no
        // owner; node 2's read is then served by the LLC.
        sys.access(&acc(1, AccessKind::Load, x), 4000);
        let r = sys.access(&acc(2, AccessKind::Load, x), 5000);
        assert_eq!((r.serviced_by, r.level), (ServicedBy::Llc, LookupLevel::L3));
    }

    /// Overwrites the version of node `n`'s resident L1-D copy of the line
    /// at `va` with `version`, as a copy that missed a later store holds.
    fn plant_version(sys: &mut Baseline, n: usize, va: u64, version: u64) {
        let key = translate(Asid(0), VAddr::new(va)).line().raw();
        let l1 = &mut sys.nodes[n].l1d;
        let set = l1.set_index(key);
        let way = l1.way_of(set, key).expect("resident L1-D line");
        l1.at_mut(set, way).expect("occupied").1.version = version;
    }

    /// On the default machine, with no flag set, a load that hits an L1
    /// copy older than the latest store counts one coherence violation.
    fn stale_l1_hit_is_counted(kind: BaselineKind) {
        let mut sys = Baseline::new(&MachineConfig::default(), kind);
        let va = 0x70_0000;
        sys.access(&acc(0, AccessKind::Store, va), 0);
        plant_version(&mut sys, 0, va, 0);
        assert!(sys.access(&acc(0, AccessKind::Load, va), 1000).l1_hit);
        assert_eq!(sys.coherence_errors(), 1, "{}", kind.name());
    }

    #[test]
    fn stale_l1_hit_is_counted_in_2l() {
        stale_l1_hit_is_counted(BaselineKind::TwoLevel);
    }

    #[test]
    fn stale_l1_hit_is_counted_in_3l() {
        stale_l1_hit_is_counted(BaselineKind::ThreeLevel);
    }

    #[test]
    fn late_hit_detected_when_fill_in_flight() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        let r1 = sys.access(&acc(0, AccessKind::Load, 0x60_0000), 100);
        // Immediately re-access at the same node-local time: fill not done.
        let r2 = sys.access(&acc(0, AccessKind::Load, 0x60_0000), 101);
        assert!(r2.l1_hit && r2.late);
        assert!(r2.latency >= r1.latency - 2);
        assert_eq!(sys.counters().get("late_hits.d"), 1);
    }

    #[test]
    fn late_hit_latency_survives_waits_beyond_u32() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        // Fill far past u32::MAX cycles, then re-access at cycle 0: the
        // in-flight window exceeds u32::MAX, which a u32 accumulator wraps.
        let far = u32::MAX as u64 * 4;
        sys.access(&acc(0, AccessKind::Load, 0x60_0000), far);
        let r = sys.access(&acc(0, AccessKind::Load, 0x60_0000), 0);
        assert!(r.l1_hit && r.late);
        assert!(
            r.latency > u64::from(u32::MAX),
            "late-hit latency truncated to {}",
            r.latency
        );
    }

    #[test]
    fn random_workload_preserves_coherence_and_invariants() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        let spec = catalog::by_name("fluidanimate").unwrap();
        let mut gen = TraceGen::new(&spec, 8, 11);
        let mut batch = Vec::new();
        for _ in 0..300 {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, 0);
            }
        }
        assert_eq!(sys.coherence_errors(), 0);
        sys.check_invariants().unwrap();
        assert!(sys.raw_counters().llc_misses > 0);
    }

    #[test]
    fn random_workload_3l_preserves_coherence() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::ThreeLevel);
        let spec = catalog::by_name("ocean_cp").unwrap();
        let mut gen = TraceGen::new(&spec, 8, 13);
        let mut batch = Vec::new();
        for _ in 0..300 {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, 0);
            }
        }
        assert_eq!(sys.coherence_errors(), 0);
        sys.check_invariants().unwrap();
        assert!(sys.raw_counters().l2_hits > 0);
    }

    #[test]
    fn upgrade_counts_and_messages_flow() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        // Two sharers, then one stores: upgrade, not a miss.
        sys.access(&acc(0, AccessKind::Load, 0x70_0000), 0);
        sys.access(&acc(1, AccessKind::Load, 0x70_0000), 0);
        sys.access(&acc(0, AccessKind::Load, 0x70_0000), 10_000);
        let r = sys.access(&acc(0, AccessKind::Store, 0x70_0000), 20_000);
        assert!(r.l1_hit);
        assert_eq!(sys.raw_counters().upgrades, 1);
        assert!(sys.noc().count(MsgClass::UpgradeReq) == 1);
    }

    #[test]
    fn sram_kb_is_larger_for_3l() {
        let a = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel).sram_kb();
        let b = Baseline::new(&MachineConfig::default(), BaselineKind::ThreeLevel).sram_kb();
        assert!(b > a + 8.0 * 256.0, "3L adds 8×256 KB of L2");
    }

    #[test]
    fn ifetches_use_l1i() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        sys.access(&acc(0, AccessKind::IFetch, 0x80_0000), 0);
        let r = sys.access(&acc(0, AccessKind::IFetch, 0x80_0000), 10_000);
        assert!(r.l1_hit);
        assert_eq!(sys.counters().get("l1i.hits"), 1);
        assert_eq!(sys.counters().get("l1i.misses"), 1);
        // A data load of the same line misses separately.
        let r2 = sys.access(&acc(0, AccessKind::Load, 0x80_0000), 10_000);
        assert!(!r2.l1_hit);
    }

    #[test]
    fn llc_eviction_back_invalidates_private_copies() {
        // A tiny LLC forces evictions whose inclusive back-invalidations
        // must purge L1 copies and write dirty data to memory.
        let mut c = MachineConfig::default();
        c.llc = d2m_common::config::CacheGeometry::from_capacity(64 << 10, 4);
        c.ns_slice = d2m_common::config::CacheGeometry::from_capacity(8 << 10, 4);
        let mut sys = Baseline::new(&c, BaselineKind::TwoLevel);
        // Dirty a line, then stream enough lines through its LLC set to
        // force it out.
        sys.access(&acc(0, AccessKind::Store, 0xA0_0000), 0);
        for i in 1..=64u64 {
            // 256 sets in this LLC; stride by one set-cycle of lines.
            sys.access(&acc(1, AccessKind::Load, 0xA0_0000 + i * 256 * 64), 0);
        }
        assert!(sys.raw_counters().back_invalidations > 0);
        // The dirty value must have reached memory: a re-read is coherent.
        sys.access(&acc(2, AccessKind::Load, 0xA0_0000), 1_000_000);
        assert_eq!(sys.coherence_errors(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn l2_eviction_purges_l1_copy_in_3l() {
        let mut c = MachineConfig::default();
        c.l2 = d2m_common::config::CacheGeometry::new(4, 2); // tiny L2
        let mut sys = Baseline::new(&c, BaselineKind::ThreeLevel);
        sys.access(&acc(0, AccessKind::Store, 0xB0_0000), 0);
        // Thrash the tiny L2 set (4 sets → lines 4*64 B apart collide).
        for i in 1..=8u64 {
            sys.access(&acc(0, AccessKind::Load, 0xB0_0000 + i * 4 * 64), 0);
        }
        assert!(sys.raw_counters().back_invalidations > 0);
        sys.access(&acc(1, AccessKind::Load, 0xB0_0000), 1_000_000);
        assert_eq!(sys.coherence_errors(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn false_invalidations_from_stale_sharer_bits() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        // Node 1 reads then silently drops its S copy via L1 conflict
        // evictions; node 0's later store still sends node 1 an Inv.
        sys.access(&acc(0, AccessKind::Load, 0xC0_0000), 0);
        sys.access(&acc(1, AccessKind::Load, 0xC0_0000), 0);
        for i in 1..=10u64 {
            sys.access(&acc(1, AccessKind::Load, 0xC0_0000 + i * 64 * 64), 0);
        }
        let inv_before = sys.raw_counters().invalidations_received;
        sys.access(&acc(0, AccessKind::Store, 0xC0_0000), 100_000);
        assert!(
            sys.raw_counters().invalidations_received > inv_before,
            "stale sharer bits still draw an invalidation"
        );
        assert_eq!(sys.coherence_errors(), 0);
    }

    #[test]
    fn writeback_chain_reaches_memory_through_l2() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::ThreeLevel);
        sys.access(&acc(0, AccessKind::Store, 0xD0_0000), 0);
        // Push it out of L1 (dirty → L2), then read from another node: the
        // freshest copy must be forwarded from node 0's L2.
        for i in 1..=10u64 {
            sys.access(&acc(0, AccessKind::Load, 0xD0_0000 + i * 64 * 64), 0);
        }
        let r = sys.access(&acc(1, AccessKind::Load, 0xD0_0000), 500_000);
        assert!(!r.l1_hit);
        assert_eq!(sys.coherence_errors(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn tlb_miss_adds_walk_latency() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        let r1 = sys.access(&acc(0, AccessKind::Load, 0xE0_0000), 0);
        // Same line ⇒ same page: the second access hits the TLB and the L1.
        let r2 = sys.access(&acc(0, AccessKind::Load, 0xE0_0000), 1_000_000);
        assert!(r1.latency > r2.latency + sys.cfg_lat_walk() - 1);
    }

    #[test]
    fn counters_snapshot_includes_noc() {
        let mut sys = Baseline::new(&MachineConfig::default(), BaselineKind::TwoLevel);
        sys.access(&acc(0, AccessKind::Load, 0x90_0000), 0);
        let c = sys.counters();
        assert!(c.get("noc.msg_total") > 0);
        assert_eq!(c.get("accesses"), 1);
    }
}
