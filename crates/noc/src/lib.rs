//! On-chip interconnect model.
//!
//! The paper's evaluation charges every protocol hop that crosses the
//! interconnect (node ↔ far side, node ↔ node, node ↔ remote NS-slice) and
//! reports **network traffic in messages per 1000 instructions** (Figure 5),
//! split into *basic* coherence traffic and *D2M-specific* traffic (MD2
//! spill/fill, NewMaster updates, …). This crate provides exactly that
//! accounting: a [`MsgClass`] taxonomy with per-class payload sizes and the
//! basic/D2M-specific split, and a [`Noc`] accumulator that returns the hop
//! latency for each send.
//!
//! # Example
//!
//! ```
//! use d2m_noc::{Endpoint, MsgClass, Noc};
//! use d2m_common::addr::NodeId;
//!
//! let mut noc = Noc::new(16);
//! let lat = noc.send(MsgClass::ReadReq, Endpoint::Node(NodeId::new(0)), Endpoint::FarSide);
//! assert_eq!(lat, 16);
//! assert_eq!(noc.messages(), 1);
//! ```

#![forbid(unsafe_code)]

use d2m_common::addr::NodeId;
use d2m_common::json::{Json, ToJson};
use d2m_common::stats::Counters;

/// One end of an interconnect message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Endpoint {
    /// A core node (with its private caches / NS slice).
    Node(NodeId),
    /// The far side of the interconnect: shared LLC, directory/MD3, memory
    /// controller.
    FarSide,
}

/// Message classes used by the baselines and D2M.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum MsgClass {
    // --- basic data-coherence traffic (both baselines and D2M) ---
    /// Read request (baseline: to directory; D2M: DirectRead to a master).
    ReadReq,
    /// Read-exclusive / write-miss request.
    ReadExReq,
    /// Ownership upgrade for a line already held shared.
    UpgradeReq,
    /// Data reply carrying one cacheline.
    DataReply,
    /// Control acknowledgement.
    Ack,
    /// Invalidation request.
    Inv,
    /// Request forwarded to a remote owner node.
    Fwd,
    /// Dirty-data writeback (to LLC victim slot or memory).
    WbData,
    /// Memory read issued by the far side (off-chip; counted separately).
    MemRead,
    /// Memory write issued by the far side (off-chip; counted separately).
    MemWrite,
    // --- D2M-specific metadata traffic (lighter bars in Figure 5) ---
    /// Blocking read-metadata-miss request to MD3 (case D).
    ReadMM,
    /// Blocking read-exclusive to MD3 for shared regions (case C).
    ReadEx,
    /// MD3 asks the single owner for its region metadata (case D2).
    GetMd,
    /// Region metadata reply (MD3 → node fill, or node → MD3 upload).
    MdReply,
    /// MD2 spill: evicted region metadata uploaded to MD3.
    Md2Spill,
    /// New-master update multicast on shared-region master eviction (case F).
    NewMaster,
    /// Eviction request to MD3 (case F).
    EvictReq,
    /// Unblock message completing a blocking MD3 transaction.
    Done,
    /// Replacement-pointer fix-up when a victim slot disappears.
    RpFix,
    /// Periodic NS-LLC pressure exchange (placement policy, §IV-B).
    Pressure,
}

/// Number of distinct message classes.
pub const MSG_CLASSES: usize = 20;

impl MsgClass {
    /// All classes, in `repr` order.
    pub const ALL: [MsgClass; MSG_CLASSES] = [
        MsgClass::ReadReq,
        MsgClass::ReadExReq,
        MsgClass::UpgradeReq,
        MsgClass::DataReply,
        MsgClass::Ack,
        MsgClass::Inv,
        MsgClass::Fwd,
        MsgClass::WbData,
        MsgClass::MemRead,
        MsgClass::MemWrite,
        MsgClass::ReadMM,
        MsgClass::ReadEx,
        MsgClass::GetMd,
        MsgClass::MdReply,
        MsgClass::Md2Spill,
        MsgClass::NewMaster,
        MsgClass::EvictReq,
        MsgClass::Done,
        MsgClass::RpFix,
        MsgClass::Pressure,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::ReadReq => "read_req",
            MsgClass::ReadExReq => "readex_req",
            MsgClass::UpgradeReq => "upgrade_req",
            MsgClass::DataReply => "data_reply",
            MsgClass::Ack => "ack",
            MsgClass::Inv => "inv",
            MsgClass::Fwd => "fwd",
            MsgClass::WbData => "wb_data",
            MsgClass::MemRead => "mem_read",
            MsgClass::MemWrite => "mem_write",
            MsgClass::ReadMM => "read_mm",
            MsgClass::ReadEx => "read_ex",
            MsgClass::GetMd => "get_md",
            MsgClass::MdReply => "md_reply",
            MsgClass::Md2Spill => "md2_spill",
            MsgClass::NewMaster => "new_master",
            MsgClass::EvictReq => "evict_req",
            MsgClass::Done => "done",
            MsgClass::RpFix => "rp_fix",
            MsgClass::Pressure => "pressure",
        }
    }

    /// Payload bytes beyond the 8-byte header.
    pub fn payload_bytes(self) -> u32 {
        match self {
            MsgClass::DataReply | MsgClass::WbData | MsgClass::MemRead | MsgClass::MemWrite => 64,
            // Region metadata: 16 LIs × 6 bits + tag/PB ≈ 16 bytes.
            MsgClass::MdReply | MsgClass::Md2Spill => 16,
            _ => 0,
        }
    }

    /// True for metadata-hierarchy traffic that only exists in D2M
    /// (the lighter bars of Figure 5).
    pub fn is_d2m_specific(self) -> bool {
        matches!(
            self,
            MsgClass::ReadMM
                | MsgClass::ReadEx
                | MsgClass::GetMd
                | MsgClass::MdReply
                | MsgClass::Md2Spill
                | MsgClass::NewMaster
                | MsgClass::EvictReq
                | MsgClass::Done
                | MsgClass::RpFix
                | MsgClass::Pressure
        )
    }

    /// True for off-chip memory-controller traffic, which Figure 5 does not
    /// count as on-chip network messages.
    pub fn is_offchip(self) -> bool {
        matches!(self, MsgClass::MemRead | MsgClass::MemWrite)
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Per-message-class source→destination traffic counts.
///
/// Endpoints are indexed `0..nodes` for [`Endpoint::Node`] and `nodes` for
/// [`Endpoint::FarSide`]. Off by default — a [`Noc`] without a matrix does
/// exactly the pre-observability work — and enabled per run with
/// [`Noc::enable_matrix`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficMatrix {
    nodes: usize,
    /// `counts[class][from * (nodes + 1) + to]`, class-major.
    counts: Vec<Vec<u64>>,
}

impl TrafficMatrix {
    /// Creates an all-zero matrix for `nodes` core nodes plus the far side.
    pub fn new(nodes: usize) -> Self {
        let endpoints = nodes + 1;
        Self {
            nodes,
            counts: vec![vec![0; endpoints * endpoints]; MSG_CLASSES],
        }
    }

    fn endpoint_index(&self, ep: Endpoint) -> usize {
        match ep {
            Endpoint::Node(n) => n.index().min(self.nodes),
            Endpoint::FarSide => self.nodes,
        }
    }

    #[inline]
    fn record(&mut self, class: MsgClass, from: Endpoint, to: Endpoint) {
        let f = self.endpoint_index(from);
        let t = self.endpoint_index(to);
        self.counts[class.idx()][f * (self.nodes + 1) + t] += 1;
    }

    /// Number of core nodes (the far side is one extra endpoint).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Count for `(class, from, to)`.
    pub fn count(&self, class: MsgClass, from: Endpoint, to: Endpoint) -> u64 {
        let f = self.endpoint_index(from);
        let t = self.endpoint_index(to);
        self.counts[class.idx()][f * (self.nodes + 1) + t]
    }

    /// Total messages recorded across all classes and endpoint pairs.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Adds another matrix's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        assert_eq!(self.nodes, other.nodes, "matrix shapes must match");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }
}

impl ToJson for TrafficMatrix {
    /// Deterministic sparse rendering: only non-zero entries, in class-major
    /// then `(from, to)` order, as `{"class": [[from, to, count], ...]}`.
    /// Endpoint index `nodes` denotes the far side.
    fn to_json(&self) -> Json {
        let endpoints = self.nodes + 1;
        let mut classes = Vec::new();
        for class in MsgClass::ALL {
            let row = &self.counts[class.idx()];
            let entries: Vec<Json> = (0..endpoints)
                .flat_map(|f| (0..endpoints).map(move |t| (f, t)))
                .filter(|&(f, t)| row[f * endpoints + t] != 0)
                .map(|(f, t)| {
                    Json::Arr(vec![
                        Json::U64(f as u64),
                        Json::U64(t as u64),
                        Json::U64(row[f * endpoints + t]),
                    ])
                })
                .collect();
            if !entries.is_empty() {
                classes.push((class.name().to_string(), Json::Arr(entries)));
            }
        }
        Json::Obj(vec![
            ("nodes".to_string(), Json::U64(self.nodes as u64)),
            ("classes".to_string(), Json::Obj(classes)),
        ])
    }
}

/// Interconnect accumulator: counts messages per class, returns hop
/// latency. Message totals and byte counts derive from the per-class counts
/// and each class's payload size.
#[derive(Clone, Debug)]
pub struct Noc {
    hop_latency: u64,
    counts: [u64; MSG_CLASSES],
    matrix: Option<TrafficMatrix>,
}

impl Noc {
    /// Creates an accumulator with the given single-traversal latency.
    pub fn new(hop_latency: u64) -> Self {
        Self {
            hop_latency,
            counts: [0; MSG_CLASSES],
            matrix: None,
        }
    }

    /// Turns on per-class source→destination traffic attribution for `nodes`
    /// core nodes. Costs one branch per send when off, one vector increment
    /// when on; aggregate counts are unaffected either way.
    pub fn enable_matrix(&mut self, nodes: usize) {
        self.matrix = Some(TrafficMatrix::new(nodes));
    }

    /// The traffic matrix, when enabled.
    pub fn matrix(&self) -> Option<&TrafficMatrix> {
        self.matrix.as_ref()
    }

    /// Records a message and returns its latency contribution in cycles.
    ///
    /// Messages between a node and itself (e.g. an access to the local NS
    /// slice) cost nothing and are not counted — that is precisely the
    /// near-side advantage.
    pub fn send(&mut self, class: MsgClass, from: Endpoint, to: Endpoint) -> u64 {
        if from == to {
            return 0;
        }
        self.counts[class.idx()] += 1;
        if let Some(m) = self.matrix.as_mut() {
            m.record(class, from, to);
        }
        if class.is_offchip() {
            0 // charged via the memory latency, not a NoC hop
        } else {
            self.hop_latency
        }
    }

    /// Records an off-chip memory access (read or write). Off-chip traffic
    /// has no NoC endpoints and no hop latency — the memory latency is
    /// charged by the caller — but is counted for energy accounting.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not an off-chip class.
    pub fn offchip(&mut self, class: MsgClass) {
        assert!(class.is_offchip(), "{class:?} is not off-chip");
        self.counts[class.idx()] += 1;
    }

    /// Records a multicast from `from` to every endpoint in `to`, returning
    /// the latency of the slowest leg (legs are parallel).
    pub fn multicast<I>(&mut self, class: MsgClass, from: Endpoint, to: I) -> u64
    where
        I: IntoIterator<Item = Endpoint>,
    {
        let mut worst = 0;
        for t in to {
            worst = worst.max(self.send(class, from, t));
        }
        worst
    }

    /// Total on-chip messages (off-chip memory traffic excluded).
    pub fn messages(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| !c.is_offchip())
            .map(|c| self.counts[c.idx()])
            .sum()
    }

    /// On-chip messages from D2M-specific classes.
    pub fn d2m_messages(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| c.is_d2m_specific() && !c.is_offchip())
            .map(|c| self.counts[c.idx()])
            .sum()
    }

    /// Count for one class.
    pub fn count(&self, class: MsgClass) -> u64 {
        self.counts[class.idx()]
    }

    /// Total bytes moved on-chip (8-byte headers + payloads, memory
    /// traffic excluded).
    pub fn onchip_bytes(&self) -> u64 {
        8 * self.messages() + self.onchip_data_bytes()
    }

    /// Data-only bytes moved on-chip (the paper's "data traffic" metric).
    pub fn onchip_data_bytes(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| !c.is_offchip())
            .map(|c| self.counts[c.idx()] * c.payload_bytes() as u64)
            .sum()
    }

    /// Snapshot as named counters (`msg.<class>` plus aggregates).
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        for class in MsgClass::ALL {
            c.set(format!("msg.{}", class.name()), self.counts[class.idx()]);
        }
        c.set("msg_total", self.messages());
        c.set("msg_d2m", self.d2m_messages());
        c.set("bytes_onchip", self.onchip_bytes());
        c.set("bytes_data", self.onchip_data_bytes());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u8) -> Endpoint {
        Endpoint::Node(NodeId::new(i))
    }

    #[test]
    fn send_counts_and_latency() {
        let mut noc = Noc::new(10);
        assert_eq!(noc.send(MsgClass::ReadReq, n(0), Endpoint::FarSide), 10);
        assert_eq!(noc.send(MsgClass::DataReply, Endpoint::FarSide, n(0)), 10);
        assert_eq!(noc.messages(), 2);
        assert_eq!(noc.count(MsgClass::ReadReq), 1);
    }

    #[test]
    fn local_send_is_free_and_uncounted() {
        let mut noc = Noc::new(10);
        assert_eq!(noc.send(MsgClass::ReadReq, n(3), n(3)), 0);
        assert_eq!(noc.messages(), 0);
        assert_eq!(noc.onchip_bytes(), 0);
    }

    #[test]
    fn multicast_counts_each_leg_once() {
        let mut noc = Noc::new(7);
        let lat = noc.multicast(MsgClass::Inv, Endpoint::FarSide, (0..4).map(n));
        assert_eq!(lat, 7, "legs are parallel");
        assert_eq!(noc.count(MsgClass::Inv), 4);
    }

    #[test]
    fn byte_accounting_distinguishes_payloads() {
        let mut noc = Noc::new(1);
        noc.send(MsgClass::ReadReq, n(0), Endpoint::FarSide); // 8 B
        noc.send(MsgClass::DataReply, Endpoint::FarSide, n(0)); // 72 B
        noc.send(MsgClass::MdReply, Endpoint::FarSide, n(0)); // 24 B
        assert_eq!(noc.onchip_bytes(), 8 + 72 + 24);
        assert_eq!(noc.onchip_data_bytes(), 64 + 16);
    }

    #[test]
    fn offchip_traffic_not_in_message_count() {
        let mut noc = Noc::new(5);
        assert_eq!(
            noc.send(MsgClass::MemRead, Endpoint::FarSide, Endpoint::FarSide),
            0
        );
        let lat = noc.send(MsgClass::MemWrite, n(0), Endpoint::FarSide);
        assert_eq!(lat, 0, "memory latency is charged separately");
        assert_eq!(noc.messages(), 0);
        assert_eq!(noc.onchip_bytes(), 0);
    }

    #[test]
    fn d2m_specific_split() {
        let mut noc = Noc::new(1);
        noc.send(MsgClass::ReadReq, n(0), Endpoint::FarSide);
        noc.send(MsgClass::ReadMM, n(0), Endpoint::FarSide);
        noc.send(MsgClass::NewMaster, Endpoint::FarSide, n(1));
        assert_eq!(noc.messages(), 3);
        assert_eq!(noc.d2m_messages(), 2);
    }

    #[test]
    fn node_to_node_costs_one_hop() {
        let mut noc = Noc::new(9);
        assert_eq!(noc.send(MsgClass::Fwd, n(0), n(5)), 9);
    }

    #[test]
    fn counters_snapshot_has_all_classes() {
        let mut noc = Noc::new(1);
        noc.send(MsgClass::Ack, n(0), n(1));
        let c = noc.counters();
        assert_eq!(c.get("msg.ack"), 1);
        assert_eq!(c.get("msg_total"), 1);
        assert!(c.len() >= MSG_CLASSES);
    }

    #[test]
    fn matrix_is_off_by_default_and_free() {
        let mut plain = Noc::new(4);
        let mut probed = Noc::new(4);
        probed.enable_matrix(8);
        for noc in [&mut plain, &mut probed] {
            noc.send(MsgClass::ReadReq, n(0), Endpoint::FarSide);
            noc.send(MsgClass::DataReply, Endpoint::FarSide, n(0));
            noc.send(MsgClass::Fwd, n(1), n(2));
        }
        assert!(plain.matrix().is_none());
        // Aggregate accounting is identical with the matrix on.
        assert_eq!(plain.counters(), probed.counters());
    }

    #[test]
    fn matrix_attributes_source_and_destination() {
        let mut noc = Noc::new(4);
        noc.enable_matrix(8);
        noc.send(MsgClass::ReadReq, n(0), Endpoint::FarSide);
        noc.send(MsgClass::ReadReq, n(0), Endpoint::FarSide);
        noc.send(MsgClass::Fwd, n(1), n(2));
        noc.send(MsgClass::Fwd, n(3), n(3)); // local: free, unrecorded
        let m = noc.matrix().unwrap();
        assert_eq!(m.count(MsgClass::ReadReq, n(0), Endpoint::FarSide), 2);
        assert_eq!(m.count(MsgClass::Fwd, n(1), n(2)), 1);
        assert_eq!(m.count(MsgClass::Fwd, n(3), n(3)), 0);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn matrix_merge_and_json_are_deterministic() {
        use d2m_common::json::ToJson;
        let mut a = TrafficMatrix::new(4);
        let mut b = TrafficMatrix::new(4);
        a.record(MsgClass::Inv, Endpoint::FarSide, n(1));
        b.record(MsgClass::Inv, Endpoint::FarSide, n(1));
        b.record(MsgClass::Ack, n(1), Endpoint::FarSide);
        a.merge(&b);
        assert_eq!(a.count(MsgClass::Inv, Endpoint::FarSide, n(1)), 2);
        let text = a.to_json().to_string_compact();
        // Only non-zero entries, far side rendered as index `nodes`.
        assert!(text.contains("\"inv\":[[4,1,2]]"), "{text}");
        assert!(text.contains("\"ack\":[[1,4,1]]"), "{text}");
        let again = a.to_json().to_string_compact();
        assert_eq!(text, again);
    }

    #[test]
    fn class_names_are_unique() {
        let mut names: Vec<_> = MsgClass::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), MSG_CLASSES);
    }
}
