//! Zero-cost-when-off transaction observability.
//!
//! Systems expose an `access_probed<P: Probe + ?Sized>(access, now, &mut P)`
//! entry point; their plain `access` is its [`NoopProbe`] instantiation,
//! which compiles down to the unprobed path (no event construction, no
//! branch). With a recording probe, every completed transaction is reported
//! as a typed [`TxnEvent`] — which metadata level resolved the lookup, which
//! endpoint serviced the data, how many interconnect messages the
//! transaction generated — so a run can be dissected per level and per
//! service endpoint without touching the aggregate counters the figures are
//! built from.
//!
//! [`NoopProbe`] discards everything (the "off" value);
//! [`RecordingProbe`] accumulates deterministic, mergeable distributions and
//! renders them as [`crate::json`] for the CLI's `--histograms`/`--trace-out`
//! output.

use crate::json::{Json, ToJson};
use crate::outcome::ServicedBy;
use crate::stats::Histogram;

/// The access kind, as seen by the observability layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TxnKind {
    /// Instruction fetch.
    IFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl TxnKind {
    /// All kinds, in report order.
    pub const ALL: [TxnKind; 3] = [TxnKind::IFetch, TxnKind::Load, TxnKind::Store];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TxnKind::IFetch => "ifetch",
            TxnKind::Load => "load",
            TxnKind::Store => "store",
        }
    }

    /// Position in [`Self::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The deepest lookup structure a transaction's *metadata resolution*
/// reached: MD1/MD2/MD3 for D2M, L1 tags / L2 tags / directory+LLC tags for
/// the baselines. This is the per-level breakdown Trimma-style evaluations
/// report.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LookupLevel {
    /// Resolved at the first level (MD1 or the L1 tag check).
    L1,
    /// Resolved at the second level (MD2 or L2 tags).
    L2,
    /// Went to the global level (MD3 or the directory/LLC).
    L3,
}

impl LookupLevel {
    /// All levels, in report order.
    pub const ALL: [LookupLevel; 3] = [LookupLevel::L1, LookupLevel::L2, LookupLevel::L3];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            LookupLevel::L1 => "l1",
            LookupLevel::L2 => "l2",
            LookupLevel::L3 => "l3",
        }
    }

    /// Position in [`Self::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One completed memory transaction, as reported to a [`Probe`].
#[derive(Clone, Copy, Debug)]
pub struct TxnEvent {
    /// Issuing node.
    pub node: u8,
    /// Access kind.
    pub kind: TxnKind,
    /// Deepest metadata/tag level the lookup reached.
    pub level: LookupLevel,
    /// True when the access hit in L1.
    pub l1_hit: bool,
    /// True for a late hit (fill in flight).
    pub late: bool,
    /// On a private-cache miss: whether the region was classified private
    /// (D2M only; `None` for hits and baselines).
    pub private_miss: Option<bool>,
    /// Endpoint that serviced the data.
    pub serviced: ServicedBy,
    /// On-chip messages this transaction put on the interconnect.
    pub hops: u64,
    /// End-to-end latency in cycles.
    pub latency: u64,
}

/// Receiver of transaction events. All methods default to no-ops so
/// implementations only override what they observe.
pub trait Probe {
    /// One completed transaction.
    fn txn(&mut self, ev: &TxnEvent);

    /// A named phase boundary (e.g. `"warmup"` → `"measured"`).
    fn phase(&mut self, name: &str) {
        let _ = name;
    }
}

/// A probe that discards every event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn txn(&mut self, _ev: &TxnEvent) {}
}

/// Number of latency-histogram buckets a [`RecordingProbe`] keeps: latencies
/// are bounded by a few memory round trips, 2^16 cycles is far above any.
const LATENCY_BUCKETS: usize = 16;
/// Hop counts per transaction are small; 2^8 is a generous ceiling.
const HOP_BUCKETS: usize = 8;

/// A probe that accumulates deterministic, mergeable distributions.
///
/// Everything recorded here is a pure function of the event stream, so two
/// probes fed the same transactions — regardless of wall-clock interleaving
/// with other cells — serialize to byte-identical JSON via
/// [`Self::report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordingProbe {
    /// Total transactions observed.
    pub events: u64,
    /// L1 hits among them.
    pub l1_hits: u64,
    /// Late hits.
    pub late_hits: u64,
    /// Misses classified to private regions.
    pub private_misses: u64,
    /// Misses classified to shared regions.
    pub shared_misses: u64,
    /// Transactions by [`TxnKind`] (index order).
    pub by_kind: [u64; 3],
    /// Transactions by [`LookupLevel`] (index order).
    pub by_level: [u64; 3],
    /// Transactions by [`ServicedBy`] (index order).
    pub by_serviced: [u64; 7],
    /// Log2-bucketed latency distribution over all transactions.
    pub latency: Histogram,
    /// Latency distribution per service endpoint ([`ServicedBy::ALL`] order).
    pub latency_by_serviced: Vec<Histogram>,
    /// Log2-bucketed on-chip hop-count distribution.
    pub hops: Histogram,
    /// Phase markers: `(name, events observed when the marker arrived)`.
    pub phases: Vec<(String, u64)>,
}

impl Default for RecordingProbe {
    fn default() -> Self {
        Self {
            events: 0,
            l1_hits: 0,
            late_hits: 0,
            private_misses: 0,
            shared_misses: 0,
            by_kind: [0; 3],
            by_level: [0; 3],
            by_serviced: [0; 7],
            latency: Histogram::new(LATENCY_BUCKETS),
            latency_by_serviced: vec![Histogram::new(LATENCY_BUCKETS); ServicedBy::ALL.len()],
            hops: Histogram::new(HOP_BUCKETS),
            phases: Vec::new(),
        }
    }
}

impl RecordingProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another probe's accumulations into this one (phase markers are
    /// appended in the other's order).
    pub fn merge(&mut self, other: &RecordingProbe) {
        self.events += other.events;
        self.l1_hits += other.l1_hits;
        self.late_hits += other.late_hits;
        self.private_misses += other.private_misses;
        self.shared_misses += other.shared_misses;
        for i in 0..3 {
            self.by_kind[i] += other.by_kind[i];
            self.by_level[i] += other.by_level[i];
        }
        for i in 0..7 {
            self.by_serviced[i] += other.by_serviced[i];
        }
        self.latency.merge(&other.latency);
        for (mine, theirs) in self
            .latency_by_serviced
            .iter_mut()
            .zip(&other.latency_by_serviced)
        {
            mine.merge(theirs);
        }
        self.hops.merge(&other.hops);
        self.phases.extend(other.phases.iter().cloned());
    }

    /// Renders the accumulated distributions as deterministic JSON.
    pub fn report(&self) -> Json {
        let count_map = |names: &[&str], counts: &[u64]| {
            Json::Obj(
                names
                    .iter()
                    .zip(counts)
                    .map(|(n, &c)| (n.to_string(), Json::U64(c)))
                    .collect(),
            )
        };
        let kind_names: Vec<&str> = TxnKind::ALL.iter().map(|k| k.name()).collect();
        let level_names: Vec<&str> = LookupLevel::ALL.iter().map(|l| l.name()).collect();
        let serviced_names: Vec<&str> = ServicedBy::ALL.iter().map(|s| s.name()).collect();
        Json::Obj(vec![
            ("events".to_string(), Json::U64(self.events)),
            ("l1_hits".to_string(), Json::U64(self.l1_hits)),
            ("late_hits".to_string(), Json::U64(self.late_hits)),
            ("private_misses".to_string(), Json::U64(self.private_misses)),
            ("shared_misses".to_string(), Json::U64(self.shared_misses)),
            ("by_kind".to_string(), count_map(&kind_names, &self.by_kind)),
            (
                "by_level".to_string(),
                count_map(&level_names, &self.by_level),
            ),
            (
                "by_serviced".to_string(),
                count_map(&serviced_names, &self.by_serviced),
            ),
            ("latency".to_string(), self.latency.to_json()),
            (
                "latency_by_serviced".to_string(),
                Json::Obj(
                    ServicedBy::ALL
                        .iter()
                        .map(|s| {
                            (
                                s.name().to_string(),
                                self.latency_by_serviced[s.index()].to_json(),
                            )
                        })
                        .collect(),
                ),
            ),
            ("hops".to_string(), self.hops.to_json()),
            (
                "phases".to_string(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, at)| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(name.clone())),
                                ("events".to_string(), Json::U64(*at)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Probe for RecordingProbe {
    fn txn(&mut self, ev: &TxnEvent) {
        self.events += 1;
        if ev.l1_hit {
            self.l1_hits += 1;
        }
        if ev.late {
            self.late_hits += 1;
        }
        match ev.private_miss {
            Some(true) => self.private_misses += 1,
            Some(false) => self.shared_misses += 1,
            None => {}
        }
        self.by_kind[ev.kind.index()] += 1;
        self.by_level[ev.level.index()] += 1;
        self.by_serviced[ev.serviced.index()] += 1;
        self.latency.record(ev.latency);
        self.latency_by_serviced[ev.serviced.index()].record(ev.latency);
        self.hops.record(ev.hops);
    }

    fn phase(&mut self, name: &str) {
        self.phases.push((name.to_string(), self.events));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TxnKind, level: LookupLevel, serviced: ServicedBy) -> TxnEvent {
        TxnEvent {
            node: 0,
            kind,
            level,
            l1_hit: serviced == ServicedBy::L1,
            late: false,
            private_miss: if serviced == ServicedBy::L1 {
                None
            } else {
                Some(true)
            },
            serviced,
            hops: 2,
            latency: 40,
        }
    }

    #[test]
    fn recording_probe_attributes_events() {
        let mut p = RecordingProbe::new();
        p.phase("warmup");
        p.txn(&ev(TxnKind::Load, LookupLevel::L1, ServicedBy::L1));
        p.txn(&ev(TxnKind::Store, LookupLevel::L3, ServicedBy::Mem));
        p.phase("measured");
        p.txn(&ev(TxnKind::IFetch, LookupLevel::L2, ServicedBy::Llc));
        assert_eq!(p.events, 3);
        assert_eq!(p.l1_hits, 1);
        assert_eq!(p.private_misses, 2);
        assert_eq!(p.by_kind, [1, 1, 1]);
        assert_eq!(p.by_level, [1, 1, 1]);
        assert_eq!(p.by_serviced[ServicedBy::Mem.index()], 1);
        assert_eq!(p.latency.count(), 3);
        assert_eq!(p.latency_by_serviced[ServicedBy::Llc.index()].count(), 1);
        assert_eq!(
            p.phases,
            vec![("warmup".to_string(), 0), ("measured".to_string(), 2)]
        );
    }

    #[test]
    fn merge_is_addition() {
        let mut a = RecordingProbe::new();
        a.txn(&ev(TxnKind::Load, LookupLevel::L1, ServicedBy::L1));
        let mut b = RecordingProbe::new();
        b.txn(&ev(TxnKind::Load, LookupLevel::L3, ServicedBy::Mem));
        b.txn(&ev(TxnKind::Store, LookupLevel::L2, ServicedBy::L2));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.events, 3);
        assert_eq!(m.by_level, [1, 1, 1]);
        assert_eq!(m.latency.count(), 3);
    }

    #[test]
    fn report_is_deterministic() {
        let mut a = RecordingProbe::new();
        let mut b = RecordingProbe::new();
        for p in [&mut a, &mut b] {
            p.txn(&ev(TxnKind::Load, LookupLevel::L2, ServicedBy::RemoteNs));
        }
        assert_eq!(a.report().to_string_pretty(), b.report().to_string_pretty());
        let text = a.report().to_string_pretty();
        assert!(text.contains("\"by_level\""));
        assert!(text.contains("\"ns_remote\""));
    }

    #[test]
    fn noop_probe_does_nothing() {
        let mut p = NoopProbe;
        p.txn(&ev(TxnKind::Load, LookupLevel::L1, ServicedBy::L1));
        p.phase("x");
    }
}
