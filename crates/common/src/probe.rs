//! Per-access observability for observed runs.
//!
//! The hierarchies only simulate: each access returns an
//! [`AccessResult`] that names its [`LookupLevel`]. An observed run's loop
//! (`d2m-sim`'s runner) feeds every result, with the on-chip messages the
//! access sent, to a [`RecordingProbe`] through [`RecordingProbe::record`];
//! an unobserved run's loop holds no probe code at all. The probe counts
//! which metadata level resolved each lookup and which endpoint serviced its
//! data, so a run can be dissected per level and per service endpoint
//! without touching the aggregate counters the figures are built from. It
//! accumulates deterministic, mergeable distributions and renders them as
//! [`crate::json`] for the CLI's `--histograms`/`--trace-out` output.

use crate::json::{Json, ToJson};
use crate::outcome::{AccessResult, ServicedBy};
use crate::stats::Histogram;

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

/// Number of latency-histogram buckets a [`RecordingProbe`] keeps: latencies
/// are bounded by a few memory round trips, 2^16 cycles is far above any.
const LATENCY_BUCKETS: usize = 16;
/// On-chip messages per access are few; 2^8 is a generous ceiling.
const HOP_BUCKETS: usize = 8;

/// The access kinds' report names, in [`RecordingProbe::by_kind`] order.
const KIND_NAMES: [&str; 3] = ["ifetch", "load", "store"];

/// A probe that accumulates deterministic, mergeable distributions.
///
/// Everything recorded here is a pure function of the recorded accesses, so
/// two probes fed the same accesses — regardless of wall-clock interleaving
/// with other cells — serialize to byte-identical JSON via
/// [`Self::report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordingProbe {
    /// Total accesses observed.
    pub events: u64,
    /// L1 hits among them.
    pub l1_hits: u64,
    /// Late hits.
    pub late_hits: u64,
    /// Misses classified to private regions.
    pub private_misses: u64,
    /// Misses classified to shared regions.
    pub shared_misses: u64,
    /// Accesses by kind: instruction fetches, loads, stores.
    pub by_kind: [u64; 3],
    /// Accesses by [`LookupLevel`] (index order).
    pub by_level: [u64; 3],
    /// Accesses by [`ServicedBy`] (index order).
    pub by_serviced: [u64; 7],
    /// Log2-bucketed latency distribution over all accesses.
    pub latency: Histogram,
    /// Latency distribution per service endpoint ([`ServicedBy::ALL`] order).
    pub latency_by_serviced: Vec<Histogram>,
    /// Log2-bucketed distribution of the on-chip messages each access put
    /// on the interconnect (reported under the key `hops`).
    pub hops: Histogram,
    /// Phase markers: `(name, accesses observed when the marker arrived)`.
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

    /// Records one access, an instruction fetch when `ifetch` is set and
    /// otherwise a store or a load as `store` says, whose outcome was `r`
    /// and which put `msgs` on-chip messages on the interconnect.
    #[inline]
    pub fn record(&mut self, ifetch: bool, store: bool, r: &AccessResult, msgs: u64) {
        self.events += 1;
        if r.l1_hit {
            self.l1_hits += 1;
        }
        if r.late {
            self.late_hits += 1;
        }
        match r.private_miss {
            Some(true) => self.private_misses += 1,
            Some(false) => self.shared_misses += 1,
            None => {}
        }
        let kind = if ifetch { 0 } else { 1 + usize::from(store) };
        self.by_kind[kind] += 1;
        self.by_level[r.level.index()] += 1;
        self.by_serviced[r.serviced_by.index()] += 1;
        self.latency.record(r.latency);
        self.latency_by_serviced[r.serviced_by.index()].record(r.latency);
        self.hops.record(msgs);
    }

    /// Marks a named phase boundary (e.g. `"warmup"` → `"measured"`) at the
    /// current access count.
    pub fn phase(&mut self, name: &str) {
        self.phases.push((name.to_string(), self.events));
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
        let level_names: Vec<&str> = LookupLevel::ALL.iter().map(|l| l.name()).collect();
        let serviced_names: Vec<&str> = ServicedBy::ALL.iter().map(|s| s.name()).collect();
        Json::Obj(vec![
            ("events".to_string(), Json::U64(self.events)),
            ("l1_hits".to_string(), Json::U64(self.l1_hits)),
            ("late_hits".to_string(), Json::U64(self.late_hits)),
            ("private_misses".to_string(), Json::U64(self.private_misses)),
            ("shared_misses".to_string(), Json::U64(self.shared_misses)),
            ("by_kind".to_string(), count_map(&KIND_NAMES, &self.by_kind)),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A miss (or an L1 hit when `serviced` is L1) of 40 cycles that sent
    /// two messages, as a load unless `kind` says otherwise.
    fn rec(p: &mut RecordingProbe, kind: &str, level: LookupLevel, serviced: ServicedBy) {
        let l1_hit = serviced == ServicedBy::L1;
        let r = AccessResult {
            latency: 40,
            l1_hit,
            late: false,
            serviced_by: serviced,
            private_miss: if l1_hit { None } else { Some(true) },
            level,
        };
        p.record(kind == "ifetch", kind == "store", &r, 2);
    }

    #[test]
    fn recording_probe_attributes_events() {
        let mut p = RecordingProbe::new();
        p.phase("warmup");
        rec(&mut p, "load", LookupLevel::L1, ServicedBy::L1);
        rec(&mut p, "store", LookupLevel::L3, ServicedBy::Mem);
        p.phase("measured");
        rec(&mut p, "ifetch", LookupLevel::L2, ServicedBy::Llc);
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
        rec(&mut a, "load", LookupLevel::L1, ServicedBy::L1);
        let mut b = RecordingProbe::new();
        rec(&mut b, "load", LookupLevel::L3, ServicedBy::Mem);
        rec(&mut b, "store", LookupLevel::L2, ServicedBy::L2);
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
            rec(p, "load", LookupLevel::L2, ServicedBy::RemoteNs);
        }
        assert_eq!(a.report().to_string_pretty(), b.report().to_string_pretty());
        let text = a.report().to_string_pretty();
        assert!(text.contains("\"by_level\""));
        assert!(text.contains("\"ns_remote\""));
    }
}
