//! Statistics plumbing: counter registries and histograms.
//!
//! Systems expose their raw event counts through a [`Counters`] map so the
//! experiment harness can diff arbitrary systems without each crate exporting
//! a bespoke struct. Hot paths keep plain `u64` fields and only materialize a
//! `Counters` snapshot when asked.

use std::collections::BTreeMap;

/// An ordered name→count map snapshot of a component's statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or overwrites) a counter.
    pub fn set(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.0.insert(name.into(), value);
        self
    }

    /// Adds to a counter, creating it at zero if absent.
    pub fn add(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        *self.0.entry(name.into()).or_insert(0) += value;
        self
    }

    /// Reads a counter; absent counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Merges another registry into this one, prefixing its names.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Counters) {
        for (k, v) in &other.0 {
            self.add(format!("{prefix}{k}"), *v);
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no counter has been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<(String, u64)> for Counters {
    fn from_iter<T: IntoIterator<Item = (String, u64)>>(iter: T) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl Extend<(String, u64)> for Counters {
    fn extend<T: IntoIterator<Item = (String, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.add(k, v);
        }
    }
}

/// Fixed-bucket latency histogram (power-of-two buckets).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `log2_buckets` power-of-two buckets
    /// (bucket *i* counts samples in `[2^i, 2^(i+1))`, bucket 0 counts 0–1).
    pub fn new(log2_buckets: usize) -> Self {
        Self {
            buckets: vec![0; log2_buckets],
            overflow: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, x: u64) {
        let idx = (64 - x.max(1).leading_zeros() - 1) as usize;
        if let Some(b) = self.buckets.get_mut(idx) {
            *b += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Bucket contents (`[2^i, 2^(i+1))` counts) followed by overflow.
    pub fn buckets(&self) -> (&[u64], u64) {
        (&self.buckets, self.overflow)
    }

    /// Merges another histogram into this one, bucket by bucket. The bucket
    /// vector grows to the wider of the two, so merging never loses samples
    /// to overflow that the source had resolved.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, b) in other.buckets.iter().enumerate() {
            self.buckets[i] += b;
        }
        self.overflow += other.overflow;
    }

    /// Approximate quantile using bucket upper bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        u64::MAX
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(16)
    }
}

impl crate::json::ToJson for Histogram {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::Obj(vec![
            (
                "buckets".to_string(),
                Json::Arr(self.buckets.iter().map(|&b| Json::U64(b)).collect()),
            ),
            ("overflow".to_string(), Json::U64(self.overflow)),
        ])
    }
}

/// Geometric mean over a nonempty slice of positive values; the paper reports
/// per-suite gmeans in every figure.
///
/// Values `<= 0` are clamped to a tiny epsilon rather than poisoning the
/// result, since normalized metrics can round to zero.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_get() {
        let mut c = Counters::new();
        c.add("msg.read", 3).add("msg.read", 4).set("msg.inv", 9);
        assert_eq!(c.get("msg.read"), 7);
        assert_eq!(c.get("msg.inv"), 9);
        assert_eq!(c.get("absent"), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counters_prefix_sum_and_merge() {
        let mut a = Counters::new();
        a.add("x.a", 1).add("x.b", 2).add("y.a", 10);
        let mut top = Counters::new();
        top.merge_prefixed("n0.", &a);
        assert_eq!(top.get("n0.x.b"), 2);
        assert_eq!(top.get("n0.y.a"), 10);
    }

    #[test]
    fn histogram_buckets_and_quantile() {
        let mut h = Histogram::new(8);
        for x in [1u64, 2, 3, 4, 200, 100_000] {
            h.record(x);
        }
        assert_eq!(h.count(), 6);
        let (_, overflow) = h.buckets();
        assert_eq!(overflow, 1); // 100_000 exceeds 2^8
        assert!(h.quantile(0.5) <= 8);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(8);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        let (buckets, overflow) = h.buckets();
        assert!(buckets.iter().all(|&b| b == 0));
        assert_eq!(overflow, 0);
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = Histogram::new(8);
        h.record(5); // 2^2 ≤ 5 < 2^3 → bucket 2
        assert_eq!(h.count(), 1);
        let (buckets, overflow) = h.buckets();
        assert_eq!(buckets[2], 1);
        assert_eq!(overflow, 0);
        assert_eq!(h.quantile(0.5), 8); // bucket 2's upper bound
        assert_eq!(h.quantile(1.0), 8);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // 0 and 1 land in bucket 0; each exact power of two opens its bucket;
        // `2^i - 1` stays in the previous one.
        let mut h = Histogram::new(8);
        h.record(0);
        h.record(1);
        let (b, _) = h.buckets();
        assert_eq!(b[0], 2);

        let mut h = Histogram::new(8);
        for i in 1..8u32 {
            h.record(1u64 << i); // first value of bucket i
            h.record((1u64 << i) - 1); // last value of bucket i-1
        }
        let (b, overflow) = h.buckets();
        assert_eq!(overflow, 0);
        assert_eq!(b[0], 1); // the single `2^1 - 1 = 1`
        for (i, &n) in b.iter().enumerate().take(7).skip(1) {
            assert_eq!(n, 2, "bucket {i}: opener + closer of the next");
        }
        assert_eq!(b[7], 1); // 2^7 recorded, 2^8 - 1 never was
                             // The first out-of-range value overflows.
        h.record(1u64 << 8);
        let (_, overflow) = h.buckets();
        assert_eq!(overflow, 1);
    }

    #[test]
    fn histogram_u64_max_overflows() {
        let mut h = Histogram::new(16);
        h.record(u64::MAX); // index 63 ≥ 16 buckets
        assert_eq!(h.count(), 1);
        let (buckets, overflow) = h.buckets();
        assert!(buckets.iter().all(|&b| b == 0));
        assert_eq!(overflow, 1);
        assert_eq!(h.quantile(0.5), u64::MAX);
    }

    #[test]
    fn histogram_merge_grows_and_adds() {
        let mut a = Histogram::new(4);
        a.record(3);
        a.record(1 << 10); // overflows the 4-bucket histogram
        let mut b = Histogram::new(12);
        b.record(3);
        b.record(1 << 10); // resolved by the 12-bucket histogram
        a.merge(&b);
        assert_eq!(a.count(), 4);
        let (buckets, overflow) = a.buckets();
        assert_eq!(buckets.len(), 12);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[10], 1);
        assert_eq!(overflow, 1);
    }

    #[test]
    fn histogram_json_roundtrip() {
        use crate::json::{Json, ToJson};
        let mut h = Histogram::new(6);
        h.record(1);
        h.record(40);
        h.record(u64::MAX);
        let j = h.to_json();
        assert_eq!(j.field::<Vec<u64>>("buckets").unwrap(), [1, 0, 0, 0, 0, 1]);
        assert_eq!(j.field::<u64>("overflow").unwrap(), 1);
        assert_eq!(Json::parse(&j.to_string_compact()).unwrap(), j);
    }

    #[test]
    fn gmean_matches_hand_computation() {
        let g = gmean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn counters_from_iter() {
        let c: Counters = vec![("a".to_string(), 1u64), ("b".to_string(), 2)]
            .into_iter()
            .collect();
        assert_eq!(c.get("b"), 2);
    }
}
