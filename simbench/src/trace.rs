//! In-memory span recorder for the traced run.
//!
//! A span is one timed stretch of calls from this crate into one layer: the
//! layer, a name, start and end in nanoseconds since the tracer was created,
//! the enclosing span, and how many calls it covers. Spans stay in memory
//! until [`Tracer::write`] saves them when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use d2m_common::json::Json;

use crate::obj;

struct Span {
    parent: Option<usize>,
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
}

/// Handle to an open span; empty while tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

/// Host time spent in one layer's spans.
pub struct LayerTime {
    /// Layer name.
    pub layer: &'static str,
    /// Spans recorded.
    pub spans: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the parts covered by child spans.
    pub self_ns: u64,
}

/// Records spans while enabled; does nothing, and allocates nothing, while
/// disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            calls: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which covered `calls` calls into its layer.
    pub fn end(&mut self, span: SpanId, calls: u64) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.calls = calls;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time per layer, in layer-name order.
    pub fn layers(&self) -> Vec<LayerTime> {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut by_layer: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = by_layer.entry(s.layer).or_insert(LayerTime {
                layer: s.layer,
                spans: 0,
                total_ns: 0,
                self_ns: 0,
            });
            t.spans += 1;
            t.total_ns += dur(s);
            t.self_ns += dur(s).saturating_sub(child);
        }
        by_layer.into_values().collect()
    }

    /// Writes the span file: one JSON header line (`header` fields plus the
    /// per-layer totals), then one JSON line per span in opening order.
    pub fn write(&self, path: &Path, mut header: Vec<(&str, Json)>) -> std::io::Result<()> {
        let layers = self
            .layers()
            .iter()
            .map(|l| {
                obj(vec![
                    ("layer", Json::Str(l.layer.to_string())),
                    ("spans", Json::U64(l.spans)),
                    ("total_ns", Json::U64(l.total_ns)),
                    ("self_ns", Json::U64(l.self_ns)),
                ])
            })
            .collect();
        header.push(("layers", Json::Arr(layers)));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", obj(header).to_string_compact())?;
        for (id, s) in self.spans.iter().enumerate() {
            let span = obj(vec![
                ("id", Json::U64(id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("layer", Json::Str(s.layer.to_string())),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("calls", Json::U64(s.calls)),
            ]);
            writeln!(out, "{}", span.to_string_compact())?;
        }
        out.flush()
    }
}
