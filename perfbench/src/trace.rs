//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`: the layer entry point that
//! was called, its wall-clock interval, the span that caused it, and the
//! operation it served. Spans stay in memory while a run measures and are
//! written out as JSON lines when it ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mpart_obs::Json;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point, e.g. `router.deliver`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation (event, routed call) this span served.
    pub op: u64,
}

/// Span recorder; when off, every call is a no-op that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing (the untraced end-to-end runs).
    pub fn off() -> Self {
        Tracer { on: false, t0: Instant::now(), spans: Vec::new() }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer { on: true, t0: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, op });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(i) = id {
            self.spans[i].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines (one object per span).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::U64(p as u64));
            let span = Json::Obj(vec![
                ("id".into(), Json::U64(i as u64)),
                ("name".into(), Json::str(s.name)),
                ("start_ns".into(), Json::U64(s.start)),
                ("end_ns".into(), Json::U64(s.end)),
                ("parent".into(), parent),
                ("op".into(), Json::U64(s.op)),
            ]);
            out.push_str(&span.render_compact());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval. Children
/// that overlap each other (concurrent calls under one operation) are
/// counted once; grandchildren are already inside their own parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregate of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans with this name.
    pub samples: usize,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Mean self time, µs.
    pub self_us: f64,
}

/// Aggregates every span name.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let selfs = self_times(spans);
    let mut acc: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    acc.into_iter()
        .map(|(name, (n, total, own))| {
            let per = |ns: u64| ns as f64 / n as f64 / 1e3;
            (name, LayerStat { samples: n, mean_us: per(total), self_us: per(own) })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, op: 0 }
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        let spans = [
            span("op", 0, 100, None),
            span("child", 10, 50, Some(0)),
            span("grandchild", 20, 30, Some(1)),
            span("child", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 40 - 10, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span("op", 100, 200, None),
            span("a", 90, 130, Some(0)),  // clipped to 100..130
            span("b", 120, 150, Some(0)), // overlaps a: adds 130..150
            span("c", 140, 145, Some(0)), // inside b: adds nothing
            span("d", 190, 260, Some(0)), // clipped to 190..200
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 20 - 10);
        assert_eq!(&selfs[1..], &[40, 30, 5, 70]);
    }

    #[test]
    fn layer_stats_average_duration_and_self_time() {
        let spans = [
            span("op", 0, 4_000, None),
            span("leaf", 0, 1_000, Some(0)),
            span("op", 10_000, 12_000, None),
        ];
        let stats = layer_stats(&spans);
        assert_eq!(stats["op"], LayerStat { samples: 2, mean_us: 3.0, self_us: 2.5 });
        assert_eq!(stats["leaf"].samples, 1);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 1, None);
        t.end(id);
        assert_eq!(t.time("y", 2, None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
