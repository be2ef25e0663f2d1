//! Per-layer metrics of one workload, derived from its traced run (spans
//! around the public calls the workload makes), its layer pass (spans
//! around each layer's entry point on the same generated inputs) and the
//! counters both kept.

use std::collections::BTreeMap;

use crate::sensor::{self, JournalStream};
use crate::tally::Tally;
use crate::trace::LayerStat;
use crate::Workload;

/// One per-layer figure with the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Spans or events the value rests on.
    pub samples: usize,
    /// Mean self time of the underlying span (µs), for span metrics.
    pub self_us: Option<f64>,
}

/// The per-layer metrics a traced run reports, each from the workload
/// that loads the layer most.
pub const DESIGNATED: &[(&str, Workload)] = &[
    ("analysis.cold_ms", Workload::ClusterChurn),
    ("analysis.hit_us", Workload::SensorServe),
    ("analysis.hit_ratio", Workload::ClusterChurn),
    ("modulator.us", Workload::SensorServe),
    ("modulator.work_units", Workload::SensorServe),
    ("marshal.pack_us", Workload::ImageStream),
    ("marshal.unpack_us", Workload::ImageStream),
    ("envelope.encode_us", Workload::ImageStream),
    ("envelope.decode_us", Workload::ImageStream),
    ("envelope.borrowed_ratio", Workload::ImageStream),
    ("wire.publish_us", Workload::ImageStream),
    ("wire.wait_us", Workload::ImageStream),
    ("wire.retransmissions", Workload::ImageStream),
    ("wire.reconnects", Workload::ImageStream),
    ("demodulator.us", Workload::ImageStream),
    ("reconfig.feedback_us", Workload::ImageStream),
    ("reconfig.mincut_us", Workload::ImageStream),
    ("reconfig.switches_per_kevent", Workload::ImageStream),
    ("reconfig.useful_ratio", Workload::ImageStream),
    ("plan.install_us", Workload::ImageStream),
    ("session.open_us", Workload::SensorServe),
    ("session.submit_us", Workload::SensorServe),
    ("session.queue_wait_us", Workload::SensorServe),
    ("session.sheds", Workload::SensorServe),
    ("journal.append_us", Workload::SensorServe),
    ("journal.records_per_event", Workload::SensorServe),
    ("journal.bytes_per_event", Workload::SensorServe),
    ("journal.replay_ms", Workload::SensorServe),
    ("session.restore_us", Workload::SensorServe),
    ("router.deliver_us", Workload::ClusterChurn),
    ("router.reconfigure_us", Workload::ClusterChurn),
    ("router.open_us", Workload::ClusterChurn),
    ("router.close_us", Workload::ClusterChurn),
    ("router.failover_ms", Workload::ClusterChurn),
    ("router.heartbeat_us", Workload::ClusterChurn),
    ("node.codec_us", Workload::ClusterChurn),
];

/// Metrics of the named workload's own traced run.
pub const OWN: &[&str] =
    &["mem.rss_growth_kib_per_kevent", "trace.overhead_ops_pct", "trace.overhead_p50_pct"];

/// Span statistics of a traced run (`run`) and of its layer pass (`pass`).
pub struct Traced<'a> {
    /// The workload.
    pub workload: Workload,
    /// Spans of the traced end-to-end run, by name.
    pub run: &'a BTreeMap<&'static str, LayerStat>,
    /// The traced end-to-end run's tally.
    pub run_tally: &'a Tally,
    /// Spans of the layer pass, by name.
    pub pass: &'a BTreeMap<&'static str, LayerStat>,
    /// The layer pass's tally.
    pub pass_tally: &'a Tally,
    /// The journal stream the pass re-appended (`sensor_serve` only).
    pub stream: &'a JournalStream,
}

struct Out(Vec<LayerMetric>);

impl Out {
    fn span(&mut self, name: &'static str, stats: &BTreeMap<&'static str, LayerStat>, span: &str) {
        self.span_scaled(name, stats, span, 1.0, "us");
    }

    fn span_scaled(
        &mut self,
        name: &'static str,
        stats: &BTreeMap<&'static str, LayerStat>,
        span: &str,
        scale: f64,
        unit: &'static str,
    ) {
        if let Some(s) = stats.get(span) {
            self.0.push(LayerMetric {
                name,
                value: s.mean_us * scale,
                unit,
                samples: s.samples,
                self_us: Some(s.self_us),
            });
        }
    }

    fn value(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(LayerMetric { name, value, unit, samples, self_us: None });
    }
}

fn mean(stats: &BTreeMap<&'static str, LayerStat>, span: &str) -> f64 {
    stats.get(span).map_or(0.0, |s| s.mean_us)
}

fn counter(t: &Tally, name: &str) -> f64 {
    t.counters.get(name).copied().unwrap_or(0.0)
}

/// Every per-layer metric that applies to the traced workload.
pub fn metrics(t: &Traced<'_>) -> Vec<LayerMetric> {
    let mut out = Out(Vec::new());
    let (run, pass, rt, pt) = (t.run, t.pass, t.run_tally, t.pass_tally);
    let pass_events = pt.events.max(1) as usize;

    // Cold analysis: the deployment's own misses where the run times
    // them one by one, else the layer pass's single miss.
    if run.contains_key("analysis.analyze_cached") {
        out.span_scaled("analysis.cold_ms", run, "analysis.analyze_cached", 1e-3, "ms");
    } else {
        out.span_scaled("analysis.cold_ms", pass, "analysis.cold", 1e-3, "ms");
    }
    out.span("analysis.hit_us", pass, "analysis.hit");
    let (hits, misses) =
        match (rt.counters.get("analysis.hits"), rt.counters.get("analysis.misses")) {
            (Some(&h), Some(&m)) => (h, m),
            _ => {
                let samples = |span| pass.get(span).map_or(0.0, |s: &LayerStat| s.samples as f64);
                (samples("analysis.hit"), samples("analysis.cold"))
            }
        };
    out.value("analysis.hit_ratio", hits / (hits + misses).max(1.0), "1", (hits + misses) as usize);

    out.span("modulator.us", pass, "modulator");
    let work = counter(pt, "modulator.work_units") / pass_events as f64;
    out.value("modulator.work_units", work, "count", pass_events);
    out.span("marshal.pack_us", pass, "marshal.pack");
    out.span("marshal.unpack_us", pass, "marshal.unpack");
    out.span("envelope.encode_us", pass, "envelope.encode");
    out.span("envelope.decode_us", pass, "envelope.decode");
    let borrowed = counter(pt, "envelope.borrowed_bytes");
    let moved = borrowed + counter(pt, "envelope.copied_bytes");
    out.value("envelope.borrowed_ratio", borrowed / moved.max(1.0), "1", pass_events);
    out.span("demodulator.us", pass, "demodulator");
    out.span("reconfig.feedback_us", pass, "reconfig.feedback");
    out.span("reconfig.mincut_us", pass, "reconfig.mincut");
    out.span("plan.install_us", pass, "plan.install");
    let (mincuts, useful) = (counter(pt, "reconfig.mincuts"), counter(pt, "reconfig.useful"));
    if mincuts > 0.0 {
        out.value("reconfig.useful_ratio", useful / mincuts, "1", mincuts as usize);
    }
    let (switches, events) = match rt.counters.get("reconfig.switches") {
        Some(&s) => (s, rt.events.max(1) as f64),
        None => (useful, pass_events as f64),
    };
    out.value(
        "reconfig.switches_per_kevent",
        switches / events * 1e3,
        "count/kevent",
        events as usize,
    );
    let growth = rt.rss_growth_kib / rt.events.max(1) as f64 * 1e3;
    out.value("mem.rss_growth_kib_per_kevent", growth, "KiB/kevent", rt.events as usize);

    let (modulator, demodulator) = (mean(pass, "modulator"), mean(pass, "demodulator"));
    match t.workload {
        Workload::ImageStream => {
            if let Some(s) = run.get("wire.publish") {
                out.value("wire.publish_us", s.mean_us - modulator, "us", s.samples);
            }
            if let Some(s) = run.get("image.op") {
                out.value("wire.wait_us", s.mean_us - modulator - demodulator, "us", s.samples);
            }
            out.value("wire.retransmissions", counter(rt, "wire.retransmissions"), "count", 1);
            out.value("wire.reconnects", counter(rt, "wire.reconnects"), "count", 1);
        }
        Workload::SensorServe => {
            let (records, bytes) = sensor::journal_per_event(t.stream);
            out.span("session.open_us", run, "session.open");
            out.span("session.submit_us", run, "session.submit");
            // Submit to observed outcome, less the work the worker did
            // for the event: the time it waited in the shard queue.
            if let Some(s) = run.get("sensor.op") {
                let journal = records * mean(pass, "journal.append");
                let wait = s.mean_us - modulator - demodulator - journal;
                out.value("session.queue_wait_us", wait, "us", s.samples);
            }
            out.value("session.sheds", counter(rt, "session.sheds"), "count", 1);
            out.span("journal.append_us", pass, "journal.append");
            out.value("journal.records_per_event", records, "count", rt.events as usize);
            out.value("journal.bytes_per_event", bytes, "B", rt.events as usize);
            out.span_scaled("journal.replay_ms", run, "journal.replay", 1e-3, "ms");
            out.span("session.restore_us", run, "session.restore");
        }
        Workload::ClusterChurn => {
            out.span("router.deliver_us", run, "router.deliver");
            out.span("router.reconfigure_us", run, "router.reconfigure");
            out.span("router.open_us", run, "router.open");
            out.span("router.close_us", run, "router.close");
            out.span_scaled("router.failover_ms", run, "router.failover", 1e-3, "ms");
            out.span("router.heartbeat_us", run, "router.heartbeat");
            out.span("node.codec_us", pass, "node.codec");
        }
    }
    out.0
}
