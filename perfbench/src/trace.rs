//! Spans the benchmark records around its own calls into each layer
//! (issue, drain, barrier, verify, probes), kept in memory and written as
//! Chrome trace-event JSON (readable by Perfetto and chrome://tracing).

use crate::util::Json;
use std::time::Instant;

/// One timed call into a layer, made by one PE during one round.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pe: usize,
    pub round: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A per-PE span recorder. When disabled, `span` only runs the closure.
pub struct Tracer {
    epoch: Instant,
    pe: usize,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, pe: usize) -> Self {
        Tracer { epoch, pe, enabled: false, spans: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f`, recording it as span `name` of `round` when tracing is on.
    pub fn span<R>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            pe: self.pe,
            round,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        out
    }
}

/// Chrome trace-event JSON ("X" complete events; one thread row per PE).
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Int(0)),
                ("tid", Json::Int(s.pe as u64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                (
                    "args",
                    Json::obj([("pe", Json::Int(s.pe as u64)), ("round", Json::Int(s.round))]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ns"))]).render()
}
