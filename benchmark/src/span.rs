//! In-memory spans around the harness's calls into each layer.
//!
//! The traced pass is single-threaded, so a stack gives each span its
//! parent. Spans stay in memory and are written once, at exit, as a
//! Chrome-trace file (open it in `chrome://tracing` or ui.perfetto.dev).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call: nanoseconds since the recorder's start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The sweep point (or machine) the call belongs to: spans of one
    /// point share it.
    pub point: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle to an open span; pass it back to [`Spans::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

/// The span recorder. A disabled recorder records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for `point`, child of the innermost open
    /// span.
    pub fn begin(&mut self, name: &'static str, point: usize) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            point,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus the part of it its child spans cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        self_ns_by_name(&self.spans)
    }

    /// The spans as a Chrome-trace document: one complete (`"X"`) event
    /// per span, microsecond timestamps, the point id as the thread id so
    /// each point gets its own row.
    pub fn chrome_trace(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.point as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("traceEvents", Json::Arr(events.collect())),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            point: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("point", 0, 100, None),
            span("machine.new", 10, 30, Some(0)),
            span("machine.run", 30, 90, Some(0)),
            span("snapshot.resume", 40, 50, Some(2)),
            span("machine.new", 200, 205, None),
        ];
        let by_name = self_ns_by_name(&spans);
        assert_eq!(by_name["point"], 100 - 20 - 60);
        assert_eq!(by_name["machine.new"], 20 + 5);
        assert_eq!(by_name["machine.run"], 60 - 10);
        assert_eq!(by_name["snapshot.resume"], 10);
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut rec = Spans::new(true);
        let outer = rec.begin("point", 3);
        let inner = rec.begin("machine.run", 3);
        rec.end(inner);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let trace = rec.chrome_trace();
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Spans::new(false);
        let open = rec.begin("machine.run", 0);
        rec.end(open);
        assert!(rec.spans().is_empty());
    }
}
