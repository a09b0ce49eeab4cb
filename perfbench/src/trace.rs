//! In-memory span recorder. Spans are taken from the benchmark's own clocks
//! around public calls into each layer; they are written out as JSON lines
//! when the run ends. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Traced pass the span belongs to (spans of one pass are summed into the
    /// per-pass layer figures).
    pub pass: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_pass(&mut self, pass: u64) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            pass: self.pass,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Records a child span of `parent` covering `duration` at the end of the
    /// parent's interval. Used for the one layer whose time only the program
    /// itself can see (swap insertion inside a scheduling pass).
    pub fn record_tail(&mut self, name: &'static str, parent: Open, duration: Duration) {
        if let Some(pid) = parent.0 {
            let p = &self.spans[pid];
            let len = (duration.as_nanos() as u64).min(p.duration_ns());
            let span = Span {
                name,
                start_ns: p.end_ns - len,
                end_ns: p.end_ns,
                parent: Some(pid),
                request: p.request,
                pass: p.pass,
            };
            self.spans.push(span);
        }
    }

    /// Self time per span: its duration minus the part its children cover.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self time in milliseconds, summed per (pass, span name).
    pub fn self_ms_by_pass(&self) -> BTreeMap<(u64, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry((span.pass, span.name)).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Number of spans recorded (the trace's own cost scales with it).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// JSON lines, one span per line, with self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{},\"pass\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request, span.pass
            );
        }
        out
    }
}
