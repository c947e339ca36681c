//! Host-clock spans recorded around calls into each layer.
//!
//! The benchmark times every layer from outside, by wrapping calls into
//! that layer's public functions. A traced run keeps each timing as a span
//! with its parent, so the report can split time into per-layer self time
//! and an explicit `unattributed` residual (time inside the root span that
//! no layer call covers: input generation, checks, the benchmark's own
//! bookkeeping). An untraced run measures the same calls without keeping
//! the spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `core.solve`.
    name: &'static str,
    /// Index of the enclosing span, `None` for the root.
    parent: Option<usize>,
    /// Start, microseconds since the recorder was created.
    start_us: f64,
    /// Duration in microseconds.
    dur_us: f64,
}

/// Handle of an open span; pass it back to [`Spans::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed self time (duration minus direct children), milliseconds.
    pub self_ms: f64,
}

/// Span recorder. When disabled, [`Spans::begin`]/[`Spans::end`] still
/// time the call but keep nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: 0.0,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { index, start }
    }

    /// Close a span; returns its duration in seconds. Spans close in
    /// reverse order of opening.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.start.elapsed().as_secs_f64();
        if let Some(i) = open.index {
            self.spans[i].dur_us = secs * 1e6;
            debug_assert_eq!(self.stack.last(), Some(&i), "spans must nest");
            self.stack.pop();
        }
        secs
    }

    /// Time `f` as one span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let out = f();
        let secs = self.end(open);
        (out, secs)
    }

    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us;
            }
        }
        own
    }

    /// Count, total and self time per span name, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_us()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += s.dur_us / 1e3;
            t.self_ms += own / 1e3;
        }
        out
    }

    /// Self time of the root spans in milliseconds: time the run spent
    /// outside every layer call.
    pub fn unattributed_ms(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.self_us())
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, own)| own / 1e3)
            .sum()
    }

    /// The spans as a Chrome trace-event JSON array (`chrome://tracing`,
    /// Perfetto). Each event carries its parent's name and its self time.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_us()).enumerate() {
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"parent\":\"{parent}\",\"self_us\":{own}}}}}",
                s.name, s.start_us, s.dur_us
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::new(true);
        let root = spans.begin("root");
        let outer = spans.begin("a.outer");
        let ((), _) = spans.time("b.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        spans.end(outer);
        spans.end(root);
        let t = spans.totals();
        let inner = t["b.inner"].total_ms;
        assert!((t["a.outer"].self_ms - (t["a.outer"].total_ms - inner)).abs() < 1e-9);
        assert!((t["root"].self_ms - (t["root"].total_ms - t["a.outer"].total_ms)).abs() < 1e-9);
        assert!((spans.unattributed_ms() - t["root"].self_ms).abs() < 1e-12);
        assert!(spans.chrome_json().contains("\"parent\":\"a.outer\""));
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut spans = Spans::new(false);
        let open = spans.begin("x");
        assert!(spans.end(open) >= 0.0);
        assert!(spans.totals().is_empty());
        assert_eq!(spans.unattributed_ms(), 0.0);
    }
}
