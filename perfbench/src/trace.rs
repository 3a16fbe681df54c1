//! In-memory span recorder for the traced run.
//!
//! Spans wrap the public calls the benchmark makes into each layer. They
//! are kept in memory while the workload runs and written out as Chrome
//! Trace Event JSON when the run ends. A disabled tracer never reads the
//! clock, so the end-to-end run pays nothing but a branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: a named interval and the span that enclosed it.
#[derive(Debug, Clone)]
struct Span {
    /// Layer boundary the span wraps.
    name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Time of fine-grained calls too numerous to keep one span each
    /// (per-turn trace pulls): name -> (calls, nanoseconds).
    aggregates: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A tracer that records every span.
    #[must_use]
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Times `f` into the aggregate named `name` (no span of its own).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let entry = self.aggregates.entry(name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += ns;
        out
    }

    /// Total seconds spent in spans and aggregates named `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let agg = self.aggregates.get(name).map_or(0, |&(_, ns)| ns);
        (spans + agg) as f64 * 1e-9
    }

    /// Renders the spans (complete events) and aggregates (counter
    /// metadata) as Chrome Trace Event JSON, which Perfetto opens.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("],\"aggregates\":{");
        for (i, (name, (calls, ns))) in self.aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"calls\":{calls},\"ns\":{ns}}}");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_disabled_records_nothing() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.timed("pull", || ());
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.seconds("outer") >= t.seconds("inner"));
        assert!(t.chrome_json().contains("\"pull\":{\"calls\":1"));

        let mut off = Tracer::off();
        off.span("outer", |t| t.timed("pull", || ()));
        assert!(off.spans.is_empty());
        assert_eq!(off.seconds("pull"), 0.0);
    }
}
