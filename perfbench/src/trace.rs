//! In-memory spans around calls into the library's layers.
//!
//! A span has a name (`layer.call`), a start and end on one monotonic
//! clock, the span that contains it, and the message it belongs to.
//! Spans stay in memory while the benchmark runs and are written out
//! once, at the end. With tracing off every call is a single branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; [`NO_SPAN`] for none.
pub type SpanId = u32;

/// The parent of a root span, and the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

/// One timed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Enclosing span, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Message (or round trip) the span belongs to.
    pub msg: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder with a fixed capacity (spans past it are counted, not
/// kept).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            cap: 0,
            dropped: 0,
        }
    }

    /// A recording tracer holding at most `cap` spans.
    pub fn with_capacity(cap: usize) -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True once a recording tracer has no room left.
    pub fn is_full(&self) -> bool {
        self.on && self.spans.len() >= self.cap
    }

    /// ns since the epoch of `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, msg: u64) -> SpanId {
        self.begin_at(name, Instant::now(), parent, msg)
    }

    /// Open a span that started at `start`.
    #[inline]
    pub fn begin_at(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: SpanId,
        msg: u64,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.ns(start);
        self.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            msg,
        })
    }

    /// Close span `id` now.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Record a span whose bounds were measured by the caller.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        msg: u64,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            msg,
        })
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        msg: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, msg);
        let out = f();
        self.end(id);
        out
    }

    fn push(&mut self, s: Span) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(s);
        (self.spans.len() - 1) as SpanId
    }

    /// Self time per layer, ns: each span's duration minus the part of
    /// it its direct children cover.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.dur().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"msg\":{}}}",
                s.name, s.start_ns, s.end_ns, s.msg
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            msg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::with_capacity(8);
        t.spans = vec![
            span("e2e.op", 0, 100, NO_SPAN),
            span("transport.send", 10, 30, 0),
            span("transport.wait", 40, 90, 0),
            span("core.next_tx", 50, 60, 2),
        ];
        let by = t.self_ns_by_layer();
        assert_eq!(by["e2e"], 30);
        assert_eq!(by["transport"], 20 + 40);
        assert_eq!(by["core"], 10);
        assert_eq!(
            by.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_and_full_tracer_counts_drops() {
        let mut off = Tracer::off();
        let id = off.begin("core.submit_send", NO_SPAN, 1);
        off.end(id);
        assert_eq!(off.span("x.y", NO_SPAN, 0, || 7), 7);
        assert!(off.spans().is_empty());
        let mut t = Tracer::with_capacity(1);
        let a = t.begin("a.b", NO_SPAN, 0);
        let b = t.begin("a.c", a, 0);
        t.end(b);
        t.end(a);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped(), 1);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
    }
}
