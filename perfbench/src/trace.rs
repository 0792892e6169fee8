//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and a parent; every span of one
//! operation carries that operation's id. Spans stay in memory while the run
//! measures and are written out, one JSON object per line, when it ends. A
//! tracer that is off records nothing and never reads the clock, so the
//! untraced run executes the same benchmark code without the timing.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer boundary the span covers, e.g. `stream.tick`.
    pub name: &'static str,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when the tracer is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op` under `parent`.
    #[inline]
    pub fn start(&mut self, op: u64, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::start`].
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records a span measured elsewhere (e.g. on another thread) from two
    /// instants.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: SpanId,
        from: Instant,
        to: Instant,
    ) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            op,
            name,
            parent: parent.0,
            start_ns: at(from),
            end_ns: at(to),
        });
    }

    /// The root handle (no parent).
    pub const ROOT: SpanId = SpanId(None);

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, and how many there were.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.total_since(name, 0)
    }

    /// Like [`Tracer::total`], over the spans recorded from index `from` on
    /// (see [`Tracer::spans`]).
    pub fn total_since(&self, name: &str, from: usize) -> (u64, usize) {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
