//! Spans recorded by the harness around its calls into the crates.
//!
//! A span is {name, start, end, parent, op id}. Spans stay in memory while
//! the run measures and are written out once it has ended.

use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// The calls the harness wraps. `Op` is the root of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Op,
    TxnBegin,
    TxnRead,
    TxnUpdate,
    TxnCommitRo,
    TxnCommitRw,
    ServerEncode,
    ServerRtt,
    ServerDecode,
}

impl SpanName {
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::TxnBegin => "txn.begin",
            SpanName::TxnRead => "txn.read",
            SpanName::TxnUpdate => "txn.update",
            SpanName::TxnCommitRo => "txn.commit_ro",
            SpanName::TxnCommitRw => "txn.commit_rw",
            SpanName::ServerEncode => "server.encode",
            SpanName::ServerRtt => "server.rtt",
            SpanName::ServerDecode => "server.decode",
        }
    }
}

/// Spans written to the trace file; all of them stay in memory for the medians.
pub const FILE_SPANS: usize = 50_000;

/// No parent: the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: SpanName,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// An in-memory span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Open a span now.
    #[inline]
    pub fn begin(&mut self, name: SpanName, parent: Option<SpanId>, op: u64) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: parent.map_or(ROOT, |p| p.0),
            op: op as u32,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        SpanId(id)
    }

    /// Close `id` now.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: SpanName) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(std::time::Duration::from_nanos(s.end_ns - s.start_ns));
        }
        out
    }

    /// Total time inside spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: SpanName) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        total as f64
    }

    /// Number of `Op` spans: the operations traced.
    pub fn ops(&self) -> usize {
        self.spans.iter().filter(|s| s.name == SpanName::Op).count()
    }

    /// Self time of every `Op` span: its duration minus the part its child
    /// spans cover.
    pub fn op_self_times(&self) -> Samples {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = Samples::default();
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.name == SpanName::Op {
                let own = (s.end_ns - s.start_ns).saturating_sub(*c);
                out.push(std::time::Duration::from_nanos(own));
            }
        }
        out
    }

    /// Write the first [`FILE_SPANS`] spans to `trace-<workload>.json` in
    /// the results directory; returns a line saying so.
    pub fn write_for(&self, workload: &str) -> Result<String, String> {
        let path = crate::results_dir().join(format!("trace-{workload}.json"));
        self.write_json(&path, workload, FILE_SPANS)
            .map_err(crate::err("write trace"))?;
        Ok(format!(
            "trace: {} spans recorded, the first {} written to {}",
            self.len(),
            self.len().min(FILE_SPANS),
            path.display()
        ))
    }

    /// Write the first `limit` spans as JSON; the header states how many
    /// were recorded in all.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        limit: usize,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(limit);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans_recorded\": {}, \"spans_written\": {written}, \"spans\": [",
            self.spans.len()
        )?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}}}{}",
                s.name.label(),
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 < written { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// The op being traced: where its child spans hang.
pub struct TraceCtx<'t> {
    pub tracer: &'t mut Tracer,
    pub op_span: SpanId,
    pub op: u64,
}

/// Run `f` inside a child span of the current op, when there is one.
#[inline]
pub fn spanned<T>(ctx: &mut Option<TraceCtx<'_>>, name: SpanName, f: impl FnOnce() -> T) -> T {
    match ctx {
        None => f(),
        Some(c) => {
            let s = c.tracer.begin(name, Some(c.op_span), c.op);
            let out = f();
            c.tracer.end(s);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 8);
        let op = t.begin(SpanName::Op, None, 0);
        let child = t.begin(SpanName::TxnRead, Some(op), 0);
        t.end(child);
        t.end(op);
        // Fix the clock readings so the arithmetic is exact.
        t.spans[0].start_ns = 100;
        t.spans[0].end_ns = 1100;
        t.spans[1].start_ns = 200;
        t.spans[1].end_ns = 900;
        assert_eq!(t.durations(SpanName::TxnRead).p50(), 700.0);
        assert_eq!(t.op_self_times().p50(), 300.0);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 4);
        let op = a.begin(SpanName::Op, None, 0);
        a.end(op);
        let mut b = Tracer::new(epoch, 4);
        let op = b.begin(SpanName::Op, None, 1);
        let c = b.begin(SpanName::ServerRtt, Some(op), 1);
        b.end(c);
        b.end(op);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, 1);
    }
}
