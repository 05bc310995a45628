//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written once, after the run, as one
//! JSON object per line: `{id, parent, query, name, start_us, end_us}`.
//! `query` groups the spans of one request (or one replayed pool item);
//! `parent` is the span that caused this one.

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub query: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span sink with its own clock origin.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::at(Instant::now())
    }

    /// A sink whose clock starts at `epoch`: client threads record
    /// against their parent trace's origin, then get absorbed into it.
    pub fn at(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Microseconds since this trace began.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        query: u64,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in µs.
    pub fn time<R>(&mut self, query: u64, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.record(None, query, name, start_us, end_us);
        (out, end_us - start_us)
    }

    /// Appends another sink's spans (recorded against the same epoch by
    /// a client thread), re-numbering ids and parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it covered
    /// by its direct children, in span order.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let covered = span.end_us.min(p.end_us) - span.start_us.max(p.start_us);
                own[parent as usize] -= covered.max(0.0);
            }
        }
        own
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("query", Json::Num(span.query as f64)),
                ("name", Json::str(span.name)),
                ("start_us", Json::Num(span.start_us)),
                ("end_us", Json::Num(span.end_us)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only() {
        let mut trace = Trace::new();
        let root = trace.record(None, 0, "client.query", 0.0, 100.0);
        trace.record(Some(root), 0, "serve.execute", 20.0, 80.0);
        trace.record(None, 1, "core.bl", 200.0, 230.0);
        assert_eq!(trace.self_times_us(), vec![40.0, 60.0, 30.0]);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Trace::new();
        a.record(None, 0, "x", 0.0, 1.0);
        let mut b = Trace::new();
        let p = b.record(None, 7, "client.query", 0.0, 10.0);
        b.record(Some(p), 7, "serve.execute", 2.0, 8.0);
        a.absorb(b);
        assert_eq!(a.spans()[2].id, 2);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
