//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the ledger's own code around its calls into
//! each layer (nothing inside the program changes), kept in memory while
//! the workload runs, and written as JSON lines when the run ends. The
//! recorder also times itself, which is the tracing overhead it reports.

use raven_json::Json;
use std::io::Write;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Span store for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    overhead: Duration,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let t = Instant::now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start: t,
            end: t,
        });
        self.overhead += t.elapsed();
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        let t = Instant::now();
        self.spans[id].end = t;
        self.overhead += t.elapsed();
    }

    /// Records a finished span from timestamps taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let t = Instant::now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end,
        });
        self.overhead += t.elapsed();
        self.spans.len() - 1
    }

    /// Time spent inside the recorder so far.
    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    /// Appends every span to `path` as one JSON object per line.
    pub fn append_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::from(workload)),
                ("req", Json::from(s.req as f64)),
                ("id", Json::from(id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(s.name)),
                ("start_us", Json::from(us(s.start))),
                ("end_us", Json::from(us(s.end))),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
