//! Hierarchical spans, the JSONL event sink, and the enable switch.
//!
//! Spans time regions of code on the monotonic clock ([`std::time::Instant`])
//! and form a per-thread hierarchy: a span opened while another is live on
//! the same thread records it as its parent, which is what a flamegraph
//! post-processor needs (`scripts/trace2folded.rs` folds the JSONL into
//! `parent;child dur` stacks).
//!
//! Cost model: when telemetry is [disabled](set_enabled) a span is one
//! relaxed atomic load and no clock read; when enabled but no sink is
//! installed it is two clock reads plus an optional histogram observe;
//! JSONL serialization only happens with a sink installed.

use crate::metric::Histogram;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide switch for clock-reading telemetry (spans and [`Timer`]s).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Cheap mirror of "a sink is installed" to skip the mutex on the hot path.
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
/// The JSONL sink itself.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
/// Monotonically increasing span/event ids (0 = "no parent").
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of currently-open span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Process epoch: all JSONL timestamps are microseconds since the first
/// telemetry call, keeping traces free of wall-clock skew.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the telemetry epoch (the span timebase).
pub(crate) fn epoch_elapsed_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Mints a fresh span id from the process-wide sequence.
pub(crate) fn mint_span_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Empties the calling thread's span stack.
///
/// `raven-serve` calls this at every job start (and when the watchdog
/// respawns a worker thread) so a span leaked by a panicked or misbehaving
/// job can never become the parent of a later job's spans on the reused
/// thread. Live [`SpanGuard`]s tolerate the clear: their drop pops by id
/// and a missing id is a no-op.
pub fn reset_thread_spans() {
    SPAN_STACK.with(|s| s.borrow_mut().clear());
}

/// Turns clock-reading telemetry on or off (counters are always live).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether clock-reading telemetry is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a JSONL sink is installed.
#[inline]
pub fn sink_active() -> bool {
    SINK_ACTIVE.load(Ordering::Relaxed)
}

/// Installs an arbitrary writer as the JSONL sink and enables telemetry.
pub fn set_sink_writer(w: Box<dyn Write + Send>) {
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(w);
    SINK_ACTIVE.store(true, Ordering::Relaxed);
    set_enabled(true);
    epoch(); // pin the epoch before the first event
}

/// Opens (truncating) `path` and installs it as the JSONL sink.
pub fn set_sink_path(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    set_sink_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Flushes and removes the sink (telemetry stays enabled).
pub fn clear_sink() {
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(mut w) = guard.take() {
        let _ = w.flush();
    }
    SINK_ACTIVE.store(false, Ordering::Relaxed);
}

/// Escapes a string for direct inclusion inside JSON quotes.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn write_line(line: &str) {
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{line}");
    }
}

fn thread_label(out: &mut String) {
    let cur = std::thread::current();
    match cur.name() {
        Some(name) => escape_into(out, name),
        None => {
            let _ = std::fmt::Write::write_fmt(out, format_args!("{:?}", cur.id()));
        }
    }
}

/// Emits a one-off structured event (`{"type":"event",...}`) to the sink
/// and, when a [trace context](crate::current_trace) is installed on the
/// thread, into the trace's ring buffer.
///
/// No-op without a sink or trace. Field values are emitted as JSON strings.
pub fn event(name: &str, fields: &[(&str, String)]) {
    let trace = crate::trace::current_trace();
    if !sink_active() && trace.is_none() {
        return;
    }
    let ts_us = epoch_elapsed_us();
    if let Some(ctx) = trace {
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        crate::trace::record_into(
            ctx,
            crate::trace::TraceRecord {
                kind: "event",
                name: name.to_string(),
                id: 0,
                parent: if parent == 0 { ctx.parent_span } else { parent },
                thread: {
                    let mut t = String::new();
                    thread_label(&mut t);
                    t
                },
                start_us: ts_us,
                dur_us: 0,
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        );
    }
    if !sink_active() {
        return;
    }
    let mut line = String::with_capacity(96);
    line.push_str("{\"type\":\"event\",\"name\":\"");
    escape_into(&mut line, name);
    line.push_str("\",\"thread\":\"");
    thread_label(&mut line);
    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("\",\"ts_us\":{ts_us}"));
    if let Some(ctx) = trace {
        let _ = std::fmt::Write::write_fmt(
            &mut line,
            format_args!(",\"trace\":\"{:032x}\"", ctx.trace_id),
        );
    }
    for (k, v) in fields {
        line.push_str(",\"");
        escape_into(&mut line, k);
        line.push_str("\":\"");
        escape_into(&mut line, v);
        line.push('"');
    }
    line.push('}');
    write_line(&line);
}

/// A live span; the region ends (and the record is emitted) on drop.
///
/// Inert — no clock read, no allocation — when telemetry is disabled.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    /// `None` when telemetry was disabled at open time.
    start: Option<Instant>,
    name: &'static str,
    id: u64,
    parent: u64,
    /// Optional histogram that receives the elapsed seconds.
    hist: Option<&'static Histogram>,
}

/// Opens a span named `name`. See [`SpanGuard`].
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, None)
}

/// Opens a span that additionally records its elapsed seconds into `hist`
/// — the form used for pipeline phase timings.
pub fn timed_span(name: &'static str, hist: &'static Histogram) -> SpanGuard {
    span_with(name, Some(hist))
}

fn span_with(name: &'static str, hist: Option<&'static Histogram>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start: None,
            name,
            id: 0,
            parent: 0,
            hist: None,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    SpanGuard {
        start: Some(Instant::now()),
        name,
        id,
        parent,
        hist,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own id; scoped drop order makes this the top, but be
            // tolerant of manual early drops out of order.
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        if let Some(h) = self.hist {
            h.observe(elapsed.as_secs_f64());
        }
        let trace = crate::trace::current_trace();
        if !sink_active() && trace.is_none() {
            return;
        }
        let start_us = (start.saturating_duration_since(epoch())).as_micros() as u64;
        let dur_us = elapsed.as_micros() as u64;
        if let Some(ctx) = trace {
            crate::trace::record_into(
                ctx,
                crate::trace::TraceRecord {
                    kind: "span",
                    name: self.name.to_string(),
                    id: self.id,
                    // A thread-root span belongs to the trace's designated
                    // parent (the request root or the dispatch span).
                    parent: if self.parent == 0 {
                        ctx.parent_span
                    } else {
                        self.parent
                    },
                    thread: {
                        let mut t = String::new();
                        thread_label(&mut t);
                        t
                    },
                    start_us,
                    dur_us,
                    fields: Vec::new(),
                },
            );
        }
        if sink_active() {
            let mut line = String::with_capacity(128);
            line.push_str("{\"type\":\"span\",\"name\":\"");
            escape_into(&mut line, self.name);
            let _ = std::fmt::Write::write_fmt(
                &mut line,
                format_args!(
                    "\",\"id\":{},\"parent\":{},\"thread\":\"",
                    self.id, self.parent
                ),
            );
            thread_label(&mut line);
            let _ = std::fmt::Write::write_fmt(
                &mut line,
                format_args!("\",\"start_us\":{start_us},\"dur_us\":{dur_us}"),
            );
            if let Some(ctx) = trace {
                let _ = std::fmt::Write::write_fmt(
                    &mut line,
                    format_args!(",\"trace\":\"{:032x}\"", ctx.trace_id),
                );
            }
            line.push('}');
            write_line(&line);
        }
    }
}

/// Drop-guard that records elapsed seconds into a histogram. Unlike a span
/// it never touches the sink — it is the cheap form for per-layer timings.
#[must_use = "a timer measures the scope it lives in"]
pub struct Timer {
    start: Option<Instant>,
    hist: &'static Histogram,
}

impl Timer {
    /// Starts timing if telemetry is enabled; inert otherwise.
    #[inline]
    pub fn start(hist: &'static Histogram) -> Self {
        Self {
            start: enabled().then(Instant::now),
            hist,
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.observe_duration(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Serializes tests that flip the process-wide switch or sink.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Shared in-memory sink for inspecting emitted JSONL.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn spans_nest_and_emit_jsonl() {
        let _g = global_lock();
        let buf = Buf::default();
        set_sink_writer(Box::new(buf.clone()));
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
        }
        event("note", &[("k", "v\"esc".to_string())]);
        clear_sink();
        set_enabled(false);

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Inner drops (and is emitted) first.
        assert!(lines[0].contains("\"name\":\"inner\""));
        assert!(lines[1].contains("\"name\":\"outer\""));
        assert!(lines[2].contains("\"type\":\"event\""));
        assert!(lines[2].contains("\\\"esc"));

        // The inner span's parent is the outer span's id.
        let id_of = |line: &str, key: &str| -> u64 {
            let rest = &line[line.find(key).unwrap() + key.len()..];
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let outer_id = id_of(lines[1], "\"id\":");
        let inner_parent = id_of(lines[0], "\"parent\":");
        assert_eq!(inner_parent, outer_id);
        assert_eq!(id_of(lines[1], "\"parent\":"), 0);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = global_lock();
        set_enabled(false);
        let g = span("quiet");
        assert!(g.start.is_none());
        drop(g);
    }
}
