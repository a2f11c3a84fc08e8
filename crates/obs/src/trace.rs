//! Request-scoped tracing: trace context, per-trace buffers, and the
//! tail-sampling policy.
//!
//! A [`TraceCtx`] names one end-to-end request: a 128-bit trace id (wire
//! format: a W3C `traceparent`-style header) plus the span id that should
//! parent any thread-root span opened while the context is installed. The
//! context is **carried explicitly**: nothing flows between threads unless
//! someone calls [`set_current_trace`] (or holds a [`TraceScope`]) on the
//! receiving thread — `raven-serve` does this at job boundaries, and
//! `raven`'s parallel map does it for its scoped workers.
//!
//! While a context is current, every span and event that closes on the
//! thread is additionally recorded into a bounded per-trace ring buffer
//! (capacity [`TRACE_BUFFER_CAP`]; the oldest records are dropped and
//! counted). The buffer is keyed by an opaque collection key minted by
//! [`begin_trace`], *not* by the trace id — so two requests that continue
//! the same caller's `traceparent` can buffer the same trace id
//! concurrently without stealing each other's records.
//!
//! Collection is unconditional while a context is current; *retention* is
//! decided at the end of the request by a [`TailSampler`]: traces that were
//! slow, degraded, errored, or retried are always kept, the rest are sampled by a deterministic hash of the trace id.
//!
//! Everything here is observe-only (see the crate-level determinism
//! contract): trace buffers are write-only from the solver's perspective
//! and can never feed back into a verdict.

use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Maximum records buffered per trace; older records are dropped (counted).
pub const TRACE_BUFFER_CAP: usize = 4096;
/// Maximum concurrently-collecting traces; beyond this, [`begin_trace`]
/// returns an unbuffered context rather than growing without bound.
const MAX_LIVE_TRACES: usize = 1024;

/// The identity of one end-to-end request, carried explicitly across
/// threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// 128-bit trace id (nonzero); a caller's `traceparent` header
    /// supplies it, or it is minted for the request.
    pub trace_id: u128,
    /// Span id that parents any span whose thread-local stack is empty
    /// while this context is current — the request's root.
    pub parent_span: u64,
    /// Collection-buffer key minted by [`begin_trace`]; `0` = unbuffered.
    key: u64,
}

impl TraceCtx {
    /// Renders the context as a `traceparent` header value.
    pub fn traceparent(&self) -> String {
        format_traceparent(self.trace_id, self.parent_span)
    }
}

/// One buffered span or event, as captured into a per-trace ring buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// `"span"` or `"event"`.
    pub kind: &'static str,
    pub name: String,
    /// Span id (`0` for events).
    pub id: u64,
    /// Parent span id (`0` = trace root).
    pub parent: u64,
    /// Thread label.
    pub thread: String,
    /// Microseconds since the process's telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds (`0` for events).
    pub dur_us: u64,
    /// Extra key/value fields (events only).
    pub fields: Vec<(String, String)>,
}

/// The drained contents of one trace's ring buffer.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    pub records: Vec<TraceRecord>,
    /// Records lost to the ring-buffer cap.
    pub dropped: u64,
}

struct TraceBuf {
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

fn buffers() -> &'static Mutex<HashMap<u64, TraceBuf>> {
    static BUFFERS: OnceLock<Mutex<HashMap<u64, TraceBuf>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Collection keys; 0 is reserved for "unbuffered".
static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The trace context installed on this thread, if any.
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// Allocates a ring buffer for a trace and returns the context to install.
///
/// If `MAX_LIVE_TRACES` (1024) collections are already live the context
/// comes back unbuffered (spans still tag JSONL lines, nothing is retained).
pub fn begin_trace(trace_id: u128, parent_span: u64) -> TraceCtx {
    let mut map = buffers().lock().unwrap_or_else(|e| e.into_inner());
    let key = if map.len() >= MAX_LIVE_TRACES {
        0
    } else {
        let key = NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key,
            TraceBuf {
                records: VecDeque::new(),
                dropped: 0,
            },
        );
        key
    };
    TraceCtx {
        trace_id,
        parent_span,
        key,
    }
}

/// Removes and returns everything buffered for `ctx`.
pub fn end_trace(ctx: TraceCtx) -> TraceData {
    let mut map = buffers().lock().unwrap_or_else(|e| e.into_inner());
    match map.remove(&ctx.key) {
        Some(buf) => TraceData {
            records: buf.records.into(),
            dropped: buf.dropped,
        },
        None => TraceData::default(),
    }
}

/// Drops a trace's buffer without reading it. Idempotent — safe to call
/// as a cleanup backstop after [`end_trace`] may already have run.
pub fn discard_trace(ctx: TraceCtx) {
    let mut map = buffers().lock().unwrap_or_else(|e| e.into_inner());
    map.remove(&ctx.key);
}

/// Installs (or clears) the trace context on the calling thread.
pub fn set_current_trace(ctx: Option<TraceCtx>) {
    CURRENT.with(|c| c.set(ctx));
}

/// The trace context installed on the calling thread, if any.
#[inline]
pub fn current_trace() -> Option<TraceCtx> {
    CURRENT.with(|c| c.get())
}

/// RAII guard from [`propagate_trace`]: restores the previous context on
/// drop, so nesting is safe.
#[must_use = "dropping the scope immediately uninstalls the trace"]
pub struct TraceScope {
    prev: Option<TraceCtx>,
}

/// Installs `ctx` on the calling thread for the lifetime of the returned
/// guard — the explicit cross-thread handoff used by `raven`'s parallel
/// workers and the verify entry points.
pub fn propagate_trace(ctx: Option<TraceCtx>) -> TraceScope {
    let prev = current_trace();
    set_current_trace(ctx);
    TraceScope { prev }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        set_current_trace(self.prev);
    }
}

/// Appends `record` to the buffer of `ctx` (ring-buffer semantics), on
/// span close and on every event.
pub(crate) fn record_into(ctx: TraceCtx, record: TraceRecord) {
    if ctx.key == 0 {
        return;
    }
    let mut map = buffers().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(buf) = map.get_mut(&ctx.key) {
        if buf.records.len() >= TRACE_BUFFER_CAP {
            buf.records.pop_front();
            buf.dropped += 1;
        }
        buf.records.push_back(record);
    }
}

/// Mints a fresh span id from the process-wide sequence — used for the
/// request root span a trace context names as parent.
pub fn next_span_id() -> u64 {
    crate::span::mint_span_id()
}

/// Microseconds since the process telemetry epoch (the span timebase).
pub fn now_us() -> u64 {
    crate::span::epoch_elapsed_us()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mints a fresh, nonzero 128-bit trace id (wall clock + sequence, mixed).
pub fn mint_trace_id() -> u128 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let hi = splitmix64((nanos as u64) ^ seq.rotate_left(32));
    let lo = splitmix64(((nanos >> 64) as u64) ^ seq ^ 0x517c_c1b7_2722_0a95);
    let id = ((hi as u128) << 64) | lo as u128;
    if id == 0 {
        1
    } else {
        id
    }
}

/// Parses a W3C-style `traceparent` header (`VV-<32 hex>-<16 hex>-FF`)
/// into `(trace_id, parent_span_id)`. Rejects the all-zero trace id, the
/// invalid version `ff`, and anything malformed.
pub fn parse_traceparent(value: &str) -> Option<(u128, u64)> {
    let mut parts = value.trim().splitn(4, '-');
    let version = parts.next()?;
    let trace = parts.next()?;
    let parent = parts.next()?;
    let flags = parts.next()?;
    if version.len() != 2 || trace.len() != 32 || parent.len() != 16 || flags.len() != 2 {
        return None;
    }
    u8::from_str_radix(version, 16)
        .ok()
        .filter(|&v| v != 0xff)?;
    u8::from_str_radix(flags, 16).ok()?;
    let trace_id = u128::from_str_radix(trace, 16).ok().filter(|&t| t != 0)?;
    let parent_span = u64::from_str_radix(parent, 16).ok()?;
    Some((trace_id, parent_span))
}

/// Renders a `traceparent` header value (sampled flag always set).
pub fn format_traceparent(trace_id: u128, span_id: u64) -> String {
    format!("00-{trace_id:032x}-{span_id:016x}-01")
}

/// Everything the tail sampler needs to know about a finished request.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceOutcome {
    pub duration: Duration,
    /// The verdict fell down the anytime precision ladder.
    pub degraded: bool,
    /// The job returned an error instead of a verdict.
    pub errored: bool,
    /// The job ran more than once (panic-recovery retry).
    pub retried: bool,
}

/// Why a trace was retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeepReason {
    Errored,
    Retried,
    Degraded,
    Slow,
    Sampled,
}

impl KeepReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            KeepReason::Errored => "errored",
            KeepReason::Retried => "retried",
            KeepReason::Degraded => "degraded",
            KeepReason::Slow => "slow",
            KeepReason::Sampled => "sampled",
        }
    }
}

/// Tail-sampling policy: decide *after* the request which traces to keep.
///
/// Interesting traces (see [`TraceOutcome`]) are always kept; boring ones
/// are sampled by a deterministic hash of the trace id, so the decision is
/// reproducible across runs and thread counts.
#[derive(Clone, Copy, Debug)]
pub struct TailSampler {
    /// Requests at least this slow are always kept.
    pub slow: Duration,
    /// Probability (`0.0..=1.0`) of keeping an otherwise-boring trace.
    pub sample_rate: f64,
}

impl TailSampler {
    /// Whether to keep `trace_id` given its `outcome`, and why.
    pub fn keep(&self, trace_id: u128, outcome: &TraceOutcome) -> Option<KeepReason> {
        if outcome.errored {
            Some(KeepReason::Errored)
        } else if outcome.retried {
            Some(KeepReason::Retried)
        } else if outcome.degraded {
            Some(KeepReason::Degraded)
        } else if outcome.duration >= self.slow {
            Some(KeepReason::Slow)
        } else if self.sample_hit(trace_id) {
            Some(KeepReason::Sampled)
        } else {
            None
        }
    }

    fn sample_hit(&self, trace_id: u128) -> bool {
        if self.sample_rate >= 1.0 {
            return true;
        }
        if self.sample_rate <= 0.0 {
            return false;
        }
        let mixed = splitmix64((trace_id as u64) ^ ((trace_id >> 64) as u64));
        (mixed as f64 / u64::MAX as f64) < self.sample_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_roundtrips() {
        let id = mint_trace_id();
        let header = format_traceparent(id, 42);
        let (back, span) = parse_traceparent(&header).expect("parses");
        assert_eq!(back, id);
        assert_eq!(span, 42);
    }

    #[test]
    fn traceparent_rejects_malformed_values() {
        assert!(parse_traceparent("").is_none());
        assert!(parse_traceparent("00-abc-def-01").is_none());
        // All-zero trace id is invalid per the W3C spec.
        let zero = format!("00-{:032x}-{:016x}-01", 0u128, 7u64);
        assert!(parse_traceparent(&zero).is_none());
        // Version ff is reserved-invalid.
        let ff = format!("ff-{:032x}-{:016x}-01", 9u128, 7u64);
        assert!(parse_traceparent(&ff).is_none());
        // Whitespace around an otherwise-valid header is tolerated.
        let ok = format!("  00-{:032x}-{:016x}-00  ", 9u128, 7u64);
        assert_eq!(parse_traceparent(&ok), Some((9, 7)));
    }

    #[test]
    fn minted_trace_ids_are_nonzero_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn buffers_are_keyed_per_collection_not_per_trace_id() {
        // Two requests continuing one caller's trace both collect trace 77.
        let server = begin_trace(77, 1);
        let other = begin_trace(77, 0);
        record_into(
            server,
            TraceRecord {
                kind: "span",
                name: "local".into(),
                id: 10,
                parent: 1,
                thread: "t".into(),
                start_us: 0,
                dur_us: 5,
                fields: Vec::new(),
            },
        );
        record_into(
            other,
            TraceRecord {
                kind: "span",
                name: "other".into(),
                id: 11,
                parent: 0,
                thread: "u".into(),
                start_us: 0,
                dur_us: 5,
                fields: Vec::new(),
            },
        );
        let odata = end_trace(other);
        let sdata = end_trace(server);
        assert_eq!(odata.records.len(), 1);
        assert_eq!(odata.records[0].name, "other");
        assert_eq!(sdata.records.len(), 1);
        assert_eq!(sdata.records[0].name, "local");
        // Ending twice is a no-op.
        assert!(end_trace(server).records.is_empty());
        discard_trace(server);
    }

    #[test]
    fn ring_buffer_drops_oldest_beyond_cap() {
        let ctx = begin_trace(5, 0);
        for i in 0..(TRACE_BUFFER_CAP + 3) {
            record_into(
                ctx,
                TraceRecord {
                    kind: "event",
                    name: format!("e{i}"),
                    id: 0,
                    parent: 0,
                    thread: "t".into(),
                    start_us: i as u64,
                    dur_us: 0,
                    fields: Vec::new(),
                },
            );
        }
        let data = end_trace(ctx);
        assert_eq!(data.records.len(), TRACE_BUFFER_CAP);
        assert_eq!(data.dropped, 3);
        assert_eq!(data.records[0].name, "e3", "oldest records were evicted");
    }

    #[test]
    fn propagate_trace_restores_previous_context() {
        let outer = begin_trace(1, 0);
        let inner = begin_trace(2, 0);
        set_current_trace(Some(outer));
        {
            let _scope = propagate_trace(Some(inner));
            assert_eq!(current_trace(), Some(inner));
        }
        assert_eq!(current_trace(), Some(outer));
        set_current_trace(None);
        discard_trace(outer);
        discard_trace(inner);
    }

    #[test]
    fn tail_sampler_keeps_interesting_traces_at_rate_zero() {
        let sampler = TailSampler {
            slow: Duration::from_millis(50),
            sample_rate: 0.0,
        };
        let fast = TraceOutcome {
            duration: Duration::from_millis(1),
            ..TraceOutcome::default()
        };
        assert_eq!(sampler.keep(9, &fast), None, "boring trace dropped");
        let cases = [
            (
                TraceOutcome {
                    errored: true,
                    ..fast
                },
                KeepReason::Errored,
            ),
            (
                TraceOutcome {
                    retried: true,
                    ..fast
                },
                KeepReason::Retried,
            ),
            (
                TraceOutcome {
                    degraded: true,
                    ..fast
                },
                KeepReason::Degraded,
            ),
            (
                TraceOutcome {
                    duration: Duration::from_millis(60),
                    ..fast
                },
                KeepReason::Slow,
            ),
        ];
        for (outcome, reason) in cases {
            assert_eq!(sampler.keep(9, &outcome), Some(reason));
        }
        let all = TailSampler {
            slow: Duration::from_secs(3600),
            sample_rate: 1.0,
        };
        assert_eq!(all.keep(9, &fast), Some(KeepReason::Sampled));
    }

    #[test]
    fn sampling_is_deterministic_per_trace_id() {
        let sampler = TailSampler {
            slow: Duration::from_secs(3600),
            sample_rate: 0.5,
        };
        let boring = TraceOutcome::default();
        for id in 1..64u128 {
            assert_eq!(
                sampler.keep(id, &boring).is_some(),
                sampler.keep(id, &boring).is_some()
            );
        }
        // Rate 0.5 keeps some and drops some over a small id range.
        let kept = (1..256u128)
            .filter(|&id| sampler.keep(id, &boring).is_some())
            .count();
        assert!(kept > 32 && kept < 224, "kept {kept}/255 at rate 0.5");
    }
}
