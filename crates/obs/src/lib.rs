//! Observability primitives for the RaVeN verifier stack.
//!
//! Every crate in the workspace funnels its telemetry through this one:
//! `raven-lp` counts simplex pivots and branch-&-bound nodes, the analysis
//! crates time their layer sweeps, `raven` (core) tracks which anytime tier
//! each property reached, and `raven-serve` measures queue wait and service
//! time. The primitives are deliberately tiny and std-only:
//!
//! * [`Counter`] — a saturating (never wrapping) atomic `u64`;
//! * [`Gauge`] — an atomic `i64` for levels (queue depth, busy workers);
//! * [`Histogram`] — fixed log₂-scaled buckets covering `(0, 2^21]` with an
//!   underflow bucket (which absorbs `0`, negatives, and subnormals) and a
//!   `+inf` bucket, plus an atomically-accumulated sum;
//! * [`SpanGuard`]/[`span`] — hierarchical monotonic-clock spans emitted as
//!   JSONL events to a process-wide [sink](set_sink_path);
//! * [`Timer`] — a drop-guard that records elapsed seconds into a histogram;
//! * [`TraceCtx`]/[`begin_trace`] — request-scoped tracing: a 128-bit
//!   trace id carried explicitly across threads, per-trace ring buffers, and a [`TailSampler`] that keeps
//!   slow/degraded/errored traces and samples the rest;
//! * [`render_prometheus`] — the Prometheus text exposition renderer over
//!   static [`Desc`] tables.
//!
//! # Determinism contract
//!
//! Metrics are **observe-only**: nothing in this crate feeds back into any
//! computation, so enabling or disabling telemetry can never change a
//! verdict byte (`tests/parallel_determinism.rs` in the workspace root pins
//! this). Counters and gauges are always live — an uncontended relaxed
//! atomic increment is a few nanoseconds and not worth a branch. Anything
//! that reads the clock (spans, [`Timer`]) is gated behind the process-wide
//! [`set_enabled`] switch and costs one relaxed load when disabled.
//!
//! # Examples
//!
//! ```
//! use raven_obs::{Counter, Histogram};
//!
//! static PIVOTS: Counter = Counter::new();
//! static SOLVE_SECONDS: Histogram = Histogram::new();
//!
//! PIVOTS.inc();
//! SOLVE_SECONDS.observe(0.003);
//! assert_eq!(PIVOTS.get(), 1);
//! assert_eq!(SOLVE_SECONDS.count(), 1);
//! ```

mod metric;
mod render;
mod span;
mod trace;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use render::{render_prometheus, Desc, MetricRef};
pub use span::{
    clear_sink, enabled, event, reset_thread_spans, set_enabled, set_sink_path, set_sink_writer,
    sink_active, span, timed_span, SpanGuard, Timer,
};
pub use trace::{
    begin_trace, current_trace, discard_trace, end_trace, format_traceparent, mint_trace_id,
    next_span_id, now_us, parse_traceparent, propagate_trace, set_current_trace, KeepReason,
    TailSampler, TraceCtx, TraceData, TraceOutcome, TraceRecord, TraceScope, TRACE_BUFFER_CAP,
};
