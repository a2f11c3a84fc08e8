//! Verifier-level telemetry: phase timings, anytime tiers, degradations.
//!
//! Phase timing rides on [`RunHooks`](crate::RunHooks): `enter(phase)`
//! closes the previous phase's span on the calling thread and opens the
//! next, so the existing phase boundaries double as span boundaries with
//! no extra call sites. A `PhaseScope` guard at the top of each verify
//! entry point closes the final phase when the run ends. Everything here
//! is observe-only; see `raven-obs` for the determinism contract.

use crate::hooks::Phase;
use crate::tier::Tier;
use raven_obs::{Counter, Desc, Histogram, MetricRef, SpanGuard};
use std::cell::RefCell;

/// Seconds spent in the margins phase (per-input individual analyses;
/// for UAP, the one DeepPoly pass per execution).
pub static PHASE_MARGINS_SECONDS: Histogram = Histogram::new();
/// Seconds spent in the per-execution analysis phase (see
/// [`Phase::Analysis`]).
pub static PHASE_ANALYSIS_SECONDS: Histogram = Histogram::new();
/// Seconds spent in the pairwise DiffPoly phase.
pub static PHASE_DIFFPOLY_SECONDS: Histogram = Histogram::new();
/// Seconds spent assembling the LP/MILP encoding.
pub static PHASE_ENCODE_SECONDS: Histogram = Histogram::new();
/// Seconds spent solving the spec LP/MILP.
pub static PHASE_SOLVE_SECONDS: Histogram = Histogram::new();

/// Properties whose final verdict came from the exact MILP tier.
pub static TIER_MILP: Counter = Counter::new();
/// Properties whose final verdict came from the LP relaxation tier.
pub static TIER_LP: Counter = Counter::new();
/// Properties whose final verdict came from the analysis-only tier.
pub static TIER_ANALYSIS: Counter = Counter::new();
/// Verdicts marked degraded (any rung below the configured precision).
pub static DEGRADED: Counter = Counter::new();
/// Degradations that kept the MILP tier via an anytime dual bound.
pub static DEGRADED_MILP_ANYTIME: Counter = Counter::new();
/// Degradations that fell from MILP to the LP relaxation.
pub static DEGRADED_TO_LP: Counter = Counter::new();
/// Degradations that fell all the way to the analysis union bound.
pub static DEGRADED_TO_ANALYSIS: Counter = Counter::new();
/// Completed UAP verification runs.
pub static UAP_RUNS: Counter = Counter::new();
/// Completed monotonicity verification runs.
pub static MONO_RUNS: Counter = Counter::new();

thread_local! {
    /// The currently open phase span on this thread, if any.
    static CURRENT_PHASE: RefCell<Option<SpanGuard>> = const { RefCell::new(None) };
}

fn phase_hist(phase: Phase) -> &'static Histogram {
    match phase {
        Phase::Margins => &PHASE_MARGINS_SECONDS,
        Phase::Analysis => &PHASE_ANALYSIS_SECONDS,
        Phase::DiffPoly => &PHASE_DIFFPOLY_SECONDS,
        Phase::Encode => &PHASE_ENCODE_SECONDS,
        Phase::Solve => &PHASE_SOLVE_SECONDS,
    }
}

/// Closes the previous phase span on this thread and opens `phase`'s.
/// Called from [`crate::RunHooks::enter`]; no-op while telemetry is off.
pub(crate) fn phase_enter(phase: Phase) {
    CURRENT_PHASE.with(|cur| {
        let mut cur = cur.borrow_mut();
        // Drop (and thereby record) the previous span before opening the
        // next, so phases are siblings in the trace, not nested.
        cur.take();
        if raven_obs::enabled() {
            *cur = Some(raven_obs::timed_span(phase.name(), phase_hist(phase)));
        }
    });
}

/// Guard at the top of each verify entry point: installs the run's trace
/// context (from [`RunHooks::with_trace`](crate::RunHooks::with_trace)) on
/// the executing thread and closes the last open phase span when the run
/// ends, restoring the previous trace context.
pub(crate) struct PhaseScope {
    _trace: raven_obs::TraceScope,
}

impl PhaseScope {
    pub(crate) fn new(hooks: &crate::RunHooks<'_>) -> Self {
        // When the caller did not attach a context explicitly, leave
        // whatever is already installed on this thread (the serve queue
        // installs one per job) untouched.
        let trace = hooks.trace().or_else(raven_obs::current_trace);
        PhaseScope {
            _trace: raven_obs::propagate_trace(trace),
        }
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        CURRENT_PHASE.with(|cur| {
            cur.borrow_mut().take();
        });
    }
}

/// Records the per-property outcome: tier reached, plus the degradation
/// reason derived from (tier, degraded).
pub(crate) fn record_verdict(property: &'static str, tier: Tier, degraded: bool) {
    match property {
        "uap" => UAP_RUNS.inc(),
        _ => MONO_RUNS.inc(),
    }
    match tier {
        Tier::Milp => TIER_MILP.inc(),
        Tier::Lp => TIER_LP.inc(),
        Tier::Analysis => TIER_ANALYSIS.inc(),
    }
    if degraded {
        DEGRADED.inc();
        match tier {
            Tier::Milp => DEGRADED_MILP_ANYTIME.inc(),
            Tier::Lp => DEGRADED_TO_LP.inc(),
            Tier::Analysis => DEGRADED_TO_ANALYSIS.inc(),
        }
    }
}

/// Exposition table for this crate, in stable scrape order.
pub static DESCS: [Desc; 14] = [
    Desc {
        name: "raven_core_phase_seconds",
        help: "Wall-clock seconds per verification phase.",
        labels: r#"phase="margins""#,
        metric: MetricRef::Histogram(&PHASE_MARGINS_SECONDS),
    },
    Desc {
        name: "raven_core_phase_seconds",
        help: "Wall-clock seconds per verification phase.",
        labels: r#"phase="analysis""#,
        metric: MetricRef::Histogram(&PHASE_ANALYSIS_SECONDS),
    },
    Desc {
        name: "raven_core_phase_seconds",
        help: "Wall-clock seconds per verification phase.",
        labels: r#"phase="diffpoly""#,
        metric: MetricRef::Histogram(&PHASE_DIFFPOLY_SECONDS),
    },
    Desc {
        name: "raven_core_phase_seconds",
        help: "Wall-clock seconds per verification phase.",
        labels: r#"phase="encode""#,
        metric: MetricRef::Histogram(&PHASE_ENCODE_SECONDS),
    },
    Desc {
        name: "raven_core_phase_seconds",
        help: "Wall-clock seconds per verification phase.",
        labels: r#"phase="solve""#,
        metric: MetricRef::Histogram(&PHASE_SOLVE_SECONDS),
    },
    Desc {
        name: "raven_core_tier_reached_total",
        help: "Properties whose final verdict came from each anytime tier.",
        labels: r#"tier="milp""#,
        metric: MetricRef::Counter(&TIER_MILP),
    },
    Desc {
        name: "raven_core_tier_reached_total",
        help: "Properties whose final verdict came from each anytime tier.",
        labels: r#"tier="lp""#,
        metric: MetricRef::Counter(&TIER_LP),
    },
    Desc {
        name: "raven_core_tier_reached_total",
        help: "Properties whose final verdict came from each anytime tier.",
        labels: r#"tier="analysis""#,
        metric: MetricRef::Counter(&TIER_ANALYSIS),
    },
    Desc {
        name: "raven_core_degraded_total",
        help: "Verdicts marked degraded by the anytime ladder.",
        labels: "",
        metric: MetricRef::Counter(&DEGRADED),
    },
    Desc {
        name: "raven_core_degraded_reason_total",
        help: "Degradations by how far down the ladder the verdict fell.",
        labels: r#"reason="milp_anytime""#,
        metric: MetricRef::Counter(&DEGRADED_MILP_ANYTIME),
    },
    Desc {
        name: "raven_core_degraded_reason_total",
        help: "Degradations by how far down the ladder the verdict fell.",
        labels: r#"reason="to_lp""#,
        metric: MetricRef::Counter(&DEGRADED_TO_LP),
    },
    Desc {
        name: "raven_core_degraded_reason_total",
        help: "Degradations by how far down the ladder the verdict fell.",
        labels: r#"reason="to_analysis""#,
        metric: MetricRef::Counter(&DEGRADED_TO_ANALYSIS),
    },
    Desc {
        name: "raven_core_runs_total",
        help: "Completed verification runs per property family.",
        labels: r#"property="uap""#,
        metric: MetricRef::Counter(&UAP_RUNS),
    },
    Desc {
        name: "raven_core_runs_total",
        help: "Completed verification runs per property family.",
        labels: r#"property="monotonicity""#,
        metric: MetricRef::Counter(&MONO_RUNS),
    },
];

/// Every exposition table in the analysis/solver stack plus this crate's,
/// in a stable order. `raven-serve` and the CLI append their own.
pub fn all_descs() -> Vec<&'static [Desc]> {
    vec![
        &raven_lp::metrics::DESCS,
        &raven_interval::metrics::DESCS,
        &raven_deeppoly::metrics::DESCS,
        &raven_diffpoly::metrics::DESCS,
        &DESCS,
    ]
}
