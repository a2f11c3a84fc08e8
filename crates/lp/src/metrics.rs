//! Solver telemetry: where the verifier's time actually goes.
//!
//! Branch-&-bound verifiers live or die by node-selection and bounding
//! cost, so the solver exports the raw work counters (pivots, nodes,
//! prunes, incumbents) that every perf investigation starts from. All
//! instruments are process-wide statics; see `raven-obs` for the
//! determinism contract (observe-only, never fed back into the search).

use raven_obs::{Counter, Desc, Histogram, MetricRef};

/// Simplex pivot iterations (both phases, all solves).
pub static SIMPLEX_PIVOTS: Counter = Counter::new();
/// LP solves started (including B&B node relaxations).
pub static LP_SOLVES: Counter = Counter::new();
/// Wall-clock seconds per LP solve (only recorded while telemetry is
/// enabled — the timer is clock-free otherwise).
pub static LP_SOLVE_SECONDS: Histogram = Histogram::new();
/// LP solves aborted by deadline/cancel (no sound partial bound).
pub static LP_BUDGET_EXHAUSTED: Counter = Counter::new();
/// LP solves that a warm-start basis (a branch-and-bound parent's or a
/// cached one) finished. A warm attempt that goes stale and falls back to
/// a cold start is not counted.
pub static LP_WARM_STARTS: Counter = Counter::new();
/// Cold LP solves that a crash basis finished in phase 2 alone. Solves
/// from the all-slack start are `LP_SOLVES` minus these and
/// `LP_WARM_STARTS`.
pub static LP_CRASH_STARTS: Counter = Counter::new();
/// Dual-simplex pivot iterations (warm-started solves only; cold-start
/// pivots are counted by `SIMPLEX_PIVOTS`).
pub static LP_DUAL_PIVOTS: Counter = Counter::new();
/// Nonbasic columns the dual ratio test moved to their other bound instead
/// of pivoting on them (breakpoints passed by a bound-flipping step).
pub static LP_DUAL_BOUND_FLIPS: Counter = Counter::new();
/// Basis factorizations rebuilt from scratch: every warm-start seed, the
/// periodic refactorization of long solves, and the one that reads off an
/// optimum after pivots.
pub static LP_REFACTORIZATIONS: Counter = Counter::new();
/// Branch-&-bound nodes whose relaxation was solved.
pub static MILP_NODES: Counter = Counter::new();
/// Nodes discarded without branching (empty domain, infeasible
/// relaxation, or dominated by the incumbent).
pub static MILP_NODES_PRUNED: Counter = Counter::new();
/// Times a new best integral solution was installed.
pub static MILP_INCUMBENT_UPDATES: Counter = Counter::new();
/// B&B searches that stopped early (deadline, cancel, or node cap) and
/// returned an anytime bound instead of the exact optimum.
pub static MILP_BUDGET_EXHAUSTED: Counter = Counter::new();

/// Exposition table for this crate, in stable scrape order.
pub static DESCS: [Desc; 13] = [
    Desc {
        name: "raven_lp_simplex_pivots_total",
        help: "Simplex pivot iterations across all LP solves.",
        labels: "",
        metric: MetricRef::Counter(&SIMPLEX_PIVOTS),
    },
    Desc {
        name: "raven_lp_solves_total",
        help: "LP solves started, including branch-and-bound node relaxations.",
        labels: "",
        metric: MetricRef::Counter(&LP_SOLVES),
    },
    Desc {
        name: "raven_lp_solve_seconds",
        help: "Wall-clock seconds per LP solve (recorded while telemetry is enabled).",
        labels: "",
        metric: MetricRef::Histogram(&LP_SOLVE_SECONDS),
    },
    Desc {
        name: "raven_lp_budget_exhausted_total",
        help: "LP solves aborted by deadline or cancellation.",
        labels: "",
        metric: MetricRef::Counter(&LP_BUDGET_EXHAUSTED),
    },
    Desc {
        name: "raven_lp_warm_starts_total",
        help: "LP solves that a warm-start basis finished.",
        labels: "",
        metric: MetricRef::Counter(&LP_WARM_STARTS),
    },
    Desc {
        name: "raven_lp_crash_starts_total",
        help: "Cold LP solves that a crash basis finished without phase 1.",
        labels: "",
        metric: MetricRef::Counter(&LP_CRASH_STARTS),
    },
    Desc {
        name: "raven_lp_dual_pivots_total",
        help: "Dual-simplex pivot iterations across warm-started LP solves.",
        labels: "",
        metric: MetricRef::Counter(&LP_DUAL_PIVOTS),
    },
    Desc {
        name: "raven_lp_dual_bound_flips_total",
        help:
            "Nonbasic columns the dual ratio test flipped to their other bound instead of pivoting.",
        labels: "",
        metric: MetricRef::Counter(&LP_DUAL_BOUND_FLIPS),
    },
    Desc {
        name: "raven_lp_refactorizations_total",
        help: "Basis factorizations rebuilt from scratch across all LP solves.",
        labels: "",
        metric: MetricRef::Counter(&LP_REFACTORIZATIONS),
    },
    Desc {
        name: "raven_lp_milp_nodes_total",
        help: "Branch-and-bound nodes whose LP relaxation was solved.",
        labels: "",
        metric: MetricRef::Counter(&MILP_NODES),
    },
    Desc {
        name: "raven_lp_milp_nodes_pruned_total",
        help: "Branch-and-bound nodes discarded without branching.",
        labels: "",
        metric: MetricRef::Counter(&MILP_NODES_PRUNED),
    },
    Desc {
        name: "raven_lp_milp_incumbent_updates_total",
        help: "Times branch-and-bound installed a new best integral solution.",
        labels: "",
        metric: MetricRef::Counter(&MILP_INCUMBENT_UPDATES),
    },
    Desc {
        name: "raven_lp_milp_budget_exhausted_total",
        help: "Branch-and-bound searches stopped early with an anytime bound.",
        labels: "",
        metric: MetricRef::Counter(&MILP_BUDGET_EXHAUSTED),
    },
];
