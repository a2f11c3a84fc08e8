//! Cooperative cancellation and progress observation for long runs.
//!
//! A relational verification walks through well-separated phases — margin
//! analyses, per-execution abstract analyses, pairwise difference
//! analyses, LP assembly, and the solve. Long-running callers (the
//! `raven-serve` job workers, interactive sweeps) need two things the
//! phase structure makes cheap to provide: a *cancel* flag polled at every
//! phase boundary, and a *progress* callback fired as each phase starts.
//!
//! Cancellation is cooperative but *fine-grained*: the cancel flag is both
//! polled at every phase boundary and threaded into the LP/MILP solvers as
//! part of their [`raven_lp::Budget`], so even an in-progress simplex
//! pivot loop stops promptly. A cancelled run yields `None` rather than a
//! partial (and therefore untrustworthy) result.
//!
//! A **deadline** is different from cancellation: it asks for the best
//! *sound* answer available in time. When the deadline passes mid-solve,
//! the verification degrades down the precision ladder (MILP → LP →
//! analysis-only union bound) and still returns a result — annotated as
//! degraded — instead of `None` or an error.

use raven_lp::Budget;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The phases reported to progress observers, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Per-input individual margin analyses. For UAP and targeted UAP
    /// this is where DeepPoly runs, once per execution; the relational
    /// relaxation reuses those analyses.
    Margins,
    /// Per-execution abstract analyses: the DeepPoly runs of the
    /// monotonicity verifier and the generic relational solver. For UAP
    /// and targeted UAP it only sets up the shared-perturbation LP, since
    /// DeepPoly has already run in [`Phase::Margins`].
    Analysis,
    /// Pairwise DiffPoly difference analyses.
    DiffPoly,
    /// LP/MILP assembly.
    Encode,
    /// LP/MILP solving.
    Solve,
}

impl Phase {
    /// Short lowercase name (stable; used in progress logs).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Margins => "margins",
            Phase::Analysis => "analysis",
            Phase::DiffPoly => "diffpoly",
            Phase::Encode => "encode",
            Phase::Solve => "solve",
        }
    }
}

/// Hooks threaded through a verification run.
///
/// The default hooks never cancel and observe nothing, so
/// [`crate::verify_uap`] and [`crate::verify_monotonicity`] delegate to
/// the hook-taking variants at zero behavioral cost.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::AtomicBool;
/// use raven::hooks::RunHooks;
///
/// let cancel = AtomicBool::new(false);
/// let hooks = RunHooks::default().with_cancel(&cancel);
/// assert!(!hooks.cancelled());
/// cancel.store(true, std::sync::atomic::Ordering::SeqCst);
/// assert!(hooks.cancelled());
/// ```
#[derive(Default, Clone, Copy)]
pub struct RunHooks<'a> {
    /// Up to two independent cancel flags: long-running services attach a
    /// process-wide flag (shutdown escalation) *and* a per-job flag (the
    /// `raven-serve` watchdog kills one wedged job without touching its
    /// neighbours). Either flag set cancels the run.
    cancels: [Option<&'a AtomicBool>; 2],
    deadline: Option<Instant>,
    progress: Option<&'a (dyn Fn(Phase) + Sync)>,
    /// Distributed-trace context for this run: installed on the verifying
    /// thread for the run's duration, so phase spans (and anything the
    /// solvers emit) attach to the owning request's trace.
    trace: Option<raven_obs::TraceCtx>,
}

impl<'a> RunHooks<'a> {
    /// Attaches a cancel flag, polled at phase boundaries and inside the
    /// solver pivot/node loops. May be called twice (e.g. a process-wide
    /// flag plus a per-job flag); a third call replaces the second flag.
    pub fn with_cancel(mut self, flag: &'a AtomicBool) -> Self {
        let slot = if self.cancels[0].is_none() { 0 } else { 1 };
        self.cancels[slot] = Some(flag);
        self
    }

    /// Sets an absolute wall-clock deadline: past it, spec solves stop and
    /// the verification degrades down the precision ladder to whatever
    /// sound bound is available.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Attaches a progress observer, called as each phase starts.
    pub fn with_progress(mut self, observer: &'a (dyn Fn(Phase) + Sync)) -> Self {
        self.progress = Some(observer);
        self
    }

    /// Attaches a request trace context. The verify entry points install
    /// it on the executing thread for the duration of the run (restoring
    /// the previous context afterwards), which is what lets a caller build
    /// hooks on one thread and run verification on another — the
    /// `raven-serve` queue relies on this.
    pub fn with_trace(mut self, ctx: raven_obs::TraceCtx) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// The attached trace context, if any.
    pub fn trace(&self) -> Option<raven_obs::TraceCtx> {
        self.trace
    }

    /// Whether cancellation has been requested (by any attached flag).
    pub fn cancelled(&self) -> bool {
        self.cancels
            .iter()
            .flatten()
            .any(|c| c.load(Ordering::SeqCst))
    }

    /// The absolute deadline, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The solver-level budget combining this run's deadline and cancel
    /// flag, handed to `raven_lp` so solves are interruptible mid-pivot.
    pub fn lp_budget(&self) -> Budget<'a> {
        let mut b = Budget::unlimited();
        if let Some(d) = self.deadline {
            b = b.with_deadline(d);
        }
        for c in self.cancels.iter().flatten() {
            b = b.with_cancel(c);
        }
        b
    }

    /// Reports a phase start and returns `false` when the run should stop.
    /// Phase entries also delimit the telemetry phase spans (the previous
    /// phase's span closes as the next opens; see `crate::metrics`).
    pub(crate) fn enter(&self, phase: Phase) -> bool {
        if self.cancelled() {
            return false;
        }
        crate::metrics::phase_enter(phase);
        if let Some(p) = self.progress {
            p(phase);
        }
        true
    }
}

impl std::fmt::Debug for RunHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHooks")
            .field(
                "cancels",
                &self
                    .cancels
                    .iter()
                    .map(|c| c.map(|c| c.load(Ordering::SeqCst)))
                    .collect::<Vec<_>>(),
            )
            .field("deadline", &self.deadline)
            .field("progress", &self.progress.is_some())
            .field("trace", &self.trace)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn default_hooks_never_cancel_and_enter_every_phase() {
        let hooks = RunHooks::default();
        assert!(!hooks.cancelled());
        for p in [
            Phase::Margins,
            Phase::Analysis,
            Phase::DiffPoly,
            Phase::Encode,
            Phase::Solve,
        ] {
            assert!(hooks.enter(p));
        }
    }

    #[test]
    fn progress_observer_sees_phases_in_order() {
        let seen: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let observer = |p: Phase| seen.lock().unwrap().push(p.name());
        let hooks = RunHooks::default().with_progress(&observer);
        hooks.enter(Phase::Margins);
        hooks.enter(Phase::Solve);
        assert_eq!(*seen.lock().unwrap(), vec!["margins", "solve"]);
    }

    #[test]
    fn cancel_flag_stops_phase_entry() {
        let cancel = AtomicBool::new(false);
        let hooks = RunHooks::default().with_cancel(&cancel);
        assert!(hooks.enter(Phase::Margins));
        cancel.store(true, Ordering::SeqCst);
        assert!(!hooks.enter(Phase::Analysis));
    }

    #[test]
    fn second_cancel_flag_cancels_independently() {
        let process = AtomicBool::new(false);
        let job = AtomicBool::new(false);
        let hooks = RunHooks::default().with_cancel(&process).with_cancel(&job);
        assert!(!hooks.cancelled());
        assert!(!hooks.lp_budget().cancelled());
        job.store(true, Ordering::SeqCst);
        assert!(hooks.cancelled(), "per-job flag cancels the run");
        assert!(hooks.lp_budget().cancelled(), "and the solver budget");
    }

    #[test]
    fn deadline_does_not_cancel_phase_entry() {
        // A passed deadline degrades solves; it must NOT abort the run the
        // way cancellation does — phases still enter.
        let hooks = RunHooks::default().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(hooks.deadline_exceeded());
        assert!(!hooks.cancelled());
        assert!(hooks.enter(Phase::Solve));
        assert!(hooks.lp_budget().exhausted());
    }

    #[test]
    fn lp_budget_reflects_cancel_and_deadline() {
        let cancel = AtomicBool::new(false);
        let hooks = RunHooks::default()
            .with_cancel(&cancel)
            .with_deadline_in(Duration::from_secs(3600));
        assert!(!hooks.lp_budget().exhausted());
        cancel.store(true, Ordering::SeqCst);
        assert!(hooks.lp_budget().exhausted());
        assert!(hooks.lp_budget().cancelled());
    }

    #[test]
    fn trace_context_rides_along_and_stays_copy() {
        let ctx = raven_obs::begin_trace(42, 7);
        let hooks = RunHooks::default().with_trace(ctx);
        // RunHooks must stay `Copy` so callers can hand it around freely.
        let copied = hooks;
        assert_eq!(copied.trace(), Some(ctx));
        assert_eq!(hooks.trace(), Some(ctx));
        assert!(RunHooks::default().trace().is_none());
        raven_obs::discard_trace(ctx);
    }

    #[test]
    fn phase_names_are_distinct() {
        let names: std::collections::HashSet<_> = [
            Phase::Margins,
            Phase::Analysis,
            Phase::DiffPoly,
            Phase::Encode,
            Phase::Solve,
        ]
        .iter()
        .map(|p| p.name())
        .collect();
        assert_eq!(names.len(), 5);
    }
}
