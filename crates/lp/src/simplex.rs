//! Bounded-variable two-phase primal simplex over a sparse LU basis
//! factorization.
//!
//! The solver works on the computational form `A x + I s (+ Σ σ_i t_i) = b`
//! with bounds `l ≤ (x, s) ≤ u`, `t ≥ 0`, where one slack `s_i` is added
//! per row (`≤ → [0, ∞)`, `≥ → (-∞, 0]`, `= → [0, 0]`) and one *artificial*
//! `t_i` is added for every row whose initial slack value violates its
//! bounds. Phase 1 minimizes `Σ t_i` from a feasible basic start (the
//! artificials absorb all residuals); phase 2 pins the artificials to zero
//! and minimizes the user objective. Both phases use **fixed** cost
//! vectors, so Bland's anti-cycling rule applies verbatim when degeneracy
//! stalls progress.
//!
//! A solve without a usable warm basis whose all-slack start would need an
//! artificial first tries a **crash basis** ([`crash_basis`]): each row
//! makes its newest continuous variable basic at the value that makes it
//! tight, so on the relational encoder's rows the start is a concrete run
//! of the network.
//! When that basis is primal feasible the solve runs phase 2 alone; when
//! it is not, or does not factor, the all-slack start above takes over.
//! The crash only picks the starting basis: every solve ends on the same
//! optimality test, and its proof is read off the final basis.
//!
//! The basis is never inverted. The block of basic structural columns on
//! the rows no basic slack or artificial covers gets a sparse LU
//! (Markowitz ordering, threshold partial pivoting); every pivot appends
//! one product-form eta vector, and FTRAN/BTRAN solve through both (see
//! [`lu`]). The factors are rebuilt on every warm start and every
//! [`SimplexOptions::refactor_every`] pivots.
//!
//! Numerical model: plain `f64` with a feasibility/optimality tolerance of
//! `1e-7`, a two-pass Harris-style ratio test that prefers large pivots,
//! and periodic refactorization of the basis. These are the same
//! guarantees a floating-point Gurobi run provides the original RaVeN
//! implementation (see `DESIGN.md`).
//!
//! There is no presolve: the tableau holds the caller's rows exactly as
//! built, so duals and Farkas multipliers index those rows one to one and
//! every solution's [`proof`](crate::Solution::proof) can be certified as
//! it stands. (The relational encoder
//! writes rows with a constant right side as variable bounds, which is
//! where a presolve would have found its singleton rows.) A cold [`solve`]
//! is [`solve_reuse`] without a warm basis.
//!
//! # Warm starts
//!
//! Branch & bound re-solves a near-identical LP at every node: only
//! variable bounds change between a parent and its children. Bound changes
//! leave every reduced cost untouched, so the parent's optimal basis stays
//! *dual*-feasible in the child and a bounded-variable **dual simplex**
//! ([`Tableau::run_dual`]) restores primal feasibility in a handful of
//! pivots instead of a full two-phase cold start. Its ratio test flips
//! boxed nonbasics to their other bound rather than pivoting on each one:
//! every breakpoint the dual step can pass while the leaving row still
//! needs repair costs a bound flip, and only the last one a pivot.
//! [`solve_reuse`] drives this: it seeds the tableau from a caller-supplied
//! [`Basis`], runs the dual simplex when the basis is dual-feasible (or
//! primal phase 2 alone when it is primal-feasible, the common case when
//! rows were *appended*), and whenever the basis is unusable or stale takes
//! the cold start a solve without one takes (crash basis included) — so
//! results are always certified by the same optimality test as a cold
//! solve, and warm starting can never change a verdict. Every node reads
//! the same [`Matrix`], built once per branch-and-bound run; the pivot row
//! needed by the dual ratio test is assembled from its rows rather than by
//! scanning columns.

mod lu;

use crate::{Budget, Direction, LpError, LpProblem, Sense, Solution, SolveStatus};
use lu::{Column, Factor};
use raven_check::LpProof;

/// Feasibility/optimality tolerance.
const TOL: f64 = 1e-7;

/// Consecutive degenerate pivots before switching to Bland's rule.
const STALL_THRESHOLD: usize = 60;

/// Tunable parameters for the simplex solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexOptions {
    /// Hard iteration limit (per phase).
    pub max_iters: usize,
    /// Refactorize the basis every this many pivots: the LU factors are
    /// rebuilt and the eta file they carry since the last rebuild is
    /// dropped. Every eta costs each later FTRAN and BTRAN a pass over an
    /// entering column's image, so the file is kept short.
    pub refactor_every: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iters: 50_000,
            refactor_every: 16,
        }
    }
}

/// Per-variable basis status, stripped of row assignments and values: just
/// enough to rebuild a starting point on a problem with the same (or an
/// extended) variable/row layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BState {
    Basic,
    Lower,
    Upper,
    Free,
}

/// A snapshot of an optimal simplex basis: the states of the `n_struct`
/// structural variables followed by the `m` row slacks.
///
/// A basis taken from problem P can seed any problem P' whose first
/// `n_struct` variables and first `m` rows *correspond* to P's (typically:
/// identical layout with tightened bounds, or P plus appended variables
/// and rows). Seeding with an unrelated basis is still *safe* — the warm
/// paths certify optimality on the actual problem and fall back to a cold
/// start when the basis does not help — it just wastes the warm attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Basis {
    /// States of structurals `0..n_struct` then slacks `0..m`.
    pub(crate) states: Vec<BState>,
    pub(crate) n_struct: usize,
    pub(crate) m: usize,
}

impl Basis {
    /// Whether this basis can seed a problem of the given dimensions.
    pub(crate) fn fits(&self, n_struct: usize, m: usize) -> bool {
        self.n_struct <= n_struct && self.m <= m
    }
}

/// Carries an optimal basis between related solves (for example the
/// per-label MILP encodings that share one relaxation, or repeated calls
/// on the same model).
///
/// Purely an accelerator: a stale or mismatched basis only costs the warm
/// attempt, never correctness — every solve is certified by the same
/// optimality conditions as a cold start.
#[derive(Debug, Clone, Default)]
pub struct BasisCache {
    pub(crate) basis: Option<Basis>,
}

impl BasisCache {
    /// An empty cache (first solve will be a cold start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached basis.
    pub fn clear(&mut self) {
        self.basis = None;
    }

    /// Whether a basis is currently cached.
    pub fn is_warm(&self) -> bool {
        self.basis.is_some()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarState {
    Basic(usize),
    NbLower,
    NbUpper,
    NbFree,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

/// The structural part of the constraint matrix, stored by column and by
/// row. Bounds are not part of it, so one copy serves every
/// branch-and-bound node of a problem.
#[derive(Debug)]
pub(crate) struct Matrix {
    /// Column `j` is `col_entries[col_start[j]..col_start[j + 1]]`, as
    /// `(row, coef)` in row order.
    col_start: Vec<usize>,
    col_entries: Vec<(usize, f64)>,
    /// Row `i` is `row_entries[row_start[i]..row_start[i + 1]]`, as
    /// `(col, coef)`.
    row_start: Vec<usize>,
    row_entries: Vec<(usize, f64)>,
}

impl Matrix {
    pub(crate) fn new(problem: &LpProblem) -> Self {
        let mut row_start = Vec::with_capacity(problem.rows.len() + 1);
        let mut row_entries = Vec::new();
        let mut col_start = vec![0; problem.num_vars() + 1];
        row_start.push(0);
        for row in &problem.rows {
            for &(v, c) in row.expr.terms() {
                row_entries.push((v.0, c));
                col_start[v.0 + 1] += 1;
            }
            row_start.push(row_entries.len());
        }
        for j in 0..problem.num_vars() {
            col_start[j + 1] += col_start[j];
        }
        let mut fill = col_start.clone();
        let mut col_entries = vec![(0, 0.0); row_entries.len()];
        for i in 0..problem.rows.len() {
            for &(j, c) in &row_entries[row_start[i]..row_start[i + 1]] {
                col_entries[fill[j]] = (i, c);
                fill[j] += 1;
            }
        }
        Self {
            col_start,
            col_entries,
            row_start,
            row_entries,
        }
    }

    fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.col_entries[self.col_start[j]..self.col_start[j + 1]]
    }

    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.row_entries[self.row_start[i]..self.row_start[i + 1]]
    }
}

struct Tableau<'a> {
    opts: &'a SimplexOptions,
    budget: &'a Budget<'a>,
    a: &'a Matrix,
    m: usize,
    n_struct: usize,
    /// Structural + slack count (artificial indices start here).
    n_slack_end: usize,
    n_total: usize,
    /// Columns of the slacks, then of the artificials, as their one
    /// nonzero `(row, sign)`.
    units: Vec<(usize, f64)>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 costs (0 for slacks and artificials).
    cost: Vec<f64>,
    rhs: Vec<f64>,
    state: Vec<VarState>,
    basis: Vec<usize>,
    x: Vec<f64>,
    factor: Factor,
    pivots_since_refactor: usize,
    stall_count: usize,
}

/// Bounds of the slack `s = b − a·x` of a row with the given sense.
fn slack_bounds(sense: Sense) -> (f64, f64) {
    match sense {
        Sense::Le => (0.0, f64::INFINITY),
        Sense::Ge => (f64::NEG_INFINITY, 0.0),
        Sense::Eq => (0.0, 0.0),
    }
}

/// Bounds of the structurals then the row slacks, phase-2 costs
/// (sign-flipped for maximization; 0 for slacks) and right-hand sides.
fn bounds_and_costs(problem: &LpProblem) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let n_slack_end = problem.num_vars() + problem.rows.len();
    let mut lower = Vec::with_capacity(n_slack_end);
    let mut upper = Vec::with_capacity(n_slack_end);
    for &(lo, hi) in &problem.bounds {
        lower.push(lo);
        upper.push(hi);
    }
    for row in &problem.rows {
        let (lo, hi) = slack_bounds(row.sense);
        lower.push(lo);
        upper.push(hi);
    }
    let sign = match problem.direction {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };
    let mut cost = vec![0.0; n_slack_end];
    for &(v, c) in problem.objective.terms() {
        cost[v.0] += sign * c;
    }
    let rhs = problem.rows.iter().map(|r| r.rhs).collect();
    (lower, upper, cost, rhs)
}

impl<'a> Tableau<'a> {
    fn new(
        problem: &LpProblem,
        a: &'a Matrix,
        opts: &'a SimplexOptions,
        budget: &'a Budget<'a>,
    ) -> Self {
        let m = problem.rows.len();
        let n_struct = problem.num_vars();
        let n_slack_end = n_struct + m;
        let (mut lower, mut upper, mut cost, rhs) = bounds_and_costs(problem);
        // Nonbasic structurals at their finite bound closest to zero (or 0
        // when free).
        let mut state = Vec::with_capacity(n_slack_end);
        let mut x = vec![0.0; n_slack_end];
        for j in 0..n_struct {
            let (s, v) = park(None, lower[j], upper[j]);
            state.push(s);
            x[j] = v;
        }
        // Row residuals with all structurals nonbasic: resid = b − N x_N.
        let mut resid = rhs.clone();
        for (j, xj) in x.iter().enumerate().take(n_struct) {
            if *xj != 0.0 {
                for &(i, aij) in a.col(j) {
                    resid[i] -= aij * xj;
                }
            }
        }
        // Per row: clamp the slack into its bounds; if the residual exceeds
        // them, an artificial absorbs the remainder and becomes basic,
        // otherwise the slack itself is basic at the residual.
        let mut art: Vec<(usize, f64)> = Vec::new();
        let mut basis = Vec::with_capacity(m);
        for (i, &r) in resid.iter().enumerate() {
            let sj = n_struct + i;
            let (slo, shi) = (lower[sj], upper[sj]);
            if r >= slo - 0.0 && r <= shi + 0.0 {
                state.push(VarState::Basic(i));
                x[sj] = r;
                basis.push(sj);
            } else {
                // Slack parks at its nearest bound; artificial covers the
                // gap with a positive value.
                let s_val = r.clamp(slo, shi);
                let s_val = if s_val.is_finite() { s_val } else { 0.0 };
                state.push(if s_val == shi && shi.is_finite() {
                    VarState::NbUpper
                } else {
                    VarState::NbLower
                });
                x[sj] = s_val;
                let gap = r - s_val;
                let sigma = gap.signum();
                art.push((i, sigma));
                basis.push(n_slack_end + art.len() - 1);
                // Value filled in below once the variable exists.
            }
        }
        let n_total = n_slack_end + art.len();
        let units = (0..m)
            .map(|i| (i, 1.0))
            .chain(art.iter().copied())
            .collect();
        for _ in 0..art.len() {
            lower.push(0.0);
            upper.push(f64::INFINITY);
            cost.push(0.0);
            x.push(0.0);
        }
        // Mark artificial basics and set their values.
        for (ai, &(row, sigma)) in art.iter().enumerate() {
            let var = n_slack_end + ai;
            state.push(VarState::Basic(row));
            let r = resid[row];
            let s_val = x[n_struct + row];
            x[var] = (r - s_val) * sigma; // = |gap| ≥ 0
        }
        let mut tab = Self {
            opts,
            budget,
            a,
            m,
            n_struct,
            n_slack_end,
            n_total,
            units,
            lower,
            upper,
            cost,
            rhs,
            state,
            basis,
            x,
            factor: Factor::default(),
            pivots_since_refactor: 0,
            stall_count: 0,
        };
        // Every row is covered by its own slack or artificial: the block
        // of structurals is empty.
        tab.factor = tab
            .factorize()
            .expect("a basis of one unit column per row is nonsingular");
        tab
    }

    /// How basis factorization sees variable `j`'s column.
    fn kind(&self, j: usize) -> Column {
        if j < self.n_struct {
            Column::Struct(j)
        } else {
            let (row, sigma) = self.units[j - self.n_struct];
            Column::Unit { row, sigma }
        }
    }

    /// Column `j` of `[A I σ]` as `(row, coef)`.
    fn col(&self, j: usize) -> &[(usize, f64)] {
        if j < self.n_struct {
            self.a.col(j)
        } else {
            std::slice::from_ref(&self.units[j - self.n_struct])
        }
    }

    fn phase_cost(&self, j: usize, phase: Phase) -> f64 {
        match phase {
            Phase::One => {
                if j >= self.n_slack_end {
                    1.0
                } else {
                    0.0
                }
            }
            Phase::Two => self.cost[j],
        }
    }

    /// Recomputes the basic variable values `x_B = B^{-1}(b − N x_N)`.
    fn recompute_basics(&mut self) {
        let mut resid = self.rhs.clone();
        for j in 0..self.n_total {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            for &(i, a) in self.col(j) {
                resid[i] -= a * xj;
            }
        }
        let xb = self.factor.ftran(&mut resid);
        for (&var, v) in self.basis.iter().zip(xb) {
            self.x[var] = v;
        }
    }

    /// Factors the current basis from scratch (see [`lu`]).
    fn factorize(&self) -> Result<Factor, LpError> {
        Factor::new(self.a, &self.basis, |j| self.kind(j))
    }

    /// Rebuilds the factorization, dropping the eta file, and recomputes
    /// the basic values from it.
    fn refactorize(&mut self) -> Result<(), LpError> {
        self.factor = self.factorize()?;
        self.pivots_since_refactor = 0;
        crate::metrics::LP_REFACTORIZATIONS.inc();
        self.recompute_basics();
        Ok(())
    }

    /// Row `r` of the basis inverse, `e_rᵀ B⁻¹`, indexed by constraint row.
    fn inverse_row(&self, r: usize) -> Vec<f64> {
        let mut e = vec![0.0; self.m];
        e[r] = 1.0;
        self.factor.btran(&mut e)
    }

    /// Simplex multipliers `y = B^{-T} c_B` for the given phase.
    fn multipliers(&self, phase: Phase) -> Vec<f64> {
        let mut c: Vec<f64> = self
            .basis
            .iter()
            .map(|&var| self.phase_cost(var, phase))
            .collect();
        self.factor.btran(&mut c)
    }

    fn reduced_cost(&self, j: usize, y: &[f64], phase: Phase) -> f64 {
        // Branching here rather than looping over `col(j)` keeps pricing,
        // which runs this for every nonbasic column, about twice as fast.
        let mut d = self.phase_cost(j, phase);
        if j < self.n_struct {
            for &(i, a) in self.a.col(j) {
                d -= y[i] * a;
            }
        } else {
            let (row, sigma) = self.units[j - self.n_struct];
            d -= y[row] * sigma;
        }
        d
    }

    /// Picks an entering variable `(var, direction)`; `None` means optimal
    /// for this phase. Bland mode returns the lowest-index eligible
    /// variable.
    fn price(&self, y: &[f64], phase: Phase, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..self.n_total {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            // Fixed variables (lo == hi) can never move; pricing them leads
            // to endless zero-length "bound flips".
            if self.upper[j] - self.lower[j] <= 0.0 {
                continue;
            }
            let dir = match self.state[j] {
                VarState::Basic(_) => unreachable!("filtered above"),
                VarState::NbLower => 1.0,
                VarState::NbUpper => -1.0,
                VarState::NbFree => 0.0,
            };
            let d = self.reduced_cost(j, y, phase);
            let (eligible, dir) = if dir == 0.0 {
                if d < -TOL {
                    (true, 1.0)
                } else if d > TOL {
                    (true, -1.0)
                } else {
                    (false, 0.0)
                }
            } else if dir > 0.0 {
                (d < -TOL, 1.0)
            } else {
                (d > TOL, -1.0)
            };
            if !eligible {
                continue;
            }
            if bland {
                return Some((j, dir));
            }
            let score = d.abs();
            match best {
                Some((_, _, s)) if s >= score => {}
                _ => best = Some((j, dir, score)),
            }
        }
        best.map(|(j, d, _)| (j, d))
    }

    /// `w = B^{-1} a_j`, indexed by basis position.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut v = vec![0.0; self.m];
        for &(r, a) in self.col(j) {
            v[r] += a;
        }
        self.factor.ftran(&mut v)
    }

    /// Two-pass (Harris) ratio test; under Bland's rule a strict test with
    /// lowest-variable-index tie-breaking is used instead. Returns the step
    /// and blocking row (`None` for a bound flip); `Err(())` when the
    /// direction is unbounded.
    #[allow(clippy::result_unit_err)]
    fn ratio_test(
        &self,
        j: usize,
        dir: f64,
        w: &[f64],
        bland: bool,
    ) -> Result<(f64, Option<usize>), ()> {
        let own = self.upper[j] - self.lower[j];
        let own = if own.is_finite() { own } else { f64::INFINITY };
        let relax = if bland { 0.0 } else { TOL };
        // Pass 1: relaxed minimum step.
        let mut t_relaxed = own;
        for (i, &wi) in w.iter().enumerate() {
            let delta = -dir * wi;
            if delta.abs() <= 1e-11 {
                continue;
            }
            let var = self.basis[i];
            let v = self.x[var];
            let target = if delta > 0.0 {
                self.upper[var]
            } else {
                self.lower[var]
            };
            if !target.is_finite() {
                continue;
            }
            let ti = (((target - v) / delta) + relax / delta.abs()).max(0.0);
            if ti < t_relaxed {
                t_relaxed = ti;
            }
        }
        if !t_relaxed.is_finite() {
            return Err(());
        }
        // Pass 2: choose the blocking row.
        let mut blocking: Option<usize> = None;
        let mut best_pivot = 0.0f64;
        let mut best_var = usize::MAX;
        let mut t_exact = f64::INFINITY;
        for (i, &wi) in w.iter().enumerate() {
            let delta = -dir * wi;
            if delta.abs() <= 1e-11 {
                continue;
            }
            let var = self.basis[i];
            let v = self.x[var];
            let target = if delta > 0.0 {
                self.upper[var]
            } else {
                self.lower[var]
            };
            if !target.is_finite() {
                continue;
            }
            let ti = ((target - v) / delta).max(0.0);
            if ti > t_relaxed {
                continue;
            }
            if bland {
                // Strictly smallest step; ties broken by variable index.
                if ti < t_exact - 1e-15 || (ti <= t_exact + 1e-15 && var < best_var) {
                    t_exact = ti.min(t_exact);
                    blocking = Some(i);
                    best_var = var;
                }
            } else if wi.abs() > best_pivot {
                best_pivot = wi.abs();
                blocking = Some(i);
                t_exact = ti;
            }
        }
        match blocking {
            Some(_) if t_exact <= own => Ok((t_exact, blocking)),
            _ if own.is_finite() => Ok((own, None)),
            Some(_) => Ok((t_exact, blocking)),
            None => Err(()),
        }
    }

    fn apply_step(&mut self, j: usize, dir: f64, t: f64, w: &[f64]) {
        if t != 0.0 {
            self.x[j] += dir * t;
            for (i, &wi) in w.iter().enumerate() {
                self.x[self.basis[i]] -= dir * t * wi;
            }
        }
    }

    /// Replaces basic row `r` with entering variable `j`, whose FTRAN image
    /// `w` becomes the next eta vector.
    fn pivot(&mut self, r: usize, j: usize, w: &[f64]) -> Result<(), LpError> {
        if w[r].abs() < 1e-10 {
            return Err(LpError::SingularBasis);
        }
        self.factor.push_eta(r, w);
        self.basis[r] = j;
        self.state[j] = VarState::Basic(r);
        self.pivots_since_refactor += 1;
        Ok(())
    }

    /// Objective of the current point under the given phase's costs.
    fn phase_objective(&self, phase: Phase) -> f64 {
        (0..self.n_total)
            .map(|j| self.phase_cost(j, phase) * self.x[j])
            .sum()
    }

    /// Runs the simplex for one phase to optimality.
    fn run_phase(&mut self, phase: Phase) -> Result<SolveStatus, LpError> {
        self.stall_count = 0;
        for _iter in 0..self.opts.max_iters {
            // Budget check every pivot: an exhausted budget aborts the
            // phase immediately (there is no sound partial bound to keep —
            // the current iterate under-estimates the optimum).
            if !self.budget.is_unlimited() && self.budget.exhausted() {
                crate::metrics::LP_BUDGET_EXHAUSTED.inc();
                return Err(LpError::BudgetExceeded);
            }
            crate::chaos::pivot_stall_point();
            crate::metrics::SIMPLEX_PIVOTS.inc();
            if self.pivots_since_refactor >= self.opts.refactor_every {
                self.refactorize()?;
            }
            let bland = self.stall_count >= STALL_THRESHOLD;
            let y = self.multipliers(phase);
            let Some((j, dir)) = self.price(&y, phase, bland) else {
                return Ok(SolveStatus::Optimal);
            };
            let w = self.ftran(j);
            let (t, blocking) = match self.ratio_test(j, dir, &w, bland) {
                Ok(res) => res,
                Err(()) => return Ok(SolveStatus::Unbounded),
            };
            if t <= 1e-11 {
                self.stall_count += 1;
            } else {
                self.stall_count = 0;
            }
            self.apply_step(j, dir, t, &w);
            match blocking {
                None => {
                    self.state[j] = if dir > 0.0 {
                        VarState::NbUpper
                    } else {
                        VarState::NbLower
                    };
                    self.x[j] = if dir > 0.0 {
                        self.upper[j]
                    } else {
                        self.lower[j]
                    };
                }
                Some(r) => {
                    let leaving = self.basis[r];
                    let lv = self.x[leaving];
                    let to_upper =
                        (lv - self.upper[leaving]).abs() <= (lv - self.lower[leaving]).abs();
                    self.state[leaving] = if to_upper && self.upper[leaving].is_finite() {
                        VarState::NbUpper
                    } else if self.lower[leaving].is_finite() {
                        VarState::NbLower
                    } else if self.upper[leaving].is_finite() {
                        VarState::NbUpper
                    } else {
                        VarState::NbFree
                    };
                    self.x[leaving] = match self.state[leaving] {
                        VarState::NbUpper => self.upper[leaving],
                        VarState::NbLower => self.lower[leaving],
                        _ => lv,
                    };
                    self.pivot(r, j, &w)?;
                    if self.pivots_since_refactor.is_multiple_of(64) {
                        self.recompute_basics();
                    }
                }
            }
        }
        Err(LpError::IterationLimit {
            limit: self.opts.max_iters,
        })
    }

    fn run(&mut self) -> Result<SolveStatus, LpError> {
        if self.n_total > self.n_slack_end {
            match self.run_phase(Phase::One)? {
                SolveStatus::Optimal => {}
                // Phase 1 is bounded below by 0, so an "unbounded" outcome
                // signals numerical breakdown.
                _ => return Err(LpError::SingularBasis),
            }
            self.recompute_basics();
            if self.phase_objective(Phase::One) > TOL * 10.0 {
                return Ok(SolveStatus::Infeasible);
            }
            // Pin the artificials to zero for phase 2.
            for var in self.n_slack_end..self.n_total {
                self.upper[var] = 0.0;
                if !matches!(self.state[var], VarState::Basic(_)) {
                    self.state[var] = VarState::NbLower;
                    self.x[var] = 0.0;
                }
            }
        }
        self.run_phase(Phase::Two)
    }

    fn objective_value(&self, problem: &LpProblem) -> f64 {
        problem.objective.eval(&self.x[..self.n_struct])
    }

    /// Builds a tableau seeded from a previously extracted basis instead of
    /// the all-slack cold start. Variables and rows beyond the basis prefix
    /// get the cold-start defaults (nonbasic at nearest bound / slack
    /// basic). `None` when the basis cannot form a full, factorizable basis
    /// for this problem — the caller falls back to a cold start.
    fn with_basis(
        problem: &LpProblem,
        a: &'a Matrix,
        opts: &'a SimplexOptions,
        budget: &'a Budget<'a>,
        warm: &Basis,
    ) -> Option<Self> {
        let m = problem.rows.len();
        let n_struct = problem.num_vars();
        if !warm.fits(n_struct, m) {
            return None;
        }
        let n_slack_end = n_struct + m;
        let (lower, upper, cost, rhs) = bounds_and_costs(problem);
        let mut state = vec![VarState::NbFree; n_slack_end];
        let mut x = vec![0.0; n_slack_end];
        let mut basis: Vec<usize> = Vec::with_capacity(m);
        for j in 0..n_slack_end {
            // Warm prefix state: structurals share indices; slack i of the
            // warm problem maps to slack i here. New rows start slack-basic
            // (their slack absorbs the row residual), new structurals get
            // the cold-start parking rule.
            let warm_state = if j < n_struct {
                (j < warm.n_struct).then(|| warm.states[j])
            } else {
                let i = j - n_struct;
                if i < warm.m {
                    Some(warm.states[warm.n_struct + i])
                } else {
                    Some(BState::Basic)
                }
            };
            if warm_state == Some(BState::Basic) {
                basis.push(j);
                continue; // state assigned below once the row index is known
            }
            let (s, v) = park(warm_state, lower[j], upper[j]);
            state[j] = s;
            x[j] = v;
        }
        if basis.len() != m {
            return None;
        }
        for (i, &var) in basis.iter().enumerate() {
            state[var] = VarState::Basic(i);
        }
        let mut tab = Self {
            opts,
            budget,
            a,
            m,
            n_struct,
            n_slack_end,
            n_total: n_slack_end,
            units: (0..m).map(|i| (i, 1.0)).collect(),
            lower,
            upper,
            cost,
            rhs,
            state,
            basis,
            x,
            factor: Factor::default(),
            pivots_since_refactor: 0,
            stall_count: 0,
        };
        // A numerically singular warm basis is simply not reusable.
        tab.refactorize().ok()?;
        Some(tab)
    }

    /// Pivots zero-valued basic artificials out of an optimal basis so it
    /// is expressible over structurals and slacks alone — the form
    /// [`Tableau::extract_basis`] needs for warm-start reuse. Phase 1
    /// routinely leaves artificials basic at level 0 on equality rows, and
    /// such a basis would otherwise be unreusable.
    ///
    /// Only degeneracy-preserving swaps are taken: the entering column
    /// must have a ~zero phase-2 reduced cost, so the multipliers — and
    /// with them the reported duals — are unchanged, and the solution
    /// point does not move (the leaving artificial sits at 0). An
    /// artificial whose row admits no such column (a linearly dependent
    /// row) is left basic; extraction then skips the basis, which only
    /// costs the warm start, never correctness.
    fn drive_out_artificials(&mut self) {
        if !self.basis.iter().any(|&v| v >= self.n_slack_end) {
            return;
        }
        let tol = TOL * 10.0;
        let y = self.multipliers(Phase::Two);
        for r in 0..self.m {
            let leaving = self.basis[r];
            if leaving < self.n_slack_end || self.x[leaving].abs() > tol {
                continue;
            }
            // Row r of the inverse gives every candidate's pivot element
            // cheaply: alpha_j = rho · col_j.
            let rho = self.inverse_row(r);
            let mut pick: Option<(usize, f64)> = None;
            for j in 0..self.n_slack_end {
                if matches!(self.state[j], VarState::Basic(_)) {
                    continue;
                }
                let alpha: f64 = self.col(j).iter().map(|&(i, a)| rho[i] * a).sum();
                if alpha.abs() <= 1e-7 || self.reduced_cost(j, &y, Phase::Two).abs() > tol {
                    continue;
                }
                if pick.is_none_or(|(_, best)| alpha.abs() > best) {
                    pick = Some((j, alpha.abs()));
                }
            }
            let Some((j, _)) = pick else { continue };
            let w = self.ftran(j);
            if w[r].abs() < 1e-10 || self.pivot(r, j, &w).is_err() {
                continue;
            }
            self.state[leaving] = VarState::NbLower;
            self.x[leaving] = 0.0;
        }
    }

    /// Snapshot of the current basis for reuse; `None` while an artificial
    /// is still basic (such a basis has no meaning outside this solve).
    fn extract_basis(&self) -> Option<Basis> {
        if self.basis.iter().any(|&v| v >= self.n_slack_end) {
            return None;
        }
        let states = self.state[..self.n_slack_end]
            .iter()
            .map(|&s| bstate(s))
            .collect();
        Some(Basis {
            states,
            n_struct: self.n_struct,
            m: self.m,
        })
    }

    /// Whether every nonbasic reduced cost has the sign optimality
    /// requires — the invariant the dual simplex maintains.
    fn dual_feasible(&self) -> bool {
        let tol = TOL * 10.0;
        let y = self.multipliers(Phase::Two);
        for j in 0..self.n_slack_end {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            // Fixed variables satisfy any reduced-cost sign.
            if self.upper[j] - self.lower[j] <= 0.0 {
                continue;
            }
            let d = self.reduced_cost(j, &y, Phase::Two);
            let ok = match self.state[j] {
                VarState::NbLower => d >= -tol,
                VarState::NbUpper => d <= tol,
                VarState::NbFree => d.abs() <= tol,
                VarState::Basic(_) => unreachable!("filtered above"),
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Whether every basic value sits within its bounds (nonbasics are at
    /// bounds by construction).
    fn primal_feasible(&self) -> bool {
        let tol = TOL * 10.0;
        self.basis
            .iter()
            .all(|&v| self.x[v] >= self.lower[v] - tol && self.x[v] <= self.upper[v] + tol)
    }

    /// Moves each nonbasic column of `cols` to its other (finite) bound and
    /// updates the basics along with it: `x_B −= B⁻¹ Σ a_j Δx_j`, one FTRAN
    /// for the whole set.
    fn flip(&mut self, cols: impl Iterator<Item = usize>) {
        let mut moved = vec![0.0; self.m];
        for j in cols {
            let (state, to) = match self.state[j] {
                VarState::NbLower => (VarState::NbUpper, self.upper[j]),
                _ => (VarState::NbLower, self.lower[j]),
            };
            let step = to - self.x[j];
            self.state[j] = state;
            self.x[j] = to;
            for &(i, a) in self.col(j) {
                moved[i] += a * step;
            }
        }
        let dx = self.factor.ftran(&mut moved);
        for (&var, d) in self.basis.iter().zip(dx) {
            self.x[var] -= d;
        }
    }

    /// Bounded-variable dual simplex: starting from a dual-feasible basis,
    /// repairs primal bound violations one leaving variable at a time while
    /// keeping every reduced cost correctly signed. Converges in a few
    /// pivots when only variable bounds changed since the basis was
    /// optimal.
    ///
    /// The ratio test is bound-flipping ("long-step"): a boxed nonbasic
    /// whose breakpoint the dual step can pass without undoing the
    /// leaving row's repair moves to its other bound instead of entering,
    /// so one pivot crosses every such breakpoint. Branch & bound's LPs
    /// are nearly all boxed (each δ lies in [−ε, ε], DeepPoly bounds
    /// every neuron), which is where this saves most of the pivots.
    fn run_dual(&mut self) -> Result<DualOutcome, LpError> {
        self.stall_count = 0;
        let mut alpha = vec![0.0; self.n_slack_end];
        // Entering candidates `(column, ratio, |alpha|, reduced cost)`.
        let mut cands: Vec<(usize, f64, f64, f64)> = Vec::new();
        // The multipliers are computed afresh with every factorization and
        // updated along the pivot row in between.
        let mut y = self.multipliers(Phase::Two);
        for _iter in 0..self.opts.max_iters {
            if !self.budget.is_unlimited() && self.budget.exhausted() {
                crate::metrics::LP_BUDGET_EXHAUSTED.inc();
                return Err(LpError::BudgetExceeded);
            }
            crate::chaos::pivot_stall_point();
            crate::metrics::LP_DUAL_PIVOTS.inc();
            if self.pivots_since_refactor >= self.opts.refactor_every {
                self.refactorize()?;
                y = self.multipliers(Phase::Two);
            }
            // Leaving variable: the basic with the largest bound violation.
            let mut leave: Option<(usize, f64, bool)> = None;
            for (i, &var) in self.basis.iter().enumerate() {
                let v = self.x[var];
                if v > self.upper[var] + TOL {
                    let viol = v - self.upper[var];
                    if leave.is_none_or(|(_, bv, _)| viol > bv) {
                        leave = Some((i, viol, true));
                    }
                } else if v < self.lower[var] - TOL {
                    let viol = self.lower[var] - v;
                    if leave.is_none_or(|(_, bv, _)| viol > bv) {
                        leave = Some((i, viol, false));
                    }
                }
            }
            let Some((r, viol, above)) = leave else {
                return Ok(DualOutcome::PrimalFeasible);
            };
            if self.stall_count >= STALL_THRESHOLD {
                // Degenerate loop: hand the node to the cold solver rather
                // than risk cycling.
                return Ok(DualOutcome::Stalled);
            }
            // Pivot row over the nonbasic columns, assembled sparsely:
            // alpha = (row r of B^-1) · A restricted to structurals+slacks.
            let rho = self.inverse_row(r);
            alpha.fill(0.0);
            for (i, &ri) in rho.iter().enumerate() {
                if ri == 0.0 {
                    continue;
                }
                for &(col, coef) in self.a.row(i) {
                    alpha[col] += ri * coef;
                }
                alpha[self.n_struct + i] += ri;
            }
            let sigma = if above { 1.0 } else { -1.0 };
            // Entering variable: bound-flipping dual ratio test. Eligibility
            // keeps each candidate's primal direction consistent with
            // removing the violation; the candidates are the breakpoints
            // |d/alpha| of the dual step, in increasing order (ties prefer
            // the largest pivot magnitude for stability).
            cands.clear();
            for (j, &aj) in alpha.iter().enumerate() {
                if matches!(self.state[j], VarState::Basic(_)) {
                    continue;
                }
                if self.upper[j] - self.lower[j] <= 0.0 {
                    continue;
                }
                let a = sigma * aj;
                let from_lower = matches!(self.state[j], VarState::NbLower | VarState::NbFree);
                let from_upper = matches!(self.state[j], VarState::NbUpper | VarState::NbFree);
                let eligible = (from_lower && a > 1e-9) || (from_upper && a < -1e-9);
                if !eligible {
                    continue;
                }
                let d = self.reduced_cost(j, &y, Phase::Two);
                // Dual feasibility bounds d's sign; clamp the tolerance
                // residue so ratios stay non-negative.
                cands.push((j, (d / a).max(0.0), a.abs(), d));
            }
            cands.sort_unstable_by(|p, q| {
                p.1.total_cmp(&q.1)
                    .then(q.2.total_cmp(&p.2))
                    .then(p.0.cmp(&q.0))
            });
            // Walk the breakpoints. The dual objective rises with slope
            // `viol` at first; passing breakpoint j takes |alpha_j|·(u_j −
            // l_j) off it, and j flips to its other bound, where its
            // reduced cost (now of the opposite sign) is dual feasible. The
            // first breakpoint that would make the slope non-positive
            // enters. One with an infinite bound can never be passed.
            let mut slope = viol;
            let mut passed = 0;
            let (j, d) = loop {
                let Some(&(j, _, abs_a, d)) = cands.get(passed) else {
                    // Every breakpoint passed with the slope still positive,
                    // or none at all: flipping every candidate cannot repair
                    // the row, so the primal is infeasible. The caller
                    // re-proves this with a cold solve before trusting it: a
                    // false infeasible here (tolerance artifact) would
                    // unsoundly prune a branch-and-bound node.
                    return Ok(DualOutcome::Infeasible);
                };
                let range = self.upper[j] - self.lower[j];
                if !range.is_finite() || slope - abs_a * range <= TOL {
                    break (j, d);
                }
                slope -= abs_a * range;
                passed += 1;
            };
            if passed > 0 {
                crate::metrics::LP_DUAL_BOUND_FLIPS.add(passed as u64);
                self.flip(cands[..passed].iter().map(|c| c.0));
            }
            let w = self.ftran(j);
            let piv = w[r];
            if piv.abs() < 1e-10 {
                return Err(LpError::SingularBasis);
            }
            let leaving = self.basis[r];
            let bound = if above {
                self.upper[leaving]
            } else {
                self.lower[leaving]
            };
            let t = (self.x[leaving] - bound) / piv;
            if t.abs() <= 1e-11 {
                self.stall_count += 1;
            } else {
                self.stall_count = 0;
            }
            // Primal step: entering moves by t, basics absorb, the leaving
            // variable lands exactly on its violated bound.
            self.x[j] += t;
            for (i, &wi) in w.iter().enumerate() {
                if wi != 0.0 {
                    self.x[self.basis[i]] -= wi * t;
                }
            }
            self.state[leaving] = if above {
                VarState::NbUpper
            } else {
                VarState::NbLower
            };
            self.x[leaving] = bound;
            self.pivot(r, j, &w)?;
            // `j` enters with reduced cost 0: y moves along row r of the
            // old inverse.
            let theta = d / piv;
            for (yi, &ri) in y.iter_mut().zip(&rho) {
                *yi += theta * ri;
            }
            if self.pivots_since_refactor.is_multiple_of(64) {
                self.recompute_basics();
            }
        }
        Err(LpError::IterationLimit {
            limit: self.opts.max_iters,
        })
    }

    /// Runs the warm-started solve: dual simplex when the seeded basis is
    /// dual-feasible, primal phase 2 when it is primal-feasible (typical
    /// after appending rows the old optimum satisfies), `Stale` otherwise.
    /// Either path finishes with the primal optimality test, so a `Solved`
    /// outcome carries exactly the certificate a cold start would.
    fn warm_run(&mut self) -> Result<WarmOutcome, LpError> {
        if self.dual_feasible() {
            match self.run_dual()? {
                DualOutcome::PrimalFeasible => self.run_phase(Phase::Two).map(WarmOutcome::Solved),
                DualOutcome::Infeasible | DualOutcome::Stalled => Ok(WarmOutcome::Stale),
            }
        } else if self.primal_feasible() {
            self.run_phase(Phase::Two).map(WarmOutcome::Solved)
        } else {
            Ok(WarmOutcome::Stale)
        }
    }
}

/// Outcome of a dual-simplex run.
enum DualOutcome {
    /// All basics back within bounds: the point is primal- and
    /// dual-feasible, i.e. optimal up to the final pricing pass.
    PrimalFeasible,
    /// No entering column, or every candidate's bound flip together still
    /// leaves the row violated: the dual is unbounded, the primal
    /// infeasible (subject to cold confirmation).
    Infeasible,
    /// Degenerate stall; the basis is not making progress.
    Stalled,
}

/// Outcome of a warm-start attempt.
enum WarmOutcome {
    Solved(SolveStatus),
    /// The seeded basis did not lead anywhere; redo from cold.
    Stale,
}

/// Parking rule for a nonbasic variable: honour the warm state when its
/// bound is finite, otherwise fall back to the cold-start rule (finite
/// bound nearest zero, free at zero).
fn park(warm: Option<BState>, lo: f64, hi: f64) -> (VarState, f64) {
    match warm {
        Some(BState::Lower) if lo.is_finite() => (VarState::NbLower, lo),
        Some(BState::Upper) if hi.is_finite() => (VarState::NbUpper, hi),
        Some(BState::Free) if !lo.is_finite() && !hi.is_finite() => (VarState::NbFree, 0.0),
        _ => {
            if lo.is_finite() && hi.is_finite() {
                if lo.abs() <= hi.abs() {
                    (VarState::NbLower, lo)
                } else {
                    (VarState::NbUpper, hi)
                }
            } else if lo.is_finite() {
                (VarState::NbLower, lo)
            } else if hi.is_finite() {
                (VarState::NbUpper, hi)
            } else {
                (VarState::NbFree, 0.0)
            }
        }
    }
}

/// The basis status a tableau state records.
fn bstate(s: VarState) -> BState {
    match s {
        VarState::Basic(_) => BState::Basic,
        VarState::NbLower => BState::Lower,
        VarState::NbUpper => BState::Upper,
        VarState::NbFree => BState::Free,
    }
}

/// A crash basis for a cold start whose all-slack start needs an
/// artificial (the caller checks; there is otherwise no phase 1 for the
/// crash to replace).
///
/// Every variable parks by the cold rule. The rows are then walked in
/// order, and each offers its newest continuous variable (the highest
/// column index; integer variables are never crashed basic). The first
/// row to offer a variable decides it: when the value that makes the row
/// tight lies within the variable's bounds, the variable is basic at it
/// and the row's slack nonbasic at 0; otherwise the variable parks at the
/// bound nearest that value. Every other row keeps its slack basic. Each
/// basic structural is the newest variable of its own row, so the basis
/// is triangular with a nonzero diagonal, and nonsingular.
///
/// The relational encoder writes each row as `target ⋚ slope·expr +
/// intercept`, with `target` created after every variable of `expr`, in
/// network order. On a ReLU network the crash is therefore a concrete run
/// of the network at the corner where every `δ` parks: stable neurons,
/// outputs and pair links are tight equalities, an unstable ReLU is tight
/// on `h ≥ pre` or parks at 0, and the sound DeepPoly and DiffPoly rows
/// hold with their slacks basic. Whether a crash is primal feasible is
/// decided by the caller, on the factored basis; an infeasible one (an ℓ1
/// budget, say) is not used.
fn crash_basis(problem: &LpProblem, a: &Matrix) -> Basis {
    let n = problem.num_vars();
    let mut states = Vec::with_capacity(n + problem.rows.len());
    let mut x = Vec::with_capacity(n);
    for &(lo, hi) in &problem.bounds {
        let (s, v) = park(None, lo, hi);
        states.push(bstate(s));
        x.push(v);
    }
    states.resize(n + problem.rows.len(), BState::Basic);
    let mut decided = vec![false; n];
    for (i, row) in problem.rows.iter().enumerate() {
        let terms = a.row(i);
        let Some(&(v, coef)) = terms.iter().rev().find(|&&(j, _)| !problem.integer[j]) else {
            continue;
        };
        if std::mem::replace(&mut decided[v], true) {
            continue;
        }
        let rest: f64 = terms
            .iter()
            .filter(|&&(j, _)| j != v)
            .map(|&(j, aij)| aij * x[j])
            .sum();
        let tight = (row.rhs - rest) / coef;
        if !tight.is_finite() {
            continue;
        }
        let (lo, hi) = problem.bounds[v];
        if (lo..=hi).contains(&tight) {
            states[v] = BState::Basic;
            let (slo, shi) = slack_bounds(row.sense);
            states[n + i] = bstate(park(None, slo, shi).0);
            x[v] = tight;
        } else if tight < lo {
            states[v] = BState::Lower;
            x[v] = lo;
        } else {
            states[v] = BState::Upper;
            x[v] = hi;
        }
    }
    Basis {
        states,
        n_struct: n,
        m: problem.rows.len(),
    }
}

fn validate_bounds(problem: &LpProblem) -> Result<(), LpError> {
    for (i, &(lo, hi)) in problem.bounds.iter().enumerate() {
        if lo > hi {
            return Err(LpError::InvalidModel(format!(
                "variable {i} has inverted bounds"
            )));
        }
    }
    Ok(())
}

fn empty_solution(status: SolveStatus) -> Solution {
    Solution {
        status,
        objective: 0.0,
        values: Vec::new(),
        proof: None,
    }
}

/// Extracts the solution, its proof (the optimal duals or a Farkas ray)
/// and the optimal basis (for warm starting a related solve) from a
/// tableau whose run ended with `status`.
fn finish_tableau(
    mut tableau: Tableau<'_>,
    problem: &LpProblem,
    status: SolveStatus,
) -> (Solution, Option<Basis>) {
    match status {
        SolveStatus::Optimal => {
            tableau.drive_out_artificials();
            // The point, the duals and the basis handed on are read off
            // fresh factors rather than through the eta file: where the
            // true optimum is exactly 0, rounding in the etas can put it a
            // few ulps on the wrong side.
            if tableau.pivots_since_refactor == 0 || tableau.refactorize().is_err() {
                tableau.recompute_basics();
            }
            // Row duals in the user's orientation: the internal problem is
            // always a minimization (costs negated for Maximize), so the
            // user-facing shadow price flips sign for Maximize.
            let sign = match problem.direction {
                Direction::Minimize => 1.0,
                Direction::Maximize => -1.0,
            };
            let y = tableau.multipliers(Phase::Two);
            let duals = y.iter().map(|&v| sign * v).collect();
            let basis = tableau.extract_basis();
            let sol = Solution {
                status,
                objective: tableau.objective_value(problem),
                values: tableau.x[..tableau.n_struct].to_vec(),
                proof: Some(LpProof::Bound { duals }),
            };
            (sol, basis)
        }
        SolveStatus::Infeasible => {
            // The phase-1 multipliers are a Farkas certificate: with the
            // phase-1 objective strictly positive at its optimum, weak
            // duality gives `yᵀb − sup_box (Aᵀy)ᵀx = phase-1 objective > 0`
            // provided each multiplier respects its row's sign (`≤` rows
            // need `y ≤ 0`, `≥` rows `y ≥ 0`, since the opposite sign lets
            // the row's slack absorb everything). Float noise can leave
            // tol-sized sign violations — clamp those to zero; a large
            // violation means the multipliers do not certify anything, so
            // emit none rather than a bogus ray.
            let y = tableau.multipliers(Phase::One);
            let tol = TOL * 100.0;
            let mut farkas = Vec::with_capacity(y.len());
            let mut usable = y.len() == problem.rows.len();
            for (row, &yi) in problem.rows.iter().zip(&y) {
                let clamped = match row.sense {
                    Sense::Le if yi > 0.0 => {
                        usable &= yi <= tol;
                        0.0
                    }
                    Sense::Ge if yi < 0.0 => {
                        usable &= -yi <= tol;
                        0.0
                    }
                    _ => yi,
                };
                farkas.push(clamped);
            }
            let mut sol = empty_solution(status);
            if usable {
                sol.proof = Some(LpProof::Farkas { ray: farkas });
            }
            (sol, None)
        }
        _ => (empty_solution(status), None),
    }
}

/// Solves `problem` with the bounded-variable two-phase simplex from a
/// cold start: [`solve_reuse`] without a warm basis.
///
/// # Errors
///
/// Returns an [`LpError`] on iteration limits or numerical breakdown;
/// infeasible/unbounded problems are reported through [`Solution::status`],
/// not as errors.
pub(crate) fn solve(
    problem: &LpProblem,
    opts: &SimplexOptions,
    budget: &Budget<'_>,
) -> Result<Solution, LpError> {
    solve_reuse(problem, &Matrix::new(problem), opts, budget, None).map(|(sol, _)| sol)
}

/// Solves `problem`, whose constraint matrix is `a`, optionally seeding the
/// simplex from `warm`, and returns the optimal basis for the caller to
/// reuse on the next related solve. The row/variable layout is exactly the
/// caller's, so duals and Farkas multipliers line up one to one with the
/// rows it built.
///
/// A warm basis is a pure accelerator: when it is dual- or primal-feasible
/// the solve finishes in few pivots, and in every other case (unusable,
/// stale, singular, stalled, dual-detected infeasibility) the function
/// takes the cold start a solve without a warm basis takes, so the result
/// carries exactly the same certificate as a cold [`solve`]. The cold start
/// is the all-slack tableau, or a primal-feasible crash basis
/// ([`crash_basis`]) when the all-slack start would need phase 1.
///
/// # Errors
///
/// Returns an [`LpError`] on iteration limits or numerical breakdown;
/// infeasible/unbounded problems are reported through [`Solution::status`],
/// not as errors.
pub(crate) fn solve_reuse(
    problem: &LpProblem,
    a: &Matrix,
    opts: &SimplexOptions,
    budget: &Budget<'_>,
    warm: Option<&Basis>,
) -> Result<(Solution, Option<Basis>), LpError> {
    validate_bounds(problem)?;
    crate::metrics::LP_SOLVES.inc();
    let _solve_timer = raven_obs::Timer::start(&crate::metrics::LP_SOLVE_SECONDS);
    if crate::chaos::take_forced_unbounded() {
        return Ok((empty_solution(SolveStatus::Unbounded), None));
    }
    if problem.rows.is_empty() {
        return Ok((solve_box_only(problem), None));
    }
    // The warm basis goes first. Without one, or when it fails, the solve
    // takes the cold start: the all-slack tableau, which a primal-feasible
    // crash basis replaces when that tableau needs phase 1.
    if let Some(basis) = warm {
        if let Some(mut tab) = Tableau::with_basis(problem, a, opts, budget, basis) {
            if let Some(status) = settled(tab.warm_run())? {
                crate::metrics::LP_WARM_STARTS.inc();
                return Ok(finish_tableau(tab, problem, status));
            }
        }
    }
    let mut slack = Tableau::new(problem, a, opts, budget);
    if slack.n_total > slack.n_slack_end {
        let crash = Tableau::with_basis(problem, a, opts, budget, &crash_basis(problem, a));
        if let Some(mut tab) = crash.filter(Tableau::primal_feasible) {
            if let Some(status) = settled(tab.run_phase(Phase::Two).map(WarmOutcome::Solved))? {
                crate::metrics::LP_CRASH_STARTS.inc();
                return Ok(finish_tableau(tab, problem, status));
            }
        }
    }
    let status = slack.run()?;
    Ok(finish_tableau(slack, problem, status))
}

/// What a seeded run (a warm or a crash start) settled: its status, or
/// `None` when the cold start must take over. That is the case for a stale
/// basis (including a dual-detected infeasibility, which the cold run
/// re-proves before it is trusted) and for a numerical breakdown (singular
/// basis, iteration limit). An exhausted budget leaves no time for a retry.
fn settled(run: Result<WarmOutcome, LpError>) -> Result<Option<SolveStatus>, LpError> {
    match run {
        Ok(WarmOutcome::Solved(status)) => Ok(Some(status)),
        Ok(WarmOutcome::Stale) => Ok(None),
        Err(LpError::BudgetExceeded) => Err(LpError::BudgetExceeded),
        Err(_) => Ok(None),
    }
}

/// Optimizes a problem with no constraints: each variable independently
/// moves to the bound favoured by its objective coefficient.
fn solve_box_only(problem: &LpProblem) -> Solution {
    let mut x: Vec<f64> = problem
        .bounds
        .iter()
        .map(|&(lo, hi)| {
            if lo.is_finite() {
                lo
            } else if hi.is_finite() {
                hi
            } else {
                0.0
            }
        })
        .collect();
    let sign = match problem.direction {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };
    for &(v, c) in problem.objective.terms() {
        let (lo, hi) = problem.bounds[v.0];
        let eff = sign * c;
        let target = if eff > 0.0 {
            lo
        } else if eff < 0.0 {
            hi
        } else {
            continue;
        };
        if !target.is_finite() {
            return empty_solution(SolveStatus::Unbounded);
        }
        x[v.0] = target;
    }
    let obj = problem.objective.eval(&x);
    Solution {
        status: SolveStatus::Optimal,
        objective: obj,
        values: x,
        // With no rows, the variable box alone proves the bound.
        proof: Some(LpProof::Bound { duals: Vec::new() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, LpProblem};

    fn expr(terms: &[(crate::VarId, f64)]) -> LinExpr {
        terms.iter().map(|&(v, c)| (v, c)).collect()
    }

    fn reuse(
        p: &LpProblem,
        opts: &SimplexOptions,
        budget: &Budget<'_>,
        warm: Option<&Basis>,
    ) -> Result<(Solution, Option<Basis>), LpError> {
        solve_reuse(p, &Matrix::new(p), opts, budget, warm)
    }

    #[test]
    fn simple_maximization() {
        // Classic: max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → 36.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Le, 4.0);
        p.add_constraint(expr(&[(y, 2.0)]), Sense::Le, 12.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 36.0).abs() < 1e-6, "{}", sol.objective);
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_work() {
        // min x + y s.t. x + y = 2, x - y = 0 → x = y = 1.
        let mut p = LpProblem::new();
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY);
        let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Eq, 2.0);
        p.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Sense::Eq, 0.0);
        p.set_objective(Direction::Minimize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.value(x) - 1.0).abs() < 1e-7);
        assert!((sol.value(y) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 2.0);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Sense::Le, 1.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0)]));
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn honors_upper_bounds_via_bound_flips() {
        // max x + y s.t. x + y ≤ 1.5, 0 ≤ x,y ≤ 1 → 1.5.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.5);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!((sol.objective - 1.5).abs() < 1e-7);
    }

    #[test]
    fn free_variables_and_negative_bounds() {
        // min y s.t. y ≥ x - 1, y ≥ -x - 1, x free → y = -1 at x = 0.
        let mut p = LpProblem::new();
        let x = p.add_free_var();
        let y = p.add_free_var();
        p.add_constraint(expr(&[(y, 1.0), (x, -1.0)]), Sense::Ge, -1.0);
        p.add_constraint(expr(&[(y, 1.0), (x, 1.0)]), Sense::Ge, -1.0);
        p.set_objective(Direction::Minimize, expr(&[(y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective + 1.0).abs() < 1e-7, "{}", sol.objective);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        for k in 1..20 {
            let kf = k as f64;
            p.add_constraint(expr(&[(x, kf), (y, 1.0)]), Sense::Le, kf);
        }
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!(p.is_feasible(&sol.values, 1e-6));
        assert!(sol.objective >= 1.0 - 1e-7);
    }

    /// Solves `p` from the all-slack two-phase start, without a crash.
    fn all_slack(p: &LpProblem) -> Solution {
        let a = Matrix::new(p);
        let opts = SimplexOptions::default();
        let budget = Budget::unlimited();
        let mut tab = Tableau::new(p, &a, &opts, &budget);
        let status = tab.run().expect("all-slack solve");
        finish_tableau(tab, p, status).0
    }

    #[test]
    fn ge_constraints_with_positive_rhs_need_phase1() {
        // min 2x + 3y s.t. x + y ≥ 4, x + 3y ≥ 6, x, y ≥ 0 → (3, 1): 9.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Ge, 4.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 3.0)]), Sense::Ge, 6.0);
        p.set_objective(Direction::Minimize, expr(&[(x, 2.0), (y, 3.0)]));
        // Both rows are violated at the all-slack start: phase 1 runs.
        let a = Matrix::new(&p);
        let (opts, budget) = (SimplexOptions::default(), Budget::unlimited());
        let slack = Tableau::new(&p, &a, &opts, &budget);
        assert_eq!(slack.n_total, slack.n_slack_end + 2);
        // `solve` starts from the crash instead (y = 4 makes row 1 tight
        // and row 2 holds), so both starts must reach the optimum.
        for sol in [all_slack(&p), p.solve().unwrap()] {
            assert!(sol.is_optimal());
            assert!((sol.objective - 9.0).abs() < 1e-6, "{}", sol.objective);
        }
    }

    #[test]
    fn no_constraints_optimizes_over_box() {
        let mut p = LpProblem::new();
        let x = p.add_var(-2.0, 3.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 2.0)]));
        let sol = p.solve().unwrap();
        assert_eq!(sol.objective, 6.0);
    }

    /// The row duals an optimal solve proves its bound with.
    fn duals(sol: &Solution) -> &[f64] {
        match &sol.proof {
            Some(LpProof::Bound { duals }) => duals,
            other => panic!("no dual proof: {other:?}"),
        }
    }

    #[test]
    fn duals_match_the_textbook_example() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18: the classic
        // Dantzig example with known shadow prices (0, 3/2, 1). Rows 1
        // and 2 are singletons, and every shadow price is reported at its
        // row's own index.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        let y = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Le, 4.0);
        p.add_constraint(expr(&[(y, 2.0)]), Sense::Le, 12.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let sol = p.solve().unwrap();
        let d = duals(&sol);
        assert_eq!(d.len(), 3, "duals must align with original rows");
        assert!(d[0].abs() < 1e-7, "{d:?}");
        assert!((d[1] - 1.5).abs() < 1e-7, "{d:?}");
        assert!((d[2] - 1.0).abs() < 1e-7, "{d:?}");
        // Strong duality: b·y equals the optimum for this standard-form LP.
        let by = 4.0 * d[0] + 12.0 * d[1] + 18.0 * d[2];
        assert!((by - sol.objective).abs() < 1e-6);
    }

    #[test]
    fn minimization_duals_have_user_orientation() {
        // min 2x s.t. x ≥ 3 → optimum 6; raising the rhs by 1 raises the
        // optimum by 2 → dual = +2, reported against the only row, a
        // singleton.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, f64::INFINITY);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 3.0);
        p.set_objective(Direction::Minimize, expr(&[(x, 2.0)]));
        let sol = p.solve().unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-7);
        let d = duals(&sol);
        assert_eq!(d.len(), 1);
        assert!((d[0] - 2.0).abs() < 1e-7, "{d:?}");
    }

    #[test]
    fn redundant_rows_report_zero_duals() {
        // x + y ≤ 50 is implied by the bounds: a slack row has shadow
        // price 0 at its own index.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 50.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.5);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let sol = p.solve().unwrap();
        let d = duals(&sol);
        assert_eq!(d.len(), 2);
        assert!(d[0].abs() < 1e-6, "{d:?}");
        assert!((d[1] - 1.0).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn rows_violated_within_tolerance_stay_feasible() {
        // The violation here (5e-8) sits inside the simplex feasibility
        // tolerance (1e-7), so the point x = 1 is accepted rather than
        // the LP declared infeasible.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 1.0 + 5e-8);
        p.set_objective(Direction::Minimize, expr(&[(x, 1.0)]));
        let sol = p.solve().unwrap();
        assert!(
            sol.is_optimal(),
            "within-tolerance LP declared {:?}",
            sol.status
        );
    }

    #[test]
    fn warm_start_reaches_the_same_optimum_after_bound_changes() {
        // Solve, tighten a bound (the branch-and-bound move), re-solve
        // from the extracted basis: the dual simplex must land on the same
        // optimum a cold solve finds.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 4.0);
        let y = p.add_var(0.0, 6.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 8.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let opts = SimplexOptions::default();
        let budget = Budget::unlimited();
        let (first, basis) = reuse(&p, &opts, &budget, None).unwrap();
        assert!(first.is_optimal());
        let basis = basis.expect("optimal solve yields a basis");
        p.bounds[1] = (0.0, 3.0); // tighten y ≤ 3 as a branch would
        let (cold, _) = reuse(&p, &opts, &budget, None).unwrap();
        let (warm, warm_basis) = reuse(&p, &opts, &budget, Some(&basis)).unwrap();
        assert!(cold.is_optimal() && warm.is_optimal());
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(p.is_feasible(&warm.values, 1e-6));
        assert!(warm_basis.is_some());
    }

    #[test]
    fn warm_start_extends_across_appended_rows_and_vars() {
        // Per-label reuse shape: solve a base LP, append a variable and a
        // row, and seed the bigger problem from the smaller basis. The old
        // optimum satisfies the new row, so primal phase 2 alone finishes.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 4.0);
        let y = p.add_var(0.0, 6.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let opts = SimplexOptions::default();
        let budget = Budget::unlimited();
        let (_, basis) = reuse(&p, &opts, &budget, None).unwrap();
        let basis = basis.expect("basis");
        let z = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (z, 5.0)]), Sense::Le, 30.0);
        let (cold, _) = reuse(&p, &opts, &budget, None).unwrap();
        let (warm, _) = reuse(&p, &opts, &budget, Some(&basis)).unwrap();
        assert!(cold.is_optimal() && warm.is_optimal());
        assert!((warm.objective - cold.objective).abs() < 1e-7);
    }

    #[test]
    fn stale_basis_falls_back_to_cold_start() {
        // A basis from a completely unrelated problem must not corrupt the
        // result: the warm attempt is rejected or repaired, never trusted.
        let mut small = LpProblem::new();
        let a = small.add_var(0.0, 1.0);
        small.add_constraint(expr(&[(a, 1.0)]), Sense::Le, 0.5);
        small.set_objective(Direction::Maximize, expr(&[(a, 1.0)]));
        let opts = SimplexOptions::default();
        let budget = Budget::unlimited();
        let (_, basis) = reuse(&small, &opts, &budget, None).unwrap();
        let basis = basis.expect("basis");
        let mut big = LpProblem::new();
        let x = big.add_var(0.0, 4.0);
        let y = big.add_var(0.0, 6.0);
        big.add_constraint(expr(&[(x, 1.0)]), Sense::Ge, 1.0);
        big.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        big.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let (cold, _) = reuse(&big, &opts, &budget, None).unwrap();
        let (warm, _) = reuse(&big, &opts, &budget, Some(&basis)).unwrap();
        assert!(cold.is_optimal() && warm.is_optimal());
        assert!((warm.objective - cold.objective).abs() < 1e-7);
    }

    #[test]
    fn budget_expiry_mid_dual_pivot_errors_budget_exceeded() {
        // An already-expired budget must abort the dual simplex on its
        // first pivot with the same error contract as the primal phases.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 4.0);
        let y = p.add_var(0.0, 6.0);
        p.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 5.0)]));
        let opts = SimplexOptions::default();
        let (first, basis) = reuse(&p, &opts, &Budget::unlimited(), None).unwrap();
        assert!(first.is_optimal());
        let basis = basis.expect("basis");
        p.bounds[1] = (0.0, 2.0);
        let expired = Budget::default()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = reuse(&p, &opts, &expired, Some(&basis)).unwrap_err();
        assert_eq!(err, LpError::BudgetExceeded);
    }

    #[test]
    fn warm_start_detects_infeasible_children() {
        // Fixing a variable outside the constraint's reach makes the child
        // infeasible; the dual simplex signals it and the cold fallback
        // must confirm Infeasible rather than mislabel it.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 1.0), (y, 1.0)]));
        let opts = SimplexOptions::default();
        let budget = Budget::unlimited();
        let (first, basis) = reuse(&p, &opts, &budget, None).unwrap();
        assert!(first.is_optimal());
        let basis = basis.expect("basis");
        p.bounds[0] = (1.0, 1.0);
        p.bounds[1] = (1.0, 1.0); // x + y = 2 > 1: infeasible
        let (warm, _) = reuse(&p, &opts, &budget, Some(&basis)).unwrap();
        assert_eq!(warm.status, SolveStatus::Infeasible);
    }

    mod bound_flips {
        use super::*;

        /// `min Σ c_j x_j` over `x_j ∈ [0, u_j]`, with `z = Σ x_j` and the
        /// given bounds on `z`. With `z ≥ 0` the optimum is `x = 0`, whose
        /// basis keeps the row's slack basic and `z` at its lower bound.
        fn fan(c: &[f64], u: &[f64], z_bounds: (f64, f64)) -> LpProblem {
            let mut p = LpProblem::new();
            let xs: Vec<_> = u.iter().map(|&hi| p.add_var(0.0, hi)).collect();
            let z = p.add_var(z_bounds.0, z_bounds.1);
            let row = xs
                .iter()
                .fold(LinExpr::new().term(1.0, z), |row, &x| row.term(-1.0, x));
            p.add_constraint(row, Sense::Eq, 0.0);
            let cost: Vec<_> = xs.iter().copied().zip(c.iter().copied()).collect();
            p.set_objective(Direction::Minimize, expr(&cost));
            p
        }

        /// The optimal basis of `parent`, solved cold.
        fn parent_basis(parent: &LpProblem) -> Basis {
            let (sol, basis) = reuse(
                parent,
                &SimplexOptions::default(),
                &Budget::unlimited(),
                None,
            )
            .expect("parent solve");
            assert!(sol.is_optimal());
            basis.expect("an optimal parent yields a basis")
        }

        /// Runs the dual simplex on `child` from `warm`, asserts the basic
        /// values it leaves are the ones its basis gives, and returns the
        /// tableau with the outcome.
        fn dual<'a>(
            child: &LpProblem,
            a: &'a Matrix,
            opts: &'a SimplexOptions,
            budget: &'a Budget<'a>,
            warm: &Basis,
        ) -> (Tableau<'a>, DualOutcome) {
            let mut tab = Tableau::with_basis(child, a, opts, budget, warm).expect("basis factors");
            assert!(tab.dual_feasible(), "a bound change keeps dual feasibility");
            let outcome = tab.run_dual().expect("dual simplex");
            if matches!(outcome, DualOutcome::PrimalFeasible) {
                let kept = tab.x.clone();
                tab.recompute_basics();
                for (j, (&was, &is)) in kept.iter().zip(&tab.x).enumerate() {
                    assert!(
                        (was - is).abs() < 1e-9,
                        "x[{j}] = {was}, its basis gives {is}"
                    );
                }
            }
            (tab, outcome)
        }

        #[test]
        fn one_pivot_passes_every_breakpoint_the_violation_allows() {
            // Raising z ≥ 3.5 leaves the slack basic at −3.5. The cheapest
            // repairs are x1, x2, x3 (one unit each, 3 of the 3.5), so the
            // first dual iteration passes those three breakpoints, flips
            // them to 1 and enters x4 at 0.5: one pivot, not four.
            let c = [1.0, 2.0, 3.0, 4.0];
            let warm = parent_basis(&fan(&c, &[1.0; 4], (0.0, 10.0)));
            let child = fan(&c, &[1.0; 4], (3.5, 10.0));
            let a = Matrix::new(&child);
            let (opts, budget) = (SimplexOptions::default(), Budget::unlimited());
            let (mut tab, outcome) = dual(&child, &a, &opts, &budget, &warm);
            assert!(matches!(outcome, DualOutcome::PrimalFeasible));
            for j in 0..3 {
                assert_eq!(tab.state[j], VarState::NbUpper, "x{} not flipped", j + 1);
                assert_eq!(tab.x[j], 1.0);
            }
            assert!(matches!(tab.state[3], VarState::Basic(_)), "x4 must enter");
            assert!((tab.x[3] - 0.5).abs() < 1e-9, "x4 = {}", tab.x[3]);
            assert_eq!(tab.pivots_since_refactor, 1, "one pivot crosses them all");
            // The warm optimum and its duals are the cold solve's.
            let status = tab.run_phase(Phase::Two).expect("phase 2");
            let (warm_sol, _) = finish_tableau(tab, &child, status);
            let cold = all_slack(&child);
            assert!(warm_sol.is_optimal() && cold.is_optimal());
            assert!(
                (warm_sol.objective - 8.0).abs() < 1e-6,
                "{}",
                warm_sol.objective
            );
            assert!((warm_sol.objective - cold.objective).abs() < 1e-6);
            for (w, c) in duals(&warm_sol).iter().zip(duals(&cold)) {
                assert!((w - c).abs() < 1e-6, "dual {w} vs cold {c}");
            }
            let (reused, _) = reuse(&child, &opts, &budget, Some(&warm)).unwrap();
            assert_eq!(reused, warm_sol, "solve_reuse takes the same path");
        }

        #[test]
        fn a_half_bounded_breakpoint_enters_instead_of_flipping() {
            // w ∈ [0, ∞) at cost 1.5 sits between x1 (cost 1) and x2: x1 is
            // passed, and w, which has no other bound to flip to, enters
            // at 2 for the 2 units z ≥ 3 still lacks.
            let child = fan(
                &[1.0, 2.0, 3.0, 1.5],
                &[1.0, 1.0, 1.0, f64::INFINITY],
                (3.0, 10.0),
            );
            let warm = {
                let mut parent = child.clone();
                parent.bounds[4] = (0.0, 10.0);
                parent_basis(&parent)
            };
            let a = Matrix::new(&child);
            let (opts, budget) = (SimplexOptions::default(), Budget::unlimited());
            let (tab, outcome) = dual(&child, &a, &opts, &budget, &warm);
            assert!(matches!(outcome, DualOutcome::PrimalFeasible));
            assert_eq!(tab.state[0], VarState::NbUpper, "x1 not flipped");
            assert!(matches!(tab.state[3], VarState::Basic(_)), "w must enter");
            assert!((tab.x[3] - 2.0).abs() < 1e-9, "w = {}", tab.x[3]);
            let (reused, _) = reuse(&child, &opts, &budget, Some(&warm)).unwrap();
            assert!(
                (reused.objective - 4.0).abs() < 1e-6,
                "{}",
                reused.objective
            );
            assert!(child.is_feasible(&reused.values, 1e-6));
        }

        #[test]
        fn a_row_no_flip_can_repair_is_infeasible_and_reproved_cold() {
            // z ≥ 5, but the four x's can add up to 4 at most: the walk
            // passes every breakpoint with the slope still positive.
            let c = [1.0, 2.0, 3.0, 4.0];
            let warm = parent_basis(&fan(&c, &[1.0; 4], (0.0, 10.0)));
            let child = fan(&c, &[1.0; 4], (5.0, 10.0));
            let a = Matrix::new(&child);
            let (opts, budget) = (SimplexOptions::default(), Budget::unlimited());
            let (_, outcome) = dual(&child, &a, &opts, &budget, &warm);
            assert!(matches!(outcome, DualOutcome::Infeasible));
            let (reused, basis) = reuse(&child, &opts, &budget, Some(&warm)).unwrap();
            assert_eq!(reused.status, SolveStatus::Infeasible);
            assert!(basis.is_none());
            let Some(LpProof::Farkas { ray }) = &reused.proof else {
                panic!("no Farkas ray: {:?}", reused.proof);
            };
            assert_eq!(ray.len(), 1);
            assert!(ray[0] != 0.0, "the ray must weigh the row");
        }
    }

    /// Installs `basis` on the tableau, with every other variable nonbasic.
    fn install_basis(tab: &mut Tableau<'_>, basis: Vec<usize>) {
        for s in tab.state.iter_mut() {
            *s = VarState::NbLower;
        }
        for (pos, &var) in basis.iter().enumerate() {
            tab.state[var] = VarState::Basic(pos);
        }
        tab.basis = basis;
    }

    /// Entry `(row, pos)` of the tableau's current basis matrix.
    fn basis_entry(tab: &Tableau<'_>, row: usize, pos: usize) -> f64 {
        tab.col(tab.basis[pos])
            .iter()
            .find(|&&(i, _)| i == row)
            .map_or(0.0, |&(_, a)| a)
    }

    /// Asserts `B·ftran(e_c) = e_c` and `btran(e_r)ᵀ·B = e_rᵀ` for every
    /// unit vector.
    fn assert_solves_invert_basis(tab: &Tableau<'_>, when: &str) {
        let m = tab.m;
        for c in 0..m {
            let mut e = vec![0.0; m];
            e[c] = 1.0;
            let x = tab.factor.ftran(&mut e);
            for r in 0..m {
                let bx: f64 = (0..m).map(|pos| basis_entry(tab, r, pos) * x[pos]).sum();
                let want = if r == c { 1.0 } else { 0.0 };
                assert!(
                    (bx - want).abs() < 1e-9,
                    "{when}: (B·ftran(e_{c}))[{r}] = {bx}"
                );
            }
        }
        for r in 0..m {
            let y = tab.inverse_row(r);
            for pos in 0..m {
                let yb: f64 = (0..m).map(|i| y[i] * basis_entry(tab, i, pos)).sum();
                let want = if pos == r { 1.0 } else { 0.0 };
                assert!(
                    (yb - want).abs() < 1e-9,
                    "{when}: (btran(e_{r})ᵀ·B)[{pos}] = {yb}"
                );
            }
        }
    }

    #[test]
    fn block_factorization_inverts_mixed_bases() {
        // Random problems whose `≥` rows (positive rhs) and `≤` rows
        // (negative rhs) start with artificials of sign +1 and −1. Each
        // row of a random basis is covered by its slack, its artificial,
        // or left free for a structural column; FTRAN and BTRAN must invert
        // the basis whatever order the positions come in, both on the
        // fresh LU factors and after a run of eta updates on top of them.
        let mut rng = raven_tensor::Rng::new(0xB10C);
        let opts = SimplexOptions::default();
        let budget = Budget::unlimited();
        let mut checked = 0;
        let mut mixed = 0;
        let mut updated = 0;
        for _ in 0..200 {
            let m = 1 + rng.below(9);
            let n = m + rng.below(4);
            let mut p = LpProblem::new();
            let vars: Vec<_> = (0..n).map(|_| p.add_var(0.0, 10.0)).collect();
            for _ in 0..m {
                let mut row = LinExpr::new();
                for &v in &vars {
                    if rng.below(3) > 0 {
                        row = row.term(rng.in_range(-3.0, 3.0), v);
                    }
                }
                let (sense, rhs) = match rng.below(3) {
                    0 => (Sense::Ge, rng.in_range(1.0, 5.0)),
                    1 => (Sense::Le, rng.in_range(-5.0, -1.0)),
                    _ => (Sense::Eq, rng.in_range(-5.0, 5.0)),
                };
                p.add_constraint(row, sense, rhs);
            }
            let a = Matrix::new(&p);
            let mut tab = Tableau::new(&p, &a, &opts, &budget);
            let mut basis = Vec::with_capacity(m);
            let mut free_rows = 0;
            for row in 0..m {
                let art = tab.units[m..].iter().position(|&(r, _)| r == row);
                match (rng.below(3), art) {
                    (0, _) => free_rows += 1,
                    (1, Some(a)) => basis.push(tab.n_slack_end + a),
                    _ => basis.push(tab.n_struct + row),
                }
            }
            let mut structs: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut structs);
            basis.extend_from_slice(&structs[..free_rows]);
            rng.shuffle(&mut basis);
            install_basis(&mut tab, basis);
            if tab.refactorize().is_err() {
                // A sparse random block can be genuinely singular.
                continue;
            }
            assert_solves_invert_basis(&tab, "refactorized");
            checked += 1;
            let has = |range: std::ops::Range<usize>| tab.basis.iter().any(|v| range.contains(v));
            if has(0..tab.n_struct)
                && has(tab.n_struct..tab.n_slack_end)
                && has(tab.n_slack_end..tab.n_total)
            {
                mixed += 1;
            }
            // Eta updates: bring random nonbasic columns in on their
            // largest FTRAN entry.
            let mut pivots = 0;
            for _ in 0..2 * m {
                let j = rng.below(tab.n_total);
                if matches!(tab.state[j], VarState::Basic(_)) {
                    continue;
                }
                let w = tab.ftran(j);
                let r = (0..m)
                    .max_by(|&x, &y| w[x].abs().total_cmp(&w[y].abs()))
                    .expect("m ≥ 1");
                if w[r].abs() < 0.1 {
                    continue;
                }
                let leaving = tab.basis[r];
                tab.pivot(r, j, &w).expect("pivot on a large entry");
                tab.state[leaving] = VarState::NbLower;
                pivots += 1;
            }
            if pivots > 0 {
                assert_solves_invert_basis(&tab, "after eta updates");
                updated += 1;
            }
        }
        // Coverage guard: most draws factorize, many mix all three kinds,
        // and most carry eta updates too.
        assert!(
            checked >= 120 && mixed >= 50 && updated >= 100,
            "{checked} checked, {mixed} mixed, {updated} updated"
        );
    }

    #[test]
    fn duplicate_structural_columns_are_singular() {
        // x and y have identical columns, so no basis holding both is
        // invertible: refactorize must refuse it, and a warm start seeded
        // with it must fall back to the cold optimum.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 4.0);
        let y = p.add_var(0.0, 4.0);
        let z = p.add_var(0.0, 4.0);
        p.add_constraint(expr(&[(x, 1.0), (y, 1.0), (z, 1.0)]), Sense::Le, 4.0);
        p.add_constraint(expr(&[(x, 2.0), (y, 2.0), (z, -1.0)]), Sense::Le, 3.0);
        p.set_objective(Direction::Maximize, expr(&[(x, 3.0), (y, 2.0), (z, 1.0)]));
        let opts = SimplexOptions::default();
        let budget = Budget::unlimited();
        let a = Matrix::new(&p);
        let mut tab = Tableau::new(&p, &a, &opts, &budget);
        install_basis(&mut tab, vec![0, 1]);
        assert_eq!(tab.refactorize(), Err(LpError::SingularBasis));

        let singular = Basis {
            states: vec![
                BState::Basic,
                BState::Basic,
                BState::Lower,
                BState::Lower,
                BState::Lower,
            ],
            n_struct: 3,
            m: 2,
        };
        let (cold, _) = reuse(&p, &opts, &budget, None).unwrap();
        let (warm, _) = reuse(&p, &opts, &budget, Some(&singular)).unwrap();
        assert!(cold.is_optimal() && warm.is_optimal());
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    #[test]
    fn equality_chain_with_free_vars() {
        // A chain of equalities like the verifier's linking rows:
        // d_i = a_i − b_i, with a, b boxed and an objective on d.
        let mut p = LpProblem::new();
        let mut prev = None;
        let mut d_vars = Vec::new();
        for i in 0..10 {
            let a = p.add_var(-1.0, 1.0);
            let b = p.add_var(-1.0, 1.0);
            let d = p.add_free_var();
            p.add_constraint(expr(&[(d, 1.0), (a, -1.0), (b, 1.0)]), Sense::Eq, 0.0);
            if let Some(pd) = prev {
                // Couple adjacent differences: d_i − 0.5 d_{i−1} ≤ 0.2.
                p.add_constraint(expr(&[(d, 1.0), (pd, -0.5)]), Sense::Le, 0.2);
            }
            prev = Some(d);
            d_vars.push((d, 1.0 / (1.0 + i as f64)));
        }
        p.set_objective(Direction::Maximize, expr(&d_vars));
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        assert!(p.is_feasible(&sol.values, 1e-6));
    }

    mod crash {
        use super::*;
        use crate::{Direction, LinExpr, LpProblem, Sense, VarId};
        use raven_tensor::Rng;

        include!("../tests/support/nn_lp.rs");

        /// The crash tableau of `p`, factored.
        fn crash_tableau<'a>(
            p: &LpProblem,
            a: &'a Matrix,
            opts: &'a SimplexOptions,
            budget: &'a Budget<'a>,
        ) -> Tableau<'a> {
            Tableau::with_basis(p, a, opts, budget, &crash_basis(p, a))
                .expect("a triangular crash factors")
        }

        fn assert_same(crash: &Solution, slack: &Solution, what: &str) {
            assert_eq!(crash.status, slack.status, "{what}");
            assert!(
                (crash.objective - slack.objective).abs() < 1e-6,
                "{what}: crash {} vs all-slack {}",
                crash.objective,
                slack.objective
            );
        }

        #[test]
        fn nn_lps_start_feasible_and_skip_phase_one() {
            let opts = SimplexOptions::default();
            let budget = Budget::unlimited();
            let mut rng = Rng::new(0x28_01);
            for case in 0..6 {
                let p = build_nn(&nn_lp(&mut rng, false));
                let a = Matrix::new(&p);
                let slack = Tableau::new(&p, &a, &opts, &budget);
                assert!(slack.n_total > slack.n_slack_end, "case {case}: no phase 1");
                let mut tab = crash_tableau(&p, &a, &opts, &budget);
                assert!(tab.primal_feasible(), "case {case}: crash infeasible");
                // No artificial exists, so no phase-1 pivot can be made.
                assert_eq!(tab.n_total, tab.n_slack_end);
                let status = tab.run_phase(Phase::Two).expect("phase 2");
                let (crash, _) = finish_tableau(tab, &p, status);
                assert_same(&crash, &all_slack(&p), &format!("case {case}"));
                let (solved, _) = solve_reuse(&p, &a, &opts, &budget, None).unwrap();
                assert_eq!(solved, crash, "case {case}: the cold solve is the crash");
                assert!(p.is_feasible(&solved.values, 1e-6));
            }
        }

        #[test]
        fn an_l1_budget_makes_the_crash_infeasible_and_the_solve_falls_back() {
            let opts = SimplexOptions::default();
            let budget = Budget::unlimited();
            let mut rng = Rng::new(0x28_02);
            for case in 0..4 {
                let mut lp = nn_lp(&mut rng, false);
                add_l1_budget(&mut lp);
                let p = build_nn(&lp);
                let a = Matrix::new(&p);
                let tab = crash_tableau(&p, &a, &opts, &budget);
                assert!(!tab.primal_feasible(), "case {case}: crash feasible");
                let (solved, _) = solve_reuse(&p, &a, &opts, &budget, None).unwrap();
                assert_same(&solved, &all_slack(&p), &format!("case {case}"));
                assert!(p.is_feasible(&solved.values, 1e-6), "case {case}");
            }
        }

        #[test]
        fn integer_variables_are_never_crashed_basic() {
            let mut rng = Rng::new(0x28_03);
            for _ in 0..4 {
                let lp = nn_lp(&mut rng, true);
                let p = build_nn(&lp);
                let crash = crash_basis(&p, &Matrix::new(&p));
                for (j, &int) in lp.integer.iter().enumerate() {
                    assert!(!int || crash.states[j] != BState::Basic, "binary {j} basic");
                }
            }
        }

        #[test]
        fn crash_and_all_slack_starts_agree_on_nn_lps_and_milps() {
            let mut rng = Rng::new(0x28_04);
            for case in 0..8 {
                let p = build_nn(&nn_lp(&mut rng, false));
                assert_same(&p.solve().unwrap(), &all_slack(&p), &format!("lp {case}"));
            }
            for case in 0..4 {
                let lp = nn_lp(&mut rng, true);
                let p = build_nn(&lp);
                let milp = p.solve_milp().unwrap();
                // The all-slack reference: every binary assignment solved
                // as an LP from the all-slack start, best feasible one kept.
                let binaries: Vec<usize> =
                    (0..lp.integer.len()).filter(|&j| lp.integer[j]).collect();
                let mut best: Option<Solution> = None;
                for mask in 0..1usize << binaries.len() {
                    let mut fixed = p.clone();
                    for (bit, &j) in binaries.iter().enumerate() {
                        let z = ((mask >> bit) & 1) as f64;
                        fixed.bounds[j] = (z, z);
                    }
                    let sol = all_slack(&fixed);
                    if sol.is_optimal() && best.as_ref().is_none_or(|b| sol.objective > b.objective)
                    {
                        best = Some(sol);
                    }
                }
                let best = best.expect("δ = 0 with every flag off is feasible");
                assert_same(&milp, &best, &format!("milp {case}"));
            }
        }
    }
}
