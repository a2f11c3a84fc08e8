//! The relational LP encoding.
//!
//! Variables: caller-provided base variables (the shared perturbation `d`,
//! or explicit input variables for monotonicity), one variable per
//! post-activation neuron per execution, output variables per execution,
//! and — for RaVeN — difference variables per tracked pair per activation
//! layer. Constraints: per-execution activation relaxations (exact
//! equalities for stable ReLUs, triangle/secant relaxations otherwise),
//! linking equalities `Δ = h_A − h_B`, and the DiffPoly δ-space lines as
//! linear cross-execution constraints.
//!
//! A row whose right side is constant is written as the bound it puts on
//! its one variable, never as a one-variable row. In a shared-perturbation
//! (UAP) batch that is every first-layer δ-row: the pair's input
//! difference `z_a − z_b` is a constant, so DiffPoly's lines there are
//! exact (the ReluDiff observation). The solver therefore receives no
//! singleton rows, and its duals index the rows the encoder wrote.
//!
//! Affine layers are substituted inline: pre-activation expressions are
//! kept as sparse linear expressions over the previous layer's variables,
//! so the LP never carries explicit pre-activation variables.
//!
//! Every coefficient is summed in a fixed order — over the previous layer
//! in ascending index, starting from `0.0` — so the emitted LP is the same
//! `f64` for `f64` on every run.
//!
//! The walk over the plan, and with it every row case, is written once,
//! generic over a crate-private row sink: an [`LpProblem`] receives the
//! variables and rows, while a row count only tallies them, for verdicts
//! that report the LP's size without ever solving it.

use raven_deeppoly::{relax_activation, DeepPolyAnalysis};
use raven_diffpoly::DiffPolyAnalysis;
use raven_interval::Interval;
use raven_lp::{LinExpr, LpProblem, Sense, VarId};
use raven_nn::{ActKind, AnalysisPlan, PlanStep};
use raven_tensor::Matrix;
use std::iter;

/// A sparse affine expression over LP variables: `Σ c_i v_i + constant`.
///
/// The terms are sorted by variable, name each variable at most once and
/// never carry a zero coefficient.
#[derive(Debug, Clone, Default)]
pub struct Expr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl Expr {
    /// The constant expression.
    pub fn constant(c: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `1·v`.
    pub fn var(v: VarId) -> Self {
        Self {
            terms: vec![(v, 1.0)],
            constant: 0.0,
        }
    }

    /// Adds `coeff·v` to the expression (builder style).
    pub fn plus_var(mut self, coeff: f64, v: VarId) -> Self {
        if coeff != 0.0 {
            match self.terms.binary_search_by_key(&v, |&(u, _)| u) {
                Ok(i) => {
                    self.terms[i].1 += coeff;
                    if self.terms[i].1 == 0.0 {
                        self.terms.remove(i);
                    }
                }
                Err(i) => self.terms.insert(i, (v, coeff)),
            }
        }
        self
    }

    /// Adds `alpha · other` into `self`.
    pub fn add_scaled(&mut self, alpha: f64, other: &Expr) {
        if alpha == 0.0 {
            return;
        }
        self.constant += alpha * other.constant;
        let mut own = std::mem::take(&mut self.terms).into_iter().peekable();
        let mut merged = Vec::with_capacity(own.len() + other.terms.len());
        for &(v, c) in &other.terms {
            while let Some(t) = own.next_if(|&(u, _)| u < v) {
                merged.push(t);
            }
            // A variable new to `self` starts from `0.0`; `0.0 + x` is `x`
            // up to the sign of zero, and zeros are dropped either way.
            let sum = match own.next_if(|&(u, _)| u == v) {
                Some((_, mine)) => mine + alpha * c,
                None => alpha * c,
            };
            if sum != 0.0 {
                merged.push((v, sum));
            }
        }
        merged.extend(own);
        self.terms = merged;
    }

    /// The expression's constant part.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Whether the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Converts the variable part into a solver [`LinExpr`].
    pub fn to_lin_expr(&self) -> LinExpr {
        self.terms.iter().copied().collect()
    }

    /// Evaluates the expression at an assignment indexed by variable.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * x[v.index()])
                .sum::<f64>()
    }
}

/// Dense per-variable sums for [`compose_affine`], indexed by
/// `VarId::index()` and reused across rows, layers and executions.
#[derive(Default)]
pub(crate) struct Accumulator {
    sums: Vec<f64>,
    hit: Vec<bool>,
    touched: Vec<VarId>,
}

impl Accumulator {
    /// Makes room for every variable the expressions in `exprs` use.
    fn fit(&mut self, exprs: &[Expr]) {
        let width = exprs
            .iter()
            .filter_map(|e| e.terms.last())
            .map(|&(v, _)| v.index() + 1)
            .max()
            .unwrap_or(0);
        if width > self.sums.len() {
            self.sums.resize(width, 0.0);
            self.hit.resize(width, false);
        }
    }

    fn add(&mut self, v: VarId, x: f64) {
        let i = v.index();
        if !self.hit[i] {
            self.hit[i] = true;
            self.touched.push(v);
        }
        self.sums[i] += x;
    }

    /// The accumulated nonzero sums as sorted terms; resets every slot.
    fn take_terms(&mut self) -> Vec<(VarId, f64)> {
        self.touched.sort_unstable();
        let mut terms = Vec::with_capacity(self.touched.len());
        for &v in &self.touched {
            let i = v.index();
            self.hit[i] = false;
            let c = std::mem::replace(&mut self.sums[i], 0.0);
            if c != 0.0 {
                terms.push((v, c));
            }
        }
        self.touched.clear();
        terms
    }
}

/// Where the encoder puts its variables and rows.
///
/// The encoder walks the plan once per execution and once per tracked pair
/// and decides every row case itself; a sink only decides what a variable,
/// an expression and a row are.
pub(crate) trait RowSink {
    /// Handle of an added variable.
    type Var: Copy;
    /// An affine expression, or as much of one as the sink needs.
    type Expr;
    /// Scratch space for [`RowSink::affine`], reused across the encoding.
    type Scratch: Default;

    /// The sink's form of a caller-provided input expression.
    fn input(e: &Expr) -> Self::Expr;
    /// The expression `1·v`.
    fn var(v: Self::Var) -> Self::Expr;
    /// The expression `a − b`.
    fn link(a: Self::Var, b: Self::Var) -> Self::Expr;
    /// Whether `e` has no variable terms.
    fn is_constant(e: &Self::Expr) -> bool;
    /// `weight · prev + bias`, one expression per output row.
    fn affine(
        weight: &Matrix,
        bias: Option<&[f64]>,
        prev: &[Self::Expr],
        scratch: &mut Self::Scratch,
    ) -> Vec<Self::Expr>;
    /// Adds a variable over `[lo, hi]`.
    fn add_var(&mut self, lo: f64, hi: f64) -> Self::Var;
    /// Adds the row `target (sense) slope·expr + intercept`, unless its
    /// right side is constant ([`is_bound`]): then the row is only the
    /// bound it puts on `target`.
    fn add_row(
        &mut self,
        target: Self::Var,
        sense: Sense,
        slope: f64,
        intercept: f64,
        expr: &Self::Expr,
    );
}

impl RowSink for LpProblem {
    type Var = VarId;
    type Expr = Expr;
    type Scratch = Accumulator;

    fn input(e: &Expr) -> Expr {
        e.clone()
    }

    fn var(v: VarId) -> Expr {
        Expr::var(v)
    }

    fn link(a: VarId, b: VarId) -> Expr {
        Expr::var(a).plus_var(-1.0, b)
    }

    fn is_constant(e: &Expr) -> bool {
        e.is_constant()
    }

    fn affine(
        weight: &Matrix,
        bias: Option<&[f64]>,
        prev: &[Expr],
        acc: &mut Accumulator,
    ) -> Vec<Expr> {
        compose_affine(weight, bias, prev, acc)
    }

    fn add_var(&mut self, lo: f64, hi: f64) -> VarId {
        LpProblem::add_var(self, lo, hi)
    }

    /// Writes the row as `target − slope·expr.terms (sense)
    /// slope·expr.constant + intercept`, or a constant right side as the
    /// bound it puts on `target`.
    fn add_row(&mut self, target: VarId, sense: Sense, slope: f64, intercept: f64, expr: &Expr) {
        let constant = intercept + slope * expr.constant;
        if is_bound::<Self>(slope, expr) {
            let (lo, hi) = match sense {
                Sense::Le => (f64::NEG_INFINITY, constant),
                Sense::Ge => (constant, f64::INFINITY),
                Sense::Eq => (constant, constant),
            };
            self.tighten_bounds(target, lo, hi);
            return;
        }
        // `target` is always a variable created after every one `expr`
        // uses, so it never cancels and the row's terms arrive sorted.
        debug_assert!(
            expr.terms.last().is_none_or(|&(v, _)| v < target),
            "row target must be newer than every variable of its expression"
        );
        // `LinExpr` drops the coefficients that round to zero.
        let lin: LinExpr = expr
            .terms
            .iter()
            .map(|&(v, c)| (v, -(slope * c)))
            .chain(iter::once((target, 1.0)))
            .collect();
        // Moving the constant across gives `−(0 − c)`: a zero constant
        // keeps the `-0` right-hand side that the LP text prints.
        self.add_constraint(lin, sense, -(0.0 - constant));
    }
}

/// Whether the row `target (sense) slope·expr + intercept` has a constant
/// right side and so only bounds `target`. Both sinks ask this one
/// question: the LP writes such a row into `target`'s bounds, and the row
/// count skips it.
fn is_bound<S: RowSink>(slope: f64, expr: &S::Expr) -> bool {
    slope == 0.0 || S::is_constant(expr)
}

/// The rows and variables an encoding adds, counted without composing any
/// expression: each expression is reduced to whether it has variable terms.
///
/// The count equals what [`encode`] adds whenever a composed row cannot
/// cancel to no terms. That holds for every layer after the first, whose
/// inputs are distinct variables, and for a first layer whose pair input
/// differences are constants, as in every shared-perturbation (UAP) batch,
/// where `d` cancels.
#[derive(Debug)]
pub(crate) struct RowCount {
    /// Rows counted so far.
    pub(crate) rows: usize,
    /// Variables counted so far.
    pub(crate) vars: usize,
}

impl RowCount {
    /// Starts from the rows and variables already in `lp`.
    pub(crate) fn after(lp: &LpProblem) -> Self {
        Self {
            rows: lp.num_constraints(),
            vars: lp.num_vars(),
        }
    }
}

impl RowSink for RowCount {
    type Var = ();
    /// Whether the expression has variable terms.
    type Expr = bool;
    type Scratch = ();

    fn input(e: &Expr) -> bool {
        !e.is_constant()
    }

    fn var((): ()) -> bool {
        true
    }

    fn link((): (), (): ()) -> bool {
        true
    }

    fn is_constant(e: &bool) -> bool {
        !e
    }

    fn affine(weight: &Matrix, _bias: Option<&[f64]>, prev: &[bool], (): &mut ()) -> Vec<bool> {
        (0..weight.rows())
            .map(|i| {
                weight
                    .row(i)
                    .iter()
                    .zip(prev)
                    .any(|(&w, &terms)| terms && w != 0.0)
            })
            .collect()
    }

    fn add_var(&mut self, _lo: f64, _hi: f64) {
        self.vars += 1;
    }

    fn add_row(&mut self, (): (), _: Sense, slope: f64, _: f64, expr: &bool) {
        if !is_bound::<Self>(slope, expr) {
            self.rows += 1;
        }
    }
}

/// Per-execution variable map produced by the encoder.
#[derive(Debug, Clone)]
pub struct ExecVars<V = VarId> {
    /// One variable per neuron per activation layer (post-activation).
    pub hidden: Vec<Vec<V>>,
    /// Output logit variables.
    pub outputs: Vec<V>,
}

/// Per-pair variable map (difference variables).
#[derive(Debug, Clone)]
pub struct PairVars<V = VarId> {
    /// The tracked executions `(a, b)`.
    pub execs: (usize, usize),
    /// Difference variables per activation layer.
    pub hidden: Vec<Vec<V>>,
    /// Output difference variables.
    pub outputs: Vec<V>,
}

/// The assembled relational encoding. `V` is the variable handle; [`encode`]
/// returns [`VarId`]s.
#[derive(Debug, Clone)]
pub struct Encoding<V = VarId> {
    /// Per-execution variables, in input order.
    pub execs: Vec<ExecVars<V>>,
    /// Per-pair difference variables (empty without difference tracking).
    pub pairs: Vec<PairVars<V>>,
}

/// Encodes `k` executions of `plan` (given their per-execution DeepPoly
/// analyses and input expressions over already-created base variables)
/// plus optional DiffPoly-tracked pairs into `problem`.
///
/// # Panics
///
/// Panics when the plan does not alternate affine/activation steps starting
/// and ending with an affine step, or when analysis shapes disagree.
pub fn encode(
    problem: &mut LpProblem,
    plan: &AnalysisPlan,
    input_exprs: &[Vec<Expr>],
    deeppoly: &[&DeepPolyAnalysis],
    diff_pairs: &[(usize, usize, &DiffPolyAnalysis)],
) -> Encoding {
    encode_into(problem, plan, input_exprs, deeppoly, diff_pairs)
}

/// [`encode`] into any [`RowSink`].
pub(crate) fn encode_into<S: RowSink>(
    sink: &mut S,
    plan: &AnalysisPlan,
    input_exprs: &[Vec<Expr>],
    deeppoly: &[&DeepPolyAnalysis],
    diff_pairs: &[(usize, usize, &DiffPolyAnalysis)],
) -> Encoding<S::Var> {
    let steps = plan.steps();
    assert!(
        matches!(steps.first(), Some(PlanStep::Affine { .. })),
        "encoder expects the plan to start with an affine step"
    );
    assert!(
        matches!(steps.last(), Some(PlanStep::Affine { .. })),
        "encoder expects the plan to end with an affine step"
    );
    assert_eq!(input_exprs.len(), deeppoly.len(), "exec count mismatch");
    let mut scratch = S::Scratch::default();
    let k = input_exprs.len();
    let mut execs = Vec::with_capacity(k);
    for e in 0..k {
        execs.push(encode_exec(
            sink,
            plan,
            &mut scratch,
            &input_exprs[e],
            deeppoly[e],
        ));
    }
    let mut pairs = Vec::with_capacity(diff_pairs.len());
    for &(a, b, diff) in diff_pairs {
        assert!(a < k && b < k, "pair indices out of range");
        pairs.push(encode_pair(
            sink,
            plan,
            &mut scratch,
            a,
            b,
            &input_exprs[a],
            &input_exprs[b],
            &execs[a],
            &execs[b],
            diff,
        ));
    }
    Encoding { execs, pairs }
}

/// `weight · prev + bias`, one expression per output row. Each variable's
/// coefficient sums its contributions over `prev` in ascending index,
/// starting from `0.0`; the constant starts from the bias (or `0.0`).
fn compose_affine(
    weight: &Matrix,
    bias: Option<&[f64]>,
    prev: &[Expr],
    acc: &mut Accumulator,
) -> Vec<Expr> {
    acc.fit(prev);
    (0..weight.rows())
        .map(|i| {
            let mut constant = bias.map_or(0.0, |b| b[i]);
            for (j, &w) in weight.row(i).iter().enumerate() {
                if w != 0.0 {
                    let p = &prev[j];
                    constant += w * p.constant;
                    for &(v, c) in &p.terms {
                        acc.add(v, w * c);
                    }
                }
            }
            Expr {
                terms: acc.take_terms(),
                constant,
            }
        })
        .collect()
}

fn safe_bounds(iv: &Interval) -> (f64, f64) {
    // Guard against floating-point inversion.
    let lo = iv.lo().min(iv.hi());
    let hi = iv.hi().max(iv.lo());
    (lo, hi)
}

fn encode_exec<S: RowSink>(
    sink: &mut S,
    plan: &AnalysisPlan,
    scratch: &mut S::Scratch,
    input_exprs: &[Expr],
    dp: &DeepPolyAnalysis,
) -> ExecVars<S::Var> {
    let mut prev: Vec<S::Expr> = input_exprs.iter().map(S::input).collect();
    let mut hidden: Vec<Vec<S::Var>> = Vec::new();
    for (s, step) in plan.steps().iter().enumerate() {
        match step {
            PlanStep::Affine { weight, bias } => {
                prev = S::affine(weight, Some(bias), &prev, scratch);
            }
            PlanStep::Act(kind) => {
                let pre_bounds = &dp.bounds[s];
                let post_bounds = &dp.bounds[s + 1];
                let mut layer_vars = Vec::with_capacity(prev.len());
                for (n, pre_expr) in prev.iter().enumerate() {
                    let (plo, phi) = safe_bounds(&pre_bounds[n]);
                    let (hlo, hhi) = safe_bounds(&post_bounds[n]);
                    let h = sink.add_var(hlo, hhi);
                    encode_activation(sink, *kind, h, pre_expr, plo, phi);
                    layer_vars.push(h);
                }
                prev = layer_vars.iter().map(|&h| S::var(h)).collect();
                hidden.push(layer_vars);
            }
        }
    }
    // Output variables with equality links to the final affine expressions.
    let out_bounds = dp.output();
    let mut outputs = Vec::with_capacity(prev.len());
    for (n, expr) in prev.iter().enumerate() {
        let (lo, hi) = safe_bounds(&out_bounds[n]);
        let o = sink.add_var(lo, hi);
        sink.add_row(o, Sense::Eq, 1.0, 0.0, expr);
        outputs.push(o);
    }
    ExecVars { hidden, outputs }
}

fn encode_activation<S: RowSink>(
    sink: &mut S,
    kind: ActKind,
    h: S::Var,
    pre: &S::Expr,
    plo: f64,
    phi: f64,
) {
    match kind {
        ActKind::Relu => {
            if plo >= 0.0 {
                // Stable active: h = pre.
                sink.add_row(h, Sense::Eq, 1.0, 0.0, pre);
            } else if phi <= 0.0 {
                // Stable inactive: bounds already pin h to [0, 0].
            } else {
                // Unstable: h ≥ pre, h ≥ 0 (bound), h ≤ λ·pre + μ.
                sink.add_row(h, Sense::Ge, 1.0, 0.0, pre);
                let r = relax_activation(kind, plo, phi);
                sink.add_row(h, Sense::Le, r.upper_slope, r.upper_intercept, pre);
            }
        }
        ActKind::Sigmoid | ActKind::Tanh | ActKind::LeakyRelu | ActKind::HardTanh => {
            // Generic two-line relaxation; `relax_activation` degenerates to
            // an exact equality pair on stable segments, so a single Eq row
            // suffices there.
            let r = relax_activation(kind, plo, phi);
            let exact = r.lower_slope == r.upper_slope && r.lower_intercept == r.upper_intercept;
            if exact {
                sink.add_row(h, Sense::Eq, r.lower_slope, r.lower_intercept, pre);
            } else {
                sink.add_row(h, Sense::Ge, r.lower_slope, r.lower_intercept, pre);
                sink.add_row(h, Sense::Le, r.upper_slope, r.upper_intercept, pre);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_pair<S: RowSink>(
    sink: &mut S,
    plan: &AnalysisPlan,
    scratch: &mut S::Scratch,
    a: usize,
    b: usize,
    input_a: &[Expr],
    input_b: &[Expr],
    exec_a: &ExecVars<S::Var>,
    exec_b: &ExecVars<S::Var>,
    diff: &DiffPolyAnalysis,
) -> PairVars<S::Var> {
    // Input difference expressions (often pure constants for UAP).
    let mut prev: Vec<S::Expr> = input_a
        .iter()
        .zip(input_b)
        .map(|(ea, eb)| {
            let mut e = ea.clone();
            e.add_scaled(-1.0, eb);
            S::input(&e)
        })
        .collect();
    let mut hidden: Vec<Vec<S::Var>> = Vec::new();
    let mut act_layer = 0usize;
    for (s, step) in plan.steps().iter().enumerate() {
        match step {
            PlanStep::Affine { weight, .. } => {
                // Bias cancels in the difference.
                prev = S::affine(weight, None, &prev, scratch);
            }
            PlanStep::Act(_) => {
                let relax = diff.relaxations[s]
                    .as_ref()
                    .expect("diffpoly records activation relaxations");
                let post = &diff.bounds[s + 1];
                let mut layer_vars = Vec::with_capacity(prev.len());
                for (n, dpre) in prev.iter().enumerate() {
                    let (lo, hi) = safe_bounds(&post[n]);
                    let dv = sink.add_var(lo, hi);
                    // Linking equality Δ = h_a − h_b.
                    let link = S::link(exec_a.hidden[act_layer][n], exec_b.hidden[act_layer][n]);
                    sink.add_row(dv, Sense::Eq, 1.0, 0.0, &link);
                    // δ-space cross-execution lines.
                    let r = &relax[n];
                    let same_line =
                        r.lower_slope == r.upper_slope && r.lower_intercept == r.upper_intercept;
                    if same_line {
                        sink.add_row(dv, Sense::Eq, r.lower_slope, r.lower_intercept, dpre);
                    } else {
                        sink.add_row(dv, Sense::Ge, r.lower_slope, r.lower_intercept, dpre);
                        sink.add_row(dv, Sense::Le, r.upper_slope, r.upper_intercept, dpre);
                    }
                    layer_vars.push(dv);
                }
                prev = layer_vars.iter().map(|&dv| S::var(dv)).collect();
                hidden.push(layer_vars);
                act_layer += 1;
            }
        }
    }
    // Output difference variables: tied both to the symbolic difference
    // expression and to the per-execution output variables.
    let out_bounds = diff.output();
    let mut outputs = Vec::with_capacity(prev.len());
    for (n, expr) in prev.iter().enumerate() {
        let (lo, hi) = safe_bounds(&out_bounds[n]);
        let dv = sink.add_var(lo, hi);
        sink.add_row(dv, Sense::Eq, 1.0, 0.0, expr);
        let link = S::link(exec_a.outputs[n], exec_b.outputs[n]);
        sink.add_row(dv, Sense::Eq, 1.0, 0.0, &link);
        outputs.push(dv);
    }
    PairVars {
        execs: (a, b),
        hidden,
        outputs,
    }
}

/// The number of variables in each row of `lp`, read off its LP text.
#[cfg(test)]
pub(crate) fn row_widths(lp: &LpProblem) -> Vec<usize> {
    let text = raven_lp::to_lp_format(lp);
    let rows = text
        .split("Subject To\n")
        .nth(1)
        .and_then(|t| t.split("Bounds\n").next())
        .expect("LP text has a constraint section");
    rows.lines()
        .map(|row| {
            row.split_whitespace()
                .filter(|t| {
                    t.strip_prefix('x')
                        .is_some_and(|i| i.parse::<usize>().is_ok())
                })
                .count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairStrategy;
    use raven_interval::linf_ball;
    use raven_lp::Direction;
    use raven_nn::NetworkBuilder;
    use raven_tensor::Rng;

    fn setup(kind: ActKind) -> (AnalysisPlan, raven_nn::Network, Vec<Vec<f64>>, f64) {
        let net = NetworkBuilder::new(3)
            .dense(6, 41)
            .activation(kind)
            .dense(4, 42)
            .activation(kind)
            .dense(2, 43)
            .build();
        let plan = net.to_plan();
        let centers = vec![vec![0.4, 0.5, 0.6], vec![0.55, 0.45, 0.5]];
        (plan, net, centers, 0.04)
    }

    /// The analyses of a UAP-style encoding: an LP holding the shared
    /// perturbation variables, one input expression `z + d` per center,
    /// DeepPoly per execution and DiffPoly per pair in `pairs`.
    #[allow(clippy::type_complexity)]
    fn uap_analyses(
        plan: &AnalysisPlan,
        centers: &[Vec<f64>],
        eps: f64,
        pairs: &[(usize, usize)],
    ) -> (
        LpProblem,
        Vec<Vec<Expr>>,
        Vec<DeepPolyAnalysis>,
        Vec<(usize, usize, DiffPolyAnalysis)>,
    ) {
        let mut problem = LpProblem::new();
        let d_vars: Vec<VarId> = (0..plan.input_dim())
            .map(|_| problem.add_var(-eps, eps))
            .collect();
        let input_exprs: Vec<Vec<Expr>> = centers
            .iter()
            .map(|z| {
                z.iter()
                    .zip(&d_vars)
                    .map(|(&zj, &dj)| Expr::constant(zj).plus_var(1.0, dj))
                    .collect()
            })
            .collect();
        let dps: Vec<DeepPolyAnalysis> = centers
            .iter()
            .map(|z| {
                DeepPolyAnalysis::run(plan, &linf_ball(z, eps, f64::NEG_INFINITY, f64::INFINITY))
            })
            .collect();
        let diffs = pairs
            .iter()
            .map(|&(a, b)| {
                let delta: Vec<Interval> = centers[a]
                    .iter()
                    .zip(&centers[b])
                    .map(|(&za, &zb)| Interval::point(za - zb))
                    .collect();
                (a, b, DiffPolyAnalysis::run(plan, &dps[a], &dps[b], &delta))
            })
            .collect();
        (problem, input_exprs, dps, diffs)
    }

    /// Builds the UAP-style encoding: shared perturbation variables plus one
    /// execution per center.
    fn build_uap_encoding(
        plan: &AnalysisPlan,
        centers: &[Vec<f64>],
        eps: f64,
        with_pairs: bool,
    ) -> (LpProblem, Encoding, Vec<DeepPolyAnalysis>) {
        let pairs: &[(usize, usize)] = if with_pairs { &[(0, 1)] } else { &[] };
        let (mut problem, input_exprs, dps, diffs) = uap_analyses(plan, centers, eps, pairs);
        let dp_refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
        let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
            diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
        let encoding = encode(&mut problem, plan, &input_exprs, &dp_refs, &pair_refs);
        (problem, encoding, dps)
    }

    /// The analyses of a monotonicity-style encoding: input variables `x`
    /// over the ℓ∞ ball around `center` and a shift `t ∈ [0, tau]`, with
    /// execution 0 at `x` and execution 1 at `x + t·e_0`, and DiffPoly on
    /// the pair `(1, 0)`. Unlike a UAP pair, its input difference `t·e_0`
    /// has a variable term.
    #[allow(clippy::type_complexity)]
    fn shift_analyses(
        plan: &AnalysisPlan,
        center: &[f64],
        eps: f64,
        tau: f64,
    ) -> (
        LpProblem,
        Vec<Vec<Expr>>,
        Vec<DeepPolyAnalysis>,
        Vec<(usize, usize, DiffPolyAnalysis)>,
    ) {
        let mut problem = LpProblem::new();
        let ball = linf_ball(center, eps, f64::NEG_INFINITY, f64::INFINITY);
        let x: Vec<VarId> = ball
            .iter()
            .map(|iv| problem.add_var(iv.lo(), iv.hi()))
            .collect();
        let t = problem.add_var(0.0, tau);
        let base: Vec<Expr> = x.iter().map(|&v| Expr::var(v)).collect();
        let mut shifted = base.clone();
        shifted[0] = Expr::var(x[0]).plus_var(1.0, t);
        let mut shifted_box = ball.clone();
        shifted_box[0] = Interval::new(ball[0].lo(), ball[0].hi() + tau);
        let dps = vec![
            DeepPolyAnalysis::run(plan, &ball),
            DeepPolyAnalysis::run(plan, &shifted_box),
        ];
        let delta: Vec<Interval> = (0..center.len())
            .map(|j| {
                if j == 0 {
                    Interval::new(0.0, tau)
                } else {
                    Interval::point(0.0)
                }
            })
            .collect();
        let diffs = vec![(1, 0, DiffPolyAnalysis::run(plan, &dps[1], &dps[0], &delta))];
        (problem, vec![base, shifted], dps, diffs)
    }

    /// `(rows, vars)` of an encoding as [`encode`] builds it and as
    /// [`RowCount`] counts it, on the same analyses; panics when a built
    /// row has no variable besides its target.
    #[allow(clippy::type_complexity)]
    fn built_and_counted(
        plan: &AnalysisPlan,
        (mut problem, input_exprs, dps, diffs): (
            LpProblem,
            Vec<Vec<Expr>>,
            Vec<DeepPolyAnalysis>,
            Vec<(usize, usize, DiffPolyAnalysis)>,
        ),
    ) -> ((usize, usize), (usize, usize)) {
        let dp_refs: Vec<&DeepPolyAnalysis> = dps.iter().collect();
        let pair_refs: Vec<(usize, usize, &DiffPolyAnalysis)> =
            diffs.iter().map(|(a, b, d)| (*a, *b, d)).collect();
        let mut count = RowCount::after(&problem);
        encode_into(&mut count, plan, &input_exprs, &dp_refs, &pair_refs);
        encode(&mut problem, plan, &input_exprs, &dp_refs, &pair_refs);
        assert!(
            row_widths(&problem).iter().all(|&w| w >= 2),
            "a constant row was written as a row"
        );
        (
            (problem.num_constraints(), problem.num_vars()),
            (count.rows, count.vars),
        )
    }

    /// A random fully connected `kind` network: one to three activation
    /// layers of width 1–7 over a 2–5-dimensional input, 2–4 logits.
    fn random_fc(kind: ActKind, rng: &mut Rng) -> raven_nn::Network {
        let mut b = NetworkBuilder::new(2 + rng.below(4));
        for _ in 0..1 + rng.below(3) {
            b = b.dense(1 + rng.below(7), rng.next_u64()).activation(kind);
        }
        b.dense(2 + rng.below(3), rng.next_u64()).build()
    }

    /// A 1×4×4 image through a 2-channel 3×3 convolution, then a dense
    /// `kind` layer: lowered convolutions carry structural zero weights.
    fn conv_net(kind: ActKind, seed: u64) -> raven_nn::Network {
        NetworkBuilder::new(16)
            .conv(1, 4, 4, 2, 3, 3, 1, 1, seed)
            .activation(ActKind::Relu)
            .dense(5, seed + 1)
            .activation(kind)
            .dense(3, seed + 2)
            .build()
    }

    /// A second layer with all-zero weight rows: their pre-activation
    /// differences stay constant past the first layer, so a pair drops
    /// (negative bias, both inactive) or keeps (positive bias) the
    /// same-line row on a row without variable terms.
    fn zero_row_net(kind: ActKind, seed: u64) -> raven_nn::Network {
        NetworkBuilder::new(3)
            .dense(4, seed)
            .activation(kind)
            .dense_from(
                &[
                    &[0.0; 4],
                    &[0.5, -0.3, 0.2, 0.1],
                    &[0.0; 4],
                    &[-0.4, 0.6, 0.0, 0.3],
                ],
                &[-0.2, 0.1, 0.3, 0.0],
            )
            .activation(kind)
            .dense(2, seed + 1)
            .build()
    }

    #[test]
    fn counted_rows_equal_built_rows() {
        let mut rng = Rng::new(20);
        let strategies = [
            PairStrategy::None,
            PairStrategy::Consecutive,
            PairStrategy::AllPairs,
        ];
        for case in 0..90 {
            let kind = ActKind::all()[case % 5];
            let net = match case % 9 {
                0 => conv_net(kind, rng.next_u64()),
                1 => zero_row_net(kind, rng.next_u64()),
                _ => random_fc(kind, &mut rng),
            };
            let plan = net.to_plan();
            let k = 2 + rng.below(3);
            let centers: Vec<Vec<f64>> = (0..k)
                .map(|_| {
                    (0..plan.input_dim())
                        .map(|_| rng.in_range(0.0, 1.0))
                        .collect()
                })
                .collect();
            // A point (exact single lines), tiny, moderate and wide radii.
            let eps = [0.0, 1e-3, rng.in_range(0.0, 0.3), 0.8][case % 4];
            for strategy in strategies {
                let pairs = strategy.pairs(k);
                let analyses = uap_analyses(&plan, &centers, eps, &pairs);
                let (built, counted) = built_and_counted(&plan, analyses);
                assert_eq!(
                    counted,
                    built,
                    "case {case}: {kind}, k={k}, eps={eps}, pairs {}",
                    strategy.name()
                );
            }
            // A shifted pair, whose input difference is not a constant.
            let tau = [0.0, 0.05, 0.3][case % 3];
            let analyses = shift_analyses(&plan, &centers[0], eps, tau);
            let (built, counted) = built_and_counted(&plan, analyses);
            assert_eq!(
                counted, built,
                "case {case}: {kind}, eps={eps}, shift {tau}"
            );
        }
    }

    #[test]
    fn a_constant_row_an_ulp_outside_the_bounds_keeps_the_hull() {
        // Bounds as DiffPoly would give them, and constant rows whose
        // folded value rounding put an ulp outside: no row, no panic, and
        // the variable keeps the hull of the two facing bounds.
        let has_bounds = |lp: &LpProblem, name: &str, (lo, hi): (f64, f64)| {
            raven_lp::to_lp_format(lp).contains(&format!(" {lo} <= {name} <= {hi}\n"))
        };
        let above = 1.0 + f64::EPSILON;
        let below = -f64::from_bits(1);
        for (sense, value, hull) in [
            (Sense::Eq, above, (1.0, above)),
            (Sense::Ge, above, (1.0, above)),
            (Sense::Le, below, (below, 0.0)),
            (Sense::Eq, below, (below, 0.0)),
        ] {
            let mut lp = LpProblem::new();
            let v = lp.add_var(0.0, 1.0);
            RowSink::add_row(&mut lp, v, sense, 1.0, 0.0, &Expr::constant(value));
            assert_eq!(lp.num_constraints(), 0, "{sense:?} {value}");
            assert!(has_bounds(&lp, "x0", hull), "{sense:?} {value}");
            let mut count = RowCount::after(&LpProblem::new());
            count.add_row((), sense, 1.0, 0.0, &false);
            assert_eq!(count.rows, 0, "{sense:?} {value}");
        }
        // Inside the bounds, the fold is a plain intersection; a zero
        // slope makes any expression constant.
        let mut lp = LpProblem::new();
        let v = lp.add_var(-1.0, 1.0);
        let w = lp.add_var(-1.0, 1.0);
        RowSink::add_row(&mut lp, w, Sense::Ge, 0.0, 0.25, &Expr::var(v));
        RowSink::add_row(&mut lp, w, Sense::Le, 1.0, 0.0, &Expr::constant(0.5));
        assert_eq!(lp.num_constraints(), 0);
        assert!(has_bounds(&lp, "x1", (0.25, 0.5)));
    }

    #[test]
    fn expr_arithmetic() {
        let mut p = LpProblem::new();
        let v = p.add_var(0.0, 1.0);
        let w = p.add_var(0.0, 1.0);
        let mut e = Expr::constant(1.0).plus_var(2.0, v);
        e.add_scaled(3.0, &Expr::var(w).plus_var(1.0, v));
        assert_eq!(e.eval(&[0.5, 0.25]), 1.0 + 2.0 * 0.5 + 3.0 * (0.25 + 0.5));
        assert!(!e.is_constant());
        assert!(Expr::constant(2.0).is_constant());
    }

    #[test]
    fn encoding_admits_concrete_executions() {
        for kind in [ActKind::Relu, ActKind::Sigmoid] {
            let (plan, net, centers, eps) = setup(kind);
            let (problem, encoding, _) = build_uap_encoding(&plan, &centers, eps, true);
            // Assemble the LP point corresponding to a concrete shared
            // perturbation and check every constraint holds.
            for s in 0..5 {
                let shift: Vec<f64> = (0..3)
                    .map(|i| eps * ((((s * 7 + i * 3) % 11) as f64 / 5.0) - 1.0))
                    .collect();
                let mut x = vec![0.0; problem.num_vars()];
                for (i, &sh) in shift.iter().enumerate() {
                    x[i] = sh;
                }
                let mut traces = Vec::new();
                for (e, z) in centers.iter().enumerate() {
                    let input: Vec<f64> = z.iter().zip(&shift).map(|(&a, &b)| a + b).collect();
                    let trace = plan_trace(&net, &input);
                    for (l, layer_vars) in encoding.execs[e].hidden.iter().enumerate() {
                        for (n, var) in layer_vars.iter().enumerate() {
                            x[var.index()] = trace.0[l][n];
                        }
                    }
                    for (n, var) in encoding.execs[e].outputs.iter().enumerate() {
                        x[var.index()] = trace.1[n];
                    }
                    traces.push(trace);
                }
                for pair in &encoding.pairs {
                    let (a, b) = pair.execs;
                    for (l, layer_vars) in pair.hidden.iter().enumerate() {
                        for (n, var) in layer_vars.iter().enumerate() {
                            x[var.index()] = traces[a].0[l][n] - traces[b].0[l][n];
                        }
                    }
                    for (n, var) in pair.outputs.iter().enumerate() {
                        x[var.index()] = traces[a].1[n] - traces[b].1[n];
                    }
                }
                assert!(
                    problem.is_feasible(&x, 1e-6),
                    "{kind}: concrete execution violates the encoding (shift {s})"
                );
            }
        }
    }

    /// Runs the plan collecting post-activation values per activation layer
    /// and the outputs.
    fn plan_trace(net: &raven_nn::Network, x: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let plan = net.to_plan();
        let mut cur = x.to_vec();
        let mut hidden = Vec::new();
        for step in plan.steps() {
            match step {
                PlanStep::Affine { weight, bias } => {
                    let mut y = weight.matvec(&cur);
                    for (yi, bi) in y.iter_mut().zip(bias) {
                        *yi += bi;
                    }
                    cur = y;
                }
                PlanStep::Act(k) => {
                    cur = cur.iter().map(|&v| k.eval(v)).collect();
                    hidden.push(cur.clone());
                }
            }
        }
        (hidden, cur)
    }

    #[test]
    fn relational_lp_is_tighter_than_io_lp_on_output_difference() {
        let (plan, _net, centers, eps) = setup(ActKind::Relu);
        // Maximize o0_exec0 − o0_exec1 with and without difference tracking.
        let bound = |with_pairs: bool| {
            let (mut problem, encoding, _) = build_uap_encoding(&plan, &centers, eps, with_pairs);
            let obj = LinExpr::new()
                .term(1.0, encoding.execs[0].outputs[0])
                .term(-1.0, encoding.execs[1].outputs[0]);
            problem.set_objective(Direction::Maximize, obj);
            problem.solve().expect("lp solves").objective
        };
        let io = bound(false);
        let raven = bound(true);
        assert!(
            raven <= io + 1e-7,
            "difference tracking should not loosen: {raven} vs {io}"
        );
    }
}
