//! The DeepPoly analysis: per-neuron symbolic linear bounds with
//! back-substitution to the input box.

use crate::relax::{relax_activation, Relaxation};
use raven_interval::Interval;
use raven_nn::{ActKind, AnalysisPlan, PlanStep};
use raven_tensor::Matrix;

/// Result of a DeepPoly run over an [`AnalysisPlan`].
///
/// `bounds[k]` holds concrete interval bounds for the tensor at plan
/// boundary `k` (`bounds[0]` is the input box). For activation steps the
/// relaxations used are recoverable via
/// [`relax_activation`] from the *pre*-activation bounds, which is how the
/// LP encoder in `raven` reconstructs the same constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepPolyAnalysis {
    /// Concrete bounds at every plan boundary.
    pub bounds: Vec<Vec<Interval>>,
    /// Activation relaxations per plan step (`None` for affine steps),
    /// reusable by the LP encoder and by [`DeepPolyAnalysis::input_bounds`].
    pub relaxations: Vec<Option<Vec<Relaxation>>>,
}

/// Symbolic affine bounds of a tensor directly over the *input* variables:
/// `lower_coeffs·x + lower_const ≤ t ≤ upper_coeffs·x + upper_const` for
/// every `x` in the analyzed input box.
#[derive(Debug, Clone, PartialEq)]
pub struct InputBounds {
    /// Coefficients of the lower bounds (`neurons x input_dim`).
    pub lower_coeffs: Matrix,
    /// Constants of the lower bounds.
    pub lower_const: Vec<f64>,
    /// Coefficients of the upper bounds.
    pub upper_coeffs: Matrix,
    /// Constants of the upper bounds.
    pub upper_const: Vec<f64>,
}

/// Symbolic affine expressions over a given plan boundary:
/// `rows(coeffs) = tracked neurons`, plus a constant per neuron.
#[derive(Debug, Clone)]
struct SymBounds {
    lower_coeffs: Matrix,
    lower_const: Vec<f64>,
    upper_coeffs: Matrix,
    upper_const: Vec<f64>,
}

impl DeepPolyAnalysis {
    /// Runs DeepPoly over `plan` starting from the input box.
    ///
    /// # Panics
    ///
    /// Panics when `input.len() != plan.input_dim()` or any input interval
    /// is empty/unbounded.
    pub fn run(plan: &AnalysisPlan, input: &[Interval]) -> Self {
        assert_eq!(
            input.len(),
            plan.input_dim(),
            "deeppoly: input width mismatch"
        );
        for iv in input {
            assert!(
                !iv.is_empty() && iv.lo().is_finite() && iv.hi().is_finite(),
                "deeppoly: input intervals must be finite and non-empty"
            );
        }
        let mut bounds: Vec<Vec<Interval>> = Vec::with_capacity(plan.steps().len() + 1);
        bounds.push(input.to_vec());
        // Per-step relaxation metadata for activation steps (indexed by step).
        let mut act_relax: Vec<Option<Vec<Relaxation>>> = Vec::with_capacity(plan.steps().len());
        for (k, step) in plan.steps().iter().enumerate() {
            let _layer_timer = raven_obs::Timer::start(&crate::metrics::LAYER_SECONDS);
            match step {
                PlanStep::Affine { weight, bias } => {
                    let (_, concrete) = affine_bounds(plan, &bounds, &act_relax, k, weight, bias);
                    bounds.push(concrete);
                    act_relax.push(None);
                }
                PlanStep::Act(kind) => {
                    let pre = &bounds[k];
                    let relaxations: Vec<Relaxation> = pre
                        .iter()
                        .map(|iv| relax_activation(*kind, iv.lo(), iv.hi()))
                        .collect();
                    crate::metrics::observe_relaxations(*kind, pre, &relaxations);
                    let post: Vec<Interval> = pre
                        .iter()
                        .map(|iv| iv.map_monotone(|x| kind.eval(x)))
                        .collect();
                    bounds.push(post);
                    act_relax.push(Some(relaxations));
                }
            }
        }
        Self {
            bounds,
            relaxations: act_relax,
        }
    }

    /// Flat per-neuron relaxation records across every activation step:
    /// `(kind, pre-activation lo, pre-activation hi, relaxation)` in plan
    /// order. This is the raw material for analysis-tier certificates — an
    /// exact checker can replay each piecewise-linear relaxation against
    /// its pre-activation interval without rerunning the analysis.
    ///
    /// # Panics
    ///
    /// Panics when the analysis was produced from a different plan.
    pub fn relaxation_records(&self, plan: &AnalysisPlan) -> Vec<(ActKind, f64, f64, Relaxation)> {
        self.assert_matches(plan);
        let mut records = Vec::new();
        for (k, step) in plan.steps().iter().enumerate() {
            if let (PlanStep::Act(kind), Some(relaxations)) = (step, &self.relaxations[k]) {
                for (iv, r) in self.bounds[k].iter().zip(relaxations) {
                    records.push((*kind, iv.lo(), iv.hi(), *r));
                }
            }
        }
        records
    }

    /// Symbolic bounds of the *output* tensor directly over the input
    /// variables — the "I/O formulation" view of the network that the
    /// paper's baseline couples with a shared perturbation.
    ///
    /// # Panics
    ///
    /// Panics when `plan` does not end with an affine step, or when the
    /// analysis was produced from a different plan.
    pub fn input_bounds(&self, plan: &AnalysisPlan) -> InputBounds {
        self.assert_matches(plan);
        let last = plan.steps().len() - 1;
        let PlanStep::Affine { weight, bias } = &plan.steps()[last] else {
            panic!("input_bounds requires the plan to end with an affine step");
        };
        affine_bounds(plan, &self.bounds, &self.relaxations, last, weight, bias).0
    }

    /// Bounds the affine map `weight · out + bias` of the output tensor
    /// over the finished analysis: its symbolic bounds over the input
    /// variables, and its concrete bounds over the input box.
    ///
    /// This is one more back-substitution, the same one [`run`] would
    /// perform for the map appended to `plan` as a final affine step, so
    /// the concrete bounds are bit for bit `run`'s output on the extended
    /// plan — box intersection included — without re-running the steps
    /// before it.
    ///
    /// [`run`]: DeepPolyAnalysis::run
    ///
    /// # Panics
    ///
    /// Panics when the analysis was produced from a different plan, or
    /// when `weight`'s shape does not fit the output width and `bias`.
    pub fn bound_output_map(
        &self,
        plan: &AnalysisPlan,
        weight: &Matrix,
        bias: &[f64],
    ) -> (InputBounds, Vec<Interval>) {
        self.assert_matches(plan);
        assert_eq!(
            weight.cols(),
            plan.output_dim(),
            "deeppoly: output map width mismatch"
        );
        assert_eq!(
            weight.rows(),
            bias.len(),
            "deeppoly: output map bias mismatch"
        );
        affine_bounds(
            plan,
            &self.bounds,
            &self.relaxations,
            plan.steps().len(),
            weight,
            bias,
        )
    }

    fn assert_matches(&self, plan: &AnalysisPlan) {
        assert_eq!(
            self.bounds.len(),
            plan.steps().len() + 1,
            "analysis does not match plan"
        );
    }

    /// Concrete bounds on the network output.
    pub fn output(&self) -> &[Interval] {
        self.bounds.last().expect("bounds non-empty")
    }

    /// Certified lower bound on the margin `out[target] - out[other]`.
    ///
    /// This is the coarse interval version; the LP encoding in `raven`
    /// produces tighter margins. Returns `-inf`-free finite values because
    /// all bounds are finite.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn margin_lower_bound(&self, target: usize, other: usize) -> f64 {
        let out = self.output();
        out[target].lo() - out[other].hi()
    }
}

impl InputBounds {
    /// Evaluates the symbolic bounds over the input box.
    pub fn concretize(&self, input: &[Interval]) -> Vec<Interval> {
        (0..self.lower_coeffs.rows())
            .map(|i| {
                let lo = eval_lower(self.lower_coeffs.row(i), self.lower_const[i], input);
                let hi = eval_upper(self.upper_coeffs.row(i), self.upper_const[i], input);
                // Guard against rounding producing inverted bounds.
                Interval::new(lo.min(hi), hi.max(lo))
            })
            .collect()
    }
}

/// Bounds the affine map `(weight, bias)` applied at plan boundary `k`
/// (the input of step `k`, or the output when `k` is the step count):
/// the symbolic bounds over the input variables, and the concrete bounds
/// over the input box `bounds[0]`, intersected with plain interval
/// propagation of `bounds[k]`. Only boundaries `0..=k` are read.
fn affine_bounds(
    plan: &AnalysisPlan,
    bounds: &[Vec<Interval>],
    act_relax: &[Option<Vec<Relaxation>>],
    k: usize,
    weight: &Matrix,
    bias: &[f64],
) -> (InputBounds, Vec<Interval>) {
    let sym = back_substitute(plan, act_relax, k, weight, bias);
    // Intersect with plain interval propagation: a single symbolic line
    // can concretize looser than the box on saturating activations, and
    // the intersection makes DeepPoly dominate the Box domain by
    // construction.
    let boxed = raven_interval::affine_image(weight, bias, &bounds[k]);
    let concrete = sym
        .concretize(&bounds[0])
        .iter()
        .zip(&boxed)
        .map(|(a, b)| {
            let t = a.intersect(b);
            if t.is_empty() {
                // Floating-point corner: keep the wider one.
                *b
            } else {
                t
            }
        })
        .collect();
    (sym, concrete)
}

/// Substitutes the symbolic bounds of the affine map `(weight, bias)`
/// applied at plan boundary `k` backwards to the input variables.
fn back_substitute(
    plan: &AnalysisPlan,
    act_relax: &[Option<Vec<Relaxation>>],
    k: usize,
    weight: &Matrix,
    bias: &[f64],
) -> InputBounds {
    let mut sym = SymBounds {
        lower_coeffs: weight.clone(),
        lower_const: bias.to_vec(),
        upper_coeffs: weight.clone(),
        upper_const: bias.to_vec(),
    };
    // Walk steps k-1, k-2, ..., 0; expressions currently refer to boundary t+1
    // (initially boundary k, the input of step k).
    for t in (0..k).rev() {
        match &plan.steps()[t] {
            PlanStep::Affine { weight: w, bias: b } => {
                sym.lower_const = add_vec(&sym.lower_const, &sym.lower_coeffs.matvec(b));
                sym.upper_const = add_vec(&sym.upper_const, &sym.upper_coeffs.matvec(b));
                sym.lower_coeffs = sym
                    .lower_coeffs
                    .matmul(w)
                    .expect("plan widths are validated");
                sym.upper_coeffs = sym
                    .upper_coeffs
                    .matmul(w)
                    .expect("plan widths are validated");
            }
            PlanStep::Act(_) => {
                let relaxations = act_relax[t]
                    .as_ref()
                    .expect("activation steps have recorded relaxations");
                substitute_activation(&mut sym, relaxations);
            }
        }
    }
    InputBounds {
        lower_coeffs: sym.lower_coeffs,
        lower_const: sym.lower_const,
        upper_coeffs: sym.upper_coeffs,
        upper_const: sym.upper_const,
    }
}

/// Substitutes the diagonal activation relaxation into both symbolic bound
/// sets: positive coefficients take the same-side line, negative the
/// opposite side.
fn substitute_activation(sym: &mut SymBounds, relaxations: &[Relaxation]) {
    let rows = sym.lower_coeffs.rows();
    let cols = sym.lower_coeffs.cols();
    debug_assert_eq!(cols, relaxations.len());
    for i in 0..rows {
        {
            let row = sym.lower_coeffs.row_mut(i);
            let c = &mut sym.lower_const[i];
            for (j, r) in relaxations.iter().enumerate() {
                let e = row[j];
                if e >= 0.0 {
                    row[j] = e * r.lower_slope;
                    *c += e * r.lower_intercept;
                } else {
                    row[j] = e * r.upper_slope;
                    *c += e * r.upper_intercept;
                }
            }
        }
        {
            let row = sym.upper_coeffs.row_mut(i);
            let c = &mut sym.upper_const[i];
            for (j, r) in relaxations.iter().enumerate() {
                let e = row[j];
                if e >= 0.0 {
                    row[j] = e * r.upper_slope;
                    *c += e * r.upper_intercept;
                } else {
                    row[j] = e * r.lower_slope;
                    *c += e * r.lower_intercept;
                }
            }
        }
    }
}

fn add_vec(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

fn eval_lower(coeffs: &[f64], constant: f64, input: &[Interval]) -> f64 {
    let mut v = constant;
    for (c, iv) in coeffs.iter().zip(input) {
        v += if *c >= 0.0 { c * iv.lo() } else { c * iv.hi() };
    }
    v
}

fn eval_upper(coeffs: &[f64], constant: f64, input: &[Interval]) -> f64 {
    let mut v = constant;
    for (c, iv) in coeffs.iter().zip(input) {
        v += if *c >= 0.0 { c * iv.hi() } else { c * iv.lo() };
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_interval::{linf_ball, IntervalAnalysis};
    use raven_nn::{ActKind, NetworkBuilder};

    fn sample_ball(center: &[f64], eps: f64, s: usize) -> Vec<f64> {
        center
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let t = (((i * 31 + s * 17) % 97) as f64 / 96.0) * 2.0 - 1.0;
                (c + eps * t).clamp(0.0, 1.0)
            })
            .collect()
    }

    #[test]
    fn deeppoly_is_sound_on_relu_net() {
        let net = NetworkBuilder::new(4)
            .dense(8, 1)
            .activation(ActKind::Relu)
            .dense(6, 2)
            .activation(ActKind::Relu)
            .dense(3, 3)
            .build();
        let plan = net.to_plan();
        let center = [0.4, 0.6, 0.5, 0.3];
        let ball = linf_ball(&center, 0.08, 0.0, 1.0);
        let dp = DeepPolyAnalysis::run(&plan, &ball);
        for s in 0..50 {
            let x = sample_ball(&center, 0.08, s);
            let y = net.forward(&x);
            for (iv, &v) in dp.output().iter().zip(&y) {
                assert!(
                    iv.lo() - 1e-7 <= v && v <= iv.hi() + 1e-7,
                    "output {v} outside {iv}"
                );
            }
        }
    }

    #[test]
    fn deeppoly_is_sound_on_smooth_nets() {
        for kind in [ActKind::Sigmoid, ActKind::Tanh] {
            let net = NetworkBuilder::new(3)
                .dense(6, 4)
                .activation(kind)
                .dense(4, 5)
                .activation(kind)
                .dense(2, 6)
                .build();
            let plan = net.to_plan();
            let center = [0.5, 0.5, 0.5];
            let ball = linf_ball(&center, 0.1, 0.0, 1.0);
            let dp = DeepPolyAnalysis::run(&plan, &ball);
            for s in 0..50 {
                let x = sample_ball(&center, 0.1, s);
                let y = net.forward(&x);
                for (iv, &v) in dp.output().iter().zip(&y) {
                    assert!(
                        iv.lo() - 1e-7 <= v && v <= iv.hi() + 1e-7,
                        "{kind}: output {v} outside {iv}"
                    );
                }
            }
        }
    }

    #[test]
    fn deeppoly_no_looser_than_interval_on_output() {
        let net = NetworkBuilder::new(5)
            .dense(10, 7)
            .activation(ActKind::Relu)
            .dense(8, 8)
            .activation(ActKind::Relu)
            .dense(4, 9)
            .build();
        let plan = net.to_plan();
        let ball = linf_ball(&[0.5; 5], 0.05, 0.0, 1.0);
        let dp = DeepPolyAnalysis::run(&plan, &ball);
        let iv = IntervalAnalysis::run(&plan, &ball);
        let mut strictly_tighter = false;
        for (d, i) in dp.output().iter().zip(iv.output()) {
            assert!(d.lo() >= i.lo() - 1e-7, "deeppoly lower looser than box");
            assert!(d.hi() <= i.hi() + 1e-7, "deeppoly upper looser than box");
            if d.width() < i.width() - 1e-9 {
                strictly_tighter = true;
            }
        }
        assert!(strictly_tighter, "deeppoly should beat box somewhere");
    }

    #[test]
    fn pure_affine_network_is_exact() {
        let net = NetworkBuilder::new(3).dense(4, 11).dense(2, 12).build();
        let plan = net.to_plan();
        let x = [0.2, 0.8, 0.5];
        let input: Vec<Interval> = x.iter().map(|&v| Interval::point(v)).collect();
        let dp = DeepPolyAnalysis::run(&plan, &input);
        let y = net.forward(&x);
        for (iv, &v) in dp.output().iter().zip(&y) {
            assert!((iv.lo() - v).abs() < 1e-9 && (iv.hi() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn margin_lower_bound_matches_output_bounds() {
        let net = NetworkBuilder::new(2)
            .dense(3, 20)
            .activation(ActKind::Relu)
            .dense(2, 21)
            .build();
        let plan = net.to_plan();
        let ball = linf_ball(&[0.5, 0.5], 0.02, 0.0, 1.0);
        let dp = DeepPolyAnalysis::run(&plan, &ball);
        let m = dp.margin_lower_bound(0, 1);
        assert!((m - (dp.output()[0].lo() - dp.output()[1].hi())).abs() < 1e-12);
    }
}
