// Layered ReLU-network LPs, shared by the simplex unit tests and
// `proptest_simplex.rs` through `include!`. The includer brings `Rng`,
// `Direction`, `LinExpr`, `LpProblem`, `Sense` and `VarId` into scope.

/// A row `Σ coef·x_var ⋚ rhs` as `(terms, sense, rhs)`.
type NnRow = (Vec<(usize, f64)>, Sense, f64);

/// A relational LP of the shape the verifier builds, at realistic size
/// (m ≈ 100–300): `k` executions of a random two-layer ReLU network share
/// one input perturbation `δ ∈ [−ε, ε]^d`. Each execution has dense affine
/// blocks (one equality row per neuron), triangle relaxations over interval
/// bounds (two inequality rows per unstable ReLU) and a margin; with
/// `milp`, one binary per execution flags a margin pushed to ≤ 0 through a
/// big-M row, and the objective counts the flags.
#[derive(Debug, Clone)]
struct NnLp {
    bounds: Vec<(f64, f64)>,
    integer: Vec<bool>,
    rows: Vec<NnRow>,
    objective: Vec<(usize, f64)>,
    maximize: bool,
}

impl NnLp {
    fn var(&mut self, lo: f64, hi: f64) -> usize {
        self.bounds.push((lo, hi));
        self.integer.push(false);
        self.bounds.len() - 1
    }
}

fn nn_lp(rng: &mut Rng, milp: bool) -> NnLp {
    let d = 4 + rng.below(4);
    let k = 2 + rng.below(2);
    let widths = [10 + rng.below(8), 10 + rng.below(8), 2];
    let eps = rng.in_range(0.05, 0.3);
    let layers: Vec<(Vec<Vec<f64>>, Vec<f64>)> = widths
        .iter()
        .scan(d, |fan_in, &h| {
            let scale = 2.0 / (*fan_in as f64).sqrt();
            let w = (0..h)
                .map(|_| {
                    (0..*fan_in)
                        .map(|_| scale * rng.in_range(-1.0, 1.0))
                        .collect()
                })
                .collect();
            let b = (0..h).map(|_| rng.in_range(-0.3, 0.3)).collect();
            *fan_in = h;
            Some((w, b))
        })
        .collect();
    let mut lp = NnLp {
        bounds: Vec::new(),
        integer: Vec::new(),
        rows: Vec::new(),
        objective: Vec::new(),
        maximize: milp || rng.below(2) == 0,
    };
    let delta: Vec<usize> = (0..d).map(|_| lp.var(-eps, eps)).collect();
    for _ in 0..k {
        // Inputs x = c + δ.
        let mut vals: Vec<(usize, f64, f64)> = Vec::with_capacity(d);
        for &dv in &delta {
            let c = rng.uniform();
            let x = lp.var(c - eps, c + eps);
            lp.rows.push((vec![(x, 1.0), (dv, -1.0)], Sense::Eq, c));
            vals.push((x, c - eps, c + eps));
        }
        for (li, (w, b)) in layers.iter().enumerate() {
            let last = li + 1 == layers.len();
            let mut next = Vec::with_capacity(w.len());
            for (wj, &bj) in w.iter().zip(b) {
                // Pre-activation y = W a + b over interval bounds.
                let (mut lo, mut hi) = (bj, bj);
                for (&wjk, &(_, l, u)) in wj.iter().zip(&vals) {
                    lo += (wjk * l).min(wjk * u);
                    hi += (wjk * l).max(wjk * u);
                }
                let y = lp.var(lo, hi);
                let mut row = vec![(y, 1.0)];
                row.extend(wj.iter().zip(&vals).map(|(&wjk, &(a, _, _))| (a, -wjk)));
                lp.rows.push((row, Sense::Eq, bj));
                if last {
                    next.push((y, lo, hi));
                } else if hi <= 0.0 {
                    next.push((lp.var(0.0, 0.0), 0.0, 0.0));
                } else if lo >= 0.0 {
                    let a = lp.var(lo, hi);
                    lp.rows.push((vec![(a, 1.0), (y, -1.0)], Sense::Eq, 0.0));
                    next.push((a, lo, hi));
                } else {
                    // Triangle: a ≥ 0, a ≥ y, a ≤ u (y − l) / (u − l).
                    let a = lp.var(0.0, hi);
                    let slope = hi / (hi - lo);
                    lp.rows.push((vec![(a, 1.0), (y, -1.0)], Sense::Ge, 0.0));
                    lp.rows
                        .push((vec![(a, 1.0), (y, -slope)], Sense::Le, -slope * lo));
                    next.push((a, 0.0, hi));
                }
            }
            vals = next;
        }
        // Margin of logit 0 over logit 1.
        let (o0, o1) = (vals[0], vals[1]);
        let margin = vec![(o0.0, 1.0), (o1.0, -1.0)];
        if milp {
            // z = 1 forces the margin to ≤ 0: margin + M z ≤ M.
            let big_m = (o0.2 - o1.1).max(0.0) + 1.0;
            let z = lp.var(0.0, 1.0);
            lp.integer[z] = true;
            let mut row = margin;
            row.push((z, big_m));
            lp.rows.push((row, Sense::Le, big_m));
            lp.objective.push((z, 1.0));
        } else {
            lp.objective.extend(margin);
        }
    }
    lp
}

/// Adds an ℓ1 budget on the shared perturbation, `t_i ≥ |δ_i|` and
/// `Σ t_i ≤ ε`, to `lp`. The corner every `δ` parks at on a cold start
/// spends the budget `d` times over, so no crash basis is feasible there
/// and a cold solve runs the all-slack two-phase start.
fn add_l1_budget(lp: &mut NnLp) {
    let eps = lp.bounds[0].1;
    let delta: Vec<usize> = (0..lp.bounds.len())
        .take_while(|&j| lp.bounds[j] == (-eps, eps))
        .collect();
    let mut total = Vec::new();
    for &dv in &delta {
        let t = lp.var(0.0, eps);
        lp.rows.push((vec![(dv, -1.0), (t, 1.0)], Sense::Ge, 0.0));
        lp.rows.push((vec![(dv, 1.0), (t, 1.0)], Sense::Ge, 0.0));
        total.push((t, 1.0));
    }
    lp.rows.push((total, Sense::Le, eps));
}

fn build_nn(lp: &NnLp) -> LpProblem {
    let mut p = LpProblem::new();
    let vars: Vec<VarId> = lp
        .bounds
        .iter()
        .zip(&lp.integer)
        .map(|(&(lo, hi), &int)| {
            if int {
                p.add_binary_var()
            } else {
                p.add_var(lo, hi)
            }
        })
        .collect();
    for (terms, sense, rhs) in &lp.rows {
        let row: LinExpr = terms.iter().map(|&(v, c)| (vars[v], c)).collect();
        p.add_constraint(row, *sense, *rhs);
    }
    let obj: LinExpr = lp.objective.iter().map(|&(v, c)| (vars[v], c)).collect();
    let direction = if lp.maximize {
        Direction::Maximize
    } else {
        Direction::Minimize
    };
    p.set_objective(direction, obj);
    p
}
