//! Randomized tests of the encoder's sparse affine expression
//! [`raven::encode::Expr`] against a reference model: a `BTreeMap` from
//! variable to coefficient that keeps every variable it has seen (zero or
//! not) and sums each coefficient in the order the updates arrive,
//! starting from `0.0`.
//!
//! Every observable must agree bit for bit after every operation:
//! `to_lin_expr` (the nonzero terms in variable order), `constant_part`,
//! `eval` and above all `is_constant`, which decides whether the encoder
//! emits the same-line equality row of a pair whose input difference is a
//! constant. The operation mix leans on the edge cases: duplicate
//! variables, coefficients that cancel to zero, `-0.0`, and `alpha = 0`.
//!
//! Driven by the workspace's deterministic [`Rng`] so the suite builds
//! offline and replays identically on every run.

use raven::encode::Expr;
use raven_lp::{LpProblem, VarId};
use raven_tensor::Rng;
use std::collections::BTreeMap;

const CASES: usize = 256;
const VARS: usize = 10;

/// The reference model.
#[derive(Debug, Clone, Default)]
struct Model {
    terms: BTreeMap<usize, f64>,
    constant: f64,
}

impl Model {
    fn constant(c: f64) -> Self {
        Self {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    fn var(v: usize) -> Self {
        Self {
            terms: BTreeMap::from([(v, 1.0)]),
            constant: 0.0,
        }
    }

    fn plus_var(&mut self, coeff: f64, v: usize) {
        if coeff != 0.0 {
            *self.terms.entry(v).or_insert(0.0) += coeff;
        }
    }

    fn add_scaled(&mut self, alpha: f64, other: &Model) {
        if alpha == 0.0 {
            return;
        }
        self.constant += alpha * other.constant;
        for (&v, &c) in &other.terms {
            *self.terms.entry(v).or_insert(0.0) += alpha * c;
        }
    }

    fn nonzero(&self) -> Vec<(usize, f64)> {
        self.terms
            .iter()
            .filter(|&(_, &c)| c != 0.0)
            .map(|(&v, &c)| (v, c))
            .collect()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        self.constant + self.nonzero().iter().map(|&(v, c)| c * x[v]).sum::<f64>()
    }
}

/// A coefficient drawn to hit the edge cases often: exact zeros of both
/// signs, small dyadic values that cancel exactly, and arbitrary floats.
fn coeff(rng: &mut Rng) -> f64 {
    const POOL: [f64; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -0.25];
    if rng.below(3) == 0 {
        rng.in_range(-3.0, 3.0)
    } else {
        POOL[rng.below(POOL.len())]
    }
}

/// A random expression (and its model) from a handful of builder calls.
fn random_expr(rng: &mut Rng, vars: &[VarId]) -> (Expr, Model) {
    let (mut e, mut m) = if rng.below(2) == 0 {
        let c = coeff(rng);
        (Expr::constant(c), Model::constant(c))
    } else {
        let v = rng.below(VARS);
        (Expr::var(vars[v]), Model::var(v))
    };
    for _ in 0..rng.below(5) {
        let (c, v) = (coeff(rng), rng.below(VARS));
        e = e.plus_var(c, vars[v]);
        m.plus_var(c, v);
    }
    (e, m)
}

fn assert_agrees(e: &Expr, m: &Model, x: &[f64], vars: &[VarId], ctx: &str) {
    let got: Vec<(usize, u64)> = e
        .to_lin_expr()
        .terms()
        .iter()
        .map(|&(v, c)| (v.index(), c.to_bits()))
        .collect();
    let want: Vec<(usize, u64)> = m
        .nonzero()
        .iter()
        .map(|&(v, c)| (vars[v].index(), c.to_bits()))
        .collect();
    assert_eq!(got, want, "{ctx}: to_lin_expr");
    assert_eq!(
        e.is_constant(),
        m.terms.values().all(|&c| c == 0.0),
        "{ctx}: is_constant"
    );
    assert_eq!(
        e.constant_part().to_bits(),
        m.constant.to_bits(),
        "{ctx}: constant_part"
    );
    assert_eq!(e.eval(x).to_bits(), m.eval(x).to_bits(), "{ctx}: eval");
}

#[test]
fn expr_matches_reference_model() {
    let mut lp = LpProblem::new();
    let vars: Vec<VarId> = (0..VARS).map(|_| lp.add_var(-1.0, 1.0)).collect();
    let mut rng = Rng::new(0x00e4_c0de);
    for case in 0..CASES {
        let x: Vec<f64> = (0..VARS).map(|_| rng.in_range(-1.0, 1.0)).collect();
        let (mut e, mut m) = random_expr(&mut rng, &vars);
        assert_agrees(&e, &m, &x, &vars, &format!("case {case} start"));
        for step in 0..8 {
            let ctx = format!("case {case} step {step}");
            match rng.below(4) {
                0 => {
                    let (c, v) = (coeff(&mut rng), rng.below(VARS));
                    e = e.plus_var(c, vars[v]);
                    m.plus_var(c, v);
                }
                1 => {
                    // Cancel one present variable exactly.
                    if let Some((&v, &c)) = m.terms.iter().find(|&(_, &c)| c != 0.0) {
                        e = e.plus_var(-c, vars[v]);
                        m.plus_var(-c, v);
                    }
                }
                2 => {
                    let alpha = coeff(&mut rng);
                    let (oe, om) = random_expr(&mut rng, &vars);
                    e.add_scaled(alpha, &oe);
                    m.add_scaled(alpha, &om);
                }
                _ => {
                    // Every variable at once: doubles, or cancels to zero.
                    let alpha = [1.0, -1.0, 0.0][rng.below(3)];
                    let (oe, om) = (e.clone(), m.clone());
                    e.add_scaled(alpha, &oe);
                    m.add_scaled(alpha, &om);
                }
            }
            assert_agrees(&e, &m, &x, &vars, &ctx);
        }
    }
}

#[test]
fn shared_perturbation_cancels_to_a_constant() {
    // The UAP pair input `(z_a + d) − (z_b + d)`: `d` cancels, so the pair
    // encoder may treat the difference as a constant.
    let mut lp = LpProblem::new();
    let d = lp.add_var(-0.1, 0.1);
    let mut diff = Expr::constant(0.7).plus_var(1.0, d);
    diff.add_scaled(-1.0, &Expr::constant(0.2).plus_var(1.0, d));
    assert!(diff.is_constant());
    assert!(diff.to_lin_expr().terms().is_empty());
    assert_eq!(diff.constant_part(), 0.7 - 0.2);
    // `-0.0` coefficients and a zero scale leave an expression untouched.
    let e = Expr::var(d).plus_var(-0.0, d);
    let mut f = e.clone();
    f.add_scaled(0.0, &Expr::constant(5.0).plus_var(3.0, d));
    f.add_scaled(-0.0, &e);
    assert_eq!(f.to_lin_expr(), e.to_lin_expr());
    assert_eq!(f.constant_part().to_bits(), 0.0f64.to_bits());
}
