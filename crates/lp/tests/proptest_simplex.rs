//! Randomized tests of the simplex solver: on randomly generated LPs the
//! solver's answer must be feasible and at least as good as any sampled
//! feasible point, and structural invariants (duality-style sandwiches,
//! monotonicity under constraint addition) must hold.
//!
//! Driven by the workspace's deterministic [`Rng`] so the suite builds
//! offline and replays identically on every run.

use raven_lp::{Direction, LinExpr, LpProblem, MilpOptions, Sense, SimplexOptions, SolveStatus};
use raven_tensor::Rng;

const CASES: usize = 64;

#[derive(Debug, Clone)]
struct RandomLp {
    bounds: Vec<(f64, f64)>,
    rows: Vec<(Vec<f64>, f64)>, // a·x ≤ rhs
    objective: Vec<f64>,
}

fn random_lp(rng: &mut Rng) -> RandomLp {
    let n = 2 + rng.below(4);
    let m = 1 + rng.below(7);
    let bounds: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.in_range(-5.0, 0.0), rng.in_range(0.0, 5.0)))
        .collect();
    let rows: Vec<(Vec<f64>, f64)> = (0..m)
        .map(|_| {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.in_range(-3.0, 3.0)).collect();
            (coeffs, rng.in_range(0.5, 10.0))
        })
        .collect();
    let objective: Vec<f64> = (0..n).map(|_| rng.in_range(-2.0, 2.0)).collect();
    RandomLp {
        bounds,
        rows,
        objective,
    }
}

fn build(lp: &RandomLp) -> (LpProblem, Vec<raven_lp::VarId>) {
    let mut p = LpProblem::new();
    let vars: Vec<_> = lp
        .bounds
        .iter()
        .map(|&(lo, hi)| p.add_var(lo, hi))
        .collect();
    for (coeffs, rhs) in &lp.rows {
        let row: LinExpr = vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)).collect();
        // rhs > 0 and x = 0 is inside every box, so 0 is always feasible:
        // the LP can never be infeasible and never unbounded (boxed vars).
        p.add_constraint(row, Sense::Le, *rhs);
    }
    let obj: LinExpr = vars
        .iter()
        .zip(&lp.objective)
        .map(|(&v, &c)| (v, c))
        .collect();
    p.set_objective(Direction::Maximize, obj);
    (p, vars)
}

#[test]
fn optimal_solutions_are_feasible_and_dominant() {
    let mut rng = Rng::new(0x19_00);
    for _ in 0..CASES {
        let lp = random_lp(&mut rng);
        let (p, _) = build(&lp);
        let sol = p.solve().expect("solve succeeds");
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            p.is_feasible(&sol.values, 1e-5),
            "returned point infeasible"
        );
        // No sampled feasible point may beat the reported optimum.
        for _ in 0..8 {
            let x: Vec<f64> = lp
                .bounds
                .iter()
                .map(|&(lo, hi)| lo + (hi - lo) * rng.uniform())
                .collect();
            if p.is_feasible(&x, 1e-9) {
                let val: f64 = x.iter().zip(&lp.objective).map(|(a, b)| a * b).sum();
                assert!(
                    val <= sol.objective + 1e-5,
                    "sampled feasible point {val} beats optimum {}",
                    sol.objective
                );
            }
        }
    }
}

#[test]
fn adding_constraints_never_improves_the_optimum() {
    let mut rng = Rng::new(0x19_01);
    for _ in 0..CASES {
        let lp = random_lp(&mut rng);
        let (p, vars) = build(&lp);
        let base = p.solve().expect("solve succeeds").objective;
        let mut tightened = p.clone();
        let cut: LinExpr = vars.iter().map(|&v| (v, 1.0)).collect();
        tightened.add_constraint(cut, Sense::Le, 1.0);
        let t = tightened.solve().expect("solve succeeds");
        if t.status == SolveStatus::Optimal {
            assert!(
                t.objective <= base + 1e-6,
                "tightened {} > base {base}",
                t.objective
            );
        }
    }
}

#[test]
fn minimize_is_negated_maximize() {
    let mut rng = Rng::new(0x19_02);
    for _ in 0..CASES {
        let lp = random_lp(&mut rng);
        let (p, vars) = build(&lp);
        let max = p.solve().expect("solve succeeds").objective;
        let mut q = p.clone();
        let neg_obj: LinExpr = vars
            .iter()
            .zip(&lp.objective)
            .map(|(&v, &c)| (v, -c))
            .collect();
        q.set_objective(Direction::Minimize, neg_obj);
        let min = q.solve().expect("solve succeeds").objective;
        assert!((max + min).abs() < 1e-5, "max {max} vs min {min}");
    }
}

#[test]
fn milp_bound_is_within_lp_relaxation() {
    // Knapsack-style: max Σ x_i st Σ c_i x_i ≤ cap, binaries.
    let mut rng = Rng::new(0x19_04);
    for _ in 0..CASES {
        let n = 3 + rng.below(4);
        let coeffs: Vec<f64> = (0..n).map(|_| rng.in_range(0.5, 3.0)).collect();
        let cap = rng.in_range(2.0, 6.0);
        let mut p = LpProblem::new();
        let vars: Vec<_> = coeffs.iter().map(|_| p.add_binary_var()).collect();
        let row: LinExpr = vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)).collect();
        p.add_constraint(row, Sense::Le, cap);
        let obj: LinExpr = vars.iter().map(|&v| (v, 1.0)).collect();
        p.set_objective(Direction::Maximize, obj);
        let relax = p.solve().expect("lp solves").objective;
        let exact = p.solve_milp().expect("milp solves");
        assert!(exact.status == SolveStatus::Optimal);
        assert!(exact.objective <= relax + 1e-6);
        // The incumbent is integral and feasible.
        for &v in &exact.values {
            assert!((v - v.round()).abs() < 1e-6);
        }
        assert!(p.is_feasible(&exact.values, 1e-6));
    }
}

#[test]
fn warm_started_milp_matches_cold_start() {
    // Warm starts are a pure accelerator: across random knapsack-style
    // MILPs, branch & bound with parent-basis dual-simplex warm starts
    // must report exactly the same status and objective as cold starts,
    // and its incumbent must be an integral feasible point.
    let mut rng = Rng::new(0x19_05);
    let warm = MilpOptions::default();
    let cold = MilpOptions {
        warm_start: false,
        ..MilpOptions::default()
    };
    assert!(warm.warm_start, "warm starts are the default");
    for _ in 0..CASES {
        let n = 3 + rng.below(5);
        let mut p = LpProblem::new();
        let vars: Vec<_> = (0..n).map(|_| p.add_binary_var()).collect();
        let values: Vec<f64> = (0..n).map(|_| rng.in_range(0.5, 4.0)).collect();
        for _ in 0..(1 + rng.below(3)) {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.in_range(0.2, 3.0)).collect();
            let cap = rng.in_range(1.5, 6.0);
            let row: LinExpr = vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)).collect();
            p.add_constraint(row, Sense::Le, cap);
        }
        let obj: LinExpr = vars.iter().zip(&values).map(|(&v, &c)| (v, c)).collect();
        p.set_objective(Direction::Maximize, obj);

        let w = p.solve_milp_with(&warm).expect("warm milp solves");
        let c = p.solve_milp_with(&cold).expect("cold milp solves");
        assert_eq!(w.status, c.status);
        assert_eq!(w.status, SolveStatus::Optimal);
        assert!(
            (w.objective - c.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            w.objective,
            c.objective
        );
        for &v in &w.values {
            assert!((v - v.round()).abs() < 1e-6, "non-integral incumbent {v}");
        }
        assert!(p.is_feasible(&w.values, 1e-6));
    }
}

#[test]
fn refactorizing_every_pivot_matches_the_default_cadence() {
    // `≥` rows with positive rhs, `≤` rows with negative rhs, and `=` rows
    // all start with an artificial basic, so phase 1 refactorizes bases
    // that mix structural, slack and artificial columns. Rebuilding the
    // inverse before every pivot must not change the answer.
    let mut rng = Rng::new(0x19_06);
    let every = SimplexOptions {
        refactor_every: 1,
        ..SimplexOptions::default()
    };
    let mut optimal = 0;
    for _ in 0..CASES {
        let n = 2 + rng.below(5);
        let m = 1 + rng.below(7);
        let mut p = LpProblem::new();
        let vars: Vec<_> = (0..n)
            .map(|_| p.add_var(rng.in_range(-5.0, 0.0), rng.in_range(0.0, 5.0)))
            .collect();
        for _ in 0..m {
            let row: LinExpr = vars.iter().map(|&v| (v, rng.in_range(-3.0, 3.0))).collect();
            let (sense, rhs) = match rng.below(3) {
                0 => (Sense::Ge, rng.in_range(0.5, 6.0)),
                1 => (Sense::Le, rng.in_range(-6.0, -0.5)),
                _ => (Sense::Eq, rng.in_range(-3.0, 3.0)),
            };
            p.add_constraint(row, sense, rhs);
        }
        let obj: LinExpr = vars.iter().map(|&v| (v, rng.in_range(-2.0, 2.0))).collect();
        p.set_objective(Direction::Maximize, obj);

        let a = p.solve_with(&every).expect("refactor-every-pivot solve");
        let b = p.solve().expect("default solve");
        assert_eq!(a.status, b.status);
        if a.status == SolveStatus::Optimal {
            optimal += 1;
            assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "every pivot {} vs default {}",
                a.objective,
                b.objective
            );
            assert!(p.is_feasible(&a.values, 1e-5));
        }
    }
    assert!(optimal > 0, "some random LP must be feasible");
}
