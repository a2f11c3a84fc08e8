//! Randomized tests of the simplex solver: on randomly generated LPs the
//! solver's answer must be feasible and at least as good as any sampled
//! feasible point, and structural invariants (duality-style sandwiches,
//! monotonicity under constraint addition) must hold.
//!
//! Driven by the workspace's deterministic [`Rng`] so the suite builds
//! offline and replays identically on every run.

use raven_check::LpProof;
use raven_lp::{
    BasisCache, Budget, Direction, LinExpr, LpProblem, MilpOptions, Sense, SimplexOptions,
    SolveStatus, VarId,
};
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

        let w = p
            .solve_milp_cached(&warm, &Budget::unlimited(), &mut BasisCache::new())
            .expect("warm milp solves");
        let c = p
            .solve_milp_cached(&cold, &Budget::unlimited(), &mut BasisCache::new())
            .expect("cold milp solves");
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

        let a = p
            .solve_with_budget(&every, &Budget::unlimited())
            .expect("refactor-every-pivot solve");
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

include!("support/nn_lp.rs");

/// Asserts that `sol`'s row duals certify its optimum on `lp`: in the
/// internal minimization form, `≤` rows carry `y ≤ 0` and `≥` rows `y ≥ 0`,
/// each variable's reduced cost has the sign its position in the box
/// allows, and `yᵀb + dᵀx` equals the objective.
fn assert_dual_feasible(lp: &NnLp, sol: &raven_lp::Solution) {
    const TOL: f64 = 1e-6;
    let s = if lp.maximize { -1.0 } else { 1.0 };
    let Some(LpProof::Bound { duals }) = &sol.proof else {
        panic!(
            "an optimal solve proves its bound with duals: {:?}",
            sol.proof
        );
    };
    assert_eq!(duals.len(), lp.rows.len());
    let y: Vec<f64> = duals.iter().map(|&v| s * v).collect();
    let mut d = vec![0.0; lp.bounds.len()];
    for &(v, c) in &lp.objective {
        d[v] += s * c;
    }
    let mut dual_obj = 0.0;
    for ((terms, sense, rhs), &yi) in lp.rows.iter().zip(&y) {
        match sense {
            Sense::Le => assert!(yi <= TOL, "≤ row dual {yi}"),
            Sense::Ge => assert!(yi >= -TOL, "≥ row dual {yi}"),
            Sense::Eq => {}
        }
        for &(v, a) in terms {
            d[v] -= yi * a;
        }
        dual_obj += yi * rhs;
    }
    for (j, (&dj, &(lo, hi))) in d.iter().zip(&lp.bounds).enumerate() {
        let x = sol.values[j];
        dual_obj += dj * x;
        if hi - lo <= TOL {
            continue;
        }
        let at_lo = x <= lo + TOL;
        let at_hi = x >= hi - TOL;
        let scale = TOL * (1.0 + dj.abs());
        assert!(
            at_lo && dj >= -scale || at_hi && dj <= scale || dj.abs() <= scale,
            "variable {j} at {x} in [{lo}, {hi}] has reduced cost {dj}"
        );
    }
    assert!(
        (dual_obj - s * sol.objective).abs() <= TOL * (1.0 + sol.objective.abs()),
        "dual objective {dual_obj} vs primal {}",
        s * sol.objective
    );
}

#[test]
fn nn_shaped_lps_agree_across_refactorization_cadences() {
    // Layered LPs at the verifier's size: the default cadence must agree
    // with refactorizing before every pivot, and the optimal duals must
    // certify the optimum. Every other LP carries an ℓ1 budget, so its
    // cold solve runs the all-slack two-phase start, long enough to cross
    // several refactorizations and many eta updates; the others start
    // from the crash basis.
    let mut rng = Rng::new(0x19_07);
    let every = SimplexOptions {
        refactor_every: 1,
        ..SimplexOptions::default()
    };
    let cadence = SimplexOptions::default().refactor_every;
    let mut long_solves = 0;
    for case in 0..12 {
        let mut lp = nn_lp(&mut rng, false);
        let all_slack = case % 2 == 1;
        if all_slack {
            add_l1_budget(&mut lp);
        }
        assert!(
            (100..=300).contains(&lp.rows.len()),
            "m = {}",
            lp.rows.len()
        );
        let p = build_nn(&lp);
        let a = p.solve().expect("default solve");
        let b = p
            .solve_with_budget(&every, &Budget::unlimited())
            .expect("refactor-every-pivot solve");
        assert_eq!(a.status, SolveStatus::Optimal);
        assert_eq!(a.status, b.status);
        assert!(
            (a.objective - b.objective).abs() < 1e-6,
            "default {} vs every pivot {}",
            a.objective,
            b.objective
        );
        assert!(p.is_feasible(&a.values, 1e-6));
        assert_dual_feasible(&lp, &a);
        assert_dual_feasible(&lp, &b);
        // The all-slack start has every structural nonbasic, so each one
        // strictly inside its box entered the basis by a pivot of its own.
        let interior = a
            .values
            .iter()
            .zip(&lp.bounds)
            .filter(|&(&x, &(lo, hi))| x > lo + 1e-6 && x < hi - 1e-6)
            .count();
        if all_slack && interior >= 3 * cadence {
            long_solves += 1;
        }
    }
    assert!(
        long_solves >= 6,
        "only {long_solves} solves crossed three refactorizations"
    );
}

#[test]
fn nn_shaped_milps_agree_across_cadences_and_warm_starts() {
    // The same layered LPs with big-M indicator rows: branch & bound must
    // reach the same status and count with the default cadence, with a
    // refactorization before every pivot, and with warm starts off.
    let mut rng = Rng::new(0x19_08);
    let every = MilpOptions {
        simplex: SimplexOptions {
            refactor_every: 1,
            ..SimplexOptions::default()
        },
        ..MilpOptions::default()
    };
    let cold = MilpOptions {
        warm_start: false,
        ..MilpOptions::default()
    };
    for _ in 0..6 {
        let lp = nn_lp(&mut rng, true);
        let p = build_nn(&lp);
        let w = p.solve_milp().expect("default milp");
        let e = p
            .solve_milp_cached(&every, &Budget::unlimited(), &mut BasisCache::new())
            .expect("refactor-every-pivot milp");
        let c = p
            .solve_milp_cached(&cold, &Budget::unlimited(), &mut BasisCache::new())
            .expect("cold milp");
        assert_eq!(w.status, SolveStatus::Optimal);
        for (name, other) in [("every pivot", &e), ("cold", &c)] {
            assert_eq!(w.status, other.status, "{name}");
            assert!(
                (w.objective - other.objective).abs() < 1e-6,
                "default {} vs {name} {}",
                w.objective,
                other.objective
            );
        }
        assert!(p.is_feasible(&w.values, 1e-6));
        for (&x, &int) in w.values.iter().zip(&lp.integer) {
            assert!(!int || (x - x.round()).abs() < 1e-6, "non-integral {x}");
        }
    }
}
