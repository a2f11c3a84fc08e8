//! Certificate emission: packaging a solution's proof — its optimal
//! duals, Farkas multipliers, or branch-and-bound leaf proofs — into a
//! [`raven_check::LpCertificate`] that the exact checker can replay
//! independently.
//!
//! Emission never affects solving. Every solve records its proof on the
//! [`Solution`] it returns (the solver always works on the rows exactly as
//! built, so the duals line up one to one with the rows the certificate
//! records), and [`LpProblem::certificate`](crate::LpProblem::certificate)
//! packages it on request. A solution that cannot be certified (an
//! unbounded relaxation, an infeasibility detected without usable
//! multipliers) simply yields `None`; it never degrades the solution
//! itself.

use crate::model::{Direction, LpProblem, Sense, Solution, SolveStatus};
use raven_check::{
    BranchLeaf, CertDirection, CertProblem, CertRow, CertSense, LeafProof, LpCertificate, LpProof,
};

/// Snapshot of an [`LpProblem`] in the checker's vocabulary.
pub(crate) fn problem_cert(problem: &LpProblem) -> CertProblem {
    CertProblem {
        direction: match problem.direction {
            Direction::Minimize => CertDirection::Minimize,
            Direction::Maximize => CertDirection::Maximize,
        },
        lower: problem.bounds.iter().map(|&(lo, _)| lo).collect(),
        upper: problem.bounds.iter().map(|&(_, hi)| hi).collect(),
        integer: problem
            .integer
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect(),
        rows: problem
            .rows
            .iter()
            .map(|row| CertRow {
                sense: match row.sense {
                    Sense::Le => CertSense::Le,
                    Sense::Ge => CertSense::Ge,
                    Sense::Eq => CertSense::Eq,
                },
                rhs: row.rhs,
                coeffs: row.expr.terms().iter().map(|&(v, c)| (v.0, c)).collect(),
            })
            .collect(),
        objective: problem
            .objective
            .terms()
            .iter()
            .map(|&(v, c)| (v.0, c))
            .collect(),
    }
}

/// Zeroes out duals whose sign is invalid for their row's sense and the
/// objective direction. Float noise can leave a solver dual a few ulps on
/// the wrong side of zero, which the exact checker hard-rejects; dropping
/// such a multiplier only *loosens* the dual bound (weak duality holds
/// for any valid-signed subset), so this is always sound.
fn oriented_duals(problem: &LpProblem, duals: &[f64]) -> Vec<f64> {
    let maximize = problem.direction == Direction::Maximize;
    problem
        .rows
        .iter()
        .zip(duals)
        .map(|(row, &y)| {
            let valid = match (maximize, row.sense) {
                (_, Sense::Eq) => true,
                (true, Sense::Le) | (false, Sense::Ge) => y >= 0.0,
                (true, Sense::Ge) | (false, Sense::Le) => y <= 0.0,
            };
            if valid {
                y
            } else {
                0.0
            }
        })
        .collect()
}

/// Same sanitization for Farkas rays, which use the internal convention
/// (`≤` rows need `y ≤ 0`, `≥` rows `y ≥ 0`). A noise entry contributes
/// nothing to the refutation, so zeroing it keeps the proof intact.
fn oriented_ray(problem: &LpProblem, ray: &[f64]) -> Vec<f64> {
    problem
        .rows
        .iter()
        .zip(ray)
        .map(|(row, &y)| {
            let valid = match row.sense {
                Sense::Eq => true,
                Sense::Le => y <= 0.0,
                Sense::Ge => y >= 0.0,
            };
            if valid {
                y
            } else {
                0.0
            }
        })
        .collect()
}

/// The infinite bound a proved-infeasible problem claims: nothing is
/// feasible, so the optimum is −∞ for Maximize and +∞ for Minimize.
fn infeasible_claim(direction: Direction) -> f64 {
    match direction {
        Direction::Maximize => f64::NEG_INFINITY,
        Direction::Minimize => f64::INFINITY,
    }
}

/// The certificate of `sol`, a solution of `problem`: its proof with
/// wrong-signed noise zeroed, and the bound that proof establishes. `None`
/// when the solution carries no proof or is unbounded.
pub(crate) fn certificate(problem: &LpProblem, sol: &Solution) -> Option<LpCertificate> {
    let claimed_bound = match sol.status {
        SolveStatus::Optimal => sol.objective,
        SolveStatus::BudgetExceeded { best_bound } => best_bound,
        SolveStatus::Infeasible => infeasible_claim(problem.direction),
        SolveStatus::Unbounded => return None,
    };
    let proof = match sol.proof.as_ref()? {
        LpProof::Bound { duals } => LpProof::Bound {
            duals: oriented_duals(problem, duals),
        },
        LpProof::Farkas { ray } => LpProof::Farkas {
            ray: oriented_ray(problem, ray),
        },
        LpProof::Branch { leaves } => LpProof::Branch {
            leaves: leaves
                .iter()
                .map(|leaf| BranchLeaf {
                    fixes: leaf.fixes.clone(),
                    proof: match &leaf.proof {
                        LeafProof::Bound { duals } => LeafProof::Bound {
                            duals: oriented_duals(problem, duals),
                        },
                        LeafProof::Farkas { ray } => LeafProof::Farkas {
                            ray: oriented_ray(problem, ray),
                        },
                    },
                })
                .collect(),
        },
    };
    Some(LpCertificate {
        problem: problem_cert(problem),
        claimed_bound,
        proof,
    })
}

#[cfg(test)]
mod tests {
    use crate::{
        BasisCache, Budget, Direction, LinExpr, LpProblem, MilpOptions, Sense, SolveStatus,
    };
    use raven_check::{check_certificate, Certificate, LpCertificate, LpProof};

    fn wrap(lp: LpCertificate) -> Certificate {
        Certificate {
            kind: "test".to_string(),
            tier: "lp".to_string(),
            degraded: false,
            lp: Some(lp),
            analysis: None,
        }
    }

    #[test]
    fn lp_certificate_replays_exactly() {
        // max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6, boxes [0,10] → 2.8.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(2.0, y), Sense::Le, 4.0);
        p.add_constraint(LinExpr::new().term(3.0, x).term(1.0, y), Sense::Le, 6.0);
        p.set_objective(
            Direction::Maximize,
            LinExpr::new().term(1.0, x).term(1.0, y),
        );
        let sol = p.solve().unwrap();
        assert!(sol.is_optimal());
        let cert = p.certificate(&sol).expect("optimal LP must certify");
        let report = check_certificate(&wrap(cert)).expect("replay must accept");
        assert!(report.lp_checked);
        assert!((report.exact_bound.unwrap() - 2.8).abs() < 1e-6);
    }

    #[test]
    fn wrong_signed_dual_noise_is_zeroed_not_rejected() {
        // min x s.t. x ≥ 1, x ≥ 0.5, x ∈ [0,10] → 1. Hand a Solution whose
        // second dual carries a few-ulp wrong-signed noise entry (as the
        // float simplex produces on slack rows); emission must zero it so
        // the exact checker accepts instead of hard-rejecting the sign.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Ge, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x), Sense::Ge, 0.5);
        p.set_objective(Direction::Minimize, LinExpr::new().term(1.0, x));
        let sol = crate::Solution {
            status: SolveStatus::Optimal,
            objective: 1.0,
            values: vec![1.0],
            proof: Some(LpProof::Bound {
                duals: vec![1.0, -3.0e-16],
            }),
        };
        let cert = p.certificate(&sol).expect("optimal solution must certify");
        let report = check_certificate(&wrap(cert)).expect("noise dual must be sanitized away");
        assert!(report.lp_checked);
        assert!((report.exact_bound.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_lp_emits_replayable_farkas_ray() {
        // x + y ≥ 5 with x,y ∈ [0,1] is infeasible.
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0);
        let y = p.add_var(0.0, 1.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Ge, 5.0);
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x));
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
        assert!(
            matches!(sol.proof, Some(LpProof::Farkas { .. })),
            "simplex must surface the ray"
        );
        let cert = p.certificate(&sol).expect("infeasible LP must certify");
        let report = check_certificate(&wrap(cert)).expect("farkas replay must accept");
        assert!(report.exact_bound.is_none());
    }

    fn knapsack() -> LpProblem {
        let mut p = LpProblem::new();
        let vars: Vec<_> = (0..6).map(|_| p.add_binary_var()).collect();
        let weights = [2.0, 3.0, 1.0, 4.0, 2.0, 3.0];
        let profits = [5.0, 4.0, 3.0, 7.0, 4.0, 5.0];
        let mut cap = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            cap.push(weights[i], v);
            obj.push(profits[i], v);
        }
        p.add_constraint(cap, Sense::Le, 7.0);
        p.set_objective(Direction::Maximize, obj);
        p
    }

    #[test]
    fn milp_branch_certificate_replays() {
        let p = knapsack();
        let sol = p.solve_milp().unwrap();
        assert!(sol.is_optimal());
        let cert = p.certificate(&sol).expect("complete B&B must certify");
        let report = check_certificate(&wrap(cert)).expect("branch replay must accept");
        assert!(report.leaves > 1, "knapsack must branch");
        assert!((report.claimed_bound.unwrap() - sol.objective).abs() < 1e-9);
    }

    #[test]
    fn milp_budget_exit_certifies_anytime_bound() {
        let p = knapsack();
        let exact = p.solve_milp().unwrap().objective;
        let opts = MilpOptions {
            max_nodes: 3,
            ..MilpOptions::default()
        };
        let sol = p
            .solve_milp_cached(&opts, &Budget::unlimited(), &mut BasisCache::new())
            .unwrap();
        let SolveStatus::BudgetExceeded { best_bound } = sol.status else {
            panic!("expected BudgetExceeded, got {:?}", sol.status);
        };
        assert!(best_bound >= exact - 1e-9);
        // Root explored (3 nodes > 1), so open nodes carry parent duals.
        let cert = p
            .certificate(&sol)
            .expect("anytime exit past the root must certify");
        let report = check_certificate(&wrap(cert)).expect("anytime replay must accept");
        assert!((report.claimed_bound.unwrap() - best_bound).abs() < 1e-9);
    }

    #[test]
    fn infeasible_milp_certifies_with_farkas_leaves() {
        // x + y ≥ 3 over binaries is infeasible; Maximize makes the
        // infeasibility claim −inf, which only all-Farkas leaves support.
        let mut p = LpProblem::new();
        let x = p.add_binary_var();
        let y = p.add_binary_var();
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Ge, 3.0);
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x));
        let sol = p.solve_milp().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
        let cert = p.certificate(&sol).expect("infeasible MILP must certify");
        let report = check_certificate(&wrap(cert)).expect("replay must accept");
        assert!(report.exact_bound.is_none());
    }

    #[test]
    fn tampered_branch_certificate_is_rejected() {
        let p = knapsack();
        let sol = p.solve_milp().unwrap();
        let mut cert = p.certificate(&sol).unwrap();
        // Claiming a tighter bound than the tree proves must be rejected.
        cert.claimed_bound -= 1.0;
        assert!(check_certificate(&wrap(cert)).is_err());
    }
}
