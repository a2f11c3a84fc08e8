//! Branch & bound for mixed-integer linear programs.
//!
//! The RaVeN encodings only use integrality on a handful of *specification*
//! variables (one indicator per execution for UAP accuracy counting, one per
//! output bit for hamming distance), never on per-neuron variables. The
//! search tree therefore stays tiny (≤ 2^k nodes), matching the paper's
//! scalable MILP configuration.
//!
//! Every node solves the caller's rows exactly as built, under its
//! branch's bound fixes, so all nodes share one row/variable layout: a
//! child warm-starts from its parent's optimal basis, and a node's duals
//! and Farkas rays index the caller's rows directly. The search therefore
//! records each disposed node's proof as it goes, and the tree of leaf
//! proofs is the returned solution's [`proof`](crate::Solution::proof),
//! which [`LpProblem::certificate`](crate::LpProblem::certificate)
//! packages on request.

use crate::simplex::{Basis, BasisCache, Matrix};
use crate::{Budget, LpError, LpProblem, SimplexOptions, Solution, SolveStatus};
use raven_check::{BranchLeaf, LeafProof, LpProof};
use std::rc::Rc;

/// Integrality tolerance: a value within this of an integer is integral.
const INT_TOL: f64 = 1e-6;

/// Options for [`LpProblem::solve_milp_cached`].
#[derive(Debug, Clone, PartialEq)]
pub struct MilpOptions {
    /// LP options used at every node.
    pub simplex: SimplexOptions,
    /// Hard limit on explored nodes.
    pub max_nodes: usize,
    /// Warm-start each node's relaxation from its parent's optimal basis
    /// with the dual simplex (bound changes keep the parent basis
    /// dual-feasible). Purely an accelerator: stale bases fall back to a
    /// cold start, so results are identical either way.
    pub warm_start: bool,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            simplex: SimplexOptions::default(),
            max_nodes: 10_000,
            warm_start: true,
        }
    }
}

struct Node {
    /// `(var index, lo, hi)` overrides accumulated along the branch.
    fixes: Vec<(usize, f64, f64)>,
    /// Parent relaxation objective: a sound bound on every leaf below this
    /// node (infinite in the optimistic direction at the root, where no
    /// relaxation has been solved yet).
    bound: f64,
    /// Closest ancestor's optimal basis, shared across siblings; the dual
    /// simplex starts from it when warm starts are on.
    warm: Option<Rc<Basis>>,
    /// Parent relaxation's row duals, shared across siblings: a node still
    /// open when the budget dies becomes a leaf whose bound is proved by
    /// its parent's duals (dual feasibility does not depend on the variable
    /// box, so the parent's multipliers bound every sub-box too). `None` at
    /// the root — a root left open has no proof.
    duals: Option<Rc<Vec<f64>>>,
}

/// The leaf proofs of a search so far, in the order its nodes were
/// disposed of; `None` once some node had no proof, which leaves the
/// whole tree without one. Empty-box prunes add nothing — the checker
/// proves those subtrees integer-empty on its own.
type Leaves = Option<Vec<BranchLeaf>>;

/// Records the leaf at `fixes` proved by `proof` (an optimal relaxation's
/// duals or an infeasible one's Farkas ray); a missing or branch-shaped
/// proof leaves the tree without one.
fn record(leaves: &mut Leaves, fixes: &[(usize, f64, f64)], proof: Option<LpProof>) {
    let proof = match proof {
        Some(LpProof::Bound { duals }) => LeafProof::Bound { duals },
        Some(LpProof::Farkas { ray }) => LeafProof::Farkas { ray },
        _ => {
            *leaves = None;
            return;
        }
    };
    if let Some(l) = leaves {
        l.push(BranchLeaf {
            fixes: fixes.to_vec(),
            proof,
        });
    }
}

/// The anytime result when budget or node limit stops the search: the
/// sound dual bound is the optimistic-direction extreme over the incumbent
/// and every open node's parent relaxation bound. Every still-open node
/// joins `leaves`, proved by its parent's duals (see [`Node::duals`]).
fn anytime_solution(
    minimize: bool,
    stack: &[Node],
    incumbent: &Option<Solution>,
    mut leaves: Leaves,
) -> Solution {
    crate::metrics::MILP_BUDGET_EXHAUSTED.inc();
    // Mark the exhaustion in the owning request's trace (when one is
    // installed on this thread): a degraded verdict's trace then shows
    // exactly where the anytime ladder gave up and how much B&B work was
    // still open. Observe-only; gated to skip the allocations otherwise.
    if raven_obs::enabled() {
        raven_obs::event(
            "milp_budget_exhausted",
            &[
                ("open_nodes", stack.len().to_string()),
                ("incumbent", incumbent.is_some().to_string()),
            ],
        );
    }
    let mut bound = incumbent.as_ref().map_or(
        if minimize {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        },
        |s| s.objective,
    );
    for node in stack {
        bound = if minimize {
            bound.min(node.bound)
        } else {
            bound.max(node.bound)
        };
        let proof = node.duals.as_ref().map(|d| LpProof::Bound {
            duals: (**d).clone(),
        });
        record(&mut leaves, &node.fixes, proof);
    }
    Solution {
        status: SolveStatus::BudgetExceeded { best_bound: bound },
        objective: bound,
        values: incumbent
            .as_ref()
            .map(|s| s.values.clone())
            .unwrap_or_default(),
        proof: leaves.map(|leaves| LpProof::Branch { leaves }),
    }
}

/// Solves `problem` by LP-based branch & bound over its integer variables.
/// The root relaxation seeds from `cache` and the final root basis is
/// stored back, so a sequence of related MILPs (for example the per-label
/// encodings that share one relaxation) warm-start each other. The search
/// is the same whether or not its proof is ever packaged: every node
/// solves the rows exactly as the caller built them, so the leaf proofs
/// line up with the rows a certificate records.
pub(crate) fn solve(
    problem: &LpProblem,
    opts: &MilpOptions,
    budget: &Budget<'_>,
    cache: &mut BasisCache,
) -> Result<Solution, LpError> {
    let int_vars: Vec<usize> = problem
        .integer
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i))
        .collect();
    let mut leaves: Leaves = Some(Vec::new());
    if int_vars.is_empty() {
        // No branching happens: the whole tree is one root leaf.
        let mut sol = problem.solve_with_budget(&opts.simplex, budget)?;
        record(&mut leaves, &[], sol.proof.take());
        sol.proof = leaves.map(|leaves| LpProof::Branch { leaves });
        return Ok(sol);
    }
    let minimize = matches!(problem.direction, crate::Direction::Minimize);
    let root_bound = if minimize {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    };
    // One shared node state for the whole tree: each node intersects its
    // branch's bound fixes in, solves, and undoes them — replacing the
    // per-node full-problem clone the loop used to pay. Fixes touch bounds
    // only, so every node's tableau reads one sparse copy of the rows.
    let mut work = problem.clone();
    let matrix = Matrix::new(problem);
    // Best-known integral solution.
    let mut incumbent: Option<Solution> = None;
    let mut stack = vec![Node {
        fixes: Vec::new(),
        bound: root_bound,
        warm: cache.basis.clone().map(Rc::new),
        duals: None,
    }];
    let mut nodes = 0usize;
    while let Some(node) = stack.pop() {
        // Anytime exit: when the budget expires or the node limit is hit
        // with work remaining, report the best sound incumbent/dual bound
        // instead of discarding everything already explored.
        if nodes >= opts.max_nodes || budget.exhausted() {
            stack.push(node);
            return Ok(anytime_solution(minimize, &stack, &incumbent, leaves));
        }
        nodes += 1;
        crate::metrics::MILP_NODES.inc();
        // Intersect this branch's fixes into the shared bounds, remembering
        // the previous values for the undo below.
        let mut undo: Vec<(usize, (f64, f64))> = Vec::with_capacity(node.fixes.len());
        let mut empty = false;
        for &(v, lo, hi) in &node.fixes {
            let (cur_lo, cur_hi) = work.bounds[v];
            undo.push((v, (cur_lo, cur_hi)));
            let new_lo = cur_lo.max(lo);
            let new_hi = cur_hi.min(hi);
            if new_lo > new_hi {
                empty = true;
                break;
            }
            work.bounds[v] = (new_lo, new_hi);
        }
        if empty {
            for &(v, b) in undo.iter().rev() {
                work.bounds[v] = b;
            }
            crate::metrics::MILP_NODES_PRUNED.inc();
            continue;
        }
        // Propagate solver failures: silently pruning a node whose
        // relaxation did not solve would under-estimate a maximization
        // objective and make verification results unsound.
        let warm = node.warm.as_deref().filter(|_| opts.warm_start);
        let solved = crate::simplex::solve_reuse(&work, &matrix, &opts.simplex, budget, warm)
            .map(|(sol, basis)| (sol, basis.filter(|_| opts.warm_start)));
        for &(v, b) in undo.iter().rev() {
            work.bounds[v] = b;
        }
        let (mut relax, relax_basis) = match solved {
            Ok(r) => r,
            Err(LpError::BudgetExceeded) => {
                // The budget died inside this node's relaxation: the node
                // is unexplored, so fold it back under its parent bound.
                stack.push(node);
                return Ok(anytime_solution(minimize, &stack, &incumbent, leaves));
            }
            Err(e) => return Err(e),
        };
        match relax.status {
            SolveStatus::Infeasible => {
                record(&mut leaves, &node.fixes, relax.proof);
                crate::metrics::MILP_NODES_PRUNED.inc();
                continue;
            }
            SolveStatus::Unbounded => {
                // Sound propagation from *any* node, not just the root: an
                // unbounded ray of a child relaxation is a ray of every
                // ancestor (bound fixes only shrink the recession cone's
                // domain sideways, never add directions), so the MILP's
                // objective is unbounded or its constraints infeasible —
                // either way, pruning the node as "infeasible" would
                // under-report a maximization bound. An unbounded
                // relaxation carries no proof.
                return Ok(relax);
            }
            SolveStatus::Optimal => {}
            // A pure-LP relaxation never reports BudgetExceeded (the
            // simplex signals exhaustion through `LpError::BudgetExceeded`,
            // handled above); treat it like exhaustion defensively.
            SolveStatus::BudgetExceeded { .. } => {
                stack.push(node);
                return Ok(anytime_solution(minimize, &stack, &incumbent, leaves));
            }
        }
        // Remember the root's optimal basis for the caller's next related
        // solve (per-label encodings sharing one relaxation).
        if node.fixes.is_empty() {
            if let Some(b) = &relax_basis {
                cache.basis = Some(b.clone());
            }
        }
        // Children start the dual simplex from this node's optimal basis;
        // when the solve came back basis-less (cold fallback ended with an
        // artificial still basic), they inherit the nearest ancestor's.
        let child_warm = relax_basis.map(Rc::new).or_else(|| node.warm.clone());
        // Bound pruning.
        if let Some(best) = &incumbent {
            let worse = if minimize {
                relax.objective >= best.objective - 1e-9
            } else {
                relax.objective <= best.objective + 1e-9
            };
            if worse {
                // A bound-pruned node is a leaf: its own optimal duals
                // prove its relaxation objective, which the final
                // incumbent dominates.
                record(&mut leaves, &node.fixes, relax.proof);
                crate::metrics::MILP_NODES_PRUNED.inc();
                continue;
            }
        }
        // Find the most fractional integer variable.
        let mut branch_var = None;
        let mut best_frac = INT_TOL;
        for &v in &int_vars {
            let x = relax.values[v];
            let frac = (x - x.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some(v);
            }
        }
        match branch_var {
            None => {
                // An integral node is a leaf proved by its own duals
                // whether or not it improves the incumbent.
                record(&mut leaves, &node.fixes, relax.proof.take());
                // Integral: candidate incumbent.
                let better = match &incumbent {
                    None => true,
                    Some(best) => {
                        if minimize {
                            relax.objective < best.objective - 1e-9
                        } else {
                            relax.objective > best.objective + 1e-9
                        }
                    }
                };
                if better {
                    crate::metrics::MILP_INCUMBENT_UPDATES.inc();
                    incumbent = Some(relax);
                }
            }
            Some(v) => {
                let x = relax.values[v];
                let floor = x.floor();
                let mut down = node.fixes.clone();
                down.push((v, f64::NEG_INFINITY, floor));
                let mut up = node.fixes.clone();
                up.push((v, floor + 1.0, f64::INFINITY));
                // Children inherit this node's relaxation objective as
                // their sound bound (restricting the feasible set can only
                // worsen the optimum).
                let bound = relax.objective;
                // Children also inherit this node's duals, the proof of
                // record should they be cut off open.
                let child_duals = match relax.proof {
                    Some(LpProof::Bound { duals }) => Some(Rc::new(duals)),
                    _ => None,
                };
                // Explore the side nearest the fractional value first.
                let up = Node {
                    fixes: up,
                    bound,
                    warm: child_warm.clone(),
                    duals: child_duals.clone(),
                };
                let down = Node {
                    fixes: down,
                    bound,
                    warm: child_warm,
                    duals: child_duals,
                };
                if x - floor < 0.5 {
                    stack.push(up);
                    stack.push(down);
                } else {
                    stack.push(down);
                    stack.push(up);
                }
            }
        }
    }
    let mut sol = incumbent.unwrap_or(Solution {
        status: SolveStatus::Infeasible,
        objective: 0.0,
        values: Vec::new(),
        proof: None,
    });
    sol.proof = leaves.map(|leaves| LpProof::Branch { leaves });
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use crate::{
        BasisCache, Budget, Direction, LinExpr, LpProblem, MilpOptions, Sense, SolveStatus,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// A maximization knapsack whose LP relaxation is fractional, so branch
    /// & bound must explore several nodes.
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
    fn knapsack_is_solved_exactly() {
        // max 5a + 4b + 3c s.t. 2a + 3b + c ≤ 5, binaries → a=1,c=1 (+b? 2+3+1=6>5)
        // best: a + c = 8 with weight 3; a + b = 9 weight 5 → optimal 9.
        let mut p = LpProblem::new();
        let a = p.add_binary_var();
        let b = p.add_binary_var();
        let c = p.add_binary_var();
        p.add_constraint(
            LinExpr::new().term(2.0, a).term(3.0, b).term(1.0, c),
            Sense::Le,
            5.0,
        );
        p.set_objective(
            Direction::Maximize,
            LinExpr::new().term(5.0, a).term(4.0, b).term(3.0, c),
        );
        let sol = p.solve_milp().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 9.0).abs() < 1e-6, "{}", sol.objective);
        for &v in &sol.values {
            assert!((v - v.round()).abs() < 1e-6);
        }
    }

    #[test]
    fn relaxation_differs_from_milp() {
        // max x s.t. 2x ≤ 3, x binary → LP gives 1.0 (capped by bound),
        // use 2x ≤ 1 to force fractional: LP 0.5, MILP 0.
        let mut p = LpProblem::new();
        let x = p.add_binary_var();
        p.add_constraint(LinExpr::new().term(2.0, x), Sense::Le, 1.0);
        p.set_objective(Direction::Maximize, LinExpr::new().term(1.0, x));
        let lp = p.solve().unwrap();
        assert!((lp.objective - 0.5).abs() < 1e-7);
        let milp = p.solve_milp().unwrap();
        assert!(milp.objective.abs() < 1e-7);
    }

    #[test]
    fn infeasible_milp_reports_infeasible() {
        let mut p = LpProblem::new();
        let x = p.add_binary_var();
        let y = p.add_binary_var();
        p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Ge, 3.0);
        let sol = p.solve_milp().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn node_limit_returns_anytime_bound_not_error() {
        let p = knapsack();
        let exact = p.solve_milp().unwrap();
        assert!(exact.is_optimal());
        let opts = MilpOptions {
            max_nodes: 1,
            ..MilpOptions::default()
        };
        let sol = p
            .solve_milp_cached(&opts, &Budget::unlimited(), &mut BasisCache::new())
            .unwrap();
        let SolveStatus::BudgetExceeded { best_bound } = sol.status else {
            panic!("expected BudgetExceeded, got {:?}", sol.status);
        };
        // The dual bound must be sound: never below the true maximum.
        assert!(
            best_bound >= exact.objective - 1e-9,
            "dual bound {best_bound} < optimum {}",
            exact.objective
        );
        assert_eq!(sol.objective, best_bound);
    }

    #[test]
    fn expired_deadline_yields_sound_bound_immediately() {
        let p = knapsack();
        let exact = p.solve_milp().unwrap().objective;
        let budget = Budget::default().with_deadline(Instant::now() - Duration::from_millis(1));
        let start = Instant::now();
        let sol = p
            .solve_milp_cached(&MilpOptions::default(), &budget, &mut BasisCache::new())
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "expired budget must return promptly"
        );
        let SolveStatus::BudgetExceeded { best_bound } = sol.status else {
            panic!("expected BudgetExceeded, got {:?}", sol.status);
        };
        assert!(best_bound >= exact - 1e-9);
    }

    #[test]
    fn cancel_mid_solve_interrupts_lp() {
        // A pre-set cancel flag makes the bare LP error with BudgetExceeded
        // on its first pivot (no sound partial bound exists for an LP).
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 10.0);
        let y = p.add_var(0.0, 10.0);
        p.add_constraint(LinExpr::new().term(1.0, x).term(2.0, y), Sense::Le, 4.0);
        p.set_objective(
            Direction::Maximize,
            LinExpr::new().term(1.0, x).term(1.0, y),
        );
        let flag = AtomicBool::new(true);
        let budget = Budget::default().with_cancel(&flag);
        let err = p
            .solve_with_budget(&crate::SimplexOptions::default(), &budget)
            .unwrap_err();
        assert_eq!(err, crate::LpError::BudgetExceeded);
        flag.store(false, Ordering::SeqCst);
        assert!(p
            .solve_with_budget(&crate::SimplexOptions::default(), &budget)
            .unwrap()
            .is_optimal());
    }

    #[test]
    fn generous_budget_matches_unbudgeted_solve() {
        let p = knapsack();
        let exact = p.solve_milp().unwrap();
        let budget = Budget::default().with_deadline_in(Duration::from_secs(60));
        let budgeted = p
            .solve_milp_cached(&MilpOptions::default(), &budget, &mut BasisCache::new())
            .unwrap();
        assert!(budgeted.is_optimal());
        assert!((budgeted.objective - exact.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_off_matches_warm_start_on() {
        let p = knapsack();
        let warm = p.solve_milp().unwrap();
        let cold = p
            .solve_milp_cached(
                &MilpOptions {
                    warm_start: false,
                    ..MilpOptions::default()
                },
                &Budget::unlimited(),
                &mut BasisCache::new(),
            )
            .unwrap();
        assert_eq!(warm.status, cold.status);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert_eq!(warm.values, cold.values);
    }

    #[test]
    fn basis_cache_reuses_across_related_solves() {
        // Two MILP solves on the same model through one cache: the second
        // must return the identical result while seeding from the first's
        // root basis (counter deltas are ≥-asserted because unrelated
        // parallel tests also warm-start).
        let p = knapsack();
        let budget = Budget::unlimited();
        let mut cache = crate::BasisCache::new();
        let first = p
            .solve_milp_cached(&MilpOptions::default(), &budget, &mut cache)
            .unwrap();
        assert!(first.is_optimal());
        assert!(cache.is_warm(), "root basis must be cached");
        let before = crate::metrics::LP_WARM_STARTS.get();
        let second = p
            .solve_milp_cached(&MilpOptions::default(), &budget, &mut cache)
            .unwrap();
        assert_eq!(first, second);
        assert!(
            crate::metrics::LP_WARM_STARTS.get() > before,
            "cached solve must warm-start at least its root"
        );
    }

    #[test]
    fn mixed_continuous_and_binary() {
        // min y s.t. y ≥ x - 0.3, y ≥ 0.3 - x, x binary, y free.
        // x=0 → y ≥ 0.3; x=1 → y ≥ 0.7 → optimal y = 0.3.
        let mut p = LpProblem::new();
        let x = p.add_binary_var();
        let y = p.add_free_var();
        p.add_constraint(LinExpr::new().term(1.0, y).term(-1.0, x), Sense::Ge, -0.3);
        p.add_constraint(LinExpr::new().term(1.0, y).term(1.0, x), Sense::Ge, 0.3);
        p.set_objective(Direction::Minimize, LinExpr::new().term(1.0, y));
        let sol = p.solve_milp().unwrap();
        assert!((sol.objective - 0.3).abs() < 1e-6, "{}", sol.objective);
        assert!(sol.value(x).abs() < 1e-6);
    }
}
