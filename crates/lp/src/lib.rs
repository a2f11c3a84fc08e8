//! Linear and mixed-integer linear programming for the RaVeN verifier.
//!
//! The original RaVeN implementation delegates its relational LP/MILP
//! formulations to Gurobi; this crate is the from-scratch substitution: a
//! bounded-variable two-phase primal simplex ([`LpProblem::solve`]) and a
//! branch-and-bound wrapper for the handful of binary specification
//! variables the encodings introduce ([`LpProblem::solve_milp`]).
//!
//! Every solve returns its own proof on the [`Solution`]: the optimal
//! duals or a Farkas ray of an LP, the leaf proofs of a branch-and-bound
//! tree. [`LpProblem::certificate`] packages that proof into a
//! certificate the exact checker in `raven-check` replays, so asking for
//! one costs no second solve.
//!
//! # Examples
//!
//! ```
//! use raven_lp::{Direction, LinExpr, LpProblem, Sense};
//!
//! let mut p = LpProblem::new();
//! let x = p.add_var(0.0, 2.0);
//! let y = p.add_var(0.0, 2.0);
//! p.add_constraint(LinExpr::new().term(1.0, x).term(1.0, y), Sense::Le, 3.0);
//! p.set_objective(Direction::Maximize, LinExpr::new().term(2.0, x).term(1.0, y));
//! let sol = p.solve()?;
//! assert!((sol.objective - 5.0).abs() < 1e-7);
//! # Ok::<(), raven_lp::LpError>(())
//! ```

mod budget;
mod certificate;
pub mod chaos;
mod error;
pub mod metrics;
mod milp;
mod model;
mod simplex;
mod write;

pub use budget::Budget;
pub use error::LpError;
pub use milp::MilpOptions;
pub use model::{Direction, LinExpr, LpProblem, Sense, Solution, SolveStatus, VarId};
pub use simplex::{BasisCache, SimplexOptions};
pub use write::to_lp_format;
