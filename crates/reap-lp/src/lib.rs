//! A dense-tableau **simplex** linear-programming solver.
//!
//! This crate is the optimization substrate behind the REAP runtime
//! controller (Bhat et al., DAC 2019). Algorithm 1 of the paper is a
//! tableau simplex: build a tableau from the objective and constraints, add
//! slack variables, repeatedly select a pivot column (largest reduced cost)
//! and pivot row (minimum ratio), and stop when no entry of the cost row is
//! positive. [`LpProblem::solve`] implements exactly that procedure,
//! generalized to a textbook **two-phase** method so that equality and `>=`
//! constraints (which need artificial variables) are handled as well.
//!
//! Design notes:
//!
//! * All decision variables are non-negative (`x >= 0`), matching the REAP
//!   formulation where every time allocation `t_i >= 0` (Eq. 4 of the paper).
//! * Pivot selection defaults to Dantzig's rule (largest coefficient, the
//!   rule described in the paper) and falls back to Bland's rule after a run
//!   of degenerate pivots so the solver cannot cycle.
//! * [`oracle`] contains a brute-force vertex-enumeration solver used by the
//!   test-suite as an independent source of truth for small problems.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + y <= 4`, `x + 3y <= 6`:
//!
//! ```
//! use reap_lp::{LpProblem, LpStatus, Relation};
//!
//! # fn main() -> Result<(), reap_lp::LpError> {
//! let mut problem = LpProblem::maximize(&[3.0, 2.0]);
//! problem.subject_to(&[1.0, 1.0], Relation::Le, 4.0)?;
//! problem.subject_to(&[1.0, 3.0], Relation::Le, 6.0)?;
//!
//! let solution = problem.solve()?;
//! assert_eq!(solution.status(), LpStatus::Optimal);
//! assert!((solution.objective() - 12.0).abs() < 1e-9);
//! assert!((solution.values()[0] - 4.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
pub mod oracle;
mod problem;
mod simplex;
mod solution;

pub use error::LpError;
pub use problem::{LpProblem, Relation};
pub use simplex::{PivotRule, SimplexOptions};
pub use solution::{LpSolution, LpStatus};
