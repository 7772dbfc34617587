//! Two-phase dense-tableau simplex implementation.
//!
//! The tableau layout mirrors the description in Algorithm 1 of the REAP
//! paper: constraint rows followed by a cost row; each iteration finds the
//! pivot column with the largest cost-row entry, finds the pivot row with
//! the minimum ratio test, pivots, and stops when the cost row has no
//! positive entry.

#![expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the textbook row/column notation"
)]

use crate::error::LpError;
use crate::problem::{Direction, LpProblem, Relation};
use crate::solution::LpSolution;

/// Pivot-column selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotRule {
    /// Dantzig's rule: enter the column with the largest reduced cost.
    /// This is the "largest value in the last row" rule of the paper's
    /// Algorithm 1. Fast in practice, can cycle on degenerate problems
    /// (the solver auto-falls back to Bland when it detects stalling).
    #[default]
    Dantzig,
    /// Bland's rule: enter the lowest-index improving column. Slower but
    /// provably cycle-free.
    Bland,
}

/// Tuning knobs for the simplex solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexOptions {
    /// Hard cap on pivots across both phases. Mirrors the `max. iterations`
    /// input of the paper's Algorithm 1.
    pub max_iterations: usize,
    /// Numerical tolerance used for reduced-cost and ratio tests.
    pub tol: f64,
    /// Initial pivot rule (may degrade to Bland on degeneracy).
    pub pivot_rule: PivotRule,
    /// After this many consecutive degenerate pivots, switch to Bland's
    /// rule permanently to guarantee termination.
    pub degenerate_switch: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 10_000,
            tol: 1e-9,
            pivot_rule: PivotRule::Dantzig,
            degenerate_switch: 32,
        }
    }
}

/// Dense simplex tableau.
///
/// Column layout: `[structural | slack/surplus | artificial]`, with the
/// right-hand side stored as the final entry of each row. The cost row is
/// kept separately in `obj` with the convention `obj[j] = c_j - z_j`
/// (reduced cost) and `obj[rhs] = -z` (negated objective value).
struct Tableau {
    rows: Vec<Vec<f64>>,
    obj: Vec<f64>,
    basis: Vec<usize>,
    n_total: usize,
}

enum PivotOutcome {
    Optimal,
    Unbounded,
    Pivoted { degenerate: bool },
}

impl Tableau {
    fn rhs_index(&self) -> usize {
        self.n_total
    }

    /// Rebuilds the cost row for the cost vector `cost` (length `n_total`),
    /// pricing out the current basis so all basic columns have zero reduced
    /// cost.
    fn price_out(&mut self, cost: &[f64]) {
        let rhs = self.rhs_index();
        self.obj = cost.to_vec();
        self.obj.push(0.0);
        for (i, row) in self.rows.iter().enumerate() {
            let cb = cost[self.basis[i]];
            if cb != 0.0 {
                for j in 0..=rhs {
                    self.obj[j] -= cb * row[j];
                }
            }
        }
    }

    /// Selects the entering column among `allowed`, or `None` at optimality.
    fn entering_column(&self, rule: PivotRule, tol: f64, banned_from: usize) -> Option<usize> {
        match rule {
            PivotRule::Dantzig => {
                let mut best: Option<(usize, f64)> = None;
                for (j, &r) in self.obj[..self.n_total].iter().enumerate() {
                    if j >= banned_from {
                        break;
                    }
                    if r > tol && best.is_none_or(|(_, br)| r > br) {
                        best = Some((j, r));
                    }
                }
                best.map(|(j, _)| j)
            }
            PivotRule::Bland => self.obj[..self.n_total.min(banned_from)]
                .iter()
                .position(|&r| r > tol),
        }
    }

    /// Minimum-ratio test for the entering column `q`. Ties are broken by
    /// the smallest basis index (a lexicographic-flavoured rule that, with
    /// Bland's entering rule, prevents cycling).
    fn leaving_row(&self, q: usize, tol: f64) -> Option<usize> {
        let rhs = self.rhs_index();
        let mut best: Option<(usize, f64)> = None;
        for (i, row) in self.rows.iter().enumerate() {
            let a = row[q];
            if a > tol {
                let ratio = row[rhs] / a;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < br - tol
                            || ((ratio - br).abs() <= tol && self.basis[i] < self.basis[bi])
                        {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Performs the pivot on `(p, q)`: normalizes row `p`, eliminates column
    /// `q` from every other row and from the cost row.
    fn pivot(&mut self, p: usize, q: usize) {
        let rhs = self.rhs_index();
        let piv = self.rows[p][q];
        debug_assert!(piv.abs() > 0.0, "pivot on zero element");
        for j in 0..=rhs {
            self.rows[p][j] /= piv;
        }
        // Snapshot the pivot row to satisfy the borrow checker cheaply.
        let pivot_row = self.rows[p].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i == p {
                continue;
            }
            let factor = row[q];
            if factor != 0.0 {
                for j in 0..=rhs {
                    row[j] -= factor * pivot_row[j];
                }
                row[q] = 0.0; // kill round-off in the eliminated column
            }
        }
        let factor = self.obj[q];
        if factor != 0.0 {
            for j in 0..=rhs {
                self.obj[j] -= factor * pivot_row[j];
            }
            self.obj[q] = 0.0;
        }
        self.basis[p] = q;
    }

    /// One simplex step: choose pivot column and row, pivot.
    fn step(&mut self, rule: PivotRule, tol: f64, banned_from: usize) -> PivotOutcome {
        let Some(q) = self.entering_column(rule, tol, banned_from) else {
            return PivotOutcome::Optimal;
        };
        let Some(p) = self.leaving_row(q, tol) else {
            return PivotOutcome::Unbounded;
        };
        let degenerate = self.rows[p][self.rhs_index()].abs() <= tol;
        self.pivot(p, q);
        PivotOutcome::Pivoted { degenerate }
    }
}

/// Driver for the pivot loop of one phase.
///
/// `banned_from`: first column index that is not allowed to enter the basis
/// (used to exclude artificial columns in phase 2).
fn run_phase(
    tab: &mut Tableau,
    options: &SimplexOptions,
    banned_from: usize,
    iterations: &mut usize,
) -> Result<bool, LpError> {
    let mut rule = options.pivot_rule;
    let mut degenerate_run = 0usize;
    loop {
        if *iterations >= options.max_iterations {
            return Err(LpError::IterationLimit {
                limit: options.max_iterations,
            });
        }
        match tab.step(rule, options.tol, banned_from) {
            PivotOutcome::Optimal => return Ok(true),
            PivotOutcome::Unbounded => return Ok(false),
            PivotOutcome::Pivoted { degenerate } => {
                *iterations += 1;
                if degenerate {
                    degenerate_run += 1;
                    if degenerate_run >= options.degenerate_switch {
                        rule = PivotRule::Bland;
                    }
                } else {
                    degenerate_run = 0;
                    rule = options.pivot_rule;
                }
            }
        }
    }
}

/// Solves `problem` with the two-phase simplex method.
pub(crate) fn solve(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    let n = problem.num_vars();
    let m = problem.num_constraints();

    // --- Normalize rows: rhs >= 0, count slack/surplus/artificial columns.
    struct NormRow {
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    }
    let norm: Vec<NormRow> = problem
        .constraints
        .iter()
        .map(|c| {
            if c.rhs < 0.0 {
                NormRow {
                    coeffs: c.coeffs.iter().map(|a| -a).collect(),
                    relation: c.relation.flipped(),
                    rhs: -c.rhs,
                }
            } else {
                NormRow {
                    coeffs: c.coeffs.clone(),
                    relation: c.relation,
                    rhs: c.rhs,
                }
            }
        })
        .collect();

    let n_slack = norm.iter().filter(|r| r.relation != Relation::Eq).count();
    let n_art = norm.iter().filter(|r| r.relation != Relation::Le).count();
    let artificial_start = n + n_slack;
    let n_total = n + n_slack + n_art;

    // --- Build the tableau.
    let mut rows = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let mut slack_cursor = n;
    let mut art_cursor = artificial_start;
    for r in &norm {
        let mut row = vec![0.0; n_total + 1];
        row[..n].copy_from_slice(&r.coeffs);
        row[n_total] = r.rhs;
        match r.relation {
            Relation::Le => {
                row[slack_cursor] = 1.0;
                basis.push(slack_cursor);
                slack_cursor += 1;
            }
            Relation::Ge => {
                row[slack_cursor] = -1.0;
                slack_cursor += 1;
                row[art_cursor] = 1.0;
                basis.push(art_cursor);
                art_cursor += 1;
            }
            Relation::Eq => {
                row[art_cursor] = 1.0;
                basis.push(art_cursor);
                art_cursor += 1;
            }
        }
        rows.push(row);
    }

    let mut tab = Tableau {
        rows,
        obj: Vec::new(),
        basis,
        n_total,
    };

    let mut iterations = 0usize;

    // --- Phase 1: drive artificials to zero (maximize -sum of artificials).
    if n_art > 0 {
        let mut phase1_cost = vec![0.0; n_total];
        for c in phase1_cost.iter_mut().skip(artificial_start) {
            *c = -1.0;
        }
        tab.price_out(&phase1_cost);
        let finished = run_phase(&mut tab, options, n_total, &mut iterations)?;
        debug_assert!(finished, "phase-1 objective is bounded by construction");
        let z1 = -tab.obj[tab.rhs_index()];
        if z1 < -options.tol.max(1e-7) {
            return Ok(LpSolution::infeasible(iterations));
        }
        // Drive any residual basic artificials (at value zero) out of the
        // basis so phase 2 cannot be polluted by them. If a row has no
        // eligible pivot it is redundant; the artificial stays basic at 0,
        // which is harmless because artificial columns are banned below.
        for i in 0..tab.rows.len() {
            if tab.basis[i] >= artificial_start {
                let pivot_col =
                    (0..artificial_start).find(|&j| tab.rows[i][j].abs() > options.tol.max(1e-8));
                if let Some(q) = pivot_col {
                    tab.pivot(i, q);
                    iterations += 1;
                }
            }
        }
    }

    // --- Phase 2: optimize the real objective (internally always maximize).
    let sign = match problem.direction {
        Direction::Maximize => 1.0,
        Direction::Minimize => -1.0,
    };
    let mut phase2_cost = vec![0.0; n_total];
    for (j, &c) in problem.objective.iter().enumerate() {
        phase2_cost[j] = sign * c;
    }
    tab.price_out(&phase2_cost);
    let finished = run_phase(&mut tab, options, artificial_start, &mut iterations)?;
    if !finished {
        return Ok(LpSolution::unbounded(iterations));
    }

    // --- Extract the solution.
    let mut x = vec![0.0; n];
    let rhs = tab.rhs_index();
    for (i, &b) in tab.basis.iter().enumerate() {
        if b < n {
            x[b] = tab.rows[i][rhs];
        }
    }
    // Clean tiny negative round-off so downstream consumers see x >= 0.
    for v in &mut x {
        if *v < 0.0 && *v > -1e-7 {
            *v = 0.0;
        }
    }
    let objective = sign * -tab.obj[rhs];
    Ok(LpSolution::optimal(objective, x, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpStatus, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18 -> z* = 36 at (2, 6).
        let mut p = LpProblem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 4.0).unwrap();
        p.subject_to(&[0.0, 2.0], Relation::Le, 12.0).unwrap();
        p.subject_to(&[3.0, 2.0], Relation::Le, 18.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 36.0);
        assert_close(s.values()[0], 2.0);
        assert_close(s.values()[1], 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y ; x + y >= 10 ; x >= 3 -> z* = 2*10? No:
        // with x >= 3, cheapest is x = 10, y = 0 -> z = 20.
        let mut p = LpProblem::minimize(&[2.0, 3.0]);
        p.subject_to(&[1.0, 1.0], Relation::Ge, 10.0).unwrap();
        p.subject_to(&[1.0, 0.0], Relation::Ge, 3.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 20.0);
        assert_close(s.values()[0], 10.0);
    }

    #[test]
    fn equality_constraints_solved_via_phase_one() {
        // max x + 2y ; x + y = 5 ; x <= 3 -> optimum (0, 5), z = 10.
        let mut p = LpProblem::maximize(&[1.0, 2.0]);
        p.subject_to(&[1.0, 1.0], Relation::Eq, 5.0).unwrap();
        p.subject_to(&[1.0, 0.0], Relation::Le, 3.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 10.0);
        assert_close(s.values()[0], 0.0);
        assert_close(s.values()[1], 5.0);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2 cannot both hold.
        let mut p = LpProblem::maximize(&[1.0]);
        p.subject_to(&[1.0], Relation::Le, 1.0).unwrap();
        p.subject_to(&[1.0], Relation::Ge, 2.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Infeasible);
        assert!(s.optimal_values().is_none());
    }

    #[test]
    fn unbounded_detected() {
        // max x with only x >= 1: unbounded above.
        let mut p = LpProblem::maximize(&[1.0]);
        p.subject_to(&[1.0], Relation::Ge, 1.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x - y <= -2  is  x + y >= 2.
        let mut p = LpProblem::minimize(&[1.0, 1.0]);
        p.subject_to(&[-1.0, -1.0], Relation::Le, -2.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (multiple constraints active at the origin
        // vertex). Beale's cycling example adapted to our API.
        let mut p = LpProblem::maximize(&[0.75, -150.0, 0.02, -6.0]);
        p.subject_to(&[0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0)
            .unwrap();
        p.subject_to(&[0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0)
            .unwrap();
        p.subject_to(&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0)
            .unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 0.05);
    }

    #[test]
    fn bland_rule_finds_same_optimum() {
        let mut p = LpProblem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 4.0).unwrap();
        p.subject_to(&[0.0, 2.0], Relation::Le, 12.0).unwrap();
        p.subject_to(&[3.0, 2.0], Relation::Le, 18.0).unwrap();
        let opts = SimplexOptions {
            pivot_rule: PivotRule::Bland,
            ..SimplexOptions::default()
        };
        let s = p.solve_with(&opts).unwrap();
        assert_close(s.objective(), 36.0);
    }

    #[test]
    fn iteration_limit_is_an_error() {
        let mut p = LpProblem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 1.0], Relation::Le, 4.0).unwrap();
        let opts = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        assert_eq!(
            p.solve_with(&opts).unwrap_err(),
            LpError::IterationLimit { limit: 0 }
        );
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // Duplicate equality rows leave a basic artificial at zero in a
        // redundant row; the solver must still find the optimum.
        let mut p = LpProblem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 1.0], Relation::Eq, 3.0).unwrap();
        p.subject_to(&[2.0, 2.0], Relation::Eq, 6.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 3.0);
    }

    #[test]
    fn reap_shaped_problem_matches_paper_checkpoint() {
        // The REAP LP at Eb = 5 J, alpha = 1 with the paper's five design
        // points: the optimum mixes DP4 (42%) and DP5 (58%) of the hour.
        // Variables: [t1..t5, t_off] in seconds; powers in mW; budget in mJ.
        let tp = 3600.0;
        let acc = [94.0, 93.0, 92.0, 90.0, 76.0];
        let pw = [2.76, 2.30, 1.82, 1.64, 1.20];
        let p_off = 0.05;
        let mut obj: Vec<f64> = acc.iter().map(|a| a / tp).collect();
        obj.push(0.0); // t_off contributes nothing
        let mut p = LpProblem::maximize(&obj);
        p.subject_to(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], Relation::Eq, tp)
            .unwrap();
        p.subject_to(
            &[pw[0], pw[1], pw[2], pw[3], pw[4], p_off],
            Relation::Le,
            5000.0,
        )
        .unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        let t4 = s.values()[3] / tp;
        let t5 = s.values()[4] / tp;
        assert!((t4 - 0.42).abs() < 0.02, "t4 fraction = {t4}");
        assert!((t5 - 0.58).abs() < 0.02, "t5 fraction = {t5}");
        // No other DP is used and the device never turns off at 5 J.
        assert!(s.values()[0] < 1e-6);
        assert!(s.values()[1] < 1e-6);
        assert!(s.values()[2] < 1e-6);
        assert!(s.values()[5] < 1e-6);
    }

    #[test]
    fn solution_is_feasible_for_original_problem() {
        let mut p = LpProblem::maximize(&[1.0, 4.0, 2.0]);
        p.subject_to(&[5.0, 2.0, 2.0], Relation::Le, 145.0).unwrap();
        p.subject_to(&[4.0, 8.0, -8.0], Relation::Le, 260.0)
            .unwrap();
        p.subject_to(&[1.0, 1.0, 4.0], Relation::Le, 190.0).unwrap();
        let s = p.solve().unwrap();
        assert!(s.is_optimal());
        assert!(p.is_feasible(s.values(), 1e-6));
        assert_close(p.objective_value(s.values()), s.objective());
    }
}
