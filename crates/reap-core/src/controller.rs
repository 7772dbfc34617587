//! The runtime controller: the piece that runs on the device every period.

use reap_units::Energy;

use crate::frontier::PlanFrontier;
use crate::schedule::Schedule;
use crate::{ReapError, ReapProblem};

/// Which solver the controller invokes each period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// The paper's Algorithm 1 (tableau simplex).
    #[default]
    Simplex,
    /// The precomputed budget→schedule frontier ([`PlanFrontier`]): the
    /// frontier is built lazily on the first plan, cached inside the
    /// controller, and every solve afterwards is an `O(log K)` lookup.
    /// Invalidated by [`ReapController::set_alpha`].
    Frontier,
}

/// Runtime REAP controller.
///
/// Once per activity period the energy-allocation layer hands the
/// controller a budget; [`ReapController::plan`] returns the schedule to
/// execute. The controller also exposes [`ReapController::set_alpha`]
/// because "the importance given to accuracy versus active time may change
/// due to user preferences" (Sec. 3.3).
///
/// Unlike [`ReapProblem::solve`], `plan` is **total** over non-negative
/// budgets: a budget below the off-state floor returns the all-off
/// schedule (the device browns out; it cannot do better), so a simulation
/// loop never has to special-case starvation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReapController {
    problem: ReapProblem,
    solver: SolverKind,
    plans: u64,
    /// Lazily built cache for [`SolverKind::Frontier`]; dropped whenever
    /// `alpha` changes (the frontier is specific to one weight vector).
    frontier: Option<PlanFrontier>,
    /// How many times the frontier cache has been (re)built — the
    /// observable that lets tests prove plans reuse the cache (a rebuilt
    /// frontier would compare equal to the cached one).
    frontier_builds: u64,
}

impl ReapController {
    /// Creates a controller with the default (simplex) solver.
    #[must_use]
    pub fn new(problem: ReapProblem) -> ReapController {
        ReapController::with_solver(problem, SolverKind::default())
    }

    /// Creates a controller with an explicit solver choice.
    #[must_use]
    pub fn with_solver(problem: ReapProblem, solver: SolverKind) -> ReapController {
        ReapController {
            problem,
            solver,
            plans: 0,
            frontier: None,
            frontier_builds: 0,
        }
    }

    /// The underlying problem definition.
    #[must_use]
    pub fn problem(&self) -> &ReapProblem {
        &self.problem
    }

    /// How many plans this controller has produced.
    #[must_use]
    pub fn plans_made(&self) -> u64 {
        self.plans
    }

    /// Changes the accuracy/active-time trade-off for future plans.
    ///
    /// # Errors
    ///
    /// [`ReapError::InvalidParameter`] for negative or non-finite `alpha`.
    pub fn set_alpha(&mut self, alpha: f64) -> Result<(), ReapError> {
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(ReapError::InvalidParameter(format!(
                "alpha {alpha} must be finite and non-negative"
            )));
        }
        self.problem = self.problem.with_alpha(alpha);
        // Frontier vertices depend on the weights a_i^alpha; rebuild
        // lazily on the next plan.
        self.frontier = None;
        Ok(())
    }

    /// Plans one activity period under `budget`.
    ///
    /// Budgets below `P_off * TP` yield the all-off schedule; everything
    /// else is delegated to the configured solver.
    ///
    /// # Errors
    ///
    /// Only solver failures ([`ReapError::Lp`],
    /// [`ReapError::SolverInconsistency`]) or a non-finite budget; never
    /// budget starvation.
    pub fn plan(&mut self, budget: Energy) -> Result<Schedule, ReapError> {
        if !budget.is_finite() {
            return Err(ReapError::InvalidParameter(format!(
                "budget {budget} is not finite"
            )));
        }
        self.plans += 1;
        let effective = budget.max(self.problem.min_budget());
        match self.solver {
            SolverKind::Simplex => self.problem.solve(effective),
            SolverKind::Frontier => {
                let problem = &self.problem;
                let builds = &mut self.frontier_builds;
                self.frontier
                    .get_or_insert_with(|| {
                        *builds += 1;
                        problem.frontier()
                    })
                    .solve(effective)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatingPoint;
    use reap_units::Power;

    fn problem() -> ReapProblem {
        ReapProblem::builder()
            .points(vec![
                OperatingPoint::new(1, "DP1", 0.94, Power::from_milliwatts(2.76)).unwrap(),
                OperatingPoint::new(5, "DP5", 0.76, Power::from_milliwatts(1.20)).unwrap(),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn plan_is_total_over_starved_budgets() {
        let mut c = ReapController::new(problem());
        let s = c.plan(Energy::from_joules(0.01)).unwrap();
        assert!(s.allocations().is_empty());
        assert!((s.off_time().seconds() - 3600.0).abs() < 1e-6);
        let zero = c.plan(Energy::ZERO).unwrap();
        assert!(zero.allocations().is_empty());
    }

    #[test]
    fn plan_counts_invocations() {
        let mut c = ReapController::new(problem());
        assert_eq!(c.plans_made(), 0);
        let _ = c.plan(Energy::from_joules(5.0)).unwrap();
        let _ = c.plan(Energy::from_joules(2.0)).unwrap();
        assert_eq!(c.plans_made(), 2);
    }

    #[test]
    fn solver_kinds_agree() {
        let mut simplex = ReapController::with_solver(problem(), SolverKind::Simplex);
        let mut frontier = ReapController::with_solver(problem(), SolverKind::Frontier);
        for b in [0.5, 2.0, 5.0, 8.0, 12.0] {
            let budget = Energy::from_joules(b);
            let a = simplex.plan(budget).unwrap();
            let f = frontier.plan(budget).unwrap();
            assert!(
                (a.objective(1.0) - f.objective(1.0)).abs() < 1e-9,
                "budget {b}: simplex vs frontier"
            );
        }
    }

    #[test]
    fn frontier_cache_survives_plans_and_resets_on_alpha_change() {
        let mut c = ReapController::with_solver(problem(), SolverKind::Frontier);
        assert!(c.frontier.is_none());
        assert_eq!(c.frontier_builds, 0);
        let _ = c.plan(Energy::from_joules(3.0)).unwrap();
        let _ = c.plan(Energy::from_joules(7.0)).unwrap();
        assert_eq!(c.frontier_builds, 1, "plans after the first must reuse");
        let cached = c.frontier.clone().expect("built on first plan");
        c.set_alpha(3.0).unwrap();
        assert!(c.frontier.is_none(), "set_alpha must invalidate");
        // Replanning after the alpha change agrees with a fresh simplex.
        let s = c.plan(Energy::from_joules(3.0)).unwrap();
        let reference = c.problem().solve(Energy::from_joules(3.0)).unwrap();
        assert!((s.objective(3.0) - reference.objective(3.0)).abs() < 1e-9);
        assert_eq!(c.frontier_builds, 2, "one rebuild for the new alpha");
        assert_ne!(c.frontier, Some(cached), "rebuilt for the new alpha");
    }

    #[test]
    fn alpha_can_change_at_runtime() {
        let mut c = ReapController::new(problem());
        // alpha = 1 at 3 J: all DP5 (best accuracy per joule).
        let low = c.plan(Energy::from_joules(3.0)).unwrap();
        assert!(low.fraction_for(5) > 0.0);
        assert_eq!(low.fraction_for(1), 0.0);
        // Strongly accuracy-weighted: DP1 becomes worth it.
        c.set_alpha(8.0).unwrap();
        let high = c.plan(Energy::from_joules(3.0)).unwrap();
        assert!(
            high.fraction_for(1) > 0.0,
            "alpha=8 should favour DP1: {high}"
        );
        assert!(c.set_alpha(-1.0).is_err());
        assert!(c.set_alpha(f64::NAN).is_err());
    }
}
