//! The receding-horizon (MPC) runtime controller.
//!
//! [`plan_horizon`] solves the joint multi-period plan — the offline upper
//! bound. This module promotes it into a **runtime policy**: each period
//! the controller receives a harvest *forecast* window and the current
//! battery state, plans the window jointly, executes only the first
//! period's schedule, and re-plans next period with the window slid
//! forward (receding horizon / model-predictive control). The plan is the
//! taut string through the window's battery tube (see [`plan_horizon`]),
//! evaluated on a [`PlanFrontier`] the controller builds once.
//!
//! Two practicalities separate this from naively calling [`plan_horizon`]
//! in a loop:
//!
//! * **Warm starting.** A solve keeps the planned outflow and
//!   end-of-period battery level of every period in reused buffers, with
//!   a copy of the window and the capacity it was solved against; a
//!   schedule is built only when its period executes. When the next call
//!   brings *no new information* — the window shrank by exactly the
//!   executed period (the shrinking-horizon endgame near the end of a
//!   trace), the remaining forecast is unchanged, the battery landed
//!   where the plan predicted, and the capacity is the same — the cached
//!   plan is provably still optimal and its next period executes without
//!   re-solving. Any deviation (new forecast entries, forecast revisions,
//!   brownouts) triggers a fresh solve. Past the one returned
//!   [`Schedule`], a plan allocates nothing once the buffers have grown
//!   to the lookahead.
//! * **Starvation fallback.** The joint plan forces every period to pay the
//!   off-state floor `P_off * TP`; a dark window with a dead battery
//!   makes it infeasible. A real device cannot throw an error at
//!   midnight, so the controller falls back to the all-off schedule (the
//!   engine's brownout accounting then records the shortfall honestly).
//!
//! [`plan_horizon`]: crate::plan_horizon

use reap_units::Energy;

use crate::frontier::PlanFrontier;
use crate::horizon::{plan_outflows, validate, HorizonScratch};
use crate::schedule::Schedule;
use crate::{ReapError, ReapProblem};

/// Absolute tolerance (J) for "the world evolved exactly as planned"
/// checks guarding tail reuse. Anything coarser risks executing a stale
/// plan; anything finer defeats reuse through harmless float noise.
const REUSE_TOLERANCE_J: f64 = 1e-9;

/// What the last solve was solved against. Its outflows and levels stay
/// in the controller's [`HorizonScratch`]; the buffers are reused across
/// solves, so the cache is invalidated by a flag, not dropped.
#[derive(Debug, Clone, Default, PartialEq)]
struct PendingPlan {
    /// The window of the last solve.
    window: Vec<Energy>,
    /// The bits of the battery capacity it was solved for.
    capacity_bits: u64,
    /// The next period of the window to execute.
    next: usize,
    /// Whether the rest of the window may still be executed as planned.
    valid: bool,
}

/// Receding-horizon runtime controller (see module docs).
///
/// # Examples
///
/// ```
/// use reap_core::{OperatingPoint, ReapProblem, RecedingHorizonController};
/// use reap_units::{Energy, Power};
///
/// # fn main() -> Result<(), reap_core::ReapError> {
/// let problem = ReapProblem::builder()
///     .point(OperatingPoint::new(1, "DP1", 0.94, Power::from_milliwatts(2.76))?)
///     .build()?;
/// let mut mpc = RecedingHorizonController::new(problem, 4)?;
/// // Bright now, dark later: the controller banks for the dark hours.
/// let forecast = [8.0, 0.0, 0.0, 0.0].map(Energy::from_joules);
/// let schedule = mpc.plan(&forecast, Energy::ZERO, Energy::from_joules(60.0))?;
/// assert!(schedule.energy().joules() < 8.0, "must bank for the night");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RecedingHorizonController {
    problem: ReapProblem,
    frontier: PlanFrontier,
    lookahead: usize,
    scratch: HorizonScratch,
    pending: PendingPlan,
    solves: u64,
    reuses: u64,
    fallbacks: u64,
}

impl RecedingHorizonController {
    /// Creates a controller that plans at most `lookahead` periods ahead.
    ///
    /// # Errors
    ///
    /// [`ReapError::InvalidParameter`] when `lookahead` is zero.
    pub fn new(
        problem: ReapProblem,
        lookahead: usize,
    ) -> Result<RecedingHorizonController, ReapError> {
        if lookahead == 0 {
            return Err(ReapError::InvalidParameter(
                "lookahead must be at least one period".into(),
            ));
        }
        Ok(RecedingHorizonController {
            frontier: problem.frontier(),
            problem,
            lookahead,
            scratch: HorizonScratch::default(),
            pending: PendingPlan::default(),
            solves: 0,
            reuses: 0,
            fallbacks: 0,
        })
    }

    /// The underlying problem definition.
    #[must_use]
    pub fn problem(&self) -> &ReapProblem {
        &self.problem
    }

    /// The configured lookahead window length, in periods.
    #[must_use]
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// How many horizon plans have been solved so far.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// How many periods were served from a cached plan tail without
    /// re-solving.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many periods fell back to the all-off schedule because the
    /// window was infeasible (dark forecast, dead battery).
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Plans the next period against `forecast` (hour-by-hour expected
    /// harvests, starting with the period about to run; truncated to the
    /// configured lookahead) and the physical battery state.
    ///
    /// # Errors
    ///
    /// [`ReapError::InvalidParameter`] for an empty forecast, negative or
    /// non-finite forecast energies, or a battery state that is not finite
    /// or lies outside `[0, capacity]`. Infeasible (starved) windows are
    /// handled by the all-off fallback, not an error.
    pub fn plan(
        &mut self,
        forecast: &[Energy],
        battery_level: Energy,
        battery_capacity: Energy,
    ) -> Result<Schedule, ReapError> {
        let window = &forecast[..forecast.len().min(self.lookahead)];
        // A rejected call leaves the cache as it was.
        validate(window, battery_level, battery_capacity)?;

        let period = if let Some(period) = self.try_reuse(window, battery_level, battery_capacity) {
            self.reuses += 1;
            period
        } else {
            match plan_outflows(
                &self.frontier,
                window,
                battery_level,
                battery_capacity,
                &mut self.scratch,
            ) {
                Ok(()) => {}
                Err(ReapError::InfeasibleHorizon) => {
                    // Starved window: the device cannot even pay the
                    // off-state floor everywhere. Go dark this period and
                    // re-plan next period with whatever has been harvested.
                    self.fallbacks += 1;
                    return self.problem.solve(self.problem.min_budget());
                }
                // Invalid inputs are caller bugs: they must surface, not
                // be papered over with a dark device.
                Err(e) => return Err(e),
            }
            self.solves += 1;
            let pending = &mut self.pending;
            pending.window.clear();
            pending.window.extend_from_slice(window);
            pending.capacity_bits = battery_capacity.joules().to_bits();
            pending.next = 1;
            pending.valid = true;
            0
        };
        self.frontier
            .solve(Energy::from_joules(self.scratch.outflow[period]))
    }

    /// The cached period to execute next if — and only if — the new
    /// window carries no information the cached plan did not already
    /// account for: the rest of the solved window, the battery where the
    /// plan left it, and the same capacity. Anything else invalidates the
    /// cache.
    fn try_reuse(
        &mut self,
        window: &[Energy],
        battery_level: Energy,
        battery_capacity: Energy,
    ) -> Option<usize> {
        let pending = &mut self.pending;
        let next = pending.next;
        let matches = pending.valid
            && pending.capacity_bits == battery_capacity.joules().to_bits()
            && pending.window[next..].len() == window.len()
            && window
                .iter()
                .zip(&pending.window[next..])
                .all(|(a, b)| (a.joules() - b.joules()).abs() <= REUSE_TOLERANCE_J)
            // Entry `h` of the planned levels is the level *after* period
            // `h`, i.e. the level period `h + 1` expects to inherit.
            && (self.scratch.level[next - 1] - battery_level.joules()).abs() <= REUSE_TOLERANCE_J;
        if !matches {
            pending.valid = false;
            return None;
        }
        pending.next += 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizon::{plan_horizon, HorizonPlan};
    use crate::OperatingPoint;
    use reap_units::Power;

    fn paper_problem() -> ReapProblem {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        ReapProblem::builder()
            .points(
                specs
                    .iter()
                    .map(|&(id, a, mw)| {
                        OperatingPoint::new(id, format!("DP{id}"), a, Power::from_milliwatts(mw))
                            .unwrap()
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    fn joules(j: f64) -> Energy {
        Energy::from_joules(j)
    }

    #[test]
    fn rejects_degenerate_configuration_and_inputs() {
        assert!(RecedingHorizonController::new(paper_problem(), 0).is_err());
        let mut c = RecedingHorizonController::new(paper_problem(), 4).unwrap();
        assert!(c.plan(&[], joules(0.0), joules(60.0)).is_err());
        assert!(c.plan(&[joules(-1.0)], joules(0.0), joules(60.0)).is_err());
        assert!(c.plan(&[joules(1.0)], joules(99.0), joules(60.0)).is_err());
        assert_eq!(c.lookahead(), 4);
    }

    #[test]
    fn rejects_non_finite_battery_level() {
        let mut c = RecedingHorizonController::new(paper_problem(), 4).unwrap();
        let forecast = [joules(3.0), joules(1.0), joules(0.5)];
        // A cached tail must not hide the bad level either.
        let _ = c.plan(&forecast, joules(5.0), joules(60.0)).unwrap();
        for level in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let result = c.plan(&forecast[1..], joules(level), joules(60.0));
            assert!(
                matches!(result, Err(ReapError::InvalidParameter(_))),
                "level {level}: {result:?}"
            );
        }
        assert_eq!(c.fallbacks(), 0);
    }

    #[test]
    fn first_period_matches_the_joint_plan() {
        let mut c = RecedingHorizonController::new(paper_problem(), 24).unwrap();
        let forecast: Vec<Energy> = (0..24)
            .map(|h| joules(if (8..16).contains(&h) { 4.0 } else { 0.0 }))
            .collect();
        let joint = plan_horizon(&paper_problem(), &forecast, joules(10.0), joules(60.0)).unwrap();
        let first = c.plan(&forecast, joules(10.0), joules(60.0)).unwrap();
        assert_eq!(first, joint.schedules[0]);
        assert_eq!(c.solves(), 1);
    }

    #[test]
    fn forecast_is_truncated_to_the_lookahead() {
        let mut short = RecedingHorizonController::new(paper_problem(), 2).unwrap();
        let forecast = vec![joules(2.0), joules(2.0), joules(50.0), joules(50.0)];
        let a = short.plan(&forecast, joules(0.0), joules(60.0)).unwrap();
        let joint2 =
            plan_horizon(&paper_problem(), &forecast[..2], joules(0.0), joules(60.0)).unwrap();
        assert_eq!(a, joint2.schedules[0], "hours beyond lookahead ignored");
    }

    #[test]
    fn shrinking_window_reuses_the_tail_without_resolving() {
        // End-of-trace endgame: the window shrinks by one period per call
        // and the battery follows the plan exactly, so after the first
        // solve every period pops from the cached tail.
        let mut c = RecedingHorizonController::new(paper_problem(), 8).unwrap();
        let forecast: Vec<Energy> = vec![3.0, 1.0, 0.5, 0.0].into_iter().map(joules).collect();
        let cap = joules(60.0);
        let joint: HorizonPlan =
            plan_horizon(&paper_problem(), &forecast, joules(5.0), cap).unwrap();
        let mut level = joules(5.0);
        for h in 0..forecast.len() {
            let s = c.plan(&forecast[h..], level, cap).unwrap();
            assert_eq!(s, joint.schedules[h], "period {h} diverged from joint");
            // Ideal execution: level follows the planned trajectory.
            level = joint.battery_trajectory[h];
        }
        assert_eq!(c.solves(), 1, "only the first period should solve");
        assert_eq!(c.reuses(), 3, "the remaining periods pop the tail");
    }

    #[test]
    fn deviation_from_the_plan_forces_a_resolve() {
        let mut c = RecedingHorizonController::new(paper_problem(), 8).unwrap();
        let forecast: Vec<Energy> = vec![3.0, 1.0, 0.5].into_iter().map(joules).collect();
        let cap = joules(60.0);
        let _ = c.plan(&forecast, joules(5.0), cap).unwrap();
        // The battery did NOT land where the plan predicted (brownout,
        // efficiency losses, surprise clouds...): the tail is stale.
        let _ = c.plan(&forecast[1..], joules(0.3), cap).unwrap();
        assert_eq!(c.solves(), 2);
        assert_eq!(c.reuses(), 0);
    }

    #[test]
    fn cached_tail_still_validates_the_capacity() {
        let mut c = RecedingHorizonController::new(paper_problem(), 8).unwrap();
        let forecast: Vec<Energy> = vec![3.0, 1.0, 0.5].into_iter().map(joules).collect();
        let cap = joules(60.0);
        let joint = plan_horizon(&paper_problem(), &forecast, joules(5.0), cap).unwrap();
        let _ = c.plan(&forecast, joules(5.0), cap).unwrap();
        // The window and the level match the cached plan, but a capacity
        // below the level is not a battery state at all.
        let level = joint.battery_trajectory[0];
        let result = c.plan(&forecast[1..], level, level / 2.0);
        assert!(
            matches!(result, Err(ReapError::InvalidParameter(_))),
            "{result:?}"
        );
        assert_eq!(c.reuses(), 0);
        // The rejected call left the cache alone.
        let s = c.plan(&forecast[1..], level, cap).unwrap();
        assert_eq!(s, joint.schedules[1]);
        assert_eq!((c.solves(), c.reuses()), (1, 1));
    }

    #[test]
    fn changed_capacity_forces_a_resolve() {
        let mut c = RecedingHorizonController::new(paper_problem(), 8).unwrap();
        let forecast: Vec<Energy> = vec![3.0, 1.0, 0.5].into_iter().map(joules).collect();
        let joint = plan_horizon(&paper_problem(), &forecast, joules(5.0), joules(60.0)).unwrap();
        let _ = c.plan(&forecast, joules(5.0), joules(60.0)).unwrap();
        let level = joint.battery_trajectory[0];
        let s = c.plan(&forecast[1..], level, joules(30.0)).unwrap();
        let fresh = plan_horizon(&paper_problem(), &forecast[1..], level, joules(30.0)).unwrap();
        assert_eq!(s, fresh.schedules[0]);
        assert_eq!((c.solves(), c.reuses()), (2, 0));
    }

    #[test]
    fn sliding_window_always_resolves() {
        // A fixed-length window slid forward brings one new forecast hour
        // per period — new information, so no reuse is allowed.
        let mut c = RecedingHorizonController::new(paper_problem(), 3).unwrap();
        let forecast: Vec<Energy> = vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
            .into_iter()
            .map(joules)
            .collect();
        let cap = joules(60.0);
        let mut level = joules(10.0);
        for h in 0..3 {
            let s = c.plan(&forecast[h..h + 3], level, cap).unwrap();
            // Ideal execution.
            level = (level + forecast[h] - s.energy()).min(cap);
        }
        assert_eq!(c.solves(), 3);
        assert_eq!(c.reuses(), 0);
    }

    #[test]
    fn starved_window_falls_back_to_all_off() {
        let mut c = RecedingHorizonController::new(paper_problem(), 4).unwrap();
        // Pitch dark, dead battery: the joint LP is infeasible (the
        // off-state floor cannot be paid), but the controller must still
        // answer.
        let s = c
            .plan(&[Energy::ZERO; 4], Energy::ZERO, joules(60.0))
            .unwrap();
        assert!(s.allocations().iter().all(|a| a.duration.seconds() == 0.0));
        assert!((s.off_time().seconds() - 3600.0).abs() < 1e-6);
        assert_eq!(c.fallbacks(), 1);
        assert_eq!(c.solves(), 0);
        // Recovery: once energy returns, planning resumes normally.
        let s = c
            .plan(&[joules(5.0); 4], joules(1.0), joules(60.0))
            .unwrap();
        assert!(s.active_time().seconds() > 0.0);
        assert_eq!(c.solves(), 1);
    }

    #[test]
    fn banks_bright_hours_for_dark_ones() {
        let mut c = RecedingHorizonController::new(paper_problem(), 12).unwrap();
        let mut forecast = vec![joules(6.0); 4];
        forecast.extend(vec![Energy::ZERO; 8]);
        let s = c.plan(&forecast, joules(0.0), joules(60.0)).unwrap();
        // Myopically the first hour could spend all 6 J; lookahead must
        // leave most of it banked for the 8 dark hours.
        assert!(
            s.energy().joules() < 4.0,
            "first hour spent {} of the 6 J",
            s.energy()
        );
    }
}
