//! Multi-period lookahead planning.
//!
//! REAP plans one activity period at a time against a budget that an
//! energy-allocation layer derived from harvest expectations (the paper
//! cites Kansal et al. and Bhat et al. for that layer). This module closes
//! the loop *optimally*: given a harvest **forecast** over `H` periods and
//! a battery, it chooses every period's allocations and the battery
//! trajectory at once — the upper bound any per-period allocation policy
//! can hope to reach, used as an ablation baseline by the benchmark
//! harness and re-solved every period by the receding-horizon controller.
//!
//! # Specification
//!
//! The plan is an optimum of the joint LP (per period `h`, with battery
//! level `b_h`, spill `s_h`):
//!
//! ```text
//! maximize   sum_h sum_i w_i t_{h,i}
//! s.t.       sum_i t_{h,i} + t_off,h = TP
//!            b_h = b_{h-1} + E_h - c_h - s_h     (b_{-1} = initial level)
//!            b_h <= capacity
//!            c_h = sum_i P_i t_{h,i} + P_off t_off,h
//!            all variables >= 0
//! ```
//!
//! Charge/discharge efficiencies are assumed ideal inside the planner (the
//! simulator still applies them at execution time); this keeps the program
//! linear and errs on the optimistic side, which is the right bias for an
//! upper-bound baseline.
//!
//! # Solution: the taut string
//!
//! The LP is never built. Three facts make it a path problem:
//!
//! * For a fixed consumption `c_h`, period `h`'s best value is the REAP
//!   LP's value at budget `c_h` — the concave, non-decreasing
//!   [`PlanFrontier`] — and it is the same function in every period.
//! * Spill is free, so the value of the *outflow* `o_h = c_h + s_h` is the
//!   frontier capped at its last breakpoint: still concave and
//!   non-decreasing, and any `o_h >= F = P_off * TP` is admissible.
//! * The lossless battery is the only coupling between periods.
//!
//! **The tube.** Let `Y_j = o_1 + .. + o_j - j F` be the cumulative
//! outflow above the floor (`Y_0 = 0`) and `U_j = b_{-1} + E_1 + .. + E_j
//! - j F`. The battery level after period `j` is `U_j - Y_j`, so
//! `0 <= b_j <= capacity` reads `U_j - capacity <= Y_j <= U_j`, and the
//! per-period floor `o_j >= F` makes `Y` non-decreasing.
//!
//! **Floor envelopes.** A non-decreasing `Y` below every later `U_k` and
//! above every earlier lower bound lies in the tighter tube
//! `lower_j = max(0, max_{k<=j} (U_k - capacity))` (prefix max) to
//! `upper_j = min_{k>=j} U_k` (suffix min). Both envelopes are
//! non-decreasing, so the floor constraint is encoded in the tube itself.
//!
//! **Infeasibility.** If `lower_j > upper_j` for some `j`, no outflow path
//! pays every period's floor: the window is starved and the result is
//! [`ReapError::InfeasibleHorizon`]. Otherwise `lower` itself is a feasible
//! path.
//!
//! **The path.** Outflow value is non-decreasing, so the path ends at the
//! top of the last column, `Y_H = upper_H`. Between `(0, 0)` and that
//! end, the taut string — the shortest path through the tube — maximizes
//! the sum of *every* concave function of the increments at once, so it
//! is optimal without consulting the frontier. A funnel scan finds it in
//! `O(H^2)` worst case (`H <= 24` for the controller).
//!
//! **Tie-break.** The joint LP usually has many optima (any reshuffling
//! of energy between periods on the same frontier segment ties). The taut
//! string picks the most uniform one: consumption is constant between the
//! points where the string touches the tube.
//!
//! **Schedules.** Period `j`'s outflow `F + Y_j - Y_{j-1}` becomes its
//! schedule through [`PlanFrontier::solve`], which saturates at the
//! frontier's last breakpoint; the excess is reported as spill. The
//! taut string itself yields only the outflows and the battery levels,
//! so the receding-horizon controller keeps those and builds the
//! schedule of the one period it executes; [`plan_horizon`] builds all
//! of them.

use reap_units::{Energy, TimeSpan};

use crate::frontier::PlanFrontier;
use crate::{ReapError, ReapProblem, Schedule};

/// How far (J) the floor envelopes may cross before a window counts as
/// starved: float dust from summing the forecast, not a real deficit.
const CROSSING_TOLERANCE_J: f64 = 1e-9;

/// The output of [`plan_horizon`]: one schedule per forecast period plus
/// the planned battery trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonPlan {
    /// One schedule per period, in forecast order.
    pub schedules: Vec<Schedule>,
    /// Planned battery level at the *end* of each period.
    pub battery_trajectory: Vec<Energy>,
    /// Planned spill (energy lost to a full battery) per period.
    pub spills: Vec<Energy>,
}

impl HorizonPlan {
    /// Total objective over the horizon (sum of per-period `J(t)`).
    #[must_use]
    pub fn total_objective(&self, alpha: f64) -> f64 {
        self.schedules
            .iter()
            .map(|s| s.objective(alpha))
            .sum::<f64>()
    }

    /// Total active time over the horizon.
    #[must_use]
    pub fn total_active_time(&self) -> TimeSpan {
        self.schedules.iter().map(Schedule::active_time).sum()
    }
}

/// Jointly plans `forecast.len()` periods with full knowledge of the
/// forecast and the battery (see the module docs for the model and the
/// taut-string solution).
///
/// # Errors
///
/// * [`ReapError::InvalidParameter`] for an empty forecast, negative or
///   non-finite forecast energies, or a battery state that is not finite
///   or lies outside `[0, capacity]`.
/// * [`ReapError::InfeasibleHorizon`] when the battery plus the forecast
///   cannot pay every period's off-state floor `P_off * TP` (a starved
///   window).
pub fn plan_horizon(
    problem: &ReapProblem,
    forecast: &[Energy],
    battery_level: Energy,
    battery_capacity: Energy,
) -> Result<HorizonPlan, ReapError> {
    let frontier = problem.frontier();
    let mut scratch = HorizonScratch::default();
    plan_outflows(
        &frontier,
        forecast,
        battery_level,
        battery_capacity,
        &mut scratch,
    )?;
    let mut schedules = Vec::with_capacity(forecast.len());
    let mut spills = Vec::with_capacity(forecast.len());
    for &outflow in &scratch.outflow {
        // The frontier saturates at its last breakpoint. Whatever the
        // schedule does not burn is spilled, including the float dust of
        // its sub-microsecond allocation drop, so the trajectory stays
        // exact.
        let schedule = frontier.solve(Energy::from_joules(outflow))?;
        spills.push(Energy::from_joules(
            (outflow - schedule.energy().joules()).max(0.0),
        ));
        schedules.push(schedule);
    }
    Ok(HorizonPlan {
        schedules,
        battery_trajectory: scratch.level.into_iter().map(Energy::from_joules).collect(),
        spills,
    })
}

/// The reused buffers of one taut-string solve: the tube, the path, and
/// the per-period outflows and levels [`plan_outflows`] leaves behind.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HorizonScratch {
    lower: Vec<f64>,
    upper: Vec<f64>,
    path: Vec<f64>,
    /// Planned outflow (consumption plus spill) of each period, J.
    pub(crate) outflow: Vec<f64>,
    /// Planned battery level at the end of each period, J.
    pub(crate) level: Vec<f64>,
}

/// Rejects a window [`plan_horizon`] cannot plan (see its `# Errors`).
pub(crate) fn validate(
    forecast: &[Energy],
    battery_level: Energy,
    battery_capacity: Energy,
) -> Result<(), ReapError> {
    if forecast.is_empty() {
        return Err(ReapError::InvalidParameter("empty forecast".into()));
    }
    if forecast.iter().any(|e| !e.is_finite() || e.is_negative()) {
        return Err(ReapError::InvalidParameter(
            "forecast energies must be finite and non-negative".into(),
        ));
    }
    if !battery_capacity.is_finite()
        || battery_capacity.joules() <= 0.0
        || !battery_level.is_finite()
        || battery_level.is_negative()
        || battery_level > battery_capacity
    {
        return Err(ReapError::InvalidParameter(format!(
            "battery state {battery_level} / {battery_capacity} is invalid"
        )));
    }
    Ok(())
}

/// The taut-string plan of `forecast` on `frontier`, written into
/// `scratch`: each period's outflow and end-of-period battery level. No
/// schedule is built, so a caller that re-plans every period pays for
/// the one it executes.
///
/// # Errors
///
/// As [`plan_horizon`].
pub(crate) fn plan_outflows(
    frontier: &PlanFrontier,
    forecast: &[Energy],
    battery_level: Energy,
    battery_capacity: Energy,
    scratch: &mut HorizonScratch,
) -> Result<(), ReapError> {
    validate(forecast, battery_level, battery_capacity)?;
    let HorizonScratch {
        lower,
        upper,
        path,
        outflow,
        level: levels,
    } = scratch;
    let floor = frontier.floor_j();
    let capacity = battery_capacity.joules();
    tube(
        forecast,
        battery_level.joules(),
        capacity,
        floor,
        lower,
        upper,
    )?;
    taut_string(lower, upper, path);

    outflow.clear();
    levels.clear();
    let mut level = battery_level.joules();
    for (harvest, step) in forecast.iter().zip(path.windows(2)) {
        let out = floor + (step[1] - step[0]).max(0.0);
        level = (level + harvest.joules() - out).clamp(0.0, capacity);
        outflow.push(out);
        levels.push(level);
    }
    Ok(())
}

/// The floor-enveloped tube `(lower, upper)` of the cumulative outflow
/// above the floor, indexed `0..=H` with both ends pinned: `Y_0 = 0` and
/// `Y_H = upper_H`.
///
/// # Errors
///
/// [`ReapError::InfeasibleHorizon`] when the envelopes cross.
fn tube(
    forecast: &[Energy],
    level: f64,
    capacity: f64,
    floor: f64,
    lower: &mut Vec<f64>,
    upper: &mut Vec<f64>,
) -> Result<(), ReapError> {
    upper.clear();
    lower.clear();
    upper.push(0.0);
    lower.push(0.0);
    let mut top = level;
    let mut bottom = 0.0f64;
    for harvest in forecast {
        top += harvest.joules() - floor;
        bottom = bottom.max(top - capacity);
        upper.push(top);
        lower.push(bottom);
    }
    // Suffix min over periods 1..=H; `Y_0 = 0` is pinned separately.
    for j in (1..forecast.len()).rev() {
        upper[j] = upper[j].min(upper[j + 1]);
    }
    for (lo, &hi) in lower.iter_mut().zip(upper.iter()) {
        if *lo > hi + CROSSING_TOLERANCE_J {
            return Err(ReapError::InfeasibleHorizon);
        }
        *lo = lo.min(hi);
    }
    let end = forecast.len();
    lower[end] = upper[end];
    Ok(())
}

/// The taut string through `lower[j] <= y[j] <= upper[j]` between the
/// pinned ends `y[0]` and `y[H] = upper[H]`, written into `path`.
///
/// Funnel scan: from the current vertex, walk forward keeping the cone of
/// slopes that clear every lower bound and stay under every upper bound
/// seen so far. When a new column falls outside the cone, the string
/// bends at the contact that set the violated side of the cone and the
/// scan restarts there.
fn taut_string(lower: &[f64], upper: &[f64], path: &mut Vec<f64>) {
    let end = upper.len() - 1;
    path.clear();
    path.resize(end + 1, 0.0);
    let mut from = 0;
    while from < end {
        let y0 = path[from];
        let (mut floor_slope, mut floor_at) = (f64::NEG_INFINITY, from);
        let (mut ceil_slope, mut ceil_at) = (f64::INFINITY, from);
        let mut bend = None;
        for j in from + 1..=end {
            let run = (j - from) as f64;
            let to_lower = (lower[j] - y0) / run;
            let to_upper = (upper[j] - y0) / run;
            if to_lower > ceil_slope {
                // The string must rise above the ceiling contact: bend
                // down there.
                bend = Some((ceil_at, upper[ceil_at]));
                break;
            }
            if to_upper < floor_slope {
                // The string must dip below the floor contact: bend up
                // there.
                bend = Some((floor_at, lower[floor_at]));
                break;
            }
            if to_lower >= floor_slope {
                (floor_slope, floor_at) = (to_lower, j);
            }
            if to_upper <= ceil_slope {
                (ceil_slope, ceil_at) = (to_upper, j);
            }
        }
        let (to, y1) = bend.unwrap_or((end, upper[end]));
        let slope = (y1 - y0) / (to - from) as f64;
        for (step, y) in path[from + 1..to].iter_mut().enumerate() {
            *y = y0 + slope * (step + 1) as f64;
        }
        path[to] = y1;
        from = to;
    }
}

#[cfg(test)]
#[expect(
    clippy::needless_range_loop,
    reason = "the trajectory checks walk periods by index, as the model is written"
)]
mod tests {
    use super::*;
    use crate::OperatingPoint;
    use reap_units::Power;

    fn paper_problem(alpha: f64) -> ReapProblem {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        ReapProblem::builder()
            .alpha(alpha)
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
    fn validates_inputs() {
        let p = paper_problem(1.0);
        assert!(plan_horizon(&p, &[], joules(0.0), joules(60.0)).is_err());
        assert!(plan_horizon(&p, &[joules(-1.0)], joules(0.0), joules(60.0)).is_err());
        assert!(plan_horizon(&p, &[joules(1.0)], joules(70.0), joules(60.0)).is_err());
        assert!(plan_horizon(&p, &[joules(1.0)], joules(0.0), joules(0.0)).is_err());
    }

    #[test]
    fn rejects_non_finite_battery_level_up_front() {
        let p = paper_problem(1.0);
        for level in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let result = plan_horizon(&p, &[joules(1.0); 3], joules(level), joules(60.0));
            assert!(
                matches!(result, Err(ReapError::InvalidParameter(_))),
                "level {level}: {result:?}"
            );
        }
    }

    #[test]
    fn single_period_matches_per_period_solver() {
        // With one period and no banking benefit, the horizon plan equals
        // the per-period REAP solve at budget = battery + harvest.
        let p = paper_problem(1.0);
        let plan = plan_horizon(&p, &[joules(5.0)], joules(0.0), joules(60.0)).unwrap();
        let single = p.solve(joules(5.0)).unwrap();
        assert!(
            (plan.total_objective(1.0) - single.objective(1.0)).abs() < 1e-9,
            "horizon {} vs single {}",
            plan.total_objective(1.0),
            single.objective(1.0)
        );
    }

    #[test]
    fn lookahead_beats_spend_as_harvested_on_daynight() {
        // A day/night forecast: 12 bright hours, 12 dark ones. Myopic
        // spend-as-harvested wastes the surplus; lookahead banks it.
        let p = paper_problem(1.0);
        let mut forecast = vec![joules(8.0); 12];
        forecast.extend(vec![joules(0.0); 12]);
        let plan = plan_horizon(&p, &forecast, joules(0.0), joules(60.0)).unwrap();

        let mut myopic_total = 0.0;
        for &e in &forecast {
            let budget = e.max(p.min_budget());
            // Myopic policy: spend only what the hour harvests.
            if e >= p.min_budget() {
                myopic_total += p.solve(budget).unwrap().objective(1.0);
            }
        }
        assert!(
            plan.total_objective(1.0) > myopic_total + 0.5,
            "lookahead {} vs myopic {}",
            plan.total_objective(1.0),
            myopic_total
        );
        // Night periods actually run (banked energy).
        let night_active: f64 = plan.schedules[12..]
            .iter()
            .map(|s| s.active_time().seconds())
            .sum();
        assert!(night_active > 3600.0, "night active = {night_active}");
    }

    #[test]
    fn battery_cap_forces_spill() {
        // A huge harvest with a tiny battery cannot all be banked.
        let p = paper_problem(1.0);
        let forecast = vec![joules(50.0), joules(0.0)];
        let plan = plan_horizon(&p, &forecast, joules(0.0), joules(5.0)).unwrap();
        let spilled: f64 = plan.spills.iter().map(|s| s.joules()).sum();
        assert!(spilled > 20.0, "spilled only {spilled} J");
        for (b, s) in plan.battery_trajectory.iter().zip(&plan.schedules) {
            assert!(b.joules() <= 5.0 + 1e-6);
            assert!(s.is_feasible(joules(100.0), 1e-6)); // time accounting holds
        }
    }

    #[test]
    fn energy_is_conserved_along_the_trajectory() {
        let p = paper_problem(1.0);
        let forecast = vec![joules(3.0), joules(6.0), joules(1.0), joules(0.5)];
        let b0 = joules(10.0);
        let cap = joules(30.0);
        let plan = plan_horizon(&p, &forecast, b0, cap).unwrap();
        let mut level = b0.joules();
        for h in 0..forecast.len() {
            let consumed = plan.schedules[h].energy().joules();
            let spilled = plan.spills[h].joules();
            level = level + forecast[h].joules() - consumed - spilled;
            assert!(
                (level - plan.battery_trajectory[h].joules()).abs() < 1e-6,
                "hour {h}: recomputed {level} vs planned {}",
                plan.battery_trajectory[h].joules()
            );
            assert!(level >= -1e-6);
        }
    }

    #[test]
    fn lookahead_never_loses_to_uniform_allocation() {
        // Splitting the total harvest uniformly is a feasible horizon
        // policy (given enough battery), so the optimal plan must match
        // or beat it.
        let p = paper_problem(2.0);
        let forecast = vec![joules(2.0), joules(7.0), joules(4.0), joules(0.0)];
        let total: f64 = forecast.iter().map(|e| e.joules()).sum();
        let plan = plan_horizon(&p, &forecast, joules(0.0), joules(1000.0)).unwrap();
        let per_hour = total / forecast.len() as f64;
        let uniform_total: f64 = (0..forecast.len())
            .map(|_| {
                p.solve(joules(per_hour.max(p.min_budget().joules())))
                    .unwrap()
                    .objective(2.0)
            })
            .sum();
        // Uniform ignores causality (it may spend before harvesting), so
        // only assert near-domination.
        assert!(
            plan.total_objective(2.0) >= uniform_total - 1e-6,
            "lookahead {} vs uniform {}",
            plan.total_objective(2.0),
            uniform_total
        );
    }
}
