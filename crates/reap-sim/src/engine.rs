//! The hour-by-hour simulation loop.

use std::borrow::Cow;
use std::fmt;

use reap_core::{static_schedule, ReapController, RecedingHorizonController, Schedule, SolverKind};
use reap_harvest::BatterySpec;
use reap_units::Energy;

use crate::report::{HourRecord, SimReport};
use crate::{Scenario, SimError};

/// The planning policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The REAP optimizer (mixes design points each hour).
    Reap,
    /// A single static design point, duty-cycled against the budget.
    Static(u8),
    /// The receding-horizon (MPC) policy: each hour, jointly plan a
    /// `lookahead`-hour harvest forecast (from the scenario's
    /// [`ForecasterKind`](crate::ForecasterKind)), execute only the first
    /// hour, re-plan next hour. Bypasses the budget-allocation layer —
    /// the joint plan *is* the allocation.
    Horizon {
        /// Forecast window length, in hours (must be at least 1).
        lookahead: usize,
    },
    /// The intermittency-aware burst policy (Approxify-style): at every
    /// execution epoch pick the operating point that maximizes the
    /// expected completed work of the *remaining charge burst* — epochs
    /// until the capacitor hits the brownout threshold, each taxed with
    /// the checkpoint cost. Only meaningful on scenarios with an
    /// [`IntermittentConfig`](crate::IntermittentConfig); the scalar
    /// hourly engine rejects it.
    Intermittent,
}

impl Policy {
    /// Short name for reports: borrowed `"REAP"` / `"INT"`, or `"DPk"` /
    /// `"MPCh"` formatted on demand (reports store the [`Policy`]
    /// itself, not a name).
    #[must_use]
    pub fn name(self) -> Cow<'static, str> {
        match self {
            Policy::Reap => Cow::Borrowed("REAP"),
            Policy::Static(id) => Cow::Owned(format!("DP{id}")),
            Policy::Horizon { lookahead } => Cow::Owned(format!("MPC{lookahead}")),
            Policy::Intermittent => Cow::Borrowed("INT"),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Reap => f.write_str("REAP"),
            Policy::Static(id) => write!(f, "DP{id}"),
            Policy::Horizon { lookahead } => write!(f, "MPC{lookahead}"),
            Policy::Intermittent => f.write_str("INT"),
        }
    }
}

/// Precomputes the policy-independent budget sequence of the open-loop
/// protocol: the allocator runs against a *virtual* battery that assumes
/// every granted budget is fully spent, so the resulting sequence depends
/// only on the harvest trace.
///
/// Because the sequence is policy-independent, callers running several
/// policies over one scenario ([`Scenario::run_all`],
/// [`run_matrix`](crate::run_matrix)) compute it once and share it.
pub(crate) fn open_loop_budgets(scenario: &Scenario) -> Vec<Energy> {
    let mut allocator = scenario.allocator.instantiate();
    let gain = allocator.battery_gain();
    let battery = scenario.battery.spec();
    let mut virtual_level = scenario.battery.level().joules();
    let floor_j = scenario.problem.min_budget().joules();
    let mut budgets = Vec::with_capacity(scenario.trace.len_hours());
    let mut harvested_last_hour = Energy::ZERO;
    for (i, harvested) in scenario.trace.iter().enumerate() {
        let expected = allocator.expected((i % 24) as u32, harvested_last_hour);
        budgets.push(Energy::from_joules(battery.open_loop_step(
            &mut virtual_level,
            expected.joules(),
            gain,
            harvested.joules(),
            floor_j,
        )));
        harvested_last_hour = harvested;
    }
    budgets
}

/// The per-hour planning pipeline, shared by the battery hour loop below
/// and the event core's intermittent mode ([`crate::clock`]): budget
/// proposal (precomputed open-loop sequence or live allocator), floor
/// clamp, and policy planning (frontier / static duty-cycle /
/// receding-horizon MPC). Callers run [`HourPlanner::plan_hour`] then
/// [`HourPlanner::end_hour`] once per hour, in order.
pub(crate) struct HourPlanner<'s> {
    scenario: &'s Scenario,
    policy: Policy,
    controller: ReapController,
    allocator: Box<dyn reap_harvest::BudgetAllocator>,
    mpc: Option<(
        RecedingHorizonController,
        Box<dyn reap_harvest::HarvestForecaster>,
    )>,
    precomputed: Option<Cow<'s, [Energy]>>,
    /// The store the hour's budget is planned against.
    battery: BatterySpec,
    floor: Energy,
    total_hours: usize,
    harvested_last_hour: Energy,
}

impl<'s> HourPlanner<'s> {
    /// Builds the planning pipeline for one `(scenario, policy)` run
    /// whose store has the constants `battery`.
    ///
    /// Rejects [`Policy::Intermittent`]: burst planning has no hourly
    /// budget layer — the event core handles it directly.
    pub(crate) fn new(
        scenario: &'s Scenario,
        policy: Policy,
        shared_budgets: Option<&'s [Energy]>,
        battery: BatterySpec,
    ) -> Result<Self, SimError> {
        if policy == Policy::Intermittent {
            return Err(SimError::InvalidParameter(
                "Policy::Intermittent has no hourly budget pipeline; it requires a \
                 scenario with an IntermittentConfig (Scenario::builder().intermittent(..))"
                    .to_owned(),
            ));
        }
        // The frontier solver: one precomputed frontier serves all 720
        // hourly plans of a month-long trace.
        let controller =
            ReapController::with_solver(scenario.problem.clone(), SolverKind::Frontier);
        let allocator = scenario.allocator.instantiate();
        let floor = scenario.problem.min_budget();
        // The MPC policy replaces the budget layer entirely: a forecaster
        // feeds a receding-horizon controller that plans the window
        // jointly.
        let mpc = match policy {
            Policy::Horizon { lookahead } => Some((
                RecedingHorizonController::new(scenario.problem.clone(), lookahead)?,
                scenario.forecaster.instantiate(&scenario.trace),
            )),
            _ => None,
        };
        let precomputed: Option<Cow<'s, [Energy]>> =
            match (&mpc, shared_budgets, scenario.budget_mode) {
                (Some(_), _, _) => None,
                (None, Some(budgets), crate::BudgetMode::OpenLoop) => Some(Cow::Borrowed(budgets)),
                (None, None, crate::BudgetMode::OpenLoop) => {
                    Some(Cow::Owned(open_loop_budgets(scenario)))
                }
                (None, _, crate::BudgetMode::ClosedLoop) => None,
            };
        Ok(HourPlanner {
            scenario,
            policy,
            controller,
            allocator,
            mpc,
            precomputed,
            battery,
            floor,
            total_hours: scenario.trace.len_hours(),
            harvested_last_hour: Energy::ZERO,
        })
    }

    /// Budget-and-plan for trace hour `i`: the allocation layer proposes
    /// a budget first — open-loop from the precomputed,
    /// policy-independent sequence, closed-loop from this run's own
    /// battery trajectory — and the policy plans against it. Optimistic
    /// proposals are fine — execution browns out when the actual supply
    /// falls short — but the floor must stay reachable whenever the
    /// battery (or the hour's own harvest, which execution draws first)
    /// can still provide it, so the monitoring circuitry is kept alive
    /// through dark hours. The MPC policy instead plans its whole
    /// forecast window jointly and reports the planned energy as the
    /// budget. `level_j` is the store's level as the hour starts.
    pub(crate) fn plan_hour(
        &mut self,
        i: usize,
        harvested: Energy,
        level_j: f64,
    ) -> Result<(Energy, Schedule), SimError> {
        let hour = (i % 24) as u32;
        match (self.policy, &mut self.mpc) {
            (Policy::Horizon { lookahead }, Some((mpc_controller, forecaster))) => {
                let window = lookahead.min(self.total_hours - i);
                let forecast = forecaster.forecast(i, window);
                let planned = mpc_controller.plan(
                    &forecast,
                    Energy::from_joules(level_j),
                    Energy::from_joules(self.battery.capacity_j()),
                )?;
                Ok((planned.energy(), planned))
            }
            _ => {
                let budget = match &self.precomputed {
                    Some(budgets) => budgets[i],
                    None => {
                        // Closed loop: the proposal is clamped up to the
                        // reachable floor only; execution browns out an
                        // optimistic one.
                        let expected = self.allocator.expected(hour, self.harvested_last_hour);
                        let proposed = self.battery.propose(
                            expected.joules(),
                            level_j,
                            self.allocator.battery_gain(),
                        );
                        let supply = self.battery.deliverable_j(level_j) + harvested.joules();
                        Energy::from_joules(proposed.max(self.floor.joules().min(supply)))
                    }
                };
                let planned = match self.policy {
                    Policy::Reap => self.controller.plan(budget)?,
                    Policy::Static(id) => {
                        let effective = budget.max(self.floor);
                        static_schedule(&self.scenario.problem, id, effective)?
                    }
                    Policy::Horizon { .. } | Policy::Intermittent => {
                        unreachable!("handled above / rejected in new()")
                    }
                };
                Ok((budget, planned))
            }
        }
    }

    /// Closes trace hour `i`: the forecaster observes the realized
    /// harvest and the allocator's last-hour memory advances. Call after
    /// the hour's record is final, exactly once per completed hour.
    pub(crate) fn end_hour(&mut self, i: usize, harvested: Energy) {
        if let Some((_, forecaster)) = &mut self.mpc {
            forecaster.observe(i, harvested);
        }
        self.harvested_last_hour = harvested;
    }

    /// The name of the energy layer that actually drove the run: the
    /// budget allocator for the myopic policies, the forecaster for the
    /// MPC (which bypasses the allocator entirely).
    pub(crate) fn energy_layer(&self) -> &'static str {
        match &self.mpc {
            Some((_, forecaster)) => forecaster.name(),
            None => self.allocator.name(),
        }
    }
}

/// Executes one hour's `needed` energy against the real `level_j`, as
/// `steps` equal steps ([`BatterySpec::execute`]). Returns the realized
/// fraction of `needed` in `[0, 1]`. At one step the step sees the
/// hour's own harvest and planned energy, not a split of them.
fn execute_step(
    battery: BatterySpec,
    level_j: &mut f64,
    harvested: Energy,
    needed: Energy,
    steps: u32,
) -> f64 {
    if steps == 1 {
        return battery.execute(level_j, harvested.joules(), needed.joules());
    }
    // Spread the hour uniformly over its steps and form the realized
    // fraction from the joules actually supplied.
    let frac = 1.0 / f64::from(steps);
    let (step_needed, step_harvest) = ((needed * frac).joules(), (harvested * frac).joules());
    let mut supplied = 0.0f64;
    for _ in 0..steps {
        supplied += step_needed * battery.execute(level_j, step_harvest, step_needed);
    }
    if needed.joules() > 0.0 {
        (supplied / needed.joules()).clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// Runs `scenario` under `policy`, optionally against an open-loop budget
/// sequence the caller already computed (`None` derives budgets from the
/// scenario's own mode, exactly as before).
///
/// Intermittent scenarios (an
/// [`IntermittentConfig`](crate::IntermittentConfig)) are routed to the
/// event core in [`crate::clock`]; every battery scenario takes the hour
/// loop below, which executes each hour as `3600 / dt_seconds` equal
/// steps.
pub(crate) fn run_with_budgets(
    scenario: &Scenario,
    policy: Policy,
    shared_budgets: Option<&[Energy]>,
) -> Result<SimReport, SimError> {
    if scenario.intermittent.is_some() {
        return crate::clock::run_event_driven_with_budgets(scenario, policy, shared_budgets)
            .map(|run| run.report);
    }
    // Fail fast on unknown static ids.
    if let Policy::Static(id) = policy {
        scenario.problem.point(id)?;
    }
    let battery = scenario.battery.spec();
    let mut planner = HourPlanner::new(scenario, policy, shared_budgets, battery)?;
    let mut level_j = scenario.battery.level().joules();
    let total_hours = scenario.trace.len_hours();
    let mut hours = Vec::with_capacity(total_hours);
    let steps = 3600 / scenario.dt_seconds;

    for (i, harvested) in scenario.trace.iter().enumerate() {
        let day = (i / 24) as u32;
        let hour = (i % 24) as u32;
        let (budget, planned) = planner.plan_hour(i, harvested, level_j)?;
        let realized_fraction =
            execute_step(battery, &mut level_j, harvested, planned.energy(), steps);
        hours.push(HourRecord {
            day,
            hour,
            harvested,
            budget,
            planned,
            realized_fraction,
            battery_level: Energy::from_joules(level_j),
        });
        planner.end_hour(i, harvested);
    }

    let energy_layer = planner.energy_layer();
    Ok(SimReport::new(
        policy,
        energy_layer,
        scenario.problem.alpha(),
        hours,
    ))
}

/// Runs `scenario` under `policy` with budgets derived from the
/// scenario's own mode.
pub(crate) fn run(scenario: &Scenario, policy: Policy) -> Result<SimReport, SimError> {
    run_with_budgets(scenario, policy, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocatorKind, Scenario};
    use reap_core::OperatingPoint;
    use reap_harvest::{Battery, HarvestTrace};
    use reap_units::Power;

    fn paper_points() -> Vec<OperatingPoint> {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        specs
            .iter()
            .map(|&(id, a, mw)| {
                OperatingPoint::new(id, format!("DP{id}"), a, Power::from_milliwatts(mw)).unwrap()
            })
            .collect()
    }

    fn scenario(seed: u64) -> Scenario {
        Scenario::builder(HarvestTrace::september_like(seed))
            .points(paper_points())
            .build()
            .unwrap()
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::Reap.name(), "REAP");
        assert_eq!(Policy::Static(3).name(), "DP3");
        assert_eq!(Policy::Horizon { lookahead: 24 }.name(), "MPC24");
        assert_eq!(Policy::Horizon { lookahead: 4 }.to_string(), "MPC4");
        assert_eq!(Policy::Intermittent.name(), "INT");
        assert_eq!(Policy::Intermittent.to_string(), "INT");
    }

    /// A 3-day periodic trace (2 J for hours 6..=17, dark otherwise) on a
    /// loss-free battery: the setting where MPC-with-perfect-forecast
    /// must reproduce the joint-LP optimum exactly.
    fn periodic_72h() -> HarvestTrace {
        let hourly: Vec<reap_units::Energy> = (0..72)
            .map(|t| {
                let h = t % 24;
                reap_units::Energy::from_joules(if (6..=17).contains(&h) { 2.0 } else { 0.0 })
            })
            .collect();
        HarvestTrace::new(244, hourly).unwrap()
    }

    fn lossless_battery() -> Battery {
        Battery::new(
            reap_units::Energy::from_joules(60.0),
            reap_units::Energy::from_joules(30.0),
            1.0,
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn mpc_with_perfect_forecast_matches_the_joint_lp_optimum() {
        // The tentpole acceptance bar: Policy::Horizon { lookahead: 24 }
        // driven by the zero-error oracle realizes, hour by hour, the
        // same total objective as the offline joint LP over the whole
        // 72-hour trace — receding-horizon execution loses nothing when
        // the forecast is exact.
        let trace = periodic_72h();
        let scenario = Scenario::builder(trace.clone())
            .points(paper_points())
            .battery(lossless_battery())
            .forecaster(crate::ForecasterKind::Oracle {
                rel_error: 0.0,
                seed: 0,
            })
            .build()
            .unwrap();
        let report = scenario.run(Policy::Horizon { lookahead: 24 }).unwrap();
        // Perfect forecast + loss-free battery: every plan executes.
        assert_eq!(report.brownout_hours(), 0);

        let forecast: Vec<reap_units::Energy> = trace.iter().collect();
        let joint = reap_core::plan_horizon(
            scenario.problem(),
            &forecast,
            reap_units::Energy::from_joules(30.0),
            reap_units::Energy::from_joules(60.0),
        )
        .unwrap();
        let mpc_total = report.total_objective(1.0);
        let joint_total = joint.total_objective(1.0);
        assert!(
            (mpc_total - joint_total).abs() < 1e-6,
            "MPC realized {mpc_total} vs joint optimum {joint_total}"
        );
    }

    #[test]
    fn mpc_beats_the_myopic_policies_on_the_solar_month() {
        // Even against REAP with the shared open-loop budget protocol,
        // lookahead over a perfect forecast banks noon surpluses for the
        // night and wins on total objective.
        let trace = HarvestTrace::september_like(31);
        let build = |forecaster| {
            Scenario::builder(trace.clone())
                .points(paper_points())
                .forecaster(forecaster)
                .build()
                .unwrap()
        };
        let oracle = crate::ForecasterKind::Oracle {
            rel_error: 0.0,
            seed: 0,
        };
        let mpc = build(oracle)
            .run(Policy::Horizon { lookahead: 24 })
            .unwrap();
        let reap = build(oracle).run(Policy::Reap).unwrap();
        assert!(
            mpc.total_objective(1.0) > reap.total_objective(1.0),
            "MPC24 {} vs REAP {}",
            mpc.total_objective(1.0),
            reap.total_objective(1.0)
        );
    }

    #[test]
    fn noisy_mpc_still_beats_closed_loop_reap_on_indoor_pv() {
        // Forecast-error robustness acceptance bar: at ±20% hourly
        // forecast error the receding-horizon policy still beats REAP's
        // closed-loop mean accuracy on the indoor-photovoltaic scenario.
        use reap_harvest::SourceKind;
        let trace = SourceKind::IndoorPhotovoltaic
            .instantiate(7)
            .generate(244, 10)
            .unwrap();
        let mpc = Scenario::builder(trace.clone())
            .points(paper_points())
            .forecaster(crate::ForecasterKind::Oracle {
                rel_error: 0.2,
                seed: 11,
            })
            .build()
            .unwrap()
            .run(Policy::Horizon { lookahead: 24 })
            .unwrap();
        let reap = Scenario::builder(trace)
            .points(paper_points())
            .budget_mode(crate::BudgetMode::ClosedLoop)
            .build()
            .unwrap()
            .run(Policy::Reap)
            .unwrap();
        assert!(
            mpc.mean_accuracy() > reap.mean_accuracy(),
            "noisy MPC24 accuracy {} vs closed-loop REAP {}",
            mpc.mean_accuracy(),
            reap.mean_accuracy()
        );
    }

    #[test]
    fn mpc_with_ewma_forecaster_runs_and_stays_sane() {
        // The deployable configuration: causal EWMA forecasts only.
        let report = Scenario::builder(HarvestTrace::september_like(17))
            .points(paper_points())
            .build()
            .unwrap()
            .run(Policy::Horizon { lookahead: 12 })
            .unwrap();
        assert_eq!(report.hours().len(), 720);
        assert_eq!(report.policy_name(), "MPC12");
        for h in report.hours() {
            assert!((0.0..=1.0).contains(&h.realized_fraction));
            assert!(!h.battery_level.is_negative());
        }
        // It must actually do work, not hide behind the fallback.
        assert!(report.total_active_time().hours() > 24.0);
    }

    #[test]
    fn mpc_lookahead_one_degenerates_gracefully() {
        let report = Scenario::builder(HarvestTrace::september_like(19))
            .points(paper_points())
            .forecaster(crate::ForecasterKind::Oracle {
                rel_error: 0.0,
                seed: 0,
            })
            .build()
            .unwrap()
            .run(Policy::Horizon { lookahead: 1 })
            .unwrap();
        assert_eq!(report.hours().len(), 720);
        assert_eq!(report.policy_name(), "MPC1");
    }

    #[test]
    fn mpc_rejects_zero_lookahead() {
        let err = scenario(23)
            .run(Policy::Horizon { lookahead: 0 })
            .unwrap_err();
        assert!(matches!(err, SimError::Core(_)));
    }

    #[test]
    fn floor_stays_reachable_on_dark_battery_bright_harvest() {
        // Regression for the open-loop floor clamp: an empty battery in a
        // bright hour must not deny the monitoring floor — the hour's own
        // harvest is banked before the budget is (virtually) spent.
        let hourly: Vec<reap_units::Energy> = (0..24)
            .map(|h| reap_units::Energy::from_joules(if h >= 6 { 5.0 } else { 0.0 }))
            .collect();
        let trace = HarvestTrace::new(244, hourly).unwrap();
        let dead_battery = Battery::new(
            reap_units::Energy::from_joules(60.0),
            reap_units::Energy::ZERO,
            0.95,
            0.95,
        )
        .unwrap();
        let scenario = Scenario::builder(trace)
            .points(paper_points())
            .battery(dead_battery)
            .build()
            .unwrap();
        let floor = scenario.problem().min_budget();
        let budgets = open_loop_budgets(&scenario);
        for (h, &b) in budgets.iter().enumerate().skip(6) {
            assert!(
                b >= floor,
                "hour {h}: budget {b} denies the floor {floor} despite 5 J harvest"
            );
        }
        // Closed loop honors the same reachability rule.
        let closed = Scenario::builder(scenario.trace().clone())
            .points(paper_points())
            .battery(
                Battery::new(
                    reap_units::Energy::from_joules(60.0),
                    reap_units::Energy::ZERO,
                    0.95,
                    0.95,
                )
                .unwrap(),
            )
            .budget_mode(crate::BudgetMode::ClosedLoop)
            .build()
            .unwrap()
            .run(Policy::Reap)
            .unwrap();
        for h in closed.hours().iter().skip(6) {
            assert!(
                h.budget >= floor,
                "closed-loop hour {}: budget {} denies the floor",
                h.hour,
                h.budget
            );
        }
    }

    #[test]
    fn unknown_static_id_fails_fast() {
        let err = scenario(1).run(Policy::Static(77)).unwrap_err();
        assert!(matches!(err, SimError::Core(_)));
    }

    #[test]
    fn month_simulation_produces_720_hours() {
        let report = scenario(1).run(Policy::Reap).unwrap();
        assert_eq!(report.hours().len(), 720);
        assert_eq!(report.policy_name(), "REAP");
        assert_eq!(report.allocator_name(), "ewma");
    }

    #[test]
    fn energy_is_conserved_every_hour() {
        // battery(t) <= battery(t-1) + harvested (charging can only come
        // from harvest; consumption only lowers it).
        let report = scenario(2).run(Policy::Reap).unwrap();
        let initial = Battery::small_wearable().level();
        let mut prev = initial;
        for h in report.hours() {
            assert!(
                h.battery_level.joules() <= prev.joules() + h.harvested.joules() + 1e-9,
                "battery grew out of thin air on day {} hour {}",
                h.day,
                h.hour
            );
            prev = h.battery_level;
        }
    }

    #[test]
    fn realized_fraction_is_sane() {
        let report = scenario(3).run(Policy::Static(1)).unwrap();
        for h in report.hours() {
            assert!((0.0..=1.0).contains(&h.realized_fraction));
        }
    }

    #[test]
    fn reap_beats_static_dp1_over_a_month() {
        let s = scenario(4);
        let reap = s.run(Policy::Reap).unwrap();
        let dp1 = s.run(Policy::Static(1)).unwrap();
        assert!(
            reap.total_objective(1.0) > dp1.total_objective(1.0),
            "REAP {} vs DP1 {}",
            reap.total_objective(1.0),
            dp1.total_objective(1.0)
        );
        // And REAP's active time beats DP1's substantially (paper: +66%).
        assert!(
            reap.total_active_time().hours() > 1.2 * dp1.total_active_time().hours(),
            "active {} vs {}",
            reap.total_active_time(),
            dp1.total_active_time()
        );
    }

    #[test]
    fn allocator_choice_changes_the_outcome() {
        let base = scenario(5);
        let greedy = Scenario::builder(HarvestTrace::september_like(5))
            .points(paper_points())
            .allocator(AllocatorKind::Greedy)
            .build()
            .unwrap();
        let a = base.run(Policy::Reap).unwrap();
        let b = greedy.run(Policy::Reap).unwrap();
        assert_ne!(
            a.total_objective(1.0),
            b.total_objective(1.0),
            "allocators should not behave identically"
        );
    }

    #[test]
    fn determinism() {
        let a = scenario(6).run(Policy::Reap).unwrap();
        let b = scenario(6).run(Policy::Reap).unwrap();
        assert_eq!(a.total_objective(1.0), b.total_objective(1.0));
        assert_eq!(a.hours().len(), b.hours().len());
    }

    #[test]
    fn open_loop_budgets_are_policy_independent() {
        let s = scenario(7);
        let reap = s.run(Policy::Reap).unwrap();
        let dp5 = s.run(Policy::Static(5)).unwrap();
        for (a, b) in reap.hours().iter().zip(dp5.hours()) {
            assert_eq!(a.budget, b.budget, "day {} hour {}", a.day, a.hour);
        }
    }

    #[test]
    fn open_loop_reap_dominates_statics_every_hour() {
        // With identical budgets, LP optimality makes REAP's planned
        // objective at least every static's, hour by hour (the paper's
        // "consistently outperforms or matches").
        let s = scenario(8);
        let reap = s.run(Policy::Reap).unwrap();
        for id in [1u8, 3, 5] {
            let stat = s.run(Policy::Static(id)).unwrap();
            for (a, b) in reap.hours().iter().zip(stat.hours()) {
                assert!(
                    a.planned.objective(1.0) >= b.planned.objective(1.0) - 1e-9,
                    "REAP lost to DP{id} on day {} hour {}",
                    a.day,
                    a.hour
                );
            }
        }
    }

    #[test]
    fn closed_loop_mode_differs_from_open_loop() {
        use crate::BudgetMode;
        let open = scenario(9);
        let closed = Scenario::builder(HarvestTrace::september_like(9))
            .points(paper_points())
            .budget_mode(BudgetMode::ClosedLoop)
            .build()
            .unwrap();
        let a = open.run(Policy::Reap).unwrap();
        let b = closed.run(Policy::Reap).unwrap();
        assert_ne!(a.total_objective(1.0), b.total_objective(1.0));
    }
}
