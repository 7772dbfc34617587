//! `RecedingHorizonController::plan` against `plan_horizon`.
//!
//! The controller keeps the last solve's outflows and builds a schedule
//! only for the period it executes. This file pins that to the joint plan
//! over random windows: a sliding window re-solves every period and
//! executes the plan's first schedule (or goes all-off on a starved
//! window), and a shrinking endgame whose battery follows the plan
//! executes the joint plan's schedules from one solve, until the battery
//! leaves the plan or the forecast is revised.

use proptest::prelude::*;
use reap_core::{
    plan_horizon, OperatingPoint, ReapError, ReapProblem, RecedingHorizonController, Schedule,
};
use reap_units::{Energy, Power, TimeSpan};

/// A random case: the problem, a forecast longer than the lookahead, the
/// lookahead, the initial battery level and the capacity.
type Case = (ReapProblem, Vec<Energy>, usize, Energy, Energy);

/// Strategy: 2..=12 random operating points at a random `alpha`, a
/// forecast of the lookahead (1..=24) plus up to 24 more hours with an
/// all-dark run cut into it, an initial level that is empty, interior or
/// full, and a capacity log-uniform from 0.2 J to 1 kJ.
fn arb_case() -> impl Strategy<Value = Case> {
    let point = (10u32..=99, 2u32..=60).prop_map(|(acc, dmw)| (f64::from(acc) / 100.0, dmw));
    (
        proptest::collection::vec(point, 2..=12),
        prop_oneof![Just(0.5), Just(1.0), Just(2.0), Just(4.0)],
        (1usize..=24, proptest::collection::vec(0.0f64..=1.0, 48)),
        (0usize..48, 0usize..=24, 0usize..=24),
        (0u8..3, 0.0f64..=1.0),
        0.0f64..=1.0,
        prop_oneof![Just(4.0), Just(12.0), Just(30.0)],
    )
        .prop_map(
            |(
                specs,
                alpha,
                (lookahead, levels),
                (dark_start, dark_len, extra),
                b0,
                cap_u,
                peak,
            )| {
                let points: Vec<OperatingPoint> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(acc, dmw))| {
                        let power = Power::from_microwatts(50.0 + f64::from(dmw) * 100.0);
                        OperatingPoint::new(i as u8 + 1, format!("P{i}"), acc, power)
                            .expect("valid point")
                    })
                    .collect();
                let problem = ReapProblem::builder()
                    .period(TimeSpan::from_hours(1.0))
                    .off_power(Power::from_microwatts(50.0))
                    .alpha(alpha)
                    .points(points)
                    .build()
                    .expect("valid problem");
                let forecast: Vec<Energy> = levels[..lookahead + extra]
                    .iter()
                    .enumerate()
                    .map(|(h, &u)| {
                        let dark = (dark_start..dark_start + dark_len).contains(&h);
                        Energy::from_joules(if dark { 0.0 } else { u * peak })
                    })
                    .collect();
                let capacity = 0.2 * 5000f64.powf(cap_u);
                let level = match b0 {
                    (0, _) => 0.0,
                    (1, frac) => frac * capacity,
                    _ => capacity,
                };
                (
                    problem,
                    forecast,
                    lookahead,
                    Energy::from_joules(level),
                    Energy::from_joules(capacity),
                )
            },
        )
}

/// The schedule the controller must return for `window`: the joint
/// plan's first, or all-off when the window is starved.
fn expected_first(
    problem: &ReapProblem,
    window: &[Energy],
    level: Energy,
    capacity: Energy,
) -> Schedule {
    match plan_horizon(problem, window, level, capacity) {
        Ok(plan) => plan.schedules[0].clone(),
        Err(ReapError::InfeasibleHorizon) => problem.solve(problem.min_budget()).expect("all-off"),
        Err(e) => panic!("valid window rejected: {e}"),
    }
}

/// Cases per run: a handful under Miri, the full sweep natively.
const CASES: u32 = if cfg!(miri) { 4 } else { 1024 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn sliding_window_executes_each_joint_plans_first_schedule(
        (problem, forecast, lookahead, b0, capacity) in arb_case()
    ) {
        let mut mpc = RecedingHorizonController::new(problem.clone(), lookahead).unwrap();
        let cap = capacity.joules();
        let mut level = b0;
        let starts = forecast.len() - lookahead + 1;
        for start in 0..starts {
            let window = &forecast[start..start + lookahead];
            let schedule = mpc.plan(&forecast[start..], level, capacity).unwrap();
            prop_assert_eq!(&schedule, &expected_first(&problem, window, level, capacity));
            // A lossy execution, so the battery wanders off every plan.
            let next = level.joules() + 0.9 * forecast[start].joules() - schedule.energy().joules();
            level = Energy::from_joules(next.clamp(0.0, cap));
        }
        prop_assert_eq!(mpc.reuses(), 0);
        prop_assert_eq!(mpc.solves() + mpc.fallbacks(), starts as u64);
    }

    #[test]
    fn shrinking_endgame_on_the_plan_solves_once(
        (problem, forecast, lookahead, b0, capacity) in arb_case()
    ) {
        let window = &forecast[..lookahead];
        let Ok(joint) = plan_horizon(&problem, window, b0, capacity) else {
            return;
        };
        let mut mpc = RecedingHorizonController::new(problem, lookahead).unwrap();
        let mut level = b0;
        for h in 0..lookahead {
            let schedule = mpc.plan(&window[h..], level, capacity).unwrap();
            prop_assert_eq!(&schedule, &joint.schedules[h], "period {}", h);
            level = joint.battery_trajectory[h];
        }
        prop_assert_eq!(mpc.solves(), 1);
        prop_assert_eq!(mpc.reuses(), lookahead as u64 - 1);
    }

    #[test]
    fn shrinking_endgame_off_the_plan_resolves(
        (problem, forecast, lookahead, b0, capacity) in arb_case(),
        (at, revise) in (0.0f64..1.0, 0u8..2),
    ) {
        prop_assume!(lookahead >= 2);
        let window = &forecast[..lookahead];
        let Ok(joint) = plan_horizon(&problem, window, b0, capacity) else {
            return;
        };
        // Before period `off` (1..lookahead) either the battery leaves the
        // plan, staying inside [0, cap], or the forecast of that period is
        // revised up; both by far more than the reuse tolerance.
        let off = 1 + (at * (lookahead - 1) as f64) as usize;
        let planned = joint.battery_trajectory[off - 1].joules();
        let mut mpc = RecedingHorizonController::new(problem.clone(), lookahead).unwrap();
        for h in 0..off {
            let level = if h == 0 { b0 } else { joint.battery_trajectory[h - 1] };
            mpc.plan(&window[h..], level, capacity).unwrap();
        }
        let mut rest = window[off..].to_vec();
        let level = if revise == 1 {
            rest[0] += Energy::from_joules(1e-6);
            Energy::from_joules(planned)
        } else if planned + 1e-6 <= capacity.joules() {
            Energy::from_joules(planned + 1e-6)
        } else {
            Energy::from_joules(planned - 1e-6)
        };
        let schedule = mpc.plan(&rest, level, capacity).unwrap();
        prop_assert_eq!(&schedule, &expected_first(&problem, &rest, level, capacity));
        prop_assert_eq!(mpc.reuses(), off as u64 - 1);
        prop_assert_eq!(mpc.solves() + mpc.fallbacks(), 2);
    }
}
