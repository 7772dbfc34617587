//! `plan_horizon` against the dense joint LP it solves.
//!
//! The library plans a horizon as the taut string through the battery
//! tube (see the `horizon` module docs). This file keeps the LP that the
//! module docs state as the specification, built as a dense
//! `H * (N + 3)`-variable tableau and solved by the `reap-lp` simplex, and
//! checks the two against each other over random windows: the same
//! starvation verdict, the same optimum, and a plan that is feasible in
//! the LP's own terms.

use proptest::prelude::*;
use reap_core::{plan_horizon, OperatingPoint, ReapError, ReapProblem};
use reap_lp::{LpProblem, LpStatus, Relation};
use reap_units::{Energy, Power, TimeSpan};

/// Solves the joint horizon LP densely. `None` when it is infeasible (a
/// starved window), otherwise the optimal total objective
/// `sum_h sum_i w_i t_{h,i} / TP`.
fn dense_lp_objective(
    problem: &ReapProblem,
    forecast: &[Energy],
    battery_level: Energy,
    battery_capacity: Energy,
) -> Option<f64> {
    let horizon = forecast.len();
    let n = problem.points().len();
    let tp = problem.period().seconds();
    let alpha = problem.alpha();

    // Variable layout per period h (stride = n + 3):
    //   [t_{h,1} .. t_{h,N}, t_off_h, b_h, s_h]
    let stride = n + 3;
    let t_off_at = |h: usize| h * stride + n;
    let b_at = |h: usize| h * stride + n + 1;
    let s_at = |h: usize| h * stride + n + 2;
    let total_vars = horizon * stride;

    // Objective: normalized weights on the t variables.
    let weights: Vec<f64> = problem.points().iter().map(|p| p.weight(alpha)).collect();
    let w_max = weights.iter().cloned().fold(0.0f64, f64::max);
    let scale = if w_max > 0.0 { 1.0 / (w_max * tp) } else { 1.0 };
    let mut objective = vec![0.0; total_vars];
    for h in 0..horizon {
        for (i, w) in weights.iter().enumerate() {
            objective[h * stride + i] = w * scale;
        }
    }
    let mut lp = LpProblem::try_new_maximize(&objective).expect("finite objective");

    let powers: Vec<f64> = problem.points().iter().map(|p| p.power().watts()).collect();
    let p_off = problem.off_power().watts();

    for h in 0..horizon {
        // Time budget of the period.
        let mut time_row = vec![0.0; total_vars];
        for i in 0..n {
            time_row[h * stride + i] = 1.0;
        }
        time_row[t_off_at(h)] = 1.0;
        lp.subject_to(&time_row, Relation::Eq, tp)
            .expect("valid row");

        // Battery dynamics: b_h - b_{h-1} + c_h + s_h = E_h.
        let mut dyn_row = vec![0.0; total_vars];
        for i in 0..n {
            dyn_row[h * stride + i] = powers[i];
        }
        dyn_row[t_off_at(h)] = p_off;
        dyn_row[b_at(h)] = 1.0;
        dyn_row[s_at(h)] = 1.0;
        let mut rhs = forecast[h].joules();
        if h == 0 {
            rhs += battery_level.joules();
        } else {
            dyn_row[b_at(h - 1)] = -1.0;
        }
        lp.subject_to(&dyn_row, Relation::Eq, rhs)
            .expect("valid row");

        // Battery cap.
        let mut cap_row = vec![0.0; total_vars];
        cap_row[b_at(h)] = 1.0;
        lp.subject_to(&cap_row, Relation::Le, battery_capacity.joules())
            .expect("valid row");
    }

    let solution = lp.solve().expect("the simplex runs");
    match solution.status() {
        LpStatus::Optimal => {}
        LpStatus::Infeasible => return None,
        status => panic!("horizon lp reported {status}"),
    }
    let values = solution.values();
    let mut total = 0.0;
    for h in 0..horizon {
        for (i, w) in weights.iter().enumerate() {
            total += w * values[h * stride + i] / tp;
        }
    }
    Some(total)
}

/// A random window: the problem, the forecast, the initial battery level
/// and the capacity.
type Window = (ReapProblem, Vec<Energy>, Energy, Energy);

/// Strategy: 2..=20 random operating points at a random `alpha`, a 1..=24
/// hour forecast with an all-dark run cut into it, an initial level that
/// is empty, interior or full, and a capacity from tight (a couple of
/// off-state floors) to ample (many saturated hours).
fn arb_window() -> impl Strategy<Value = Window> {
    let point = (10u32..=99, 2u32..=60).prop_map(|(acc, dmw)| (f64::from(acc) / 100.0, dmw));
    (
        proptest::collection::vec(point, 2..=20),
        prop_oneof![Just(0.5), Just(1.0), Just(2.0), Just(4.0)],
        proptest::collection::vec(0.0f64..=1.0, 1..=24),
        (0usize..24, 0usize..=24),
        (0u8..3, 0.0f64..=1.0),
        0.0f64..=1.0,
        prop_oneof![Just(4.0), Just(12.0), Just(30.0)],
    )
        .prop_map(
            |(specs, alpha, levels, (dark_start, dark_len), (b0_kind, b0_frac), cap_u, peak)| {
                let points: Vec<OperatingPoint> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(acc, dmw))| {
                        // Powers strictly above P_off by construction.
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
                let forecast: Vec<Energy> = levels
                    .iter()
                    .enumerate()
                    .map(|(h, &u)| {
                        let dark = (dark_start..dark_start + dark_len).contains(&h);
                        Energy::from_joules(if dark { 0.0 } else { u * peak })
                    })
                    .collect();
                // Log-uniform from 0.2 J (about one off-state floor) to
                // 1 kJ (every hour saturated and then some).
                let capacity = 0.2 * 5000f64.powf(cap_u);
                let level = match b0_kind {
                    0 => 0.0,
                    1 => b0_frac * capacity,
                    _ => capacity,
                };
                (
                    problem,
                    forecast,
                    Energy::from_joules(level),
                    Energy::from_joules(capacity),
                )
            },
        )
}

/// Cases per run: a handful under Miri, where each dense simplex solve is
/// interpreted, the full sweep natively.
const CASES: u32 = if cfg!(miri) { 4 } else { 1024 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn taut_string_matches_the_dense_lp(
        (problem, forecast, level, capacity) in arb_window()
    ) {
        let alpha = problem.alpha();
        let oracle = dense_lp_objective(&problem, &forecast, level, capacity);
        let plan = plan_horizon(&problem, &forecast, level, capacity);
        let (optimum, plan) = match (oracle, plan) {
            (None, Err(ReapError::InfeasibleHorizon)) => return,
            (Some(optimum), Ok(plan)) => (optimum, plan),
            (oracle, plan) => panic!(
                "verdicts differ: lp {oracle:?} vs taut string {plan:?} \
                 (forecast {forecast:?}, level {level}, capacity {capacity})"
            ),
        };

        let total = plan.total_objective(alpha);
        prop_assert!(
            (total - optimum).abs() <= 1e-9,
            "taut string {total} vs lp {optimum} (forecast {forecast:?}, level {level}, \
             capacity {capacity})"
        );

        prop_assert_eq!(plan.schedules.len(), forecast.len());
        prop_assert_eq!(plan.battery_trajectory.len(), forecast.len());
        prop_assert_eq!(plan.spills.len(), forecast.len());
        let floor = problem.min_budget().joules();
        let cap = capacity.joules();
        let mut recomputed = level.joules();
        for (h, harvest) in forecast.iter().enumerate() {
            let energy = plan.schedules[h].energy().joules();
            prop_assert!(
                energy >= floor - 1e-9,
                "hour {h} consumes {energy} J, under the {floor} J floor"
            );
            let spill = plan.spills[h].joules();
            prop_assert!(spill >= 0.0, "hour {h} spills {spill} J");
            recomputed += harvest.joules() - energy - spill;
            let planned = plan.battery_trajectory[h].joules();
            prop_assert!(
                (recomputed - planned).abs() <= 1e-9,
                "hour {h}: recomputed level {recomputed} vs planned {planned}"
            );
            prop_assert!(
                (-1e-9..=cap + 1e-9).contains(&recomputed),
                "hour {h}: level {recomputed} outside [0, {cap}]"
            );
        }
    }
}
