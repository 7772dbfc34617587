//! Variable-dt-vs-scalar equivalence: on a battery scenario
//! [`Scenario::run_event_driven`] must return exactly the hour loop's
//! report ([`Scenario::run`]) **bit for bit on every policy**, with one
//! committed step per trace hour at `dt = 3600` — the same pin the SoA
//! fleet core carries. Only intermittent scenarios run on the event
//! core; every battery scenario runs the one hour loop, so these tests
//! keep the event-core entry point from growing a second battery path.
//!
//! Random scenarios cover all four [`SourceKind`]s, every allocator,
//! both budget modes, and every scalar-capable policy (REAP, all five
//! statics, receding-horizon MPC at several lookaheads). A second,
//! seeded suite checks the sub-hour stepped loop against the hourly
//! run's open-loop budgets.

use proptest::prelude::*;
use reap_core::OperatingPoint;
use reap_harvest::SourceKind;
use reap_sim::{AllocatorKind, BudgetMode, ForecasterKind, Policy, Scenario};
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

#[derive(Debug, Clone)]
struct Setup {
    source: SourceKind,
    seed: u64,
    days: u32,
    alpha: f64,
    allocator: AllocatorKind,
    budget_mode: BudgetMode,
    policy: Policy,
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Reap),
        (1u8..=5).prop_map(Policy::Static),
        prop_oneof![Just(1usize), Just(4), Just(24)]
            .prop_map(|lookahead| Policy::Horizon { lookahead }),
    ]
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    (
        proptest::sample::select(SourceKind::ALL.to_vec()),
        0u64..=u64::MAX,
        1u32..=4,
        prop_oneof![Just(0.5), Just(1.0), Just(2.0)],
        prop_oneof![
            Just(AllocatorKind::Ewma),
            Just(AllocatorKind::Greedy),
            Just(AllocatorKind::UniformDaily),
        ],
        prop_oneof![Just(BudgetMode::OpenLoop), Just(BudgetMode::ClosedLoop)],
        arb_policy(),
    )
        .prop_map(
            |(source, seed, days, alpha, allocator, budget_mode, policy)| Setup {
                source,
                seed,
                days,
                alpha,
                allocator,
                budget_mode,
                policy,
            },
        )
}

fn scenario(setup: &Setup) -> Scenario {
    let trace = setup
        .source
        .instantiate(setup.seed)
        .generate(244, setup.days)
        .expect("bundled sources generate");
    Scenario::builder(trace)
        .points(paper_points())
        .alpha(setup.alpha)
        .allocator(setup.allocator)
        .budget_mode(setup.budget_mode)
        .forecaster(ForecasterKind::Ewma)
        .build()
        .expect("valid scenario")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn event_core_at_one_hour_dt_is_bit_identical_to_the_scalar_engine(
        setup in arb_setup()
    ) {
        let scenario = scenario(&setup);
        prop_assert!(!scenario.uses_event_core(), "default dt is the hour");
        let scalar = scenario.run(setup.policy).expect("scalar engine runs");
        let event = scenario
            .run_event_driven(setup.policy)
            .expect("event core runs");
        // Bit-for-bit: every hour record — budget, plan, realized
        // fraction, battery level — compares exactly equal, not within
        // a tolerance.
        prop_assert_eq!(&event.report, &scalar, "{} diverged", setup.policy);
        // A battery run commits exactly one step per trace hour.
        let hours = u64::from(setup.days) * 24;
        prop_assert_eq!(event.stats.epochs_committed, hours);
    }
}

#[test]
fn every_policy_is_bit_identical_on_one_seeded_month() {
    // The proptest samples the policy space; this pins one full-length
    // trace per source against every policy deterministically, so a
    // divergence names the policy in the failure message.
    let policies: Vec<Policy> = [Policy::Reap, Policy::Horizon { lookahead: 12 }]
        .into_iter()
        .chain((1u8..=5).map(Policy::Static))
        .collect();
    for source in SourceKind::ALL {
        let trace = source.instantiate(2019).generate(244, 7).unwrap();
        let scenario = Scenario::builder(trace)
            .points(paper_points())
            .alpha(1.0)
            .build()
            .unwrap();
        for &policy in &policies {
            let scalar = scenario.run(policy).unwrap();
            let event = scenario.run_event_driven(policy).unwrap();
            assert_eq!(event.report, scalar, "{source:?} under {policy} diverged");
        }
    }
}

#[test]
fn sub_hour_dt_keeps_open_loop_budgets_and_converges_on_the_scalar_run() {
    // At dt < 3600 the hour loop splits each hour's plan into equal
    // steps. Open-loop budgets depend only on the trace, so they must
    // stay bitwise equal to the one-step run's; execution differs
    // only by when within the hour the battery clamps, which is float
    // noise whenever the store never pins — so levels track to 1e-9 J.
    for dt in [1800u32, 900, 600, 60] {
        for source in SourceKind::ALL {
            let trace = source.instantiate(7).generate(244, 3).unwrap();
            let hourly = Scenario::builder(trace.clone())
                .points(paper_points())
                .alpha(1.0)
                .build()
                .unwrap();
            let scalar = hourly.run(Policy::Reap).unwrap();
            let sub = Scenario::builder(trace)
                .points(paper_points())
                .alpha(1.0)
                .dt_seconds(dt)
                .build()
                .unwrap();
            assert!(sub.uses_event_core());
            // `Scenario::run` itself takes the stepped hour loop here.
            let run = sub.run(Policy::Reap).unwrap();
            assert_eq!(run.hours().len(), scalar.hours().len());
            for (e, s) in run.hours().iter().zip(scalar.hours()) {
                assert_eq!(e.harvested, s.harvested, "{source:?} dt={dt}");
                assert_eq!(e.budget, s.budget, "{source:?} dt={dt}");
                assert!(
                    (e.realized_fraction - s.realized_fraction).abs() <= 1e-9,
                    "{source:?} dt={dt} day {} hour {}: fraction {} vs {}",
                    e.day,
                    e.hour,
                    e.realized_fraction,
                    s.realized_fraction
                );
                assert!(
                    (e.battery_level.joules() - s.battery_level.joules()).abs() <= 1e-9,
                    "{source:?} dt={dt} day {} hour {}: level {} vs {}",
                    e.day,
                    e.hour,
                    e.battery_level.joules(),
                    s.battery_level.joules()
                );
            }
        }
    }
}

#[test]
fn intermittent_policy_is_rejected_without_an_intermittent_store() {
    let trace = SourceKind::BodyHeat
        .instantiate(1)
        .generate(244, 1)
        .unwrap();
    let scenario = Scenario::builder(trace)
        .points(paper_points())
        .build()
        .unwrap();
    assert!(scenario.run(Policy::Intermittent).is_err());
    assert!(scenario.run_event_driven(Policy::Intermittent).is_err());
}
