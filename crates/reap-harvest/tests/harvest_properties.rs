//! Property tests for the harvesting substrate: battery conservation
//! under arbitrary operation sequences, trace invariants across seeds and
//! seasons, source-trait contracts, and allocator sanity.

use proptest::prelude::*;
use reap_harvest::{
    Battery, BudgetAllocator, EwmaAllocator, GreedyAllocator, HarvestTrace, SolarModel, SolarPanel,
    SourceKind, UniformDailyAllocator, WeatherModel,
};
use reap_units::Energy;

#[derive(Debug, Clone)]
enum Op {
    Charge(f64),
    Discharge(f64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0.0f64..20.0).prop_map(Op::Charge),
            (0.0f64..20.0).prop_map(Op::Discharge),
        ],
        1..50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn battery_never_leaves_bounds_and_conserves_energy(ops in arb_ops()) {
        let mut battery = Battery::new(
            Energy::from_joules(60.0),
            Energy::from_joules(30.0),
            0.9,
            0.9,
        ).expect("valid");
        for op in &ops {
            let before = battery.level().joules();
            match op {
                Op::Charge(j) => {
                    let spill = battery.charge(Energy::from_joules(*j));
                    let after = battery.level().joules();
                    // Stored energy never exceeds input (efficiency <= 1).
                    prop_assert!(after - before <= j * 0.9 + 1e-9);
                    prop_assert!(spill.joules() >= -1e-12);
                    prop_assert!(spill.joules() <= *j + 1e-9);
                }
                Op::Discharge(j) => {
                    let got = battery.discharge(Energy::from_joules(*j));
                    let after = battery.level().joules();
                    prop_assert!(got.joules() <= j + 1e-9);
                    // Drawn internal energy >= delivered (efficiency <= 1).
                    prop_assert!(before - after >= got.joules() - 1e-9);
                }
            }
            prop_assert!(battery.level().joules() >= -1e-9);
            prop_assert!(battery.level() <= battery.capacity());
            prop_assert!((0.0..=1.0).contains(&battery.state_of_charge()));
        }
    }

    #[test]
    fn traces_are_nonnegative_and_dark_at_night(seed in 0u64..500, start_day in 1u32..330) {
        let trace = HarvestTrace::generate(
            &SolarModel::golden_colorado(),
            &WeatherModel::new(seed),
            &SolarPanel::sp3_37_wearable(),
            start_day,
            5,
        ).expect("valid");
        for e in trace.iter() {
            prop_assert!(!e.is_negative());
            prop_assert!(e.joules() < 20.0, "implausible hourly harvest {e}");
        }
        for day in 0..trace.days() {
            // Solar midnight and 3am are always dark at mid-latitudes.
            prop_assert_eq!(trace.energy(day, 0), Energy::ZERO);
            prop_assert_eq!(trace.energy(day, 3), Energy::ZERO);
        }
    }

    #[test]
    fn summer_months_out_harvest_winter_months(seed in 0u64..100) {
        let gen = |start: u32| {
            HarvestTrace::generate(
                &SolarModel::golden_colorado(),
                &WeatherModel::new(seed),
                &SolarPanel::sp3_37_wearable(),
                start,
                10,
            ).expect("valid").total().joules()
        };
        let june = gen(160);
        let december = gen(340);
        // Same weather stream; the solar geometry alone must separate the
        // seasons.
        prop_assert!(june > december, "june {june} <= december {december}");
    }

    #[test]
    fn every_source_is_nonnegative_deterministic_and_pv_dark_at_night(
        seed in 0u64..300,
        start_day in 1u32..330,
    ) {
        for kind in SourceKind::ALL {
            let source = kind.instantiate(seed);
            let trace = source.generate(start_day, 4).expect("valid");
            // Non-negative, finite, plausible hourly energies everywhere.
            for e in trace.iter() {
                prop_assert!(!e.is_negative(), "{} went negative", source.name());
                prop_assert!(e.is_finite(), "{} not finite", source.name());
                prop_assert!(
                    e.joules() < 20.0,
                    "{} implausible hourly harvest {e}",
                    source.name()
                );
            }
            // Photovoltaic sources are exactly dark in the dead of night
            // (light off whatever the season, latitude, or schedule).
            if source.is_photovoltaic() {
                for day in 0..trace.days() {
                    for hour in [0u32, 1, 2, 3, 23] {
                        prop_assert_eq!(
                            trace.energy(day, hour),
                            Energy::ZERO,
                            "{} harvested at night (day {}, hour {})",
                            source.name(),
                            day,
                            hour
                        );
                    }
                }
            }
            // Same seed, same trace — bit-identical.
            let again = kind.instantiate(seed).generate(start_day, 4).expect("valid");
            prop_assert_eq!(&trace, &again, "{} not deterministic", source.name());
        }
    }

    #[test]
    fn allocators_never_go_negative_and_stay_bounded(
        harvests in proptest::collection::vec(0.0f64..12.0, 48),
    ) {
        let battery = Battery::small_wearable();
        let mut allocators: Vec<Box<dyn BudgetAllocator>> = vec![
            Box::new(GreedyAllocator),
            Box::new(EwmaAllocator::new()),
            Box::new(UniformDailyAllocator::new()),
        ];
        for allocator in &mut allocators {
            for (i, &h) in harvests.iter().enumerate() {
                let budget = allocator.allocate(
                    (i % 24) as u32,
                    Energy::from_joules(h),
                    &battery,
                );
                prop_assert!(!budget.is_negative(), "{} went negative", allocator.name());
                prop_assert!(
                    budget.joules() <= 12.0 + battery.capacity().joules(),
                    "{} budget {budget} is implausible",
                    allocator.name()
                );
            }
        }
    }

    #[test]
    fn execute_matches_the_branching_hour_step(
        level in 0.0f64..60.0,
        harvested in prop_oneof![Just(0.0), 0.0f64..12.0],
        needed in prop_oneof![Just(0.0), Just(0.18), 0.0f64..12.0],
    ) {
        // `BatterySpec::execute` merges the charge and deficit branches;
        // it must agree bit for bit with the branching form written on
        // `Battery`, including at ties and on a drained battery.
        let mut battery = Battery::new(
            Energy::from_joules(60.0),
            Energy::from_joules(level),
            0.95,
            0.95,
        ).expect("valid");
        let mut level_j = level;
        let fraction = battery.spec().execute(&mut level_j, harvested, needed);
        let mut reference = 1.0;
        if harvested >= needed {
            battery.charge(Energy::from_joules(harvested - needed));
        } else {
            let deficit = needed - harvested;
            let delivered = battery.discharge(Energy::from_joules(deficit)).joules();
            if delivered + 1e-12 < deficit {
                reference = ((harvested + delivered) / needed).clamp(0.0, 1.0);
            }
        }
        prop_assert_eq!(fraction.to_bits(), f64::to_bits(reference));
        prop_assert_eq!(level_j.to_bits(), battery.level().joules().to_bits());
    }

    #[test]
    fn open_loop_step_keeps_the_level_in_bounds_and_the_floor_reachable(
        level in 0.0f64..60.0,
        expected in 0.0f64..12.0,
        harvested in prop_oneof![Just(0.0), 0.0f64..12.0],
    ) {
        let spec = Battery::small_wearable().spec();
        let floor = 0.18;
        let mut level_j = level;
        let budget = spec.open_loop_step(&mut level_j, expected, 0.1, harvested, floor);
        let supply = spec.deliverable_j(level) + harvested;
        prop_assert!(budget <= supply);
        prop_assert!(budget >= floor.min(supply));
        prop_assert_eq!(budget, spec.grant(level, expected, 0.1, harvested, floor));
        prop_assert!((0.0..=spec.capacity_j()).contains(&level_j));
    }

    #[test]
    fn csv_roundtrip_is_lossless_enough(seed in 0u64..100) {
        let trace = HarvestTrace::september_like(seed);
        let back = HarvestTrace::from_csv(trace.start_day_of_year(), &trace.to_csv())
            .expect("parses");
        prop_assert_eq!(trace.len_hours(), back.len_hours());
        for (a, b) in trace.iter().zip(back.iter()) {
            prop_assert!((a.joules() - b.joules()).abs() < 1e-5);
        }
    }
}
