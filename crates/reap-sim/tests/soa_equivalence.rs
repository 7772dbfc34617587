//! SoA-vs-scalar equivalence: the data-oriented fleet core
//! ([`reap_sim::SoaFleet`]) must agree with scalar per-user replay
//! ([`Fleet::user_scenario`] + the hour-by-hour engine) on every user's
//! final scalars, bit for bit: accuracy, active fraction, brownout hours
//! and harvested joules.
//!
//! Random small fleets cover all four [`SourceKind`]s (the builder
//! default round-robins them), every allocator, odd shard sizes, and
//! both the SoA-kernel policies (REAP, static) and the scalar-fallback
//! receding-horizon policy.

use std::num::NonZeroUsize;

use proptest::prelude::*;
use reap_core::OperatingPoint;
use reap_sim::{AllocatorKind, Fleet, Policy, SimReport, SoaFleet, UserOutcome};
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
    users: u32,
    days: u32,
    seed: u64,
    allocator: AllocatorKind,
    policy: Policy,
    shard: usize,
}

fn arb_allocator() -> impl Strategy<Value = AllocatorKind> {
    prop_oneof![
        Just(AllocatorKind::Ewma),
        Just(AllocatorKind::Greedy),
        Just(AllocatorKind::UniformDaily),
    ]
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    let policy = prop_oneof![Just(Policy::Reap), (1u8..=5).prop_map(Policy::Static)];
    (
        1u32..=64,
        1u32..=3,
        0u64..=u64::MAX,
        arb_allocator(),
        policy,
        1usize..=65,
    )
        .prop_map(|(users, days, seed, allocator, policy, shard)| Setup {
            users,
            days,
            seed,
            allocator,
            policy,
            shard,
        })
}

fn build_fleet(setup: &Setup) -> Fleet {
    Fleet::builder(paper_points())
        .users(setup.users)
        .days(setup.days)
        .seed(setup.seed)
        .allocator(setup.allocator)
        .policy(setup.policy)
        .shard_users(NonZeroUsize::new(setup.shard).expect("shard range starts at 1"))
        .build()
        .expect("valid fleet")
}

/// The scalar engine's per-user scalars, reduced exactly as
/// `Fleet::run`'s accumulator reduces them.
fn scalar_outcome(report: &SimReport, days: u32) -> UserOutcome {
    UserOutcome {
        accuracy: report.mean_accuracy(),
        active_fraction: report.total_active_time().hours() / (f64::from(days) * 24.0),
        brownout_hours: u32::try_from(report.brownout_hours()).expect("small fleet"),
        harvested_j: report.total_harvested().joules(),
    }
}

fn assert_outcomes_match(soa: &UserOutcome, scalar: &UserOutcome, user: u32) {
    assert_eq!(
        soa.accuracy.to_bits(),
        scalar.accuracy.to_bits(),
        "user {user}: SoA accuracy {} vs scalar {}",
        soa.accuracy,
        scalar.accuracy
    );
    assert_eq!(
        soa.active_fraction.to_bits(),
        scalar.active_fraction.to_bits(),
        "user {user}: SoA active fraction {} vs scalar {}",
        soa.active_fraction,
        scalar.active_fraction
    );
    assert_eq!(
        soa.brownout_hours, scalar.brownout_hours,
        "user {user}: brownout hours diverged"
    );
    assert_eq!(
        soa.harvested_j.to_bits(),
        scalar.harvested_j.to_bits(),
        "user {user}: SoA harvested {} J vs scalar {} J",
        soa.harvested_j,
        scalar.harvested_j
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn soa_core_matches_scalar_replay_per_user(setup in arb_setup()) {
        let fleet = build_fleet(&setup);
        let soa = SoaFleet::new(&fleet).expect("SoA build");
        prop_assert!(soa.supports_policy());
        let outcomes = soa.run(None);
        prop_assert_eq!(outcomes.len(), setup.users as usize);
        for user in 0..setup.users {
            let report = fleet
                .user_scenario(user)
                .expect("replayable user")
                .run(setup.policy)
                .expect("scalar engine runs");
            let scalar = scalar_outcome(&report, setup.days);
            assert_outcomes_match(&outcomes[user as usize], &scalar, user);
        }
    }

    #[test]
    fn horizon_fleet_matches_scalar_replay(
        (users, days, seed, allocator, lookahead) in (
            1u32..=10,
            1u32..=2,
            0u64..=u64::MAX,
            arb_allocator(),
            prop_oneof![Just(1usize), Just(4), Just(12)],
        )
    ) {
        // Policy::Horizon falls back to the scalar engine inside
        // `Fleet::run`; the property pinned here is that the fleet path
        // (shared base traces, copy-on-perturb) aggregates exactly what
        // per-user replay produces.
        let policy = Policy::Horizon { lookahead };
        let fleet = Fleet::builder(paper_points())
            .users(users)
            .days(days)
            .seed(seed)
            .allocator(allocator)
            .policy(policy)
            .build()
            .expect("valid fleet");
        prop_assert!(!SoaFleet::new(&fleet).expect("SoA build").supports_policy());
        let report = fleet.run().expect("fleet run");
        let mut acc_sum = 0.0f64;
        let mut act_sum = 0.0f64;
        let mut brownouts = 0u64;
        for user in 0..users {
            let scalar = scalar_outcome(
                &fleet
                    .user_scenario(user)
                    .expect("replayable user")
                    .run(policy)
                    .expect("scalar engine runs"),
                days,
            );
            acc_sum += scalar.accuracy;
            act_sum += scalar.active_fraction;
            brownouts += u64::from(scalar.brownout_hours);
        }
        let n = f64::from(users);
        prop_assert!((report.mean_accuracy() - acc_sum / n).abs() <= 1e-12);
        prop_assert!((report.mean_active_fraction() - act_sum / n).abs() <= 1e-12);
        prop_assert_eq!(report.brownout_hours(), brownouts);
    }
}

#[test]
fn p5_straggler_replays_on_the_scalar_engine() {
    // The acceptance-criteria workflow: run a fleet on the SoA core, find
    // the straggler end of the accuracy distribution, and replay that
    // individual month on the old scalar engine.
    let fleet = Fleet::builder(paper_points())
        .users(40)
        .days(2)
        .seed(1234)
        .build()
        .expect("valid fleet");
    let soa = SoaFleet::new(&fleet).expect("SoA build");
    let outcomes = soa.run(None);
    let straggler = (0..40u32)
        .min_by(|&a, &b| {
            outcomes[a as usize]
                .accuracy
                .total_cmp(&outcomes[b as usize].accuracy)
        })
        .expect("non-empty fleet");
    let report = fleet
        .user_scenario(straggler)
        .expect("straggler reconstructs")
        .run(Policy::Reap)
        .expect("scalar engine runs");
    assert_outcomes_match(
        &outcomes[straggler as usize],
        &scalar_outcome(&report, 2),
        straggler,
    );
}
