//! Proptest strategies for arbitrary protocol frames, shared by the
//! round-trip properties and the differential decoder test.

use proptest::prelude::*;
use reap_serve::{ErrorCode, FleetStats, Request, Response, ServerStats, WireShare};

pub fn arb_f64() -> impl Strategy<Value = f64> {
    // Mixed magnitudes, exact decimals and awkward irrationals alike;
    // shortest-round-trip Display must bring all of them back bit-exact.
    prop_oneof![
        Just(0.0f64),
        Just(0.18),
        Just(1.0 / 3.0),
        Just(f64::MIN_POSITIVE),
        Just(1e300),
        -1e9f64..1e9,
        0.0f64..1.0,
    ]
}

pub fn arb_path() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("/tmp/plain.snap".to_string()),
        Just("with \"quotes\" and \\ slashes".to_string()),
        Just("newline\nand\ttab".to_string()),
        Just("unicode é🙂\u{0001}".to_string()),
    ]
}

pub fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u32..10).prop_map(|version| Request::Hello { version }),
        (
            0u32..5000,
            0u32..48,
            arb_f64(),
            prop_oneof![Just(None), arb_f64().prop_map(Some)],
            prop_oneof![Just(None), (1u64..1 << 50).prop_map(Some)]
        )
            .prop_map(|(user, hour, harvest_j, activity, seq)| Request::Observe {
                user,
                hour,
                harvest_j: harvest_j.abs(),
                activity,
                seq,
            }),
        (0u32..5000).prop_map(|user| Request::Decide { user }),
        Just(Request::Stats),
        arb_path().prop_map(|path| Request::Checkpoint { path }),
        arb_path().prop_map(|path| Request::Restore { path }),
        Just(Request::Shutdown),
    ]
}

pub fn arb_shares() -> impl Strategy<Value = Vec<WireShare>> {
    proptest::collection::vec(
        (0u32..=255, 0.0f64..3600.0).prop_map(|(id, seconds)| WireShare {
            id: id as u8,
            seconds,
        }),
        0..3,
    )
}

pub fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    proptest::sample::select(vec![
        ErrorCode::Version,
        ErrorCode::Handshake,
        ErrorCode::Malformed,
        ErrorCode::Oversized,
        ErrorCode::BadRequest,
        ErrorCode::UnknownUser,
        ErrorCode::Snapshot,
        ErrorCode::Internal,
        ErrorCode::Overloaded,
        ErrorCode::Evicted,
    ])
}

pub fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u32..9, 0u32..100_000).prop_map(|(version, users)| Response::Welcome { version, users }),
        (0u32..5000, 0u32..24, arb_f64()).prop_map(|(user, hour, budget_j)| {
            Response::Observed {
                user,
                hour,
                budget_j,
            }
        }),
        (
            0u32..5000,
            arb_f64(),
            arb_f64(),
            arb_f64(),
            arb_f64(),
            arb_f64(),
            arb_shares()
        )
            .prop_map(
                |(user, budget_j, accuracy, active_s, energy_j, off_s, shares)| {
                    Response::Decision {
                        user,
                        budget_j,
                        accuracy,
                        active_s,
                        energy_j,
                        off_s,
                        shares,
                    }
                }
            ),
        (
            (0u32..1000, 0u32..1000, 0u64..1 << 50, arb_f64()),
            (arb_f64(), arb_f64(), arb_f64()),
            (0u64..u64::MAX, 0u64..1 << 50, 0u64..1000),
            (0u64..1 << 40, 0u64..1 << 40, 0u64..100, 0u64..100),
            (arb_f64(), arb_f64(), arb_f64(), arb_f64()),
        )
            .prop_map(|(a, b, c, d, e)| Response::Stats {
                fleet: FleetStats {
                    users: a.0,
                    cohorts: a.1,
                    observations: a.2,
                    harvested_j: a.3,
                    budget_j: b.0,
                    battery_j: b.1,
                    activity: b.2,
                    state_digest: c.0,
                },
                server: ServerStats {
                    connections: c.2,
                    requests: c.1,
                    errors: d.2,
                    observes: d.0,
                    decides: d.1,
                    checkpoints: d.3,
                    restores: d.2,
                    evicted: d.3,
                    shed: d.2,
                    observe_p50_us: e.0,
                    observe_p99_us: e.1,
                    decide_p50_us: e.2,
                    decide_p99_us: e.3,
                },
            }),
        (arb_path(), 0u64..1 << 50)
            .prop_map(|(path, bytes)| Response::CheckpointDone { path, bytes }),
        (arb_path(), 0u32..100_000).prop_map(|(path, users)| Response::RestoreDone { path, users }),
        Just(Response::ShuttingDown),
        (arb_error_code(), arb_path())
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}
