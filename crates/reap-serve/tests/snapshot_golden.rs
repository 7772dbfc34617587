//! Snapshot bytes pinned across builds.
//!
//! `snapshot_determinism` proves two processes of one build agree; this
//! test proves builds agree. `data/fleet_v2.reapsnap` is a committed v2
//! image of a fixed six-user fleet on two shards after a fixed observe
//! sequence (seq-numbered observes with duplicate redeliveries, plus
//! seq-less ones). Any change to the hourly step's arithmetic, the
//! allocator, the record layout or the fleet's device constants shows up
//! here as differing bytes. Such a change must bump `SNAPSHOT_VERSION`
//! and commit a new image, not edit this one.

use reap_serve::{snapshot, FleetState};
use reap_sim::Fleet;

const GOLDEN: &[u8] = include_bytes!("data/fleet_v2.reapsnap");

const USERS: u32 = 6;
const HOURS: u32 = 40;

fn fleet() -> Fleet {
    Fleet::builder(reap_device::paper_table2_operating_points())
        .users(USERS)
        .days(2)
        .seed(2019)
        .build()
        .expect("valid fleet")
}

/// Bright days that fill the 60 J battery, nights that drain it, and a
/// per-user phase and gain so users disagree.
fn harvest_j(user: u32, hour: u32) -> f64 {
    let h = (hour + user) % 24;
    if (7..18).contains(&h) {
        f64::from(2 + (user + h) % 7)
    } else {
        0.0
    }
}

/// Feeds the fixed observe sequence. Users 0..5 send seq-numbered
/// observes and redeliver every third one; user 5 sends seq-less ones.
fn feed(state: &FleetState) {
    let mut seq = [0u64; USERS as usize];
    for hour in 0..HOURS {
        for user in 0..USERS {
            let harvest = harvest_j(user, hour);
            let activity = Some(f64::from(user) * 0.125);
            if user == USERS - 1 {
                state
                    .observe(user, hour, harvest, activity)
                    .expect("observe accepted");
                continue;
            }
            let s = &mut seq[user as usize];
            *s += 1;
            let granted = state
                .observe_seq(user, hour, harvest, activity, Some(*s))
                .expect("observe accepted");
            if hour % 3 == 0 {
                let replay = state
                    .observe_seq(user, hour, harvest, activity, Some(*s))
                    .expect("replay accepted");
                assert_eq!(
                    replay.to_bits(),
                    granted.to_bits(),
                    "replay changed the grant"
                );
            }
        }
    }
}

#[test]
fn fresh_state_reproduces_the_committed_image() {
    let state = FleetState::new(&fleet(), 2).expect("state builds");
    feed(&state);
    let bytes = snapshot::snapshot(&state);
    assert_eq!(bytes.len(), GOLDEN.len(), "snapshot length changed");
    let first_diff = bytes.iter().zip(GOLDEN).position(|(a, b)| a != b);
    assert_eq!(
        first_diff, None,
        "snapshot bytes differ from the committed image"
    );
}

#[test]
fn committed_image_restores_and_resnapshots_exactly() {
    let state = FleetState::new(&fleet(), 2).expect("state builds");
    assert_eq!(
        snapshot::restore(&state, GOLDEN).expect("committed image restores"),
        USERS
    );
    assert!(
        snapshot::snapshot(&state) == GOLDEN,
        "restore → snapshot is not byte-stable"
    );
}
