//! Resident fleet state: the population the daemon serves from.
//!
//! The simulator rebuilds users from seeds every run; the daemon instead
//! holds each user's *live* policy state in memory — the EWMA diurnal
//! allocator, the virtual battery level of the open-loop protocol, and
//! running accumulators — and advances it one observation at a time.
//! Users are derived from a [`Fleet`] (same seeds, same
//! [`Fleet::user_params`] definition, same device constants), and each
//! observation runs the simulator's own open-loop step
//! ([`BatterySpec::open_loop_step`]), so a daemon observing the exact
//! hours a simulation ran grants the exact budgets the simulation
//! granted.
//!
//! Users sharing `(operating points, alpha)` form a cohort and resolve
//! decisions through its run of one cached [`FrontierTable`] arena — the
//! same deduplication the SoA simulation core performs, on the same
//! [`UserParams::cohort_key`](reap_sim::UserParams::cohort_key). A
//! `Decide` request is therefore a table walk, not an LP solve.
//!
//! Concurrency: users are striped over `S` shards (`user % S`), each
//! behind its own rank-ordered mutex ([`OrderedLock`], class
//! [`rank::SHARD`], sub-rank = shard index). Requests for different
//! shards proceed in parallel; fleet-wide operations (`Stats`,
//! checkpoint, restore) lock all shards in ascending index order — the
//! `ordered` same-rank discipline — and walk users in index order, so
//! their results are deterministic whatever the request interleaving
//! that got there.

use std::collections::BTreeMap;

use crate::locks::{rank, OrderedLock};

use reap_core::{Decision, FrontierTable, ReapProblem};
use reap_harvest::{BatterySpec, BudgetAllocator, EwmaAllocator};
use reap_sim::Fleet;
use reap_units::{Energy, TimeSpan};

use crate::protocol::{ErrorCode, FleetStats, ProtocolError};

/// Sentinel for "no observation absorbed yet" in [`UserState::last_hour`].
pub(crate) const NO_HOUR: u32 = u32::MAX;

/// One user's live policy state.
#[derive(Debug, Clone)]
pub(crate) struct UserState {
    /// The Kansal-style diurnal budget allocator, warm.
    pub alloc: EwmaAllocator,
    /// The open-loop protocol's virtual battery level, joules (assumes
    /// every granted budget is fully spent).
    pub vbat: f64,
    /// Harvest reported by the most recent observation (feeds the next
    /// allocation, exactly like the engine's `harvested_last_hour`).
    pub last_harvest: Energy,
    /// Hour-of-day of the most recent observation; [`NO_HOUR`] before
    /// the first.
    pub last_hour: u32,
    /// Observations absorbed.
    pub observations: u64,
    /// Running sum of harvested energy, joules.
    pub harvested_j: f64,
    /// Running sum of granted budgets, joules.
    pub budget_j: f64,
    /// Running sum of reported activity intensities.
    pub activity: f64,
    /// Newest observe sequence number applied for this user; `0` = none
    /// (client sequence numbers start at 1).
    pub last_seq: u64,
    /// Budget granted at `last_seq`, replayed verbatim when a retrying
    /// client resends the same sequence number.
    pub last_budget: f64,
    /// Cohort index into the shared frontier table.
    pub cohort: u32,
}

/// One served allocation decision plus the budget it was decided at.
#[derive(Debug, Clone, Copy)]
pub struct DecideOutcome {
    /// The budget the cohort frontier was evaluated at, joules.
    pub budget_j: f64,
    /// The plan: aggregates plus the (at most two) point shares.
    pub decision: Decision,
}

/// A stripe of the population: users `u` with `u % shards == index`.
#[derive(Debug)]
struct Shard {
    users: Vec<UserState>,
}

/// The resident population, sharded for concurrent serving.
#[derive(Debug)]
pub struct FleetState {
    shards: Vec<OrderedLock<Shard>>,
    /// Every cohort's frontier, indexed by `UserState::cohort`.
    table: FrontierTable,
    users: u32,
    /// FNV-1a over the fleet configuration (user count, per-user alpha /
    /// point bits / source label); snapshots embed it so a checkpoint
    /// can only restore into a state built from the same fleet.
    fingerprint: u64,
    /// The EWMA smoothing factor every resident allocator runs
    /// (checkpointed so restore can rebuild allocators exactly).
    ewma_alpha: f64,
    /// The battery every user's virtual level steps against.
    battery: BatterySpec,
}

impl FleetState {
    /// Builds resident state for every user of `fleet`, deduplicating
    /// `(points, alpha)` cohorts into one shared frontier table and
    /// striping users over `shards` mutexes.
    ///
    /// # Errors
    ///
    /// Propagates [`reap_sim::SimError`] from user-parameter derivation
    /// or frontier construction (cannot happen for fleets accepted by
    /// [`Fleet::builder`]). A `shards` of zero is clamped up to one.
    pub fn new(fleet: &Fleet, shards: usize) -> Result<FleetState, reap_sim::SimError> {
        let users = fleet.users();
        let shards = shards.min(users as usize).max(1);

        let mut fp = Fnv::new();
        fp.write_u64(u64::from(users));

        // Cohort dedup on the SoA simulation core's key, so a fleet
        // reports the same cohort count served or simulated. Cohorts are
        // numbered in first-appearance user order.
        let off_power = fleet.off_power();
        let battery = fleet.battery();
        let mut cohorts: BTreeMap<Vec<u64>, u32> = BTreeMap::new();
        let mut table = FrontierTable::new(TimeSpan::from_hours(1.0), off_power);
        let mut shard_users: Vec<Vec<UserState>> = vec![Vec::new(); shards];

        for u in 0..users {
            let params = fleet.user_params(u)?;
            let key = params.cohort_key();
            for &w in &key {
                fp.write_u64(w);
            }
            fp.write_bytes(fleet.user_source(u).label().as_bytes());

            let cohort = match cohorts.get(&key) {
                Some(&c) => c,
                None => {
                    let problem = ReapProblem::builder()
                        .alpha(params.alpha)
                        .off_power(off_power)
                        .points(params.points)
                        .build()?;
                    let c = table.push(&problem.frontier())?;
                    cohorts.insert(key, c);
                    c
                }
            };

            // reap-lint: allow(panic:index) -- `u % shards` is < shards == shard_users.len()
            shard_users[u as usize % shards].push(UserState {
                alloc: EwmaAllocator::new(),
                vbat: battery.level().joules(),
                last_harvest: Energy::ZERO,
                last_hour: NO_HOUR,
                observations: 0,
                harvested_j: 0.0,
                budget_j: 0.0,
                activity: 0.0,
                last_seq: 0,
                last_budget: 0.0,
                cohort,
            });
        }

        Ok(FleetState {
            shards: shard_users
                .into_iter()
                .enumerate()
                .map(|(i, users)| OrderedLock::new("shard", rank::SHARD, i as u32, Shard { users }))
                .collect(),
            table,
            users,
            fingerprint: fp.finish(),
            ewma_alpha: EwmaAllocator::new().diurnal().alpha(),
            battery: battery.spec(),
        })
    }

    /// Resident users.
    #[must_use]
    pub fn users(&self) -> u32 {
        self.users
    }

    /// Distinct `(points, alpha)` cohorts in the frontier table.
    #[must_use]
    pub fn cohorts(&self) -> u32 {
        self.table.cohorts()
    }

    /// The fleet-configuration fingerprint embedded in snapshots.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The resident allocators' EWMA smoothing factor.
    #[must_use]
    pub(crate) fn ewma_alpha(&self) -> f64 {
        self.ewma_alpha
    }

    /// The battery every user's virtual level steps against.
    pub(crate) fn battery(&self) -> BatterySpec {
        self.battery
    }

    /// Runs `f` on user `user`'s state (under its shard lock) together
    /// with the cohort frontier table and the battery constants.
    fn with_user<T>(
        &self,
        user: u32,
        f: impl FnOnce(&mut UserState, &FrontierTable, BatterySpec) -> T,
    ) -> Result<T, ProtocolError> {
        if user >= self.users {
            return Err(ProtocolError::new(
                ErrorCode::UnknownUser,
                format!("user {user} >= fleet size {}", self.users),
            ));
        }
        let shards = self.shards.len();
        // reap-lint: acquires(shard)
        // reap-lint: allow(panic:index) -- `user % shards` is < shards == self.shards.len()
        let mut shard = self.shards[user as usize % shards].lock();
        // reap-lint: allow(panic:index) -- striping invariant: user < self.users puts `user / shards` in this shard
        let state = &mut shard.users[user as usize / shards];
        Ok(f(state, &self.table, self.battery))
    }

    /// Absorbs one completed hour of `user`'s life — one open-loop
    /// protocol step, the simulation engine's own
    /// ([`BatterySpec::open_loop_step`]): the allocator proposes from the
    /// *previous* hour's harvest, the grant is clamped to what the
    /// virtual supply (battery plus this hour's harvest) can deliver but
    /// never below the reachable monitoring floor, then the virtual
    /// battery banks the harvest and spends the whole budget. Returns the
    /// granted budget in joules.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownUser`] for an out-of-range user;
    /// [`ErrorCode::BadRequest`] for a non-finite or negative harvest or
    /// a non-finite activity.
    pub fn observe(
        &self,
        user: u32,
        hour: u32,
        harvest_j: f64,
        activity: Option<f64>,
    ) -> Result<f64, ProtocolError> {
        self.observe_seq(user, hour, harvest_j, activity, None)
    }

    /// [`FleetState::observe`] with an optional client sequence number
    /// making the request idempotent: resending the user's newest applied
    /// sequence number replays the cached budget without touching state
    /// (the retrying client's at-most-once guarantee), while an older
    /// number is refused as stale. Sequence numbers start at 1 and must
    /// be strictly increasing per user.
    ///
    /// # Errors
    ///
    /// Everything [`FleetState::observe`] rejects, plus
    /// [`ErrorCode::BadRequest`] for `seq == 0` or a stale (already
    /// superseded) sequence number.
    pub fn observe_seq(
        &self,
        user: u32,
        hour: u32,
        harvest_j: f64,
        activity: Option<f64>,
        seq: Option<u64>,
    ) -> Result<f64, ProtocolError> {
        if !harvest_j.is_finite() || harvest_j < 0.0 {
            return Err(ProtocolError::new(
                ErrorCode::BadRequest,
                format!("harvest_j {harvest_j} must be finite and >= 0"),
            ));
        }
        if let Some(a) = activity {
            if !a.is_finite() {
                return Err(ProtocolError::new(
                    ErrorCode::BadRequest,
                    format!("activity {a} must be finite"),
                ));
            }
        }
        if seq == Some(0) {
            return Err(ProtocolError::new(
                ErrorCode::BadRequest,
                "seq 0 is reserved (sequence numbers start at 1)",
            ));
        }
        let hour = hour % 24;
        self.with_user(user, |state, table, battery| {
            if let Some(s) = seq {
                if s == state.last_seq {
                    // Duplicate delivery of the newest observe: replay
                    // the cached grant, apply nothing.
                    return Ok(state.last_budget);
                }
                if s < state.last_seq {
                    return Err(ProtocolError::new(
                        ErrorCode::BadRequest,
                        format!("stale seq {s} (newest applied is {})", state.last_seq),
                    ));
                }
            }
            let expected = state.alloc.expected(hour, state.last_harvest);
            let budget = battery.open_loop_step(
                &mut state.vbat,
                expected.joules(),
                state.alloc.battery_gain(),
                harvest_j,
                table.min_budget_j(),
            );
            state.last_harvest = Energy::from_joules(harvest_j);
            state.last_hour = hour;
            state.observations += 1;
            state.harvested_j += harvest_j;
            state.budget_j += budget;
            state.activity += activity.unwrap_or(0.0);
            if let Some(s) = seq {
                state.last_seq = s;
                state.last_budget = budget;
            }
            Ok(budget)
        })?
    }

    /// Serves an allocation decision for `user`'s upcoming hour from the
    /// cohort's cached frontier. Read-only and idempotent: the
    /// expectation is computed on a throwaway clone of the allocator
    /// (exactly what the next [`FleetState::observe`] will expect), the
    /// grant counts no harvest — the upcoming hour's is not yet known at
    /// decide time — and the budget resolves with one
    /// [`FrontierTable::decide`] walk.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownUser`] for an out-of-range user.
    pub fn decide(&self, user: u32) -> Result<DecideOutcome, ProtocolError> {
        self.with_user(user, |state, table, battery| {
            let next_hour = if state.last_hour == NO_HOUR {
                0
            } else {
                (state.last_hour + 1) % 24
            };
            let expected = state.alloc.clone().expected(next_hour, state.last_harvest);
            let budget_j = battery.grant(
                state.vbat,
                expected.joules(),
                state.alloc.battery_gain(),
                0.0,
                table.min_budget_j(),
            );
            DecideOutcome {
                budget_j,
                decision: table.decide(state.cohort, budget_j),
            }
        })
    }

    /// Computes the deterministic fleet statistics: running sums
    /// accumulated in user-index order (so the result is a pure function
    /// of the observation multiset per user, independent of request
    /// interleaving) plus the FNV-1a digest of every user's serialized
    /// resident state — the value the checkpoint bit-identity tests
    /// compare across restore.
    #[must_use]
    pub fn fleet_stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            users: self.users,
            cohorts: self.cohorts(),
            observations: 0,
            harvested_j: 0.0,
            budget_j: 0.0,
            battery_j: 0.0,
            activity: 0.0,
            state_digest: 0,
        };
        let mut digest = Fnv::new();
        self.for_each_user_in_order(|state| {
            stats.observations += state.observations;
            stats.harvested_j += state.harvested_j;
            stats.budget_j += state.budget_j;
            stats.battery_j += state.vbat;
            stats.activity += state.activity;
            digest.write_bytes(&crate::snapshot::user_record(state));
        });
        stats.state_digest = digest.finish();
        stats
    }

    /// Locks every shard — in ascending index order, the shard class's
    /// `ordered` discipline — and visits users in index order. The shard
    /// guards are all held for the duration, so the walk is an atomic
    /// fleet-wide read with respect to concurrent observes.
    pub(crate) fn for_each_user_in_order(&self, mut f: impl FnMut(&UserState)) {
        // reap-lint: acquires(shard, ordered)
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let shards = guards.len();
        for u in 0..self.users as usize {
            // reap-lint: allow(panic:index) -- `u % shards` < guards.len(); striping puts `u / shards` in-bounds
            f(&guards[u % shards].users[u / shards]);
        }
    }

    /// Locks every shard (ascending index order) and visits users mutably
    /// in index order — the restore path's atomic fleet-wide write.
    pub(crate) fn for_each_user_in_order_mut(&self, mut f: impl FnMut(&mut UserState)) {
        // reap-lint: acquires(shard, ordered)
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let shards = guards.len();
        for u in 0..self.users as usize {
            // reap-lint: allow(panic:index) -- `u % shards` < guards.len(); striping puts `u / shards` in-bounds
            f(&mut guards[u % shards].users[u / shards]);
        }
    }
}

/// Incremental FNV-1a 64 — the same hash the bench fingerprints use;
/// tiny, dependency-free, and stable across platforms.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_units::Power as P;

    pub(crate) fn tiny_fleet(users: u32) -> Fleet {
        Fleet::builder(vec![
            reap_core::OperatingPoint::new(1, "DP1", 0.94, P::from_milliwatts(2.76)).unwrap(),
            reap_core::OperatingPoint::new(5, "DP5", 0.76, P::from_milliwatts(1.20)).unwrap(),
        ])
        .users(users)
        .days(1)
        .seed(7)
        .build()
        .unwrap()
    }

    #[test]
    fn builds_with_soa_matching_cohorts() {
        let fleet = tiny_fleet(10);
        let state = FleetState::new(&fleet, 4).unwrap();
        assert_eq!(state.users(), 10);
        // Distinct per-user alphas → every user its own cohort, exactly
        // what a fleet run reports.
        let report = fleet.run().unwrap();
        assert_eq!(state.cohorts(), report.cohorts());
    }

    #[test]
    fn observe_matches_the_engine_budget_stream() {
        // Streaming a user's exact simulated hours through the resident
        // state must grant the exact budgets the simulation granted —
        // cross-checked here via the user's own harvest trace.
        let fleet = tiny_fleet(4);
        let state = FleetState::new(&fleet, 2).unwrap();
        for user in 0..4u32 {
            let scenario = fleet.user_scenario(user).unwrap();
            let report = scenario.run(reap_sim::Policy::Reap).unwrap();
            for (i, hour) in report.hours().iter().enumerate() {
                let granted = state
                    .observe(user, i as u32, hour.harvested.joules(), None)
                    .unwrap();
                assert_eq!(
                    granted.to_bits(),
                    hour.budget.joules().to_bits(),
                    "user {user} hour {i}: resident {granted} != engine {}",
                    hour.budget.joules()
                );
            }
        }
    }

    #[test]
    fn decide_is_idempotent_and_on_frontier() {
        let fleet = tiny_fleet(3);
        let state = FleetState::new(&fleet, 1).unwrap();
        for h in 0..30u32 {
            let _ = state.observe(1, h, if h % 24 < 12 { 2.0 } else { 0.0 }, None);
        }
        let a = state.decide(1).unwrap();
        let b = state.decide(1).unwrap();
        assert_eq!(a.budget_j.to_bits(), b.budget_j.to_bits());
        assert_eq!(a.decision, b.decision);
        // The decision's aggregates come straight from the frontier.
        assert!(a.decision.eval.accuracy >= 0.0 && a.decision.eval.accuracy <= 1.0);
        let total: f64 =
            a.decision.shares().iter().map(|s| s.seconds).sum::<f64>() + a.decision.off_s;
        assert!((total - 3600.0).abs() < 1e-6, "shares + off = {total}");
        // Deciding did not mutate state: stats digest unchanged.
        let before = state.fleet_stats();
        let _ = state.decide(1).unwrap();
        assert_eq!(state.fleet_stats(), before);
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let fleet = tiny_fleet(2);
        let state = FleetState::new(&fleet, 1).unwrap();
        assert_eq!(
            state.observe(2, 0, 1.0, None).unwrap_err().code,
            ErrorCode::UnknownUser
        );
        assert_eq!(state.decide(9).unwrap_err().code, ErrorCode::UnknownUser);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert_eq!(
                state.observe(0, 0, bad, None).unwrap_err().code,
                ErrorCode::BadRequest
            );
        }
        assert_eq!(
            state.observe(0, 0, 1.0, Some(f64::NAN)).unwrap_err().code,
            ErrorCode::BadRequest
        );
        // Nothing was absorbed by the rejected requests.
        assert_eq!(state.fleet_stats().observations, 0);
    }

    #[test]
    fn seq_observes_are_idempotent() {
        let fleet = tiny_fleet(2);
        let state = FleetState::new(&fleet, 1).unwrap();
        let a = state.observe_seq(0, 0, 1.5, Some(0.2), Some(1)).unwrap();
        let stats_after = state.fleet_stats();
        // Duplicate delivery: same grant, zero state change.
        for _ in 0..3 {
            let dup = state.observe_seq(0, 0, 1.5, Some(0.2), Some(1)).unwrap();
            assert_eq!(dup.to_bits(), a.to_bits());
            assert_eq!(state.fleet_stats(), stats_after);
        }
        // The next sequence number applies normally.
        let b = state.observe_seq(0, 1, 0.8, None, Some(2)).unwrap();
        assert_ne!(state.fleet_stats(), stats_after);
        let dup = state.observe_seq(0, 1, 0.8, None, Some(2)).unwrap();
        assert_eq!(dup.to_bits(), b.to_bits());
        // Stale and reserved sequence numbers are refused.
        assert_eq!(
            state
                .observe_seq(0, 2, 0.1, None, Some(1))
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            state
                .observe_seq(0, 2, 0.1, None, Some(0))
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        // Per-user isolation: user 1 has its own sequence space.
        state.observe_seq(1, 0, 0.4, None, Some(7)).unwrap();
        // Seq-less observes interleave freely (and never cache).
        let plain = state.observe(0, 2, 0.5, None).unwrap();
        assert!(plain.is_finite());
    }

    #[test]
    fn stats_are_shard_count_independent() {
        let fleet = tiny_fleet(9);
        let mk = |shards| {
            let state = FleetState::new(&fleet, shards).unwrap();
            for u in 0..9u32 {
                for h in 0..12u32 {
                    let _ = state.observe(u, h, f64::from(u + h), Some(0.25));
                }
            }
            state.fleet_stats()
        };
        let one = mk(1);
        for shards in [2usize, 3, 8, 64] {
            assert_eq!(mk(shards), one, "{shards} shards diverged");
        }
    }
}
