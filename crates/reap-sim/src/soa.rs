//! The data-oriented fleet core: struct-of-arrays hour stepping.
//!
//! The scalar engine (`crate::engine`) simulates one user at a time,
//! with per-user heap state (boxed allocator, `Schedule`s, an
//! `HourRecord` per hour). That is the right shape for replaying one
//! user; it is the wrong shape for a million. This module batches the
//! **entire population through each simulated hour**:
//!
//! * fleet state lives in flat arrays (battery joules, EWMA slots,
//!   accumulators as `Vec<f64>`; cohort ids as `Vec<u32>`), stepped by
//!   tight per-hour kernels that allocate nothing per user;
//! * users sharing `(operating points, alpha)` form a *cohort*
//!   ([`UserParams::cohort_key`](crate::UserParams::cohort_key)); every
//!   cohort's frontier is one run of a single
//!   [`FrontierTable`] arena, so the frontier build is shared and each
//!   hourly budget lookup is a pointer-free linear interpolation
//!   ([`FrontierTable::eval`]);
//! * users on the same harvest source share one base trace and store
//!   only their [`TracePerturbation`](reap_harvest::TracePerturbation)
//!   (16 bytes) instead of a materialized month;
//! * users are processed in shards
//!   ([`FleetBuilder::shard_users`](crate::FleetBuilder::shard_users)):
//!   one shard's state walks all
//!   hours before the next shard starts, so the working set stays
//!   cache-resident, and shards parallelize across worker threads.
//!
//! The hour's battery arithmetic is not restated here: the allocate
//! pass calls [`BatterySpec::open_loop_step`] and the execute pass calls
//! [`BatterySpec::execute`], the same functions the scalar engine and
//! the `reap-serve` daemon call, on the same values in the same order.
//! Only the allocators' memories (EWMA slots, the uniform-daily window)
//! and the plan lookups are laid out as columns. Per-user outcomes are
//! therefore bit-identical to [`Fleet::user_scenario`] replay — a
//! property the `soa_equivalence` tests pin bit for bit.
//! [`Policy::Horizon`] is the exception: its receding-horizon controller
//! keeps genuinely per-user state (the forecaster and the cached plan
//! tail), so the fleet falls back to the scalar engine for it.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use reap_core::{FrontierTable, OperatingPoint, ReapProblem, TableVertex};
use reap_harvest::{BatterySpec, EwmaAllocator, SourceKind};
use reap_units::TimeSpan;

use crate::engine::Policy;
use crate::fleet::Fleet;
use crate::{AllocatorKind, SimError};

/// `Schedule::new` drops allocations at or below this duration.
const DROP_S: f64 = 1e-6;

/// Per-user final scalars of one fleet run — exactly what
/// [`FleetReport`](crate::FleetReport) aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserOutcome {
    /// Mean realized accuracy per hour (`SimReport::mean_accuracy`).
    pub accuracy: f64,
    /// Realized active time over the whole trace duration, in `[0, 1]`.
    pub active_fraction: f64,
    /// Hours in which the user's plan browned out.
    pub brownout_hours: u32,
    /// Total energy harvested over the trace, in joules.
    pub harvested_j: f64,
}

/// The per-cohort scalars a [`Policy::Static`] plan needs.
#[derive(Debug, Clone, Copy)]
struct StaticPoint {
    acc: f64,
    power_w: f64,
    marginal_w: f64,
}

/// A cohort's plan in one of the two constant regimes of its frontier:
/// at the budget floor (every sub-floor budget clamps up to it) or at
/// saturation (every budget at or above the last breakpoint buys the
/// same plan). Most simulated hours land in one of the two — dark hours
/// pin the budget to the floor, bright hours overshoot the frontier — so
/// the plan pass resolves them from this cache without touching the
/// frontier arena.
#[derive(Debug, Clone, Copy)]
struct CachedPlan {
    acc: f64,
    act_s: f64,
    pen_j: f64,
}

/// A contiguous run of permuted users sharing `(base trace, phase)`, so
/// the hour kernel hoists the base-trace lookup out of the user loop.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    end: usize,
    trace: u32,
    phase: u32,
}

/// How the hour kernel plans: the cohort frontier arena for REAP, cohort
/// point scalars for the statics, or not at all (scalar fallback).
#[derive(Debug)]
enum PlanKernel {
    Reap(FrontierTable),
    Static(Vec<StaticPoint>),
    Scalar,
}

/// A fleet flattened into struct-of-arrays form, ready to step every
/// user through each simulated hour.
///
/// Built once per run from a [`Fleet`] (cohort deduplication, base-trace
/// generation, and the user permutation all happen here); [`SoaFleet::run`]
/// afterwards touches only flat arrays. Population statistics
/// ([`SoaFleet::cohorts`], [`SoaFleet::bytes_per_user`]) are available
/// whether or not the policy runs on the SoA kernels.
#[derive(Debug)]
pub struct SoaFleet {
    users: usize,
    hours: usize,
    days: u32,
    shard_users: usize,
    allocator: AllocatorKind,
    /// The allocator's battery gain and EWMA smoothing factor, read off
    /// the allocator the scalar engine instantiates.
    battery_gain: f64,
    ewma_alpha: f64,
    kernel: PlanKernel,
    // Problem constants (identical across cohorts: the fleet fixes the
    // off power and period for every user).
    floor_j: f64,
    tp_s: f64,
    off_w: f64,
    // Every fleet user starts from the same battery.
    battery: BatterySpec,
    init_j: f64,
    /// Shared base traces in joules, one per distinct source kind used.
    traces: Vec<Vec<f64>>,
    /// Permuted position -> original user index.
    perm: Vec<u32>,
    /// Per permuted position: trace gain.
    gain: Vec<f64>,
    /// Per permuted position: cohort id.
    cohort: Vec<u32>,
    /// Contiguous `(trace, phase)` runs over permuted positions.
    groups: Vec<Group>,
    /// Per cohort: the plan at the budget floor.
    floor_plan: Vec<CachedPlan>,
    /// Per cohort: the plan at frontier saturation.
    sat_plan: Vec<CachedPlan>,
    /// Per cohort: the saturation budget (`f64::INFINITY` disables the
    /// fast path, e.g. for static plans whose cap is rounding-sensitive).
    sat_budget: Vec<f64>,
    cohorts: u32,
    bytes_per_user: u32,
}

impl SoaFleet {
    /// Flattens `fleet` into SoA form: generates the shared base traces,
    /// derives every user's parameters, deduplicates cohorts (building
    /// one frontier table or static point per cohort), and sorts users
    /// into `(source, phase)` groups.
    ///
    /// # Errors
    ///
    /// Propagates harvest/optimizer construction failures, exactly as
    /// per-user [`Fleet::user_scenario`] construction would.
    pub fn new(fleet: &Fleet) -> Result<SoaFleet, SimError> {
        let users = fleet.users as usize;
        let hours = fleet.days as usize * 24;

        // One shared base trace per distinct source kind, in first-use
        // order; per-slot indirection covers repeated kinds.
        let mut kinds: Vec<SourceKind> = Vec::new();
        let mut slot_trace: Vec<u32> = Vec::with_capacity(fleet.sources.len());
        for &kind in &fleet.sources {
            let idx = match kinds.iter().position(|&k| k == kind) {
                Some(i) => i,
                None => {
                    kinds.push(kind);
                    kinds.len() - 1
                }
            };
            slot_trace.push(idx as u32);
        }
        let mut traces: Vec<Vec<f64>> = Vec::with_capacity(kinds.len());
        for &kind in &kinds {
            let base = fleet.base_trace(kind)?;
            traces.push(base.iter().map(|e| e.joules()).collect());
        }

        // Per-user parameters and cohort deduplication.
        let wants_tables = matches!(fleet.policy, Policy::Reap | Policy::Static(_))
            && fleet.intermittent.is_none()
            && fleet.dt_seconds == 3600;
        let mut cohort_map: BTreeMap<Vec<u64>, u32> = BTreeMap::new();
        let mut cohort_params: Vec<(f64, Vec<OperatingPoint>)> = Vec::new();
        let mut gain_user = vec![0.0f64; users];
        let mut phase_user = vec![0u32; users];
        let mut cohort_user = vec![0u32; users];
        for u in 0..users {
            let params = fleet.user_params(u as u32)?;
            gain_user[u] = params.perturbation.gain();
            phase_user[u] = params.perturbation.phase_hours();
            let key = params.cohort_key();
            cohort_user[u] = match cohort_map.get(&key) {
                Some(&id) => id,
                None => {
                    let id = cohort_map.len() as u32;
                    cohort_params.push((params.alpha, params.points));
                    cohort_map.insert(key, id);
                    id
                }
            };
        }
        let cohorts = cohort_map.len() as u32;

        // Permute users so same-(source, phase) runs are contiguous: the
        // kernel then reads one base-trace hour per run instead of per
        // user. Per-user arithmetic is order-independent, so this cannot
        // change any outcome bit.
        let mut perm: Vec<u32> = (0..fleet.users).collect();
        let slots = fleet.sources.len() as u32;
        perm.sort_by_key(|&u| (u % slots, phase_user[u as usize], u));
        let gain: Vec<f64> = perm.iter().map(|&u| gain_user[u as usize]).collect();

        // Renumber cohorts by first use in *permuted* order: every
        // cohort-indexed array (vertex arena, cached plans) is then read
        // in ascending offsets as the hour kernel walks a shard —
        // streaming access instead of scattered. A pure renaming, so no
        // outcome bit can change.
        let mut old2new = vec![u32::MAX; cohorts as usize];
        let mut order: Vec<u32> = Vec::with_capacity(cohorts as usize);
        for &u in &perm {
            let oc = cohort_user[u as usize] as usize;
            if old2new[oc] == u32::MAX {
                old2new[oc] = order.len() as u32;
                order.push(oc as u32);
            }
        }
        let cohort: Vec<u32> = perm
            .iter()
            .map(|&u| old2new[cohort_user[u as usize] as usize])
            .collect();
        let mut groups: Vec<Group> = Vec::new();
        for (pos, &u) in perm.iter().enumerate() {
            let trace = slot_trace[(u % slots) as usize];
            let phase = phase_user[u as usize];
            match groups.last_mut() {
                Some(g) if g.trace == trace && g.phase == phase => g.end = pos + 1,
                _ => groups.push(Group {
                    start: pos,
                    end: pos + 1,
                    trace,
                    phase,
                }),
            }
        }

        // Build every cohort's plan data in renumbered order: its run of
        // the shared frontier arena plus the two constant plan regimes
        // (see [`CachedPlan`]). The cached plans are plain
        // `FrontierTable` eval results, so resolving an hour from them is
        // bit-identical to evaluating the table at any budget in the
        // regime. Cohorts are numbered in permuted first-use order, so
        // the hour kernel reads the arena in ascending offsets across a
        // shard.
        let off_power = fleet.off_power();
        let mut floor_j = off_power.watts() * 3600.0;
        let mut tp_s = 3600.0;
        let mut off_w = off_power.watts();
        let mut table = FrontierTable::new(TimeSpan::from_hours(1.0), off_power);
        let mut statics: Vec<StaticPoint> = Vec::new();
        let mut floor_plan = Vec::with_capacity(cohorts as usize);
        let mut sat_plan = Vec::with_capacity(cohorts as usize);
        let mut sat_budget = Vec::with_capacity(cohorts as usize);
        let cache = |pe: reap_core::PlanEval| CachedPlan {
            acc: pe.accuracy,
            act_s: pe.active_s,
            pen_j: pe.energy_j,
        };
        if wants_tables {
            for &oc in &order {
                let (alpha, points) = &cohort_params[oc as usize];
                let problem = ReapProblem::builder()
                    .alpha(*alpha)
                    .off_power(off_power)
                    .points(points.clone())
                    .build()?;
                floor_j = problem.min_budget().joules();
                tp_s = problem.period().seconds();
                off_w = problem.off_power().watts();
                match fleet.policy {
                    Policy::Reap => {
                        let c = table.push(&problem.frontier())?;
                        floor_plan.push(cache(table.eval(c, floor_j)));
                        let sb = table.max_budget_j(c);
                        sat_plan.push(cache(table.eval(c, sb)));
                        sat_budget.push(sb);
                    }
                    Policy::Static(pid) => {
                        let p = problem.point(pid)?;
                        statics.push(StaticPoint {
                            acc: p.accuracy(),
                            power_w: p.power().watts(),
                            marginal_w: p.power().watts() - off_w,
                        });
                        // At the floor the clamped on-time is exactly
                        // zero, so the schedule drops the point and only
                        // the off power burns: the same scalars the
                        // inline formula produces.
                        let plan = CachedPlan {
                            acc: 0.0,
                            act_s: 0.0,
                            pen_j: off_w * tp_s,
                        };
                        floor_plan.push(plan);
                        sat_plan.push(plan);
                        // The static saturation threshold depends on
                        // division rounding; stay on the exact inline
                        // formula instead.
                        sat_budget.push(f64::INFINITY);
                    }
                    Policy::Horizon { .. } | Policy::Intermittent => {
                        unreachable!("gated by wants_tables")
                    }
                }
            }
        }
        let kernel = match fleet.policy {
            Policy::Reap if wants_tables => PlanKernel::Reap(table),
            Policy::Static(_) if wants_tables => PlanKernel::Static(statics),
            _ => PlanKernel::Scalar,
        };

        let battery = fleet.battery();
        let mut soa = SoaFleet {
            users,
            hours,
            days: fleet.days,
            shard_users: fleet.shard_users.get(),
            allocator: fleet.allocator,
            battery_gain: fleet.allocator.instantiate().battery_gain(),
            ewma_alpha: EwmaAllocator::new().diurnal().alpha(),
            kernel,
            floor_j,
            tp_s,
            off_w,
            battery: battery.spec(),
            init_j: battery.level().joules(),
            traces,
            perm,
            gain,
            cohort,
            groups,
            floor_plan,
            sat_plan,
            sat_budget,
            cohorts,
            bytes_per_user: 0,
        };
        soa.bytes_per_user = soa.compute_bytes_per_user();
        Ok(soa)
    }

    /// Number of distinct `(operating points, alpha)` cohorts.
    #[must_use]
    pub fn cohorts(&self) -> u32 {
        self.cohorts
    }

    /// Resident SoA bytes per user: per-user parameter and state arrays,
    /// plus the shared base traces and cohort tables amortized over the
    /// population. Rounded up.
    #[must_use]
    pub fn bytes_per_user(&self) -> u32 {
        self.bytes_per_user
    }

    /// `true` when the configured policy runs on the SoA kernels
    /// ([`Policy::Reap`] / [`Policy::Static`] on an hourly battery);
    /// `false` for the scalar fallback ([`Policy::Horizon`], any
    /// intermittent or sub-hour fleet).
    #[must_use]
    pub fn supports_policy(&self) -> bool {
        !matches!(self.kernel, PlanKernel::Scalar)
    }

    fn compute_bytes_per_user(&self) -> u32 {
        let f = std::mem::size_of::<f64>();
        // Parameters: perm + gain + cohort.
        let mut per_user = 4 + f + 4;
        // Run state: real/virtual battery, last harvest, three f64
        // accumulators, brownout counter.
        per_user += 6 * f + 4;
        // Allocator state.
        per_user += match self.allocator {
            AllocatorKind::Ewma => 24 * f + f, // slots + seeding sum
            AllocatorKind::UniformDaily => 24 * f,
            AllocatorKind::Greedy => 0,
        };
        per_user += std::mem::size_of::<UserOutcome>();
        let mut shared = self.traces.iter().map(|t| t.len() * f).sum::<usize>();
        shared += self.groups.len() * std::mem::size_of::<Group>();
        match &self.kernel {
            PlanKernel::Reap(table) => {
                let verts: usize = (0..table.cohorts()).map(|c| table.vertices(c).len()).sum();
                shared +=
                    verts * std::mem::size_of::<TableVertex>() + (table.cohorts() as usize + 1) * 4;
            }
            PlanKernel::Static(statics) => {
                shared += statics.len() * std::mem::size_of::<StaticPoint>();
            }
            PlanKernel::Scalar => {}
        }
        shared += (self.floor_plan.len() + self.sat_plan.len()) * std::mem::size_of::<CachedPlan>()
            + self.sat_budget.len() * f;
        let total = per_user * self.users + shared;
        total.div_ceil(self.users).min(u32::MAX as usize) as u32
    }

    /// Steps every user through every hour, returning per-user outcomes
    /// in **original user order**. Shards run across up to `max_threads`
    /// workers (`None` = available parallelism); outcomes are
    /// bit-identical for every thread count and every shard size.
    ///
    /// # Panics
    ///
    /// Panics when the policy needs the scalar fallback
    /// (`!self.supports_policy()`); [`Fleet::run`] routes those runs to
    /// the scalar engine instead.
    #[must_use]
    pub fn run(&self, max_threads: Option<NonZeroUsize>) -> Vec<UserOutcome> {
        assert!(
            self.supports_policy(),
            "SoA kernels do not cover this policy; use the scalar engine"
        );
        let shard = self.shard_users;
        let shards: Vec<(usize, usize)> = (0..self.users)
            .step_by(shard)
            .map(|a| (a, (a + shard).min(self.users)))
            .collect();
        let threads = max_threads
            .map(NonZeroUsize::get)
            .or_else(|| {
                std::thread::available_parallelism()
                    .ok()
                    .map(NonZeroUsize::get)
            })
            .unwrap_or(1)
            .min(shards.len());

        let mut out = vec![UserOutcome::default(); self.users];
        if threads <= 1 {
            for &(a, b) in &shards {
                self.scatter(&mut out, a, self.run_shard(a, b));
            }
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<Vec<UserOutcome>>>> =
                shards.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(a, b)) = shards.get(s) else { break };
                        let shard_out = self.run_shard(a, b);
                        *slots[s].lock().expect("shard slot poisoned") = Some(shard_out);
                    });
                }
            });
            for (&(a, _), slot) in shards.iter().zip(slots) {
                let shard_out = slot
                    .into_inner()
                    .expect("shard slot poisoned")
                    .expect("every shard index was claimed by a worker");
                self.scatter(&mut out, a, shard_out);
            }
        }
        out
    }

    /// Writes a shard's outcomes (permuted positions `a..`) back to
    /// original user indices.
    fn scatter(&self, out: &mut [UserOutcome], a: usize, shard_out: Vec<UserOutcome>) {
        for (j, o) in shard_out.into_iter().enumerate() {
            out[self.perm[a + j] as usize] = o;
        }
    }

    /// Steps permuted positions `[a, b)` through every hour. All state is
    /// shard-local and heap-allocated once, before the hour loop.
    fn run_shard(&self, a: usize, b: usize) -> Vec<UserOutcome> {
        let nu = b - a;
        let gain = &self.gain[a..b];
        let cohort = &self.cohort[a..b];
        // Groups clipped to this shard, rebased to shard-local indices.
        let groups: Vec<Group> = self
            .groups
            .iter()
            .filter(|g| g.start < b && g.end > a)
            .map(|g| Group {
                start: g.start.max(a) - a,
                end: g.end.min(b) - a,
                trace: g.trace,
                phase: g.phase,
            })
            .collect();

        // Mutable per-user state, flat.
        let mut bat = vec![self.init_j; nu];
        let mut vbat = vec![self.init_j; nu];
        let mut last_h = vec![0.0f64; nu];
        let mut acc_sum = vec![0.0f64; nu];
        let mut act_sum = vec![0.0f64; nu];
        let mut harv_sum = vec![0.0f64; nu];
        let mut brow = vec![0u32; nu];
        // EWMA slots, slot-major (`est[slot * nu + u]`), plus the running
        // seeded-slot sum backing the cold-start mean.
        let mut est = match self.allocator {
            AllocatorKind::Ewma => vec![0.0f64; 24 * nu],
            _ => Vec::new(),
        };
        let mut est_sum = match self.allocator {
            AllocatorKind::Ewma => vec![0.0f64; nu],
            _ => Vec::new(),
        };
        // Uniform-daily window, user-major (`win[u * 24 + slot]`).
        let mut win = match self.allocator {
            AllocatorKind::UniformDaily => vec![0.0f64; 24 * nu],
            _ => Vec::new(),
        };

        let (battery, battery_gain, floor_j) = (self.battery, self.battery_gain, self.floor_j);
        let tp = self.tp_s;
        let off_w = self.off_w;

        // Per-hour stage temporaries: expectations and budgets out of the
        // allocate passes, plan scalars out of the plan pass. Splitting
        // the hour into array passes keeps the allocate and execute loops
        // free of data-dependent branches in the battery arithmetic
        // (`BatterySpec`'s steps are branch-free), which lets them
        // vectorize; only the plan pass stays scalar.
        let mut exp_t = vec![0.0f64; nu];
        let mut budget_t = vec![0.0f64; nu];
        let mut pacc_t = vec![0.0f64; nu];
        let mut pact_t = vec![0.0f64; nu];
        let mut pen_t = vec![0.0f64; nu];

        for i in 0..self.hours {
            let day = i / 24;
            let hod = i % 24;

            // EWMA observe pass: every user folds last hour's harvest
            // into the previous slot — seeding it on the first day,
            // blending afterwards (`DiurnalEwma::observe`). The very
            // first call carries no real sample and is discarded.
            if matches!(self.allocator, AllocatorKind::Ewma) && i >= 1 {
                let alpha = self.ewma_alpha;
                let prev = (hod + 23) % 24;
                let est_prev = &mut est[prev * nu..prev * nu + nu];
                if i >= 25 {
                    for (e, &h) in est_prev.iter_mut().zip(&last_h) {
                        *e = (1.0 - alpha) * *e + alpha * h;
                    }
                } else {
                    for ((e, s), &h) in est_prev.iter_mut().zip(&mut est_sum).zip(&last_h) {
                        *e = h;
                        *s += h;
                    }
                }
            }

            // Expectation pass: each allocator's `expected` on its
            // column state. From day two on every EWMA slot is seeded, so
            // the grant pass reads this hour's slot column directly.
            let expected: &[f64] = match self.allocator {
                AllocatorKind::Ewma if i >= 24 => &est[hod * nu..hod * nu + nu],
                AllocatorKind::Ewma if i == 0 => {
                    // The discarded first call expects nothing.
                    exp_t.fill(0.0);
                    &exp_t
                }
                AllocatorKind::Ewma => {
                    // Unseen slot: mean of the seeded slots (the sum
                    // accumulates in ascending slot order).
                    let i_f = i as f64;
                    for (x, &sum) in exp_t.iter_mut().zip(&est_sum) {
                        *x = sum / i_f;
                    }
                    &exp_t
                }
                AllocatorKind::Greedy => {
                    // Last hour's harvest: copied, because the grant pass
                    // overwrites `last_h` as it goes.
                    exp_t.copy_from_slice(&last_h);
                    &exp_t
                }
                AllocatorKind::UniformDaily => {
                    let divisor = if i >= 23 { 24.0 } else { (i + 1) as f64 };
                    let windows = win.chunks_exact_mut(24);
                    for ((x, w), &h) in exp_t.iter_mut().zip(windows).zip(&last_h) {
                        w[hod] = h;
                        *x = w.iter().sum::<f64>() / divisor;
                    }
                    &exp_t
                }
            };

            // Grant pass: the open-loop step against the *virtual*
            // battery (`open_loop_budgets`), one loop per `(trace,
            // phase)` group so the base-trace hour is read once per run.
            for g in &groups {
                let src = (hod as u32 + g.phase) % 24;
                let base_e = self.traces[g.trace as usize][day * 24 + src as usize];
                let r = g.start..g.end;
                let users = vbat[r.clone()]
                    .iter_mut()
                    .zip(&mut last_h[r.clone()])
                    .zip(&mut budget_t[r.clone()])
                    .zip(&gain[r.clone()])
                    .zip(&expected[r]);
                for ((((v, last), budget), &tg), &e) in users {
                    let h = base_e * tg;
                    *budget = battery.open_loop_step(v, e, battery_gain, h, floor_j);
                    *last = h;
                }
            }

            // Plan pass. Most hours land in a constant frontier
            // regime (floor or saturation) and resolve from the cohort
            // cache; the rest take the full frontier eval (REAP) or the
            // static duty-cycle formula. All three produce the scalar
            // engine's schedule scalars bit for bit.
            match &self.kernel {
                PlanKernel::Reap(table) => {
                    for u in 0..nu {
                        let c = cohort[u] as usize;
                        let budget = budget_t[u];
                        let (pacc, pact, pen) = if budget <= floor_j {
                            let p = self.floor_plan[c];
                            (p.acc, p.act_s, p.pen_j)
                        } else if budget >= self.sat_budget[c] {
                            let p = self.sat_plan[c];
                            (p.acc, p.act_s, p.pen_j)
                        } else {
                            let verts = table.vertices(cohort[u]);
                            // The first frontier segment — an off vertex
                            // at the floor blending into the cheapest
                            // point — absorbs nearly every interior
                            // budget (~94% in the bench fleet), so it
                            // gets a straight-line transliteration of
                            // [`FrontierTable::eval`] for exactly that
                            // vertex shape; everything else takes the
                            // general walk.
                            let seg0 = verts.len() >= 2
                                && budget < verts[1].budget_j
                                && !verts[0].has_point
                                && verts[1].has_point;
                            if seg0 {
                                let lo_b = verts[0].budget_j;
                                let lambda =
                                    ((budget - lo_b) / (verts[1].budget_j - lo_b)).clamp(0.0, 1.0);
                                let t = lambda * tp;
                                let off_s = (tp - t).max(0.0);
                                if lambda > 0.0 && t > DROP_S {
                                    (
                                        verts[1].accuracy * (t / tp),
                                        t,
                                        verts[1].power_w * t + off_w * off_s,
                                    )
                                } else {
                                    (0.0, 0.0, off_w * off_s)
                                }
                            } else {
                                let e = table.eval(cohort[u], budget);
                                (e.accuracy, e.active_s, e.energy_j)
                            }
                        };
                        pacc_t[u] = pacc;
                        pact_t[u] = pact;
                        pen_t[u] = pen;
                    }
                }
                PlanKernel::Static(statics) => {
                    for u in 0..nu {
                        let c = cohort[u] as usize;
                        let sp = statics[c];
                        let eff = budget_t[u].max(floor_j);
                        let t_on = ((eff - floor_j) / sp.marginal_w).clamp(0.0, tp);
                        let off_s = tp - t_on;
                        let (pacc, pact, pen) = if t_on > DROP_S {
                            (
                                sp.acc * (t_on / tp),
                                t_on,
                                sp.power_w * t_on + off_w * off_s,
                            )
                        } else {
                            (0.0, 0.0, off_w * off_s)
                        };
                        pacc_t[u] = pacc;
                        pact_t[u] = pact;
                        pen_t[u] = pen;
                    }
                }
                PlanKernel::Scalar => unreachable!("checked in run()"),
            }

            // Execute pass: harvest first, then the real battery,
            // browning out proportionally (`run_with_budgets`).
            for u in 0..nu {
                let h = last_h[u];
                let rf = battery.execute(&mut bat[u], h, pen_t[u]);
                acc_sum[u] += pacc_t[u] * rf;
                act_sum[u] += pact_t[u] * rf;
                brow[u] += u32::from(rf < 1.0);
                harv_sum[u] += h;
            }
        }

        let hours_f = self.hours as f64;
        let trace_hours = f64::from(self.days) * 24.0;
        (0..nu)
            .map(|u| UserOutcome {
                accuracy: acc_sum[u] / hours_f,
                active_fraction: (act_sum[u] / 3600.0) / trace_hours,
                brownout_hours: brow[u],
                harvested_j: harv_sum[u],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_core::OperatingPoint;
    use reap_units::Power;

    fn base_points() -> Vec<OperatingPoint> {
        vec![
            OperatingPoint::new(1, "DP1", 0.94, Power::from_milliwatts(2.76)).unwrap(),
            OperatingPoint::new(5, "DP5", 0.76, Power::from_milliwatts(1.20)).unwrap(),
        ]
    }

    fn fleet(users: u32, days: u32) -> Fleet {
        Fleet::builder(base_points())
            .users(users)
            .days(days)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn cohorts_collapse_when_the_population_is_uniform() {
        // No accuracy spread and a pinned alpha: every user shares one
        // frontier.
        let f = Fleet::builder(base_points())
            .users(16)
            .days(1)
            .accuracy_spread(0.0)
            .alpha_range(1.0, 1.0)
            .build()
            .unwrap();
        let soa = SoaFleet::new(&f).unwrap();
        assert_eq!(soa.cohorts(), 1);
        // Default spread: every user is its own cohort.
        let soa = SoaFleet::new(&fleet(16, 1)).unwrap();
        assert_eq!(soa.cohorts(), 16);
        assert!(soa.bytes_per_user() > 0);
    }

    #[test]
    fn soa_outcomes_are_thread_count_invariant() {
        let f = fleet(23, 2);
        let soa = SoaFleet::new(&f).unwrap();
        let one = soa.run(Some(NonZeroUsize::MIN));
        for threads in [2usize, 4, 7] {
            let many = soa.run(Some(NonZeroUsize::new(threads).unwrap()));
            assert_eq!(one, many, "{threads}-thread SoA run diverged");
        }
    }

    #[test]
    fn horizon_policy_reports_scalar_fallback() {
        let f = Fleet::builder(base_points())
            .users(4)
            .days(1)
            .policy(Policy::Horizon { lookahead: 6 })
            .build()
            .unwrap();
        let soa = SoaFleet::new(&f).unwrap();
        assert!(!soa.supports_policy());
        assert_eq!(soa.cohorts(), 4);
    }
}
