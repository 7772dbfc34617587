//! `mpc-fleet`: a fleet on `Policy::Horizon { lookahead: 24 }` with a
//! ±20% noisy-oracle forecast over all four sources, timed through
//! [`Fleet::run`](reap_sim::Fleet::run). Each hour the receding-horizon
//! controller may solve a 24-period joint LP, so `plan_horizon` and its
//! dense simplex dominate. The fleet rebuilds every user's scenario,
//! harvest trace included, on each run.

use reap_core::{OperatingPoint, RecedingHorizonController};
use reap_harvest::{Battery, HarvestForecaster, OracleForecaster, SourceKind};
use reap_sim::{ForecasterKind, Policy};

use crate::record::Outcome;
use crate::sim::{self, SimSpec, Site};
use crate::spec::Workload;
use crate::util::{err, quantile, timed, Res};

const LOOKAHEAD: usize = 24;
const FORECAST_ERROR: f64 = 0.2;

pub fn spec(tiny: bool) -> SimSpec {
    SimSpec {
        sites: if tiny { 2 } else { 64 },
        users_per_site: 4,
        days: if tiny { 2 } else { 4 },
        sources: SourceKind::ALL.to_vec(),
        policy: Policy::Horizon {
            lookahead: LOOKAHEAD,
        },
        oracle_error: Some(FORECAST_ERROR),
        blackout: None,
        intermittent: false,
        dt_seconds: 3600,
    }
}

pub fn run(
    points: &[OperatingPoint],
    tiny: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Res<Outcome> {
    let spec = spec(tiny);
    let mut out = Outcome::new(Workload::MpcFleet, tiny, seed, seconds, traced);
    out.descriptor = spec.descriptor();
    let (sites, setups) = sim::measure_setup(&spec, points, seed, 5, 0.2)?;
    let passes = sim::run_passes(&sites, seconds, 3, false)?;
    sim::plain_metrics(&mut out, &spec, &setups, &passes);
    out.metrics
        .set("brownout_hours", sim::brownout_hours(&passes));
    let wall_1t = sim::check_one_thread(&mut out, &sites, &passes.reference)?;
    if traced {
        trace(&mut out, &spec, &sites, &passes, wall_1t)?;
    }
    out.finish();
    Ok(out)
}

/// Replays one pass on one thread, user by user, timing each layer from
/// outside: trace generation, scenario construction, the engine run, and
/// — replayed beside it — every forecast and every MPC plan, which must
/// reproduce the schedules the engine executed.
fn trace(
    out: &mut Outcome,
    spec: &SimSpec,
    sites: &[Site],
    passes: &sim::Passes,
    wall_1t: f64,
) -> Res<()> {
    let slots = spec.sources.len();
    let (mut engine_s, mut plan_us_solved) = (0.0, Vec::new());
    let (mut plans, mut solves, mut reuses, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let (mut trace_mismatches, mut schedule_mismatches, mut summary_mismatches) = (0, 0, 0);
    let mut layers = crate::record::Metrics::default();
    for (site, reference) in sites.iter().zip(passes.reference.iter()) {
        let mut outcomes = Vec::with_capacity(spec.users_per_site as usize);
        for user in 0..spec.users_per_site {
            // The fleet regenerates the user's base trace for every
            // scenario it builds.
            let kind = site.fleet.user_source(user);
            let (base, t) = timed(|| sim::base_trace(spec, site.seed, kind));
            layers.add("harvest.trace_gen_s", t);
            let scenario = sim::replay_scenario(spec, site, user, &base?, &mut layers, false)?;
            let own = site.fleet.user_scenario(user).map_err(err)?;
            trace_mismatches += usize::from(scenario.trace() != own.trace());

            let (report, t) = timed(|| scenario.run(spec.policy));
            engine_s += t;
            let report = report.map_err(err)?;
            outcomes.push(sim::outcome_of(&report, spec.days));

            let ForecasterKind::Oracle { rel_error, seed } = spec.forecaster(site.seed) else {
                return Err("mpc-fleet runs on the oracle forecaster".into());
            };
            let (mut forecaster, t) =
                timed(|| OracleForecaster::new(scenario.trace().iter().collect(), rel_error, seed));
            layers.add("harvest.forecast_s", t);
            let (mpc, t) =
                timed(|| RecedingHorizonController::new(scenario.problem().clone(), LOOKAHEAD));
            layers.add("core.mpc_plan_s", t);
            let mut mpc = mpc.map_err(err)?;
            let battery = Battery::small_wearable();
            let mut level = battery.level();
            let total = scenario.trace().len_hours();
            for (i, (harvested, record)) in scenario.trace().iter().zip(report.hours()).enumerate()
            {
                let (forecast, t) = timed(|| forecaster.forecast(i, LOOKAHEAD.min(total - i)));
                layers.add("harvest.forecast_s", t);
                layers.add("harvest.forecast_calls", 1.0);
                let solved_before = mpc.solves();
                let (planned, t) = timed(|| mpc.plan(&forecast, level, battery.capacity()));
                layers.add("core.mpc_plan_s", t);
                if mpc.solves() > solved_before {
                    plan_us_solved.push(t * 1e6);
                }
                schedule_mismatches += usize::from(planned.map_err(err)? != record.planned);
                level = record.battery_level;
                let ((), t) = timed(|| forecaster.observe(i, harvested));
                layers.add("harvest.forecast_s", t);
            }
            plans += total as u64;
            solves += mpc.solves();
            reuses += mpc.reuses();
            fallbacks += mpc.fallbacks();
        }
        if !sim::timed_aggregate(&mut layers, &outcomes, slots, reference) {
            summary_mismatches += 1;
        }
    }

    let get = |name: &str| layers.get(name).unwrap_or(0.0);
    let covered = get("harvest.trace_gen_s")
        + get("sim.user_scenario_s")
        + engine_s
        + get("sim.fleet.aggregate_s");
    let other = engine_s - get("harvest.forecast_s") - get("core.mpc_plan_s");
    for (name, value, _) in layers.iter() {
        out.metrics.set(name, value);
    }
    let m = &mut out.metrics;
    m.set("sim.engine.other_s", other);
    m.set("core.mpc_plans", plans as f64);
    m.set("core.mpc_solves", solves as f64);
    m.set("core.mpc_reuses", reuses as f64);
    m.set("core.mpc_fallbacks", fallbacks as f64);
    m.set("core.mpc_reuse_ratio", reuses as f64 / plans.max(1) as f64);
    m.set("core.plan_horizon_p50_us", quantile(&plan_us_solved, 0.5));
    m.set("core.plan_horizon_p99_us", quantile(&plan_us_solved, 0.99));
    m.set("mpc-fleet.plain_s", wall_1t);
    m.set("mpc-fleet.unattributed_s", wall_1t - covered);

    out.check(
        "replayed_traces_match",
        trace_mismatches == 0,
        format!("{trace_mismatches} replayed user traces differ from the fleet's"),
    );
    out.check(
        "replayed_plans_match",
        schedule_mismatches == 0,
        format!(
            "{schedule_mismatches} of {plans} replayed MPC plans differ from the executed schedule"
        ),
    );
    out.check(
        "traced_pass_reproduces_reports",
        summary_mismatches == 0,
        format!("{summary_mismatches} sites' traced reduction differs from the plain report"),
    );
    Ok(())
}
