//! `intermittent-week`: a batteryless body-heat fleet with 30% of every
//! day blacked out, each node on the wearable supercapacitor under
//! `Policy::Intermittent`, stepped by the event-driven core at 300 s
//! epochs and timed through [`Fleet::run`](reap_sim::Fleet::run). The only
//! workload on `reap_sim::clock`.

use std::collections::BTreeMap;

use reap_core::OperatingPoint;
use reap_harvest::SourceKind;
use reap_sim::{ClockStats, Policy};

use crate::record::{Metrics, Outcome};
use crate::sim::{self, SimSpec, Site, LEDGER_TOLERANCE_J};
use crate::spec::{Workload, EVENT_KINDS};
use crate::util::{err, timed, Res};

pub fn spec(tiny: bool) -> SimSpec {
    SimSpec {
        sites: if tiny { 2 } else { 32 },
        users_per_site: if tiny { 16 } else { 500 },
        days: if tiny { 1 } else { 7 },
        sources: vec![SourceKind::BodyHeat],
        policy: Policy::Intermittent,
        oracle_error: None,
        blackout: Some(0.3),
        intermittent: true,
        dt_seconds: 300,
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
    let mut out = Outcome::new(Workload::IntermittentWeek, tiny, seed, seconds, traced);
    out.descriptor = spec.descriptor();
    let (sites, setups) = sim::measure_setup(&spec, points, seed, 5, 0.2)?;
    let passes = sim::run_passes(&sites, seconds, 3, false)?;
    sim::plain_metrics(&mut out, &spec, &setups, &passes);
    let wall_1t = sim::check_one_thread(&mut out, &sites, &passes.reference)?;
    if traced {
        trace(&mut out, &spec, &sites, &passes, wall_1t)?;
    } else {
        check_ledgers(&mut out, &spec, &sites)?;
    }
    out.finish();
    Ok(out)
}

/// Runs every user on the event core (outside the timed region) and
/// checks that each energy ledger balances.
fn check_ledgers(out: &mut Outcome, spec: &SimSpec, sites: &[Site]) -> Res<()> {
    let mut worst = 0.0f64;
    for site in sites {
        for user in 0..spec.users_per_site {
            let scenario = site.fleet.user_scenario(user).map_err(err)?;
            let run = scenario.run_event_driven(spec.policy).map_err(err)?;
            worst = worst.max(run.stats.ledger_drift().abs());
        }
    }
    ledger_check(out, worst);
    Ok(())
}

fn ledger_check(out: &mut Outcome, worst: f64) {
    out.check(
        "ledger_drift_within_1e-9_j",
        worst <= LEDGER_TOLERANCE_J,
        format!("largest ledger drift {worst:e} J"),
    );
}

/// Replays one pass on one thread, user by user: trace generation and
/// scenario construction, then the event core itself. A second, untimed
/// run of each user with the event log on counts events by kind.
fn trace(
    out: &mut Outcome,
    spec: &SimSpec,
    sites: &[Site],
    passes: &sim::Passes,
    wall_1t: f64,
) -> Res<()> {
    let slots = spec.sources.len();
    let mut layers = Metrics::default();
    let mut totals = ClockStats::default();
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut clock_s, mut worst_drift) = (0.0, 0.0f64);
    let (mut trace_mismatches, mut log_mismatches, mut summary_mismatches) = (0, 0, 0);
    for (site, reference) in sites.iter().zip(&passes.reference) {
        let mut outcomes = Vec::with_capacity(spec.users_per_site as usize);
        for user in 0..spec.users_per_site {
            let kind = site.fleet.user_source(user);
            let (base, t) = timed(|| sim::base_trace(spec, site.seed, kind));
            layers.add("harvest.trace_gen_s", t);
            let base = base?;
            let scenario = sim::replay_scenario(spec, site, user, &base, &mut layers, false)?;
            let own = site.fleet.user_scenario(user).map_err(err)?;
            trace_mismatches += usize::from(scenario.trace() != own.trace());

            let (run, t) = timed(|| scenario.run_event_driven(spec.policy));
            clock_s += t;
            let run = run.map_err(err)?;
            let s = &run.stats;
            totals.events += s.events;
            totals.bursts += s.bursts;
            totals.epochs_committed += s.epochs_committed;
            totals.epochs_lost += s.epochs_lost;
            totals.brownouts += s.brownouts;
            worst_drift = worst_drift.max(s.ledger_drift().abs());
            outcomes.push(sim::outcome_of(&run.report, spec.days));

            let mut untimed = Metrics::default();
            let logged = sim::replay_scenario(spec, site, user, &base, &mut untimed, true)?
                .run_event_driven(spec.policy)
                .map_err(err)?;
            for event in &logged.events {
                *kinds.entry(event.kind).or_default() += 1;
            }
            log_mismatches +=
                usize::from(logged.events.len() as u64 != s.events || logged.report != run.report);
        }
        if !sim::timed_aggregate(&mut layers, &outcomes, slots, reference) {
            summary_mismatches += 1;
        }
    }

    let get = |name: &str| layers.get(name).unwrap_or(0.0);
    let covered = get("harvest.trace_gen_s")
        + get("sim.user_scenario_s")
        + clock_s
        + get("sim.fleet.aggregate_s");
    for (name, value, _) in layers.iter() {
        out.metrics.set(name, value);
    }
    let m = &mut out.metrics;
    m.set("sim.clock.run_s", clock_s);
    m.set("sim.clock.events", totals.events as f64);
    m.set("sim.clock.events_per_s", totals.events as f64 / clock_s);
    for kind in EVENT_KINDS {
        let count = kinds.get(kind).copied().unwrap_or(0);
        m.set(&format!("sim.clock.events.{kind}"), count as f64);
    }
    m.set("sim.clock.bursts", totals.bursts as f64);
    m.set("sim.clock.epochs_committed", totals.epochs_committed as f64);
    m.set("sim.clock.epochs_lost", totals.epochs_lost as f64);
    m.set(
        "sim.clock.commit_ratio",
        totals.epochs_committed as f64
            / (totals.epochs_committed + totals.epochs_lost).max(1) as f64,
    );
    m.set("sim.clock.brownouts", totals.brownouts as f64);
    m.set("sim.clock.ledger_drift_max_j", worst_drift);
    m.set("intermittent-week.plain_s", wall_1t);
    m.set("intermittent-week.unattributed_s", wall_1t - covered);

    ledger_check(out, worst_drift);
    let unknown: Vec<&str> = kinds
        .keys()
        .copied()
        .filter(|k| !EVENT_KINDS.contains(k))
        .collect();
    out.check(
        "event_log_matches_counters",
        log_mismatches == 0 && unknown.is_empty(),
        format!("{log_mismatches} users' event logs disagree with their counters; unknown kinds {unknown:?}"),
    );
    out.check(
        "replayed_traces_match",
        trace_mismatches == 0,
        format!("{trace_mismatches} replayed user traces differ from the fleet's"),
    );
    out.check(
        "traced_pass_reproduces_reports",
        summary_mismatches == 0,
        format!("{summary_mismatches} sites' traced reduction differs from the plain report"),
    );
    Ok(())
}
