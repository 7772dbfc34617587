//! `fleet-month`: a REAP-policy fleet over all four harvest sources on an
//! hourly battery, the paper's evaluation scaled to a population. Timed
//! through [`Fleet::run`](reap_sim::Fleet::run) once each fleet's SoA
//! flattening is cached, so nearly all the work is the SoA kernel; the
//! cohort frontiers are built in set-up.

use std::num::NonZeroUsize;

use reap_core::OperatingPoint;
use reap_harvest::SourceKind;
use reap_sim::{Policy, SoaFleet};

use crate::record::Outcome;
use crate::sim::{self, SimSpec, Site};
use crate::spec::Workload;
use crate::util::{err, median, timed, Res};

/// Users whose month the traced run replays on both the scalar hour loop
/// and the event core.
const ENGINE_SAMPLE_USERS: u32 = 16;

pub fn spec(tiny: bool) -> SimSpec {
    SimSpec {
        sites: if tiny { 2 } else { 64 },
        users_per_site: if tiny { 64 } else { 1_600 },
        days: if tiny { 2 } else { 30 },
        sources: SourceKind::ALL.to_vec(),
        policy: Policy::Reap,
        oracle_error: None,
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
    let mut out = Outcome::new(Workload::FleetMonth, tiny, seed, seconds, traced);
    out.descriptor = spec.descriptor();
    let (sites, setups) = sim::measure_setup(&spec, points, seed, 5, 0.5)?;
    let passes = sim::run_passes(&sites, seconds, 3, true)?;
    sim::plain_metrics(&mut out, &spec, &setups, &passes);
    out.metrics
        .set("brownout_hours", sim::brownout_hours(&passes));
    sim::check_one_thread(&mut out, &sites, &passes.reference)?;
    if traced {
        trace(&mut out, &spec, &sites, &passes, tiny)?;
    }
    out.finish();
    Ok(out)
}

fn trace(
    out: &mut Outcome,
    spec: &SimSpec,
    sites: &[Site],
    passes: &sim::Passes,
    tiny: bool,
) -> Res<()> {
    // Set-up scope: the flattening the first run caches, decomposed into
    // base-trace generation (harvest), cohort frontier builds (core) and
    // the rest of SoaFleet::new.
    let mut soas = Vec::with_capacity(sites.len());
    let mut trace_mismatches = 0;
    let mut cohort_mismatches = 0;
    let layers = &mut out.metrics;
    for site in sites {
        let mut site_trace_s = 0.0;
        for (slot, &kind) in spec.sources.iter().enumerate() {
            let (base, t) = timed(|| sim::base_trace(spec, site.seed, kind));
            site_trace_s += t;
            // The replayed base trace must be the fleet's own: perturbed
            // for the slot's first user it reproduces that user's trace.
            let user = slot as u32;
            let replayed = site
                .fleet
                .user_params(user)
                .map_err(err)?
                .perturbation
                .apply(&base?)
                .map_err(err)?;
            let own = site.fleet.user_scenario(user).map_err(err)?;
            trace_mismatches += usize::from(&replayed != own.trace());
        }
        let (cohorts, frontier_s) = sim::frontier_replay(&site.fleet)?;
        let (soa, new_s) = timed(|| SoaFleet::new(&site.fleet));
        let soa = soa.map_err(err)?;
        cohort_mismatches += usize::from(soa.cohorts() != cohorts);
        layers.add("harvest.trace_gen_s", site_trace_s);
        layers.add("core.frontier_build_s", frontier_s);
        layers.add("core.frontier_builds", f64::from(cohorts));
        layers.add("sim.soa.new_s", new_s - site_trace_s - frontier_s);
        soas.push(soa);
    }

    // Timed region: Fleet::run is the SoA kernel plus the fleet's
    // reduction of per-user outcomes, each timed here on its own.
    let slots = spec.sources.len();
    // Like the plain pass, each layer's time is the sum over sites of the
    // site's median.
    let reps = if tiny { 2 } else { 7 };
    let (mut run, mut agg, mut run_1t) = (0.0, 0.0, 0.0);
    let mut summary_mismatches = 0;
    for (soa, reference) in soas.iter().zip(&passes.reference) {
        let (mut run_s, mut agg_s, mut run_1t_s) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..reps {
            let (outcomes, t) = timed(|| soa.run(None));
            run_s.push(t);
            let mut rep_layers = crate::record::Metrics::default();
            if !sim::timed_aggregate(&mut rep_layers, &outcomes, slots, reference) {
                summary_mismatches += 1;
            }
            agg_s.push(rep_layers.get("sim.fleet.aggregate_s").unwrap_or(0.0));
            if rep < 3 {
                let (single, t) = timed(|| soa.run(Some(NonZeroUsize::MIN)));
                run_1t_s.push(t);
                summary_mismatches += usize::from(single != outcomes);
            }
        }
        run += median(&run_s);
        agg += median(&agg_s);
        run_1t += median(&run_1t_s);
    }
    let plain = passes.pass_wall();
    let cohorts: u32 = soas.iter().map(SoaFleet::cohorts).sum();
    let layers = &mut out.metrics;
    layers.set("sim.soa.run_s", run);
    layers.set("sim.fleet.aggregate_s", agg);
    layers.set("sim.soa.run_1t_s", run_1t);
    layers.set(
        "sim.soa.parallel_efficiency",
        run_1t / (run * crate::util::nproc() as f64),
    );
    layers.set("sim.soa.cohorts", f64::from(cohorts));
    layers.set(
        "sim.soa.users_per_cohort",
        spec.users() as f64 / f64::from(cohorts),
    );
    layers.set(
        "sim.soa.bytes_per_user",
        soas.iter()
            .map(|s| f64::from(s.bytes_per_user()))
            .sum::<f64>()
            / soas.len() as f64,
    );
    layers.set("fleet-month.plain_s", plain);
    layers.set("fleet-month.unattributed_s", plain - run - agg);

    // The hour step on the scalar loop against the event core at
    // dt = 3600: the same users' REAP month, which must agree exactly.
    let (mut scalar_us, mut event_us) = (Vec::new(), Vec::new());
    let mut engine_mismatches = 0;
    for user in 0..ENGINE_SAMPLE_USERS.min(spec.users_per_site) {
        let scenario = sites[0].fleet.user_scenario(user).map_err(err)?;
        let (scalar, t) = timed(|| scenario.run(Policy::Reap));
        scalar_us.push(t * 1e6);
        let (event, t) = timed(|| scenario.run_event_driven(Policy::Reap));
        event_us.push(t * 1e6);
        engine_mismatches += usize::from(scalar.map_err(err)? != event.map_err(err)?.report);
    }
    layers.set("sim.engine.reap_month_us", median(&scalar_us));
    layers.set("sim.clock.battery_month_us", median(&event_us));

    out.check(
        "replayed_base_traces_match",
        trace_mismatches == 0,
        format!("{trace_mismatches} replayed traces differ from the fleet's"),
    );
    out.check(
        "replayed_cohorts_match",
        cohort_mismatches == 0,
        format!("{cohort_mismatches} sites count a different number of cohorts"),
    );
    out.check(
        "traced_pass_reproduces_reports",
        summary_mismatches == 0,
        format!("{summary_mismatches} traced site runs differ from the plain reports"),
    );
    out.check(
        "scalar_and_event_core_agree",
        engine_mismatches == 0,
        format!("{engine_mismatches} sampled users differ between the two engines"),
    );
    Ok(())
}
