//! Shared machinery of the three simulation workloads: seeded multi-site
//! fleets, the set-up and timed-pass loops, and the replays the traced
//! runs time layer by layer from outside the program.
//!
//! A workload's population is split over several *sites*, each a
//! [`Fleet`] with its own seed and so its own weather. One pass runs
//! [`Fleet::run`] on every site. Many independent sites keep the quality
//! metrics from hinging on one month of one site's weather.

use std::collections::BTreeSet;
use std::num::NonZeroUsize;

use reap_core::{OperatingPoint, ReapProblem};
use reap_harvest::{BlackoutOverlay, HarvestSource, HarvestTrace, SourceKind};
use reap_sim::{
    AllocatorKind, Fleet, FleetReport, ForecasterKind, IntermittentConfig, Percentiles, Policy,
    Scenario, SimReport, SoaFleet, UserOutcome,
};
use reap_units::Power;

use crate::record::{Metrics, Outcome};
use crate::util::{err, median, mid_mean, mix, timed, Res};

/// First simulated day of every trace: the paper's September.
pub const START_DAY: u32 = 244;
/// Off-state power of every fleet problem (the fleet's and the daemon's
/// fixed value).
const OFF_POWER_UW: f64 = 50.0;
/// Largest ledger imbalance the event core may show, in joules.
pub const LEDGER_TOLERANCE_J: f64 = 1e-9;

/// The shape of a simulation workload.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub sites: usize,
    pub users_per_site: u32,
    pub days: u32,
    pub sources: Vec<SourceKind>,
    pub policy: Policy,
    /// Relative error of the noisy-oracle forecast; `None` keeps the
    /// fleet's default EWMA forecaster.
    pub oracle_error: Option<f64>,
    /// Share of every day blacked out, if any.
    pub blackout: Option<f64>,
    /// Batteryless operation on the wearable supercapacitor.
    pub intermittent: bool,
    pub dt_seconds: u32,
}

/// One site: its seed and its fleet.
pub struct Site {
    pub seed: u64,
    pub fleet: Fleet,
}

impl SimSpec {
    /// The seed of site `site` of a run seeded `run_seed`.
    pub fn site_seed(run_seed: u64, site: usize) -> u64 {
        mix(mix(run_seed) ^ site as u64)
    }

    /// The forecaster of the site seeded `site_seed`.
    pub fn forecaster(&self, site_seed: u64) -> ForecasterKind {
        match self.oracle_error {
            Some(rel_error) => ForecasterKind::Oracle {
                rel_error,
                seed: mix(site_seed ^ 0x0F0F),
            },
            None => ForecasterKind::Ewma,
        }
    }

    fn blackout_seed(site_seed: u64) -> u64 {
        mix(site_seed ^ 0xB1AC)
    }

    /// Builds the fleet of the site seeded `site_seed`.
    pub fn build(&self, points: &[OperatingPoint], site_seed: u64) -> Res<Fleet> {
        let mut builder = Fleet::builder(points.to_vec())
            .users(self.users_per_site)
            .days(self.days)
            .start_day_of_year(START_DAY)
            .seed(site_seed)
            .sources(self.sources.clone())
            .allocator(AllocatorKind::Ewma)
            .policy(self.policy)
            .forecaster(self.forecaster(site_seed))
            .dt_seconds(self.dt_seconds);
        if let Some(fraction) = self.blackout {
            builder = builder.blackout(Self::blackout_seed(site_seed), fraction);
        }
        if self.intermittent {
            builder = builder.intermittent(IntermittentConfig::wearable_default());
        }
        builder.build().map_err(err)
    }

    pub fn users(&self) -> u64 {
        self.sites as u64 * u64::from(self.users_per_site)
    }

    /// Simulated user-hours in one pass over every site.
    pub fn user_hours(&self) -> u64 {
        self.users() * u64::from(self.days) * 24
    }

    pub fn descriptor(&self) -> Vec<(&'static str, String)> {
        vec![
            ("users", self.users().to_string()),
            ("sites", self.sites.to_string()),
            ("days", self.days.to_string()),
            (
                "sources",
                self.sources
                    .iter()
                    .map(|k| k.label())
                    .collect::<Vec<_>>()
                    .join("+"),
            ),
            ("policy", self.policy.to_string()),
            (
                "forecast",
                self.oracle_error
                    .map_or("ewma".to_string(), |e| format!("oracle±{e}")),
            ),
            (
                "blackout",
                self.blackout.map_or("none".to_string(), |f| f.to_string()),
            ),
            (
                "store",
                if self.intermittent {
                    "supercapacitor"
                } else {
                    "battery"
                }
                .to_string(),
            ),
            ("dt_s", self.dt_seconds.to_string()),
            ("threads", crate::util::nproc().to_string()),
            ("connections", "0".to_string()),
        ]
    }
}

/// Measures set-up — building every site's fleet plus the SoA flattening
/// its first [`Fleet::run`] caches — at least `min_reps` times and until
/// `min_total_s` has passed. Returns the last repetition's sites (with
/// their caches still empty) and every repetition's time.
pub fn measure_setup(
    spec: &SimSpec,
    points: &[OperatingPoint],
    run_seed: u64,
    min_reps: usize,
    min_total_s: f64,
) -> Res<(Vec<Site>, Vec<f64>)> {
    let mut times = Vec::new();
    loop {
        let mut sites = Vec::with_capacity(spec.sites);
        let mut total = 0.0;
        for i in 0..spec.sites {
            let seed = SimSpec::site_seed(run_seed, i);
            let (built, t) = timed(|| -> Res<Fleet> {
                let fleet = spec.build(points, seed)?;
                std::hint::black_box(SoaFleet::new(&fleet).map_err(err)?);
                Ok(fleet)
            });
            total += t;
            sites.push(Site {
                seed,
                fleet: built?,
            });
        }
        times.push(total);
        let spent: f64 = times.iter().sum();
        if times.len() >= min_reps && (spent >= min_total_s || times.len() >= 500) {
            return Ok((sites, times));
        }
    }
}

/// Timed passes of [`Fleet::run`] over every site.
pub struct Passes {
    /// Per site, the wall time of each of its timed runs, in seconds.
    pub site_walls: Vec<Vec<f64>>,
    /// Each site's report from the first pass (the warm-up pass when
    /// there is one).
    pub reference: Vec<FleetReport>,
    /// Site runs whose report differed from the reference.
    pub mismatches: usize,
    /// Peak memory (`VmHWM`, MiB) after set-up and the first timed pass.
    /// Read then, not at the end: repeated passes fragment the allocator's
    /// arenas, so the end-of-run peak creeps up with run length and with
    /// how fast the host is.
    pub peak_rss_mib: f64,
}

impl Passes {
    /// The wall time of one pass: the sum over sites of the mean of each
    /// site's middle half of runs, so a burst of noise on the host moves
    /// one sample of one site rather than a whole pass.
    pub fn pass_wall(&self) -> f64 {
        self.site_walls.iter().map(|w| mid_mean(w)).sum()
    }

    pub fn passes(&self) -> usize {
        self.site_walls.first().map_or(0, Vec::len)
    }
}

/// Runs passes until `seconds` have passed and at least `min_passes` are
/// timed. With `warmup`, one untimed pass first fills every fleet's
/// cache.
pub fn run_passes(sites: &[Site], seconds: f64, min_passes: usize, warmup: bool) -> Res<Passes> {
    let mut reference = Vec::new();
    if warmup {
        for site in sites {
            reference.push(site.fleet.run().map_err(err)?);
        }
    }
    let mut site_walls = vec![Vec::new(); sites.len()];
    let mut mismatches = 0;
    let mut peak_rss_mib = None;
    let start = std::time::Instant::now();
    while site_walls[0].len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        for (i, site) in sites.iter().enumerate() {
            let (report, wall) = timed(|| site.fleet.run());
            let report = report.map_err(err)?;
            site_walls[i].push(wall);
            match reference.get(i) {
                Some(r) => mismatches += usize::from(&report != r),
                None => reference.push(report),
            }
        }
        if peak_rss_mib.is_none() {
            peak_rss_mib = Some(crate::util::peak_rss_mib()?);
        }
    }
    Ok(Passes {
        site_walls,
        reference,
        mismatches,
        peak_rss_mib: peak_rss_mib.expect("at least one pass ran"),
    })
}

/// Sets the plain-run end-to-end metrics of a simulation workload and
/// checks that repetitions agree.
pub fn plain_metrics(out: &mut Outcome, spec: &SimSpec, setups: &[f64], passes: &Passes) {
    let m = &mut out.metrics;
    m.set("peak_rss_mib", passes.peak_rss_mib);
    m.set("setup_s", median(setups));
    m.set(
        "sim_user_hours_per_s",
        spec.user_hours() as f64 / passes.pass_wall(),
    );
    // Sites are equally sized, so the mean of site means is the mean over
    // every user-hour.
    let sites = passes.reference.len() as f64;
    m.set(
        "expected_accuracy",
        passes
            .reference
            .iter()
            .map(FleetReport::mean_accuracy)
            .sum::<f64>()
            / sites,
    );
    m.set(
        "active_fraction",
        passes
            .reference
            .iter()
            .map(FleetReport::mean_active_fraction)
            .sum::<f64>()
            / sites,
    );
    out.attempted += (passes.passes() * passes.reference.len()) as u64;
    out.check(
        "repetitions_identical",
        passes.mismatches == 0,
        format!(
            "{} of {} timed site runs differed from the first report",
            passes.mismatches,
            passes.passes() * passes.reference.len()
        ),
    );
}

/// Sum of the sites' brownout hours.
pub fn brownout_hours(passes: &Passes) -> f64 {
    passes
        .reference
        .iter()
        .map(|r| r.brownout_hours() as f64)
        .sum()
}

/// Runs every site on one worker thread and checks the reports equal the
/// `nproc`-thread reference. Returns the single-thread pass wall time.
pub fn check_one_thread(out: &mut Outcome, sites: &[Site], reference: &[FleetReport]) -> Res<f64> {
    let (reports, wall) = timed(|| -> Res<Vec<FleetReport>> {
        sites
            .iter()
            .map(|s| {
                s.fleet
                    .run_with_threads(Some(NonZeroUsize::MIN))
                    .map_err(err)
            })
            .collect()
    });
    let differing = reports?
        .iter()
        .zip(reference)
        .filter(|(a, b)| a != b)
        .count();
    out.check(
        "one_thread_matches_nproc",
        differing == 0,
        format!("{differing} sites differ between 1 and nproc threads"),
    );
    Ok(wall)
}

/// The seed of a fleet's shared base trace for `kind`: one weather stream
/// per source kind, as the fleet derives it.
fn base_trace_seed(fleet_seed: u64, kind: SourceKind) -> u64 {
    let ordinal = SourceKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("SourceKind::ALL lists every kind") as u64;
    fleet_seed ^ (ordinal + 1).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// Generates the shared base trace of `kind` for a site, through the
/// public harvest API. Replays check the result against the fleet's own.
pub fn base_trace(spec: &SimSpec, site_seed: u64, kind: SourceKind) -> Res<HarvestTrace> {
    let source = kind.instantiate(base_trace_seed(site_seed, kind));
    let source: Box<dyn HarvestSource> = match spec.blackout {
        Some(fraction) => Box::new(
            BlackoutOverlay::new(source, SimSpec::blackout_seed(site_seed), fraction)
                .map_err(err)?,
        ),
        None => source,
    };
    source.generate(START_DAY, spec.days).map_err(err)
}

/// Rebuilds user `user`'s scenario from outside — perturbing `base` is
/// harvest time, deriving the user and building the scenario is fleet
/// time — exactly as [`Fleet::user_scenario`] builds it.
pub fn replay_scenario(
    spec: &SimSpec,
    site: &Site,
    user: u32,
    base: &HarvestTrace,
    layers: &mut Metrics,
    trace_events: bool,
) -> Res<Scenario> {
    let (params, t) = timed(|| site.fleet.user_params(user));
    layers.add("sim.user_scenario_s", t);
    let params = params.map_err(err)?;
    let (trace, t) = timed(|| params.perturbation.apply(base));
    layers.add("harvest.trace_gen_s", t);
    let trace = trace.map_err(err)?;
    let (scenario, t) = timed(|| {
        let mut builder = Scenario::builder(trace)
            .points(params.points)
            .alpha(params.alpha)
            .allocator(AllocatorKind::Ewma)
            .forecaster(spec.forecaster(site.seed))
            .dt_seconds(spec.dt_seconds)
            .trace_events(trace_events);
        if spec.intermittent {
            builder = builder.intermittent(IntermittentConfig::wearable_default());
        }
        builder.build()
    });
    layers.add("sim.user_scenario_s", t);
    scenario.map_err(err)
}

/// Counts the cohorts of `fleet` and times building each one's frontier
/// table through the public core API, deduplicating users on the same
/// key the fleet's SoA core and the daemon use. Returns
/// `(cohorts, seconds spent building frontiers)`.
pub fn frontier_replay(fleet: &Fleet) -> Res<(u32, f64)> {
    let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut build_s = 0.0;
    for u in 0..fleet.users() {
        let params = fleet.user_params(u).map_err(err)?;
        let mut key = Vec::with_capacity(1 + 3 * params.points.len());
        key.push(params.alpha.to_bits());
        for p in &params.points {
            key.push(u64::from(p.id()));
            key.push(p.accuracy().to_bits());
            key.push(p.power().watts().to_bits());
        }
        if seen.insert(key) {
            let (table, t) = timed(|| {
                ReapProblem::builder()
                    .alpha(params.alpha)
                    .off_power(Power::from_microwatts(OFF_POWER_UW))
                    .points(params.points.clone())
                    .build()
                    .map(|p| p.frontier().table())
            });
            std::hint::black_box(table.map_err(err)?);
            build_s += t;
        }
    }
    Ok((seen.len() as u32, build_s))
}

/// The per-user scalars the fleet reduces a scalar-engine report to.
pub fn outcome_of(report: &SimReport, days: u32) -> UserOutcome {
    UserOutcome {
        accuracy: report.mean_accuracy(),
        active_fraction: report.total_active_time().hours() / (f64::from(days) * 24.0),
        brownout_hours: report.brownout_hours() as u32,
        harvested_j: report.total_harvested().joules(),
    }
}

/// A fleet report rebuilt from per-user outcomes through the public
/// percentile API, in user order as the fleet reduces them.
#[derive(Debug, PartialEq)]
pub struct Summary {
    accuracy: Percentiles,
    active_fraction: Percentiles,
    mean_accuracy: f64,
    mean_active_fraction: f64,
    brownout_hours: u64,
    /// Per source slot: users and mean accuracy, active fraction and
    /// harvested joules.
    per_source: Vec<(u32, f64, f64, f64)>,
}

/// Reduces `outcomes` (in user order) over `slots` round-robin source
/// slots.
pub fn aggregate(outcomes: &[UserOutcome], slots: usize) -> Summary {
    let mut sums = vec![(0u32, 0.0f64, 0.0f64, 0.0f64); slots];
    let mut brownout_hours = 0u64;
    for (user, o) in outcomes.iter().enumerate() {
        brownout_hours += u64::from(o.brownout_hours);
        let slot = &mut sums[user % slots];
        slot.0 += 1;
        slot.1 += o.accuracy;
        slot.2 += o.active_fraction;
        slot.3 += o.harvested_j;
    }
    let accuracies: Vec<f64> = outcomes.iter().map(|o| o.accuracy).collect();
    let actives: Vec<f64> = outcomes.iter().map(|o| o.active_fraction).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Summary {
        mean_accuracy: mean(&accuracies),
        mean_active_fraction: mean(&actives),
        accuracy: Percentiles::of(accuracies),
        active_fraction: Percentiles::of(actives),
        brownout_hours,
        per_source: sums
            .into_iter()
            .map(|(n, acc, act, harvested)| {
                let d = f64::from(n.max(1));
                (n, acc / d, act / d, harvested / d)
            })
            .collect(),
    }
}

/// `true` when `summary` reproduces `report` exactly.
pub fn summary_matches(summary: &Summary, report: &FleetReport) -> bool {
    let per_source: Vec<(u32, f64, f64, f64)> = report
        .per_source()
        .iter()
        .map(|s| {
            (
                s.users,
                s.mean_accuracy,
                s.mean_active_fraction,
                s.mean_harvested_j,
            )
        })
        .collect();
    summary.accuracy == report.accuracy()
        && summary.active_fraction == report.active_fraction()
        && summary.mean_accuracy.to_bits() == report.mean_accuracy().to_bits()
        && summary.mean_active_fraction.to_bits() == report.mean_active_fraction().to_bits()
        && summary.brownout_hours == report.brownout_hours()
        && summary.per_source == per_source
}

/// Times the fleet-level reduction of one site from outside and checks it
/// reproduces the site's plain report.
pub fn timed_aggregate(
    layers: &mut Metrics,
    outcomes: &[UserOutcome],
    slots: usize,
    reference: &FleetReport,
) -> bool {
    let (summary, t) = timed(|| aggregate(outcomes, slots));
    layers.add("sim.fleet.aggregate_s", t);
    summary_matches(&summary, reference)
}
