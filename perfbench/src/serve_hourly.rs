//! `serve-hourly`: a resident `reap-serve` daemon on loopback under a
//! closed loop of at most `nproc` connections. Each connection owns a
//! fixed set of users; for every simulated hour each of its users sends
//! `observe` (that user's harvest for the hour) and then `decide`, so
//! writes run beside reads on the same `FleetState`. A closed loop,
//! because a device waits for its grant before it runs the hour.
//!
//! Connections advance in whole simulated days and agree at each day's
//! end whether to go on, so every user is served the same hours. The
//! input is a month per user, replayed cyclically when a run serves more.
//! Replies are folded into a digest as they arrive and latencies into
//! fixed histograms, so memory does not grow with the hours served.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

use reap_core::OperatingPoint;
use reap_serve::protocol::{Request, Response, WireShare};
use reap_serve::{
    FleetState, RetryClient, RetryConfig, Server, ServerConfig, ServerHandle, SnapshotRing,
};
use reap_sim::Fleet;

use crate::record::Outcome;
use crate::sim::{self, SimSpec, START_DAY};
use crate::spec::Workload;
use crate::util::{err, median, mid_mean, timed, Res};

/// Resident-state shards (the daemon's default striping).
const SHARDS: usize = 16;
/// Days of harvest input per user.
const INPUT_DAYS: u32 = 30;
/// User-hours per connection whose frames the traced run keeps to time
/// the protocol.
const PROTOCOL_SAMPLE: usize = 50_000;

/// The shape of the serving workload.
pub struct ServeSpec {
    pub users: u32,
    /// Days every run serves; the quality metrics cover exactly these.
    pub min_days: u32,
    pub connections: usize,
}

pub fn spec(tiny: bool) -> ServeSpec {
    ServeSpec {
        users: if tiny { 64 } else { 2000 },
        min_days: if tiny { 1 } else { 2 },
        connections: crate::util::nproc(),
    }
}

impl ServeSpec {
    fn descriptor(&self) -> Vec<(&'static str, String)> {
        vec![
            ("users", self.users.to_string()),
            ("weather", "one site per user".to_string()),
            (
                "days",
                format!("at least {}, input {INPUT_DAYS} cyclic", self.min_days),
            ),
            ("sources", "all".to_string()),
            ("policy", "REAP".to_string()),
            ("dt_s", "3600".to_string()),
            ("shards", SHARDS.to_string()),
            ("threads", crate::util::nproc().to_string()),
            ("connections", self.connections.to_string()),
        ]
    }

    fn fleet(&self, points: &[OperatingPoint], seed: u64) -> Res<Fleet> {
        Fleet::builder(points.to_vec())
            .users(self.users)
            .days(INPUT_DAYS)
            .start_day_of_year(START_DAY)
            .seed(seed)
            .build()
            .map_err(err)
    }

    /// Users connection `c` of `conns` owns.
    fn owned(&self, c: usize, conns: usize) -> impl Iterator<Item = u32> + Clone {
        (c as u32..self.users).step_by(conns)
    }
}

/// Latency histogram with 0.1% wide logarithmic buckets over nanoseconds.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
}

impl Hist {
    const GROWTH: f64 = 1.001;
    /// Covers up to about 1.3 s.
    const BUCKETS: usize = 21_000;

    pub fn new() -> Hist {
        Hist {
            counts: vec![0; Self::BUCKETS],
        }
    }

    pub fn record(&mut self, ns: f64) {
        let k = (ns.max(1.0).ln() / Self::GROWTH.ln()) as usize;
        self.counts[k.min(Self::BUCKETS - 1)] += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Quantile `q` in nanoseconds, interpolated within its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.len();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &n) in self.counts.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let lo = Self::GROWTH.powi(k as i32);
                let within = (rank - seen) as f64 / n as f64;
                return lo + lo * (Self::GROWTH - 1.0) * within;
            }
            seen += n;
        }
        Self::GROWTH.powi(Self::BUCKETS as i32)
    }
}

/// FNV-1a over 64-bit words: the order-sensitive digest of the replies a
/// connection received.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds in one user-hour's observe budget and decision.
    fn reply(&mut self, observed_j: f64, d: &Decided) {
        for v in [
            observed_j, d.budget_j, d.accuracy, d.active_s, d.energy_j, d.off_s,
        ] {
            self.word(v.to_bits());
        }
        for s in &d.shares {
            self.word(u64::from(s.id));
            self.word(s.seconds.to_bits());
        }
    }
}

/// A decision's fields, from the wire or from the in-process replay.
#[derive(Debug, Clone, PartialEq)]
struct Decided {
    budget_j: f64,
    accuracy: f64,
    active_s: f64,
    energy_j: f64,
    off_s: f64,
    shares: Vec<WireShare>,
}

fn decision_of(response: Response) -> Option<Decided> {
    match response {
        Response::Decision {
            budget_j,
            accuracy,
            active_s,
            energy_j,
            off_s,
            shares,
            ..
        } => Some(Decided {
            budget_j,
            accuracy,
            active_s,
            energy_j,
            off_s,
            shares,
        }),
        _ => None,
    }
}

/// One served user-hour kept for the protocol timing.
struct Frame {
    user: u32,
    hour: u32,
    seq: u64,
    harvest_j: f64,
    observed_j: f64,
    decision: Decided,
}

/// What one connection did.
struct ConnLog {
    hours: u32,
    digest: Digest,
    /// Accuracy and active-fraction sums over the first `min_days`, and
    /// how many decisions they cover.
    quality: (f64, f64, u64),
    observe: Hist,
    decide: Hist,
    errors: u64,
    frames: Vec<Frame>,
}

struct Daemon {
    handle: ServerHandle,
    serving: JoinHandle<std::io::Result<()>>,
    clients: Vec<RetryClient>,
}

impl Daemon {
    fn stop(self) -> Res<()> {
        drop(self.clients);
        self.handle.shutdown();
        self.serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(err)
    }
}

/// Stands the daemon up: resident state, bind, and every connection.
/// Returns it with the `FleetState::new` time and the whole set-up time.
fn stand_up(fleet: &Fleet, connections: usize) -> Res<(Daemon, f64, f64)> {
    let start = Instant::now();
    let (state, state_s) = timed(|| FleetState::new(fleet, SHARDS));
    let server =
        Server::bind("127.0.0.1:0", state.map_err(err)?, ServerConfig::default()).map_err(err)?;
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let clients = (0..connections)
        .map(|_| RetryClient::connect(addr, RetryConfig::default()).map_err(err))
        .collect::<Res<Vec<_>>>();
    let total = start.elapsed().as_secs_f64();
    let daemon = Daemon {
        handle,
        serving,
        clients: Vec::new(),
    };
    match clients {
        Ok(clients) => Ok((Daemon { clients, ..daemon }, state_s, total)),
        Err(e) => {
            daemon.stop()?;
            Err(e)
        }
    }
}

/// The closed loop: every connection serves its users hour by hour until
/// the deadline passes at a day's end (after at least `min_days`).
/// Returns each connection's log and the wall time of each simulated day.
fn closed_loop(
    spec: &ServeSpec,
    clients: &mut [RetryClient],
    harvest: &[Vec<f64>],
    seconds: f64,
    keep_frames: bool,
) -> (Vec<ConnLog>, Vec<f64>) {
    let conns = clients.len();
    let barrier = Barrier::new(conns);
    let go_on = AtomicBool::new(true);
    let day_ends = std::sync::Mutex::new(Vec::new());
    let quality_hours = spec.min_days * 24;
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, go_on, day_ends) = (&barrier, &go_on, &day_ends);
                s.spawn(move || {
                    let mut log = ConnLog {
                        hours: 0,
                        digest: Digest::new(),
                        quality: (0.0, 0.0, 0),
                        observe: Hist::new(),
                        decide: Hist::new(),
                        errors: 0,
                        frames: Vec::new(),
                    };
                    // The retrying client stamps its observes 1, 2, 3, ...
                    let mut seq = 0u64;
                    for day in 0.. {
                        for hour in day * 24..(day + 1) * 24 {
                            for user in spec.owned(c, conns) {
                                let input = &harvest[user as usize];
                                let harvest_j = input[hour as usize % input.len()];
                                seq += 1;
                                let sent = Instant::now();
                                let observed = client.observe(user, hour, harvest_j, None);
                                log.observe.record(sent.elapsed().as_nanos() as f64);
                                let sent = Instant::now();
                                let decided = client.decide(user);
                                log.decide.record(sent.elapsed().as_nanos() as f64);
                                let (Ok(observed_j), Some(d)) =
                                    (observed, decided.ok().and_then(decision_of))
                                else {
                                    log.errors += 1;
                                    continue;
                                };
                                log.digest.reply(observed_j, &d);
                                if hour < quality_hours {
                                    log.quality.0 += d.accuracy;
                                    log.quality.1 += d.active_s / 3600.0;
                                    log.quality.2 += 1;
                                }
                                if keep_frames && log.frames.len() < PROTOCOL_SAMPLE {
                                    log.frames.push(Frame {
                                        user,
                                        hour,
                                        seq,
                                        harvest_j,
                                        observed_j,
                                        decision: d,
                                    });
                                }
                            }
                        }
                        log.hours = (day + 1) * 24;
                        if barrier.wait().is_leader() {
                            let mut ends = day_ends.lock().expect("no thread panics holding it");
                            ends.push(start.elapsed().as_secs_f64());
                            let more =
                                day + 1 < spec.min_days || start.elapsed().as_secs_f64() < seconds;
                            go_on.store(more, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go_on.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load-generator thread"))
            .collect::<Vec<_>>()
    });
    let ends = day_ends.into_inner().expect("no thread panics holding it");
    let day_walls = ends
        .iter()
        .scan(0.0, |prev, &end| {
            let wall = end - *prev;
            *prev = end;
            Some(wall)
        })
        .collect();
    (logs, day_walls)
}

/// Replays every connection's request stream through a fresh in-process
/// `FleetState`. Returns the replay state, the number of connections
/// whose reply digest differs, and the total observe and decide times.
/// Each hour's observes are timed as one block and its decides as
/// another (a user's decide depends only on that user's observes), so
/// the timer costs little beside calls of tens of nanoseconds.
fn replay(
    spec: &ServeSpec,
    fleet: &Fleet,
    harvest: &[Vec<f64>],
    logs: &[ConnLog],
) -> Res<(FleetState, usize, f64, f64)> {
    let state = FleetState::new(fleet, SHARDS).map_err(err)?;
    let (mut mismatches, mut observe_s, mut decide_s) = (0, 0.0, 0.0);
    for (c, log) in logs.iter().enumerate() {
        let owned: Vec<u32> = spec.owned(c, logs.len()).collect();
        let mut digest = Digest::new();
        let mut seq = 0u64;
        for hour in 0..log.hours {
            let (observed, t) = timed(|| {
                owned
                    .iter()
                    .map(|&user| {
                        let input = &harvest[user as usize];
                        seq += 1;
                        let harvest_j = input[hour as usize % input.len()];
                        state.observe_seq(user, hour, harvest_j, None, Some(seq))
                    })
                    .collect::<Vec<_>>()
            });
            observe_s += t;
            let (decided, t) = timed(|| {
                owned
                    .iter()
                    .map(|&user| state.decide(user))
                    .collect::<Vec<_>>()
            });
            decide_s += t;
            for (observed, decided) in observed.into_iter().zip(decided) {
                let d = decided.map_err(err)?;
                let decided = Decided {
                    budget_j: d.budget_j,
                    accuracy: d.decision.eval.accuracy,
                    active_s: d.decision.eval.active_s,
                    energy_j: d.decision.eval.energy_j,
                    off_s: d.decision.off_s,
                    shares: d
                        .decision
                        .shares()
                        .iter()
                        .map(|s| WireShare {
                            id: s.id,
                            seconds: s.seconds,
                        })
                        .collect(),
                };
                digest.reply(observed.map_err(err)?, &decided);
            }
        }
        mismatches += usize::from(digest != log.digest);
    }
    Ok((state, mismatches, observe_s, decide_s))
}

pub fn run(
    points: &[OperatingPoint],
    tiny: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Res<Outcome> {
    let spec = spec(tiny);
    let mut out = Outcome::new(Workload::ServeHourly, tiny, seed, seconds, traced);
    out.descriptor = spec.descriptor();

    // Inputs: the resident population, and each user's harvest stream:
    // that user's trace in a fleet of its own seed, so every device sees
    // its own weather.
    let fleet = spec.fleet(points, SimSpec::site_seed(seed, 0))?;
    let harvest = (0..spec.users)
        .map(|u| -> Res<Vec<f64>> {
            let site = spec.fleet(points, SimSpec::site_seed(seed, 1 + u as usize))?;
            let scenario = site.user_scenario(u).map_err(err)?;
            Ok(scenario.trace().iter().map(|e| e.joules()).collect())
        })
        .collect::<Res<Vec<_>>>()?;

    // Set-up: resident state, bind and connect, several times.
    let (mut setups, mut state_news) = (Vec::new(), Vec::new());
    let mut daemon = None;
    while setups.len() < 5 || (setups.iter().sum::<f64>() < 0.3 && setups.len() < 50) {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let (d, state_s, total) = stand_up(&fleet, spec.connections)?;
        setups.push(total);
        state_news.push(state_s);
        daemon = Some(d);
    }

    // The closed loop runs on several freshly stood-up daemons in turn,
    // each for an equal share of the time. Where a daemon's threads and
    // resident state land differs between stand-ups and moves throughput
    // by up to ±10% on a 2-core host, and the host flips between a fast
    // and a slow state every few seconds; the rate comes from the mean of
    // the middle half of the days of every round.
    let rounds = if tiny { 2 } else { 4 };
    let mut results = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut d = match daemon.take() {
            Some(d) => d,
            None => {
                let (d, state_s, total) = stand_up(&fleet, spec.connections)?;
                setups.push(total);
                state_news.push(state_s);
                d
            }
        };
        let keep_frames = traced && round + 1 == rounds;
        let share = seconds / rounds as f64;
        let (logs, day_walls) = closed_loop(&spec, &mut d.clients, &harvest, share, keep_frames);
        let stats = d.clients[0].stats();
        let faults = d
            .clients
            .iter()
            .fold((0, 0), |(r, c), cl| (r + cl.retries(), c + cl.reconnects()));
        d.stop()?;
        let (fleet_stats, server_stats) = stats.map_err(err)?;
        if round == 0 {
            // Peak memory after set-up and the first round, as the
            // simulation workloads read it after their first pass.
            out.metrics
                .set("peak_rss_mib", crate::util::peak_rss_mib()?);
        }
        results.push(Round {
            logs,
            day_walls,
            fleet_stats,
            server_stats,
            faults,
        });
    }

    let day_walls: Vec<f64> = results
        .iter()
        .flat_map(|r| r.day_walls.iter().copied())
        .collect();
    let wall: f64 = day_walls.iter().sum();
    let day_rate = f64::from(spec.users) * 24.0 / mid_mean(&day_walls);
    let (observe, decide) = hists(results.iter().flat_map(|r| r.logs.iter()));
    let errors: u64 = results
        .iter()
        .flat_map(|r| r.logs.iter())
        .map(|l| l.errors)
        .sum();
    let server_errors: u64 = results.iter().map(|r| r.server_stats.errors).sum();
    let pairs = observe.len() as f64;
    out.attempted += 2 * observe.len();
    out.failed += 2 * errors + server_errors;

    let (acc, active, decisions) = results[0].quality();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("sim_user_hours_per_s", day_rate);
    m.set("expected_accuracy", acc / decisions.max(1) as f64);
    m.set("active_fraction", active / decisions.max(1) as f64);
    m.set("serve_requests_per_s", 2.0 * day_rate);
    m.set("observe_p50_us", observe.quantile(0.5) / 1e3);
    m.set("observe_p99_us", observe.quantile(0.99) / 1e3);
    m.set("decide_p50_us", decide.quantile(0.5) / 1e3);
    m.set("decide_p99_us", decide.quantile(0.99) / 1e3);
    m.set("observe_samples", observe.len() as f64);
    m.set("decide_samples", decide.len() as f64);

    let unserved = results
        .iter()
        .filter(|r| !r.served_every_hour(spec.users))
        .count();
    out.check(
        "every_user_served_every_hour",
        unserved == 0 && errors == 0,
        format!("{unserved} rounds left user-hours unserved; {errors} requests failed"),
    );
    out.check(
        "rounds_agree_on_quality",
        results.iter().all(|r| r.quality() == results[0].quality()),
        "the decisions of the first days are identical in every round",
    );

    let (mut reply_mismatches, mut digest_mismatches) = (0, 0);
    let (mut observe_s, mut decide_s) = (0.0, 0.0);
    let mut last_state = None;
    for r in &results {
        let (state, mismatches, o, d) = replay(&spec, &fleet, &harvest, &r.logs)?;
        reply_mismatches += mismatches;
        digest_mismatches += usize::from(state.fleet_stats() != r.fleet_stats);
        observe_s += o;
        decide_s += d;
        last_state = Some(state);
    }
    let state = last_state.expect("at least one round");
    out.check(
        "replay_matches_every_reply",
        reply_mismatches == 0,
        format!("{reply_mismatches} connections' replies differ from the in-process replay"),
    );
    out.check(
        "replay_matches_state_digest",
        digest_mismatches == 0,
        format!("{digest_mismatches} rounds' final fleet stats differ from the replay's"),
    );

    if traced {
        let last = results.last().expect("at least one round");
        let server_stats = &last.server_stats;
        let m = &mut out.metrics;
        let (cohorts, frontier_s) = sim::frontier_replay(&fleet)?;
        m.set("core.frontier_build_s", frontier_s);
        m.set("core.frontier_builds", f64::from(cohorts));
        m.set("serve.state.new_s", median(&state_news) - frontier_s);
        m.set("serve.state.observe_ns", observe_s * 1e9 / pairs);
        m.set("serve.state.decide_ns", decide_s * 1e9 / pairs);
        let frames: Vec<&Frame> = last.logs.iter().flat_map(|l| l.frames.iter()).collect();
        let (encode_ns, decode_ns, protocol_s_per_pair, protocol_ok) = time_protocol(&frames);
        m.set("serve.protocol.encode_ns", encode_ns);
        m.set("serve.protocol.decode_ns", decode_ns);
        m.set("serve.server.observe_p50_us", server_stats.observe_p50_us);
        m.set("serve.server.observe_p99_us", server_stats.observe_p99_us);
        m.set("serve.server.decide_p50_us", server_stats.decide_p50_us);
        m.set("serve.server.decide_p99_us", server_stats.decide_p99_us);
        // Client minus server handling, both from the last round.
        let (client_observe, client_decide) = hists(last.logs.iter());
        m.set(
            "serve.transport_p50_us",
            (client_observe.quantile(0.5) / 1e3 - server_stats.observe_p50_us
                + client_decide.quantile(0.5) / 1e3
                - server_stats.decide_p50_us)
                / 2.0,
        );
        let (bytes, encode_s) = timed(|| reap_serve::snapshot::snapshot(&state));
        m.set("serve.snapshot.encode_s", encode_s);
        m.set("serve.snapshot.bytes", bytes.len() as f64);
        m.set("serve.snapshot.ring_write_s", ring_write(&state)?);
        let (retries, reconnects) = results.iter().fold((0, 0), |(r, c), round| {
            (r + round.faults.0, c + round.faults.1)
        });
        m.set("serve.retries", retries as f64);
        m.set("serve.reconnects", reconnects as f64);
        m.set("serve.errors", server_errors as f64);
        m.set(
            "serve.evicted",
            results.iter().map(|r| r.server_stats.evicted as f64).sum(),
        );
        m.set(
            "serve.shed",
            results.iter().map(|r| r.server_stats.shed as f64).sum(),
        );
        // Connections run in parallel: the layer time one connection
        // waits on is the total over all of them divided by their count.
        let covered =
            (observe_s + decide_s + protocol_s_per_pair * pairs) / spec.connections as f64;
        m.set("serve-hourly.plain_s", wall);
        m.set("serve-hourly.unattributed_s", wall - covered);
        out.check(
            "replayed_cohorts_match",
            cohorts == state.cohorts(),
            format!("{cohorts} replayed cohorts, {} resident", state.cohorts()),
        );
        out.check(
            "protocol_round_trips",
            protocol_ok,
            "every sampled frame decodes to what was encoded",
        );
    }
    out.finish();
    Ok(out)
}

/// One round of the closed loop on its own daemon.
struct Round {
    logs: Vec<ConnLog>,
    day_walls: Vec<f64>,
    fleet_stats: reap_serve::FleetStats,
    server_stats: reap_serve::ServerStats,
    /// Client retries and reconnects.
    faults: (u64, u64),
}

impl Round {
    /// Accuracy and active-fraction sums over the first days, and the
    /// decisions they cover.
    fn quality(&self) -> (f64, f64, u64) {
        self.logs.iter().fold((0.0, 0.0, 0), |(a, b, n), l| {
            (a + l.quality.0, b + l.quality.1, n + l.quality.2)
        })
    }

    fn served_every_hour(&self, users: u32) -> bool {
        let hours = self.logs.first().map_or(0, |l| l.hours);
        let sent: u64 = self.logs.iter().map(|l| l.observe.len()).sum();
        self.logs.iter().all(|l| l.hours == hours) && sent == u64::from(hours) * u64::from(users)
    }
}

/// Observe and decide round-trip histograms merged over `logs`.
fn hists<'a>(logs: impl Iterator<Item = &'a ConnLog>) -> (Hist, Hist) {
    let (mut observe, mut decide) = (Hist::new(), Hist::new());
    for log in logs {
        observe.merge(&log.observe);
        decide.merge(&log.decide);
    }
    (observe, decide)
}

/// Encodes and decodes the sampled request and reply frames, as client
/// and server each do once per frame. Returns the mean encode and decode
/// cost per frame in ns, the protocol cost of one user-hour (two
/// exchanges) in seconds, and whether every frame round-tripped.
fn time_protocol(frames: &[&Frame]) -> (f64, f64, f64, bool) {
    let mut requests = Vec::with_capacity(2 * frames.len());
    let mut responses = Vec::with_capacity(2 * frames.len());
    for f in frames {
        requests.push(Request::Observe {
            user: f.user,
            hour: f.hour,
            harvest_j: f.harvest_j,
            activity: None,
            seq: Some(f.seq),
        });
        requests.push(Request::Decide { user: f.user });
        responses.push(Response::Observed {
            user: f.user,
            hour: f.hour,
            budget_j: f.observed_j,
        });
        let d = &f.decision;
        responses.push(Response::Decision {
            user: f.user,
            budget_j: d.budget_j,
            accuracy: d.accuracy,
            active_s: d.active_s,
            energy_j: d.energy_j,
            off_s: d.off_s,
            shares: d.shares.clone(),
        });
    }
    let (req_lines, req_enc) = timed(|| requests.iter().map(Request::encode).collect::<Vec<_>>());
    let (req_back, req_dec) = timed(|| {
        req_lines
            .iter()
            .map(|l| Request::decode(l))
            .collect::<Vec<_>>()
    });
    let (resp_lines, resp_enc) =
        timed(|| responses.iter().map(Response::encode).collect::<Vec<_>>());
    let (resp_back, resp_dec) = timed(|| {
        resp_lines
            .iter()
            .map(|l| Response::decode(l))
            .collect::<Vec<_>>()
    });
    let ok = req_back
        .iter()
        .zip(&requests)
        .all(|(back, sent)| back.as_ref().ok() == Some(sent))
        && resp_back
            .iter()
            .zip(&responses)
            .all(|(back, sent)| back.as_ref().ok() == Some(sent));
    let n = requests.len().max(1) as f64;
    let encode_ns = (req_enc + resp_enc) * 1e9 / (2.0 * n);
    let decode_ns = (req_dec + resp_dec) * 1e9 / (2.0 * n);
    // Per exchange: a request encoded and decoded, a reply encoded and
    // decoded; a user-hour is two exchanges.
    let per_exchange_s = (req_enc + req_dec + resp_enc + resp_dec) / n;
    (encode_ns, decode_ns, 2.0 * per_exchange_s, ok)
}

/// Time to write one crash-safe checkpoint into a fresh snapshot ring
/// beside the benchmark executable, removed afterwards.
fn ring_write(state: &FleetState) -> Res<f64> {
    let exe = std::env::current_exe().map_err(err)?;
    let dir = exe.with_file_name(format!("perfbench-ring-{}", std::process::id()));
    let ring = SnapshotRing::create(&dir, 1).map_err(err)?;
    let (written, t) = timed(|| ring.write(state));
    let removed = std::fs::remove_dir_all(&dir);
    written.map_err(err)?;
    removed.map_err(err)?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::Hist;

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Hist::new();
        for ns in 1..=10_000 {
            h.record(f64::from(ns));
        }
        assert_eq!(h.len(), 10_000);
        let p50 = h.quantile(0.5);
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.002, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.002, "{p99}");
    }
}
