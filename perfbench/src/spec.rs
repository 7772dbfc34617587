//! The benchmark's vocabulary: its workloads and every metric it reports,
//! with unit, direction and (for gated metrics) the bound by which a
//! metric may get worse before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root declares the same workloads,
//! the [`END_TO_END`] metrics and the [`PER_LAYER`] metrics; a test keeps
//! the two in step.

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetMonth,
    MpcFleet,
    IntermittentWeek,
    ServeHourly,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetMonth,
        Workload::MpcFleet,
        Workload::IntermittentWeek,
        Workload::ServeHourly,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMonth => "fleet-month",
            Workload::MpcFleet => "mpc-fleet",
            Workload::IntermittentWeek => "intermittent-week",
            Workload::ServeHourly => "serve-hourly",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FleetMonth => {
                "REAP fleet over all four sources: SoA kernel and cohort frontiers, no MPC, event core or serve"
            }
            Workload::MpcFleet => {
                "MPC24 fleet on a noisy oracle forecast: plan_horizon and its dense simplex dominate"
            }
            Workload::IntermittentWeek => {
                "batteryless body-heat fleet at 30% blackout: the only workload on the event core"
            }
            Workload::ServeHourly => {
                "resident daemon on loopback, observe then decide per user-hour: serve layers, no simulation"
            }
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How the compare step gates a metric between two runs of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// May get worse by at most this share of the base value.
    Bound(f64),
    /// A deterministic function of the workload and seed: must be equal.
    Exact,
    /// Reported only.
    None,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn m(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        gate,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports, with the bounds
/// `BENCHMARK.json` declares. These form the `--trace 0` result line.
///
/// `expected_accuracy` and `active_fraction` are deterministic for a
/// given seed (the compare step gates them exactly); their bound in
/// `BENCHMARK.json` covers medians taken over different seeds.
pub const END_TO_END: [MetricSpec; 5] = [
    m("setup_s", "s", Lower, Gate::Bound(0.25)),
    m("sim_user_hours_per_s", "1/s", Higher, Gate::Bound(0.25)),
    m("expected_accuracy", "ratio", Higher, Gate::Exact),
    m("active_fraction", "ratio", Higher, Gate::Exact),
    m("peak_rss_mib", "MiB", Lower, Gate::Bound(0.25)),
];

/// The bounds `BENCHMARK.json` gives the two deterministic quality
/// metrics across seeds.
pub const QUALITY_BOUND: f64 = 0.2;

/// Workload-specific end-to-end metrics: printed with the others and kept
/// in the full record the compare step reads, but not part of the result
/// line, whose metric set is the same for every workload.
pub const WORKLOAD_END_TO_END: [MetricSpec; 9] = [
    m("brownout_hours", "count", Lower, Gate::Exact),
    m("error_rate", "ratio", Lower, Gate::Exact),
    m("serve_requests_per_s", "1/s", Higher, Gate::Bound(0.25)),
    m("observe_p50_us", "us", Lower, Gate::Bound(0.25)),
    m("observe_p99_us", "us", Lower, Gate::Bound(0.25)),
    m("decide_p50_us", "us", Lower, Gate::Bound(0.25)),
    m("decide_p99_us", "us", Lower, Gate::Bound(0.25)),
    m("observe_samples", "count", Higher, Gate::None),
    m("decide_samples", "count", Higher, Gate::None),
];

/// Event kinds of the event-driven core, as its event log names them.
pub const EVENT_KINDS: [&str; 7] = [
    "harvest-edge",
    "decision",
    "epoch",
    "wake",
    "failure",
    "restore",
    "end",
];

const fn l(name: &'static str, unit: &'static str) -> MetricSpec {
    m(name, unit, Lower, Gate::None)
}

const fn h(name: &'static str, unit: &'static str) -> MetricSpec {
    m(name, unit, Higher, Gate::None)
}

/// Per-layer metrics of the traced run (`--trace 1`). Every traced run
/// reports all of them; a layer the workload does not run through reads
/// `0`. Times are host seconds unless the unit says otherwise.
pub const PER_LAYER: [MetricSpec; 67] = [
    // reap-harvest
    l("harvest.trace_gen_s", "s"),
    l("harvest.forecast_s", "s"),
    l("harvest.forecast_calls", "count"),
    // reap-core, with reap-lp inside plan_horizon
    l("core.frontier_build_s", "s"),
    l("core.frontier_builds", "count"),
    l("core.mpc_plan_s", "s"),
    l("core.mpc_plans", "count"),
    l("core.mpc_solves", "count"),
    h("core.mpc_reuses", "count"),
    l("core.mpc_fallbacks", "count"),
    h("core.mpc_reuse_ratio", "ratio"),
    l("core.plan_horizon_p50_us", "us"),
    l("core.plan_horizon_p99_us", "us"),
    // reap-sim::fleet
    l("sim.user_scenario_s", "s"),
    l("sim.fleet.aggregate_s", "s"),
    // reap-sim::soa
    l("sim.soa.new_s", "s"),
    l("sim.soa.run_s", "s"),
    l("sim.soa.run_1t_s", "s"),
    h("sim.soa.parallel_efficiency", "ratio"),
    l("sim.soa.cohorts", "count"),
    h("sim.soa.users_per_cohort", "ratio"),
    l("sim.soa.bytes_per_user", "B"),
    // reap-sim::engine and the hour step on the event core
    l("sim.engine.other_s", "s"),
    l("sim.engine.reap_month_us", "us"),
    l("sim.clock.battery_month_us", "us"),
    // reap-sim::clock
    l("sim.clock.run_s", "s"),
    l("sim.clock.events", "count"),
    h("sim.clock.events_per_s", "1/s"),
    l("sim.clock.events.harvest-edge", "count"),
    l("sim.clock.events.decision", "count"),
    l("sim.clock.events.epoch", "count"),
    l("sim.clock.events.wake", "count"),
    l("sim.clock.events.failure", "count"),
    l("sim.clock.events.restore", "count"),
    l("sim.clock.events.end", "count"),
    l("sim.clock.bursts", "count"),
    h("sim.clock.epochs_committed", "count"),
    l("sim.clock.epochs_lost", "count"),
    h("sim.clock.commit_ratio", "ratio"),
    l("sim.clock.brownouts", "count"),
    l("sim.clock.ledger_drift_max_j", "J"),
    // reap-serve::state
    l("serve.state.new_s", "s"),
    l("serve.state.observe_ns", "ns"),
    l("serve.state.decide_ns", "ns"),
    // reap-serve::protocol
    l("serve.protocol.decode_ns", "ns"),
    l("serve.protocol.encode_ns", "ns"),
    // reap-serve::server
    l("serve.server.observe_p50_us", "us"),
    l("serve.server.observe_p99_us", "us"),
    l("serve.server.decide_p50_us", "us"),
    l("serve.server.decide_p99_us", "us"),
    l("serve.transport_p50_us", "us"),
    // reap-serve::snapshot
    l("serve.snapshot.encode_s", "s"),
    l("serve.snapshot.bytes", "B"),
    l("serve.snapshot.ring_write_s", "s"),
    // reap-serve faults
    l("serve.retries", "count"),
    l("serve.reconnects", "count"),
    l("serve.errors", "count"),
    l("serve.evicted", "count"),
    l("serve.shed", "count"),
    // Wall time of the timed region the layer times above do not cover.
    l("fleet-month.unattributed_s", "s"),
    l("mpc-fleet.unattributed_s", "s"),
    l("intermittent-week.unattributed_s", "s"),
    l("serve-hourly.unattributed_s", "s"),
    // Plain (untraced) wall time of the timed region the layer times
    // decompose, measured in the traced process.
    l("fleet-month.plain_s", "s"),
    l("mpc-fleet.plain_s", "s"),
    l("intermittent-week.plain_s", "s"),
    l("serve-hourly.plain_s", "s"),
];

/// Looks a metric up in every list.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(WORKLOAD_END_TO_END.iter())
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}

/// `true` for a name of `[A-Za-z0-9_.-]+` starting with a letter or digit,
/// at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The command the benchmark is run with, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 12;

/// The contents of `BENCHMARK.json`, generated from the lists above
/// (`reap-perfbench benchmark-json > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    use crate::util::{json_num, json_str};
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|s| {
            let bound = match s.gate {
                Gate::Bound(b) => b,
                Gate::Exact | Gate::None => QUALITY_BOUND,
            };
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(s.name),
                json_str(s.unit),
                json_str(s.better.as_str()),
                json_num(bound)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(s.name),
                json_str(s.unit),
                json_str(s.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Json;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(WORKLOAD_END_TO_END.iter())
            .chain(PER_LAYER.iter())
            .map(|s| s.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "invalid metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
    }

    #[test]
    fn benchmark_json_is_generated_from_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `reap-perfbench benchmark-json > BENCHMARK.json`"
        );
        let json = Json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = json.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for spec in END_TO_END {
            if let Gate::Bound(b) = spec.gate {
                assert!(b <= 0.25, "{}", spec.name);
            }
        }
        assert!(committed.len() <= 64 * 1024);
    }
}
