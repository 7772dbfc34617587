//! Receding-horizon (MPC) policy baseline: lookahead sweep and
//! forecast-error robustness across all four harvest sources, written as
//! machine-readable JSON (`BENCH_mpc.json`) so CI tracks both the policy
//! quality and the MPC simulation throughput.
//!
//! ```text
//! cargo run --release -p reap-bench --bin bench_mpc [-- <output.json>] [--quick]
//! ```
//!
//! Protocol: per source, a 14-day trace (seed [`reap_bench::BENCH_SEED`])
//! is simulated under `Policy::Horizon` with lookahead ∈ {1, 4, 12, 24}
//! against a ±20% noisy-oracle forecast, alongside three myopic
//! baselines — REAP open-loop, REAP closed-loop, and static DP1. A
//! robustness sweep re-runs lookahead 24 at forecast errors
//! {0%, 10%, 20%, 40%}. The whole protocol repeats until the timed region
//! lasts at least [`MIN_TIMED`], so the hours/s figure stays above timer
//! noise; every repetition is deterministic, so the quality tables come
//! from the first. The committed `BENCH_mpc.json` at the repo root is the
//! recorded baseline; regenerate with the command above after any engine,
//! forecaster, or horizon-planner change (`--quick` shrinks the traces for
//! smoke runs; CI uses the full protocol).

use std::time::{Duration, Instant};

use reap_bench::{has_quick_flag, CharMode};
use reap_core::OperatingPoint;
use reap_harvest::SourceKind;
use reap_sim::{ForecasterKind, Policy, Scenario, SimReport};

/// Days per trace in the full protocol.
const DAYS: u32 = 14;
/// Forecast error of the headline MPC runs.
const REL_ERROR: f64 = 0.2;
/// Lookahead window lengths swept per source.
const LOOKAHEADS: [usize; 4] = [1, 4, 12, 24];
/// Forecast errors of the robustness sweep (at lookahead 24).
const ERRORS: [f64; 4] = [0.0, 0.1, 0.2, 0.4];
/// Shortest timed region: the protocol repeats until it has run this long.
const MIN_TIMED: Duration = Duration::from_millis(200);

struct Run {
    label: String,
    mean_accuracy: f64,
    active_fraction: f64,
    objective: f64,
    brownout_hours: usize,
}

/// One source's results: the policy runs and the MPC24 robustness sweep.
struct SourceRuns {
    kind: SourceKind,
    runs: Vec<Run>,
    robustness: Vec<(f64, Run)>,
}

fn run_metrics(label: String, report: &SimReport, hours: f64) -> Run {
    Run {
        label,
        mean_accuracy: report.mean_accuracy(),
        active_fraction: report.total_active_time().hours() / hours,
        objective: report.total_objective(1.0),
        brownout_hours: report.brownout_hours(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_quick_flag(&args);
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_mpc.json".to_string());
    let days = if quick { 3 } else { DAYS };
    let points = reap_bench::operating_points(CharMode::Paper, true);

    println!(
        "MPC baseline: lookahead {LOOKAHEADS:?} at ±{:.0}% forecast error, {days} days per \
         source ({out_path})",
        REL_ERROR * 100.0
    );
    println!("=====================================================================");

    let start = Instant::now();
    let (sources, mut mpc_hours) = protocol(&points, days);
    let mut reps = 1;
    while start.elapsed() < MIN_TIMED {
        mpc_hours += protocol(&points, days).1;
        reps += 1;
    }
    let elapsed = start.elapsed();

    for source in &sources {
        println!("{}:", source.kind.label());
        for r in &source.runs {
            println!(
                "  {:>11}: accuracy {:.3}, active {:.3}, J = {:>7.1}, {} brownouts",
                r.label, r.mean_accuracy, r.active_fraction, r.objective, r.brownout_hours
            );
        }
        let rob = source
            .robustness
            .iter()
            .map(|(e, r)| format!("{:.0}%→{:.3}", e * 100.0, r.mean_accuracy))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  MPC24 accuracy vs forecast error: {rob}");
    }
    let source_jsons: Vec<String> = sources.iter().map(source_json).collect();

    let wall_ms = elapsed.as_secs_f64() * 1e3;
    let hours_per_s = mpc_hours as f64 / elapsed.as_secs_f64();
    println!(
        "wall time {wall_ms:.0} ms for {mpc_hours} MPC-simulated hours over {reps} repetitions \
         ({hours_per_s:.0} hours/s)"
    );

    let mut json = format!(
        "{{\n  \"schema\": \"reap-bench/mpc-v1\",\n  \"days\": {days},\n  \"rel_error\": \
         {REL_ERROR},\n  \"sources\": [\n"
    );
    json.push_str(&source_jsons.join(",\n"));
    json.push_str(&format!(
        "\n  ],\n  \"reps\": {reps},\n  \"wall_ms\": {wall_ms:.0},\n  \"hours_per_s\": \
         {hours_per_s:.0}\n}}\n"
    ));
    std::fs::write(&out_path, json).expect("writable output");
    println!("wrote {out_path}");
}

/// Runs the whole protocol once: every source's policy runs and
/// robustness sweep, plus the number of MPC-simulated hours it took.
fn protocol(points: &[OperatingPoint], days: u32) -> (Vec<SourceRuns>, usize) {
    let hours = f64::from(days) * 24.0;
    let mut mpc_hours = 0usize;
    let mut sources = Vec::new();
    for kind in SourceKind::ALL {
        let trace = kind
            .instantiate(reap_bench::BENCH_SEED)
            .generate(244, days)
            .expect("bundled sources generate");
        let noisy = ForecasterKind::Oracle {
            rel_error: REL_ERROR,
            seed: reap_bench::BENCH_SEED,
        };
        let build = |forecaster, budget_mode| {
            Scenario::builder(trace.clone())
                .points(points.to_vec())
                .forecaster(forecaster)
                .budget_mode(budget_mode)
                .build()
                .expect("valid scenario")
        };

        let mut runs = Vec::new();
        for lookahead in LOOKAHEADS {
            let report = build(noisy, reap_sim::BudgetMode::OpenLoop)
                .run(Policy::Horizon { lookahead })
                .expect("mpc runs");
            mpc_hours += report.hours().len();
            runs.push(run_metrics(format!("MPC{lookahead}"), &report, hours));
        }
        let open = build(noisy, reap_sim::BudgetMode::OpenLoop)
            .run(Policy::Reap)
            .expect("reap runs");
        runs.push(run_metrics("REAP-open".into(), &open, hours));
        let closed = build(noisy, reap_sim::BudgetMode::ClosedLoop)
            .run(Policy::Reap)
            .expect("reap runs");
        runs.push(run_metrics("REAP-closed".into(), &closed, hours));
        let dp1 = build(noisy, reap_sim::BudgetMode::OpenLoop)
            .run(Policy::Static(1))
            .expect("static runs");
        runs.push(run_metrics("DP1".into(), &dp1, hours));

        let mut robustness = Vec::new();
        for rel_error in ERRORS {
            let report = build(
                ForecasterKind::Oracle {
                    rel_error,
                    seed: reap_bench::BENCH_SEED,
                },
                reap_sim::BudgetMode::OpenLoop,
            )
            .run(Policy::Horizon { lookahead: 24 })
            .expect("mpc runs");
            mpc_hours += report.hours().len();
            robustness.push((rel_error, run_metrics(String::new(), &report, hours)));
        }
        sources.push(SourceRuns {
            kind,
            runs,
            robustness,
        });
    }
    (sources, mpc_hours)
}

fn run_json(r: &Run) -> String {
    format!(
        "{{\"policy\": \"{}\", \"mean_accuracy\": {:.4}, \"active_fraction\": {:.4}, \
         \"objective\": {:.2}, \"brownout_hours\": {}}}",
        r.label, r.mean_accuracy, r.active_fraction, r.objective, r.brownout_hours
    )
}

fn source_json(source: &SourceRuns) -> String {
    let SourceRuns {
        kind,
        runs,
        robustness,
    } = source;
    let mut out = format!(
        "    {{\n      \"source\": \"{}\",\n      \"runs\": [\n",
        kind.label()
    );
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "        {}{}\n",
            run_json(r),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("      ],\n      \"mpc24_robustness\": [\n");
    for (i, (rel_error, r)) in robustness.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"rel_error\": {rel_error}, \"mean_accuracy\": {:.4}, \"objective\": \
             {:.2}}}{}\n",
            r.mean_accuracy,
            r.objective,
            if i + 1 < robustness.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }");
    out
}
