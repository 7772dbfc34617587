//! The REAP runtime benchmark: four workloads, end-to-end metrics from a
//! plain run and per-layer metrics from a traced run that times the calls
//! into each layer from outside the program.
//!
//! ```text
//! reap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out <file>]
//! reap-perfbench --workload all --seed <n> --seconds <s> [--tiny] [--out <file>]
//! reap-perfbench compare <base.json> <new.json>
//! reap-perfbench benchmark-json > BENCHMARK.json
//! ```
//!
//! A single-workload run prints a table of every metric to standard error
//! and, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`. It
//! exits 1 when a correctness check fails and 2 on an error. `--out`
//! writes the full record (descriptor, host, every metric and check) that
//! `compare` reads. See README.md for the workloads and metrics.

mod fleet_month;
mod intermittent_week;
mod mpc_fleet;
mod record;
mod serve_hourly;
mod sim;
mod spec;
mod util;

use std::process::ExitCode;

use record::{Outcome, Verdict};
use spec::Workload;
use util::{err, Json, Res};

/// Parsed command line of a run.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out: None,
    };
    let mut workload_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload_given = true;
                parsed.workload = match name.as_str() {
                    "all" => None,
                    other => Some(
                        Workload::parse(other)
                            .ok_or_else(|| format!("unknown workload {other}"))?,
                    ),
                };
            }
            "--seed" => parsed.seed = value()?.parse().map_err(err)?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(err)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--tiny" => parsed.tiny = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workload_given {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn run_workload(workload: Workload, args: &Args) -> Res<Outcome> {
    let points = reap_device::paper_table2_operating_points();
    let run = match workload {
        Workload::FleetMonth => fleet_month::run,
        Workload::MpcFleet => mpc_fleet::run,
        Workload::IntermittentWeek => intermittent_week::run,
        Workload::ServeHourly => serve_hourly::run,
    };
    run(&points, args.tiny, args.seed, args.seconds, args.trace)
}

fn single(workload: Workload, args: &Args) -> Res<bool> {
    let outcome = run_workload(workload, args)?;
    eprint!("{}", outcome.table());
    if let Some(path) = &args.out {
        std::fs::write(path, outcome.to_json()).map_err(err)?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Runs every workload, plain and traced, each in its own process so that
/// peak memory is attributable to it, and writes all records to one file.
fn all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe().map_err(err)?;
    let record_path = exe.with_file_name(format!("perfbench-all-{}.json", std::process::id()));
    let mut records = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([
                "--workload",
                workload.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
            .arg("--out")
            .arg(&record_path)
            .stdout(std::process::Stdio::null());
            if args.tiny {
                cmd.arg("--tiny");
            }
            let status = cmd.status().map_err(err)?;
            correct &= status.success();
            match std::fs::read_to_string(&record_path) {
                Ok(text) if status.code() != Some(2) => records.push(text),
                _ => eprintln!("{} --trace {trace}: no result ({status})", workload.name()),
            }
            let _ = std::fs::remove_file(&record_path);
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| "perfbench-results.json".to_string());
    std::fs::write(
        &path,
        format!("{{\"records\": [\n{}\n]}}\n", records.join(",\n")),
    )
    .map_err(err)?;
    println!(
        "{} of {} runs produced a result; all correct: {correct}; records in {path}",
        records.len(),
        2 * Workload::ALL.len()
    );
    Ok(correct && records.len() == 2 * Workload::ALL.len())
}

fn compare(base: &str, new: &str) -> Res<Verdict> {
    let read = |p: &str| -> Res<Json> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
    };
    let mut report = String::new();
    let verdict = record::compare(&read(base)?, &read(new)?, &mut report);
    print!("{report}");
    println!("verdict: {verdict:?}");
    Ok(verdict)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("benchmark-json") {
        print!("{}", spec::benchmark_json());
        Ok(true)
    } else if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [base, new] => compare(base, new).map(|v| v == Verdict::Pass),
            _ => Err("usage: compare <base.json> <new.json>".to_string()),
        }
    } else {
        parse_args(&args).and_then(|a| match a.workload {
            Some(w) => single(w, &a),
            None => all(&a),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("reap-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Res<Args> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload mpc-fleet --seed 42 --seconds 8 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::MpcFleet));
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (42, 8.0, true, false));
        assert!(args("--workload all --seed 1").unwrap().workload.is_none());
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload fleet-month --trace 2").is_err());
        assert!(args("--workload fleet-month --seconds 0").is_err());
    }

    /// A tiny run of every workload, plain and traced, passes all its
    /// checks and reports every metric its result line declares.
    #[test]
    fn tiny_runs_pass_their_checks() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let a = Args {
                    workload: Some(workload),
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    tiny: true,
                    out: None,
                };
                let outcome = run_workload(workload, &a).unwrap();
                assert!(outcome.correct(), "{}", outcome.table());
                assert!(outcome.attempted > 0);
                assert_eq!(outcome.label(), format!("tiny:{}", workload.name()));
                let line = Json::parse(&outcome.result_line()).unwrap();
                let expected = if trace {
                    &spec::PER_LAYER[..]
                } else {
                    &spec::END_TO_END[..]
                };
                let metrics = line.get("metrics").unwrap();
                assert_eq!(metrics.members().len(), expected.len());
                for s in expected {
                    let value = metrics
                        .get(s.name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{} {}",
                        workload.name(),
                        s.name
                    );
                }
                if !trace {
                    for s in &spec::END_TO_END {
                        let v = outcome.metrics.get(s.name).unwrap_or(0.0);
                        assert!(v > 0.0, "{} reports {} = {v}", workload.name(), s.name);
                    }
                }
                for (name, _, _) in outcome.metrics.iter() {
                    assert!(spec::valid_name(name), "{name}");
                }
            }
        }
    }
}
