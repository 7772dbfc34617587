//! Bench-baseline regression checking.
//!
//! The repo commits machine-readable perf baselines (`BENCH_planner.json`,
//! `BENCH_fleet.json`, `BENCH_mpc.json`, ...). CI regenerates each on
//! every commit; this module compares the fresh numbers against the
//! committed baseline, refuses pairs whose workloads differ, and flags
//! throughput regressions beyond a threshold — the logic behind the
//! `bench_check` binary.
//!
//! The bench JSON is hand-written (the workspace is offline and carries
//! no serde), so extraction is a deliberately small scanner over unique
//! top-level keys rather than a JSON parser.

/// Direction of a throughput metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is faster (e.g. `users_per_s`).
    HigherIsBetter,
    /// Smaller is faster (e.g. `matrix_ms`).
    LowerIsBetter,
}

/// One tracked throughput metric of a bench schema.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The unique JSON key holding the metric.
    pub key: &'static str,
    /// Which way is faster.
    pub direction: Direction,
}

/// The throughput metrics tracked for a bench schema, or `None` for an
/// unknown schema.
#[must_use]
pub fn metrics_for_schema(schema: &str) -> Option<&'static [Metric]> {
    match schema {
        // planner-v2 dropped the closed-form solver's `closed_form_ns`
        // column; the gated metrics are unchanged, and the v1 entry stays
        // so a stale committed baseline produces a clear schema-mismatch
        // error instead of an unknown-schema one.
        "reap-bench/planner-v1" | "reap-bench/planner-v2" => Some(&[
            Metric {
                key: "reap_run_ms",
                direction: Direction::LowerIsBetter,
            },
            Metric {
                key: "matrix_ms",
                direction: Direction::LowerIsBetter,
            },
        ]),
        // fleet-v2 (the SoA core) added `cohorts` and `soa_bytes_per_user`
        // alongside the same throughput metric; the v1 entry stays so a
        // stale committed baseline produces a clear schema-mismatch error
        // instead of an unknown-schema one.
        "reap-bench/fleet-v1" | "reap-bench/fleet-v2" => Some(&[Metric {
            key: "users_per_s",
            direction: Direction::HigherIsBetter,
        }]),
        "reap-bench/mpc-v1" => Some(&[Metric {
            key: "hours_per_s",
            direction: Direction::HigherIsBetter,
        }]),
        // The intermittent bench also records burst-completion statistics
        // (epochs/burst, commit ratio), but only event-core throughput is
        // gated: the completion numbers are pinned exactly by the
        // committed baseline diff, not a fuzzy perf threshold.
        "reap-bench/intermittent-v1" => Some(&[Metric {
            key: "events_per_s",
            direction: Direction::HigherIsBetter,
        }]),
        // The serve bench also records decide round-trip p50/p99, but only
        // throughput is gated: loopback tail latency on shared CI runners
        // is too noisy for a hard quantile gate. serve-v2 (the RetryClient
        // workload) added retry/reconnect/eviction/shed counters alongside
        // the same throughput metric; the v1 entry stays so a stale
        // committed baseline produces a clear schema-mismatch error
        // instead of an unknown-schema one.
        "reap-bench/serve-v1" | "reap-bench/serve-v2" => Some(&[Metric {
            key: "decisions_per_s",
            direction: Direction::HigherIsBetter,
        }]),
        _ => None,
    }
}

/// The keys that describe the workload a bench schema ran (population,
/// horizon, request count). Two runs are comparable only when every one
/// of them holds the same value in both: a `--quick` smoke run must not
/// be gated against a full-protocol baseline.
#[must_use]
pub fn workload_keys(schema: &str) -> &'static [&'static str] {
    match schema {
        "reap-bench/planner-v1" | "reap-bench/planner-v2" => &["budget_j", "hours"],
        "reap-bench/fleet-v1" | "reap-bench/fleet-v2" => &["users", "days"],
        "reap-bench/mpc-v1" => &["days", "rel_error"],
        "reap-bench/intermittent-v1" => &["users", "days", "dt_seconds", "blackout_fraction"],
        "reap-bench/serve-v1" | "reap-bench/serve-v2" => &["users", "client_threads", "decisions"],
        _ => &[],
    }
}

/// Discovers baseline/fresh bench pairs in `dir` by glob instead of a
/// hard-coded list: every committed `BENCH_<name>.json` baseline pairs
/// with a freshly regenerated `BENCH_<name>.ci.json` next to it.
///
/// Returns `(baseline, fresh)` path pairs sorted by file name.
///
/// # Errors
///
/// Returns a message when the directory cannot be read, when no baseline
/// matches the pattern (an empty gate would pass vacuously), or when a
/// baseline lacks its fresh counterpart — a bench that stopped running in
/// CI must fail the gate, not silently drop out of it.
pub fn discover_pairs(
    dir: &std::path::Path,
) -> Result<Vec<(std::path::PathBuf, std::path::PathBuf)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("BENCH_") && name.ends_with(".json") && !name.ends_with(".ci.json") {
            names.push(name.to_string());
        }
    }
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines found in {}",
            dir.display()
        ));
    }
    names.sort();
    let mut pairs = Vec::with_capacity(names.len());
    for name in names {
        let baseline = dir.join(&name);
        let fresh_name = format!("{}.ci.json", name.trim_end_matches(".json"));
        let fresh = dir.join(&fresh_name);
        if !fresh.is_file() {
            return Err(format!(
                "baseline {name} has no fresh run {fresh_name} — did its bench step run?"
            ));
        }
        pairs.push((baseline, fresh));
    }
    Ok(pairs)
}

/// Extracts the first number stored under `"key":` in `json`.
#[must_use]
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let rest = extract_raw(json, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first string stored under `"key":` in `json`.
#[must_use]
pub fn extract_string<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let rest = extract_raw(json, key)?.strip_prefix('"')?;
    rest.split('"').next()
}

fn extract_raw<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let start = json.find(&needle)? + needle.len();
    json[start..]
        .trim_start()
        .strip_prefix(':')
        .map(str::trim_start)
}

/// Outcome of comparing one metric between baseline and fresh runs.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The metric's JSON key.
    pub key: &'static str,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
    /// Slowdown factor: `> 1` means the fresh run is slower, whatever the
    /// metric's direction (a 1.30 entry reads "30% slower than baseline").
    pub slowdown: f64,
    /// `true` when `slowdown` exceeds `1 + threshold`.
    pub regressed: bool,
}

/// Compares every tracked metric of a bench JSON pair.
///
/// `threshold` is the tolerated fractional slowdown (0.25 = fail beyond
/// 25% slower than the committed baseline).
///
/// # Errors
///
/// Returns a message when either document lacks a known `schema`, the
/// schemas disagree, the runs' [`workload_keys`] differ, or a tracked
/// metric is missing or non-positive.
pub fn compare(
    baseline_json: &str,
    fresh_json: &str,
    threshold: f64,
) -> Result<Vec<Comparison>, String> {
    let schema = extract_string(baseline_json, "schema")
        .ok_or_else(|| "baseline has no schema field".to_string())?;
    let fresh_schema = extract_string(fresh_json, "schema")
        .ok_or_else(|| "fresh run has no schema field".to_string())?;
    if schema != fresh_schema {
        return Err(format!(
            "schema mismatch: baseline {schema} vs fresh {fresh_schema}"
        ));
    }
    let metrics =
        metrics_for_schema(schema).ok_or_else(|| format!("unknown bench schema {schema}"))?;
    for key in workload_keys(schema) {
        let (base, fresh) = (
            extract_number(baseline_json, key),
            extract_number(fresh_json, key),
        );
        if base != fresh {
            return Err(format!(
                "workload mismatch on {key}: baseline {base:?} vs fresh {fresh:?}"
            ));
        }
    }
    let mut out = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let baseline = extract_number(baseline_json, metric.key)
            .ok_or_else(|| format!("baseline lacks metric {}", metric.key))?;
        let fresh = extract_number(fresh_json, metric.key)
            .ok_or_else(|| format!("fresh run lacks metric {}", metric.key))?;
        if baseline <= 0.0 || fresh <= 0.0 {
            return Err(format!(
                "metric {} must be positive (baseline {baseline}, fresh {fresh})",
                metric.key
            ));
        }
        let slowdown = match metric.direction {
            Direction::LowerIsBetter => fresh / baseline,
            Direction::HigherIsBetter => baseline / fresh,
        };
        out.push(Comparison {
            key: metric.key,
            baseline,
            fresh,
            slowdown,
            regressed: slowdown > 1.0 + threshold,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLEET: &str = r#"{
  "schema": "reap-bench/fleet-v1",
  "users": 2000,
  "users_per_s": 6000
}"#;

    #[test]
    fn extracts_numbers_and_strings() {
        assert_eq!(extract_string(FLEET, "schema"), Some("reap-bench/fleet-v1"));
        assert_eq!(extract_number(FLEET, "users_per_s"), Some(6000.0));
        assert_eq!(extract_number(FLEET, "users"), Some(2000.0));
        assert_eq!(extract_number(FLEET, "absent"), None);
        assert_eq!(extract_number("{\"x\": -3.5e2}", "x"), Some(-350.0));
    }

    #[test]
    fn schemas_map_to_metrics() {
        for planner in ["reap-bench/planner-v1", "reap-bench/planner-v2"] {
            assert_eq!(metrics_for_schema(planner).unwrap().len(), 2);
        }
        assert_eq!(metrics_for_schema("reap-bench/fleet-v1").unwrap().len(), 1);
        assert_eq!(metrics_for_schema("reap-bench/mpc-v1").unwrap().len(), 1);
        assert!(metrics_for_schema("nope").is_none());
        let intermittent = metrics_for_schema("reap-bench/intermittent-v1").unwrap();
        assert_eq!(intermittent.len(), 1);
        assert_eq!(intermittent[0].key, "events_per_s");
        assert_eq!(intermittent[0].direction, Direction::HigherIsBetter);
        let serve = metrics_for_schema("reap-bench/serve-v1").unwrap();
        assert_eq!(serve.len(), 1);
        assert_eq!(serve[0].key, "decisions_per_s");
        assert_eq!(serve[0].direction, Direction::HigherIsBetter);
    }

    #[test]
    fn discovery_pairs_baselines_with_fresh_runs() {
        let dir = std::env::temp_dir().join(format!("reap_bench_discover_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // An empty directory is an error, not a vacuous pass.
        let err = discover_pairs(&dir).unwrap_err();
        assert!(err.contains("no BENCH_"), "got: {err}");

        // A baseline without its fresh counterpart fails loudly.
        std::fs::write(dir.join("BENCH_fleet.json"), "{}").unwrap();
        std::fs::write(dir.join("unrelated.json"), "{}").unwrap();
        let err = discover_pairs(&dir).unwrap_err();
        assert!(err.contains("BENCH_fleet.ci.json"), "got: {err}");

        // Complete pairs come back sorted; `.ci.json` files are never
        // themselves treated as baselines.
        std::fs::write(dir.join("BENCH_fleet.ci.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_serve.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_serve.ci.json"), "{}").unwrap();
        let pairs = discover_pairs(&dir).unwrap();
        let names: Vec<String> = pairs
            .iter()
            .map(|(b, f)| {
                format!(
                    "{}:{}",
                    b.file_name().unwrap().to_str().unwrap(),
                    f.file_name().unwrap().to_str().unwrap()
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "BENCH_fleet.json:BENCH_fleet.ci.json",
                "BENCH_serve.json:BENCH_serve.ci.json"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn within_threshold_passes() {
        let fresh = FLEET.replace("6000", "5000");
        let cmp = compare(FLEET, &fresh, 0.25).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed, "20% slower is inside a 25% budget");
        assert!((cmp[0].slowdown - 1.2).abs() < 1e-12);
    }

    #[test]
    fn beyond_threshold_regresses() {
        let fresh = FLEET.replace("6000", "4000");
        let cmp = compare(FLEET, &fresh, 0.25).unwrap();
        assert!(cmp[0].regressed, "33% slower must trip a 25% budget");
    }

    #[test]
    fn lower_is_better_direction() {
        let base = r#"{"schema": "reap-bench/planner-v2", "reap_run_ms": 10.0, "matrix_ms": 20.0}"#;
        let fast = r#"{"schema": "reap-bench/planner-v2", "reap_run_ms": 9.0, "matrix_ms": 30.0}"#;
        let cmp = compare(base, fast, 0.25).unwrap();
        assert!(!cmp[0].regressed, "faster run must pass");
        assert!(cmp[1].regressed, "50% slower matrix must fail");
    }

    #[test]
    fn speedups_never_regress() {
        let fresh = FLEET.replace("6000", "9000");
        let cmp = compare(FLEET, &fresh, 0.25).unwrap();
        assert!(!cmp[0].regressed);
        assert!(cmp[0].slowdown < 1.0);
    }

    #[test]
    fn stale_fleet_baseline_schema_fails_loudly() {
        // The fleet bench now emits fleet-v2; a committed fleet-v1
        // baseline must produce a hard error (bench_check exits 1 on it),
        // not a silent pass.
        let fresh_v2 = r#"{
  "schema": "reap-bench/fleet-v2",
  "users": 2000,
  "users_per_s": 150000,
  "cohorts": 2000,
  "soa_bytes_per_user": 300
}"#;
        let err = compare(FLEET, fresh_v2, 0.25).unwrap_err();
        assert!(
            err.contains("schema mismatch"),
            "want a schema-mismatch error, got: {err}"
        );
        assert!(err.contains("fleet-v1") && err.contains("fleet-v2"));
        // Both schema generations resolve to tracked metrics on their own.
        assert!(metrics_for_schema("reap-bench/fleet-v2").is_some());
        let cmp = compare(fresh_v2, fresh_v2, 0.25).unwrap();
        assert!(!cmp[0].regressed);
    }

    #[test]
    fn stale_serve_baseline_schema_fails_loudly() {
        // Same protection for the serve bench: serve-v2 (RetryClient
        // workload + resilience counters) vs a stale committed serve-v1
        // baseline must be a hard schema-mismatch error.
        let stale_v1 = r#"{
  "schema": "reap-bench/serve-v1",
  "decisions": 200000,
  "decisions_per_s": 90000
}"#;
        let fresh_v2 = r#"{
  "schema": "reap-bench/serve-v2",
  "decisions": 200000,
  "decisions_per_s": 90000,
  "retries": 0,
  "reconnects": 0,
  "server_errors": 0,
  "evicted": 0,
  "shed": 0
}"#;
        let err = compare(stale_v1, fresh_v2, 0.25).unwrap_err();
        assert!(
            err.contains("schema mismatch"),
            "want a schema-mismatch error, got: {err}"
        );
        assert!(err.contains("serve-v1") && err.contains("serve-v2"));
        // The new schema resolves and self-compares cleanly.
        let cmp = compare(fresh_v2, fresh_v2, 0.25).unwrap();
        assert_eq!(cmp[0].key, "decisions_per_s");
        assert!(!cmp[0].regressed);
    }

    #[test]
    fn quick_serve_baseline_against_full_run_is_a_workload_mismatch() {
        let quick = r#"{
  "schema": "reap-bench/serve-v2",
  "users": 64,
  "client_threads": 8,
  "decisions": 4000,
  "decisions_per_s": 50987
}"#;
        let full = r#"{
  "schema": "reap-bench/serve-v2",
  "users": 2000,
  "client_threads": 8,
  "decisions": 200000,
  "decisions_per_s": 277000
}"#;
        let err = compare(quick, full, 0.25).unwrap_err();
        assert!(err.contains("workload mismatch"), "got: {err}");
        assert!(err.contains("users"), "got: {err}");
        // The same workload compares as before.
        let cmp = compare(full, full, 0.25).unwrap();
        assert!(!cmp[0].regressed);
        // A workload key only one side records is a mismatch too.
        let unlabeled = full.replace("\"client_threads\": 8,", "");
        assert!(compare(full, &unlabeled, 0.25)
            .unwrap_err()
            .contains("workload mismatch"));
    }

    #[test]
    fn mismatched_or_missing_schemas_error() {
        assert!(compare(FLEET, r#"{"schema": "reap-bench/mpc-v1"}"#, 0.25).is_err());
        assert!(compare("{}", FLEET, 0.25).is_err());
        assert!(compare(FLEET, "{}", 0.25).is_err());
        let broken = FLEET.replace("users_per_s", "users_per_x");
        assert!(compare(FLEET, &broken, 0.25).is_err());
    }
}
