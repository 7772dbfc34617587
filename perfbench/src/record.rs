//! What one run produces — the workload descriptor, host, metrics and
//! correctness checks — and the compare step that gates two of them.

use std::fmt::Write as _;

use crate::spec::{self, Gate, Workload};
use crate::util::{json_num, json_str, Json};

/// Named metric values in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value). The unit comes from the
    /// metric's spec, so a name the spec does not know is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = spec::find(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"))
            .unit;
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// Adds `value` to `name` (starting from zero).
    pub fn add(&mut self, name: &str, value: f64) {
        let now = self.get(name).unwrap_or(0.0);
        self.set(name, now + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// One correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    /// `true` for the reduced size the tests use; such a run is never
    /// labelled with the bare workload name.
    pub tiny: bool,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Workload parameters: users, days, sources, policy, dt, connections.
    pub descriptor: Vec<(&'static str, String)>,
    pub metrics: Metrics,
    /// Operations the run attempted (timed operations plus checks) and
    /// how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl Outcome {
    pub fn new(workload: Workload, tiny: bool, seed: u64, seconds: f64, traced: bool) -> Outcome {
        Outcome {
            workload,
            tiny,
            seed,
            seconds,
            traced,
            descriptor: Vec::new(),
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
        }
    }

    /// The label results carry: the workload name for a full-size run,
    /// `tiny:<name>` for the reduced size.
    pub fn label(&self) -> String {
        if self.tiny {
            format!("tiny:{}", self.workload.name())
        } else {
            self.workload.name().to_string()
        }
    }

    /// Records a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Sets the metrics every run carries once its work is done.
    pub fn finish(&mut self) {
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.set("error_rate", rate);
    }

    /// The one-line result: every end-to-end metric for a plain run,
    /// every per-layer metric (zero where the workload does not run
    /// through the layer) for a traced run.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let names: Vec<&str> = if self.traced {
            spec::PER_LAYER.iter().map(|s| s.name).collect()
        } else {
            spec::END_TO_END.iter().map(|s| s.name).collect()
        };
        for (i, name) in names.iter().enumerate() {
            let spec = spec::find(name).expect("declared");
            let value = self.metrics.get(name).unwrap_or(0.0);
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_str(name),
                json_num(value),
                json_str(spec.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The full record: label, seed, descriptor, host, every metric and
    /// every check.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": \"reap-perfbench/v1\"");
        let _ = write!(
            out,
            ", \"label\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}",
            json_str(&self.label()),
            self.seed,
            json_num(self.seconds),
            self.traced
        );
        out.push_str(", \"descriptor\": {");
        for (i, (k, v)) in self.descriptor.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {}",
                if i == 0 { "" } else { ", " },
                json_str(k),
                json_str(v)
            );
        }
        let _ = write!(
            out,
            "}}, \"host\": {{\"nproc\": \"{}\", \"cpu_model\": {}}}",
            crate::util::nproc(),
            json_str(&crate::util::cpu_model())
        );
        let _ = write!(
            out,
            ", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_str(name),
                json_num(value),
                json_str(unit)
            );
        }
        out.push_str("}, \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                if i == 0 { "" } else { ", " },
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            );
        }
        out.push_str("]}");
        out
    }

    /// A human-readable table of the run, for standard error.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {}: {}\n  ({}){}\n",
            self.label(),
            self.seed,
            self.workload.why(),
            self.descriptor
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" "),
            if self.traced { " traced" } else { "" }
        );
        for (name, value, unit) in self.metrics.iter() {
            let _ = writeln!(out, "  {name:<36} {value:>16.6} {unit}");
        }
        for c in self.checks.iter().filter(|c| !c.ok) {
            let _ = writeln!(out, "  CHECK FAILED {}: {}", c.name, c.detail);
        }
        let _ = writeln!(
            out,
            "  checks: {} of {} passed; {} of {} operations failed",
            self.checks.iter().filter(|c| c.ok).count(),
            self.checks.len(),
            self.failed,
            self.attempted
        );
        out
    }
}

/// The records in a results file: one record, or `{"records": [...]}`.
pub fn records_of(json: &Json) -> Vec<&Json> {
    match json.get("records").and_then(Json::as_array) {
        Some(items) => items.iter().collect(),
        None => vec![json],
    }
}

/// The verdict of comparing two results files.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Same workloads, descriptors and host; no gated metric got worse.
    Pass,
    /// Comparable, but a gated metric moved past its gate.
    Regressed,
    /// Not comparable: labels, seeds, descriptors or hosts differ.
    Refused,
}

/// Compares `new` against `base`, appending a report to `out`.
pub fn compare(base: &Json, new: &Json, out: &mut String) -> Verdict {
    let base_records = records_of(base);
    let new_records = records_of(new);
    if base_records.len() != new_records.len() {
        let _ = writeln!(
            out,
            "refused: {} records vs {}",
            base_records.len(),
            new_records.len()
        );
        return Verdict::Refused;
    }
    let mut verdict = Verdict::Pass;
    for (b, n) in base_records.iter().zip(&new_records) {
        for key in ["schema", "label", "seed", "traced", "descriptor", "host"] {
            if b.get(key) != n.get(key) {
                let _ = writeln!(
                    out,
                    "refused: {key} differs ({:?} vs {:?})",
                    b.get(key),
                    n.get(key)
                );
                return Verdict::Refused;
            }
        }
        let label = b.get("label").and_then(Json::as_str).unwrap_or("?");
        let (Some(bm), Some(nm)) = (b.get("metrics"), n.get("metrics")) else {
            let _ = writeln!(out, "refused: {label} has no metrics");
            return Verdict::Refused;
        };
        for (name, bv) in bm.members() {
            let Some(spec) = spec::find(name) else {
                continue;
            };
            let base_v = bv.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let Some(new_v) = nm
                .get(name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
            else {
                let _ = writeln!(out, "{label} {name}: missing in the new result");
                verdict = Verdict::Regressed;
                continue;
            };
            let worse_by = match spec.better {
                spec::Better::Higher => (base_v - new_v) / base_v.abs().max(f64::MIN_POSITIVE),
                spec::Better::Lower => (new_v - base_v) / base_v.abs().max(f64::MIN_POSITIVE),
            };
            let status = match spec.gate {
                Gate::Exact if new_v.to_bits() != base_v.to_bits() => "CHANGED (must be equal)",
                Gate::Bound(bound) if worse_by > bound => "REGRESSED",
                _ => "ok",
            };
            if status != "ok" {
                verdict = Verdict::Regressed;
            }
            let _ = writeln!(
                out,
                "{label:<22} {name:<36} {base_v:>14.6} -> {new_v:>14.6} {:<6} {status}",
                spec.unit
            );
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(users: &str) -> Outcome {
        let mut o = Outcome::new(Workload::FleetMonth, true, 7, 0.1, false);
        o.descriptor.push(("users", users.to_string()));
        o.metrics.set("sim_user_hours_per_s", 1000.0);
        o.metrics.set("expected_accuracy", 0.25);
        o.check("ok", true, "");
        o
    }

    fn parse(o: &Outcome) -> Json {
        Json::parse(&o.to_json()).expect("record is JSON")
    }

    #[test]
    fn compare_refuses_mismatched_descriptors() {
        let mut report = String::new();
        let verdict = compare(&parse(&outcome("64")), &parse(&outcome("128")), &mut report);
        assert_eq!(verdict, Verdict::Refused, "{report}");
    }

    #[test]
    fn compare_refuses_mismatched_labels_and_seeds() {
        let base = outcome("64");
        let mut full = outcome("64");
        full.tiny = false;
        let mut report = String::new();
        assert_eq!(
            compare(&parse(&base), &parse(&full), &mut report),
            Verdict::Refused
        );
        let mut reseeded = outcome("64");
        reseeded.seed = 8;
        assert_eq!(
            compare(&parse(&base), &parse(&reseeded), &mut report),
            Verdict::Refused
        );
    }

    #[test]
    fn compare_gates_bounds_and_exact_metrics() {
        let base = outcome("64");
        let mut report = String::new();
        assert_eq!(
            compare(&parse(&base), &parse(&base), &mut report),
            Verdict::Pass
        );
        let mut slower = outcome("64");
        slower.metrics.set("sim_user_hours_per_s", 500.0);
        assert_eq!(
            compare(&parse(&base), &parse(&slower), &mut report),
            Verdict::Regressed
        );
        let mut drifted = outcome("64");
        drifted.metrics.set("expected_accuracy", 0.2500001);
        assert_eq!(
            compare(&parse(&base), &parse(&drifted), &mut report),
            Verdict::Regressed
        );
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let o = outcome("64");
        let line = Json::parse(&o.result_line()).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, spec::END_TO_END.map(|s| s.name));
    }

    #[test]
    fn tiny_runs_never_carry_a_workload_name() {
        let o = outcome("64");
        assert_eq!(o.label(), "tiny:fleet-month");
        assert!(Workload::parse(&o.label()).is_none());
    }
}
