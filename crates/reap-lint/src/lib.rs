//! # reap-lint — the checks clippy cannot make
//!
//! The repo's headline guarantees (REAP-vs-optimal pinning,
//! byte-identical snapshots across SIGKILL, SoA-vs-scalar
//! bit-equivalence) rest on deterministic state and a panic-free serving
//! path. Clippy enforces most of that, scope by scope; `reap-lint` is a
//! token/line-level analyzer with machine-readable JSON diagnostics for
//! the rest:
//!
//! | rule | scope | what it rejects |
//! |------|-------|-----------------|
//! | `scope` | the scope table in [`Config`] | a scope file that no longer denies its clippy lints, a manifest without the workspace lints, a module-wide `#![expect]` |
//! | `panic` | `reap-serve` | release `assert!`s (`debug_assert!` is exempt) |
//! | `locks` | `reap-serve` | raw mutexes, unlabeled acquisitions, rank inversions, lock-graph cycles |
//! | `unsafe` | the cast scope | unjustified `as f32` |
//!
//! Run it with `cargo run -p reap-lint` (add `--format json` for the CI
//! artifact). Its own exceptions are argued per-site pragmas:
//!
//! ```text
//! // reap-lint: allow(locks:raw-lock) -- the wrapper the discipline is built on
//! ```
//!
//! The committed `reap-lint.budget.json` holds the number of exceptions
//! per rule class — these pragmas plus the `#[expect(lint, reason)]`s of
//! the budgeted clippy lints — and the workspace must match it exactly.

#![warn(missing_docs)]

mod budget;
mod diag;
pub mod json;
pub mod rules;
pub mod source;

pub use budget::Budget;
pub use diag::Diagnostic;
pub use rules::Config;

use std::path::{Path, PathBuf};

use json::Value;
use source::SourceFile;

/// A completed lint run.
#[derive(Debug)]
pub struct Report {
    /// Files scanned.
    pub files_scanned: usize,
    /// Every finding, allowed or not, sorted by (file, line); manifest
    /// findings come last.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Findings not covered by a justification pragma.
    #[must_use]
    pub fn violations(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.is_violation())
            .collect()
    }

    /// Findings suppressed by a pragma (the budgeted set).
    #[must_use]
    pub fn allowed(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| !d.is_violation())
            .collect()
    }

    /// The machine-readable report. `budget_failures` come from
    /// [`Budget::check`] so CI consumers see the ratchet verdict inline.
    #[must_use]
    pub fn to_json(&self, budget_failures: &[String]) -> Value {
        let tally = Budget::tally(&self.diagnostics);
        Value::obj(vec![
            ("version", Value::num(1.0)),
            ("files_scanned", Value::num(self.files_scanned as f64)),
            (
                "violations",
                Value::Arr(self.violations().iter().map(|d| d.to_json()).collect()),
            ),
            (
                "allowed",
                Value::Arr(self.allowed().iter().map(|d| d.to_json()).collect()),
            ),
            (
                "allowed_per_rule",
                Value::Obj(
                    tally
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "budget_failures",
                Value::Arr(
                    budget_failures
                        .iter()
                        .map(|m| Value::str(m.clone()))
                        .collect(),
                ),
            ),
            (
                "ok",
                Value::Bool(self.violations().is_empty() && budget_failures.is_empty()),
            ),
        ])
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render_text(&self, budget_failures: &[String]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in self.violations() {
            let _ = writeln!(
                out,
                "{}:{}: [{}:{}] {}\n    {}",
                d.file, d.line, d.rule, d.check, d.message, d.snippet
            );
        }
        for m in budget_failures {
            let _ = writeln!(out, "budget: {m}");
        }
        let tally = Budget::tally(&self.diagnostics);
        let allowed: usize = tally.values().sum();
        let _ = writeln!(
            out,
            "reap-lint: {} file(s), {} violation(s), {} allowed site(s) ({})",
            self.files_scanned,
            self.violations().len(),
            allowed,
            tally
                .iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out
    }
}

/// Lints every workspace source under `root` with `cfg`, and checks
/// that every member manifest inherits the workspace lints.
///
/// # Errors
///
/// I/O failures walking or reading sources.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = collect_sources(root)?;
    let mut report = lint_files(files, cfg);
    rules::scope::check_manifests(root, &mut report.diagnostics)?;
    Ok(report)
}

/// Lints an explicit file set (the fixture tests' entry point).
#[must_use]
pub fn lint_files(files: Vec<SourceFile>, cfg: &Config) -> Report {
    let diagnostics = rules::run_all(&files, cfg);
    Report {
        files_scanned: files.len(),
        diagnostics,
    }
}

/// Walks the workspace sources: `crates/*/{src,tests,benches,examples}`,
/// the facade `src/`, top-level `tests/` and `examples/`. `vendor/` (the offline
/// dependency shims) and `target/` are never scanned. Files under any
/// `tests/` or `benches/` directory are wholly test-scoped.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut dirs = vec![(root.join("src"), "reap".to_string())];
    for top in ["tests", "examples"] {
        dirs.push((root.join(top), top.to_string()));
    }
    for krate in read_sorted(&root.join("crates"))? {
        let name = krate.file_name().map(|n| n.to_string_lossy().into_owned());
        for sub in ["src", "tests", "benches", "examples"] {
            dirs.push((krate.join(sub), name.clone().unwrap_or_default()));
        }
    }
    let mut files = Vec::new();
    for (dir, crate_name) in dirs {
        walk_rs(root, &dir, &crate_name, &mut files)?;
    }
    Ok(files)
}

/// The entries of `dir`, sorted; none if it is not a directory.
pub(crate) fn read_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    Ok(paths)
}

fn walk_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    for path in read_sorted(dir)? {
        if path.is_dir() {
            walk_rs(root, &path, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            let rel = rel.replace('\\', "/");
            let all_test = rel.split('/').any(|c| c == "tests" || c == "benches");
            out.push(SourceFile::parse(
                rel,
                crate_name.to_string(),
                &text,
                all_test,
            ));
        }
    }
    Ok(())
}

/// Searches upward from `start` for the workspace root (a `Cargo.toml`
/// declaring `[workspace]`).
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
