//! The linter's own acceptance gate, run as a test: the real workspace
//! must lint clean under the committed scope and match the committed
//! budget exactly. This is the same check CI runs via
//! `cargo run -p reap-lint`; having it in `cargo test` means a patch
//! that deletes a scope attribute, adds an unbudgeted `#[expect]` or
//! introduces a lock-rank inversion fails the ordinary test suite too,
//! not just the lint job.

use reap_lint::{find_workspace_root, lint_workspace, Budget, Config};

fn root() -> std::path::PathBuf {
    let here = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&here).expect("reap-lint lives inside the workspace")
}

#[test]
fn workspace_has_zero_unjustified_violations() {
    let report = lint_workspace(&root(), &Config::repo_default()).expect("workspace lints");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "unjustified violations:\n{}",
        report.render_text(&[])
    );
    // The lock graph being cycle-free and rank-monotone is part of "no
    // violations": any lock-cycle / rank-inversion / rank-equal finding
    // would appear above.
}

#[test]
fn workspace_stays_within_the_committed_budget() {
    let root = root();
    let report = lint_workspace(&root, &Config::repo_default()).expect("workspace lints");
    let budget =
        Budget::load(&root.join("reap-lint.budget.json")).expect("committed budget file parses");
    let failures = budget.check(&report.diagnostics);
    assert!(
        failures.is_empty(),
        "budget mismatch (commit the exact count of exceptions):\n{}",
        failures.join("\n")
    );
}

#[test]
fn every_pragma_in_the_workspace_is_used() {
    // Unused pragmas are violations (pragma:unused), so this is implied
    // by the zero-violations test — but assert it directly so the
    // failure message names the stale pragma when it happens.
    let report = lint_workspace(&root(), &Config::repo_default()).expect("workspace lints");
    let stale: Vec<_> = report
        .violations()
        .into_iter()
        .filter(|d| d.rule == "pragma")
        .map(|d| format!("{}:{} {}", d.file, d.line, d.message))
        .collect();
    assert!(stale.is_empty(), "stale pragmas:\n{}", stale.join("\n"));
}
