//! Engine tests: clean and dirty fixtures for reap-lint's own rules
//! (the `assert` half of panic, the lock graph, the `as f32` audit and
//! the scope table), pragma suppression, the unused/invalid pragma
//! meta-rule, the budget ratchet over pragmas and `#[expect]`s, and a
//! JSON schema round-trip of a real report. The checks that moved to
//! clippy are pinned by `clippy_fixtures.rs`.
//!
//! Fixtures are inline Rust sources parsed through the same
//! [`SourceFile::parse`] path the workspace walk uses; the scope config
//! puts them all in a crate named `fix`, whose root carries every scope
//! attribute.

use reap_lint::json::{parse, Value};
use reap_lint::rules::{Scope, CAST_LINTS, DETERMINISM_LINTS, PANIC_LINTS};
use reap_lint::source::SourceFile;
use reap_lint::{lint_files, Budget, Config, Diagnostic};

const ROOT: &str = "crates/fix/src/lib.rs";

/// A config scoping every rule to the fixture crate `fix`.
fn fix_config() -> Config {
    let scope = |lints| Scope {
        lints,
        files: &[ROOT],
    };
    Config {
        determinism: scope(DETERMINISM_LINTS),
        panic: scope(PANIC_LINTS),
        casts: scope(CAST_LINTS),
        locks_crates: vec!["fix".into()],
    }
}

/// The fixture crate root, carrying the attributes of `scopes`.
fn root(scopes: &[&Scope]) -> SourceFile {
    let attrs: Vec<String> = scopes.iter().map(|s| s.attribute()).collect();
    SourceFile::parse(ROOT.into(), "fix".into(), &attrs.join("\n"), false)
}

fn fixture(name: &str, text: &str) -> SourceFile {
    SourceFile::parse(
        format!("crates/fix/src/{name}.rs"),
        "fix".into(),
        text,
        false,
    )
}

/// Lints `files` plus a fully scoped crate root.
fn lint(mut files: Vec<SourceFile>) -> Vec<Diagnostic> {
    let cfg = fix_config();
    files.push(root(&cfg.scopes()));
    lint_files(files, &cfg).diagnostics
}

fn violations(diags: &[Diagnostic]) -> Vec<(&'static str, &'static str, usize)> {
    diags
        .iter()
        .filter(|d| d.is_violation())
        .map(|d| (d.rule, d.check, d.line))
        .collect()
}

// ---------------------------------------------------------------- rule P

#[test]
fn panic_dirty_fixture_flags_every_check() {
    let diags = lint(vec![fixture(
        "panic_dirty",
        r#"
fn handler(xs: &[u8], user: usize) -> u8 {
    let first = xs.first().unwrap();
    let second = xs.get(1).expect("has two");
    assert!(user < 10);
    if user > xs.len() {
        panic!("out of range");
    }
    xs[user]
}
"#,
    )]);
    // unwrap, expect, panic! and indexing are clippy's (clippy_fixtures.rs).
    let v = violations(&diags);
    assert_eq!(v, vec![("panic", "assert", 5)], "{v:?}");
}

#[test]
fn panic_clean_fixture_passes() {
    let diags = lint(vec![fixture(
        "panic_clean",
        r#"
fn handler(xs: &[u8], user: usize) -> Option<u8> {
    debug_assert!(user < 1000);
    let v = vec![1u8, 2];
    let first = xs.first()?;
    let arr: [u8; 4] = [0; 4];
    let _ = (first, v, arr);
    xs.get(user).copied()
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

// ---------------------------------------------------------------- rule L

#[test]
fn locks_clean_fixture_passes() {
    let diags = lint(vec![fixture(
        "locks_clean",
        r#"
// reap-lint: lock-rank(gate, 10)
// reap-lint: lock-rank(table, 20)
fn nested(gate: &Wrapped, table: &Wrapped) {
    // reap-lint: acquires(gate)
    let g = gate.lock();
    // reap-lint: acquires(table)
    let t = table.lock();
    drop((g, t));
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn locks_flags_raw_unlabeled_and_unknown() {
    let diags = lint(vec![fixture(
        "locks_dirty",
        r#"
// reap-lint: lock-rank(gate, 10)
use std::sync::Mutex;
fn bad(m: &Wrapped) {
    let g = m.lock();
    drop(g);
    // reap-lint: acquires(phantom)
    let h = m.lock();
    drop(h);
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("locks", "raw-lock", 3)), "{v:?}");
    assert!(v.contains(&("locks", "unlabeled-acquisition", 5)), "{v:?}");
    assert!(v.contains(&("locks", "unknown-lock", 8)), "{v:?}");
}

#[test]
fn locks_flags_rank_inversion() {
    let diags = lint(vec![fixture(
        "locks_inv",
        r#"
// reap-lint: lock-rank(gate, 10)
// reap-lint: lock-rank(table, 20)
fn inverted(gate: &Wrapped, table: &Wrapped) {
    // reap-lint: acquires(table)
    let t = table.lock();
    // reap-lint: acquires(gate)
    let g = gate.lock();
    drop((t, g));
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("locks", "rank-inversion", 8)), "{v:?}");
}

#[test]
fn locks_flags_cycles_from_holds_annotations() {
    // a -> b in one function, b -> a (via holds) in another: a cycle no
    // single lexical scope shows.
    let diags = lint(vec![fixture(
        "locks_cycle",
        r#"
// reap-lint: lock-rank(a, 10)
// reap-lint: lock-rank(b, 10)
fn ab(a: &Wrapped, b: &Wrapped) {
    // reap-lint: acquires(a)
    let g = a.lock();
    // reap-lint: acquires(b)
    let h = b.lock();
    drop((g, h));
}
fn ba(a: &Wrapped) {
    // reap-lint: acquires(a)
    // reap-lint: holds(b)
    let g = a.lock();
    drop(g);
}
"#,
    )]);
    let v = violations(&diags);
    assert!(
        v.iter()
            .any(|(r, c, _)| *r == "locks" && *c == "lock-cycle"),
        "{v:?}"
    );
}

#[test]
fn locks_guards_die_with_their_scope() {
    // The gate guard's block closes before the table is taken: no edge,
    // no inversion, even though the ranks would invert if nested.
    let diags = lint(vec![fixture(
        "locks_scope",
        r#"
// reap-lint: lock-rank(gate, 10)
// reap-lint: lock-rank(table, 20)
fn sequential(gate: &Wrapped, table: &Wrapped) {
    {
        // reap-lint: acquires(table)
        let t = table.lock();
        drop(t);
    }
    // reap-lint: acquires(gate)
    let g = gate.lock();
    drop(g);
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

// ---------------------------------------------------------------- rule U

#[test]
fn unsafe_and_float_dirty_fixture() {
    // `unsafe` and `as f64` are clippy's (clippy_fixtures.rs); reap-lint
    // keeps `as f32`.
    let diags = lint(vec![fixture(
        "unsafe_dirty",
        r#"
fn raw(p: *const u8, n: u64) -> f64 {
    let _ = unsafe { *p };
    n as f64
}
fn narrow(x: f64) -> f32 {
    x as f32
}
"#,
    )]);
    let v = violations(&diags);
    assert_eq!(v, vec![("unsafe", "float-cast", 7)], "{v:?}");
}

#[test]
fn unsafe_clean_fixture_passes() {
    let diags = lint(vec![fixture(
        "unsafe_clean",
        r#"
#![forbid(unsafe_code)]
fn widen(n: u32) -> f64 {
    f64::from(n)
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

// --------------------------------------------------------------- scope

#[test]
fn scope_file_without_its_attribute_fails() {
    let cfg = fix_config();
    let partial = lint_files(vec![root(&[&cfg.determinism])], &cfg);
    let v = violations(&partial.diagnostics);
    assert_eq!(
        v,
        vec![("scope", "missing-deny", 1), ("scope", "missing-deny", 1)],
        "{v:?}"
    );
    let missing = lint_files(Vec::new(), &cfg);
    assert_eq!(violations(&missing.diagnostics).len(), 3);
}

#[test]
fn rustfmt_wrapped_scope_attribute_counts() {
    let cfg = fix_config();
    let wrapped = cfg
        .scopes()
        .iter()
        .map(|s| {
            s.attribute()
                .replace(", ", ",\n    ")
                .replace("(not", "(\n    not")
        })
        .collect::<Vec<_>>()
        .join("\n");
    let file = SourceFile::parse(ROOT.into(), "fix".into(), &wrapped, false);
    let diags = lint_files(vec![file], &cfg).diagnostics;
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn inner_expect_of_a_budgeted_lint_fails() {
    let diags = lint(vec![fixture(
        "inner_expect",
        r#"
#![expect(clippy::indexing_slicing, reason = "exempts the whole module")]
#![expect(clippy::needless_range_loop, reason = "not a budgeted lint")]
fn f(xs: &[u8]) -> u8 {
    xs[0]
}
"#,
    )]);
    let v = violations(&diags);
    assert_eq!(v, vec![("scope", "inner-expect", 2)], "{v:?}");
}

// ------------------------------------------------------------- pragmas

#[test]
fn allow_pragma_suppresses_and_records_justification() {
    let diags = lint(vec![fixture(
        "pragma_ok",
        r#"
fn checked(xs: &[u8], i: usize) -> u8 {
    // reap-lint: allow(panic:assert) -- a bad index is a caller bug worth a crash in release
    assert!(i < xs.len());
    xs.get(i).copied().unwrap_or(0)
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
    let allowed: Vec<_> = diags.iter().filter(|d| !d.is_violation()).collect();
    assert_eq!(allowed.len(), 1);
    assert_eq!(allowed[0].check, "assert");
    assert_eq!(
        allowed[0].allowed.as_deref(),
        Some("a bad index is a caller bug worth a crash in release")
    );
}

#[test]
fn whole_rule_allow_covers_every_check_of_the_class() {
    let diags = lint(vec![fixture(
        "pragma_rule",
        r#"
fn boom() {
    // reap-lint: allow(panic) -- fixture exercising class-wide allow
    assert_eq!(1, 1);
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn trailing_pragma_targets_its_own_line() {
    let diags = lint(vec![fixture(
        "pragma_trailing",
        r#"
fn f(xs: &[u8]) {
    assert!(!xs.is_empty()); // reap-lint: allow(panic:assert) -- fixture: framing guarantees a byte
}
"#,
    )]);
    assert!(violations(&diags).is_empty(), "{:?}", violations(&diags));
}

#[test]
fn unused_pragma_is_itself_a_violation() {
    let diags = lint(vec![fixture(
        "pragma_unused",
        r#"
fn fine() {
    // reap-lint: allow(panic:assert) -- nothing here asserts anymore
    let x = 1 + 1;
    let _ = x;
}
"#,
    )]);
    let v = violations(&diags);
    assert_eq!(v, vec![("pragma", "unused", 3)], "{v:?}");
}

#[test]
fn pragma_without_justification_is_invalid() {
    let diags = lint(vec![fixture(
        "pragma_bare",
        r#"
fn f() {
    // reap-lint: allow(panic:assert)
    assert!(true);
}
"#,
    )]);
    let v = violations(&diags);
    assert!(v.contains(&("pragma", "invalid", 3)), "{v:?}");
    // And the unjustified pragma does NOT suppress the finding.
    assert!(v.contains(&("panic", "assert", 4)), "{v:?}");
}

// ------------------------------------------------------------- budget

#[test]
fn budget_counts_expects_and_pragmas_exactly() {
    let diags = lint(vec![fixture(
        "budget_fix",
        r#"
fn f(xs: &[u8]) -> u8 {
    // reap-lint: allow(panic:assert) -- fixture
    assert!(!xs.is_empty());
    #[expect(
        clippy::indexing_slicing,
        reason = "fixture: checked, on the line above"
    )]
    let first = xs[0];
    #[expect(clippy::needless_range_loop, reason = "not budgeted")]
    for i in 0..1 {
        let _ = i;
    }
    first
}
"#,
    )]);
    let allowed: Vec<_> = diags.iter().filter(|d| !d.is_violation()).collect();
    assert_eq!(allowed.len(), 2, "{allowed:?}");
    assert_eq!(allowed[1].check, "clippy::indexing_slicing");
    assert_eq!(allowed[1].line, 5);
    assert_eq!(
        allowed[1].allowed.as_deref(),
        Some("fixture: checked, on the line above")
    );
    let exact = Budget::parse(r#"{"version":1,"budgets":{"panic":2}}"#).unwrap();
    assert!(exact.check(&diags).is_empty());
    let over = Budget::parse(r#"{"version":1,"budgets":{"panic":1}}"#).unwrap();
    let failures = over.check(&diags);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("exceed"), "{failures:?}");
    let under = Budget::parse(r#"{"version":1,"budgets":{"panic":3}}"#).unwrap();
    let failures = under.check(&diags);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("lower it to 2"), "{failures:?}");
    // A rule class absent from the budget has ceiling zero.
    let empty = Budget::parse(r#"{"version":1,"budgets":{}}"#).unwrap();
    assert_eq!(empty.check(&diags).len(), 1);
}

// ------------------------------------------------------- JSON round-trip

#[test]
fn report_json_schema_round_trips() {
    let cfg = fix_config();
    let report = lint_files(
        vec![
            root(&cfg.scopes()),
            fixture(
                "roundtrip",
                r#"
fn f(xs: &[u8]) -> u8 {
    #[expect(clippy::indexing_slicing, reason = "fixture justification")]
    let a = xs[0];
    assert!(a > 0);
    a
}
"#,
            ),
        ],
        &cfg,
    );
    assert_eq!(report.violations().len(), 1);
    assert_eq!(report.allowed().len(), 1);

    let encoded = report.to_json(&["budget: fixture note".into()]).encode();
    let parsed = parse(&encoded).expect("report JSON parses back");
    assert_eq!(parsed.get("version").and_then(Value::as_f64), Some(1.0));
    assert_eq!(
        parsed.get("files_scanned").and_then(Value::as_f64),
        Some(2.0)
    );

    for key in ["violations", "allowed"] {
        let arr = parsed.get(key).and_then(Value::as_arr).expect(key);
        assert_eq!(arr.len(), 1, "{key}");
        let rebuilt = Diagnostic::from_json(&arr[0]).expect("diagnostic rebuilds");
        let original = if key == "violations" {
            report.violations()[0]
        } else {
            report.allowed()[0]
        };
        assert_eq!(&rebuilt, original, "{key} round-trip");
    }
}

#[test]
fn diagnostic_from_json_rejects_unknown_rule() {
    let v = parse(
        r#"{"rule":"made-up","check":"unwrap","file":"x.rs","line":1,"message":"m","snippet":"s","allowed":null}"#,
    )
    .unwrap();
    assert!(Diagnostic::from_json(&v).unwrap_err().contains("made-up"));
}
