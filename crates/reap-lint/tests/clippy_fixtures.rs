//! The rule classes that moved from reap-lint to clippy, pinned on
//! fixture crates: the determinism bans, the panic lints, `unsafe` and
//! the `as f64` casts, and the hygiene of `#[expect]` exceptions.
//!
//! One scratch workspace under `CARGO_TARGET_TMPDIR` holds a crate per
//! fixture. Its manifest copies the repository's `[workspace.lints.*]`
//! tables, it copies the root `clippy.toml`, and every fixture's crate
//! root starts with the attributes of every scope in
//! [`Config::repo_default`], exactly as the scoped crates do. So a change
//! to any of the three that weakens a rule fails here. `cargo clippy`
//! runs once over the whole workspace with `-D warnings`, as CI runs it,
//! and each test checks the findings of its own crate. If clippy cannot
//! be run, every test fails.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use reap_lint::json::{parse, Value};
use reap_lint::{find_workspace_root, Config};

/// Fixture crates: name and the source after the scope attributes, which
/// take line 1 (each source starts with a newline), so the line numbers
/// below are the fixture's own.
const FIXTURES: &[(&str, &str)] = &[
    (
        "det_dirty",
        r#"
use std::collections::HashMap;
pub fn state() {
    let _t = std::time::SystemTime::now();
    let _rng = rand::thread_rng();
    let _home = std::env::var("HOME");
    let _vars = std::env::vars();
    let _tmp = std::env::temp_dir();
    let _pid = std::process::id();
    let _mono = std::time::Instant::now();
    let _set = std::collections::HashSet::<u8>::new();
    let _state = std::hash::RandomState::new();
    let _hasher = std::hash::DefaultHasher::new();
    let _seeded = <u64 as rand::SeedableRng>::from_entropy();
}
use rand::rngs::OsRng;
"#,
    ),
    (
        "det_clean",
        r#"
use std::collections::BTreeMap;
pub fn state(seed: u64) -> (BTreeMap<u64, u64>, &'static str) {
    // A comment naming HashMap is not code; neither is "SystemTime".
    let label = "SystemTime::now()";
    let mut m = BTreeMap::new();
    m.insert(seed, seed);
    (m, label)
}
"#,
    ),
    (
        "det_test",
        r#"
pub fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn uses_ambient_time() {
        let _ = std::time::Instant::now();
        let _: HashMap<u8, u8> = HashMap::new();
    }
}
"#,
    ),
    (
        "panic_dirty",
        r#"
pub fn handler(xs: &[u8], user: usize) -> u8 {
    let first = xs.first().unwrap();
    let second = xs.get(1).expect("has two");
    assert!(user < 10);
    if user > xs.len() {
        panic!("out of range");
    }
    xs[user]
}
pub fn rest(k: u8) -> u8 {
    match k {
        0 => unreachable!("zero"),
        1 => todo!(),
        2 => unimplemented!(),
        _ => k,
    }
}
"#,
    ),
    (
        "panic_clean",
        r#"
pub fn handler(xs: &[u8], user: usize) -> Option<u8> {
    debug_assert!(user < 1000);
    let first = xs.first()?;
    let arr: [u8; 4] = [*first; 4];
    let last = arr.last()?;
    xs.get(user).map(|x| x.wrapping_add(*last))
}
"#,
    ),
    (
        "panic_test",
        r#"
pub fn first(xs: &[u8]) -> Option<u8> {
    xs.first().copied()
}
#[cfg(test)]
mod tests {
    #[test]
    fn first_byte() {
        let xs = [7u8, 8];
        assert_eq!(super::first(&xs).unwrap(), xs[0]);
    }
}
"#,
    ),
    (
        "unsafe_dirty",
        r#"
pub fn raw(p: *const u8, n: u64) -> f64 {
    let _ = unsafe { *p };
    n as f64
}
pub fn narrow(x: f64) -> f32 {
    x as f32
}
"#,
    ),
    (
        "unsafe_clean",
        r#"
#![forbid(unsafe_code)]
pub fn widen(n: u32) -> f64 {
    f64::from(n)
}
"#,
    ),
    (
        "expect_ok",
        r#"
pub fn sum_ends(xs: &[u8]) -> u8 {
    if xs.is_empty() {
        return 0;
    }
    #[expect(clippy::indexing_slicing, reason = "xs is non-empty: checked above")]
    let first = xs[0];
    first.wrapping_add(xs.last().copied().unwrap_or(0))
}
"#,
    ),
    (
        "expect_bare",
        r#"
pub fn first(xs: &[u8]) -> u8 {
    #[expect(clippy::indexing_slicing)]
    let first = xs[0];
    first.wrapping_add(1)
}
"#,
    ),
    (
        "expect_stale",
        r#"
pub fn first(xs: &[u8]) -> u8 {
    #[expect(clippy::indexing_slicing, reason = "nothing here indexes anymore")]
    let first = xs.first().copied().unwrap_or(0);
    first.wrapping_add(1)
}
"#,
    ),
    (
        "allow_attr",
        r#"
pub fn first(xs: &[u8]) -> u8 {
    #[allow(clippy::indexing_slicing, reason = "an allow never goes stale")]
    let first = xs[0];
    first.wrapping_add(1)
}
"#,
    ),
];

/// A stand-in for the real `rand` with the ambient-RNG items the root
/// `clippy.toml` bans (the vendored shim has none of them).
const RAND: &str = "pub fn thread_rng() -> u64 {
    4
}
pub mod rngs {
    pub struct OsRng;
}
pub trait SeedableRng: Sized {
    fn from_entropy() -> Self;
}
impl SeedableRng for u64 {
    fn from_entropy() -> u64 {
        4
    }
}
";

/// What one clippy run over the fixture workspace reported.
struct Run {
    /// Crates clippy finished checking.
    checked: BTreeSet<String>,
    /// (crate, lint, line) of every finding.
    findings: BTreeSet<(String, String, usize)>,
}

fn run() -> &'static Run {
    static RUN: OnceLock<Result<Run, String>> = OnceLock::new();
    match RUN.get_or_init(run_clippy) {
        Ok(run) => run,
        Err(e) => panic!("cargo clippy could not be run on the fixtures: {e}"),
    }
}

/// The (lint, line) findings of fixture crate `krate`, which clippy must
/// have checked.
fn findings(krate: &str) -> Vec<(String, usize)> {
    let run = run();
    assert!(run.checked.contains(krate), "clippy never checked {krate}");
    run.findings
        .iter()
        .filter(|(k, _, _)| k == krate)
        .map(|(_, lint, line)| (lint.clone(), *line))
        .collect()
}

fn has(found: &[(String, usize)], lint: &str, line: usize) -> bool {
    found.iter().any(|(l, n)| l == lint && *n == line)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The `[workspace.lints.*]` tables of a manifest, verbatim.
fn workspace_lints(manifest: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn run_clippy() -> Result<Run, String> {
    let repo = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .ok_or("no workspace root above reap-lint")?;
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixtures");
    let read = |name: &str| {
        std::fs::read_to_string(repo.join(name)).map_err(|e| format!("reading {name}: {e}"))
    };
    let lints = workspace_lints(&read("Cargo.toml")?);
    if lints.is_empty() {
        return Err("the root manifest has no [workspace.lints] tables".into());
    }
    write(&dir.join("clippy.toml"), &read("clippy.toml")?)?;

    let members: Vec<String> = std::iter::once("rand")
        .chain(FIXTURES.iter().map(|(name, _)| *name))
        .map(|m| format!("{m:?}"))
        .collect();
    write(
        &dir.join("Cargo.toml"),
        &format!(
            "[workspace]\nresolver = \"2\"\nmembers = [{}]\n\n{lints}",
            members.join(", ")
        ),
    )?;
    write(
        &dir.join("rand/Cargo.toml"),
        "[package]\nname = \"rand\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n",
    )?;
    write(&dir.join("rand/src/lib.rs"), RAND)?;

    let header: Vec<String> = Config::repo_default()
        .scopes()
        .iter()
        .map(|s| s.attribute())
        .collect();
    for (name, body) in FIXTURES {
        write(
            &dir.join(name).join("Cargo.toml"),
            &format!(
                "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
                 publish = false\n\n[dependencies]\nrand = {{ path = \"../rand\" }}\n\n\
                 [lints]\nworkspace = true\n"
            ),
        )?;
        write(
            &dir.join(name).join("src/lib.rs"),
            &format!("{}{body}", header.join(" ")),
        )?;
    }

    let output = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--keep-going", "--message-format=json", "--target-dir"])
        .arg(dir.join("target"))
        .args(["--", "-D", "warnings"])
        .current_dir(&dir)
        .output()
        .map_err(|e| format!("spawning cargo: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = Run {
        checked: BTreeSet::new(),
        findings: BTreeSet::new(),
    };
    let mut finished = false;
    for line in stdout.lines() {
        let msg = parse(line).map_err(|e| format!("cargo emitted non-JSON {line:?}: {e}"))?;
        let krate = msg
            .get("target")
            .and_then(|t| t.get("name"))
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        match msg.get("reason").and_then(Value::as_str) {
            Some("compiler-artifact") => {
                run.checked.insert(krate);
            }
            Some("compiler-message") => {
                let Some(m) = msg.get("message") else {
                    continue;
                };
                let Some(lint) = m.get("code").and_then(|c| c.get("code")) else {
                    continue;
                };
                let line = m
                    .get("spans")
                    .and_then(Value::as_arr)
                    .and_then(|spans| {
                        spans
                            .iter()
                            .find(|s| s.get("is_primary") == Some(&Value::Bool(true)))
                    })
                    .and_then(|s| s.get("line_start"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0) as usize;
                run.checked.insert(krate.clone());
                run.findings
                    .insert((krate, lint.as_str().unwrap_or_default().to_string(), line));
            }
            Some("build-finished") => finished = true,
            _ => {}
        }
    }
    if !finished {
        return Err(format!(
            "no build-finished message (status {}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(run)
}

// ---------------------------------------------------------- determinism

#[test]
fn determinism_dirty_fixture_flags_every_check() {
    let f = findings("det_dirty");
    for (lint, line) in [
        ("clippy::disallowed_types", 2),    // HashMap
        ("clippy::disallowed_types", 4),    // SystemTime
        ("clippy::disallowed_methods", 5),  // thread_rng
        ("clippy::disallowed_methods", 6),  // env::var
        ("clippy::disallowed_methods", 7),  // env::vars
        ("clippy::disallowed_methods", 8),  // temp_dir
        ("clippy::disallowed_methods", 9),  // process::id
        ("clippy::disallowed_types", 10),   // Instant
        ("clippy::disallowed_types", 11),   // HashSet
        ("clippy::disallowed_types", 12),   // RandomState
        ("clippy::disallowed_types", 13),   // DefaultHasher
        ("clippy::disallowed_methods", 14), // from_entropy
        ("clippy::disallowed_types", 16),   // OsRng
    ] {
        assert!(has(&f, lint, line), "{lint} at line {line} not in {f:?}");
    }
}

#[test]
fn determinism_clean_fixture_passes() {
    let f = findings("det_clean");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn determinism_ignores_test_code() {
    let f = findings("det_test");
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_dirty_fixture_flags_every_check() {
    // The release `assert!` on line 5 is reap-lint's (engine.rs).
    let f = findings("panic_dirty");
    for (lint, line) in [
        ("clippy::unwrap_used", 3),
        ("clippy::expect_used", 4),
        ("clippy::panic", 7),
        ("clippy::indexing_slicing", 9),
        ("clippy::unreachable", 13),
        ("clippy::todo", 14),
        ("clippy::unimplemented", 15),
    ] {
        assert!(has(&f, lint, line), "{lint} at line {line} not in {f:?}");
    }
}

#[test]
fn panic_clean_fixture_passes() {
    let f = findings("panic_clean");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_lints_ignore_test_code() {
    let f = findings("panic_test");
    assert!(f.is_empty(), "{f:?}");
}

// --------------------------------------------------------------- unsafe

#[test]
fn unsafe_and_float_dirty_fixture() {
    // `as f32` on line 7 is reap-lint's (engine.rs).
    let f = findings("unsafe_dirty");
    assert!(has(&f, "unsafe_code", 3), "{f:?}");
    assert!(has(&f, "clippy::cast_precision_loss", 4), "{f:?}");
}

#[test]
fn unsafe_clean_fixture_passes() {
    let f = findings("unsafe_clean");
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------- exceptions

#[test]
fn justified_expect_passes() {
    let f = findings("expect_ok");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn expect_without_reason_fails() {
    let f = findings("expect_bare");
    assert!(
        has(&f, "clippy::allow_attributes_without_reason", 3),
        "{f:?}"
    );
}

#[test]
fn stale_expect_fails() {
    let f = findings("expect_stale");
    assert!(has(&f, "unfulfilled_lint_expectations", 3), "{f:?}");
}

#[test]
fn allow_attribute_fails() {
    let f = findings("allow_attr");
    assert!(has(&f, "clippy::allow_attributes", 3), "{f:?}");
}
