//! The rule registry and the scope table.
//!
//! Each rule module is a pure function over the lexed workspace: it
//! matches masked code only, never fires on test code, and reports
//! through [`emit`], which applies any `allow` pragma on the line
//! (recording the justification instead of a violation). The scope rule
//! is the exception: no pragma can excuse its findings, and it reads an
//! `#[expect]`'s reason from the raw line.

use crate::diag::Diagnostic;
use crate::source::{PragmaKind, SourceFile};

pub mod locks;
pub mod panic;
pub mod scope;
pub mod unsafe_float;

/// Every rule class id (the budget and pragma namespace).
pub const RULE_IDS: &[&str] = &["determinism", "panic", "locks", "unsafe", "scope", "pragma"];

/// Every check id a reap-lint finding can carry. Budgeted `#[expect]`
/// sites carry their lint name instead (see [`BUDGETED_LINTS`]).
pub const CHECK_IDS: &[&str] = &[
    "assert",
    "raw-lock",
    "unlabeled-acquisition",
    "unknown-lock",
    "rank-conflict",
    "rank-inversion",
    "rank-equal",
    "lock-cycle",
    "float-cast",
    "missing-deny",
    "missing-lints",
    "inner-expect",
    "unused",
    "invalid",
];

/// Clippy's determinism bans: the types and methods listed in the root
/// `clippy.toml`.
pub const DETERMINISM_LINTS: &[&str] = &["clippy::disallowed_types", "clippy::disallowed_methods"];

/// Clippy's panic lints for the serving path.
pub const PANIC_LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// Clippy's lints for `as f64` (and other lossy or widening) casts in
/// the energy-ledger code.
pub const CAST_LINTS: &[&str] = &["clippy::cast_precision_loss", "clippy::cast_lossless"];

/// Lints whose `#[expect]` sites the budget counts, by rule class.
/// `unsafe_code` is denied workspace-wide in `[workspace.lints.rust]`.
pub const BUDGETED_LINTS: &[(&str, &[&str])] = &[
    ("determinism", DETERMINISM_LINTS),
    ("panic", PANIC_LINTS),
    ("unsafe", CAST_LINTS),
    ("unsafe", &["unsafe_code"]),
];

/// The rule class and the registry's copy of `lint`, if its `#[expect]`
/// sites are budgeted.
#[must_use]
pub fn budgeted(lint: &str) -> Option<(&'static str, &'static str)> {
    BUDGETED_LINTS
        .iter()
        .find_map(|(class, lints)| lints.iter().find(|l| **l == lint).map(|l| (*class, *l)))
}

/// One clippy scope: a set of lints denied, for non-test code, in the
/// listed crate roots and modules.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// The lints the scope denies.
    pub lints: &'static [&'static str],
    /// Workspace-relative crate roots (`…/src/lib.rs`, `…/src/bin/x.rs`)
    /// and module files that must deny every lint of the scope.
    pub files: &'static [&'static str],
}

impl Scope {
    /// The inner attribute that switches the scope on. Test code stays
    /// exempt, as it always was.
    #[must_use]
    pub fn attribute(&self) -> String {
        format!("#![cfg_attr(not(test), deny({}))]", self.lints.join(", "))
    }

    /// Whether `file` falls under the scope: a listed file itself, or any
    /// file of a crate whose `src/lib.rs` is listed.
    #[must_use]
    pub fn covers(&self, file: &SourceFile) -> bool {
        let root = format!("crates/{}/src/lib.rs", file.crate_name);
        self.files.iter().any(|f| *f == file.path || *f == root)
    }
}

/// The scope table: the single place that declares which crates and
/// modules each rule covers. Clippy enforces the determinism, panic and
/// cast lints once a scope file carries its attribute; reap-lint checks
/// that every scope file does, and runs its own rules over the same
/// scopes.
#[derive(Debug, Clone)]
pub struct Config {
    /// State-bearing code: its state feeds snapshots and reports, so
    /// nondeterminism here breaks bit-identity.
    pub determinism: Scope,
    /// The serving request path, which must be panic-free (clippy's
    /// panic lints plus reap-lint's `assert` rule).
    pub panic: Scope,
    /// Energy-ledger code under the cast audit (clippy's cast lints plus
    /// reap-lint's `as f32` rule).
    pub casts: Scope,
    /// Crates under lock discipline.
    pub locks_crates: Vec<String>,
}

impl Config {
    /// The committed scope for this repository.
    #[must_use]
    pub fn repo_default() -> Config {
        Config {
            determinism: Scope {
                lints: DETERMINISM_LINTS,
                files: &[
                    "crates/reap-core/src/lib.rs",
                    "crates/reap-sim/src/lib.rs",
                    "crates/reap-harvest/src/lib.rs",
                    "crates/reap-data/src/lib.rs",
                    "crates/reap-serve/src/state.rs",
                    "crates/reap-serve/src/snapshot.rs",
                ],
            },
            panic: Scope {
                lints: PANIC_LINTS,
                files: &[
                    "crates/reap-serve/src/lib.rs",
                    "crates/reap-serve/src/bin/reap-serve.rs",
                ],
            },
            casts: Scope {
                lints: CAST_LINTS,
                files: &[
                    "crates/reap-units/src/lib.rs",
                    "crates/reap-harvest/src/lib.rs",
                    "crates/reap-sim/src/clock.rs",
                ],
            },
            locks_crates: vec!["reap-serve".to_string()],
        }
    }

    /// The three clippy scopes.
    #[must_use]
    pub fn scopes(&self) -> [&Scope; 3] {
        [&self.determinism, &self.panic, &self.casts]
    }
}

/// Records a finding at `line_no` (1-based), consulting `allow` pragmas.
pub fn emit(
    file: &SourceFile,
    line_no: usize,
    rule: &'static str,
    check: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let allowed = file.allows_for(line_no, rule, check).map(|p| {
        p.used.set(true);
        match &p.kind {
            PragmaKind::Allow { justification, .. } => justification.clone(),
            _ => String::new(),
        }
    });
    out.push(Diagnostic {
        rule,
        check,
        file: file.path.clone(),
        line: line_no,
        message,
        snippet: file.snippet(line_no),
        allowed,
    });
}

/// Runs every rule over the workspace, then reports unused or malformed
/// pragmas (pragma hygiene keeps the allowlist honest: a pragma that
/// suppresses nothing must be deleted, not accumulated).
#[must_use]
pub fn run_all(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    scope::check(files, cfg, &mut out);
    panic::check(files, cfg, &mut out);
    locks::check(files, cfg, &mut out);
    unsafe_float::check(files, cfg, &mut out);

    for file in files {
        for p in &file.pragmas {
            if p.used.get() {
                continue;
            }
            let target_in_test = file.lines.get(p.target_line - 1).is_some_and(|l| l.in_test);
            let (check, message) = match &p.kind {
                PragmaKind::Allow { rules, .. } if rules.is_empty() => (
                    "invalid",
                    "malformed reap-lint pragma (check the grammar in DESIGN.md)".to_string(),
                ),
                _ if target_in_test => continue,
                PragmaKind::Allow { rules, .. } => (
                    "unused",
                    format!(
                        "allow({}) suppresses no finding; delete it",
                        rules.join(", ")
                    ),
                ),
                PragmaKind::Acquires { name, .. } | PragmaKind::Holds { name } => (
                    "unused",
                    format!("lock pragma for `{name}` matches no acquisition; delete it"),
                ),
                PragmaKind::LockRank { .. } => continue,
            };
            emit(file, p.at_line, "pragma", check, message, &mut out);
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule, a.check).cmp(&(&b.file, b.line, b.rule, b.check)));
    out
}
