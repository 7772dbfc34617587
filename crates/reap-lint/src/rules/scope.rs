//! Rule S — the clippy scopes and their exceptions.
//!
//! Clippy enforces the determinism, panic and cast lints, but only where
//! a scope file switches them on, so deleting that one attribute would
//! silently switch a rule off. This rule fails instead:
//!
//! - `missing-deny`: a file in the scope table does not deny each of
//!   its scope's lints in a `#![cfg_attr(not(test), deny(...))]` (or is
//!   gone);
//! - `missing-lints`: a workspace manifest does not inherit the
//!   workspace lints (`[lints] workspace = true`), which deny
//!   `unsafe_code` and `#[allow]` attributes;
//! - `inner-expect`: an `#![expect(...)]` of a budgeted lint, which
//!   would exempt a whole module instead of one site.
//!
//! Every other `#[expect(...)]` of a budgeted lint in non-test code is
//! recorded as an allowed site of its rule class, so the budget counts
//! clippy's exceptions alongside reap-lint's own pragmas.

use std::path::Path;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

use super::{budgeted, Config};

/// Runs rule S over the lexed sources.
pub fn check(files: &[SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
    for scope in cfg.scopes() {
        for path in scope.files {
            let file = files.iter().find(|f| f.path == *path);
            let denied = file.map(denied).unwrap_or_default();
            let missing: Vec<&str> = scope
                .lints
                .iter()
                .copied()
                .filter(|l| !denied.iter().any(|d| d == l))
                .collect();
            if !missing.is_empty() {
                let message = format!(
                    "scope file must deny {} for non-test code, e.g. `{}`",
                    missing.join(", "),
                    scope.attribute()
                );
                out.push(finding("missing-deny", path, 1, message));
            }
        }
    }
    for file in files {
        for (i, line) in file.lines.iter().enumerate() {
            let head = line.code.trim_start();
            let inner = head.starts_with("#![expect(");
            if line.in_test || !(inner || head.starts_with("#[expect(")) {
                continue;
            }
            // rustfmt may wrap the attribute; masked code blanks the
            // reason string, so the first `)]` closes it.
            let (mut code, mut raw) = (String::new(), String::new());
            for l in file.lines.iter().skip(i) {
                code.push_str(&l.code);
                raw.push_str(&l.raw);
                if code.contains(")]") {
                    break;
                }
            }
            let args = code.split_once("expect(").map_or("", |(_, a)| a);
            let args = args.split_once(")]").map_or(args, |(a, _)| a);
            let reason = raw
                .split_once("reason = \"")
                .and_then(|(_, r)| r.split_once('"'));
            for (class, lint) in args.split(',').filter_map(|a| budgeted(a.trim())) {
                out.push(if inner {
                    let message = format!("`#![expect({lint})]` exempts a whole module");
                    finding("inner-expect", &file.path, i + 1, message)
                } else {
                    Diagnostic {
                        rule: class,
                        check: lint,
                        file: file.path.clone(),
                        line: i + 1,
                        message: format!("`#[expect({lint})]`"),
                        snippet: file.snippet(i + 1),
                        allowed: Some(reason.map_or("", |(r, _)| r).to_string()),
                    }
                });
            }
        }
    }
}

/// The lints `file` denies with `#![cfg_attr(not(test), deny(...))]`,
/// however rustfmt wrapped or grouped them.
fn denied(file: &SourceFile) -> Vec<String> {
    let code: String = (file.lines.iter().filter(|l| !l.in_test))
        .flat_map(|l| l.code.chars())
        .filter(|c| !c.is_whitespace())
        .collect();
    let attrs = code.split("#![cfg_attr(not(test),deny(").skip(1);
    attrs
        .filter_map(|rest| rest.split_once("))]"))
        .flat_map(|(lints, _)| lints.split(','))
        .map(String::from)
        .collect()
}

/// Checks that the root manifest and every member under `crates/` and
/// `vendor/` inherit the workspace lints.
///
/// # Errors
///
/// I/O failures listing or reading the manifests.
pub fn check_manifests(root: &Path, out: &mut Vec<Diagnostic>) -> Result<(), String> {
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        let members = crate::read_sorted(&root.join(dir))?.into_iter();
        manifests.extend(
            members
                .map(|m| m.join("Cargo.toml"))
                .filter(|m| m.is_file()),
        );
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("reading {}: {e}", manifest.display()))?;
        let compact: String = text.split_whitespace().collect();
        if !compact.contains("[lints]workspace=true") {
            let rel = manifest.strip_prefix(root).unwrap_or(&manifest);
            let message = "manifest must inherit the workspace lints: `[lints] workspace = true`";
            let path = rel.to_string_lossy().replace('\\', "/");
            out.push(finding("missing-lints", &path, 1, message.into()));
        }
    }
    Ok(())
}

fn finding(check: &'static str, path: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: "scope",
        check,
        file: path.to_string(),
        line,
        message,
        snippet: String::new(),
        allowed: None,
    }
}
