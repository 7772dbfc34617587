//! The `reap-lint` CLI: lint the workspace it is run in, enforce the
//! budget, print text or JSON, exit nonzero on any unjustified violation
//! or budget mismatch.
//!
//! ```text
//! reap-lint [--format text|json] [--write-budget]
//! ```
//!
//! Exit codes: 0 clean, 1 violations or budget mismatch, 2 usage/IO error.

use std::process::ExitCode;

use reap_lint::{find_workspace_root, lint_workspace, Budget, Config};

struct Args {
    format_json: bool,
    write_budget: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        format_json: false,
        write_budget: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().as_deref() {
                Some("json") => args.format_json = true,
                Some("text") => args.format_json = false,
                other => return Err(format!("--format text|json, got {other:?}")),
            },
            "--write-budget" => args.write_budget = true,
            "--help" | "-h" => {
                return Err("usage: reap-lint [--format text|json] [--write-budget]".to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = std::env::current_dir()
        .ok()
        .and_then(|d| find_workspace_root(&d))
    else {
        eprintln!("reap-lint: no workspace root found above the current directory");
        return ExitCode::from(2);
    };

    let report = match lint_workspace(&root, &Config::repo_default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reap-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let budget_path = root.join("reap-lint.budget.json");

    if args.write_budget {
        let tally = Budget::tally(&report.diagnostics);
        let text = Budget::render(&tally);
        if let Err(e) = std::fs::write(&budget_path, text) {
            eprintln!("reap-lint: writing {}: {e}", budget_path.display());
            return ExitCode::from(2);
        }
        eprintln!("reap-lint: wrote {}", budget_path.display());
    }

    let budget_failures = match Budget::load(&budget_path) {
        Ok(b) => b.check(&report.diagnostics),
        Err(e) => {
            eprintln!("reap-lint: {e} (run with --write-budget to create it)");
            return ExitCode::from(2);
        }
    };

    // A closed pipe (`reap-lint | head`) is not a lint failure: ignore
    // write errors instead of panicking — this binary lints for
    // panic-freedom, it had better practice it.
    use std::io::Write as _;
    let out = if args.format_json {
        format!("{}\n", report.to_json(&budget_failures).encode())
    } else {
        report.render_text(&budget_failures)
    };
    let _ = std::io::stdout().write_all(out.as_bytes());

    if report.violations().is_empty() && budget_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
