//! Rule U — the `as f32` half of the float-cast audit.
//!
//! The energy ledgers balance to 1e-9 J, so a lossy cast in a ledger
//! path is exactly the kind of silent bit-level drift the differential
//! suites can only catch after the fact. Clippy's cast lints cover
//! `as f64` in the cast scope; its only lint for `f64 as f32` would
//! also flag every float-to-int cast there, so this rule keeps `as f32`.
//! Each site must carry a written justification.

use crate::diag::Diagnostic;
use crate::source::{word_occurrences, SourceFile};

use super::{emit, Config};

/// Runs rule U over every file in the cast scope.
pub fn check(files: &[SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
    for file in files.iter().filter(|f| cfg.casts.covers(f)) {
        for (i, line) in file.lines.iter().enumerate() {
            if !line.in_test && !word_occurrences(&line.code, "as f32").is_empty() {
                emit(
                    file,
                    i + 1,
                    "unsafe",
                    "float-cast",
                    "`as f32` in ledger code; justify the range".to_string(),
                    out,
                );
            }
        }
    }
}
