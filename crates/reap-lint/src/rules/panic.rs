//! Rule P — release asserts in the serving request path.
//!
//! A panic in a connection handler tears down a session mid-frame (or
//! poisons shared state) instead of producing a typed error frame.
//! Clippy's panic lints cover `unwrap`/`expect`, the panicking macros
//! and indexing in the scoped code. This rule adds the `assert!` family,
//! which clippy can only ban together with `debug_assert!` (which
//! compiles out of release and stays allowed).

use crate::diag::Diagnostic;
use crate::source::{word_occurrences, SourceFile};

use super::{emit, Config};

/// Runs rule P over every in-scope file.
pub fn check(files: &[SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
    for file in files.iter().filter(|f| cfg.panic.covers(f)) {
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for mac in ["assert!(", "assert_eq!(", "assert_ne!("] {
                if !word_occurrences(&line.code, mac).is_empty() {
                    emit(
                        file,
                        i + 1,
                        "panic",
                        "assert",
                        format!("`{mac}...)` panics in release; use debug_assert or an error"),
                        out,
                    );
                }
            }
        }
    }
}
