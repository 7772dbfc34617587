//! Rule L — lock discipline.
//!
//! Deadlock freedom is enforced as a *declared total order*: every lock
//! in scope carries a `lock-rank(name, N)` declaration, every `.lock()`
//! site carries an `acquires(name)` label, and nesting must only ever go
//! rank-upward. The static side of the contract checked here:
//!
//! - no raw `Mutex`/`RwLock` outside the `OrderedLock` wrapper
//!   (`raw-lock`) — the wrapper is what asserts ranks at runtime, so
//!   bypassing it silently exits the discipline;
//! - every acquisition is labeled (`unlabeled-acquisition`) with a
//!   declared name (`unknown-lock`);
//! - the static lock graph — an edge A → B wherever B is acquired while
//!   a guard of A is live (tracked lexically through `let` bindings and
//!   brace depth, plus explicit `holds(...)` annotations) — is free of
//!   cycles (`lock-cycle`) and every edge goes strictly rank-upward
//!   (`rank-inversion` / `rank-equal`; same-rank classes like the shard
//!   stripe must mark sites `acquires(name, ordered)` and take members
//!   in ascending sub-order, which the runtime wrapper asserts).
//!
//! The runtime half lives in `reap-serve::locks::OrderedLock`: debug
//! builds keep a thread-local stack of held ranks and assert every
//! acquisition climbs, so the chaos e2e doubles as a dynamic
//! lock-order drill for whatever interleavings the schedule produces.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::source::{word_occurrences, PragmaKind, SourceFile};

use super::{emit, Config};

/// One nesting edge: `to` acquired while `from` is held.
#[derive(Debug)]
struct Edge {
    from: String,
    to: String,
    file_idx: usize,
    line: usize,
}

/// Runs rule L: rank table, acquisition labels, graph, cycles.
pub fn check(files: &[SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
    // Pass 1: the rank table (and raw-lock findings).
    let mut ranks: BTreeMap<String, u32> = BTreeMap::new();
    for file in files {
        if !cfg.locks_crates.contains(&file.crate_name) {
            continue;
        }
        for p in &file.pragmas {
            if let PragmaKind::LockRank { name, rank } = &p.kind {
                p.used.set(true);
                if let Some(prev) = ranks.get(name) {
                    if prev != rank {
                        emit(
                            file,
                            p.at_line,
                            "locks",
                            "rank-conflict",
                            format!("lock `{name}` declared with ranks {prev} and {rank}"),
                            out,
                        );
                    }
                } else {
                    ranks.insert(name.clone(), *rank);
                }
            }
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for raw in ["Mutex", "RwLock"] {
                if !word_occurrences(&line.code, raw).is_empty() {
                    emit(
                        file,
                        i + 1,
                        "locks",
                        "raw-lock",
                        format!("raw `{raw}` outside OrderedLock exits the rank discipline"),
                        out,
                    );
                }
            }
        }
    }

    // Pass 2: acquisition sites and the lexical guard-liveness walk.
    let mut edges: Vec<Edge> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !cfg.locks_crates.contains(&file.crate_name) {
            continue;
        }
        // Live guards: (lock name, depth the binding lives at).
        let mut live: Vec<(String, i32)> = Vec::new();
        // Does the statement currently being scanned start with `let`?
        let mut stmt_has_let = false;
        let mut stmt_start_depth = 0i32;
        let mut prev_depth = 0i32;
        for (i, line) in file.lines.iter().enumerate() {
            let depth_start = prev_depth;
            prev_depth = line.depth_end;
            if line.in_test {
                live.clear();
                continue;
            }
            // Guards die when the block that bound them closes.
            live.retain(|(_, d)| line.depth_end >= *d && depth_start >= *d);

            let code_trim = line.code.trim();
            if !stmt_has_let {
                stmt_start_depth = depth_start;
            }
            if !word_occurrences(&line.code, "let").is_empty() {
                stmt_has_let = true;
                stmt_start_depth = depth_start;
            }

            let acquires_here = !word_occurrences(&line.code, ".lock()").is_empty();
            if acquires_here {
                let label = file.pragmas.iter().find(|p| {
                    p.target_line == i + 1 && matches!(p.kind, PragmaKind::Acquires { .. })
                });
                match label {
                    None => {
                        emit(
                            file,
                            i + 1,
                            "locks",
                            "unlabeled-acquisition",
                            "`.lock()` without an `acquires(<name>)` label".to_string(),
                            out,
                        );
                    }
                    Some(p) => {
                        p.used.set(true);
                        let PragmaKind::Acquires { name, .. } = &p.kind else {
                            unreachable!("filtered to Acquires above");
                        };
                        if !ranks.contains_key(name) {
                            emit(
                                file,
                                i + 1,
                                "locks",
                                "unknown-lock",
                                format!("`acquires({name})` names no declared lock-rank"),
                                out,
                            );
                        }
                        // Explicit holds(...) annotations add edges too.
                        for h in file.pragmas.iter().filter(|h| h.target_line == i + 1) {
                            if let PragmaKind::Holds { name: held } = &h.kind {
                                h.used.set(true);
                                edges.push(Edge {
                                    from: held.clone(),
                                    to: name.clone(),
                                    file_idx,
                                    line: i + 1,
                                });
                            }
                        }
                        for (held, _) in &live {
                            if held != name {
                                edges.push(Edge {
                                    from: held.clone(),
                                    to: name.clone(),
                                    file_idx,
                                    line: i + 1,
                                });
                            }
                        }
                        if stmt_has_let {
                            live.push((name.clone(), stmt_start_depth));
                        }
                    }
                }
            }

            // Statement boundary: `;` or a brace ends the current
            // statement (good enough lexically — method chains keep
            // statements open across lines).
            if code_trim.ends_with(';') || code_trim.ends_with('{') || code_trim.ends_with('}') {
                stmt_has_let = false;
            }
        }
    }

    // Pass 3: rank monotonicity per edge.
    for e in &edges {
        let file = &files[e.file_idx];
        let (Some(&from), Some(&to)) = (ranks.get(&e.from), ranks.get(&e.to)) else {
            continue; // unknown-lock already reported
        };
        if to < from {
            emit(
                file,
                e.line,
                "locks",
                "rank-inversion",
                format!(
                    "acquiring `{}` (rank {to}) while holding `{}` (rank {from}) inverts the \
                     declared order",
                    e.to, e.from
                ),
                out,
            );
        } else if to == from && e.from != e.to {
            emit(
                file,
                e.line,
                "locks",
                "rank-equal",
                format!(
                    "`{}` and `{}` share rank {to}; nesting same-rank locks needs an \
                     `ordered` class",
                    e.from, e.to
                ),
                out,
            );
        }
    }

    // Pass 4: cycle detection over the name-level graph.
    if let Some(cycle) = find_cycle(&edges) {
        // Report at the first edge participating in the cycle.
        if let Some(e) = edges
            .iter()
            .find(|e| cycle.contains(&e.from) && cycle.contains(&e.to))
        {
            emit(
                &files[e.file_idx],
                e.line,
                "locks",
                "lock-cycle",
                format!("lock graph cycle: {}", cycle.join(" -> ")),
                out,
            );
        }
    }
}

/// DFS cycle detection; returns the node names on the first cycle found
/// (deterministic: adjacency is sorted).
fn find_cycle(edges: &[Edge]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    for targets in adj.values_mut() {
        targets.sort_unstable();
        targets.dedup();
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: BTreeMap<&str, Mark> = BTreeMap::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        for &next in adj.get(node).map(Vec::as_slice).unwrap_or_default() {
            match marks.get(next).copied().unwrap_or(Mark::White) {
                Mark::Grey => {
                    let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| s.to_string()).collect();
                    cycle.push(next.to_string());
                    return Some(cycle);
                }
                Mark::White => {
                    if let Some(c) = dfs(next, adj, marks, stack) {
                        return Some(c);
                    }
                }
                Mark::Black => {}
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }
    for node in nodes {
        if marks.get(node).copied().unwrap_or(Mark::White) == Mark::White {
            let mut stack = Vec::new();
            if let Some(c) = dfs(node, &adj, &mut marks, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}
