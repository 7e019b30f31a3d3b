//! Pass: `wire-taint` — intraprocedural taint tracking for untrusted
//! wire input.
//!
//! Every length, count, offset, or index a decoder reads off the wire is
//! attacker-controlled. A local bound from a decoder read (`get_u8`,
//! `get_u16_le`, `get_u32_le`, `get_u64_le`, `remaining()`) — or from
//! arithmetic over such a local — is *tainted* until it flows through a
//! sanitizer:
//!
//! - a clamp (`.min(..)`, `.clamp(..)`, `checked_*`),
//! - a validated-count helper (`need(..)`, `limits::checked_count(..)`),
//! - a comparison against a named `MAX_*`/`*_LIMIT` constant.
//!
//! A tainted value reaching a sink is a finding: `with_capacity`,
//! `reserve`/`resize`, `split_to`/`advance`/`take`, `vec![..; n]`, slice indexing,
//! or a loop bound driving per-iteration allocation. The analysis is
//! intraprocedural and flow-insensitive past statement order (see
//! DESIGN.md §13 for the known limitations); the escape hatch is
//! `// analyzer:allow(wire-taint): <reason>`.

use std::collections::HashSet;

use crate::lexer::Tok;
use crate::source::{matching_brace, SourceFile};
use crate::Finding;

const RULE: &str = "wire-taint";

/// Decoder reads that introduce taint when they appear as `.name(`.
const SOURCES: &[&str] = &[
    "get_u8",
    "get_u16_le",
    "get_u32_le",
    "get_u64_le",
    "remaining",
];

/// Method-position clamps that sanitize an initializer.
const CLAMP_METHODS: &[&str] = &["min", "clamp"];

/// Idents whose presence in a loop body marks per-iteration allocation.
const ALLOC_IDENTS: &[&str] = &[
    "push",
    "extend",
    "extend_from_slice",
    "insert",
    "with_capacity",
    "reserve",
    "collect",
    "to_vec",
];

/// Keywords that may precede a `[` that is not an indexing expression
/// (slice patterns, array types, `in [..]` iterations).
const NON_INDEX_PRECEDERS: &[&str] = &[
    "let", "in", "as", "mut", "ref", "return", "if", "else", "match", "while", "for", "move",
    "box", "dyn", "impl", "where", "break", "continue", "static", "const", "pub", "fn", "use",
];

/// Runs the taint pass over one decoder-path file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &body in &file.functions {
        check_fn(file, body, &mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings.dedup();
    findings
}

/// A `let` statement's parse: names bound, initializer token range, and
/// the index at which the binding takes effect.
struct LetStmt {
    names: Vec<String>,
    init: (usize, usize),
    effect_at: usize,
}

fn check_fn(file: &SourceFile, body: (usize, usize), findings: &mut Vec<Finding>) {
    let toks = file.toks();
    let (start, end) = body;
    let mut tainted: HashSet<String> = HashSet::new();
    // Bindings whose taint update applies once the scan passes the end of
    // their initializer (sinks inside the initializer see the pre-binding
    // state).
    let mut pending: Vec<(usize, Vec<String>, bool)> = Vec::new();

    let mut i = start;
    while i < end {
        while let Some(pos) = pending.iter().position(|(at, _, _)| *at <= i) {
            let (_, names, taint) = pending.remove(pos);
            for n in names {
                if taint {
                    tainted.insert(n);
                } else {
                    tainted.remove(&n);
                }
            }
        }
        let t = &toks[i];

        if t.is_ident("let") {
            if let Some(stmt) = parse_let(toks, i, end) {
                let init_toks = &toks[stmt.init.0..stmt.init.1.min(end)];
                let taint = init_is_tainted(init_toks, &tainted) && !init_is_sanitized(init_toks);
                pending.push((stmt.effect_at, stmt.names, taint));
            }
            i += 1;
            continue;
        }

        // Statement sanitizer: `need(buf, n, ..)` validates `n` against the
        // bytes present, `checked_*(n, ..)` helpers validate by contract.
        if let Some(name) = t.ident() {
            if (name == "need" || name.starts_with("checked_"))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                let close = matching_paren(toks, i + 1);
                let inside: Vec<String> = toks[i + 2..close.min(end)]
                    .iter()
                    .filter_map(|t| t.ident())
                    .filter(|id| tainted.contains(*id))
                    .map(str::to_string)
                    .collect();
                for id in inside {
                    tainted.remove(&id);
                }
            }
        }

        // Comparison sanitizer: a tainted ident compared against a named
        // limit constant in the nearby token window is treated as bounded
        // from here on.
        if let Some(name) = t.ident() {
            if tainted.contains(name) && compared_to_limit(toks, i, start, end) {
                tainted.remove(name);
                i += 1;
                continue;
            }
        }

        scan_sink_at(file, toks, i, end, &tainted, findings);
        i += 1;
    }
}

/// Parses a `let` statement starting at `i` (the `let` token). For
/// `if let`/`while let` chains the initializer ends at the `{` opening the
/// block; for plain `let` it ends at the `;` closing the statement.
fn parse_let(toks: &[Tok], i: usize, end: usize) -> Option<LetStmt> {
    let header = i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
    let mut names = Vec::new();
    let mut depth = 0usize;
    let mut in_type = false;
    let mut j = i + 1;
    let assign = loop {
        if j >= end {
            return None;
        }
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') && depth == 0 {
            // `let x: T;` — an uninitialized binding clears taint.
            return Some(LetStmt {
                names,
                init: (j, j),
                effect_at: j,
            });
        } else if t.is_punct(':') && depth == 0 {
            in_type = true;
        } else if t.is_punct('=')
            && !toks.get(j + 1).is_some_and(|n| n.is_punct('='))
            && !toks[j - 1].is_punct('=')
            && !toks[j - 1].is_punct('<')
            && !toks[j - 1].is_punct('>')
            && !toks[j - 1].is_punct('!')
        {
            break j;
        } else if !in_type {
            if let Some(id) = t.ident() {
                // Pattern constructors are capitalized; keywords and
                // binding modes are not bindings.
                let lower = id.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
                if lower && !matches!(id, "mut" | "ref" | "box") {
                    names.push(id.to_string());
                }
            }
        }
        j += 1;
    };
    // Initializer: to `;` at depth 0, or `{` at depth 0 for let-chains.
    let init_start = assign + 1;
    let mut depth = 0usize;
    let mut k = init_start;
    while k < end {
        let t = &toks[k];
        if header && t.is_punct('{') && depth == 0 {
            break;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') && depth == 0 {
            break;
        }
        k += 1;
    }
    Some(LetStmt {
        names,
        init: (init_start, k),
        effect_at: k,
    })
}

/// Whether an initializer carries taint: a decoder read or an
/// already-tainted local.
fn init_is_tainted(init: &[Tok], tainted: &HashSet<String>) -> bool {
    init.iter().enumerate().any(|(j, t)| {
        t.ident().is_some_and(|id| {
            tainted.contains(id) || (SOURCES.contains(&id) && j > 0 && init[j - 1].is_punct('.'))
        })
    })
}

/// Whether an initializer sanitizes whatever taint it carries: a clamp
/// method, a `checked_*` helper, or a comparison against a named limit.
fn init_is_sanitized(init: &[Tok]) -> bool {
    init.iter().enumerate().any(|(j, t)| {
        t.ident().is_some_and(|id| {
            (CLAMP_METHODS.contains(&id) && j > 0 && init[j - 1].is_punct('.'))
                || id.starts_with("checked_")
                || id == "need"
                || is_limit_const(id)
        })
    })
}

/// `MAX_*`, `*_MAX`, or `*LIMIT*` SCREAMING_CASE constants.
fn is_limit_const(id: &str) -> bool {
    id.chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && (id.contains("MAX") || id.contains("LIMIT"))
}

/// Whether the tainted ident at `i` sits in a comparison against a named
/// limit constant (`if n > MAX_X { .. }`, `assert!(n <= LIMIT)`).
fn compared_to_limit(toks: &[Tok], i: usize, start: usize, end: usize) -> bool {
    let lo = i.saturating_sub(4).max(start);
    let hi = (i + 5).min(end);
    let window = &toks[lo..hi];
    let has_cmp = window.iter().any(|t| t.is_punct('<') || t.is_punct('>'));
    let has_limit = window.iter().any(|t| t.ident().is_some_and(is_limit_const));
    has_cmp && has_limit
}

/// The matching `)`/`]` for the opener at `open`.
fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// First tainted ident (or direct decoder read) in `range`, with its line.
fn tainted_in(
    toks: &[Tok],
    range: (usize, usize),
    tainted: &HashSet<String>,
) -> Option<(String, u32)> {
    let (a, b) = range;
    for j in a..b.min(toks.len()) {
        if let Some(id) = toks[j].ident() {
            if tainted.contains(id) {
                return Some((id.to_string(), toks[j].line));
            }
            if SOURCES.contains(&id) && j > 0 && toks[j - 1].is_punct('.') {
                return Some((format!("{id}()"), toks[j].line));
            }
        }
    }
    None
}

fn scan_sink_at(
    file: &SourceFile,
    toks: &[Tok],
    i: usize,
    end: usize,
    tainted: &HashSet<String>,
    findings: &mut Vec<Finding>,
) {
    let mut flag = |line: u32, message: String| {
        if !file.lexed.allowed(RULE, line) {
            findings.push(Finding {
                file: file.path.clone(),
                line,
                rule: RULE.into(),
                message,
            });
        }
    };
    let t = &toks[i];
    let Some(name) = t.ident() else {
        // Slice indexing: `expr[ .. tainted .. ]`.
        if t.is_punct('[') && i > 0 {
            let p = &toks[i - 1];
            let is_index = match p.ident() {
                Some(id) => !NON_INDEX_PRECEDERS.contains(&id),
                None => p.is_punct(')') || p.is_punct(']'),
            };
            if is_index {
                let close = matching_paren(toks, i);
                if let Some((id, line)) = tainted_in(toks, (i + 1, close.min(end)), tainted) {
                    flag(
                        line,
                        format!(
                            "slice index derived from untrusted wire value `{id}` — \
                             use `.get()` or clamp it against a MAX_* limit first"
                        ),
                    );
                }
            }
        }
        return;
    };

    // Allocation sized by a tainted value.
    if name == "with_capacity" && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        let close = matching_paren(toks, i + 1);
        if let Some((id, line)) = tainted_in(toks, (i + 2, close.min(end)), tainted) {
            flag(
                line,
                format!(
                    "allocation sized by untrusted wire value `{id}` — validate it \
                     against `remaining()` (see `wire::limits::checked_count`) or a \
                     MAX_* limit before allocating"
                ),
            );
        }
        return;
    }

    // Buffer-cursor methods driven by a tainted value.
    if matches!(name, "reserve" | "resize" | "split_to" | "advance" | "take")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
    {
        let close = matching_paren(toks, i + 1);
        if let Some((id, line)) = tainted_in(toks, (i + 2, close.min(end)), tainted) {
            flag(
                line,
                format!(
                    "`.{name}()` driven by untrusted wire value `{id}` — check it \
                     against `remaining()` or a MAX_* limit first"
                ),
            );
        }
        return;
    }

    // `vec![elem; n]` with a tainted length.
    if name == "vec"
        && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        && toks.get(i + 2).is_some_and(|n| n.is_punct('['))
    {
        let close = matching_paren(toks, i + 2);
        if let Some((id, line)) = tainted_in(toks, (i + 3, close.min(end)), tainted) {
            flag(
                line,
                format!(
                    "allocation sized by untrusted wire value `{id}` — validate it \
                     against `remaining()` before building the vec"
                ),
            );
        }
        return;
    }

    // Loop bounded by a tainted value whose body allocates per iteration.
    if name == "for" {
        let Some(in_idx) = (i + 1..end).find(|&j| toks[j].is_ident("in")) else {
            return;
        };
        let mut depth = 0usize;
        let mut open = None;
        for (j, t) in toks.iter().enumerate().take(end).skip(in_idx + 1) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct('{') && depth == 0 {
                open = Some(j);
                break;
            }
        }
        let Some(open) = open else { return };
        if let Some((id, line)) = tainted_in(toks, (in_idx + 1, open), tainted) {
            let close = matching_brace(toks, open);
            let allocates = toks[open..close.min(toks.len())]
                .iter()
                .any(|t| t.ident().is_some_and(|id| ALLOC_IDENTS.contains(&id)));
            if allocates {
                flag(
                    line,
                    format!(
                        "loop bounded by untrusted wire value `{id}` allocates per \
                         iteration — validate the count against `remaining()` before \
                         the loop"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("mem.rs", src))
    }

    #[test]
    fn tainted_with_capacity_is_flagged() {
        let out = run("fn f(buf: &mut B) { let n = buf.get_u16_le() as usize; \
             let mut v = Vec::with_capacity(n); }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("untrusted wire value `n`"),
            "{out:?}"
        );
    }

    #[test]
    fn min_clamp_sanitizes() {
        let out = run(
            "fn f(buf: &mut B) { let n = (buf.get_u16_le() as usize).min(buf.remaining()); \
             let mut v = Vec::with_capacity(n); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn checked_count_sanitizes() {
        let out = run("fn f(buf: &mut B) { \
             let n = limits::checked_count(buf.get_u16_le() as usize, buf.remaining(), 2, \"x\")?; \
             let mut v = Vec::with_capacity(n); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn need_statement_sanitizes_vec_macro() {
        let out = run("fn f(buf: &mut B) { let len = buf.get_u32_le() as usize; \
             need(buf, len, \"bytes\")?; let mut b = vec![0u8; len]; }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unguarded_vec_macro_is_flagged() {
        let out = run("fn f(buf: &mut B) { let len = buf.get_u32_le() as usize; \
             let mut b = vec![0u8; len]; }");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn comparison_against_limit_sanitizes() {
        let out = run("fn f(buf: &mut B) { let n = buf.get_u16_le() as usize; \
             if n > MAX_VALUES { return Err(e()); } \
             let mut v = Vec::with_capacity(n); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn arithmetic_propagates_taint() {
        let out = run(
            "fn f(buf: &mut B) { let n = buf.get_u16_le() as usize; let m = n * 8; \
             buf.advance(m); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("advance"), "{out:?}");
    }

    #[test]
    fn tainted_index_and_loop_alloc_are_flagged() {
        let out = run(
            "fn f(buf: &mut B, xs: &[u8]) { let i = buf.get_u8() as usize; let x = xs[i]; \
             let n = buf.get_u16_le(); let mut v = Vec::new(); \
             for _ in 0..n { v.push(0); } }",
        );
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn loop_without_allocation_is_clean() {
        let out = run(
            "fn f(buf: &mut B) { let n = buf.get_u16_le(); let mut s = 0u64; \
             for _ in 0..n { s += 1; } }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn parameters_are_untainted() {
        let out = run("fn f(n: usize) { let mut v = Vec::with_capacity(n); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allow_comment_suppresses() {
        let out = run("fn f(buf: &mut B) { let n = buf.get_u16_le() as usize;\n\
             // analyzer:allow(wire-taint): bounded by the frame length check upstream\n\
             let mut v = Vec::with_capacity(n); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let out = run("#[cfg(test)]\nmod tests { fn f(buf: &mut B) { \
             let n = buf.get_u16_le() as usize; let v = Vec::with_capacity(n); } }");
        assert!(out.is_empty(), "{out:?}");
    }
}
