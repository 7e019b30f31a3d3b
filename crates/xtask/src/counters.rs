//! Pass: `counter-registry` — plumbing-exhaustiveness for the
//! `broker_counters!` registry.
//!
//! `crates/broker/src/counters.rs` declares every broker counter exactly
//! once; the macro expands the whole chain (atomics, snapshot structs, wire
//! encode/decode, CLI table). This pass verifies the chain *structurally*
//! instead of trusting convention:
//!
//! 1. the registry invocation parses and is non-empty;
//! 2. each generated surface (`encode_wire`, `decode_wire`,
//!    `struct NodeCounters`, `counter_lines`) either comes from the macro
//!    (its body still contains `$` metavariables) or names every registry
//!    entry — so a hand-unrolled replacement that drops a counter fails
//!    `cargo xtask check`;
//! 3. the `Stats` frame's codec arms in `protocol.rs` contain no raw
//!    `get_u64_le`/`put_u64_le` — counters cross the wire only through the
//!    macro-generated prefix-tolerant helpers;
//! 4. no hand-built counter literal (a braced literal naming two or more
//!    registry counters) bypasses the registry in `protocol.rs` or the CLI;
//! 5. the CLI stats table renders via `counter_lines()` so new counters
//!    appear in `linkcast stats` with zero per-counter edits.

use crate::lexer::Tok;
use crate::source::{matching_brace, SourceFile};
use crate::Finding;

const RULE: &str = "counter-registry";

/// The files the counter chain runs through.
pub struct CounterSources {
    /// `crates/broker/src/counters.rs` — the `broker_counters!` registry.
    pub counters: SourceFile,
    /// `crates/broker/src/protocol.rs` — the Stats frame codec.
    pub protocol: SourceFile,
    /// `crates/cli/src/main.rs` — the stats table.
    pub cli: SourceFile,
}

/// One registry entry: counter name, class (`atomic`/`derived`), line.
#[derive(Debug)]
struct Entry {
    name: String,
    line: u32,
}

/// Runs the counter-registry pass.
pub fn check(cs: &CounterSources) -> Vec<Finding> {
    let mut findings = Vec::new();

    let entries = registry_entries(&cs.counters);
    if entries.is_empty() {
        findings.push(Finding {
            file: cs.counters.path.clone(),
            line: 1,
            rule: RULE.into(),
            message: "no non-empty `broker_counters! { wire { .. } .. }` invocation found".into(),
        });
        return findings;
    }

    // (2) every generated surface covers every entry.
    let surfaces: [(&str, SurfaceKind); 4] = [
        ("encode_wire", SurfaceKind::Fn),
        ("decode_wire", SurfaceKind::Fn),
        ("NodeCounters", SurfaceKind::Struct),
        ("counter_lines", SurfaceKind::Fn),
    ];
    for (surface, kind) in surfaces {
        check_surface(&cs.counters, surface, kind, &entries, &mut findings);
    }

    // (3) the Stats codec arms use the generated helpers, not raw words.
    for (raw, verb, helper) in [
        ("get_u64_le", "reads", "decode_wire"),
        ("put_u64_le", "writes", "encode_wire"),
    ] {
        if let Some(line) = ident_in_stats_arm(&cs.protocol, raw) {
            findings.push(Finding {
                file: cs.protocol.path.clone(),
                line,
                rule: RULE.into(),
                message: format!(
                    "a Stats codec arm {verb} counters with raw `{raw}` — use the \
                     registry-generated `NodeCounters::{helper}` so the layout stays \
                     prefix-tolerant across releases"
                ),
            });
        }
    }

    // (4) no hand-built counter literal bypasses the registry.
    for file in [&cs.protocol, &cs.cli] {
        findings.extend(bypass_literals(file, &entries));
    }

    // (5) the CLI renders the table from `counter_lines()`.
    let renders = cs
        .cli
        .toks()
        .iter()
        .enumerate()
        .any(|(i, t)| t.is_ident("counter_lines") && !cs.cli.in_test(i));
    if !renders {
        findings.push(Finding {
            file: cs.cli.path.clone(),
            line: 1,
            rule: RULE.into(),
            message: "stats table does not render `counter_lines()` — counters added to \
                      the registry would silently miss the CLI output"
                .into(),
        });
    }

    findings.sort_by_key(|f| (f.file.clone(), f.line));
    findings.dedup();
    findings
}

/// Parses the `wire { name: class, .. }` entries out of the (non-test)
/// `broker_counters!` invocation. The macro *definition* (`macro_rules !
/// broker_counters {`) has no `!` directly after the name, so only real
/// invocations match.
fn registry_entries(file: &SourceFile) -> Vec<Entry> {
    let toks = file.toks();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if file.in_test(i)
            || !toks[i].is_ident("broker_counters")
            || !toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            || !toks.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            continue;
        }
        let close = matching_brace(toks, i + 2);
        // Find the `wire { .. }` block inside the invocation.
        let Some(wopen) = (i + 3..close).find(|&j| {
            toks[j].is_ident("wire") && toks.get(j + 1).is_some_and(|t| t.is_punct('{'))
        }) else {
            continue;
        };
        let wclose = matching_brace(toks, wopen + 1);
        // Entries are `name : class ,` at depth 1.
        let mut j = wopen + 2;
        while j < wclose {
            if let Some(name) = toks[j].ident() {
                if toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                    if let Some(_class) = toks.get(j + 2).and_then(|t| t.ident()) {
                        out.push(Entry {
                            name: name.to_string(),
                            line: toks[j].line,
                        });
                        j += 3;
                        continue;
                    }
                }
            }
            j += 1;
        }
        return out;
    }
    out
}

enum SurfaceKind {
    Fn,
    Struct,
}

/// A surface is covered if its body still contains `$` metavariables (it
/// is the macro template, which expands once per entry) or if it names
/// every registry entry explicitly.
fn check_surface(
    file: &SourceFile,
    surface: &str,
    kind: SurfaceKind,
    entries: &[Entry],
    findings: &mut Vec<Finding>,
) {
    let toks = file.toks();
    let body = match kind {
        SurfaceKind::Fn => file
            .functions
            .iter()
            .find(|f| f.name == surface)
            .map(|f| f.body),
        SurfaceKind::Struct => (0..toks.len())
            .find(|&i| {
                toks[i].is_ident("struct")
                    && toks.get(i + 1).is_some_and(|t| t.is_ident(surface))
                    && !file.in_test(i)
            })
            .and_then(|i| {
                let open = (i + 2..toks.len()).find(|&j| toks[j].is_punct('{'))?;
                Some((open + 1, matching_brace(toks, open)))
            }),
    };
    let Some((start, end)) = body else {
        findings.push(Finding {
            file: file.path.clone(),
            line: 1,
            rule: RULE.into(),
            message: format!("registry surface `{surface}` not found in {}", file.path),
        });
        return;
    };
    let body_toks = &toks[start..end.min(toks.len())];
    if body_toks.iter().any(|t| t.is_punct('$')) {
        return; // macro template — expands for every entry by construction
    }
    for e in entries {
        if !body_toks.iter().any(|t| t.is_ident(&e.name)) {
            findings.push(Finding {
                file: file.path.clone(),
                line: e.line,
                rule: RULE.into(),
                message: format!(
                    "counter `{}` is missing from `{surface}` — every registry entry \
                     must flow through the whole chain",
                    e.name
                ),
            });
        }
    }
}

/// The token index one past a match arm's body, given the index of the
/// first body token (right after the `=>`). A block arm (`X => { ... }`)
/// ends at its matching brace — block arms need no trailing comma, so
/// scanning on to the next `,` would bleed into the following arm. An
/// expression arm ends at the first `,` (or the match's closing `}`) at its
/// own depth.
fn arm_end(toks: &[Tok], start: usize) -> usize {
    if toks.get(start).is_some_and(|t| t.is_punct('{')) {
        return matching_brace(toks, start);
    }
    let mut depth = 0usize;
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('}') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            break;
        }
        j += 1;
    }
    j
}

/// Line of `needle` inside a `Stats` codec arm, if any: the encode arm
/// (`Stats ( binding ) =>` or `Stats =>`) or the decode arm
/// (`Some(FrameTag::Stats) =>`).
fn ident_in_stats_arm(file: &SourceFile, needle: &str) -> Option<u32> {
    let toks = file.toks();
    for i in 0..toks.len() {
        if file.in_test(i) || !toks[i].is_ident("Stats") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct(')')) {
            j += 1;
        } else if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
        }
        if !(toks.get(j).is_some_and(|t| t.is_punct('='))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('>')))
        {
            continue;
        }
        let start = j + 2;
        let end = arm_end(toks, start);
        if let Some(t) = toks[start..end.min(toks.len())]
            .iter()
            .find(|t| t.is_ident(needle))
        {
            return Some(t.line);
        }
    }
    None
}

/// Braced literals naming two or more registry counters as fields — a
/// hand-built counter struct that bypasses the registry chain.
fn bypass_literals(file: &SourceFile, entries: &[Entry]) -> Vec<Finding> {
    let toks = file.toks();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_punct('{') || file.in_test(i) {
            continue;
        }
        let close = matching_brace(toks, i);
        // Count registry names used as `name :` fields at depth 1.
        let mut depth = 0usize;
        let mut hits = 0usize;
        for j in i..=close.min(toks.len().saturating_sub(1)) {
            let t = &toks[j];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 1
                && t.ident()
                    .is_some_and(|id| entries.iter().any(|e| e.name == id))
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
            {
                hits += 1;
            }
        }
        if hits >= 2 {
            let line = toks[i].line;
            if !file.lexed.allowed(RULE, line) {
                out.push(Finding {
                    file: file.path.clone(),
                    line,
                    rule: RULE.into(),
                    message: format!(
                        "hand-built literal names {hits} registry counters — it bypasses \
                         the `broker_counters!` registry; plumb through the generated \
                         structs instead"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const REGISTRY: &str = "\
        broker_counters! {\n\
            wire {\n\
                published: atomic,\n\
                forwarded: atomic,\n\
                spooled: derived,\n\
            }\n\
            gauges { connections: usize, }\n\
        }\n";

    fn counters_with(extra: &str) -> String {
        format!("{REGISTRY}{extra}")
    }

    fn sources(counters: &str, protocol: &str, cli: &str) -> CounterSources {
        CounterSources {
            counters: SourceFile::parse("counters.rs", counters),
            protocol: SourceFile::parse("protocol.rs", protocol),
            cli: SourceFile::parse("cli.rs", cli),
        }
    }

    /// Hand-written surfaces that do cover every entry.
    const FULL_SURFACES: &str = "\
        pub struct NodeCounters { pub published: u64, pub forwarded: u64, pub spooled: u64 }\n\
        fn encode_wire(&self, b: &mut B) { b.put_u64_le(self.published); \
            b.put_u64_le(self.forwarded); b.put_u64_le(self.spooled); }\n\
        fn decode_wire(buf: &mut Bytes) -> Self { read(published); read(forwarded); \
            read(spooled); }\n\
        fn counter_lines(&self) -> V { [(\"published\", self.published), \
            (\"forwarded\", self.forwarded), (\"spooled\", self.spooled)] }\n";

    const PROTOCOL_OK: &str = "\
        fn decode(tag: u8, buf: &mut Bytes) { match FrameTag::from_byte(tag) {\n\
            Some(FrameTag::Stats) => Stats(NodeCounters::decode_wire(buf)),\n\
            Some(FrameTag::Ping | FrameTag::Stats) | None => (),\n\
        } }\n\
        fn encode(m: &M, b: &mut B) { match m { Stats(c) => { \
            b.put_u8(FrameTag::Stats as u8); c.encode_wire(b); } } }\n";

    const CLI_OK: &str =
        "fn cmd_stats(c: NodeCounters) { for (n, v) in c.counter_lines() { print(n, v); } }";

    #[test]
    fn complete_chain_is_clean() {
        let cs = sources(&counters_with(FULL_SURFACES), PROTOCOL_OK, CLI_OK);
        let out = check(&cs);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn macro_template_surfaces_are_trusted() {
        // The real counters.rs keeps the surfaces inside macro_rules! with
        // `$wname` metavariables; those cover every entry by construction.
        let src = counters_with(
            "macro_rules! gen { () => {\n\
             pub struct NodeCounters { $( pub $wname: u64, )+ }\n\
             fn encode_wire(&self, b: &mut B) { $( b.put_u64_le(self.$wname); )+ }\n\
             fn decode_wire(buf: &mut Bytes) -> Self { $( read($wname); )+ }\n\
             fn counter_lines(&self) -> V { [ $( (stringify!($wname), self.$wname), )+ ] }\n\
             } }\n",
        );
        let cs = sources(&src, PROTOCOL_OK, CLI_OK);
        let out = check(&cs);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn dropped_counter_in_decode_is_flagged() {
        let src = counters_with(&FULL_SURFACES.replace(
            "read(published); read(forwarded); read(spooled);",
            "read(published); read(forwarded);",
        ));
        let cs = sources(&src, PROTOCOL_OK, CLI_OK);
        let out = check(&cs);
        assert!(
            out.iter().any(|f| f
                .message
                .contains("`spooled` is missing from `decode_wire`")),
            "{out:?}"
        );
    }

    #[test]
    fn raw_counter_reads_in_stats_arm_are_flagged() {
        let protocol = "\
            fn decode(tag: u8, buf: &mut Bytes) { match FrameTag::from_byte(tag) {\n\
                Some(FrameTag::Stats) => { let published = buf.get_u64_le(); \
                let forwarded = buf.get_u64_le(); Stats { published, forwarded } }\n\
                None => (),\n\
            } }\n";
        let cs = sources(&counters_with(FULL_SURFACES), protocol, CLI_OK);
        let out = check(&cs);
        assert!(
            out.iter()
                .any(|f| f.message.contains("reads counters with raw `get_u64_le`")),
            "{out:?}"
        );
    }

    #[test]
    fn prefix_helper_in_stats_arm_is_clean() {
        let cs = sources(&counters_with(FULL_SURFACES), PROTOCOL_OK, CLI_OK);
        let out = check(&cs);
        assert!(
            !out.iter().any(|f| f.message.contains("get_u64_le")),
            "{out:?}"
        );
    }

    #[test]
    fn bypass_literal_is_flagged() {
        let protocol = format!(
            "{PROTOCOL_OK}fn rebuild() -> NodeCounters {{ \
             NodeCounters {{ published: 1, forwarded: 2, ..Default::default() }} }}\n"
        );
        let cs = sources(&counters_with(FULL_SURFACES), &protocol, CLI_OK);
        let out = check(&cs);
        assert!(
            out.iter().any(|f| f.message.contains("bypasses")),
            "{out:?}"
        );
    }

    #[test]
    fn cli_without_counter_lines_is_flagged() {
        let cs = sources(
            &counters_with(FULL_SURFACES),
            PROTOCOL_OK,
            "fn cmd_stats(c: NodeCounters) { print(c.published); }",
        );
        let out = check(&cs);
        assert!(
            out.iter().any(|f| f.message.contains("counter_lines")),
            "{out:?}"
        );
    }

    #[test]
    fn empty_registry_is_flagged() {
        let cs = sources("fn nothing() {}", PROTOCOL_OK, CLI_OK);
        let out = check(&cs);
        assert!(
            out.iter().any(|f| f.message.contains("no non-empty")),
            "{out:?}"
        );
    }
}
