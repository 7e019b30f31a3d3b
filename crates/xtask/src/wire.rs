//! Pass 3: wire-protocol exhaustiveness.
//!
//! The single source of truth for frame tags is `FrameTag` in
//! `crates/types/src/wire.rs`. Every variant must be (a) bound to a tag
//! const in `crates/broker/src/protocol.rs` (`const X: u8 = FrameTag::V as
//! u8;`), (b) written in an encode path (`put_u8(X)`), and (c) matched in a
//! decode path (`X =>` or an `X | Y` pattern). Separately, every variant of
//! the three protocol enums must appear in its dispatch site (`broker_core.rs`
//! for client→broker and broker→broker traffic, `client.rs` for
//! broker→client), so adding a frame without handling it fails `cargo xtask
//! check` instead of silently dropping traffic.

use crate::lexer::Tok;
use crate::source::{matching_brace, SourceFile};
use crate::Finding;

const RULE: &str = "wire-exhaustiveness";

/// The four files pass 3 cross-references.
pub struct WireSources {
    /// `crates/types/src/wire.rs` — declares `FrameTag`.
    pub wire: SourceFile,
    /// `crates/broker/src/protocol.rs` — tag consts, encode, decode.
    pub protocol: SourceFile,
    /// `crates/broker/src/broker_core.rs` — dispatches `ClientToBroker` and
    /// `BrokerToBroker`.
    pub broker: SourceFile,
    /// `crates/broker/src/client.rs` — dispatches `BrokerToClient`.
    pub client: SourceFile,
}

/// Runs the exhaustiveness pass.
pub fn check(ws: &WireSources) -> Vec<Finding> {
    let mut findings = Vec::new();

    let tags = enum_variants(ws.wire.toks(), "FrameTag");
    if tags.is_empty() {
        findings.push(Finding {
            file: ws.wire.path.clone(),
            line: 1,
            rule: RULE.into(),
            message: "no `enum FrameTag` found in the wire module".into(),
        });
        return findings;
    }

    // (a) every FrameTag variant is bound to a tag const in protocol.rs.
    let consts = tag_consts(ws.protocol.toks());
    for (variant, line) in &tags {
        let Some((const_name, _)) = consts.iter().find(|(_, v)| v == variant) else {
            findings.push(Finding {
                file: ws.wire.path.clone(),
                line: *line,
                rule: RULE.into(),
                message: format!(
                    "FrameTag::{variant} has no `const X: u8 = FrameTag::{variant} as u8` \
                     binding in protocol.rs"
                ),
            });
            continue;
        };
        // (b) encoded: `put_u8(CONST)` somewhere in protocol.rs.
        if !is_encoded(ws.protocol.toks(), const_name) {
            findings.push(Finding {
                file: ws.protocol.path.clone(),
                line: *line,
                rule: RULE.into(),
                message: format!(
                    "tag `{const_name}` (FrameTag::{variant}) is never encoded via put_u8"
                ),
            });
        }
        // (c) decoded: the const appears in a match-arm pattern.
        if !is_decoded(ws.protocol.toks(), const_name) {
            findings.push(Finding {
                file: ws.protocol.path.clone(),
                line: *line,
                rule: RULE.into(),
                message: format!(
                    "tag `{const_name}` (FrameTag::{variant}) never appears in a decode match arm"
                ),
            });
        }
    }

    // The Stats decode arm's counter-layout rule moved to the
    // `counter-registry` pass (`counters.rs`), which generalizes it: the
    // whole counter chain must come from the `broker_counters!` registry.

    // Dispatch coverage: every protocol-enum variant is named at its
    // dispatch site.
    let dispatch: [(&str, &SourceFile); 3] = [
        ("ClientToBroker", &ws.broker),
        ("BrokerToBroker", &ws.broker),
        ("BrokerToClient", &ws.client),
    ];
    for (enum_name, site) in dispatch {
        let variants = enum_variants(ws.protocol.toks(), enum_name);
        if variants.is_empty() {
            findings.push(Finding {
                file: ws.protocol.path.clone(),
                line: 1,
                rule: RULE.into(),
                message: format!("no `enum {enum_name}` found in protocol.rs"),
            });
            continue;
        }
        for (variant, line) in variants {
            if !has_path(site.toks(), enum_name, &variant) {
                findings.push(Finding {
                    file: ws.protocol.path.clone(),
                    line,
                    rule: RULE.into(),
                    message: format!(
                        "{enum_name}::{variant} is never dispatched in {}",
                        site.path
                    ),
                });
            }
        }
    }
    findings
}

/// Variant names (with declaration lines) of `enum name { ... }`.
fn enum_variants(toks: &[Tok], name: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("enum") || !toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            continue;
        }
        let Some(open) = (i + 2..toks.len()).find(|&j| toks[j].is_punct('{')) else {
            return out;
        };
        let close = matching_brace(toks, open);
        let mut expecting = true; // next ident at depth 1 starts a variant
        let mut depth = 0usize;
        let mut j = open;
        while j <= close {
            let t = &toks[j];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 1 {
                if t.is_punct(',') {
                    expecting = true;
                } else if t.is_punct('#') {
                    // Attribute on the variant: skip `#[...]`.
                    if toks.get(j + 1).is_some_and(|n| n.is_punct('[')) {
                        let mut d = 0usize;
                        let mut k = j + 1;
                        while k <= close {
                            if toks[k].is_punct('[') {
                                d += 1;
                            } else if toks[k].is_punct(']') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        j = k;
                    }
                } else if expecting {
                    if let Some(v) = t.ident() {
                        out.push((v.to_string(), t.line));
                        expecting = false;
                    }
                }
            }
            j += 1;
        }
        return out;
    }
    out
}

/// `const NAME: u8 = FrameTag::Variant as u8;` bindings: `(NAME, Variant)`.
pub(crate) fn tag_consts(toks: &[Tok]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        // Scan the initializer up to `;` for `FrameTag :: Variant`.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct(';') {
            if toks[j].is_ident("FrameTag")
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(v) = toks.get(j + 3).and_then(|t| t.ident()) {
                    out.push((name.to_string(), v.to_string()));
                }
                break;
            }
            j += 1;
        }
    }
    out
}

fn is_encoded(toks: &[Tok], const_name: &str) -> bool {
    (0..toks.len().saturating_sub(3)).any(|i| {
        toks[i].is_ident("put_u8")
            && toks[i + 1].is_punct('(')
            && toks[i + 2].is_ident(const_name)
            && toks[i + 3].is_punct(')')
    })
}

fn is_decoded(toks: &[Tok], const_name: &str) -> bool {
    (0..toks.len()).any(|i| {
        toks[i].is_ident(const_name)
            && (
                // `CONST =>` match arm
                (toks.get(i + 1).is_some_and(|t| t.is_punct('='))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('>')))
                // `CONST | OTHER =>` or `OTHER | CONST` or-pattern
                || toks.get(i + 1).is_some_and(|t| t.is_punct('|'))
                || (i > 0 && toks[i - 1].is_punct('|'))
            )
    })
}

/// The token index one past a match arm's body, given the index of the
/// first body token (right after the `=>`). A block arm (`CONST => {
/// ... }`) ends at its matching brace — block arms need no trailing comma,
/// so scanning on to the next `,` would bleed into the following arm. An
/// expression arm ends at the first `,` (or the match's closing `}`) at
/// its own depth.
pub(crate) fn arm_end(toks: &[Tok], start: usize) -> usize {
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

/// If the match arm `CONST => ...` contains the ident `needle`, the line of
/// its first occurrence. Idents named `needle` defined *outside* the arm
/// (e.g. inside a helper function the arm calls) are not seen — which is
/// exactly the escape hatch the counter-registry rule wants callers to
/// take.
pub(crate) fn ident_in_decode_arm(toks: &[Tok], const_name: &str, needle: &str) -> Option<u32> {
    for i in 0..toks.len() {
        if !(toks[i].is_ident(const_name)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('>')))
        {
            continue;
        }
        let start = i + 3;
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

/// Whether `Enum::Variant` appears anywhere in the token stream.
fn has_path(toks: &[Tok], enum_name: &str, variant: &str) -> bool {
    (0..toks.len().saturating_sub(3)).any(|i| {
        toks[i].is_ident(enum_name)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident(variant)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn sources(wire: &str, protocol: &str, broker: &str, client: &str) -> WireSources {
        WireSources {
            wire: SourceFile::parse("wire.rs", wire),
            protocol: SourceFile::parse("protocol.rs", protocol),
            broker: SourceFile::parse("broker.rs", broker),
            client: SourceFile::parse("client.rs", client),
        }
    }

    const WIRE: &str = "#[repr(u8)]\npub enum FrameTag { Ping = 0x01, Pong = 0x02 }";
    const PROTOCOL_OK: &str = "\
        const T_PING: u8 = FrameTag::Ping as u8;\n\
        const T_PONG: u8 = FrameTag::Pong as u8;\n\
        pub enum ClientToBroker { Ping }\n\
        pub enum BrokerToBroker { Pong }\n\
        pub enum BrokerToClient { Pong }\n\
        fn encode(out: &mut Vec<u8>) { out.put_u8(T_PING); out.put_u8(T_PONG); }\n\
        fn decode(tag: u8) { match tag { T_PING => (), T_PONG => (), _ => () } }\n";

    #[test]
    fn fully_covered_protocol_is_clean() {
        let ws = sources(
            WIRE,
            PROTOCOL_OK,
            "fn dispatch() { ClientToBroker::Ping; BrokerToBroker::Pong; }",
            "fn dispatch() { BrokerToClient::Pong; }",
        );
        let out = check(&ws);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unbound_unencoded_undecode_variants_are_flagged() {
        let protocol = "\
            const T_PING: u8 = FrameTag::Ping as u8;\n\
            pub enum ClientToBroker { Ping }\n\
            pub enum BrokerToBroker { Pong }\n\
            pub enum BrokerToClient { Pong }\n\
            fn decode(tag: u8) { match tag { T_PING => (), _ => () } }\n";
        let ws = sources(
            WIRE,
            protocol,
            "fn dispatch() { ClientToBroker::Ping; BrokerToBroker::Pong; }",
            "fn dispatch() { BrokerToClient::Pong; }",
        );
        let out = check(&ws);
        // Pong has no const; Ping's const is decoded but never encoded.
        assert!(
            out.iter()
                .any(|f| f.message.contains("FrameTag::Pong has no")),
            "{out:?}"
        );
        assert!(
            out.iter().any(|f| f.message.contains("never encoded")),
            "{out:?}"
        );
    }

    #[test]
    fn missing_dispatch_is_flagged() {
        let ws = sources(
            WIRE,
            PROTOCOL_OK,
            "fn dispatch() { ClientToBroker::Ping; }",
            "fn dispatch() { BrokerToClient::Pong; }",
        );
        let out = check(&ws);
        assert!(
            out.iter().any(|f| f
                .message
                .contains("BrokerToBroker::Pong is never dispatched")),
            "{out:?}"
        );
    }

    #[test]
    fn or_pattern_counts_as_decoded() {
        let toks = SourceFile::parse("m", "match t { A | B => (), _ => () }");
        assert!(is_decoded(toks.toks(), "A"));
        assert!(is_decoded(toks.toks(), "B"));
        assert!(!is_decoded(toks.toks(), "C"));
    }
}
