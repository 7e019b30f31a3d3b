//! `cargo xtask` — purpose-built static analysis for the linkcast
//! workspace.
//!
//! ```text
//! cargo xtask check                    # run the pass against the repo
//! cargo xtask check --format=json     # machine-readable findings
//! cargo xtask check --format=github   # GitHub Actions error annotations
//! cargo xtask selftest                 # run the pass against its fixture
//! ```
//!
//! One pass (DESIGN.md §13): wire-taint tracking of untrusted decoder reads
//! to allocation and cursor sinks, which no compiler lint can check. What
//! one can is left to rustc and clippy (DESIGN.md §9): the broker crate
//! and the hot core and types modules deny clippy's panic lints
//! (`unwrap_used`, `indexing_slicing`, `panic`, …); every frame tag is
//! decoded and every message dispatched by a match with no wildcard arm;
//! `NodeCounters`'s fields are private to the `broker_counters!` registry;
//! every lock in the broker is a private field of one leaf type and any
//! other fails `clippy::disallowed_types`; and the broker's protocol
//! modules read no clock, by `clippy::disallowed_methods`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod lexer;
mod source;
mod taint;

use source::SourceFile;

/// One analyzer diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Rule id (`wire-taint`, `allow-without-reason`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Types modules on the decode path: everything here runs against bytes an
/// unauthenticated peer controls, so it gets the wire-taint pass.
const HOT_TYPES_MODULES: &[&str] = &["crates/types/src/wire.rs", "crates/types/src/parser.rs"];

/// Broker modules that size or index by bytes they did not write: held to
/// the wire-taint rule.
const TAINT_MODULES: &[&str] = &["protocol.rs", "transport.rs", "storage.rs", "repair.rs"];

/// Output format for `check` findings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut mode = String::from("check");
    let mut format = Format::Text;
    for arg in std::env::args().skip(1) {
        if let Some(f) = arg.strip_prefix("--format=") {
            format = match f {
                "text" => Format::Text,
                "json" => Format::Json,
                "github" => Format::Github,
                other => {
                    eprintln!("unknown format `{other}` (expected text, json, or github)");
                    return ExitCode::FAILURE;
                }
            };
        } else {
            mode = arg;
        }
    }
    let root = workspace_root();
    match mode.as_str() {
        "check" => match run_check(&root) {
            Ok(findings) => {
                emit(&findings, format);
                if findings.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("xtask check: {e}");
                ExitCode::FAILURE
            }
        },
        "selftest" => match run_selftest(&root) {
            Ok(()) => {
                println!("xtask selftest: all fixtures behave as expected");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask selftest: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("unknown mode `{other}` (expected `check` or `selftest`)");
            ExitCode::FAILURE
        }
    }
}

/// Prints findings in the selected format. Text and github formats end
/// with a summary line; json is a bare array so CI tooling can consume it
/// without scraping.
fn emit(findings: &[Finding], format: Format) {
    match format {
        Format::Text => {
            if findings.is_empty() {
                println!("xtask check: all passes clean");
                return;
            }
            for f in findings {
                println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            }
            println!("xtask check: {} finding(s)", findings.len());
        }
        Format::Json => {
            let mut out = String::from("[");
            for (i, f) in findings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                    json_str(&f.file),
                    f.line,
                    json_str(&f.rule),
                    json_str(&f.message)
                ));
            }
            out.push(']');
            println!("{out}");
        }
        Format::Github => {
            // https://docs.github.com/actions/reference/workflow-commands
            for f in findings {
                println!(
                    "::error file={},line={},title={}::{}",
                    gh_prop(&f.file),
                    f.line,
                    gh_prop(&f.rule),
                    gh_msg(&f.message)
                );
            }
            println!("xtask check: {} finding(s)", findings.len());
        }
    }
}

/// Minimal JSON string encoder (the findings are ASCII, but stay correct
/// for anything the passes might quote from source).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escapes a workflow-command message (data part).
fn gh_msg(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property value.
fn gh_prop(s: &str) -> String {
    gh_msg(s).replace(':', "%3A").replace(',', "%2C")
}

fn workspace_root() -> PathBuf {
    // crates/xtask/../.. == workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn load(root: &Path, rel: &str) -> Result<SourceFile, String> {
    let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
    Ok(SourceFile::parse(rel, &src))
}

/// Hygiene: every allow comment must carry a reason.
fn allow_hygiene(file: &SourceFile) -> Vec<Finding> {
    file.lexed
        .allows
        .iter()
        .filter(|a| !a.has_reason)
        .map(|a| Finding {
            file: file.path.clone(),
            line: a.line,
            rule: "allow-without-reason".into(),
            message: format!(
                "analyzer:allow({}) must state a reason after a colon",
                a.rule
            ),
        })
        .collect()
}

/// Runs the pass against the real workspace.
fn run_check(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();

    // Wire-taint over every file that decodes untrusted bytes —
    // the broker codec (including the LinkDown/LinkUp repair arms, whose
    // epoch and version fields arrive from peers), the frame reader (the
    // length prefix it carves by is the first thing a peer controls), the
    // WAL record decoder (a torn write leaves arbitrary garbage in the
    // length headers `recover()` reads back), the link-state table the
    // decoded statements flow into, and the types decode surface.
    let broker_files = TAINT_MODULES
        .iter()
        .map(|name| format!("crates/broker/src/{name}"));
    let files = broker_files
        .chain(HOT_TYPES_MODULES.iter().map(|rel| rel.to_string()))
        .map(|rel| load(root, &rel))
        .collect::<Result<Vec<_>, _>>()?;
    for file in &files {
        findings.extend(taint::check(file));
        findings.extend(allow_hygiene(file));
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings.dedup();
    Ok(findings)
}

/// The seeded-violation fixture must trip the pass, proving it detects
/// what it claims to — and the sanitized twins in the same fixture must
/// stay quiet, proving it does not cry wolf.
fn run_selftest(root: &Path) -> Result<(), String> {
    let fixtures = root.join("crates/xtask/fixtures");

    // The wire-taint fixture: every `tainted_*` function leaks a decoder
    // read into a sink; every `sanitized_*` twin must stay quiet.
    let src = std::fs::read_to_string(fixtures.join("taint/src.rs"))
        .map_err(|e| format!("taint fixture: {e}"))?;
    let file = SourceFile::parse("fixtures/taint/src.rs", &src);
    let found = taint::check(&file);
    expect_rule(&found, "wire-taint", "taint")?;
    for needle in [
        "allocation sized by untrusted wire value `n`",
        "allocation sized by untrusted wire value `len`",
        "loop bounded by untrusted wire value `count`",
        "`.advance()` driven by untrusted wire value `doubled`",
        "slice index derived from untrusted wire value `slot`",
        "`.split_to()` driven by untrusted wire value `wal_len`",
        "allocation sized by untrusted wire value `epoch`",
        "`.resize()` driven by untrusted wire value `frame_len`",
    ] {
        if !found.iter().any(|f| f.message.contains(needle)) {
            return Err(format!(
                "taint fixture: expected a finding containing {needle:?}, got {found:?}"
            ));
        }
    }
    if found.len() != 8 {
        return Err(format!(
            "taint fixture: expected exactly 8 findings (sanitized twins and the \
             allow-annotated sink must stay quiet), got {found:?}"
        ));
    }
    // Coverage pin: the codec decodes every frame a peer sends and the
    // frame reader carves each stream by a length prefix the peer wrote, so
    // both stay under the taint pass.
    for module in ["protocol.rs", "transport.rs"] {
        if !TAINT_MODULES.contains(&module) {
            return Err(format!("the wire-taint file set must cover {module}"));
        }
    }
    // The deliberately bare allow comment must trip the hygiene rule.
    expect_rule(&allow_hygiene(&file), "allow-without-reason", "taint")?;

    // And the real tree must be clean — the fixture proves sensitivity,
    // the repo proves specificity.
    let repo = run_check(root)?;
    if !repo.is_empty() {
        return Err(format!(
            "repo is expected to be clean but has {} finding(s): {repo:?}",
            repo.len()
        ));
    }
    Ok(())
}

fn expect_rule(found: &[Finding], rule: &str, fixture: &str) -> Result<(), String> {
    if found.iter().any(|f| f.rule == rule) {
        Ok(())
    } else {
        Err(format!(
            "{fixture} fixture: expected a `{rule}` finding, got {found:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_runs_clean_on_this_repo() {
        let findings = run_check(&workspace_root()).expect("check runs");
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn selftest_fixtures_trip_every_pass() {
        run_selftest(&workspace_root()).expect("selftest passes");
    }

    #[test]
    fn json_and_github_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(gh_msg("50% done\nnext"), "50%25 done%0Anext");
        assert_eq!(gh_prop("a:b,c"), "a%3Ab%2Cc");
    }
}
