//! Pass: `sim-determinism` — the code the simulator steps must stay
//! deterministic.
//!
//! The simulator replays seed-derived schedules over the real broker core;
//! its whole value is that a failing seed reproduces byte-for-byte. A
//! wall-clock read or OS randomness inside the core silently breaks that
//! contract — and the replay test only notices one that changes what the
//! core sends — so `link.rs` and `broker_core.rs` may not call them from
//! non-test code: they are handed `now`. A site that must read the clock
//! says why in an allow comment for this rule (the fixture has one).

use crate::source::SourceFile;
use crate::Finding;

const RULE: &str = "sim-determinism";

/// Idents that read OS entropy or the wall clock on their own.
const FORBIDDEN_IDENTS: &[(&str, &str)] = &[
    ("SystemTime", "wall-clock read"),
    ("thread_rng", "OS-seeded RNG"),
    ("from_entropy", "OS-seeded RNG"),
    ("OsRng", "OS entropy source"),
    ("getrandom", "OS entropy source"),
];

/// Runs the determinism pass over one simulation-substrate file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let toks = file.toks();
    let mut findings = Vec::new();
    let mut flag = |line: u32, what: &str, detail: &str| {
        if !file.lexed.allowed(RULE, line) {
            findings.push(Finding {
                file: file.path.clone(),
                line,
                rule: RULE.into(),
                message: format!(
                    "{what} (`{detail}`) in the simulation substrate — schedules must \
                     derive from the seed; annotate pacing-only sites with \
                     analyzer:allow({RULE})"
                ),
            });
        }
    };
    for i in 0..toks.len() {
        if file.in_test(i) {
            continue;
        }
        let Some(id) = toks[i].ident() else { continue };
        if let Some((_, what)) = FORBIDDEN_IDENTS.iter().find(|(n, _)| *n == id) {
            flag(toks[i].line, what, id);
            continue;
        }
        // `Instant::now()` — wall-clock read via the monotonic clock.
        if id == "Instant"
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            flag(toks[i].line, "wall-clock read", "Instant::now");
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("mem.rs", src))
    }

    #[test]
    fn wall_clock_and_entropy_are_flagged() {
        let out = run(
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); \
             let mut rng = thread_rng(); }",
        );
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn allow_comment_suppresses() {
        let out = run("fn f() {\n\
             // analyzer:allow(sim-determinism): pacing only; ordering stays seed-derived\n\
             let t = Instant::now(); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn seeded_rng_and_instant_values_are_clean() {
        let out = run("fn f(rng: &mut StdRng, deadline: Instant) { \
             let x = rng.gen_range(0..4); let late = now >= deadline; }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let out = run("#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }");
        assert!(out.is_empty(), "{out:?}");
    }
}
