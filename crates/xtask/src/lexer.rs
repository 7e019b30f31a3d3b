//! A lightweight Rust tokenizer — just enough structure for the analysis
//! pass: identifiers, punctuation, and literals with line numbers, with
//! comments and string/char literals stripped (so a `with_capacity(n)`
//! inside a string is never a finding). `// analyzer:allow(rule): reason`
//! comments are surfaced separately so the pass can honor the escape hatch.
//!
//! The container this repo builds in has no crates.io access, so the
//! analyzer cannot use `syn`; this hand-rolled front end covers the subset
//! of Rust the passes need (token kinds, brace structure, line mapping).

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (`.`, `(`, `[`, `!`, ...).
    Punct(char),
    /// A numeric, string, char, or byte literal (contents dropped).
    Literal,
    /// A lifetime such as `'a` (kept distinct so char-literal detection
    /// can't eat a lifetime).
    Lifetime,
}

/// A token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What the token is.
    pub kind: TokKind,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Whether this token is the given identifier/keyword.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// An `// analyzer:allow(rule): reason` escape-hatch comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being waived (`wire-taint`).
    pub rule: String,
    /// 1-indexed line the comment sits on.
    pub line: u32,
    /// Whether a non-empty reason was given after the colon.
    pub has_reason: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and literal contents stripped.
    pub toks: Vec<Tok>,
    /// Every `analyzer:allow` comment found, in file order.
    pub allows: Vec<Allow>,
}

impl Lexed {
    /// Whether `rule` is waived for `line`: an allow comment on the same
    /// line, or alone on the line directly above.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Tokenizes Rust source. Never fails: unterminated constructs consume to
/// end of input (a file that broken would not compile anyway, and the
/// passes run on code the build has already accepted).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
                scan_allow_comment(&src[i..end], line, &mut out.allows);
                i = end;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comments.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                i = skip_string(b, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    line: start_line,
                });
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let start_line = line;
                i = skip_raw_string(b, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    line: start_line,
                });
            }
            b'b' if b.get(i + 1) == Some(&b'"') => {
                let start_line = line;
                i = skip_string(b, i + 1, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    line: start_line,
                });
            }
            b'b' if b.get(i + 1) == Some(&b'\'') => {
                i = skip_char(b, i + 1);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    line,
                });
            }
            b'\'' => {
                // Char literal or lifetime: a lifetime is `'` + ident with
                // no closing quote right after.
                if is_char_literal(b, i) {
                    i = skip_char(b, i);
                    out.toks.push(Tok {
                        kind: TokKind::Literal,
                        line,
                    });
                } else {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // `1..2`: do not eat the range dots.
                    if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident(src[start..i].to_string()),
                    line,
                });
            }
            c => {
                out.toks.push(Tok {
                    kind: TokKind::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn scan_allow_comment(comment: &str, line: u32, allows: &mut Vec<Allow>) {
    let Some(pos) = comment.find("analyzer:allow(") else {
        return;
    };
    let rest = &comment[pos + "analyzer:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    let rule = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let has_reason = after
        .strip_prefix(':')
        .is_some_and(|r| !r.trim().is_empty());
    allows.push(Allow {
        rule,
        line,
        has_reason,
    });
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  br#"..."#
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    i += 1; // 'r'
    let mut hashes = 0;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && b.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Skips a `"..."` string starting at the opening quote index.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn is_char_literal(b: &[u8], i: usize) -> bool {
    // 'x'  '\n'  '\u{1F600}'
    match b.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => b.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

fn skip_char(b: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let lexed = lex("fn f() { /* panic! */ let s = \"unwrap()\"; } // panic!\n");
        assert!(!lexed.toks.iter().any(|t| t.is_ident("panic")));
        assert!(!lexed.toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn allow_comments_are_captured() {
        let lexed = lex("x(); // analyzer:allow(wire-taint): checked above\ny();\n");
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].rule, "wire-taint");
        assert!(lexed.allows[0].has_reason);
        assert!(lexed.allowed("wire-taint", 1));
        assert!(
            lexed.allowed("wire-taint", 2),
            "comment covers the next line"
        );
        assert!(!lexed.allowed("wire-taint", 3));
        assert!(!lexed.allowed("lock-order", 1));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        assert!(lexed.toks.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn raw_strings_and_chars() {
        let lexed = lex("let a = r#\"lock()\"#; let c = '\\n'; let d = 'x';");
        assert!(!lexed.toks.iter().any(|t| t.is_ident("lock")));
        let lits = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lits, 3);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let lexed = lex("let s = \"a\nb\";\nfn g() {}\n");
        let g = lexed.toks.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 3);
    }
}
