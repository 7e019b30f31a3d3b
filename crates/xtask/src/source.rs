//! File-level structure on top of the token stream: function bodies with
//! test code (`#[cfg(test)]` modules, `#[test]` functions) masked out.

use crate::lexer::{lex, Lexed, Tok};

/// One analyzed source file.
pub struct SourceFile {
    /// Path as given (used in diagnostics).
    pub path: String,
    /// The token stream with allows.
    pub lexed: Lexed,
    /// The bodies of the functions found outside test code: token index
    /// ranges between each function's braces.
    pub functions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `src` and indexes its non-test functions.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let test_ranges = find_test_ranges(&lexed.toks);
        let functions = find_functions(&lexed.toks, &test_ranges);
        SourceFile {
            path: path.to_string(),
            lexed,
            functions,
        }
    }

    /// The tokens of the file.
    pub fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }
}

/// Finds the token index of the matching close brace for the open brace at
/// `open` (which must be a `{`). Returns the index of the `}` (or the end
/// of the stream for unbalanced input).
pub fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// Scans for `#[cfg(test)]` / `#[test]` attributes and records the token
/// range of the item that follows (through its closing brace or `;`).
fn find_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute tokens.
            let mut j = i + 2;
            let mut depth = 1;
            let mut attr = Vec::new();
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                attr.push(&toks[j]);
                j += 1;
            }
            let is_test_attr = match attr.first().and_then(|t| t.ident()) {
                Some("test") => true,
                Some("cfg") => attr.iter().any(|t| t.is_ident("test")),
                _ => false,
            };
            if is_test_attr {
                // The guarded item runs to its closing brace (mod/fn with a
                // body) or to a `;` at depth 0 (unlikely for test items).
                let mut k = j + 1;
                // Skip further attributes between this one and the item.
                while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                    k += 1;
                }
                let end = if k < toks.len() && toks[k].is_punct('{') {
                    matching_brace(toks, k) + 1
                } else {
                    k + 1
                };
                ranges.push((i, end.min(toks.len())));
                i = end;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

fn find_functions(toks: &[Tok], test_ranges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let in_test = |i: usize| test_ranges.iter().any(|&(a, b)| i >= a && i < b);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && !in_test(i) {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.ident().is_some() {
                    // The body is the first `{` after the signature; a `;`
                    // first means a trait/extern declaration without body.
                    // `;` inside brackets (an array type like
                    // `[(&'static str, u64); N]`) or parens is part of the
                    // signature, not a declaration terminator.
                    let mut j = i + 2;
                    let mut angle = 0i32;
                    let mut nest = 0i32;
                    let mut open = None;
                    while j < toks.len() {
                        match () {
                            _ if toks[j].is_punct('<') => angle += 1,
                            _ if toks[j].is_punct('>') => angle -= 1,
                            _ if toks[j].is_punct('(') || toks[j].is_punct('[') => nest += 1,
                            _ if toks[j].is_punct(')') || toks[j].is_punct(']') => nest -= 1,
                            _ if toks[j].is_punct(';') && angle <= 0 && nest <= 0 => break,
                            _ if toks[j].is_punct('{') && angle <= 0 && nest <= 0 => {
                                open = Some(j);
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(open) = open {
                        let close = matching_brace(toks, open);
                        out.push((open + 1, close));
                        // Continue scanning *inside* the body too (nested
                        // fns are indexed as their own entries; closures are
                        // analyzed as part of the enclosing body).
                        i += 2;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
fn alpha() { beta(); }

#[cfg(test)]
mod tests {
    #[test]
    fn in_mod() { x.unwrap(); }
}

#[test]
fn standalone_test() { y.unwrap(); }

fn beta() -> usize { 1 }
"#;

    /// The tokens of each indexed body.
    fn bodies(f: &SourceFile) -> Vec<&[Tok]> {
        f.functions.iter().map(|&(a, b)| &f.toks()[a..b]).collect()
    }

    #[test]
    fn test_code_is_masked() {
        let f = SourceFile::parse("mem", SRC);
        // `alpha` and `beta`; neither test function.
        assert_eq!(f.functions.len(), 2);
        for body in bodies(&f) {
            assert!(!body.iter().any(|t| t.is_ident("unwrap")));
        }
    }

    #[test]
    fn bodies_cover_the_right_tokens() {
        let f = SourceFile::parse("mem", SRC);
        let alpha = bodies(&f)[0];
        assert!(alpha.iter().any(|t| t.is_ident("beta")));
        assert!(!alpha.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn non_test_attrs_do_not_mask() {
        let f = SourceFile::parse(
            "mem",
            "#[derive(Debug)]\nstruct S;\n#[inline]\nfn hot() { work(); }\n",
        );
        assert_eq!(f.functions.len(), 1);
        assert!(bodies(&f)[0].iter().any(|t| t.is_ident("work")));
    }
}
