//! Textual subscription language.
//!
//! Clients subscribe "by ... providing subscription information which
//! includes a predicate expression of event attributes" (§4.2). The concrete
//! grammar accepted here:
//!
//! ```text
//! predicate := '(' conjunction ')' | conjunction
//! conjunction := term ('&' term)*
//! term := ident op literal
//!       | ident 'between' literal 'and' literal
//!       | ident '=' '*'
//! op := '=' | '==' | '<' | '<=' | '>' | '>='
//! literal := '"' chars '"' | number | 'true' | 'false'
//! ```
//!
//! Number literals are typed by the attribute they are compared against: an
//! `integer` attribute takes whole numbers, a `dollar` attribute takes
//! `120`, `119.5`, or `119.50` (at most two decimal places).

// Parses text a client sent, on the broker's engine thread: the shipped
// code neither unwraps nor indexes nor panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::borrow::Cow;
use std::fmt;

use crate::{AttrTest, Error, EventSchema, Predicate, Result, Value, ValueKind};

/// Error produced when a predicate expression fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePredicateError {
    position: usize,
    message: String,
}

impl ParsePredicateError {
    /// Creates a parse error at a byte offset in the input.
    pub fn new(position: usize, message: impl Into<String>) -> Self {
        Self {
            position,
            message: message.into(),
        }
    }

    /// Byte offset in the input where the error was detected.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParsePredicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "predicate parse error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParsePredicateError {}

/// Parses a subscription predicate expression against a schema.
///
/// # Example
///
/// ```
/// use linkcast_types::{EventSchema, ValueKind, parse_predicate};
///
/// # fn main() -> Result<(), linkcast_types::Error> {
/// let schema = EventSchema::builder("trades")
///     .attribute("issue", ValueKind::Str)
///     .attribute("price", ValueKind::Dollar)
///     .attribute("volume", ValueKind::Int)
///     .build()?;
/// let p = parse_predicate(&schema, r#"(issue = "IBM" & price < 120 & volume > 1000)"#)?;
/// assert_eq!(p.non_wildcard_count(), 3);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`Error::ParsePredicate`] for syntax errors,
/// [`Error::UnknownAttribute`] for attributes not in the schema,
/// [`Error::SchemaMismatch`] for mistyped literals, and
/// [`Error::UnsupportedOperator`] for ordered comparisons on booleans.
pub fn parse_predicate(schema: &EventSchema, input: &str) -> Result<Predicate> {
    let mut parser = Parser {
        schema,
        lexer: Lexer::new(input),
        tests: vec![AttrTest::Any; schema.arity()],
    };
    parser.parse()?;
    Predicate::from_tests(schema, parser.tests)
}

/// Parses one literal of `kind`, the whole of `text` but for surrounding
/// whitespace, in the predicate grammar's syntax: a double-quoted string
/// (`\"` and `\\` escapes), an integer, a dollar amount with at most
/// two decimals (in cents), `true` or `false`.
///
/// ```
/// use linkcast_types::{parse_literal, Value, ValueKind};
///
/// assert_eq!(parse_literal(ValueKind::Dollar, "119.5").unwrap(), Value::Dollar(11950));
/// assert!(parse_literal(ValueKind::Dollar, "92233720368547759").is_err());
/// ```
///
/// # Errors
///
/// A [`ParsePredicateError`] for anything else, a value out of `i64`'s
/// range included.
pub fn parse_literal(kind: ValueKind, text: &str) -> Result<Value, ParsePredicateError> {
    let mut lexer = Lexer::new(text);
    let (pos, tok) = lexer.next()?;
    let value = literal(kind, pos, tok)?;
    match lexer.next()? {
        (_, Token::Eof) => Ok(value),
        (pos, other) => Err(ParsePredicateError::new(
            pos,
            format!("unexpected {} after the literal", other.describe()),
        )),
    }
}

/// Tokens borrow from the input; only a string literal with escapes owns
/// its (unescaped) text.
#[derive(Debug, Clone, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Str(Cow<'a, str>),
    Number(&'a str),
    Op(&'static str),
    LParen,
    RParen,
    Amp,
    Star,
    Eof,
}

impl Token<'_> {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier `{s}`"),
            Token::Str(s) => format!("string {s:?}"),
            Token::Number(s) => format!("number `{s}`"),
            Token::Op(op) => format!("operator `{op}`"),
            Token::LParen => "`(`".to_string(),
            Token::RParen => "`)`".to_string(),
            Token::Amp => "`&`".to_string(),
            Token::Star => "`*`".to_string(),
            Token::Eof => "end of input".to_string(),
        }
    }
}

struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    /// The input from `start` up to the scan position.
    #[expect(
        clippy::string_slice,
        reason = "ASCII byte-scan bounds: start and pos are always char-aligned and <= len"
    )]
    fn text(&self, start: usize) -> &'a str {
        &self.input[start..self.pos]
    }

    fn next(&mut self) -> Result<(usize, Token<'a>), ParsePredicateError> {
        self.skip_ws();
        let start = self.pos;
        let c = match self.bytes.get(self.pos) {
            None => return Ok((start, Token::Eof)),
            Some(&c) => c,
        };
        match c {
            b'(' => {
                self.pos += 1;
                Ok((start, Token::LParen))
            }
            b')' => {
                self.pos += 1;
                Ok((start, Token::RParen))
            }
            b'&' => {
                self.pos += 1;
                // Tolerate `&&` as a synonym for `&`.
                if self.bytes.get(self.pos) == Some(&b'&') {
                    self.pos += 1;
                }
                Ok((start, Token::Amp))
            }
            b'*' => {
                self.pos += 1;
                Ok((start, Token::Star))
            }
            b'=' => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                }
                Ok((start, Token::Op("=")))
            }
            b'<' => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Ok((start, Token::Op("<=")))
                } else {
                    Ok((start, Token::Op("<")))
                }
            }
            b'>' => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Ok((start, Token::Op(">=")))
                } else {
                    Ok((start, Token::Op(">")))
                }
            }
            b'"' => {
                self.pos += 1;
                let text_start = self.pos;
                // The unescaped text, from the first escape on; until then
                // the literal is the input between the quotes.
                let mut unescaped: Option<String> = None;
                let text = loop {
                    match self.bytes.get(self.pos) {
                        None => {
                            return Err(ParsePredicateError::new(
                                start,
                                "unterminated string literal",
                            ))
                        }
                        Some(b'"') => {
                            let text = match unescaped {
                                Some(out) => Cow::Owned(out),
                                None => Cow::Borrowed(self.text(text_start)),
                            };
                            self.pos += 1;
                            break text;
                        }
                        Some(b'\\') => {
                            let out =
                                unescaped.get_or_insert_with(|| self.text(text_start).to_string());
                            self.pos += 1;
                            match self.bytes.get(self.pos) {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                _ => {
                                    return Err(ParsePredicateError::new(
                                        self.pos,
                                        "invalid escape in string literal",
                                    ))
                                }
                            }
                            self.pos += 1;
                        }
                        Some(_) => {
                            // Advance over one UTF-8 character. `pos` is
                            // always char-aligned, but route the impossible
                            // misalignment to a parse error anyway rather
                            // than panic on untrusted input.
                            let Some(ch) =
                                self.input.get(self.pos..).and_then(|r| r.chars().next())
                            else {
                                return Err(ParsePredicateError::new(
                                    self.pos,
                                    "malformed UTF-8 in string literal",
                                ));
                            };
                            if let Some(out) = &mut unescaped {
                                out.push(ch);
                            }
                            self.pos += ch.len_utf8();
                        }
                    }
                };
                Ok((start, Token::Str(text)))
            }
            b'0'..=b'9' | b'-' => {
                self.pos += 1;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
                {
                    self.pos += 1;
                }
                Ok((start, Token::Number(self.text(start))))
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                self.pos += 1;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    self.pos += 1;
                }
                Ok((start, Token::Ident(self.text(start))))
            }
            other => Err(ParsePredicateError::new(
                start,
                format!("unexpected character `{}`", other as char),
            )),
        }
    }
}

struct Parser<'a> {
    schema: &'a EventSchema,
    lexer: Lexer<'a>,
    tests: Vec<AttrTest>,
}

impl<'a> Parser<'a> {
    fn parse(&mut self) -> Result<()> {
        let (pos, tok) = self.lexer.next().map_err(Error::ParsePredicate)?;
        let (outer_paren, first) = if tok == Token::LParen {
            (true, self.lexer.next().map_err(Error::ParsePredicate)?)
        } else {
            (false, (pos, tok))
        };
        self.term(first)?;
        loop {
            let (pos, tok) = self.lexer.next().map_err(Error::ParsePredicate)?;
            match tok {
                Token::Amp => {
                    let next = self.lexer.next().map_err(Error::ParsePredicate)?;
                    self.term(next)?;
                }
                Token::RParen if outer_paren => {
                    let (pos, tok) = self.lexer.next().map_err(Error::ParsePredicate)?;
                    if tok != Token::Eof {
                        return Err(Error::ParsePredicate(ParsePredicateError::new(
                            pos,
                            format!("expected end of input, found {}", tok.describe()),
                        )));
                    }
                    return Ok(());
                }
                Token::Eof if !outer_paren => return Ok(()),
                other => {
                    return Err(Error::ParsePredicate(ParsePredicateError::new(
                        pos,
                        format!("expected `&`, found {}", other.describe()),
                    )))
                }
            }
        }
    }

    fn term(&mut self, first: (usize, Token<'a>)) -> Result<()> {
        let (pos, tok) = first;
        let name = match tok {
            Token::Ident(name) => name,
            other => {
                return Err(Error::ParsePredicate(ParsePredicateError::new(
                    pos,
                    format!("expected attribute name, found {}", other.describe()),
                )))
            }
        };
        let index = self
            .schema
            .attribute_index(name)
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))?;
        let kind = self
            .schema
            .attribute(index)
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))?
            .kind();

        let (op_pos, op_tok) = self.lexer.next().map_err(Error::ParsePredicate)?;
        let test = match op_tok {
            Token::Op(op) => {
                let (lit_pos, lit_tok) = self.lexer.next().map_err(Error::ParsePredicate)?;
                if op == "=" && lit_tok == Token::Star {
                    AttrTest::Any
                } else {
                    let value = literal(kind, lit_pos, lit_tok)?;
                    match op {
                        "=" => AttrTest::Eq(value),
                        "<" => AttrTest::Lt(value),
                        "<=" => AttrTest::Le(value),
                        ">" => AttrTest::Gt(value),
                        ">=" => AttrTest::Ge(value),
                        other => {
                            // The lexer only produces the operators above;
                            // fail as a parse error rather than panic.
                            return Err(Error::ParsePredicate(ParsePredicateError::new(
                                op_pos,
                                format!("unsupported operator `{other}`"),
                            )));
                        }
                    }
                }
            }
            Token::Ident("between") => {
                let (p1, t1) = self.lexer.next().map_err(Error::ParsePredicate)?;
                let lo = literal(kind, p1, t1)?;
                let (p2, t2) = self.lexer.next().map_err(Error::ParsePredicate)?;
                match t2 {
                    Token::Ident("and") => {}
                    other => {
                        return Err(Error::ParsePredicate(ParsePredicateError::new(
                            p2,
                            format!("expected `and`, found {}", other.describe()),
                        )))
                    }
                }
                let (p3, t3) = self.lexer.next().map_err(Error::ParsePredicate)?;
                let hi = literal(kind, p3, t3)?;
                AttrTest::Between(lo, hi)
            }
            other => {
                return Err(Error::ParsePredicate(ParsePredicateError::new(
                    op_pos,
                    format!("expected comparison operator, found {}", other.describe()),
                )))
            }
        };
        let attr = self
            .schema
            .attribute(index)
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))?;
        test.check_kind(attr.name(), attr.kind())?;
        match self.tests.get_mut(index) {
            Some(slot) => *slot = test,
            None => return Err(Error::UnknownAttribute(name.to_string())),
        }
        Ok(())
    }
}

/// The literal of `kind` that token `tok`, at `pos`, spells.
fn literal(kind: ValueKind, pos: usize, tok: Token<'_>) -> Result<Value, ParsePredicateError> {
    let value = match (kind, tok) {
        (ValueKind::Str, Token::Str(s)) => Ok(Value::str(s)),
        (ValueKind::Int, Token::Number(n)) => {
            (n.parse().map(Value::Int)).map_err(|_| format!("`{n}` is not a valid integer"))
        }
        (ValueKind::Dollar, Token::Number(n)) => parse_dollar(n),
        (ValueKind::Bool, Token::Ident("true")) => Ok(Value::Bool(true)),
        (ValueKind::Bool, Token::Ident("false")) => Ok(Value::Bool(false)),
        (kind, other) => Err(format!(
            "expected {kind} literal, found {}",
            other.describe()
        )),
    };
    value.map_err(|msg| ParsePredicateError::new(pos, msg))
}

/// Parses `120`, `119.5`, or `119.50` into cents; an amount whose cents
/// overflow `i64` is an error.
fn parse_dollar(text: &str) -> Result<Value, String> {
    let digits = text.strip_prefix('-').unwrap_or(text);
    let (whole, frac) = digits.split_once('.').unwrap_or((digits, ""));
    if frac.len() > 2 {
        return Err(format!(
            "`{text}` has more than two decimal places in a dollar amount"
        ));
    }
    let is_digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    if whole.is_empty() || !is_digits(whole) || !is_digits(frac) {
        return Err(format!("`{text}` is not a valid dollar amount"));
    }
    // The fraction right-padded to two digits: `.5` is 50 cents.
    let frac = (frac.bytes().chain(*b"00").take(2)).fold(0, |c, b| c * 10 + i64::from(b - b'0'));
    let cents = (whole.parse::<i64>().ok()).and_then(|w| w.checked_mul(100)?.checked_add(frac));
    let cents = cents.ok_or_else(|| format!("`{text}` is out of range for a dollar amount"))?;
    Ok(Value::Dollar(if digits.len() < text.len() {
        -cents
    } else {
        cents
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn trades() -> EventSchema {
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .attribute("urgent", ValueKind::Bool)
            .build()
            .unwrap()
    }

    #[test]
    fn parses_paper_example() {
        let p =
            parse_predicate(&trades(), r#"(issue="IBM" & price < 120 & volume > 1000)"#).unwrap();
        assert_eq!(p.test(0), Some(&AttrTest::Eq(Value::str("IBM"))));
        assert_eq!(p.test(1), Some(&AttrTest::Lt(Value::Dollar(12000))));
        assert_eq!(p.test(2), Some(&AttrTest::Gt(Value::Int(1000))));
        assert_eq!(p.test(3), Some(&AttrTest::Any));
    }

    #[test]
    fn parses_without_parentheses() {
        let p = parse_predicate(&trades(), r#"volume >= 500"#).unwrap();
        assert_eq!(p.test(2), Some(&AttrTest::Ge(Value::Int(500))));
    }

    #[test]
    fn parses_dollar_forms() {
        for (text, cents) in [
            ("price < 120", 12000),
            ("price < 120.5", 12050),
            ("price < 120.50", 12050),
            ("price < 0.07", 7),
            ("price < -3.25", -325),
        ] {
            let p = parse_predicate(&trades(), text).unwrap();
            assert_eq!(
                p.test(1),
                Some(&AttrTest::Lt(Value::Dollar(cents))),
                "{text}"
            );
        }
    }

    #[test]
    fn rejects_three_decimal_places() {
        let err = parse_predicate(&trades(), "price < 1.005").unwrap_err();
        assert!(err.to_string().contains("decimal places"), "{err}");
    }

    #[test]
    fn dollar_amounts_beyond_i64_cents_are_errors() {
        // 92233720368547759 dollars is i64::MAX / 100 + 1: its cents
        // overflow, which once wrapped to a negative amount.
        for text in ["price > 92233720368547759", "price > -92233720368547759"] {
            let err = parse_predicate(&trades(), text).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{text}: {err}");
        }
        let max = parse_literal(ValueKind::Dollar, "92233720368547758.07").unwrap();
        assert_eq!(max, Value::Dollar(i64::MAX));
        assert!(parse_literal(ValueKind::Dollar, "92233720368547758.08").is_err());
    }

    #[test]
    fn literals_stand_alone() {
        assert_eq!(
            parse_literal(ValueKind::Str, r#" "A\"B" "#).unwrap(),
            Value::str("A\"B")
        );
        for (kind, text, needle) in [
            (ValueKind::Str, "X", "expected string literal"),
            (ValueKind::Int, "1 2", "after the literal"),
            (ValueKind::Bool, "", "end of input"),
        ] {
            let err = parse_literal(kind, text).unwrap_err().to_string();
            assert!(
                err.contains(needle),
                "`{text}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn parses_between() {
        let p = parse_predicate(&trades(), "price between 100 and 120").unwrap();
        assert_eq!(
            p.test(1),
            Some(&AttrTest::Between(
                Value::Dollar(10000),
                Value::Dollar(12000)
            ))
        );
    }

    #[test]
    fn parses_booleans_and_star() {
        let p = parse_predicate(&trades(), "urgent = true & issue = *").unwrap();
        assert_eq!(p.test(3), Some(&AttrTest::Eq(Value::Bool(true))));
        assert_eq!(p.test(0), Some(&AttrTest::Any));
    }

    #[test]
    fn double_equals_and_double_amp_are_tolerated() {
        let p = parse_predicate(&trades(), r#"issue == "IBM" && volume > 1"#).unwrap();
        assert_eq!(p.non_wildcard_count(), 2);
    }

    #[test]
    fn unknown_attribute_is_reported() {
        let err = parse_predicate(&trades(), "ticker = \"IBM\"").unwrap_err();
        assert!(matches!(err, Error::UnknownAttribute(_)));
    }

    #[test]
    fn type_errors_are_reported() {
        let err = parse_predicate(&trades(), "issue = 5").unwrap_err();
        assert!(matches!(err, Error::ParsePredicate(_)));
        let err = parse_predicate(&trades(), "urgent < true").unwrap_err();
        assert!(
            err.to_string().contains("expected boolean literal")
                || matches!(err, Error::UnsupportedOperator { .. }),
            "{err}"
        );
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let err = parse_predicate(&trades(), "issue = ").unwrap_err();
        match err {
            Error::ParsePredicate(e) => {
                assert!(e.position() >= 8, "position {}", e.position());
                assert!(!e.message().is_empty());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unbalanced_paren_is_rejected() {
        assert!(parse_predicate(&trades(), "(volume > 1").is_err());
        assert!(parse_predicate(&trades(), "volume > 1)").is_err());
        assert!(parse_predicate(&trades(), "(volume > 1) x").is_err());
    }

    #[test]
    fn string_escapes() {
        let p = parse_predicate(&trades(), r#"issue = "A\"B\\C""#).unwrap();
        assert_eq!(p.test(0), Some(&AttrTest::Eq(Value::str("A\"B\\C"))));
        assert!(parse_predicate(&trades(), r#"issue = "unterminated"#).is_err());
        assert!(parse_predicate(&trades(), r#"issue = "bad \x""#).is_err());
    }

    #[test]
    fn duplicate_attribute_keeps_last_test() {
        // The grammar is a conjunction of per-attribute tests; a repeated
        // attribute overwrites (documented behaviour, simplest semantics).
        let p = parse_predicate(&trades(), "volume > 1 & volume > 10").unwrap();
        assert_eq!(p.test(2), Some(&AttrTest::Gt(Value::Int(10))));
    }

    #[test]
    fn parsed_predicate_matches_events() {
        let schema = trades();
        let p =
            parse_predicate(&schema, r#"(issue="IBM" & price < 120.00 & volume > 1000)"#).unwrap();
        let hit = Event::from_values(
            &schema,
            [
                Value::str("IBM"),
                Value::dollar(119, 99),
                Value::Int(1001),
                Value::Bool(false),
            ],
        )
        .unwrap();
        let miss = Event::from_values(
            &schema,
            [
                Value::str("HP"),
                Value::dollar(119, 99),
                Value::Int(1001),
                Value::Bool(false),
            ],
        )
        .unwrap();
        assert!(p.matches(&hit));
        assert!(!p.matches(&miss));
    }
}
