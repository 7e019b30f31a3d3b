//! Event literals for the command line: `issue="IBM", price=119.50,
//! volume=3000` parsed against an information-space schema.

use linkcast_types::{parse_literal, Event, EventSchema};

/// Parses a comma-separated `name=literal` list into an [`Event`]. Every
/// attribute of the schema must be assigned exactly once.
///
/// Literals are the predicate grammar's ([`parse_literal`]): strings are
/// double-quoted (`\"` and `\\` escapes), integers are plain, dollars
/// take up to two decimals, booleans are `true`/`false`.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn parse_event(schema: &EventSchema, input: &str) -> Result<Event, String> {
    let mut builder = Event::builder(schema);
    for part in split_top_level(input)? {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, literal) = part
            .split_once('=')
            .ok_or_else(|| format!("`{part}` is not `name=value`"))?;
        let name = name.trim();
        let attr = schema
            .attribute_index(name)
            .and_then(|i| schema.attribute(i))
            .ok_or_else(|| format!("`{name}` is not an attribute of `{}`", schema.name()))?;
        let value = parse_literal(attr.kind(), literal)
            .map_err(|e| format!("attribute `{name}`: {}", e.message()))?;
        builder = builder.set(name, value).map_err(|e| e.to_string())?;
    }
    builder.build().map_err(|e| e.to_string())
}

/// Splits on commas that are not inside a double-quoted string.
fn split_top_level(input: &str) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in input.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&input[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
        if c != '\\' {
            escaped = false;
        }
    }
    if in_string {
        return Err("unterminated string literal".to_string());
    }
    parts.push(&input[start..]);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_types::{Value, ValueKind};

    fn schema() -> EventSchema {
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .attribute("urgent", ValueKind::Bool)
            .build()
            .unwrap()
    }

    #[test]
    fn parses_a_full_event() {
        let e = parse_event(
            &schema(),
            r#"issue="IBM", price=119.50, volume=3000, urgent=false"#,
        )
        .unwrap();
        assert_eq!(e.value_by_name("issue"), Some(&Value::str("IBM")));
        assert_eq!(e.value_by_name("price"), Some(&Value::Dollar(11950)));
        assert_eq!(e.value_by_name("volume"), Some(&Value::Int(3000)));
        assert_eq!(e.value_by_name("urgent"), Some(&Value::Bool(false)));
    }

    #[test]
    fn strings_may_contain_commas_and_escapes() {
        let e = parse_event(
            &schema(),
            r#"issue="A,B\"C", price=0, volume=-5, urgent=true"#,
        )
        .unwrap();
        assert_eq!(e.value_by_name("issue"), Some(&Value::str("A,B\"C")));
        assert_eq!(e.value_by_name("volume"), Some(&Value::Int(-5)));
    }

    #[test]
    fn errors_are_descriptive() {
        let s = schema();
        for (input, needle) in [
            ("justaword", "not `name=value`"),
            ("ticker=\"X\"", "not an attribute"),
            ("issue=X, price=1, volume=1, urgent=true", "string literal"),
            (
                "issue=\"X\", price=1.005, volume=1, urgent=true",
                "decimal places",
            ),
            (
                "issue=\"X\", price=1, volume=ten, urgent=true",
                "expected integer literal",
            ),
            (
                "issue=\"X\", price=1, volume=1, urgent=yes",
                "expected boolean literal",
            ),
            (
                "issue=\"X\", price=92233720368547759, volume=1, urgent=true",
                "out of range",
            ),
            ("issue=\"X\", price=1, volume=1", "missing a value"),
            ("issue=\"unterminated", "unterminated"),
        ] {
            let e = parse_event(&s, input).unwrap_err();
            assert!(e.contains(needle), "`{input}` → `{e}` (wanted `{needle}`)");
        }
    }

    #[test]
    fn duplicate_assignment_overwrites_with_last() {
        // Simplest semantics, mirroring the predicate grammar.
        let e = parse_event(
            &schema(),
            r#"issue="A", issue="B", price=1, volume=1, urgent=true"#,
        )
        .unwrap();
        assert_eq!(e.value_by_name("issue"), Some(&Value::str("B")));
    }
}
