//! Typed attribute values.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// The type of an attribute, as declared in an [`EventSchema`].
///
/// [`EventSchema`]: crate::EventSchema
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    /// UTF-8 string, e.g. a stock issue name.
    Str,
    /// Signed 64-bit integer, e.g. a trade volume.
    Int,
    /// Fixed-point currency amount stored in cents, e.g. a price.
    ///
    /// The paper's example schema uses `price: dollar`; a fixed-point
    /// representation keeps values totally ordered and hashable (no NaN),
    /// which the parallel search tree relies on.
    Dollar,
    /// Boolean flag.
    Bool,
}

impl ValueKind {
    /// Returns the lowercase keyword used in schema declarations.
    pub const fn keyword(self) -> &'static str {
        match self {
            ValueKind::Str => "string",
            ValueKind::Int => "integer",
            ValueKind::Dollar => "dollar",
            ValueKind::Bool => "boolean",
        }
    }

    /// Parses a schema keyword (`"string"`, `"integer"`, `"dollar"`,
    /// `"boolean"`) into a kind.
    pub fn from_keyword(word: &str) -> Option<Self> {
        match word {
            "string" | "str" => Some(ValueKind::Str),
            "integer" | "int" => Some(ValueKind::Int),
            "dollar" => Some(ValueKind::Dollar),
            "boolean" | "bool" => Some(ValueKind::Bool),
            _ => None,
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A typed attribute value carried by an [`Event`] or tested by a
/// [`Predicate`].
///
/// Values of different kinds never compare equal; ordering across kinds is
/// total (by kind, then by payload) so values can key ordered collections,
/// but predicates only ever compare same-kind values.
///
/// [`Event`]: crate::Event
/// [`Predicate`]: crate::Predicate
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A string value. `Arc<str>` keeps events cheap to clone as they fan
    /// out across links.
    Str(Arc<str>),
    /// An integer value.
    Int(i64),
    /// A currency amount in cents.
    Dollar(i64),
    /// A boolean value.
    Bool(bool),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Creates a dollar value from whole dollars and cents.
    ///
    /// # Panics
    ///
    /// Panics if `cents >= 100`.
    pub fn dollar(dollars: i64, cents: u8) -> Self {
        assert!(cents < 100, "cents must be < 100, got {cents}");
        let sign = if dollars < 0 { -1 } else { 1 };
        Value::Dollar(dollars * 100 + sign * i64::from(cents))
    }

    /// Creates a dollar value directly from a total number of cents.
    pub const fn dollar_cents(cents: i64) -> Self {
        Value::Dollar(cents)
    }

    /// Returns the kind of this value.
    pub const fn kind(&self) -> ValueKind {
        match self {
            Value::Str(_) => ValueKind::Str,
            Value::Int(_) => ValueKind::Int,
            Value::Dollar(_) => ValueKind::Dollar,
            Value::Bool(_) => ValueKind::Bool,
        }
    }

    /// Returns the string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the amount in cents, if this is a dollar value.
    pub fn as_dollar_cents(&self) -> Option<i64> {
        match self {
            Value::Dollar(c) => Some(*c),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value in the predicate-language syntax, e.g. `"IBM"`,
    /// `120.00`, `1000`, `true`. A string escapes `"` and `\` and carries
    /// every other character raw, as the grammar reads it.
    pub fn to_literal(&self) -> Cow<'static, str> {
        match self {
            Value::Str(s) => {
                let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
                Cow::Owned(format!("\"{escaped}\""))
            }
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Dollar(c) => {
                let sign = if *c < 0 { "-" } else { "" };
                let abs = c.abs();
                Cow::Owned(format!("{sign}{}.{:02}", abs / 100, abs % 100))
            }
            Value::Bool(true) => Cow::Borrowed("true"),
            Value::Bool(false) => Cow::Borrowed("false"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_literal())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_keywords() {
        for kind in [
            ValueKind::Str,
            ValueKind::Int,
            ValueKind::Dollar,
            ValueKind::Bool,
        ] {
            assert_eq!(ValueKind::from_keyword(kind.keyword()), Some(kind));
        }
        assert_eq!(ValueKind::from_keyword("float"), None);
    }

    #[test]
    fn dollar_construction() {
        assert_eq!(Value::dollar(119, 50), Value::Dollar(11950));
        assert_eq!(Value::dollar(-3, 25), Value::Dollar(-325));
        assert_eq!(Value::dollar(0, 99), Value::Dollar(99));
    }

    #[test]
    #[should_panic(expected = "cents must be < 100")]
    fn dollar_rejects_overflowing_cents() {
        let _ = Value::dollar(1, 100);
    }

    #[test]
    fn literals() {
        assert_eq!(Value::str("IBM").to_literal(), "\"IBM\"");
        assert_eq!(Value::Int(1000).to_literal(), "1000");
        assert_eq!(Value::dollar(120, 0).to_literal(), "120.00");
        assert_eq!(Value::dollar(-3, 25).to_literal(), "-3.25");
        assert_eq!(Value::Bool(true).to_literal(), "true");
    }

    #[test]
    fn cross_kind_values_never_equal() {
        assert_ne!(Value::Int(0), Value::Dollar(0));
        assert_ne!(Value::Bool(false), Value::Int(0));
    }

    #[test]
    fn ordering_within_kind_is_numeric() {
        assert!(Value::Int(2) < Value::Int(10));
        assert!(Value::Dollar(199) < Value::Dollar(200));
        assert!(Value::str("AAPL") < Value::str("IBM"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Dollar(5).as_dollar_cents(), Some(5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(String::from("hi")), Value::str("hi"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
