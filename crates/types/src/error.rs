//! Error types shared across the workspace's data model.

use std::fmt;

use crate::ValueKind;

/// Convenience alias for results produced by this crate.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors arising from schema, event, predicate, and codec operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A schema was structurally invalid (empty, duplicate attributes, ...).
    InvalidSchema(String),
    /// A value's kind did not match the attribute's declared kind.
    SchemaMismatch {
        /// Name of the offending attribute.
        attribute: String,
        /// Kind declared by the schema.
        expected: ValueKind,
        /// Kind actually supplied.
        actual: ValueKind,
    },
    /// An attribute index was out of range for the schema.
    AttributeOutOfRange {
        /// The requested index.
        index: usize,
        /// The schema arity.
        arity: usize,
    },
    /// An attribute name was not declared by the schema.
    UnknownAttribute(String),
    /// An event was built without assigning every attribute.
    MissingAttribute(String),
    /// A subscription predicate failed to parse.
    ParsePredicate(crate::ParsePredicateError),
    /// A wire frame failed to decode.
    Decode(String),
    /// A wire frame ended before what it declared. Carries no `String`, so
    /// a decoder that runs off the end of its input allocates nothing.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes it needed.
        need: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// A predicate used an operator unsupported for the attribute's kind
    /// (e.g. `<` on booleans).
    UnsupportedOperator {
        /// The operator symbol.
        operator: &'static str,
        /// The value kind it was applied to.
        kind: ValueKind,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            Error::SchemaMismatch {
                attribute,
                expected,
                actual,
            } => write!(
                f,
                "attribute `{attribute}` expects {expected}, got {actual}"
            ),
            Error::AttributeOutOfRange { index, arity } => {
                write!(f, "attribute index {index} out of range for arity {arity}")
            }
            Error::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            Error::MissingAttribute(name) => {
                write!(f, "event is missing a value for attribute `{name}`")
            }
            Error::ParsePredicate(e) => write!(f, "{e}"),
            Error::Decode(msg) => write!(f, "decode error: {msg}"),
            Error::Truncated { what, need, left } => write!(
                f,
                "decode error: truncated input: need {need} more bytes for {what}, {left} left"
            ),
            Error::UnsupportedOperator { operator, kind } => {
                write!(f, "operator `{operator}` is not supported on {kind} values")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::ParsePredicate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::ParsePredicateError> for Error {
    fn from(e: crate::ParsePredicateError) -> Self {
        Error::ParsePredicate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = Error::SchemaMismatch {
            attribute: "price".into(),
            expected: ValueKind::Dollar,
            actual: ValueKind::Int,
        };
        assert_eq!(
            e.to_string(),
            "attribute `price` expects dollar, got integer"
        );

        let e = Error::AttributeOutOfRange { index: 4, arity: 3 };
        assert_eq!(e.to_string(), "attribute index 4 out of range for arity 3");

        let e = Error::UnsupportedOperator {
            operator: "<",
            kind: ValueKind::Bool,
        };
        assert_eq!(
            e.to_string(),
            "operator `<` is not supported on boolean values"
        );
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn parse_error_is_source() {
        let pe = crate::ParsePredicateError::new(3, "boom");
        let e = Error::from(pe);
        assert!(e.source().is_some());
    }
}
