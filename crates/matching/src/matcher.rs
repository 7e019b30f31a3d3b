//! The common interface implemented by all matching engines.

use std::fmt;

use linkcast_types::{Event, Subscription, SubscriptionId};

use crate::MatchStats;

/// Errors produced by matcher mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatcherError {
    /// A subscription with the same id is already registered.
    DuplicateSubscription(SubscriptionId),
    /// The subscription's predicate does not fit the matcher's schema.
    SchemaMismatch {
        /// Arity expected by the matcher's schema.
        expected: usize,
        /// Arity of the offending predicate.
        actual: usize,
    },
    /// A configuration problem (an explicit attribute order that is not a
    /// permutation, or moves the schema's factored prefix). The string
    /// describes the issue.
    InvalidOptions(String),
}

impl fmt::Display for MatcherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatcherError::DuplicateSubscription(id) => {
                write!(f, "subscription {id} is already registered")
            }
            MatcherError::SchemaMismatch { expected, actual } => write!(
                f,
                "predicate has {actual} tests but the schema has {expected} attributes"
            ),
            MatcherError::InvalidOptions(msg) => write!(f, "invalid matcher options: {msg}"),
        }
    }
}

impl std::error::Error for MatcherError {}

/// A content-based matching engine: a mutable set of subscriptions that can
/// be matched against events.
///
/// Implementations must return matches **sorted by subscription id** and
/// free of duplicates, so results from different engines compare directly.
pub trait Matcher {
    /// Registers a subscription.
    ///
    /// # Errors
    ///
    /// [`MatcherError::DuplicateSubscription`] if the id is taken, or
    /// [`MatcherError::SchemaMismatch`] if the predicate arity is wrong.
    fn insert(&mut self, subscription: Subscription) -> Result<(), MatcherError>;

    /// Removes a subscription by id, returning whether it was present.
    fn remove(&mut self, id: SubscriptionId) -> bool;

    /// Returns the ids of all subscriptions matched by `event`, sorted and
    /// deduplicated, updating `stats`.
    fn matches_with_stats(&self, event: &Event, stats: &mut MatchStats) -> Vec<SubscriptionId>;

    /// Returns the ids of all subscriptions matched by `event`, sorted and
    /// deduplicated.
    fn matches(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut stats = MatchStats::new();
        self.matches_with_stats(event, &mut stats)
    }

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// Whether no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a registered subscription by id.
    fn subscription(&self, id: SubscriptionId) -> Option<&Subscription>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(
            MatcherError::DuplicateSubscription(SubscriptionId::new(3)).to_string(),
            "subscription sub3 is already registered"
        );
        assert_eq!(
            MatcherError::SchemaMismatch {
                expected: 3,
                actual: 2
            }
            .to_string(),
            "predicate has 2 tests but the schema has 3 attributes"
        );
        assert!(MatcherError::InvalidOptions("x".into())
            .to_string()
            .contains("invalid matcher options"));
    }
}
