//! PST configuration: attribute ordering and optimization toggles.

use linkcast_types::{EventSchema, Subscription};

use crate::MatcherError;

/// How the PST orders attributes from root to leaf. The schema's
/// factored attributes ([`EventSchema::factored`]) always come first, in
/// declaration order; a policy orders the attributes that follow them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Test attributes in schema declaration order.
    Schema,
    /// Test attributes in an explicit order: a permutation of `0..arity`
    /// that begins with the factored attributes.
    Explicit(Vec<usize>),
    /// The paper's heuristic: "performance seems to be better if the
    /// attributes near the root are chosen to have the fewest number of
    /// subscriptions labeled with a `*`".
    ///
    /// The ordering is computed from the initial subscription set passed to
    /// [`Pst::build`](crate::Pst::build); ties break toward schema order.
    /// When no initial set is available ([`Pst::new`](crate::Pst::new)),
    /// falls back to schema order.
    FewestStarsFirst,
}

/// Configuration for a [`Pst`](crate::Pst). The default is the paper's:
/// schema order and trivial test elimination on. What a tree factors is
/// not an option: the schema declares it ([`EventSchema::factored`]). An
/// ablation turns trivial test elimination off:
///
/// ```
/// # use linkcast_matching::PstOptions;
/// let ablated = PstOptions::default().with_trivial_test_elimination(false);
/// assert_ne!(ablated, PstOptions::default());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PstOptions {
    /// Attribute ordering policy.
    pub order: OrderPolicy,
    /// Whether to skip over `*`-only chains during matching (§2.1.2).
    pub eliminate_trivial_tests: bool,
}

impl Default for PstOptions {
    fn default() -> Self {
        Self {
            order: OrderPolicy::Schema,
            eliminate_trivial_tests: true,
        }
    }
}

impl PstOptions {
    /// Sets the ordering policy.
    #[must_use]
    pub fn with_order(mut self, order: OrderPolicy) -> Self {
        self.order = order;
        self
    }

    /// Enables or disables trivial test elimination.
    #[must_use]
    pub fn with_trivial_test_elimination(mut self, on: bool) -> Self {
        self.eliminate_trivial_tests = on;
        self
    }

    /// Resolves the full attribute order (factored prefix included) for
    /// `schema`, optionally using subscription statistics.
    ///
    /// # Errors
    ///
    /// [`MatcherError::InvalidOptions`] if an explicit order is not a
    /// permutation of `0..arity` that begins with the factored attributes.
    pub(crate) fn resolve_order(
        &self,
        schema: &EventSchema,
        subscriptions: Option<&[Subscription]>,
    ) -> Result<Vec<usize>, MatcherError> {
        let arity = schema.arity();
        let factored = schema.factored();
        let order = match &self.order {
            OrderPolicy::Schema => (0..arity).collect(),
            OrderPolicy::Explicit(order) => {
                let mut seen = vec![false; arity];
                if order.len() != arity {
                    return Err(MatcherError::InvalidOptions(format!(
                        "explicit order has {} entries for arity {arity}",
                        order.len()
                    )));
                }
                for &a in order {
                    if a >= arity || seen[a] {
                        return Err(MatcherError::InvalidOptions(format!(
                            "explicit order is not a permutation of 0..{arity}"
                        )));
                    }
                    seen[a] = true;
                }
                if order
                    .iter()
                    .copied()
                    .take(factored.len())
                    .ne(factored.clone())
                {
                    return Err(MatcherError::InvalidOptions(format!(
                        "explicit order does not begin with the factored {factored:?}"
                    )));
                }
                order.clone()
            }
            OrderPolicy::FewestStarsFirst => {
                let mut stars = vec![0usize; arity];
                if let Some(subs) = subscriptions {
                    for sub in subs {
                        for (i, t) in sub.predicate().tests().iter().enumerate() {
                            if i < arity && t.is_wildcard() {
                                stars[i] += 1;
                            }
                        }
                    }
                }
                let mut order: Vec<usize> = (0..arity).collect();
                order[factored.end..].sort_by_key(|&a| (stars[a], a));
                order
            }
        };
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_types::{
        BrokerId, ClientId, Predicate, SubscriberId, SubscriptionId, Value, ValueKind,
    };

    fn schema() -> EventSchema {
        factored_schema(0)
    }

    /// `a b c`, each over `0..3`, the first `levels` factored.
    fn factored_schema(levels: usize) -> EventSchema {
        let domain = || (0..3).map(Value::Int);
        EventSchema::builder("s")
            .attribute_with_domain("a", ValueKind::Int, domain())
            .attribute_with_domain("b", ValueKind::Int, domain())
            .attribute_with_domain("c", ValueKind::Int, domain())
            .factored(levels)
            .build()
            .unwrap()
    }

    #[test]
    fn schema_order_is_identity() {
        let order = PstOptions::default()
            .resolve_order(&schema(), None)
            .unwrap();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn explicit_order_is_validated() {
        let explicit = |order: Vec<usize>, schema: &EventSchema| {
            PstOptions::default()
                .with_order(OrderPolicy::Explicit(order))
                .resolve_order(schema, None)
        };
        assert_eq!(explicit(vec![2, 0, 1], &schema()).unwrap(), vec![2, 0, 1]);
        assert_eq!(
            explicit(vec![0, 2, 1], &factored_schema(1)).unwrap(),
            vec![0, 2, 1]
        );

        let bad = [
            (vec![0, 1], schema()),
            (vec![0, 1, 1], schema()),
            (vec![0, 1, 3], schema()),
            // A permutation that moves the factored prefix.
            (vec![1, 0, 2], factored_schema(1)),
            (vec![0, 2, 1], factored_schema(2)),
        ];
        for (order, schema) in bad {
            let err = explicit(order, &schema).unwrap_err();
            assert!(matches!(err, MatcherError::InvalidOptions(_)));
        }
    }

    #[test]
    fn fewest_stars_first_uses_subscription_stats() {
        for (levels, expected) in [(0, vec![1, 2, 0]), (1, vec![0, 1, 2])] {
            assert_eq!(fewest_stars_order(&factored_schema(levels)), expected);
        }
    }

    /// FewestStarsFirst over a set in which `b` is never starred, `c`
    /// sometimes and `a` always: it orders what follows the factored
    /// prefix.
    fn fewest_stars_order(schema: &EventSchema) -> Vec<usize> {
        let sub = |id: u32, tests: [Option<i64>; 3]| {
            let mut b = Predicate::builder(schema);
            for (name, t) in ["a", "b", "c"].iter().zip(tests) {
                if let Some(v) = t {
                    b = b.eq(name, Value::Int(v)).unwrap();
                }
            }
            Subscription::new(
                SubscriptionId::new(id),
                SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
                b.build(),
            )
        };
        let subs = vec![
            sub(0, [None, Some(1), Some(2)]),
            sub(1, [None, Some(2), None]),
            sub(2, [None, Some(0), Some(1)]),
        ];
        PstOptions::default()
            .with_order(OrderPolicy::FewestStarsFirst)
            .resolve_order(schema, Some(&subs))
            .unwrap()
    }

    #[test]
    fn fewest_stars_without_stats_falls_back_to_schema_order() {
        let order = PstOptions::default()
            .with_order(OrderPolicy::FewestStarsFirst)
            .resolve_order(&schema(), None)
            .unwrap();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn factoring_beyond_arity_is_rejected() {
        // The schema declares the factored prefix, so a count past the
        // arity never reaches the options: the builder refuses it.
        let domain = || (0..3).map(Value::Int);
        let err = EventSchema::builder("s")
            .attribute_with_domain("a", ValueKind::Int, domain())
            .attribute_with_domain("b", ValueKind::Int, domain())
            .attribute_with_domain("c", ValueKind::Int, domain())
            .factored(4)
            .build()
            .unwrap_err();
        assert!(matches!(err, linkcast_types::Error::InvalidSchema(_)));
        // With every attribute factored, no policy has anything to order.
        for policy in [OrderPolicy::Schema, OrderPolicy::FewestStarsFirst] {
            let order = PstOptions::default()
                .with_order(policy)
                .resolve_order(&factored_schema(3), None)
                .unwrap();
            assert_eq!(order, vec![0, 1, 2]);
        }
    }
}
