//! PST configuration: attribute ordering and optimization toggles.

use linkcast_types::{EventSchema, Subscription};

use crate::MatcherError;

/// How the PST orders attributes from root to leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Test attributes in schema declaration order.
    Schema,
    /// Test attributes in an explicit order (a permutation of `0..arity`).
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
/// schema order, no factoring, trivial test elimination on. An ablation
/// turns the last off:
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
    /// Number of leading attributes (in the resolved order) to factor out
    /// into the subtree-selection key (§2.1.1). Factored attributes must
    /// declare finite domains. `0` disables factoring.
    pub factoring: usize,
    /// Whether to skip over `*`-only chains during matching (§2.1.2).
    pub eliminate_trivial_tests: bool,
}

impl Default for PstOptions {
    fn default() -> Self {
        Self {
            order: OrderPolicy::Schema,
            factoring: 0,
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

    /// Sets the number of factored attributes.
    #[must_use]
    pub fn with_factoring(mut self, levels: usize) -> Self {
        self.factoring = levels;
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
    /// permutation of `0..arity` or factoring exceeds the arity.
    pub(crate) fn resolve_order(
        &self,
        schema: &EventSchema,
        subscriptions: Option<&[Subscription]>,
    ) -> Result<Vec<usize>, MatcherError> {
        let arity = schema.arity();
        if self.factoring > arity {
            return Err(MatcherError::InvalidOptions(format!(
                "factoring {} exceeds schema arity {arity}",
                self.factoring
            )));
        }
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
                order.sort_by_key(|&a| (stars[a], a));
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
        EventSchema::builder("s")
            .attribute("a", ValueKind::Int)
            .attribute("b", ValueKind::Int)
            .attribute("c", ValueKind::Int)
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
        let ok = PstOptions::default()
            .with_order(OrderPolicy::Explicit(vec![2, 0, 1]))
            .resolve_order(&schema(), None)
            .unwrap();
        assert_eq!(ok, vec![2, 0, 1]);

        for bad in [vec![0, 1], vec![0, 1, 1], vec![0, 1, 3]] {
            let err = PstOptions::default()
                .with_order(OrderPolicy::Explicit(bad))
                .resolve_order(&schema(), None)
                .unwrap_err();
            assert!(matches!(err, MatcherError::InvalidOptions(_)));
        }
    }

    #[test]
    fn fewest_stars_first_uses_subscription_stats() {
        let schema = schema();
        let sub = |id: u32, tests: [Option<i64>; 3]| {
            let mut b = Predicate::builder(&schema);
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
        // `b` is never starred, `c` sometimes, `a` always.
        let subs = vec![
            sub(0, [None, Some(1), Some(2)]),
            sub(1, [None, Some(2), None]),
            sub(2, [None, Some(3), Some(1)]),
        ];
        let order = PstOptions::default()
            .with_order(OrderPolicy::FewestStarsFirst)
            .resolve_order(&schema, Some(&subs))
            .unwrap();
        assert_eq!(order, vec![1, 2, 0]);
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
        let err = PstOptions::default()
            .with_factoring(4)
            .resolve_order(&schema(), None)
            .unwrap_err();
        assert!(matches!(err, MatcherError::InvalidOptions(_)));
    }
}
