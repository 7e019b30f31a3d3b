//! PST configuration: attribute ordering.

use linkcast_types::EventSchema;

use crate::MatcherError;

/// How the PST orders attributes from root to leaf. The schema's
/// factored attributes ([`EventSchema::factored`]) always come first, in
/// declaration order; a policy orders the attributes that follow them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Test attributes in schema declaration order.
    Schema,
    /// Test attributes in an explicit order: a permutation of `0..arity`
    /// that begins with the factored attributes. The paper's heuristic —
    /// "the attributes near the root are chosen to have the fewest number
    /// of subscriptions labeled with a `*`" — is one such order, computed
    /// by the caller from its subscriptions; a broker's engine computes
    /// its own from what events do (`LinkMatchEngine::adapt_order`).
    Explicit(Vec<usize>),
}

/// Configuration for a [`Pst`](crate::Pst). The default is the paper's
/// schema order. What a tree factors is not an option, the schema declares
/// it ([`EventSchema::factored`]), and neither is trivial test elimination
/// (§2.1.2): every walk skips `*`-only chains. What remains is the order:
///
/// ```
/// # use linkcast_matching::{OrderPolicy, PstOptions};
/// let reversed = PstOptions::default().with_order(OrderPolicy::Explicit(vec![2, 1, 0]));
/// assert_ne!(reversed, PstOptions::default());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PstOptions {
    /// Attribute ordering policy.
    pub order: OrderPolicy,
}

impl Default for PstOptions {
    fn default() -> Self {
        Self {
            order: OrderPolicy::Schema,
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

    /// Resolves the full attribute order (factored prefix included) for
    /// `schema`.
    ///
    /// # Errors
    ///
    /// [`MatcherError::InvalidOptions`] if an explicit order is not a
    /// permutation of `0..arity` that begins with the factored attributes.
    pub(crate) fn resolve_order(&self, schema: &EventSchema) -> Result<Vec<usize>, MatcherError> {
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
        };
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_types::{Value, ValueKind};

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
        let order = PstOptions::default().resolve_order(&schema()).unwrap();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn explicit_order_is_validated() {
        let explicit = |order: Vec<usize>, schema: &EventSchema| {
            PstOptions::default()
                .with_order(OrderPolicy::Explicit(order))
                .resolve_order(schema)
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
        // With every attribute factored, schema order has nothing to order.
        let order = PstOptions::default()
            .resolve_order(&factored_schema(3))
            .unwrap();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
