//! Linear-scan baseline matcher.

use std::collections::BTreeMap;

use linkcast_matching::{MatchStats, Matcher, MatcherError};
use linkcast_types::{Event, EventSchema, Subscription, SubscriptionId};

/// The obvious baseline: evaluate every subscription's predicate against
/// every event.
///
/// Cost is `O(subscriptions × attributes)` per event: the comparison
/// point in the Chart 3 benchmarks.
#[derive(Debug, Clone)]
pub struct NaiveMatcher {
    schema: EventSchema,
    subscriptions: BTreeMap<SubscriptionId, Subscription>,
}

impl NaiveMatcher {
    /// Creates an empty matcher for `schema`.
    pub fn new(schema: EventSchema) -> Self {
        Self {
            schema,
            subscriptions: BTreeMap::new(),
        }
    }

    /// The schema this matcher serves.
    pub fn schema(&self) -> &EventSchema {
        &self.schema
    }

    /// Iterates over all registered subscriptions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Subscription> {
        self.subscriptions.values()
    }
}

impl Matcher for NaiveMatcher {
    fn insert(&mut self, subscription: Subscription) -> Result<(), MatcherError> {
        if subscription.predicate().tests().len() != self.schema.arity() {
            return Err(MatcherError::SchemaMismatch {
                expected: self.schema.arity(),
                actual: subscription.predicate().tests().len(),
            });
        }
        let id = subscription.id();
        if self.subscriptions.contains_key(&id) {
            return Err(MatcherError::DuplicateSubscription(id));
        }
        self.subscriptions.insert(id, subscription);
        Ok(())
    }

    fn remove(&mut self, id: SubscriptionId) -> bool {
        self.subscriptions.remove(&id).is_some()
    }

    fn matches_with_stats(&self, event: &Event, stats: &mut MatchStats) -> Vec<SubscriptionId> {
        stats.events += 1;
        let mut out = Vec::new();
        for (id, sub) in &self.subscriptions {
            stats.steps += 1;
            stats.comparisons += sub.predicate().tests().len() as u64;
            if sub.predicate().matches(event) {
                stats.leaf_hits += 1;
                out.push(*id);
            }
        }
        // BTreeMap iteration is already id-sorted and duplicate-free.
        out
    }

    fn len(&self) -> usize {
        self.subscriptions.len()
    }

    fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subscriptions.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_types::{parse_predicate, BrokerId, ClientId, SubscriberId, Value, ValueKind};

    fn schema() -> EventSchema {
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap()
    }

    fn sub(id: u32, expr: &str) -> Subscription {
        Subscription::new(
            SubscriptionId::new(id),
            SubscriberId::new(BrokerId::new(0), ClientId::new(id)),
            parse_predicate(&schema(), expr).unwrap(),
        )
    }

    fn event(issue: &str, cents: i64, volume: i64) -> Event {
        Event::from_values(
            &schema(),
            [Value::str(issue), Value::Dollar(cents), Value::Int(volume)],
        )
        .unwrap()
    }

    #[test]
    fn matches_are_sorted_and_exact() {
        let mut m = NaiveMatcher::new(schema());
        m.insert(sub(2, r#"issue = "IBM""#)).unwrap();
        m.insert(sub(0, "volume > 100")).unwrap();
        m.insert(sub(1, r#"issue = "HP""#)).unwrap();
        let got = m.matches(&event("IBM", 100, 500));
        assert_eq!(got, vec![SubscriptionId::new(0), SubscriptionId::new(2)]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn insert_validates() {
        let mut m = NaiveMatcher::new(schema());
        m.insert(sub(0, "volume > 1")).unwrap();
        assert_eq!(
            m.insert(sub(0, "volume > 2")),
            Err(MatcherError::DuplicateSubscription(SubscriptionId::new(0)))
        );

        let other = EventSchema::builder("s")
            .attribute("x", ValueKind::Int)
            .build()
            .unwrap();
        let bad = Subscription::new(
            SubscriptionId::new(9),
            SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
            parse_predicate(&other, "x = 1").unwrap(),
        );
        assert!(matches!(
            m.insert(bad),
            Err(MatcherError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn remove_works() {
        let mut m = NaiveMatcher::new(schema());
        m.insert(sub(0, "volume > 100")).unwrap();
        assert!(m.remove(SubscriptionId::new(0)));
        assert!(!m.remove(SubscriptionId::new(0)));
        assert!(m.matches(&event("IBM", 1, 500)).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn stats_count_evaluations() {
        let mut m = NaiveMatcher::new(schema());
        for i in 0..10 {
            m.insert(sub(i, "volume > 100")).unwrap();
        }
        let mut stats = MatchStats::new();
        let got = m.matches_with_stats(&event("IBM", 1, 500), &mut stats);
        assert_eq!(got.len(), 10);
        assert_eq!(stats.steps, 10);
        assert_eq!(stats.leaf_hits, 10);
        assert_eq!(stats.comparisons, 30);
        assert_eq!(stats.events, 1);
    }

    #[test]
    fn subscription_lookup() {
        let mut m = NaiveMatcher::new(schema());
        let s = sub(5, "volume > 1");
        m.insert(s.clone()).unwrap();
        assert_eq!(m.subscription(SubscriptionId::new(5)), Some(&s));
        assert_eq!(m.subscription(SubscriptionId::new(6)), None);
        assert_eq!(m.iter().count(), 1);
    }
}
