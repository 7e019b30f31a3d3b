//! Subscription-set compaction via the covering relation.
//!
//! SIENA-style optimization (discussed in the paper's related work): a
//! subscription that is covered by another subscription *of the same
//! subscriber* is redundant — every event it would deliver is already
//! delivered. Compacting before installing or shipping a large set shrinks
//! the PST without changing delivery.

use linkcast_types::Subscription;

/// Removes subscriptions covered by another subscription of the same
/// subscriber, returning the survivors (original order preserved) and the
/// ids of the dropped ones.
///
/// Ties (two subscriptions covering each other, i.e. equivalent predicates)
/// keep the earlier one. Covering across *different* subscribers is
/// deliberately not used: both parties must still be delivered to.
///
/// # Example
///
/// ```
/// use linkcast_matching::compact_subscriptions;
/// use linkcast_types::{EventSchema, Predicate, Subscription, SubscriptionId,
///     SubscriberId, BrokerId, ClientId, Value, ValueKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = EventSchema::builder("s")
///     .attribute("volume", ValueKind::Int)
///     .build()?;
/// let subscriber = SubscriberId::new(BrokerId::new(0), ClientId::new(0));
/// let broad = Subscription::new(
///     SubscriptionId::new(0),
///     subscriber,
///     Predicate::builder(&schema).gt("volume", Value::Int(10))?.build(),
/// );
/// let narrow = Subscription::new(
///     SubscriptionId::new(1),
///     subscriber,
///     Predicate::builder(&schema).gt("volume", Value::Int(100))?.build(),
/// );
/// let (kept, dropped) = compact_subscriptions(vec![broad.clone(), narrow]);
/// assert_eq!(kept, vec![broad]);
/// assert_eq!(dropped, vec![SubscriptionId::new(1)]);
/// # Ok(())
/// # }
/// ```
pub fn compact_subscriptions(
    subscriptions: Vec<Subscription>,
) -> (Vec<Subscription>, Vec<linkcast_types::SubscriptionId>) {
    let mut dropped = Vec::new();
    let mut kept: Vec<Subscription> = Vec::with_capacity(subscriptions.len());
    'outer: for candidate in subscriptions {
        for existing in &kept {
            if existing.subscriber() == candidate.subscriber()
                && existing.predicate().covers(candidate.predicate())
            {
                dropped.push(candidate.id());
                continue 'outer;
            }
        }
        // The candidate survives; it may retroactively cover earlier
        // survivors.
        kept.retain(|existing| {
            let redundant = existing.subscriber() == candidate.subscriber()
                && candidate.predicate().covers(existing.predicate())
                && !existing.predicate().covers(candidate.predicate());
            if redundant {
                dropped.push(existing.id());
            }
            !redundant
        });
        kept.push(candidate);
    }
    (kept, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_types::{
        AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, SubscriberId, SubscriptionId,
        Value, ValueKind,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> EventSchema {
        EventSchema::builder("s")
            .attribute_with_domain("a", ValueKind::Int, (0..5).map(Value::Int))
            .attribute_with_domain("b", ValueKind::Int, (0..5).map(Value::Int))
            .build()
            .unwrap()
    }

    fn sub(id: u32, client: u32, tests: [AttrTest; 2]) -> Subscription {
        Subscription::new(
            SubscriptionId::new(id),
            SubscriberId::new(BrokerId::new(0), ClientId::new(client)),
            Predicate::from_tests(&schema(), tests).unwrap(),
        )
    }

    #[test]
    fn covered_later_subscription_is_dropped() {
        let broad = sub(0, 0, [AttrTest::Any, AttrTest::Any]);
        let narrow = sub(1, 0, [AttrTest::Eq(Value::Int(1)), AttrTest::Any]);
        let (kept, dropped) = compact_subscriptions(vec![broad.clone(), narrow]);
        assert_eq!(kept, vec![broad]);
        assert_eq!(dropped, vec![SubscriptionId::new(1)]);
    }

    #[test]
    fn covered_earlier_subscription_is_dropped_retroactively() {
        let narrow = sub(0, 0, [AttrTest::Eq(Value::Int(1)), AttrTest::Any]);
        let broad = sub(1, 0, [AttrTest::Any, AttrTest::Any]);
        let (kept, dropped) = compact_subscriptions(vec![narrow, broad.clone()]);
        assert_eq!(kept, vec![broad]);
        assert_eq!(dropped, vec![SubscriptionId::new(0)]);
    }

    #[test]
    fn different_subscribers_are_never_compacted() {
        let broad = sub(0, 0, [AttrTest::Any, AttrTest::Any]);
        let narrow = sub(1, 1, [AttrTest::Eq(Value::Int(1)), AttrTest::Any]);
        let (kept, dropped) = compact_subscriptions(vec![broad, narrow]);
        assert_eq!(kept.len(), 2);
        assert!(dropped.is_empty());
    }

    #[test]
    fn equivalent_predicates_keep_the_first() {
        let a = sub(0, 0, [AttrTest::Eq(Value::Int(1)), AttrTest::Any]);
        let b = sub(1, 0, [AttrTest::Eq(Value::Int(1)), AttrTest::Any]);
        let (kept, dropped) = compact_subscriptions(vec![a.clone(), b]);
        assert_eq!(kept, vec![a]);
        assert_eq!(dropped, vec![SubscriptionId::new(1)]);
    }

    /// Compaction must never change which *clients* receive which events.
    #[test]
    fn compaction_preserves_delivery_semantics() {
        let schema = schema();
        let mut rng = StdRng::seed_from_u64(77);
        let random_test = |rng: &mut StdRng| -> AttrTest {
            match rng.random_range(0..5) {
                0 => AttrTest::Any,
                1 => AttrTest::Eq(Value::Int(rng.random_range(0..5))),
                2 => AttrTest::Lt(Value::Int(rng.random_range(0..5))),
                3 => AttrTest::Ge(Value::Int(rng.random_range(0..5))),
                _ => {
                    let lo = rng.random_range(0..5);
                    AttrTest::Between(Value::Int(lo), Value::Int(rng.random_range(lo..5)))
                }
            }
        };
        for round in 0..50 {
            let subs: Vec<Subscription> = (0..12)
                .map(|i| {
                    sub(
                        i,
                        i % 3, // three subscribers
                        [random_test(&mut rng), random_test(&mut rng)],
                    )
                })
                .collect();
            let (kept, dropped) = compact_subscriptions(subs.clone());
            assert_eq!(kept.len() + dropped.len(), subs.len());

            for a in 0..5 {
                for b in 0..5 {
                    let e = Event::from_values(&schema, [Value::Int(a), Value::Int(b)]).unwrap();
                    let clients_of = |table: &[Subscription]| -> Vec<ClientId> {
                        let matched = table.iter().filter(|s| s.predicate().matches(&e));
                        let mut c: Vec<ClientId> = matched.map(|s| s.subscriber().client).collect();
                        c.sort_unstable();
                        c.dedup();
                        c
                    };
                    assert_eq!(
                        clients_of(&subs),
                        clients_of(&kept),
                        "round {round}, event {e}"
                    );
                }
            }
        }
    }
}
