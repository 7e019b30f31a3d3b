//! Property-based tests: every PST configuration agrees with brute force —
//! each predicate evaluated against the event — under arbitrary
//! subscription sets, mutations, and events.

use std::collections::BTreeMap;

use linkcast_matching::{Matcher, OrderPolicy, Pst, PstOptions};
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, SubscriberId, Subscription,
    SubscriptionId, Value, ValueKind,
};
use proptest::prelude::*;

const ATTRS: usize = 4;
const VALUES: i64 = 3;

fn schema() -> EventSchema {
    factored(0)
}

/// [`schema`] with its first `levels` attributes factored.
fn factored(levels: usize) -> EventSchema {
    let mut b = EventSchema::builder("prop");
    for i in 0..ATTRS {
        b = b.attribute_with_domain(format!("a{i}"), ValueKind::Int, (0..VALUES).map(Value::Int));
    }
    b.factored(levels).build().unwrap()
}

#[derive(Debug, Clone)]
enum TestShape {
    Any,
    Eq(i64),
    Lt(i64),
    Le(i64),
    Gt(i64),
    Ge(i64),
    Between(i64, i64),
}

impl TestShape {
    fn to_attr_test(&self) -> AttrTest {
        match self {
            TestShape::Any => AttrTest::Any,
            TestShape::Eq(v) => AttrTest::Eq(Value::Int(*v)),
            TestShape::Lt(v) => AttrTest::Lt(Value::Int(*v)),
            TestShape::Le(v) => AttrTest::Le(Value::Int(*v)),
            TestShape::Gt(v) => AttrTest::Gt(Value::Int(*v)),
            TestShape::Ge(v) => AttrTest::Ge(Value::Int(*v)),
            TestShape::Between(a, b) => {
                AttrTest::Between(Value::Int(*a.min(b)), Value::Int(*a.max(b)))
            }
        }
    }
}

fn test_shape() -> impl Strategy<Value = TestShape> {
    prop_oneof![
        3 => Just(TestShape::Any),
        4 => (0..VALUES).prop_map(TestShape::Eq),
        1 => (0..VALUES).prop_map(TestShape::Lt),
        1 => (0..VALUES).prop_map(TestShape::Le),
        1 => (0..VALUES).prop_map(TestShape::Gt),
        1 => (0..VALUES).prop_map(TestShape::Ge),
        1 => (0..VALUES, 0..VALUES).prop_map(|(a, b)| TestShape::Between(a, b)),
    ]
}

fn subscription_strategy() -> impl Strategy<Value = Vec<[TestShape; ATTRS]>> {
    proptest::collection::vec(proptest::array::uniform4(test_shape()), 0..24)
}

fn events_strategy() -> impl Strategy<Value = Vec<[i64; ATTRS]>> {
    proptest::collection::vec(proptest::array::uniform4(0..VALUES), 1..16)
}

fn build_subscription(schema: &EventSchema, id: u32, shapes: &[TestShape; ATTRS]) -> Subscription {
    let tests: Vec<AttrTest> = shapes.iter().map(TestShape::to_attr_test).collect();
    Subscription::new(
        SubscriptionId::new(id),
        SubscriberId::new(BrokerId::new(0), ClientId::new(id)),
        Predicate::from_tests(schema, tests).unwrap(),
    )
}

/// The brute-force answer: the ids of `live`'s subscriptions whose
/// predicate `event` satisfies, in order.
fn brute_force<'a>(
    live: impl IntoIterator<Item = &'a Subscription>,
    event: &Event,
) -> Vec<SubscriptionId> {
    let matched = live.into_iter().filter(|s| s.predicate().matches(event));
    let mut ids: Vec<SubscriptionId> = matched.map(Subscription::id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every PST configuration agrees with brute force: schema order, and
    /// the factored prefix followed by the other attributes reversed.
    #[test]
    fn all_matchers_agree(
        shapes in subscription_strategy(),
        events in events_strategy(),
        factoring in 0usize..3,
        reversed in any::<bool>(),
    ) {
        let schema = factored(factoring);
        let order = if reversed {
            OrderPolicy::Explicit((0..factoring).chain((factoring..ATTRS).rev()).collect())
        } else {
            OrderPolicy::Schema
        };
        let options = PstOptions::default().with_order(order);
        let subs: Vec<Subscription> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| build_subscription(&schema, i as u32, s))
            .collect();
        let pst = Pst::build(schema.clone(), subs.iter().cloned(), options).unwrap();
        pst.check_invariants().map_err(TestCaseError::fail)?;
        for values in &events {
            let event =
                Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
            prop_assert_eq!(pst.matches(&event), brute_force(&subs, &event));
        }
    }

    /// Interleaved inserts and removes leave the PST equivalent to brute
    /// force at every point, and removing everything empties the arena.
    #[test]
    fn mutation_sequences_stay_consistent(
        shapes in subscription_strategy(),
        events in events_strategy(),
        removal_order in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let schema = factored(1);
        let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
        let mut live = BTreeMap::new();
        for (i, s) in shapes.iter().enumerate() {
            let sub = build_subscription(&schema, i as u32, s);
            pst.insert(sub.clone()).unwrap();
            live.insert(sub.id(), sub);
        }
        // Remove a pseudo-random subset.
        for (k, raw) in removal_order.iter().enumerate() {
            if shapes.is_empty() {
                break;
            }
            let id = SubscriptionId::new((*raw as usize % shapes.len()) as u32);
            prop_assert_eq!(pst.remove(id), live.remove(&id).is_some(), "removal {}", k);
            pst.check_invariants().map_err(TestCaseError::fail)?;
            if let Some(values) = events.first() {
                let event =
                    Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
                prop_assert_eq!(pst.matches(&event), brute_force(live.values(), &event));
            }
        }
        // Remove the rest.
        for i in 0..shapes.len() as u32 {
            pst.remove(SubscriptionId::new(i));
        }
        prop_assert_eq!(pst.len(), 0);
        prop_assert_eq!(pst.node_count(), 0, "empty matcher must free all nodes");
        for values in &events {
            let event =
                Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
            prop_assert!(pst.matches(&event).is_empty());
        }
    }

    /// Reinserting after removal restores exact behaviour (node-id reuse
    /// must not leak stale state).
    #[test]
    fn remove_then_reinsert_is_identity(
        shapes in subscription_strategy(),
        events in events_strategy(),
    ) {
        prop_assume!(!shapes.is_empty());
        let schema = schema();
        let subs: Vec<Subscription> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| build_subscription(&schema, i as u32, s))
            .collect();
        let mut pst =
            Pst::build(schema.clone(), subs.iter().cloned(), PstOptions::default()).unwrap();
        let before: Vec<Vec<SubscriptionId>> = events
            .iter()
            .map(|values| {
                let event =
                    Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
                pst.matches(&event)
            })
            .collect();
        // Remove and reinsert every subscription.
        for s in &subs {
            prop_assert!(pst.remove(s.id()));
        }
        for s in &subs {
            pst.insert(s.clone()).unwrap();
        }
        pst.check_invariants().map_err(TestCaseError::fail)?;
        for (values, expected) in events.iter().zip(&before) {
            let event =
                Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
            prop_assert_eq!(&pst.matches(&event), expected);
        }
    }
}
