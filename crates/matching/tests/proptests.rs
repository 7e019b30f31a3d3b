//! Property-based tests: every matcher configuration agrees with the naive
//! oracle under arbitrary subscription sets, mutations, and events.

use linkcast_matching::{
    compact_subscriptions, GatingMatcher, Matcher, NaiveMatcher, OrderPolicy, Psg, Pst, PstOptions,
};
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, SubscriberId, Subscription,
    SubscriptionId, Value, ValueKind,
};
use proptest::prelude::*;

const ATTRS: usize = 4;
const VALUES: i64 = 3;

fn schema() -> EventSchema {
    let mut b = EventSchema::builder("prop");
    for i in 0..ATTRS {
        b = b.attribute_with_domain(format!("a{i}"), ValueKind::Int, (0..VALUES).map(Value::Int));
    }
    b.build().unwrap()
}

#[derive(Debug, Clone)]
enum TestShape {
    Any,
    Eq(i64),
    Lt(i64),
    Ge(i64),
    Between(i64, i64),
}

impl TestShape {
    fn to_attr_test(&self) -> AttrTest {
        match self {
            TestShape::Any => AttrTest::Any,
            TestShape::Eq(v) => AttrTest::Eq(Value::Int(*v)),
            TestShape::Lt(v) => AttrTest::Lt(Value::Int(*v)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every PST configuration and the gating matcher agree with the naive
    /// oracle.
    #[test]
    fn all_matchers_agree(
        shapes in subscription_strategy(),
        events in events_strategy(),
        factoring in 0usize..3,
        tte in any::<bool>(),
        heuristic in any::<bool>(),
    ) {
        let schema = schema();
        let order = if heuristic {
            OrderPolicy::FewestStarsFirst
        } else {
            OrderPolicy::Schema
        };
        let options = PstOptions::default()
            .with_factoring(factoring)
            .with_trivial_test_elimination(tte)
            .with_order(order);
        let subs: Vec<Subscription> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| build_subscription(&schema, i as u32, s))
            .collect();
        let pst = Pst::build(schema.clone(), subs.iter().cloned(), options).unwrap();
        pst.check_invariants().map_err(TestCaseError::fail)?;
        let psg = Psg::compile(&pst);
        prop_assert!(psg.node_count() <= pst.node_count());
        let mut naive = NaiveMatcher::new(schema.clone());
        let mut gating = GatingMatcher::new(schema.clone());
        for s in &subs {
            naive.insert(s.clone()).unwrap();
            gating.insert(s.clone()).unwrap();
        }
        for values in &events {
            let event =
                Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
            let expected = naive.matches(&event);
            prop_assert_eq!(pst.matches(&event), expected.clone(), "pst");
            prop_assert_eq!(psg.matches(&event), expected.clone(), "psg");
            prop_assert_eq!(gating.matches(&event), expected, "gating");
        }
    }

    /// A random table published through the tree, the graph compiled from
    /// it and the tree over the compacted table reaches the subscribers the
    /// naive matcher does. Three subscribers share the table, so predicates
    /// cover one another and compaction has something to drop; the tree it
    /// leaves parks on tails what the full one had to burst, and the other
    /// way round.
    #[test]
    fn tree_graph_and_compacted_tree_reach_the_same_subscribers(
        shapes in subscription_strategy(),
        events in events_strategy(),
        factoring in 0usize..3,
        tte in any::<bool>(),
    ) {
        let schema = schema();
        let options = PstOptions::default()
            .with_factoring(factoring)
            .with_trivial_test_elimination(tte);
        let subs: Vec<Subscription> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let sub = build_subscription(&schema, i as u32, s);
                let shared = SubscriberId::new(BrokerId::new(0), ClientId::new(i as u32 % 3));
                Subscription::new(sub.id(), shared, sub.into_predicate())
            })
            .collect();
        let (kept, dropped) = compact_subscriptions(subs.clone());
        prop_assert_eq!(kept.len() + dropped.len(), subs.len());
        let pst = Pst::build(schema.clone(), subs.iter().cloned(), options.clone()).unwrap();
        let compacted = Pst::build(schema.clone(), kept, options).unwrap();
        pst.check_invariants().map_err(TestCaseError::fail)?;
        compacted.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert!(compacted.node_count() <= pst.expanded_node_count());
        let psg = Psg::compile(&pst);
        let mut naive = NaiveMatcher::new(schema.clone());
        for s in &subs {
            naive.insert(s.clone()).unwrap();
        }
        let reached = |m: &dyn Matcher, ids: Vec<SubscriptionId>| {
            let clients = ids.iter().map(|id| m.subscription(*id).unwrap().subscriber().client);
            clients.collect::<std::collections::BTreeSet<_>>()
        };
        for values in &events {
            let event =
                Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
            let expected = naive.matches(&event);
            prop_assert_eq!(pst.matches(&event), expected.clone(), "pst");
            prop_assert_eq!(psg.matches(&event), expected.clone(), "psg");
            prop_assert_eq!(
                reached(&compacted, compacted.matches(&event)),
                reached(&naive, expected),
                "compacted"
            );
        }
    }

    /// Interleaved inserts and removes leave the PST equivalent to the
    /// oracle at every point, and removing everything empties the arena.
    #[test]
    fn mutation_sequences_stay_consistent(
        shapes in subscription_strategy(),
        events in events_strategy(),
        removal_order in proptest::collection::vec(any::<u16>(), 0..24),
        tte in any::<bool>(),
    ) {
        let schema = schema();
        let options = PstOptions::default()
            .with_factoring(1)
            .with_trivial_test_elimination(tte);
        let mut pst = Pst::new(schema.clone(), options).unwrap();
        let mut naive = NaiveMatcher::new(schema.clone());
        for (i, s) in shapes.iter().enumerate() {
            let sub = build_subscription(&schema, i as u32, s);
            pst.insert(sub.clone()).unwrap();
            naive.insert(sub).unwrap();
        }
        // Remove a pseudo-random subset.
        for (k, raw) in removal_order.iter().enumerate() {
            if shapes.is_empty() {
                break;
            }
            let id = SubscriptionId::new((*raw as usize % shapes.len()) as u32);
            prop_assert_eq!(pst.remove(id), naive.remove(id), "removal {}", k);
            pst.check_invariants().map_err(TestCaseError::fail)?;
            if let Some(values) = events.first() {
                let event =
                    Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
                prop_assert_eq!(pst.matches(&event), naive.matches(&event));
            }
        }
        // Remove the rest.
        for i in 0..shapes.len() as u32 {
            let id = SubscriptionId::new(i);
            pst.remove(id);
            naive.remove(id);
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
