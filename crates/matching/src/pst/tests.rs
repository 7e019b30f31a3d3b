use linkcast_types::{
    parse_predicate, AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, SubscriberId,
    Subscription, SubscriptionId, Value, ValueKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{MatchStats, Matcher, MatcherError, OrderPolicy, Pst, PstOptions};

/// The brute-force answer: every predicate of `live` evaluated against
/// `event`, the ids that hold in order.
fn brute_force<'a>(
    live: impl IntoIterator<Item = &'a Subscription>,
    event: &Event,
) -> Vec<SubscriptionId> {
    let matched = live.into_iter().filter(|s| s.predicate().matches(event));
    let mut ids: Vec<SubscriptionId> = matched.map(Subscription::id).collect();
    ids.sort_unstable();
    ids
}

/// Five integer attributes a1..a5, like paper Figure 2.
fn figure2_schema() -> EventSchema {
    let mut b = EventSchema::builder("fig2");
    for name in ["a1", "a2", "a3", "a4", "a5"] {
        b = b.attribute_with_domain(name, ValueKind::Int, (0..5).map(Value::Int));
    }
    b.build().unwrap()
}

fn subscriber(id: u32) -> SubscriberId {
    SubscriberId::new(BrokerId::new(0), ClientId::new(id))
}

/// `tests[i] = Some(v)` means `a{i+1} = v`; `None` means `*`.
fn int_sub(schema: &EventSchema, id: u32, tests: &[Option<i64>]) -> Subscription {
    let tests = tests
        .iter()
        .map(|t| match t {
            Some(v) => AttrTest::Eq(Value::Int(*v)),
            None => AttrTest::Any,
        })
        .collect::<Vec<_>>();
    Subscription::new(
        SubscriptionId::new(id),
        subscriber(id),
        Predicate::from_tests(schema, tests).unwrap(),
    )
}

fn int_event(schema: &EventSchema, values: &[i64]) -> Event {
    Event::from_values(schema, values.iter().map(|v| Value::Int(*v))).unwrap()
}

fn ids(v: &[u32]) -> Vec<SubscriptionId> {
    v.iter().map(|i| SubscriptionId::new(*i)).collect()
}

#[test]
fn figure2_event_matches_four_predicates() {
    // Mirrors the shape of paper Figure 2: the event <1,2,3,1,2> visits
    // value and * branches in parallel and matches exactly four
    // subscription predicates.
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    let subs: &[&[Option<i64>]] = &[
        &[None, Some(2), None, Some(1), Some(2)],    // 0: matches
        &[None, None, Some(3), None, None],          // 1: matches
        &[Some(1), None, None, None, Some(2)],       // 2: matches
        &[Some(1), Some(2), Some(3), None, None],    // 3: matches
        &[Some(1), Some(2), Some(3), None, Some(3)], // 4: a5 differs
        &[None, Some(1), None, None, None],          // 5: a2 differs
        &[Some(2), None, None, None, None],          // 6: a1 differs
    ];
    for (i, tests) in subs.iter().enumerate() {
        pst.insert(int_sub(&schema, i as u32, tests)).unwrap();
    }
    let event = int_event(&schema, &[1, 2, 3, 1, 2]);
    assert_eq!(pst.matches(&event), ids(&[0, 1, 2, 3]));
}

#[test]
fn empty_tree_matches_nothing() {
    let schema = figure2_schema();
    let pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    assert!(pst
        .matches(&int_event(&schema, &[0, 0, 0, 0, 0]))
        .is_empty());
    assert_eq!(pst.len(), 0);
    assert!(pst.is_empty());
    assert_eq!(pst.node_count(), 0);
}

#[test]
fn duplicate_predicates_share_a_leaf() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    let tests: &[Option<i64>] = &[Some(1), None, None, None, None];
    pst.insert(int_sub(&schema, 0, tests)).unwrap();
    let nodes_before = pst.node_count();
    pst.insert(int_sub(&schema, 1, tests)).unwrap();
    assert_eq!(pst.node_count(), nodes_before, "second path must be shared");
    let event = int_event(&schema, &[1, 0, 0, 0, 0]);
    assert_eq!(pst.matches(&event), ids(&[0, 1]));
}

#[test]
fn insert_validates_duplicates_and_arity() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    pst.insert(int_sub(&schema, 0, &[None; 5])).unwrap();
    assert!(matches!(
        pst.insert(int_sub(&schema, 0, &[None; 5])),
        Err(MatcherError::DuplicateSubscription(_))
    ));
    let other = EventSchema::builder("o")
        .attribute("x", ValueKind::Int)
        .build()
        .unwrap();
    let bad = Subscription::new(
        SubscriptionId::new(9),
        subscriber(9),
        Predicate::match_all(&other),
    );
    assert!(matches!(
        pst.insert(bad),
        Err(MatcherError::SchemaMismatch { .. })
    ));
}

#[test]
fn removal_prunes_nodes_and_reports_freed() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    pst.insert(int_sub(&schema, 0, &[Some(1), Some(2), None, None, None]))
        .unwrap();
    pst.insert(int_sub(&schema, 1, &[Some(1), Some(3), None, None, None]))
        .unwrap();
    let before = pst.node_count();
    assert_eq!(before, 4, "root, the a1=1 node, one tail per a2 value");
    let report = pst.remove_reported(SubscriptionId::new(1)).unwrap();
    // The paths diverge after the a1=1 node: the a2=3 suffix (one tail,
    // standing for four nodes) dies, cut off the second equality edge of
    // the two-node surviving prefix.
    let path = &report.paths()[0];
    assert_eq!(path.freed.len(), 1);
    assert_eq!(path.nodes.len(), 2);
    assert_eq!(path.removed, Some(AttrTest::Eq(Value::Int(3))));
    assert_eq!(pst.node_count(), before - 1);
    assert_eq!(pst.expanded_node_count(), 2 + 4);
    assert!(!pst.remove(SubscriptionId::new(1)));
    let event = int_event(&schema, &[1, 2, 0, 0, 0]);
    assert_eq!(pst.matches(&event), ids(&[0]));

    // Removing the last subscription empties the arena entirely.
    pst.remove(SubscriptionId::new(0));
    assert_eq!(pst.node_count(), 0);
    assert_eq!(pst.roots().count(), 0);
}

#[test]
fn removed_node_ids_are_reused() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    pst.insert(int_sub(&schema, 0, &[Some(1), None, None, None, None]))
        .unwrap();
    let size = pst.arena_size();
    pst.remove(SubscriptionId::new(0));
    pst.insert(int_sub(&schema, 1, &[Some(2), None, None, None, None]))
        .unwrap();
    assert_eq!(pst.arena_size(), size, "freed ids must be recycled");
}

#[test]
fn range_tests_branch_correctly() {
    let schema = EventSchema::builder("trades")
        .attribute("issue", ValueKind::Str)
        .attribute("price", ValueKind::Dollar)
        .attribute("volume", ValueKind::Int)
        .build()
        .unwrap();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    let sub = |id: u32, expr: &str| {
        Subscription::new(
            SubscriptionId::new(id),
            subscriber(id),
            parse_predicate(&schema, expr).unwrap(),
        )
    };
    pst.insert(sub(0, r#"issue = "IBM" & price < 120.00 & volume > 1000"#))
        .unwrap();
    pst.insert(sub(1, r#"price between 100.00 and 130.00"#))
        .unwrap();
    pst.insert(sub(2, r#"issue = "IBM" & price >= 120.00"#))
        .unwrap();

    let ev = |issue: &str, cents: i64, volume: i64| {
        Event::from_values(
            &schema,
            [Value::str(issue), Value::Dollar(cents), Value::Int(volume)],
        )
        .unwrap()
    };
    assert_eq!(pst.matches(&ev("IBM", 11950, 3000)), ids(&[0, 1]));
    assert_eq!(pst.matches(&ev("IBM", 12000, 3000)), ids(&[1, 2]));
    assert_eq!(pst.matches(&ev("HP", 10000, 1)), ids(&[1]));
    assert_eq!(pst.matches(&ev("HP", 9999, 1)), ids(&[]));
}

#[test]
fn identical_range_labels_share_an_edge() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    let range_sub = |id: u32, last: Option<i64>| {
        let mut tests = vec![
            AttrTest::Gt(Value::Int(2)),
            AttrTest::Any,
            AttrTest::Any,
            AttrTest::Any,
        ];
        tests.push(match last {
            Some(v) => AttrTest::Eq(Value::Int(v)),
            None => AttrTest::Any,
        });
        Subscription::new(
            SubscriptionId::new(id),
            subscriber(id),
            Predicate::from_tests(&schema, tests).unwrap(),
        )
    };
    pst.insert(range_sub(0, Some(1))).unwrap();
    assert_eq!(pst.node_count(), 1, "alone, a subscription is one tail");
    let logical = pst.expanded_node_count();
    pst.insert(range_sub(1, Some(2))).unwrap();
    // Shares the `a1 > 2` edge, the three `*` levels, and the a5 test
    // node, all of which the burst made real; only the new a5=2 leaf is
    // added to the tree the tails stand for.
    assert_eq!(pst.expanded_node_count(), logical + 1);
    assert_eq!(pst.node_count(), logical + 1, "nothing left to abbreviate");
    pst.insert(range_sub(2, Some(3))).unwrap();
    assert_eq!(pst.node_count(), logical + 2);
    assert_eq!(
        pst.matches(&int_event(&schema, &[3, 0, 0, 0, 1])),
        ids(&[0])
    );
    assert_eq!(
        pst.matches(&int_event(&schema, &[3, 0, 0, 0, 2])),
        ids(&[1])
    );
    assert_eq!(pst.matches(&int_event(&schema, &[2, 0, 0, 0, 1])), ids(&[]));
}

/// Range edges are kept in the range order whatever the insertion order:
/// an insert lands at its sorted position; a duplicate label reuses its
/// edge; a removal reports the label it cut, and the rest keep their order
/// (invariant 7).
#[test]
fn range_edges_stay_in_the_range_order() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    // Descending lower bounds, `>` then `>=` then `between` (by descending
    // upper bound) at a tie; then descending upper bounds, `<=` first.
    let sorted: Vec<&str> = ("> 5|>= 5|between 5 and 9|between 5 and 6|> 2|>= 2")
        .split('|')
        .chain("between 2 and 3|>= -1|<= 7|< 7|<= 0|< -4".split('|'))
        .collect();
    let sub = |id: usize| {
        let predicate = parse_predicate(&schema, &format!("a1 {}", sorted[id % 100]));
        Subscription::new(
            SubscriptionId::new(id as u32),
            subscriber(id as u32),
            predicate.unwrap(),
        )
    };
    let labels = |live: &[usize]| -> Vec<AttrTest> {
        live.iter()
            .map(|&i| sub(i).predicate().tests()[0].clone())
            .collect()
    };
    let root_labels = |pst: &Pst| -> Vec<AttrTest> {
        let (_, root) = pst.roots().next().unwrap();
        let edges = pst.node(root).range_edges();
        edges.iter().map(|(test, _)| test.clone()).collect()
    };

    // Inserted in a scrambled order: the first is a lone tail, the second
    // bursts it, every later one lands in the middle or at an end.
    let mut live: Vec<usize> = Vec::new();
    for i in (0..sorted.len()).map(|i| i * 5 % sorted.len()) {
        let report = pst.insert_reported(sub(i)).unwrap();
        live.push(i);
        live.sort_unstable();
        let path = &report.paths()[0];
        if live.len() > 1 {
            let at = live.iter().position(|&j| j == i).unwrap();
            let (_, root) = pst.roots().next().unwrap();
            let newcomer = pst.node(root).range_edges()[at].1;
            assert_eq!(newcomer, path.nodes[1], "{}", sorted[i]);
            assert_eq!(root_labels(&pst), labels(&live));
        }
        pst.check_invariants().unwrap();
    }

    // A duplicate label reuses its edge.
    let before = pst.node_count();
    pst.insert(sub(107)).unwrap();
    assert_eq!(
        (pst.node_count(), root_labels(&pst)),
        (before, labels(&live))
    );
    assert!(pst.remove(SubscriptionId::new(107)));

    // Remove every third, then everything, checking order each time.
    let thirds = (0..sorted.len()).filter(|i| i % 3 == 1);
    let rest = (0..sorted.len()).filter(|i| i % 3 != 1);
    for gone in thirds.chain(rest) {
        let report = pst.remove_reported(SubscriptionId::new(gone as u32));
        let at = live.iter().position(|&i| i == gone).unwrap();
        live.remove(at);
        if !live.is_empty() {
            let removed = report.unwrap().paths()[0].removed.clone();
            assert_eq!(removed, Some(labels(&[gone])[0].clone()));
            assert_eq!(root_labels(&pst), labels(&live));
        }
        pst.check_invariants().unwrap();
    }
    assert!(pst.is_empty());
}

#[test]
fn factoring_replicates_star_subscriptions() {
    let schema = figure2_schema();
    let options = PstOptions::default().with_factoring(1);
    let mut pst = Pst::new(schema.clone(), options).unwrap();
    // a1 = * → replicated into all five a1-value subtrees.
    pst.insert(int_sub(&schema, 0, &[None, Some(2), None, None, None]))
        .unwrap();
    pst.insert(int_sub(&schema, 1, &[Some(1), Some(2), None, None, None]))
        .unwrap();
    assert_eq!(pst.roots().count(), 5);
    for a1 in 0..5 {
        let got = pst.matches(&int_event(&schema, &[a1, 2, 0, 0, 0]));
        if a1 == 1 {
            assert_eq!(got, ids(&[0, 1]));
        } else {
            assert_eq!(got, ids(&[0]));
        }
    }
    // Removal cleans up every replica.
    pst.remove(SubscriptionId::new(0));
    pst.remove(SubscriptionId::new(1));
    assert_eq!(pst.node_count(), 0);
    assert_eq!(pst.roots().count(), 0);
}

#[test]
fn factoring_requires_domains() {
    let schema = EventSchema::builder("s")
        .attribute("free", ValueKind::Str) // no domain
        .attribute("b", ValueKind::Int)
        .build()
        .unwrap();
    let err = Pst::new(schema, PstOptions::default().with_factoring(1)).unwrap_err();
    assert!(matches!(err, MatcherError::InvalidOptions(_)));
}

#[test]
fn factoring_with_range_test_selects_matching_domain_values() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default().with_factoring(1)).unwrap();
    let tests = vec![
        AttrTest::Ge(Value::Int(3)),
        AttrTest::Any,
        AttrTest::Any,
        AttrTest::Any,
        AttrTest::Any,
    ];
    pst.insert(Subscription::new(
        SubscriptionId::new(0),
        subscriber(0),
        Predicate::from_tests(&schema, tests).unwrap(),
    ))
    .unwrap();
    // Domain is 0..5, so the subscription lands in subtrees 3 and 4 only.
    assert_eq!(pst.roots().count(), 2);
    assert_eq!(
        pst.matches(&int_event(&schema, &[3, 0, 0, 0, 0])),
        ids(&[0])
    );
    assert_eq!(
        pst.matches(&int_event(&schema, &[4, 0, 0, 0, 0])),
        ids(&[0])
    );
    assert!(pst
        .matches(&int_event(&schema, &[2, 0, 0, 0, 0]))
        .is_empty());
}

#[test]
fn trivial_test_elimination_reduces_steps_not_results() {
    let schema = figure2_schema();
    // Subscription caring only about a5 forces a *-chain through a1..a4.
    let subs = vec![
        int_sub(&schema, 0, &[None, None, None, None, Some(1)]),
        int_sub(&schema, 1, &[None, None, None, None, Some(2)]),
    ];
    let plain = Pst::build(
        schema.clone(),
        subs.clone(),
        PstOptions::default().with_trivial_test_elimination(false),
    )
    .unwrap();
    let skipping = Pst::build(schema.clone(), subs, PstOptions::default()).unwrap();
    let event = int_event(&schema, &[0, 0, 0, 0, 1]);
    let mut s_plain = MatchStats::new();
    let mut s_skip = MatchStats::new();
    assert_eq!(
        plain.matches_with_stats(&event, &mut s_plain),
        skipping.matches_with_stats(&event, &mut s_skip)
    );
    // Plain visits the 4-node *-chain plus root and two leaves; the
    // skipping tree jumps straight from the root's *-chain to the a5 test.
    assert!(
        s_skip.steps < s_plain.steps,
        "expected fewer steps, got {} vs {}",
        s_skip.steps,
        s_plain.steps
    );
}

#[test]
fn skip_pointers_survive_mutation() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    pst.insert(int_sub(&schema, 0, &[None, None, None, None, Some(1)]))
        .unwrap();
    // This insert branches at a3, invalidating the chain's skips above it.
    pst.insert(int_sub(&schema, 1, &[None, None, Some(3), None, None]))
        .unwrap();
    assert_eq!(
        pst.matches(&int_event(&schema, &[0, 0, 3, 0, 1])),
        ids(&[0, 1])
    );
    assert_eq!(
        pst.matches(&int_event(&schema, &[0, 0, 0, 0, 1])),
        ids(&[0])
    );
    // Removing the brancher restores a pure chain; matching must still work.
    pst.remove(SubscriptionId::new(1));
    assert_eq!(
        pst.matches(&int_event(&schema, &[0, 0, 3, 0, 1])),
        ids(&[0])
    );
}

#[test]
fn explicit_order_changes_tree_shape_not_semantics() {
    let schema = figure2_schema();
    let subs = vec![
        int_sub(&schema, 0, &[Some(1), None, None, None, Some(2)]),
        int_sub(&schema, 1, &[None, Some(2), Some(3), None, None]),
        int_sub(&schema, 2, &[None, None, None, Some(1), None]),
    ];
    let forward = Pst::build(schema.clone(), subs.clone(), PstOptions::default()).unwrap();
    let reversed = Pst::build(
        schema.clone(),
        subs,
        PstOptions::default().with_order(OrderPolicy::Explicit(vec![4, 3, 2, 1, 0])),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..100 {
        let vals: Vec<i64> = (0..5).map(|_| rng.random_range(0..5)).collect();
        let event = int_event(&schema, &vals);
        assert_eq!(forward.matches(&event), reversed.matches(&event));
    }
}

#[test]
fn fewest_stars_first_order_reduces_steps_on_skewed_workload() {
    let schema = figure2_schema();
    let mut rng = StdRng::seed_from_u64(1);
    // a5 is always constrained, a1..a4 almost never: the heuristic should
    // put a5 at the root where it immediately splits the tree.
    let mut subs = Vec::new();
    for i in 0..200u32 {
        let mut tests: Vec<Option<i64>> = (0..4)
            .map(|_| {
                if rng.random_bool(0.05) {
                    Some(rng.random_range(0..5))
                } else {
                    None
                }
            })
            .collect();
        tests.push(Some(rng.random_range(0..5)));
        subs.push(int_sub(&schema, i, &tests));
    }
    let schema_order = Pst::build(schema.clone(), subs.clone(), PstOptions::default()).unwrap();
    let heuristic = Pst::build(
        schema.clone(),
        subs,
        PstOptions::default().with_order(OrderPolicy::FewestStarsFirst),
    )
    .unwrap();
    assert_eq!(heuristic.order()[0], 4, "a5 should be tested first");

    let mut steps_schema = MatchStats::new();
    let mut steps_heuristic = MatchStats::new();
    for _ in 0..100 {
        let vals: Vec<i64> = (0..5).map(|_| rng.random_range(0..5)).collect();
        let event = int_event(&schema, &vals);
        let a = schema_order.matches_with_stats(&event, &mut steps_schema);
        let b = heuristic.matches_with_stats(&event, &mut steps_heuristic);
        assert_eq!(a, b);
    }
    assert!(
        steps_heuristic.steps < steps_schema.steps,
        "heuristic {} should beat schema order {}",
        steps_heuristic.steps,
        steps_schema.steps
    );
}

#[test]
fn matches_agree_with_naive_on_random_workloads() {
    let schema = figure2_schema();
    let mut rng = StdRng::seed_from_u64(99);
    for (factoring, skip) in [(0, false), (0, true), (2, false), (2, true)] {
        let options = PstOptions::default()
            .with_factoring(factoring)
            .with_trivial_test_elimination(skip)
            .with_order(OrderPolicy::FewestStarsFirst);
        let mut subs = Vec::new();
        for i in 0..400u32 {
            let tests: Vec<Option<i64>> = (0..5)
                .map(|_| {
                    if rng.random_bool(0.5) {
                        Some(rng.random_range(0..5))
                    } else {
                        None
                    }
                })
                .collect();
            subs.push(int_sub(&schema, i, &tests));
        }
        let mut pst = Pst::build(schema.clone(), subs.clone(), options).unwrap();
        // Interleave removals to exercise pruning.
        for i in (0..400u32).step_by(7) {
            assert!(pst.remove(SubscriptionId::new(i)));
        }
        let live: Vec<&Subscription> = subs.iter().filter(|s| s.id().raw() % 7 != 0).collect();
        for _ in 0..200 {
            let vals: Vec<i64> = (0..5).map(|_| rng.random_range(0..5)).collect();
            let event = int_event(&schema, &vals);
            assert_eq!(
                pst.matches(&event),
                brute_force(live.iter().copied(), &event),
                "factoring={factoring} skip={skip}"
            );
        }
    }
}

#[test]
fn postorder_visits_children_before_parents() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    for i in 0..20u32 {
        let tests: Vec<Option<i64>> = (0..5).map(|j| Some(((i + j) % 5) as i64)).collect();
        pst.insert(int_sub(&schema, i, &tests)).unwrap();
    }
    let order = pst.postorder();
    assert_eq!(order.len(), pst.node_count());
    let position: std::collections::HashMap<_, _> =
        order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    for &id in &order {
        for child in pst.node(id).children() {
            assert!(
                position[&child] < position[&id],
                "child {child} must precede parent {id}"
            );
        }
    }
}

#[test]
fn node_refs_expose_structure() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    pst.insert(int_sub(&schema, 0, &[Some(1), None, None, None, None]))
        .unwrap();
    // Alone in the tree, the subscription is one tail at the root.
    let (key, root) = pst.roots().next().unwrap();
    assert!(key.is_empty());
    let tail = pst.node(root);
    assert!(tail.is_leaf() && tail.is_tail());
    assert_eq!((tail.level(), tail.attribute()), (0, Some(0)));
    assert_eq!(tail.children().count(), 0);
    let chain: Vec<_> = tail.residual().collect();
    assert_eq!(chain.len(), 5);
    assert_eq!(chain[0], (0, &AttrTest::Eq(Value::Int(1))));
    assert!(chain[1..].iter().all(|(_, test)| test.is_wildcard()));

    // A second one that differs at a1 makes the root real.
    pst.insert(int_sub(&schema, 1, &[Some(2), None, None, None, Some(3)]))
        .unwrap();
    let root_ref = pst.node(root);
    assert_eq!(root_ref.level(), 0);
    assert_eq!(root_ref.attribute(), Some(0));
    assert!(!root_ref.is_leaf() && !root_ref.is_tail());
    assert_eq!(root_ref.residual().count(), 0);
    assert_eq!(root_ref.eq_edges().len(), 2);
    assert!(root_ref.range_edges().is_empty());
    assert!(root_ref.star().is_none());
    assert_eq!(
        root_ref.eq_child(&Value::Int(1)),
        Some(root_ref.eq_edges()[0].1)
    );
    assert_eq!(root_ref.eq_child(&Value::Int(3)), None);

    let below = pst.node(root_ref.eq_child(&Value::Int(2)).unwrap());
    assert!(below.is_tail());
    assert_eq!((below.level(), below.attribute()), (1, Some(1)));
    assert_eq!(below.residual().len(), 4);
    assert_eq!(
        below.residual().next_back(),
        Some((4, &AttrTest::Eq(Value::Int(3))))
    );
    assert_eq!(below.subscription_ids(), &[SubscriptionId::new(1)]);
    assert!(format!("{:?}", below).contains("level"));

    // A twin that differs at the last level only makes the chain real down
    // to a leaf proper on either side.
    pst.insert(int_sub(&schema, 2, &[Some(2), None, None, None, Some(4)]))
        .unwrap();
    let mut id = pst.node(root).eq_child(&Value::Int(2)).unwrap();
    while !pst.node(id).is_leaf() {
        id = pst.node(id).children().next().unwrap();
    }
    let leaf = pst.node(id);
    assert!(!leaf.is_tail());
    assert_eq!(leaf.level(), 5);
    assert_eq!(leaf.attribute(), None);
    assert_eq!(leaf.residual().count(), 0);
    assert_eq!(leaf.subscription_ids(), &[SubscriptionId::new(1)]);
}

/// Subscriptions live in slab slots, and a tail reads its chain through
/// the slot of one subscription parked on it: the first id sits in the node
/// itself, twins go to a list beside it and come back out of it, the slot a
/// tail reads through moves to a remaining twin when its owner leaves, and a
/// vacated slot is the next one filled. Long reported paths spill, short
/// ones do not; either way they read root first.
#[test]
fn slab_slots_are_reused_and_tails_read_through_them() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    let chain = [Some(1), None, Some(2), None, Some(3)];
    let tail_of = |pst: &Pst| pst.roots().next().unwrap().1;
    let expected: Vec<_> = (int_sub(&schema, 0, &chain).predicate().tests().iter())
        .cloned()
        .enumerate()
        .collect();
    let reads = |pst: &Pst| -> Vec<(usize, AttrTest)> {
        let chain = pst.node(tail_of(pst)).residual();
        chain.map(|(attr, test)| (attr, test.clone())).collect()
    };

    // One id, inline; three, listed in order; back to one, inline again.
    pst.insert(int_sub(&schema, 5, &chain)).unwrap();
    let first = pst.node(tail_of(&pst)).residual_slot().unwrap();
    assert_eq!(pst.node(tail_of(&pst)).subscription_ids(), ids(&[5]));
    pst.insert(int_sub(&schema, 9, &chain)).unwrap();
    pst.insert(int_sub(&schema, 2, &chain)).unwrap();
    assert_eq!(pst.node(tail_of(&pst)).subscription_ids(), ids(&[2, 5, 9]));
    assert_eq!(pst.node(tail_of(&pst)).residual_slot(), Some(first));
    assert_eq!(
        pst.slot_tests(first),
        int_sub(&schema, 5, &chain).predicate().tests()
    );
    pst.check_invariants().unwrap();

    // The slot's owner leaves: the chain reads through a twin's, the same.
    assert!(pst.remove(SubscriptionId::new(5)));
    let second = pst.node(tail_of(&pst)).residual_slot().unwrap();
    assert_ne!(second, first);
    assert!(
        pst.slot_tests(first).is_empty(),
        "a vacant slot has no tests"
    );
    assert_eq!(reads(&pst), expected);
    pst.check_invariants().unwrap();
    assert!(pst.remove(SubscriptionId::new(9)));
    assert_eq!(pst.node(tail_of(&pst)).subscription_ids(), ids(&[2]));
    assert_eq!(reads(&pst), expected);
    pst.check_invariants().unwrap();

    // Vacated slots are filled last freed first, by whoever comes next:
    // the one id 9 had (handed out right after `first`), then id 5's.
    let mut slots = Vec::new();
    for (id, a1) in [(7, 2), (8, 3)] {
        let other = [Some(a1), None, None, None, None];
        let report = pst.insert_reported(int_sub(&schema, id, &other)).unwrap();
        let newcomer = *report.paths()[0].nodes.last().unwrap();
        assert_eq!(report.paths()[0].nodes.len(), 2);
        slots.extend(pst.node(newcomer).residual_slot());
    }
    assert_eq!(slots, [first + 1, first]);
    pst.insert(int_sub(&schema, 6, &chain)).unwrap();
    assert_eq!(pst.len(), 4);
    assert_eq!(pst.subscriptions().count(), 4);
    pst.check_invariants().unwrap();
    for id in [2, 6, 7, 8] {
        assert_eq!(
            pst.subscription(SubscriptionId::new(id))
                .unwrap()
                .id()
                .raw(),
            id
        );
        assert!(pst.remove(SubscriptionId::new(id)));
        pst.check_invariants().unwrap();
    }
    assert_eq!((pst.len(), pst.node_count()), (0, 0));

    // A path deeper than a report keeps inline: fourteen levels, two twins
    // that part ways at the last.
    let mut deep = EventSchema::builder("deep");
    for k in 0..14 {
        deep = deep.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let deep = deep.build().unwrap();
    let mut pst = Pst::new(deep.clone(), PstOptions::default()).unwrap();
    let mut tests = vec![Some(1); 14];
    pst.insert(int_sub(&deep, 0, &tests)).unwrap();
    tests[13] = Some(2);
    let report = pst.insert_reported(int_sub(&deep, 1, &tests)).unwrap();
    let path = &report.paths()[0];
    assert_eq!(path.nodes.len(), 15);
    assert_eq!(path.nodes[0], pst.roots().next().unwrap().1);
    assert!(path
        .nodes
        .windows(2)
        .all(|pair| { pst.node(pair[0]).children().any(|child| child == pair[1]) }));
    let report = pst.remove_reported(SubscriptionId::new(1)).unwrap();
    assert_eq!(report.paths()[0].nodes.len(), 14, "the leaf was pruned");
    assert_eq!(report.paths()[0].freed.len(), 1);
    pst.check_invariants().unwrap();
}

#[test]
fn match_all_subscription_reaches_every_event() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    pst.insert(Subscription::new(
        SubscriptionId::new(0),
        subscriber(0),
        Predicate::match_all(&schema),
    ))
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let vals: Vec<i64> = (0..5).map(|_| rng.random_range(0..5)).collect();
        assert_eq!(pst.matches(&int_event(&schema, &vals)), ids(&[0]));
    }
}

#[test]
fn steps_grow_sublinearly_in_subscriptions() {
    // The paper's analytical result: PST matching cost grows less than
    // linearly with the subscription count. Verify the trend on a random
    // workload: 10× the subscriptions must cost well under 10× the steps.
    let schema = figure2_schema();
    let mut rng = StdRng::seed_from_u64(11);
    let make_subs = |n: u32, rng: &mut StdRng| -> Vec<Subscription> {
        (0..n)
            .map(|i| {
                let tests: Vec<Option<i64>> = (0..5)
                    .map(|_| {
                        if rng.random_bool(0.7) {
                            Some(rng.random_range(0..5))
                        } else {
                            None
                        }
                    })
                    .collect();
                int_sub(&schema, i, &tests)
            })
            .collect()
    };
    let small = Pst::build(
        schema.clone(),
        make_subs(100, &mut rng),
        PstOptions::default(),
    )
    .unwrap();
    let large = Pst::build(
        schema.clone(),
        make_subs(1000, &mut rng),
        PstOptions::default(),
    )
    .unwrap();
    let mut s_small = MatchStats::new();
    let mut s_large = MatchStats::new();
    for _ in 0..200 {
        let vals: Vec<i64> = (0..5).map(|_| rng.random_range(0..5)).collect();
        let event = int_event(&schema, &vals);
        small.matches_with_stats(&event, &mut s_small);
        large.matches_with_stats(&event, &mut s_large);
    }
    let ratio = s_large.steps as f64 / s_small.steps as f64;
    assert!(
        ratio < 6.0,
        "10x subscriptions should cost well under 10x steps, got {ratio:.2}x"
    );
}

#[test]
fn summary_reports_structure() {
    let schema = figure2_schema();
    let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
    assert_eq!(pst.summary(), crate::PstSummary::default());

    pst.insert(int_sub(&schema, 0, &[Some(1), None, None, None, Some(2)]))
        .unwrap();
    pst.insert(int_sub(&schema, 1, &[Some(1), None, None, None, Some(3)]))
        .unwrap();
    let s = pst.summary();
    assert_eq!(s.subscriptions, 2);
    assert_eq!(s.subtrees, 1);
    assert_eq!(s.leaves, 2);
    assert_eq!(s.leaf_entries, 2);
    // Shared path: root --1--> n --*--> n --*--> n --*--> a5-test, then two
    // value leaves.
    assert_eq!(s.nodes, 7);
    assert_eq!(s.eq_edges, 3); // a1=1, a5=2, a5=3
    assert_eq!(s.star_edges, 3);
    assert_eq!(s.range_edges, 0);
    assert_eq!(s.trivial_nodes, 3, "the *-chain between a1 and a5");

    // Factoring replicates a starred subscription across subtrees.
    let options = PstOptions::default().with_factoring(1);
    let mut factored = Pst::new(schema.clone(), options).unwrap();
    factored
        .insert(int_sub(&schema, 0, &[None, Some(2), None, None, None]))
        .unwrap();
    let s = factored.summary();
    assert_eq!(s.subscriptions, 1);
    assert_eq!(s.subtrees, 5);
    assert_eq!(s.leaf_entries, 5, "one replica per a1 value");
}

/// The tree with every chain spelled out, built the obvious way: the
/// witness for what a search over tails must find and be charged.
#[derive(Default)]
struct Spelled {
    children: Vec<(AttrTest, Spelled)>,
    subs: Vec<SubscriptionId>,
}

impl Spelled {
    fn insert(&mut self, tests: &[&AttrTest], id: SubscriptionId) {
        let Some((first, rest)) = tests.split_first() else {
            self.subs.push(id);
            return;
        };
        let at = self.children.iter().position(|(label, _)| label == *first);
        let at = at.unwrap_or_else(|| {
            self.children.push(((*first).clone(), Spelled::default()));
            self.children.len() - 1
        });
        self.children[at].1.insert(rest, id);
    }

    /// `Pst::visit`, node for node.
    fn visit(
        &self,
        values: &[&Value],
        skipping: bool,
        stats: &mut MatchStats,
        out: &mut Vec<SubscriptionId>,
    ) {
        if let ([(AttrTest::Any, only)], true) = (self.children.as_slice(), skipping) {
            return only.visit(&values[1..], skipping, stats, out);
        }
        stats.steps += 1;
        let Some((value, rest)) = values.split_first() else {
            stats.leaf_hits += 1;
            out.extend_from_slice(&self.subs);
            return;
        };
        stats.comparisons += 1 + range_lookup_cost(self.children.iter().map(|(l, _)| l), value);
        for (label, child) in &self.children {
            if label.matches(value) {
                child.visit(rest, skipping, stats, out);
            }
        }
    }
}

/// What looking `value` up among the range tests of `labels` costs: a
/// binary search over the lower-bounded ones and one over the
/// upper-bounded ones, `⌈log₂ n⌉ + 1` probes each over `n > 0` labels,
/// and the upper bound of every `between` whose lower bound holds.
fn range_lookup_cost<'a>(labels: impl Iterator<Item = &'a AttrTest>, value: &Value) -> u64 {
    let probes = |n: usize| (n > 0).then(|| (n as f64).log2().ceil() as u64 + 1);
    let ranges: Vec<_> = labels
        .filter(|l| !l.is_wildcard() && !l.is_equality())
        .collect();
    let upper = ranges
        .iter()
        .filter(|l| matches!(l, AttrTest::Lt(_) | AttrTest::Le(_)));
    let upper = upper.count();
    let found = |l: &&&AttrTest| matches!(l, AttrTest::Between(lo, _) if lo <= value);
    let betweens = ranges.iter().filter(found).count() as u64;
    probes(ranges.len() - upper).unwrap_or(0) + probes(upper).unwrap_or(0) + betweens
}

/// A tail is the chain it abbreviates. Two predicates that part ways at
/// level `k` — for every `k`, with an equality, a range or `*` on either
/// side of the fork — and a twin of the first go into the tree in every
/// order and out again in every order, under factoring 0/1/2 with trivial
/// test elimination off and on. `a3` declares the domain its one range
/// test exhausts. After every step the matches are the naive matcher's for
/// every event, and the steps, comparisons and leaf hits those of a search
/// over the spelled-out tree; and whatever the order, two subscriptions
/// that differ at level `k` leave exactly the levels down to `k` real.
#[test]
fn bursts_at_every_depth_in_every_order_match_the_spelled_out_tree() {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut b = EventSchema::builder("matrix");
    for name in ["a1", "a2", "a3", "a4", "a5"] {
        b = b.attribute_with_domain(name, ValueKind::Int, (0..3).map(Value::Int));
    }
    let schema = b.build().unwrap();
    let int = Value::Int;
    let base = [
        AttrTest::Eq(int(1)),
        AttrTest::Any,
        AttrTest::Ge(int(0)),
        AttrTest::Eq(int(1)),
        AttrTest::Lt(int(2)),
    ];
    let forks = [
        AttrTest::Eq(int(2)),
        AttrTest::Eq(int(0)),
        AttrTest::Eq(int(1)),
        AttrTest::Any,
        AttrTest::Ge(int(1)),
    ];
    // Interpreted execution is ~100x slower: fewer events, the same shapes.
    let span = if cfg!(miri) { 1..3 } else { 0..3 };
    let mut events = vec![Vec::new()];
    for _ in 0..5 {
        let longer = |e: &Vec<i64>| {
            span.clone()
                .map(|v| [e.as_slice(), &[v]].concat())
                .collect::<Vec<_>>()
        };
        events = events.iter().flat_map(longer).collect();
    }
    let events: Vec<Event> = events.iter().map(|v| int_event(&schema, v)).collect();

    for (k, fork) in forks.iter().enumerate() {
        let mut other = base.clone();
        other[k] = fork.clone();
        let predicates = [&base, &other, &base];
        let sub = |i: usize| {
            let tests = predicates[i].to_vec();
            let predicate = Predicate::from_tests(&schema, tests).unwrap();
            Subscription::new(
                SubscriptionId::new(i as u32),
                subscriber(i as u32),
                predicate,
            )
        };
        for (factoring, skipping) in [(0, false), (0, true), (1, false), (1, true), (2, true)] {
            let options = PstOptions::default()
                .with_factoring(factoring)
                .with_trivial_test_elimination(skipping);
            for (inserts, removes) in ORDERS
                .iter()
                .flat_map(|i| ORDERS.iter().map(move |r| (i, r)))
            {
                let context =
                    format!("k={k} factoring={factoring} tte={skipping} {inserts:?} {removes:?}");
                let mut pst = Pst::new(schema.clone(), options.clone()).unwrap();
                let mut live: Vec<usize> = Vec::new();
                let steps = inserts.iter().map(|i| (true, *i));
                for (insert, i) in steps.chain(removes.iter().map(|i| (false, *i))) {
                    if insert {
                        pst.insert(sub(i)).unwrap();
                        live.push(i);
                    } else {
                        assert!(pst.remove(SubscriptionId::new(i as u32)), "{context}");
                        live.retain(|l| *l != i);
                    }
                    let live_subs: Vec<Subscription> = live.iter().map(|i| sub(*i)).collect();
                    pst.check_invariants()
                        .unwrap_or_else(|e| panic!("{context}: {e}"));
                    if factoring == 0 && insert && live.contains(&1) && live.len() > 1 {
                        // Root to fork, then a tail (or leaf) either side.
                        assert_eq!(pst.node_count(), k + 3, "{context}");
                        assert_eq!(pst.expanded_node_count(), 6 + 5 - k, "{context}");
                    }
                    for event in &events {
                        let mut stats = MatchStats::new();
                        let got = pst.matches_with_stats(event, &mut stats);
                        assert_eq!(got, brute_force(&live_subs, event), "{context}: {event}");

                        let (keyed, walked) = event.values().split_at(factoring);
                        let mut spelled = Spelled::default();
                        for i in &live {
                            let (key, tests) = predicates[*i].split_at(factoring);
                            if key
                                .iter()
                                .zip(keyed)
                                .all(|(test, value)| test.matches(value))
                            {
                                let tests: Vec<&AttrTest> = tests.iter().collect();
                                spelled.insert(&tests, SubscriptionId::new(*i as u32));
                            }
                        }
                        let mut expected = MatchStats::new();
                        expected.events = 1;
                        if !spelled.children.is_empty() || !spelled.subs.is_empty() {
                            let walked: Vec<&Value> = walked.iter().collect();
                            spelled.visit(&walked, skipping, &mut expected, &mut Vec::new());
                        }
                        assert_eq!(stats, expected, "{context}: {event}");
                    }
                }
                assert_eq!(pst.node_count(), 0, "{context}");
            }
        }
    }
}
