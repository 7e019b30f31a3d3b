//! In-crate tests for the link-matching engine and routers.

use linkcast_matching::{MatchStats, OrderPolicy, PstOptions};
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, LinkId, Predicate, Subscription, Trit, Value,
    ValueKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    BrokerNetwork, ContentRouter, LinkMatchEngine, LinkSpace, NetworkBuilder, RoutingFabric,
    SpanningTree, TreeId,
};

/// The brute-force oracle, as the root `tests/oracle` module has it: every
/// live predicate evaluated against the event, each match mapped to the
/// link its subscriber sits behind on `tree` — the client's own link at its
/// home broker, else the link to the child whose subtree holds that home.
/// No PST, no annotations, no link space.
fn oracle_links<'a>(
    network: &BrokerNetwork,
    tree: &SpanningTree,
    broker: BrokerId,
    live: impl IntoIterator<Item = &'a Subscription>,
    event: &Event,
) -> Vec<LinkId> {
    if !tree.contains(broker) {
        return Vec::new();
    }
    let links: std::collections::BTreeSet<LinkId> = (live.into_iter())
        .filter(|sub| sub.predicate().matches(event))
        .filter_map(|sub| {
            let client = sub.subscriber().client;
            let home = network.home_broker(client)?;
            if home == broker {
                return network.link_to_client(broker, client);
            }
            network.link_to_broker(broker, tree.child_toward(broker, home)?)
        })
        .collect();
    links.into_iter().collect()
}

/// One arena walk through a fresh scratch: the links and what it cost.
fn walk(engine: &LinkMatchEngine, event: &Event, tree: TreeId) -> (Vec<LinkId>, MatchStats) {
    let (mut links, mut stats) = (Vec::new(), MatchStats::new());
    engine.match_links_into(
        event,
        tree,
        &mut crate::RouteScratch::new(),
        &mut stats,
        &mut links,
    );
    (links, stats)
}

/// Three integer attributes with domain 0..3.
fn small_schema() -> EventSchema {
    small_factored(0)
}

/// [`small_schema`] with its first `levels` attributes factored.
fn small_factored(levels: usize) -> EventSchema {
    let mut b = EventSchema::builder("small");
    for name in ["x", "y", "z"] {
        b = b.attribute_with_domain(name, ValueKind::Int, (0..3).map(Value::Int));
    }
    b.factored(levels).build().unwrap()
}

fn int_event(schema: &EventSchema, values: &[i64]) -> Event {
    Event::from_values(schema, values.iter().map(|v| Value::Int(*v))).unwrap()
}

fn int_predicate(schema: &EventSchema, tests: &[Option<i64>]) -> Predicate {
    Predicate::from_tests(
        schema,
        tests.iter().map(|t| match t {
            Some(v) => AttrTest::Eq(Value::Int(*v)),
            None => AttrTest::Any,
        }),
    )
    .unwrap()
}

/// B0 - B1 - B2 line with one client per broker; publishers at B0.
fn line_fabric() -> (std::sync::Arc<RoutingFabric>, Vec<BrokerId>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(3);
    b.connect(brokers[0], brokers[1], 10.0).unwrap();
    b.connect(brokers[1], brokers[2], 10.0).unwrap();
    let clients = brokers
        .iter()
        .map(|&id| b.add_client(id).unwrap())
        .collect();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    (fabric, brokers, clients)
}

#[test]
fn engine_routes_by_subscription_location() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    // c2 (at B2) wants x=1; c0 (at B0) wants x=2; c1 (at B1) wants anything.
    router
        .subscribe(clients[2], int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    router
        .subscribe(clients[0], int_predicate(&schema, &[Some(2), None, None]))
        .unwrap();
    router
        .subscribe(clients[1], int_predicate(&schema, &[None, None, None]))
        .unwrap();

    let d = router
        .publish(brokers[0], &int_event(&schema, &[1, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![clients[1], clients[2]]);
    // B0→B1 and B1→B2: exactly two broker messages, one per link.
    assert_eq!(d.broker_messages, 2);
    assert_eq!(d.max_hops, 2);

    let d = router
        .publish(brokers[0], &int_event(&schema, &[2, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![clients[0], clients[1]]);
    // x=2 interests only B0's and B1's clients: the B1→B2 link stays idle.
    assert_eq!(d.broker_messages, 1);
}

#[test]
fn engine_annotations_distinguish_links() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    assert_eq!(space.class_count(), 1);
    let mut engine =
        LinkMatchEngine::new(brokers[0], schema.clone(), PstOptions::default(), space).unwrap();
    let sub = |id: u32, client: ClientId, tests: &[Option<i64>]| {
        let home = fabric.network().home_broker(client).unwrap();
        linkcast_types::Subscription::new(
            linkcast_types::SubscriptionId::new(id),
            linkcast_types::SubscriberId::new(home, client),
            int_predicate(&schema, tests),
        )
    };
    engine
        .subscribe(sub(0, clients[2], &[Some(1), None, None]))
        .unwrap();
    engine
        .subscribe(sub(1, clients[0], &[Some(1), None, None]))
        .unwrap();

    // B0's links: [broker B1, client c0]. The root annotation must be
    // Maybe/Maybe: whether either link gets the event depends on x. The
    // two share one tail there, which says what its chain's top would.
    let (_, root) = engine.pst().roots().next().unwrap();
    assert!(engine.pst().node(root).is_tail());
    let ann = engine.annotation(root).unwrap();
    assert_eq!(ann.get(0), Trit::Maybe);
    assert_eq!(ann.get(1), Trit::Maybe);

    // A third that differs at x makes the root real, and leaves it saying
    // the same.
    engine
        .subscribe(sub(2, clients[2], &[Some(2), None, None]))
        .unwrap();
    assert!(!engine.pst().node(root).is_leaf());
    let ann = engine.annotation(root).unwrap();
    assert_eq!(ann.get(0), Trit::Maybe);
    assert_eq!(ann.get(1), Trit::Maybe);

    // After the x=1 test the annotation (of the x=1 child) is Yes/Yes.
    let child = engine.pst().node(root).eq_child(&Value::Int(1)).unwrap();
    let ann = engine.annotation(child).unwrap();
    assert_eq!(ann.get(0), Trit::Yes);
    assert_eq!(ann.get(1), Trit::Yes);
}

#[test]
fn exhaustive_value_branches_stay_yes() {
    // Subscriptions cover the whole domain of x for the same remote client:
    // the root annotation must be a hard Yes on the remote link (no Maybe
    // degradation), thanks to the finite-domain exhaustiveness rule.
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    let mut engine =
        LinkMatchEngine::new(brokers[0], schema.clone(), PstOptions::default(), space).unwrap();
    for v in 0..3 {
        let home = fabric.network().home_broker(clients[2]).unwrap();
        engine
            .subscribe(linkcast_types::Subscription::new(
                linkcast_types::SubscriptionId::new(v as u32),
                linkcast_types::SubscriberId::new(home, clients[2]),
                int_predicate(&schema, &[Some(v), None, None]),
            ))
            .unwrap();
    }
    let (_, root) = engine.pst().roots().next().unwrap();
    let ann = engine.annotation(root).unwrap();
    let b1_link = fabric
        .network()
        .link_to_broker(brokers[0], brokers[1])
        .unwrap();
    assert_eq!(ann.get(b1_link.index()), Trit::Yes);

    // A single matching step should suffice: the mask fully refines at the
    // root.
    let tree = fabric.tree_for(brokers[0]).unwrap();
    let (links, stats) = walk(&engine, &int_event(&schema, &[0, 0, 0]), tree);
    assert_eq!(links, vec![b1_link]);
    assert_eq!(stats.steps, 1, "fully refined at the root");
}

#[test]
fn unsubscribe_reannotates() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    let id = router
        .subscribe(clients[2], int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    let event = int_event(&schema, &[1, 0, 0]);
    assert_eq!(
        router.publish(brokers[0], &event).unwrap().recipients,
        vec![clients[2]]
    );
    assert!(router.unsubscribe(id));
    assert!(!router.unsubscribe(id));
    let d = router.publish(brokers[0], &event).unwrap();
    assert!(d.recipients.is_empty());
    assert_eq!(d.broker_messages, 0, "no traffic for no subscribers");
}

#[test]
fn publishers_at_any_broker() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    router
        .subscribe(clients[0], int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    // Publishing from B2 must reach the subscriber at B0 across two hops.
    let d = router
        .publish(brokers[2], &int_event(&schema, &[1, 2, 2]))
        .unwrap();
    assert_eq!(d.recipients, vec![clients[0]]);
    assert_eq!(d.max_hops, 2);
}

/// Builds a random tree-shaped broker network with 2 clients per broker.
fn random_tree_network(
    rng: &mut StdRng,
    brokers: usize,
) -> (std::sync::Arc<RoutingFabric>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let ids = b.add_brokers(brokers);
    for i in 1..brokers {
        let parent = rng.random_range(0..i);
        b.connect(ids[i], ids[parent], 1.0 + rng.random_range(0..50) as f64)
            .unwrap();
    }
    let mut clients = Vec::new();
    for &id in &ids {
        clients.extend(b.add_clients(id, 2).unwrap());
    }
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    (fabric, clients)
}

/// The golden invariant: link matching delivers to exactly the clients a
/// naive global evaluation picks, sending at most one copy per tree edge.
#[test]
fn link_matching_matches_the_oracle_on_random_tree_networks() {
    let mut rng = StdRng::seed_from_u64(2024);
    let schema = small_schema();
    for round in 0..8 {
        let (fabric, clients) = random_tree_network(&mut rng, 3 + round % 6);
        let mut link = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();

        let mut oracle: Vec<(ClientId, Predicate)> = Vec::new();
        for &client in &clients {
            for _ in 0..rng.random_range(0..3) {
                let tests: Vec<Option<i64>> = (0..3)
                    .map(|_| {
                        if rng.random_bool(0.6) {
                            Some(rng.random_range(0..3))
                        } else {
                            None
                        }
                    })
                    .collect();
                let p = int_predicate(&schema, &tests);
                link.subscribe(client, p.clone()).unwrap();
                oracle.push((client, p));
            }
        }

        for _ in 0..30 {
            let publisher =
                BrokerId::new(rng.random_range(0..fabric.network().broker_count()) as u32);
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let d_link = link.publish(publisher, &event).unwrap();

            let mut expected: Vec<ClientId> = oracle
                .iter()
                .filter(|(_, p)| p.matches(&event))
                .map(|(c, _)| *c)
                .collect();
            expected.sort_unstable();
            expected.dedup();

            assert_eq!(d_link.recipients, expected, "link matching (round {round})");

            // At most one copy per link: never more broker messages than
            // broker links (tree edges).
            let edges = fabric.network().broker_count() as u64 - 1;
            assert!(d_link.broker_messages <= edges);
        }
    }
}

/// Virtual links: on a cyclic topology, different spanning trees route the
/// same destination over different links of a broker; the class mechanism
/// must keep delivery exact from every publisher.
#[test]
fn link_matching_matches_the_oracle_on_cyclic_topologies() {
    let mut rng = StdRng::seed_from_u64(7);
    let schema = small_schema();
    // A ring of 6 brokers plus two chords.
    let mut b = NetworkBuilder::new();
    let ids = b.add_brokers(6);
    for i in 0..6 {
        b.connect(ids[i], ids[(i + 1) % 6], 10.0).unwrap();
    }
    b.connect(ids[0], ids[3], 15.0).unwrap();
    b.connect(ids[1], ids[4], 35.0).unwrap();
    let mut clients = Vec::new();
    for &id in &ids {
        clients.extend(b.add_clients(id, 2).unwrap());
    }
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    assert!(
        ids.iter()
            .any(|&id| LinkSpace::build(fabric.network(), fabric.forest(), id).class_count() > 1),
        "cycles split some broker's links into virtual-link classes"
    );

    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    let mut oracle: Vec<(ClientId, Predicate)> = Vec::new();
    for &client in &clients {
        let tests: Vec<Option<i64>> = (0..3)
            .map(|_| {
                if rng.random_bool(0.5) {
                    Some(rng.random_range(0..3))
                } else {
                    None
                }
            })
            .collect();
        let p = int_predicate(&schema, &tests);
        router.subscribe(client, p.clone()).unwrap();
        oracle.push((client, p));
    }
    for publisher in fabric.network().brokers() {
        for _ in 0..10 {
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let d = router.publish(publisher, &event).unwrap();
            let mut expected: Vec<ClientId> = oracle
                .iter()
                .filter(|(_, p)| p.matches(&event))
                .map(|(c, _)| *c)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(d.recipients, expected, "publisher {publisher}");
        }
    }
}

/// Factoring, as the schema declares it, never changes who receives an
/// event; nor does an explicit attribute order, with which each broker's
/// engine is built directly.
#[test]
fn factoring_and_ordering_options_preserve_routing() {
    let mut rng = StdRng::seed_from_u64(77);
    let schema = small_schema();
    let (fabric, clients) = random_tree_network(&mut rng, 5);
    let network = fabric.network();
    let mut routers: Vec<ContentRouter> = (0..3)
        .map(|levels| ContentRouter::new(fabric.clone(), small_factored(levels)))
        .collect::<Result<_, _>>()
        .unwrap();
    let orders = [(0, vec![2, 0, 1]), (1, vec![0, 2, 1])];
    let mut ordered: Vec<Vec<LinkMatchEngine>> = orders
        .iter()
        .map(|(levels, order)| {
            let options = PstOptions::default().with_order(OrderPolicy::Explicit(order.clone()));
            (network.brokers())
                .map(|broker| {
                    let space = LinkSpace::build(network, fabric.forest(), broker);
                    LinkMatchEngine::new(broker, small_factored(*levels), options.clone(), space)
                })
                .collect::<Result<_, _>>()
                .unwrap()
        })
        .collect();
    let mut live = Vec::new();
    for &client in &clients {
        let tests: Vec<Option<i64>> = (0..3)
            .map(|_| {
                if rng.random_bool(0.6) {
                    Some(rng.random_range(0..3))
                } else {
                    None
                }
            })
            .collect();
        let p = int_predicate(&schema, &tests);
        for r in &mut routers {
            r.subscribe(client, p.clone()).unwrap();
        }
        let home = network.home_broker(client).unwrap();
        let sub = Subscription::new(
            linkcast_types::SubscriptionId::new(live.len() as u32),
            linkcast_types::SubscriberId::new(home, client),
            p,
        );
        for engine in ordered.iter_mut().flatten() {
            engine.subscribe(sub.clone()).unwrap();
        }
        live.push(sub);
    }
    for _ in 0..40 {
        let publisher = BrokerId::new(rng.random_range(0..network.broker_count()) as u32);
        let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
        let event = int_event(&schema, &values);
        let mut expected: Vec<ClientId> = (live.iter())
            .filter(|sub| sub.predicate().matches(&event))
            .map(|sub| sub.subscriber().client)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        for (levels, r) in routers.iter().enumerate() {
            let d = r.publish(publisher, &event).unwrap();
            assert_eq!(d.recipients, expected, "{levels} factored");
        }
        let tree = fabric.tree_for(publisher).unwrap();
        let spanning = fabric.forest().tree(tree).unwrap();
        for ((_, order), engines) in orders.iter().zip(&ordered) {
            for (broker, engine) in network.brokers().zip(engines) {
                let oracle = oracle_links(network, spanning, broker, &live, &event);
                assert_eq!(
                    walk(engine, &event, tree).0,
                    oracle,
                    "{order:?} at {broker}"
                );
            }
        }
    }
}

#[test]
fn single_broker_network_degenerates_to_local_matching() {
    let schema = small_schema();
    let mut b = NetworkBuilder::new();
    let b0 = b.add_broker();
    let c0 = b.add_client(b0).unwrap();
    let c1 = b.add_client(b0).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let mut router = ContentRouter::new(fabric, schema.clone()).unwrap();
    router
        .subscribe(c0, int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    router
        .subscribe(c1, int_predicate(&schema, &[Some(2), None, None]))
        .unwrap();
    let d = router
        .publish(BrokerId::new(0), &int_event(&schema, &[1, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![c0]);
    assert_eq!(d.broker_messages, 0);
    assert_eq!(d.max_hops, 0);
    assert_eq!(router.subscription_count(), 2);
}

#[test]
fn range_subscriptions_route_correctly() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    let pred = Predicate::from_tests(
        &schema,
        [
            AttrTest::Ge(Value::Int(1)),
            AttrTest::Any,
            AttrTest::Between(Value::Int(0), Value::Int(1)),
        ],
    )
    .unwrap();
    router.subscribe(clients[2], pred).unwrap();
    assert_eq!(
        router
            .publish(brokers[0], &int_event(&schema, &[1, 0, 1]))
            .unwrap()
            .recipients,
        vec![clients[2]]
    );
    assert!(router
        .publish(brokers[0], &int_event(&schema, &[0, 0, 1]))
        .unwrap()
        .recipients
        .is_empty());
    assert!(router
        .publish(brokers[0], &int_event(&schema, &[1, 0, 2]))
        .unwrap()
        .recipients
        .is_empty());
}

#[test]
fn publishing_from_a_broker_without_a_tree_fails_cleanly() {
    let schema = small_schema();
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(2);
    b.connect(brokers[0], brokers[1], 5.0).unwrap();
    let client = b.add_client(brokers[1]).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    router
        .subscribe(client, int_predicate(&schema, &[None, None, None]))
        .unwrap();
    let event = int_event(&schema, &[0, 0, 0]);
    assert!(router.publish(brokers[1], &event).is_ok());
    // Every broker roots a tree; a broker outside the network roots none.
    let err = router.publish(BrokerId::new(2), &event).unwrap_err();
    assert!(matches!(err, crate::CoreError::Unknown(_)), "{err:?}");
}

#[test]
fn subscribing_an_unknown_client_fails_cleanly() {
    let (fabric, _, _) = line_fabric();
    let schema = small_schema();
    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    let err = router
        .subscribe(
            ClientId::new(999),
            int_predicate(&schema, &[None, None, None]),
        )
        .unwrap_err();
    assert!(matches!(err, crate::CoreError::Unknown(_)));
}

#[test]
fn transit_brokers_without_clients_forward_correctly() {
    // B0 (publisher+client) - B1 (pure transit, no clients) - B2 (client).
    let schema = small_schema();
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(3);
    b.connect(brokers[0], brokers[1], 5.0).unwrap();
    b.connect(brokers[1], brokers[2], 5.0).unwrap();
    let c0 = b.add_client(brokers[0]).unwrap();
    let c2 = b.add_client(brokers[2]).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    assert_eq!(fabric.network().clients_of(brokers[1]).len(), 0);

    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    router
        .subscribe(c2, int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    router
        .subscribe(c0, int_predicate(&schema, &[Some(2), None, None]))
        .unwrap();
    let d = router
        .publish(brokers[0], &int_event(&schema, &[1, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![c2]);
    assert_eq!(d.broker_messages, 2, "via the transit broker");
    // Publishing from the transit broker itself also works.
    let d = router
        .publish(brokers[1], &int_event(&schema, &[2, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![c0]);
}

#[test]
fn with_subscriptions_builds_annotated_engine() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    let subs: Vec<linkcast_types::Subscription> = (0..3)
        .map(|v| {
            linkcast_types::Subscription::new(
                linkcast_types::SubscriptionId::new(v as u32),
                linkcast_types::SubscriberId::new(
                    fabric.network().home_broker(clients[2]).unwrap(),
                    clients[2],
                ),
                int_predicate(&schema, &[Some(v), None, None]),
            )
        })
        .collect();
    // Built in bulk, in an order of its own.
    let engine = LinkMatchEngine::with_subscriptions(
        brokers[0],
        schema.clone(),
        PstOptions::default().with_order(OrderPolicy::Explicit(vec![1, 2, 0])),
        space,
        subs.clone(),
    )
    .unwrap();
    assert_eq!(engine.subscription_count(), 3);
    let tree = fabric.tree_for(brokers[0]).unwrap();
    let spanning = fabric.forest().tree(tree).unwrap();
    for values in [[1, 0, 0], [1, 2, 2]] {
        let event = int_event(&schema, &values);
        let (links, _) = walk(&engine, &event, tree);
        assert_eq!(links.len(), 1, "toward the subscriber's broker");
        let expected = oracle_links(fabric.network(), spanning, brokers[0], &subs, &event);
        assert_eq!(links, expected, "{values:?}");
    }
}

#[test]
fn rebuild_annotations_is_idempotent() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    let mut engine =
        LinkMatchEngine::new(brokers[0], schema.clone(), PstOptions::default(), space).unwrap();
    let home = fabric.network().home_broker(clients[2]).unwrap();
    let sub = linkcast_types::Subscription::new(
        linkcast_types::SubscriptionId::new(0),
        linkcast_types::SubscriberId::new(home, clients[2]),
        int_predicate(&schema, &[Some(1), None, None]),
    );
    engine.subscribe(sub.clone()).unwrap();
    let tree = fabric.tree_for(brokers[0]).unwrap();
    let event = int_event(&schema, &[1, 0, 0]);
    let (before, _) = walk(&engine, &event, tree);
    let spanning = fabric.forest().tree(tree).unwrap();
    let expected = oracle_links(fabric.network(), spanning, brokers[0], [&sub], &event);
    assert_eq!(before, expected);
    engine.rebuild_annotations();
    assert_eq!(walk(&engine, &event, tree).0, before);
    // Annotations exist for every live node after the rebuild.
    for id in engine.pst().postorder() {
        assert!(engine.annotation(id).is_some(), "{id} unannotated");
    }
}

/// The arena walk must send every event where the brute-force oracle does,
/// across option configs. It enters one node per run (and none for a
/// skipped trivial chain); what that comes to over each config's 40
/// events is pinned.
#[test]
fn arena_walk_agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(4242);
    let schema = small_schema();
    let configs = [
        (0, PstOptions::default()),
        (1, PstOptions::default()),
        (
            0,
            PstOptions::default().with_order(OrderPolicy::Explicit(vec![2, 0, 1])),
        ),
    ];
    let mut steps = Vec::new();
    for (ci, (levels, options)) in configs.iter().enumerate() {
        let (fabric, clients) = random_tree_network(&mut rng, 5);
        let broker = fabric.network().brokers().next().unwrap();
        let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
        let mut engine =
            LinkMatchEngine::new(broker, small_factored(*levels), options.clone(), space).unwrap();
        let mut live = Vec::new();
        for &client in &clients {
            for _ in 0..rng.random_range(0..3) {
                let tests: Vec<Option<i64>> = (0..3)
                    .map(|_| rng.random_bool(0.6).then(|| rng.random_range(0..3)))
                    .collect();
                let home = fabric.network().home_broker(client).unwrap();
                let sub = linkcast_types::Subscription::new(
                    linkcast_types::SubscriptionId::new(live.len() as u32),
                    linkcast_types::SubscriberId::new(home, client),
                    int_predicate(&schema, &tests),
                );
                engine.subscribe(sub.clone()).unwrap();
                live.push(sub);
            }
        }
        let mut scratch = crate::RouteScratch::new();
        let mut out = Vec::new();
        let mut stats = MatchStats::new();
        let tree = fabric.tree_for(broker).unwrap();
        let spanning = fabric.forest().tree(tree).unwrap();
        for _ in 0..40 {
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let expected = oracle_links(fabric.network(), spanning, broker, &live, &event);
            engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut out);
            assert_eq!(out, expected, "config {ci}, event {values:?}");
        }
        steps.push(stats.steps);
    }
    assert_eq!(steps, [294, 110, 233]);
}

/// Subscribe/unsubscribe churn: the walk over the incrementally
/// maintained tree must track the mutable PST exactly, and the generation
/// counter must tick on every mutation.
#[test]
fn arena_tracks_subscription_churn() {
    let mut rng = StdRng::seed_from_u64(1717);
    let schema = small_schema();
    let (fabric, clients) = random_tree_network(&mut rng, 4);
    let broker = fabric.network().brokers().next().unwrap();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
    let mut engine =
        LinkMatchEngine::new(broker, small_factored(1), PstOptions::default(), space).unwrap();
    let tree = fabric.tree_for(broker).unwrap();
    let spanning = fabric.forest().tree(tree).unwrap();
    let mut scratch = crate::RouteScratch::new();
    let mut out = Vec::new();
    let mut live: Vec<linkcast_types::Subscription> = Vec::new();
    let mut next_id = 0u32;
    for step in 0..200 {
        let before = engine.generation();
        if live.is_empty() || rng.random_bool(0.6) {
            let client = clients[rng.random_range(0..clients.len())];
            let tests: Vec<Option<i64>> = (0..3)
                .map(|_| rng.random_bool(0.6).then(|| rng.random_range(0..3)))
                .collect();
            let home = fabric.network().home_broker(client).unwrap();
            let sub = linkcast_types::Subscription::new(
                linkcast_types::SubscriptionId::new(next_id),
                linkcast_types::SubscriberId::new(home, client),
                int_predicate(&schema, &tests),
            );
            engine.subscribe(sub.clone()).unwrap();
            live.push(sub);
            next_id += 1;
        } else {
            let gone = live.swap_remove(rng.random_range(0..live.len()));
            assert!(engine.unsubscribe(gone.id()));
        }
        assert_eq!(engine.generation(), before + 1, "step {step}");
        for _ in 0..5 {
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let expected = oracle_links(fabric.network(), spanning, broker, &live, &event);
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut out);
            assert_eq!(out, expected, "step {step}, event {values:?}");
        }
    }
}

/// `x`, `y` with small finite domains (so value branches can exhaust them
/// and `x` can be factored), `z` open-ended (so one node can grow a long
/// range-edge list).
fn churn_schema(factored: usize) -> EventSchema {
    EventSchema::builder("churn")
        .attribute_with_domain("x", ValueKind::Int, (0..3).map(Value::Int))
        .attribute_with_domain("y", ValueKind::Int, (0..4).map(Value::Int))
        .attribute("z", ValueKind::Int)
        .factored(factored)
        .build()
        .unwrap()
}

/// Six attributes over tiny value ranges, the first two with declared
/// domains: predicates that mostly test every attribute then share long
/// prefixes and part ways mid-chain, so single-choice runs of three and
/// more nodes form, get cut and grow back.
fn deep_schema(factored: usize) -> EventSchema {
    let mut b = EventSchema::builder("deep")
        .attribute_with_domain("a", ValueKind::Int, (0..2).map(Value::Int))
        .attribute_with_domain("b", ValueKind::Int, (0..3).map(Value::Int));
    for name in ["c", "d", "e", "f"] {
        b = b.attribute(name, ValueKind::Int);
    }
    b.factored(factored).build().unwrap()
}

/// A random test over `0..domain`; `stars` in eleven come out `*`. Every
/// range kind is drawn over the same values, so `>=`, `>` and `between`
/// tie on a lower bound and `<=` and `<` on an upper one.
fn churn_test(rng: &mut StdRng, domain: i64, stars: u32) -> AttrTest {
    let v = rng.random_range(0..domain);
    match rng.random_range(0..11) {
        k if k < stars => AttrTest::Any,
        0..=5 => AttrTest::Eq(Value::Int(v)),
        6 => AttrTest::Ge(Value::Int(v)),
        7 => AttrTest::Lt(Value::Int(v)),
        8 => AttrTest::Le(Value::Int(v)),
        9 => AttrTest::Gt(Value::Int(v)),
        _ => AttrTest::Between(Value::Int(v / 2), Value::Int(v)),
    }
}

/// A node of the *logical* tree — the one every tail stands for a chain
/// of — named by the PST node that holds it and its level: a tail at level
/// `l` of a tree `d` deep holds the logical nodes `l..=d`. Restated here
/// over the public tree, as the independent witness of what the engine
/// keeps per tail: which edges the chain has, what each of its nodes is
/// annotated with, where it ends in a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Logical {
    id: linkcast_matching::NodeId,
    level: usize,
}

impl Logical {
    fn roots(engine: &LinkMatchEngine) -> Vec<(Vec<Value>, Logical)> {
        let roots = engine.pst().roots();
        let mut roots: Vec<_> = roots
            .map(|(k, id)| (k.to_vec(), Logical { id, level: 0 }))
            .collect();
        roots.sort_by(|a, b| a.0.cmp(&b.0));
        roots
    }

    /// Every logical node of `engine`'s tree.
    fn all(engine: &LinkMatchEngine) -> Vec<Logical> {
        let pst = engine.pst();
        let levels = |id| {
            let node = pst.node(id);
            let last = node.level() + node.residual().len();
            (node.level()..=last).map(move |level| Logical { id, level })
        };
        pst.postorder().into_iter().flat_map(levels).collect()
    }

    /// The chain below this level, if a tail holds it.
    fn chain(self, engine: &LinkMatchEngine) -> Vec<(usize, &AttrTest)> {
        let node = engine.pst().node(self.id);
        node.residual().skip(self.level - node.level()).collect()
    }

    /// Out-edges as `(label, child)`, `*` spelled `AttrTest::Any`:
    /// equality, range, then `*`, like [`NodeRef::children`].
    ///
    /// [`NodeRef::children`]: linkcast_matching::NodeRef::children
    fn edges(self, engine: &LinkMatchEngine) -> Vec<(AttrTest, Logical)> {
        let node = engine.pst().node(self.id);
        let child = |id| {
            let level = self.level + 1;
            Logical { id, level }
        };
        if node.is_leaf() {
            let next = self.chain(engine).first().map(|(_, test)| (*test).clone());
            return next
                .map(|test| (test, child(self.id)))
                .into_iter()
                .collect();
        }
        let eq = node.eq_edges().iter();
        let eq = eq.map(|(v, c)| (AttrTest::Eq(v.clone()), child(*c)));
        let ranges = node.range_edges().iter();
        let ranges = ranges.map(|(t, c)| (t.clone(), child(*c)));
        let star = node.star().map(|c| (AttrTest::Any, child(c)));
        eq.chain(ranges).chain(star).collect()
    }

    /// The subscriptions at this node, if it is a leaf.
    fn subscriptions(self, engine: &LinkMatchEngine) -> &[linkcast_types::SubscriptionId] {
        let node = engine.pst().node(self.id);
        if self.level == engine.pst().depth() {
            node.subscription_ids()
        } else {
            &[]
        }
    }

    /// §3.1 for this node. An interior node's annotation is the engine's
    /// own; a chain's are derived from its leaf here — the subscribers'
    /// leaf vectors under *Parallel Combine*, then per test that can fail
    /// on the way up one *Alternative Combine* with the implicit all-`No`
    /// — and must agree with the engine's where it keeps one, at the top.
    fn annotation(self, engine: &LinkMatchEngine) -> linkcast_types::TritVec {
        let pst = engine.pst();
        let node = pst.node(self.id);
        let kept = engine
            .annotation(self.id)
            .expect("live nodes are annotated");
        if !node.is_leaf() {
            return kept;
        }
        let no = linkcast_types::TritVec::no(engine.space().width());
        let mut at_leaf = no.clone();
        for sub in node.subscription_ids() {
            let client = engine.subscription(*sub).unwrap().subscriber().client;
            at_leaf = at_leaf.parallel(&engine.space().leaf_vector(client));
        }
        let can_fail = |(attr, test): &(usize, &AttrTest)| {
            let domain = pst.schema().attribute(*attr).unwrap().domain();
            !test.is_wildcard() && !domain.is_some_and(|d| d.iter().all(|v| test.matches(v)))
        };
        let demoted = |from: usize| {
            let below = node.residual().skip(from - node.level());
            if below.into_iter().any(|t| can_fail(&t)) {
                at_leaf.alternative(&no)
            } else {
                at_leaf.clone()
            }
        };
        assert_eq!(
            kept,
            demoted(node.level()),
            "{}: a tail's annotation",
            self.id
        );
        demoted(self.level)
    }
}

/// Walks two engines' logical trees in step, pairing children by edge
/// label, and requires the same shape, the same subscriptions on every
/// leaf and the same annotation on every node — whichever of the two keeps
/// a chain as real nodes and whichever as a tail.
fn assert_same_annotated_tree(a: &LinkMatchEngine, b: &LinkMatchEngine, context: &str) {
    let (ra, rb) = (Logical::roots(a), Logical::roots(b));
    assert_eq!(
        ra.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        rb.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        "{context}: factored roots"
    );
    let mut stack: Vec<_> = ra.iter().zip(&rb).map(|(x, y)| (x.1, y.1)).collect();
    while let Some((na, nb)) = stack.pop() {
        assert_eq!(
            na.annotation(a),
            nb.annotation(b),
            "{context}: annotation of {na:?} / {nb:?}"
        );
        assert_eq!(na.subscriptions(a), nb.subscriptions(b), "{context}");
        let (ea, mut eb) = (na.edges(a), nb.edges(b));
        assert_eq!(ea.len(), eb.len(), "{context}: edges under {na:?} / {nb:?}");
        for (label, ca) in ea {
            // Equality edges are sorted and `*` comes last in both; range
            // edges pair by label wherever they sit.
            let at = eb.iter().position(|(other, _)| *other == label);
            let at = at.unwrap_or_else(|| panic!("{context}: {nb:?} lacks edge {label:?}"));
            stack.push((ca, eb.remove(at).1));
        }
    }
}

/// The run rule restated over the logical tree, as the arena's independent
/// witness: per node, the child it is absorbed into (if it is) and how
/// many children it has.
fn run_shape(
    engine: &LinkMatchEngine,
) -> std::collections::HashMap<Logical, (Option<Logical>, usize)> {
    let shape = |node: Logical| {
        let edges = node.edges(engine);
        let absorbed = match edges.as_slice() {
            [(label, only)] if !label.is_wildcard() => {
                (node.annotation(engine) == only.annotation(engine)).then_some(*only)
            }
            _ => None,
        };
        (node, (absorbed, edges.len()))
    };
    Logical::all(engine).into_iter().map(shape).collect()
}

/// Which kinds of tail the predicted walks of one config entered with a
/// `Maybe` still to settle — or, for the last two, entered at all.
#[derive(Debug, Default, Clone, Copy)]
struct TailsEntered {
    /// Tails entered through a real parent absorbed into their first run.
    through_absorbed_parents: usize,
    /// Tails a second subscriber is parked on.
    shared: usize,
    /// Tails every test of which is `*`.
    all_wildcard: usize,
    /// Tails no test of which can fail.
    never_failing: usize,
}

/// The arena's walk restated over the logical tree alone, by §11.1's run
/// rule — `shape` is [`run_shape`] — and §2.1.2's trivial-test elimination:
/// what `ArenaView::search` must charge for `event`, whichever chains the
/// PST happens to keep as tails, and the mask it must return.
struct PredictedWalk<'a> {
    engine: &'a LinkMatchEngine,
    shape: &'a std::collections::HashMap<Logical, (Option<Logical>, usize)>,
    event: &'a Event,
    steps: u64,
    comparisons: u64,
    tails: TailsEntered,
}

impl PredictedWalk<'_> {
    /// `(steps, comparisons, links)` of the walk for `event` on `tree`.
    fn of(
        engine: &LinkMatchEngine,
        shape: &std::collections::HashMap<Logical, (Option<Logical>, usize)>,
        event: &Event,
        tree: crate::TreeId,
        tails: &mut TailsEntered,
    ) -> (u64, u64, Vec<linkcast_types::LinkId>) {
        let mut walk = PredictedWalk {
            engine,
            shape,
            event,
            steps: 0,
            comparisons: 0,
            tails: *tails,
        };
        let init = engine.space().init_mask(tree).clone();
        let key: Vec<Value> = (engine.pst().factored().iter())
            .map(|attr| event.values()[*attr].clone())
            .collect();
        let root = Logical::roots(engine).into_iter().find(|(k, _)| *k == key);
        let (Some((_, root)), true) = (root, init.has_maybe()) else {
            return (0, 0, Vec::new());
        };
        let refined = walk.enter(walk.landing(root), init);
        *tails = walk.tails;
        let links = engine.space().links_to_send(&refined);
        (walk.steps, walk.comparisons, links)
    }

    /// Where an edge into `node` lands: past every node whose only edge is
    /// `*` (trivial-test elimination).
    fn landing(&self, mut node: Logical) -> Logical {
        while let [(AttrTest::Any, below)] = node.edges(self.engine).as_slice() {
            node = *below;
        }
        node
    }

    fn value(&self, node: Logical) -> &Value {
        &self.event.values()[self.engine.pst().order()[node.level]]
    }

    /// Enters the run `top` opens: one step and one refinement for the lot,
    /// a comparison per absorbed test, then the edges of the node the run
    /// ends in until the mask is settled — the equality lookup; the range
    /// lookup, a binary search per group of its tests, lower- and
    /// upper-bounded, `⌈log₂ n⌉ + 1` probes over `n` of them, and the
    /// satisfied range edges in the range order, a comparison more for a
    /// `between` the search leaves to check; `*` last.
    fn enter(&mut self, top: Logical, mask: linkcast_types::TritVec) -> linkcast_types::TritVec {
        self.steps += 1;
        let mut mask = mask.refine(&top.annotation(self.engine));
        let pst = self.engine.pst();
        let holder = pst.node(top.id);
        if holder.is_leaf() {
            let chain: Vec<_> = holder.residual().collect();
            let domain = |attr: usize| pst.schema().attribute(attr).unwrap().domain();
            let fails = |(attr, test): &(usize, &AttrTest)| {
                !test.is_wildcard()
                    && !domain(*attr).is_some_and(|d| d.iter().all(|v| test.matches(v)))
            };
            self.tails.shared += usize::from(holder.subscription_ids().len() > 1);
            self.tails.all_wildcard +=
                usize::from(!chain.is_empty() && chain.iter().all(|(_, t)| t.is_wildcard()));
            self.tails.never_failing += usize::from(!chain.is_empty() && !chain.iter().any(fails));
        }
        if !mask.has_maybe() {
            return mask;
        }
        let mut node = top;
        while let Some((Some(child), _)) = self.shape.get(&node) {
            self.comparisons += 1;
            let edges = node.edges(self.engine);
            if !edges[0].0.matches(self.value(node)) {
                return mask.maybes_to_no();
            }
            self.tails.through_absorbed_parents += usize::from(node.id != child.id);
            node = *child;
        }
        if node.level == pst.depth() {
            return mask.maybes_to_no();
        }
        let value = self.value(node).clone();
        let edges = node.edges(self.engine);
        let is_range = |l: &AttrTest| !l.is_wildcard() && !l.is_equality();
        let mut ranges: Vec<_> = edges.iter().filter(|(l, _)| is_range(l)).collect();
        ranges.sort_by(|a, b| a.0.range_cmp(&b.0));
        let upper = ranges
            .iter()
            .filter(|(l, _)| matches!(l, AttrTest::Lt(_) | AttrTest::Le(_)));
        let upper = upper.count();
        let probes = |n: usize| (n > 0).then(|| (n as f64).log2().ceil() as u64 + 1);
        let mut lookup = probes(ranges.len() - upper).unwrap_or(0) + probes(upper).unwrap_or(0);
        self.comparisons += 1;
        let eq = edges
            .iter()
            .filter(|(l, _)| l.is_equality() && l.matches(&value));
        let star = edges.iter().filter(|(l, _)| l.is_wildcard());
        for (label, child) in eq.chain(ranges).chain(star) {
            if is_range(label) {
                self.comparisons += std::mem::take(&mut lookup);
            }
            let found = match label {
                AttrTest::Between(lo, _) => *lo <= value,
                _ => label.matches(&value),
            };
            self.comparisons += u64::from(found && matches!(label, AttrTest::Between(..)));
            if found && label.matches(&value) {
                let sub = self.enter(self.landing(*child), mask.clone());
                mask = mask.absorb_yes(&sub);
                if !mask.has_maybe() {
                    return mask;
                }
            }
        }
        mask.maybes_to_no()
    }
}

/// How a config of the property test below draws predicates and events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// Every attribute alike, events inside the domains: the evidence is
    /// flat and the order has no reason to move.
    Uniform,
    /// The population grows for [`SHIFT_PHASE`] steps and shrinks for as
    /// many, and every time it has shrunk the attribute the engine
    /// currently tests *last* turns hot: predicates born from then on all
    /// put an equality test on it and mostly `*` elsewhere, and most events
    /// carry the one value those tests never name. As the older
    /// subscriptions go (oldest first), the evidence comes to ask for the
    /// hot attribute at the root.
    Shifting,
    /// Predicates test the last attribute only, by narrow ranges, and an
    /// event satisfies one or two of those that are live: the model sees a
    /// selective attribute under levels nobody constrains and promotes it;
    /// where the walk in the new order costs no fewer steps, the engine
    /// must notice and go back.
    Reverting,
}

/// Steps a [`Traffic::Shifting`] population grows, and then shrinks, for.
const SHIFT_PHASE: usize = 170;
/// Distinct range tests a [`Traffic::Reverting`] config draws from.
const REVERT_RANGES: i64 = 24;

/// What the order adaptation did over one config of the property test.
#[derive(Debug, Default, Clone, Copy)]
struct Adaptations {
    /// Engine rebuilds in another order, either way.
    rebuilds: usize,
    /// Rebuilds whose first interval walked fewer steps: the trial stood.
    confirmed: usize,
    /// Rebuilds back to the order a trial had replaced.
    reverts: usize,
}

impl std::ops::AddAssign for Adaptations {
    fn add_assign(&mut self, rhs: Self) {
        self.rebuilds += rhs.rebuilds;
        self.confirmed += rhs.confirmed;
        self.reverts += rhs.reverts;
    }
}

/// The tentpole property: after **every** step of a long random
/// subscribe/unsubscribe sequence — equality, range and `*` edges, shared
/// prefixes, duplicate predicates, factoring on and off — the
/// incrementally maintained engine (counted annotations, free-listed
/// nodes, runs the rule cuts and rejoins as edges and annotations change,
/// tails burst where a newcomer parts ways with them and the chains that
/// leaves behind never collapsed again) is indistinguishable from one built
/// from scratch over the surviving subscriptions: the same annotation on
/// every node of the logical tree, the same runs, and for a
/// batch of events on every tree the same link set and the same number of
/// match steps and comparisons. The recursive search over the boxed tree
/// vouches for the link sets and bounds the steps from above. Every config
/// must burst at least fifty tails on the way.
///
/// Those steps and comparisons are also *predicted*, for every one of the
/// probe events, from the logical tree alone ([`PredictedWalk`]: the run
/// rule and trivial-test elimination over [`Logical`] nodes, knowing
/// nothing of tails), and must come out equal: a tail is one node,
/// charged on entry what its chain's runs would be, and every config must
/// have entered tails through absorbed parents, tails with a second
/// subscriber, tails whose every test is `*` and tails no test of which
/// can fail.
///
/// The three-attribute configs grow wide nodes; the six-attribute ones grow
/// long single-choice chains, and must be seen to form runs of three and
/// more nodes, cut them (a newcomer parting ways mid-run; an annotation
/// that stops equalling the child's) and rejoin them after an unsubscribe.
///
/// Every step also feeds its events through the engine's own scratch and
/// lets it reconsider its attribute order ([`LinkMatchEngine::adapt_order`]),
/// so all of the above holds across order rebuilds too, and right after
/// one the engine *is* — annotated tree, arena summary, steps and
/// comparisons on a probe set — what `with_subscriptions` builds from the
/// live subscriptions in id order for that explicit order, with the
/// schema's factored prefix where it was (a factored config is among the
/// ones that rebuild). The
/// [`Traffic::Uniform`] configs have no reason to rebuild (the pinned one
/// must not); the shifting and reverting ones make each family rebuild at
/// least ten times, keep at least one trial and revert at least one.
///
/// A debug build runs [`CHURN_STEPS`] = 500 steps per config, with every
/// per-step equality above; the floors on how often something was seen
/// are tuned to [`FULL_CHURN_STEPS`] and asserted in release only (CI's
/// release step runs this test at the full count).
#[test]
fn incremental_engine_equals_scratch_after_every_step() {
    let wide = |factored| (churn_schema(factored), vec![3, 4, 40], 3);
    let deep = |factored| (deep_schema(factored), vec![2, 3, 3, 3, 3, 3], 1);
    let default = PstOptions::default;
    let pinned = OrderPolicy::Explicit(vec![2, 0, 1]);
    let configs = [
        (wide(0), default(), Traffic::Uniform),
        (wide(1), default(), Traffic::Uniform),
        (wide(0), default().with_order(pinned), Traffic::Uniform),
        (deep(1), default(), Traffic::Uniform),
        (deep(0), default(), Traffic::Uniform),
        (wide(0), default(), Traffic::Shifting),
        (deep(1), default(), Traffic::Shifting),
        (wide(0), default(), Traffic::Reverting),
        (deep(0), default(), Traffic::Reverting),
    ];
    let (mut wide_seen, mut deep_seen) = (Adaptations::default(), Adaptations::default());
    for (ci, ((schema, domains, stars), options, traffic)) in configs.iter().enumerate() {
        let seen = churn_against_scratch(ci, schema, domains, *stars, options, *traffic);
        if matches!(options.order, OrderPolicy::Explicit(_)) {
            assert_eq!(seen.rebuilds, 0, "config {ci}: a pinned order moved");
        }
        if AT_FULL_COUNT && *traffic != Traffic::Uniform {
            assert!(seen.rebuilds >= 3, "config {ci}: {seen:?}");
        }
        if domains.len() >= 6 {
            deep_seen += seen;
        } else {
            wide_seen += seen;
        }
    }
    if AT_FULL_COUNT {
        for (family, seen) in [("wide", wide_seen), ("deep", deep_seen)] {
            assert!(
                seen.rebuilds >= 10 && seen.confirmed >= 1 && seen.reverts >= 1,
                "{family}: {seen:?}"
            );
        }
    }
}

/// Steps per config the coverage floors of
/// [`incremental_engine_equals_scratch_after_every_step`] are tuned to.
const FULL_CHURN_STEPS: usize = 2000;
/// Steps per config it runs: each one predicts every probe walk, and in a
/// debug build the full count is most of tier-1's wall clock.
const CHURN_STEPS: usize = if cfg!(debug_assertions) {
    FULL_CHURN_STEPS / 4
} else {
    FULL_CHURN_STEPS
};
const AT_FULL_COUNT: bool = CHURN_STEPS == FULL_CHURN_STEPS;

/// One config of [`incremental_engine_equals_scratch_after_every_step`].
fn churn_against_scratch(
    ci: usize,
    schema: &EventSchema,
    domains: &[i64],
    stars: u32,
    options: &PstOptions,
    traffic: Traffic,
) -> Adaptations {
    let deep = domains.len() >= 6;
    let mut rng = StdRng::seed_from_u64(0x1ca5_7000 + ci as u64);
    let (fabric, clients) = random_tree_network(&mut rng, 4);
    let broker = fabric.network().brokers().nth(1).unwrap();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
    let trees: Vec<_> = fabric
        .network()
        .brokers()
        .map(|b| fabric.tree_for(b).unwrap())
        .collect();
    let mut engine =
        LinkMatchEngine::new(broker, schema.clone(), options.clone(), space.clone()).unwrap();
    let factored = engine.pst().factored().to_vec();
    assert!(
        factored.iter().copied().eq(schema.factored()),
        "config {ci}"
    );
    let mut levels = engine.pst().order().to_vec();
    levels.sort_unstable();
    let last = domains.len() - 1;
    // Values the reverting traffic's equality tests (on the attribute
    // before the last) name: few enough that the three-level tree's
    // current order still prices at twice the proposal.
    let revert_values = if deep { 3 } else { 2 };
    let mut live: Vec<linkcast_types::Subscription> = Vec::new();
    let mut next_id = 0u32;
    let mut peak = 0;
    // The engine's own scratch holds its order evidence; the engines it
    // is compared against walk through another.
    let mut own_scratch = crate::RouteScratch::new();
    let mut scratch = crate::RouteScratch::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    // Steps at which some run held three or more nodes; nodes that
    // left a run because their edges changed, or only an annotation
    // did; nodes an unsubscribe put (back) into one.
    let (mut long_runs, mut mid_run_splits, mut flip_splits, mut merges) = (0, 0, 0, 0);
    let mut seen = Adaptations::default();
    // The order a rebuild replaced, while its trial is out; events walked
    // through `own_scratch` since the last rebuild.
    let mut on_trial: Option<Vec<usize>> = None;
    let mut walked_since_rebuild = 0u64;
    let mut matched_somewhere = 0usize;
    let mut hot = 0;
    let mut bursts = 0usize;
    let mut tails = TailsEntered::default();

    for step in 0..CHURN_STEPS {
        let before = run_shape(&engine);
        if step % (2 * SHIFT_PHASE) == 0 {
            hot = engine.pst().order().last().copied().unwrap_or(0);
        }
        // Alternate growth and decay so edge lists grow wide, drain to
        // empty and node slots are reused.
        let half_cycle = if traffic == Traffic::Shifting {
            SHIFT_PHASE
        } else {
            250
        };
        let grow = if (step / half_cycle) % 2 == 0 {
            0.7
        } else {
            0.3
        };
        let subscribing = live.is_empty() || rng.random_bool(grow);
        if subscribing {
            let client = clients[rng.random_range(0..clients.len())];
            let predicate = if !live.is_empty() && rng.random_bool(0.15) {
                let twin = live[rng.random_range(0..live.len())].predicate();
                if deep && rng.random_bool(0.5) {
                    // Same prefix, `*` from some level on: the `*` edge
                    // it hangs under a shared node puts a Yes into that
                    // node's annotation and takes it out of its
                    // parent's run without touching the parent's edges.
                    let keep = rng.random_range(1..domains.len());
                    let mut tests = twin.tests().to_vec();
                    tests.iter_mut().skip(keep).for_each(|t| *t = AttrTest::Any);
                    Predicate::from_tests(schema, tests).unwrap()
                } else {
                    twin.clone()
                }
            } else {
                let tests: Vec<_> = domains
                    .iter()
                    .enumerate()
                    .map(|(attr, domain)| match traffic {
                        Traffic::Uniform => churn_test(&mut rng, *domain, stars),
                        Traffic::Shifting if attr == hot => {
                            AttrTest::Eq(Value::Int(rng.random_range(0..*domain - 1)))
                        }
                        Traffic::Shifting if rng.random_bool(0.75) => AttrTest::Any,
                        Traffic::Shifting => churn_test(&mut rng, *domain, stars),
                        Traffic::Reverting if attr == last => {
                            let low = rng.random_range(0..REVERT_RANGES);
                            AttrTest::Between(Value::Int(low), Value::Int(low + 1))
                        }
                        Traffic::Reverting if attr + 1 == last => {
                            AttrTest::Eq(Value::Int(rng.random_range(0..revert_values)))
                        }
                        Traffic::Reverting => AttrTest::Any,
                    })
                    .collect();
                Predicate::from_tests(schema, tests).unwrap()
            };
            let home = fabric.network().home_broker(client).unwrap();
            let sub = linkcast_types::Subscription::new(
                linkcast_types::SubscriptionId::new(next_id),
                linkcast_types::SubscriberId::new(home, client),
                predicate,
            );
            next_id += 1;
            live.push(sub.clone());
            let tails = |e: &LinkMatchEngine| -> Vec<_> {
                let nodes = e.pst().postorder().into_iter();
                nodes.filter(|id| e.pst().node(*id).is_leaf()).collect()
            };
            let parked_on = tails(&engine);
            engine.subscribe(sub).unwrap();
            let burst = |id: &&linkcast_matching::NodeId| !engine.pst().node(**id).is_leaf();
            bursts += parked_on.iter().filter(burst).count();
        } else {
            let gone = if traffic == Traffic::Shifting {
                live.remove(rng.random_range(0..live.len().div_ceil(4)))
            } else {
                live.swap_remove(rng.random_range(0..live.len()))
            };
            assert!(engine.unsubscribe(gone.id()));
        }
        peak = peak.max(live.len());
        let context = format!("config {ci}, step {step}");
        engine.pst().check_invariants().unwrap();
        assert_eq!(engine.subscription_count(), live.len(), "{context}");
        let arena = engine.arena();
        let after = run_shape(&engine);
        assert_eq!(arena.summary().covered_nodes, after.len(), "{context}");
        assert_eq!(engine.pst().expanded_node_count(), after.len(), "{context}");
        assert!(engine.pst().node_count() <= after.len(), "{context}");
        assert!(arena.node_count() <= after.len(), "{context}");
        let absorbed = after.values().filter_map(|(child, _)| *child);
        assert_eq!(arena.summary().prefix_tests, absorbed.count(), "{context}");
        let absorbs_twice = |(child, _): &(Option<_>, usize)| {
            child.is_some_and(|c| after.get(&c).is_some_and(|(next, _)| next.is_some()))
        };
        long_runs += usize::from(after.values().any(absorbs_twice));
        for (id, (now, children)) in &after {
            let Some((was, children_before)) = before.get(id) else {
                continue;
            };
            let same_edges = children == children_before;
            mid_run_splits += usize::from(was.is_some() && now.is_none() && !same_edges);
            flip_splits += usize::from(was.is_some() && now.is_none() && same_edges);
            merges += usize::from(!subscribing && was.is_none() && now.is_some());
        }

        // Whatever order the engine is in by now, spelled out.
        let in_its_order = |e: &LinkMatchEngine| {
            let full = e.pst().factored().iter().chain(e.pst().order());
            (options.clone()).with_order(OrderPolicy::Explicit(full.copied().collect()))
        };
        let fresh = LinkMatchEngine::with_subscriptions(
            broker,
            schema.clone(),
            in_its_order(&engine),
            space.clone(),
            engine.pst().subscriptions().cloned().collect::<Vec<_>>(),
        )
        .unwrap();
        assert_same_annotated_tree(&engine, &fresh, &context);
        // The same tree, re-annotated from scratch: identical edge order
        // by construction, so identical steps.
        let mut recompiled = engine.clone();
        recompiled.rebuild_annotations();
        // Same runs, same nodes.
        let runs = |e: &LinkMatchEngine| {
            let s = e.arena().summary();
            (s.covered_nodes, s.runs, s.prefix_tests)
        };
        assert_eq!(runs(&engine), runs(&recompiled), "{context}");
        assert_eq!(
            engine.arena().node_count(),
            recompiled.arena().node_count(),
            "{context}"
        );
        // And the same as over the tree built from nothing, which keeps as
        // tails — one arena node each — what this one may keep as the
        // chains bursts left behind: fewer nodes kept, the same logical
        // tree cut into the same runs, and (below) the same walk.
        assert_eq!(runs(&engine), runs(&fresh), "{context}");
        assert!(
            fresh.arena().node_count() <= engine.arena().node_count(),
            "{context}"
        );
        // The cache key: what the tree built from nothing keys on, after
        // every step — so no attribute lingers once its last constraint is
        // gone — and every attribute some node branches on, be the test on
        // an edge the walk looks up or on one it passes through in a run.
        let tested = engine.tested_attributes();
        assert_eq!(tested, fresh.tested_attributes(), "{context}");
        for node in after.keys() {
            if node
                .edges(&engine)
                .iter()
                .any(|(label, _)| !label.is_wildcard())
            {
                let attr = engine.pst().order()[node.level];
                assert!(tested.contains(&attr), "{context}: attribute {attr}");
            }
        }

        let draw_event = |rng: &mut StdRng| -> Vec<i64> {
            let skewed = rng.random_bool(0.875);
            // The lower bound of some live range test.
            let in_range = live.get(rng.random_range(0..live.len().max(1)));
            let in_range = in_range.and_then(|sub| sub.predicate().test(last)?.operand());
            let values = domains
                .iter()
                .enumerate()
                .map(|(attr, domain)| match traffic {
                    Traffic::Shifting if attr == hot && skewed => domain - 1,
                    Traffic::Reverting if attr == last => match in_range {
                        Some(Value::Int(low)) => *low + rng.random_range(0..2),
                        _ => 0,
                    },
                    Traffic::Reverting if attr + 1 == last => rng.random_range(0..revert_values),
                    _ => rng.random_range(0..*domain),
                });
            values.collect()
        };
        // What these walks observe of the tests, through the chains bursts
        // left real here and through the tails that stand for them there.
        let (mut seen_here, mut seen_fresh) =
            (crate::RouteScratch::new(), crate::RouteScratch::new());
        for _ in 0..6 {
            let values = draw_event(&mut rng);
            let event = int_event(schema, &values);
            for &tree in &trees {
                let mut stats = MatchStats::new();
                engine.match_links_into(&event, tree, &mut seen_here, &mut stats, &mut got);
                fresh.match_links_into(&event, tree, &mut seen_fresh, &mut stats, &mut want);
                let mut stats = MatchStats::new();
                engine.match_links_into(&event, tree, &mut own_scratch, &mut stats, &mut got);
                walked_since_rebuild += stats.steps.min(1);
                matched_somewhere += usize::from(!got.is_empty());
                let predicted = PredictedWalk::of(&engine, &after, &event, tree, &mut tails);
                assert_eq!(
                    (stats.steps, stats.comparisons, &got),
                    (predicted.0, predicted.1, &predicted.2),
                    "{context}, event {values:?}: the walk the run rule predicts"
                );
                let spanning = fabric.forest().tree(tree).unwrap();
                let oracle = oracle_links(fabric.network(), spanning, broker, &live, &event);
                assert_eq!(got, oracle, "{context}, event {values:?}: brute force");
                let mut fresh_stats = MatchStats::new();
                fresh.match_links_into(&event, tree, &mut scratch, &mut fresh_stats, &mut want);
                assert_eq!(got, want, "{context}, event {values:?}: links");
                if factored.is_empty() {
                    // Without replication the depth-first order fixes
                    // every range-edge list, so the walks coincide.
                    assert_eq!(stats, fresh_stats, "{context}, event {values:?}");
                }
                let mut recompiled_stats = MatchStats::new();
                recompiled.match_links_into(
                    &event,
                    tree,
                    &mut scratch,
                    &mut recompiled_stats,
                    &mut want,
                );
                assert_eq!(got, want, "{context}, event {values:?}: links");
                assert_eq!(stats, recompiled_stats, "{context}, event {values:?}");
            }
        }
        if factored.is_empty() {
            assert_eq!(
                engine.order_report(&seen_here),
                fresh.order_report(&seen_fresh),
                "{context}: walk evidence"
            );
        }
        // More of the same traffic, walked only: evidence for the order.
        for _ in 0..40 {
            let event = int_event(schema, &draw_event(&mut rng));
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, trees[0], &mut own_scratch, &mut stats, &mut got);
            walked_since_rebuild += stats.steps.min(1);
        }

        let due = own_scratch.order_check_due();
        let order_before = engine.pst().order().to_vec();
        let generation = engine.generation();
        if !engine.adapt_order(&mut own_scratch) {
            assert_eq!(engine.generation(), generation, "{context}");
            assert_eq!(engine.pst().order(), order_before, "{context}");
            if due && on_trial.take().is_some() {
                seen.confirmed += 1;
            }
            continue;
        }
        assert!(due, "{context}: rebuilt with no check due");
        // A rebuild is judged on a full interval under the new order, and
        // the evidence that asked for it is spent.
        assert!(
            seen.rebuilds == 0 || walked_since_rebuild >= 256,
            "{context}: second rebuild after {walked_since_rebuild} walked events"
        );
        assert!(!own_scratch.order_check_due(), "{context}");
        walked_since_rebuild = 0;
        seen.rebuilds += 1;
        assert!(
            engine.generation() > generation,
            "{context}: caches must flush"
        );
        assert_eq!(engine.pst().factored(), factored, "{context}");
        let mut order_now = engine.pst().order().to_vec();
        assert_ne!(order_now, order_before, "{context}");
        match on_trial.take() {
            Some(previous) if previous == order_now => seen.reverts += 1,
            Some(_) => {
                seen.confirmed += 1;
                on_trial = Some(order_before);
            }
            None => on_trial = Some(order_before),
        }
        order_now.sort_unstable();
        assert_eq!(order_now, levels, "{context}: a permutation of the levels");

        // What the rebuild left is what anyone would build from the
        // subscriptions and the order alone.
        engine.pst().check_invariants().unwrap();
        let mut by_id = live.clone();
        by_id.sort_unstable_by_key(linkcast_types::Subscription::id);
        let scratch_built = LinkMatchEngine::with_subscriptions(
            broker,
            schema.clone(),
            in_its_order(&engine),
            space.clone(),
            by_id,
        )
        .unwrap();
        assert_same_annotated_tree(&engine, &scratch_built, &context);
        assert_eq!(
            engine.arena().summary(),
            scratch_built.arena().summary(),
            "{context}"
        );
        assert_eq!(
            engine.tested_attributes(),
            scratch_built.tested_attributes(),
            "{context}"
        );
        for _ in 0..12 {
            let values = draw_event(&mut rng);
            let event = int_event(schema, &values);
            for &tree in &trees {
                let mut stats = MatchStats::new();
                engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut got);
                let mut built_stats = MatchStats::new();
                scratch_built.match_links_into(
                    &event,
                    tree,
                    &mut scratch,
                    &mut built_stats,
                    &mut want,
                );
                assert_eq!(got, want, "{context}, event {values:?}: rebuilt links");
                assert_eq!(stats, built_stats, "{context}, event {values:?}: rebuilt");
                let spanning = fabric.forest().tree(tree).unwrap();
                let oracle = oracle_links(fabric.network(), spanning, broker, &live, &event);
                assert_eq!(
                    got, oracle,
                    "{context}, event {values:?}: rebuilt vs brute force"
                );
            }
        }
    }
    assert!(peak >= 60, "config {ci}: population peaked at {peak}");
    if AT_FULL_COUNT {
        assert!(
            matched_somewhere >= CHURN_STEPS,
            "config {ci}: only {matched_somewhere} events were routed anywhere"
        );
        assert!(bursts >= 50, "config {ci}: only {bursts} tails burst");
        let entered = [
            tails.through_absorbed_parents,
            tails.shared,
            tails.all_wildcard,
            tails.never_failing,
        ];
        assert!(entered.iter().all(|n| *n >= 10), "config {ci}: {tails:?}");
        if deep && traffic == Traffic::Uniform {
            let runs = [long_runs, mid_run_splits, flip_splits, merges];
            assert!(runs.iter().all(|n| *n >= 10), "config {ci}: {runs:?}");
        }
    }
    seen
}

/// Direct structural soundness of [`LinkSpace`] on random cyclic networks:
/// masks and leaf vectors stay inside the active tree's class block, local
/// clients are always mapped via their client link, and downstream
/// destinations map to the spanning tree's next hop.
#[test]
fn link_space_structure_is_sound_on_random_networks() {
    let mut rng = StdRng::seed_from_u64(91);
    for round in 0..10 {
        // Random tree plus a couple of chords.
        let n = 3 + round % 5;
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(n);
        for i in 1..n {
            b.connect(
                ids[i],
                ids[rng.random_range(0..i)],
                1.0 + rng.random_range(0..40) as f64,
            )
            .unwrap();
        }
        for _ in 0..2 {
            let (x, y) = (rng.random_range(0..n), rng.random_range(0..n));
            if x != y {
                let _ = b.connect(ids[x], ids[y], 5.0);
            }
        }
        let mut clients = Vec::new();
        for &id in &ids {
            clients.extend(b.add_clients(id, 2).unwrap());
        }
        let network = b.build().unwrap();
        let forest = crate::SpanningForest::compute(&network);

        for broker in network.brokers() {
            let space = LinkSpace::build(&network, &forest, broker);
            let links = network.link_count(broker);
            assert_eq!(space.width(), space.class_count() * links);

            for (tree_id, tree) in forest.iter() {
                let class = space.class(tree_id);
                let mask = space.init_mask(tree_id);
                assert_eq!(mask.len(), space.width());
                // Every Maybe lies inside the active class block.
                for position in mask.maybe_indices() {
                    assert!(
                        position / links == class,
                        "round {round}: {broker} {tree_id}: Maybe at {position} outside class {class}"
                    );
                }
                assert!(!mask.has_yes(), "init masks are Maybe/No only");

                // Leaf vectors: local clients map through their client
                // link; downstream clients map through the tree next hop.
                for &client in &clients {
                    let vector = space.leaf_vector(client);
                    let home = network.home_broker(client).unwrap();
                    let in_class: Vec<usize> = vector
                        .yes_indices()
                        .filter(|p| p / links == class)
                        .collect();
                    assert!(in_class.len() <= 1, "one link per class");
                    if home == broker {
                        let expect = network.link_to_client(broker, client).unwrap();
                        assert_eq!(
                            in_class,
                            vec![class * links + expect.index()],
                            "local clients use their client link"
                        );
                    } else if let Some(child) = tree.child_toward(broker, home) {
                        let expect = network.link_to_broker(broker, child).unwrap();
                        assert_eq!(
                            in_class,
                            vec![class * links + expect.index()],
                            "downstream clients use the tree next hop"
                        );
                    }
                }
            }
        }
    }
}

/// A mutation that re-cuts runs without touching an edge. A subscriber the
/// surviving graph cannot reach (topology repair has cut its broker off)
/// has an all-`No` leaf vector; a tail that parks only such subscribers is
/// all-`No` down its whole chain, so the run rule folds the chain across
/// the test that can fail — the annotation does not change there. The
/// first subscriber that *is* reachable puts a `Maybe` above that test and
/// a `Yes` below it: the run must be cut, and is, by the walk that reads
/// the new annotations; likewise back when it leaves. Either way the engine is what a fresh one would be.
#[test]
fn a_tail_turning_reachable_recuts_its_runs() {
    let mut b = NetworkBuilder::new();
    let (b0, b1, b2) = (b.add_broker(), b.add_broker(), b.add_broker());
    b.connect(b0, b1, 10.0).unwrap();
    b.connect(b1, b2, 10.0).unwrap();
    let upstream = b.add_client(b2).unwrap();
    let local = b.add_client(b1).unwrap();
    let network = b.build().unwrap();
    // The tree rooted at B0, over what is left with B1 - B2 down: seen
    // from B1, B2's client has no next hop.
    let forest = crate::SpanningForest::compute_excluding(&network, &[(b1, b2)]);
    let tree = forest.tree_for_root(b0).unwrap();
    let space = LinkSpace::build(&network, &forest, b1);
    let schema = small_schema();
    let sub = |id: u32, client: ClientId, tests: &[Option<i64>]| {
        linkcast_types::Subscription::new(
            linkcast_types::SubscriptionId::new(id),
            linkcast_types::SubscriberId::new(network.home_broker(client).unwrap(), client),
            int_predicate(&schema, tests),
        )
    };
    let chain = [Some(1), None, Some(2)];
    let fresh = |subs: &[linkcast_types::Subscription]| {
        LinkMatchEngine::with_subscriptions(
            b1,
            schema.clone(),
            PstOptions::default(),
            space.clone(),
            subs.to_vec(),
        )
        .unwrap()
    };
    let same = |engine: &LinkMatchEngine, subs: &[linkcast_types::Subscription], when: &str| {
        let expected = fresh(subs);
        assert_same_annotated_tree(engine, &expected, when);
        assert_eq!(
            engine.arena().summary().runs,
            expected.arena().summary().runs,
            "{when}"
        );
        let spanning = forest.tree(tree).unwrap();
        let mut scratch = crate::RouteScratch::new();
        let mut got = Vec::new();
        for z in 0..3 {
            let event = int_event(&schema, &[1, 0, z]);
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut got);
            let expected = oracle_links(&network, spanning, b1, subs, &event);
            assert_eq!(got, expected, "{when}: z={z}");
            assert_eq!(got.is_empty(), subs.len() < 2 || z != 2, "{when}: z={z}");
        }
    };

    let (first, second) = (sub(0, upstream, &chain), sub(1, local, &chain));
    let mut engine = fresh(&[]);
    engine.subscribe(first.clone()).unwrap();
    same(&engine, std::slice::from_ref(&first), "unreachable alone");
    // x=1 and z=2 can both fail; with nothing to say about any link,
    // neither gets a node of its own: [z=2 | leaf] under [x=1 | y=*].
    assert_eq!(engine.arena().summary().prefix_tests, 2);
    engine.subscribe(second.clone()).unwrap();
    same(&engine, &[first.clone(), second], "a reachable twin");
    assert_eq!(engine.arena().summary().prefix_tests, 1, "cut at z=2");
    assert!(engine.unsubscribe(linkcast_types::SubscriptionId::new(1)));
    same(&engine, &[first], "unreachable alone again");
    assert_eq!(engine.arena().summary().prefix_tests, 2);
}
