//! Property-based equivalence of link matching and brute-force evaluation.
//!
//! The golden invariant of the paper: link matching delivers *exactly* the
//! events a centralized matcher would, sending at most one copy over any
//! link — for every topology, subscription set, and event.

use linkcast::{ContentRouter, NetworkBuilder, RoutingFabric};
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, Value, ValueKind,
};
use proptest::prelude::*;

const ATTRS: usize = 3;
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

/// A generated world: tree edges (parent pointers), extra chord edges,
/// clients per broker, subscriptions, events.
#[derive(Debug, Clone)]
struct World {
    parents: Vec<usize>,
    chords: Vec<(usize, usize)>,
    clients_per_broker: usize,
    subs: Vec<(usize, [Option<i64>; ATTRS])>,
    events: Vec<([i64; ATTRS], usize)>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (2usize..7)
        .prop_flat_map(|n| {
            let parents =
                proptest::collection::vec(0usize..n, n - 1).prop_map(move |raw| -> Vec<usize> {
                    raw.iter().enumerate().map(|(i, &p)| p % (i + 1)).collect()
                });
            let chords = proptest::collection::vec((0usize..n, 0usize..n), 0..3);
            let clients = 1usize..3;
            let subs = proptest::collection::vec(
                (
                    0usize..32,
                    proptest::array::uniform3(proptest::option::of(0i64..VALUES)),
                ),
                0..12,
            );
            let events = proptest::collection::vec(
                (proptest::array::uniform3(0i64..VALUES), 0usize..n),
                1..8,
            );
            (parents, chords, clients, subs, events)
        })
        .prop_map(
            |(parents, chords, clients_per_broker, subs, events)| World {
                parents,
                chords,
                clients_per_broker,
                subs,
                events,
            },
        )
}

fn build_world(
    world: &World,
    with_chords: bool,
) -> (std::sync::Arc<RoutingFabric>, Vec<ClientId>, usize) {
    let n = world.parents.len() + 1;
    let mut builder = NetworkBuilder::new();
    let brokers = builder.add_brokers(n);
    for (i, &p) in world.parents.iter().enumerate() {
        builder.connect(brokers[i + 1], brokers[p], 10.0).unwrap();
    }
    if with_chords {
        for &(a, b) in &world.chords {
            if a != b {
                // Duplicate edges are rejected by the builder; skipping
                // them is fine for the property.
                let _ = builder.connect(brokers[a], brokers[b], 25.0);
            }
        }
    }
    let mut clients = Vec::new();
    for &b in &brokers {
        clients.extend(builder.add_clients(b, world.clients_per_broker).unwrap());
    }
    let fabric = RoutingFabric::new_all_roots(builder.build().unwrap()).unwrap();
    (fabric, clients, n)
}

fn tests_to_predicate(schema: &EventSchema, tests: &[Option<i64>; ATTRS]) -> Predicate {
    let tests: Vec<AttrTest> = tests
        .iter()
        .map(|t| match t {
            Some(v) => AttrTest::Eq(Value::Int(*v)),
            None => AttrTest::Any,
        })
        .collect();
    Predicate::from_tests(schema, tests).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn link_matching_delivers_what_the_oracle_predicts(world in world_strategy()) {
        let schema = schema();
        let (fabric, clients, n) = build_world(&world, true);

        let mut link = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();

        let mut oracle: Vec<(ClientId, Predicate)> = Vec::new();
        for (client_raw, tests) in &world.subs {
            let client = clients[client_raw % clients.len()];
            let p = tests_to_predicate(&schema, tests);
            link.subscribe(client, p.clone()).unwrap();
            oracle.push((client, p));
        }

        for (values, publisher_raw) in &world.events {
            let publisher = BrokerId::new((*publisher_raw % n) as u32);
            let event = Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();

            let mut expected: Vec<ClientId> = oracle
                .iter()
                .filter(|(_, p)| p.matches(&event))
                .map(|(c, _)| *c)
                .collect();
            expected.sort_unstable();
            expected.dedup();

            let d_link = link.publish(publisher, &event).unwrap();
            prop_assert_eq!(&d_link.recipients, &expected, "link matching");

            // Structural invariants. Count the spanning-tree edges of the
            // publisher's tree.
            let tree_id = fabric.tree_for(publisher).unwrap();
            let tree = fabric.forest().tree(tree_id).unwrap();
            let tree_edges: u64 = fabric
                .network()
                .brokers()
                .filter(|b| tree.parent(*b).is_some())
                .count() as u64;
            prop_assert!(
                d_link.broker_messages <= tree_edges,
                "at most one copy per link: {} > {}",
                d_link.broker_messages,
                tree_edges
            );
        }
    }

    #[test]
    fn pst_options_do_not_change_routing(
        world in world_strategy(),
        factoring in 0usize..3,
    ) {
        let schema = schema();
        let (fabric, clients, n) = build_world(&world, false);

        let mut reference = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
        let mut tuned = ContentRouter::new(fabric.clone(), factored(factoring)).unwrap();

        for (client_raw, tests) in &world.subs {
            let client = clients[client_raw % clients.len()];
            let p = tests_to_predicate(&schema, tests);
            reference.subscribe(client, p.clone()).unwrap();
            tuned.subscribe(client, p).unwrap();
        }
        for (values, publisher_raw) in &world.events {
            let publisher = BrokerId::new((*publisher_raw % n) as u32);
            let event = Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
            let a = reference.publish(publisher, &event).unwrap();
            let b = tuned.publish(publisher, &event).unwrap();
            prop_assert_eq!(a.recipients, b.recipients);
            prop_assert_eq!(a.broker_messages, b.broker_messages);
        }
    }

    #[test]
    fn unsubscribing_everything_stops_all_traffic(world in world_strategy()) {
        let schema = schema();
        let (fabric, clients, n) = build_world(&world, true);
        let mut link = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
        let mut ids = Vec::new();
        for (client_raw, tests) in &world.subs {
            let client = clients[client_raw % clients.len()];
            ids.push(link.subscribe(client, tests_to_predicate(&schema, tests)).unwrap());
        }
        for id in ids {
            prop_assert!(link.unsubscribe(id));
        }
        for (values, publisher_raw) in &world.events {
            let publisher = BrokerId::new((*publisher_raw % n) as u32);
            let event = Event::from_values(&schema, values.iter().map(|v| Value::Int(*v))).unwrap();
            let d = link.publish(publisher, &event).unwrap();
            prop_assert!(d.recipients.is_empty());
            prop_assert_eq!(d.broker_messages, 0, "silent network after unsubscribe");
        }
    }
}
