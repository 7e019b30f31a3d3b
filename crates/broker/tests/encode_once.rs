//! The encode-once invariant, asserted end to end: publishing an event
//! through a three-broker chain with subscribers at every hop performs
//! exactly ONE event-body serialization per publish — at the publishing
//! client. Every broker hop slices the body out of the incoming frame and
//! stitches outgoing Forward/Deliver frames around the same bytes.
//!
//! The control plane keeps the same invariant: a subscription is encoded
//! once, at its home broker, and floods down the chain as the bytes each
//! broker received.
//!
//! These tests must stay alone in their own integration-test binary, and
//! take turns in it ([`ONE_AT_A_TIME`]): the serialization counters
//! ([`linkcast_types::wire::event_encode_count`],
//! [`linkcast_types::wire::subscription_encode_count`]) are process-global,
//! and any concurrently running test that encodes an event or a
//! subscription would pollute the delta.

use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_types::{wire, Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};

/// Held by each test for as long as it samples a counter.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn chain_fan_out_serializes_each_event_exactly_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    let registry = Arc::new(r);
    let trades = SchemaId::new(0);

    // A - B - C chain; a publisher and a subscriber on A, one subscriber
    // each on B and C. One publish therefore fans out over two broker
    // links and three client links.
    let mut net = NetworkBuilder::new();
    let a = net.add_broker();
    let b = net.add_broker();
    let c = net.add_broker();
    net.connect(a, b, 5.0).unwrap();
    net.connect(b, c, 5.0).unwrap();
    let pub_a = net.add_client(a).unwrap();
    let sub_a = net.add_client(a).unwrap();
    let sub_b = net.add_client(b).unwrap();
    let sub_c = net.add_client(c).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();

    let node_a = BrokerNode::start(BrokerConfig::localhost(
        a,
        fabric.clone(),
        Arc::clone(&registry),
    ))
    .unwrap();
    let node_b = BrokerNode::start(BrokerConfig::localhost(
        b,
        fabric.clone(),
        Arc::clone(&registry),
    ))
    .unwrap();
    let node_c =
        BrokerNode::start(BrokerConfig::localhost(c, fabric, Arc::clone(&registry))).unwrap();
    node_a.connect_to_persistent(b, node_b.addr());
    node_b.connect_to_persistent(c, node_c.addr());

    let mut subscriber_a = Client::connect(node_a.addr(), sub_a, 0, Arc::clone(&registry)).unwrap();
    subscriber_a.subscribe(trades, "volume >= 0").unwrap();
    let mut subscriber_b = Client::connect(node_b.addr(), sub_b, 0, Arc::clone(&registry)).unwrap();
    subscriber_b.subscribe(trades, "volume >= 0").unwrap();
    let mut subscriber_c = Client::connect(node_c.addr(), sub_c, 0, Arc::clone(&registry)).unwrap();
    subscriber_c.subscribe(trades, "volume >= 0").unwrap();

    // Wait until every broker has learned all three subscriptions, so the
    // first publish already fans out to every link.
    let deadline = Instant::now() + Duration::from_secs(10);
    for node in [&node_a, &node_b, &node_c] {
        while node.stats().subscriptions < 3 {
            assert!(Instant::now() < deadline, "subscription flood stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let mut publisher = Client::connect(node_a.addr(), pub_a, 0, Arc::clone(&registry)).unwrap();
    let schema = registry.get(trades).unwrap();

    let publishes = 5u64;
    let before = wire::event_encode_count();
    for k in 0..publishes {
        publisher
            .publish(
                &Event::from_values(schema, [Value::str("IBM"), Value::Int(k as i64)]).unwrap(),
            )
            .unwrap();
    }
    // Every subscriber sees every event, so all frames have been built.
    for subscriber in [&mut subscriber_a, &mut subscriber_b, &mut subscriber_c] {
        for k in 0..publishes {
            let (_, event) = subscriber.recv(Duration::from_secs(10)).unwrap();
            assert_eq!(event.value_by_name("volume"), Some(&Value::Int(k as i64)));
        }
    }
    let encodes = wire::event_encode_count() - before;

    // 2 Forward frames + 3 Deliver frames per event, but exactly ONE
    // serialization per event: the publisher's. Brokers only slice and
    // stitch.
    assert_eq!(
        encodes, publishes,
        "each published event must be serialized exactly once across the whole chain"
    );
    assert_eq!(node_a.stats().forwarded, publishes, "A forwards to B");
    assert_eq!(node_b.stats().forwarded, publishes, "B forwards to C");
    assert_eq!(node_c.stats().forwarded, 0);
}

/// A - B - C - D; a client at A subscribes and unsubscribes. Every broker
/// installs the subscription, so it crossed three links — in one encoding,
/// A's: B and C pass on the payload they decoded. (They used to decode,
/// clone for the engine, and encode again: one serialization per hop.)
#[test]
fn a_flooded_subscription_is_serialized_at_its_home_broker_only() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    let registry = Arc::new(r);
    let trades = SchemaId::new(0);

    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(4);
    for pair in brokers.windows(2) {
        net.connect(pair[0], pair[1], 5.0).unwrap();
    }
    let subscriber = net.add_client(brokers[0]).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let nodes: Vec<BrokerNode> = brokers
        .iter()
        .map(|&id| {
            let config = BrokerConfig::localhost(id, fabric.clone(), Arc::clone(&registry));
            BrokerNode::start(config).unwrap()
        })
        .collect();
    // Links first, over which nothing is resynced yet: no broker knows a
    // subscription.
    for (node, (next, id)) in nodes.iter().zip(nodes.iter().zip(&brokers).skip(1)) {
        node.connect_to_persistent(*id, next.addr());
    }
    let converged = |count: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while nodes.iter().any(|n| n.stats().subscriptions != count) {
            assert!(Instant::now() < deadline, "subscription flood stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    let mut client =
        Client::connect(nodes[0].addr(), subscriber, 0, Arc::clone(&registry)).unwrap();
    // Every handshake first: a link's `Hello` resyncs what its broker
    // knows, so one landing after the subscribe would encode it again. A
    // throwaway subscription reaches each broker behind that broker's
    // `Hello` on its inbound link, so once all four hold it every
    // handshake is done; it is gone again before the count starts.
    let barrier = client.subscribe(trades, "volume < 0").unwrap();
    converged(1);
    client.unsubscribe(barrier).unwrap();
    converged(0);
    let before = wire::subscription_encode_count();
    let id = client.subscribe(trades, "volume >= 0").unwrap();
    converged(1);
    assert_eq!(
        wire::subscription_encode_count() - before,
        1,
        "one flood frame, encoded at the home broker"
    );
    client.unsubscribe(id).unwrap();
    converged(0);
    assert_eq!(wire::subscription_encode_count() - before, 1);
}
