//! Disconnection recovery: the paper's per-client event log in action.
//!
//! "Once a client re-connects after a failure, the client protocol object
//! delivers the events received while the client was dis-connected. A
//! garbage collector periodically cleans up the log." (§4.2)

use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_types::{Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};

fn registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("ticks")
            .attribute("n", ValueKind::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    Arc::new(r)
}

fn tick(registry: &SchemaRegistry, n: i64) -> Event {
    let schema = registry.get(SchemaId::new(0)).unwrap();
    Event::from_values(schema, [Value::Int(n)]).unwrap()
}

/// One broker, two clients: a subscriber that crashes and a publisher.
fn single_broker() -> (
    BrokerNode,
    Arc<SchemaRegistry>,
    Vec<linkcast_types::ClientId>,
) {
    let mut b = NetworkBuilder::new();
    let b0 = b.add_broker();
    let clients = b.add_clients(b0, 2).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let registry = registry();
    let node =
        BrokerNode::start(BrokerConfig::localhost(b0, fabric, Arc::clone(&registry))).unwrap();
    (node, registry, clients)
}

fn await_stats(node: &BrokerNode, f: impl Fn(linkcast_broker::BrokerStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !f(node.stats()) {
        assert!(
            Instant::now() < deadline,
            "stats never converged: {:?}",
            node.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn missed_events_are_replayed_on_reconnect() {
    let (node, registry, clients) = single_broker();
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();

    // Receive one event live (acked), then crash.
    publisher.publish(&tick(&registry, 1)).unwrap();
    let (seq, _) = subscriber.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(seq, 1);
    let resume_from = subscriber.last_seq();
    drop(subscriber); // simulated crash

    // Events published while the subscriber is away accumulate in its log.
    for n in 2..=5 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }
    await_stats(&node, |s| s.delivered >= 5);

    // Reconnect, resuming after the last acked sequence number.
    let mut subscriber =
        Client::connect(node.addr(), clients[0], resume_from, Arc::clone(&registry)).unwrap();
    let mut got = Vec::new();
    for _ in 0..4 {
        let (seq, event) = subscriber.recv(Duration::from_secs(5)).unwrap();
        got.push((seq, event.value(0).cloned().unwrap()));
    }
    assert_eq!(
        got,
        vec![
            (2, Value::Int(2)),
            (3, Value::Int(3)),
            (4, Value::Int(4)),
            (5, Value::Int(5))
        ]
    );
    // Nothing further.
    assert!(subscriber.recv(Duration::from_millis(200)).is_err());
}

#[test]
fn unacked_events_are_redelivered_at_least_once() {
    let (node, registry, clients) = single_broker();
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();

    publisher.publish(&tick(&registry, 7)).unwrap();
    // Receive WITHOUT acking, then crash: the broker must keep the entry.
    let (seq, _) = subscriber.recv_unacked(Duration::from_secs(5)).unwrap();
    assert_eq!(seq, 1);
    drop(subscriber);

    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    let (seq, event) = subscriber.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(seq, 1, "unacked event is replayed");
    assert_eq!(event.value(0), Some(&Value::Int(7)));
}

#[test]
fn acked_events_are_garbage_collected_and_not_replayed() {
    let (node, registry, clients) = single_broker();
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();

    for n in 1..=3 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }
    for _ in 0..3 {
        subscriber.recv(Duration::from_secs(5)).unwrap(); // auto-acks
    }
    let resume = subscriber.last_seq();
    drop(subscriber);
    // Give the GC a couple of cycles to trim the acked prefix.
    std::thread::sleep(Duration::from_millis(600));

    let mut subscriber =
        Client::connect(node.addr(), clients[0], resume, Arc::clone(&registry)).unwrap();
    assert!(
        subscriber.recv(Duration::from_millis(300)).is_err(),
        "acked events must not be replayed"
    );
}

#[test]
fn log_bound_drops_oldest_for_absent_clients() {
    // A tight log bound: a client that never connects cannot hold
    // unbounded broker memory.
    let mut b = NetworkBuilder::new();
    let b0 = b.add_broker();
    let clients = b.add_clients(b0, 2).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let registry = registry();
    let mut config = BrokerConfig::localhost(b0, fabric, Arc::clone(&registry));
    config.log_bound = 5;
    config.gc_interval = Duration::from_millis(50);
    let node = BrokerNode::start(config).unwrap();

    // The "absent" subscriber connects just long enough to subscribe.
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    drop(subscriber);

    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();
    for n in 1..=20 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }
    await_stats(&node, |s| s.delivered >= 20);
    std::thread::sleep(Duration::from_millis(300)); // let GC enforce the bound

    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    let mut got = Vec::new();
    while let Ok((seq, _)) = subscriber.recv(Duration::from_millis(300)) {
        got.push(seq);
    }
    assert!(
        got.len() <= 5,
        "bounded log must retain at most 5 entries, got {got:?}"
    );
    assert_eq!(*got.last().unwrap(), 20, "newest entries are retained");
}

/// A broker-link (not client) crash: events routed toward the dead
/// neighbor are spooled, not forwarded; the `Disconnected` cleans up the
/// conn (outbox registration and `neighbors` entry) so no queue or
/// counter leaks per flap; and the restarted neighbor receives the whole
/// spool after the reconnect handshake.
#[test]
fn broker_link_crash_spools_and_retransmits() {
    use linkcast_types::ClientId;
    let mut net = NetworkBuilder::new();
    let a = net.add_broker();
    let b = net.add_broker();
    net.connect(a, b, 5.0).unwrap();
    let pub_client = net.add_client(a).unwrap();
    let sub_client = net.add_client(b).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = registry();

    let mut a_config = BrokerConfig::localhost(a, fabric.clone(), Arc::clone(&registry));
    a_config.gc_interval = Duration::from_millis(50);
    let node_a = BrokerNode::start(a_config).unwrap();
    // Fixed port for B so the restarted instance is reachable at the same
    // address the supervisor keeps dialing.
    let b_port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let mut b_config = BrokerConfig::localhost(b, fabric.clone(), Arc::clone(&registry));
    b_config.listen = format!("127.0.0.1:{b_port}").parse().unwrap();
    let node_b = BrokerNode::start(b_config.clone()).unwrap();
    node_a.connect_to_persistent(b, node_b.addr());

    // Subscribe at B; the subscription floods to A.
    let subscribe_at = |node: &BrokerNode, client: ClientId| {
        let mut c = Client::connect(node.addr(), client, 0, Arc::clone(&registry)).unwrap();
        c.subscribe(SchemaId::new(0), "n >= 0").unwrap();
        c
    };
    let subscriber = subscribe_at(&node_b, sub_client);
    await_stats(&node_a, |s| s.subscriptions >= 1);
    await_stats(&node_a, |s| s.connections >= 1);

    // B crashes. A's supervisor notices: the conn is unregistered from the
    // outbox and removed from `neighbors` — per-flap state must not leak.
    node_b.shutdown();
    drop(subscriber);
    await_stats(&node_a, |s| s.connections == 0);

    // Publish into the dead link: everything spools, nothing forwards,
    // and no frames pile up in the outbox for a conn that no longer exists.
    let mut publisher =
        Client::connect(node_a.addr(), pub_client, 0, Arc::clone(&registry)).unwrap();
    for n in 1..=5 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }
    await_stats(&node_a, |s| s.spooled >= 5);
    let down = node_a.stats();
    assert_eq!(
        down.forwarded, 0,
        "nothing forwarded while the link is down"
    );
    assert_eq!(down.spooled, 5, "every routed event is spooled");
    assert_eq!(down.dropped_spool_overflow, 0);
    await_stats(&node_a, |s| s.queued_frames == 0);

    // B restarts empty on the same port; the supervisor redials, the
    // handshake resyncs the subscription and replays the spool.
    let node_b = BrokerNode::start(b_config).unwrap();
    await_stats(&node_a, |s| s.retransmitted >= 5);

    // The subscriber reconnects to the fresh B and receives every event
    // published while the broker was dead.
    let mut subscriber =
        Client::connect(node_b.addr(), sub_client, 0, Arc::clone(&registry)).unwrap();
    let mut got = Vec::new();
    for _ in 0..5 {
        let (_, event) = subscriber.recv(Duration::from_secs(10)).unwrap();
        got.push(event.value(0).cloned().unwrap());
    }
    assert_eq!(
        got,
        (1..=5).map(Value::Int).collect::<Vec<_>>(),
        "the spool must replay the events published during the outage"
    );

    // The restarted B counts its subscription ids from nothing, but the
    // resync handed it back the one it minted in its previous life: the
    // next id it mints must not be that one again.
    let second = subscriber.subscribe(SchemaId::new(0), "n >= 100").unwrap();
    await_stats(&node_a, |s| s.subscriptions >= 2);
    assert_eq!(
        node_b.stats().subscriptions,
        2,
        "{second} beside the resynced one"
    );
}

#[test]
fn publisher_reconnect_is_seamless() {
    let (node, registry, clients) = single_broker();
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();

    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();
    publisher.publish(&tick(&registry, 1)).unwrap();
    drop(publisher);
    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();
    publisher.publish(&tick(&registry, 2)).unwrap();

    let (_, a) = subscriber.recv(Duration::from_secs(5)).unwrap();
    let (_, b) = subscriber.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(a.value(0), Some(&Value::Int(1)));
    assert_eq!(b.value(0), Some(&Value::Int(2)));
}
