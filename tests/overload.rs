//! Overload protection and graceful-degradation regressions: slow-consumer
//! eviction at the per-connection queue bound, drain-before-FIN shutdown,
//! and the dial supervisor's handshake deadline against a stalled
//! acceptor.

mod fault;

use std::sync::Arc;
use std::time::{Duration, Instant};

use fault::{await_subscriptions, registry, tick, FaultLink};
use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client, ClientError};
use linkcast_types::{Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};

/// A registry with a bulky payload attribute, so a few dozen events
/// overrun the per-connection queue bound.
fn blob_registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("blobs")
            .attribute("n", ValueKind::Int)
            .attribute("payload", ValueKind::Str)
            .build()
            .unwrap(),
    )
    .unwrap();
    Arc::new(r)
}

fn blob(registry: &SchemaRegistry, n: i64, payload_len: usize) -> Event {
    let schema = registry.get(SchemaId::new(0)).unwrap();
    Event::from_values(
        schema,
        [Value::Int(n), Value::Str("x".repeat(payload_len).into())],
    )
    .unwrap()
}

/// A subscriber that stops reading must not wedge the broker: once its
/// outgoing queue overruns the per-connection bound (8 MiB), the broker
/// evicts it — discarding the backlog, flushing one `Error` notice, and
/// hanging up — while every other client keeps working, and the eviction
/// is visible in the wire-level stats a CLI would render.
#[test]
fn slow_consumer_is_evicted_and_broker_stays_live() {
    let mut net = NetworkBuilder::new();
    let broker = net.add_broker();
    let victim_id = net.add_client(broker).unwrap();
    let pub_id = net.add_client(broker).unwrap();
    let probe_id = net.add_client(broker).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = blob_registry();

    let config = BrokerConfig::localhost(broker, fabric, Arc::clone(&registry));
    let node = BrokerNode::start(config).unwrap();

    // The victim subscribes to everything and then never reads: its kernel
    // buffers fill, the outbox queue backs up past the bound.
    let mut victim = Client::connect(node.addr(), victim_id, 0, Arc::clone(&registry)).unwrap();
    victim.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    await_subscriptions(&[&node], 1);

    let mut publisher = Client::connect(node.addr(), pub_id, 0, Arc::clone(&registry)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut n = 0i64;
    while node.stats().evicted_slow_consumers == 0 {
        assert!(
            Instant::now() < deadline,
            "published {n} blobs without tripping the queue bound"
        );
        // Megabyte blobs: a few dozen overrun the bound plus whatever the
        // kernel's socket buffers hold.
        publisher.publish(&blob(&registry, n, 1024 * 1024)).unwrap();
        n += 1;
    }
    assert_eq!(node.stats().evicted_slow_consumers, 1);
    // `publish` returns once the socket has the frame: the last few blobs
    // may still be on their way to the engine.
    while node.stats().published < n as u64 {
        assert!(Instant::now() < deadline, "the engine never caught up");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The broker is still fully live for everyone else, and the eviction
    // counter travels the wire (what `linkcast-cli stats` renders).
    let mut probe = Client::connect(node.addr(), probe_id, 0, Arc::clone(&registry)).unwrap();
    let counters = probe.stats().unwrap();
    assert_eq!(counters.evicted_slow_consumers(), 1);
    assert!(counters.published() >= n as u64);

    // The victim, when it finally reads, sees whatever had already been
    // flushed, then the eviction notice — not a silent EOF. (recv_unacked:
    // the broker already hung up, so an auto-ack write could fail first.)
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    let notice = loop {
        assert!(
            Instant::now() < drain_deadline,
            "victim never saw the eviction notice"
        );
        match victim.recv_unacked(Duration::from_secs(5)) {
            Ok(_) => continue,
            Err(ClientError::Rejected(message)) => break message,
            Err(e) => panic!("expected the eviction notice, got {e}"),
        }
    };
    assert!(
        notice.contains("evicted"),
        "notice should say why the connection died: {notice}"
    );
}

/// Graceful shutdown drains: deliveries queued at shutdown time reach the
/// subscriber before the FIN, so a clean stop loses nothing that was
/// already accepted.
#[test]
fn shutdown_flushes_queued_deliveries_before_fin() {
    let mut net = NetworkBuilder::new();
    let broker = net.add_broker();
    let sub_id = net.add_client(broker).unwrap();
    let pub_id = net.add_client(broker).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = registry();

    let config = BrokerConfig::localhost(broker, fabric, Arc::clone(&registry));
    let node = BrokerNode::start(config).unwrap();

    let mut subscriber = Client::connect(node.addr(), sub_id, 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    await_subscriptions(&[&node], 1);

    let mut publisher = Client::connect(node.addr(), pub_id, 0, Arc::clone(&registry)).unwrap();
    for n in 0..50 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }
    // Let the engine route the batch into the subscriber's queue, then
    // stop the node. Shutdown must flush before hanging up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.stats().delivered < 50 {
        assert!(Instant::now() < deadline, "engine never routed the batch");
        std::thread::sleep(Duration::from_millis(10));
    }
    node.shutdown();

    // Every accepted delivery arrives, in order, and only then the FIN.
    for expected in 0..50 {
        let (_, event) = subscriber
            .recv_unacked(Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("delivery {expected} lost in shutdown: {e}"));
        assert_eq!(event.value(0).unwrap().as_int().unwrap(), expected);
    }
    assert!(
        subscriber.recv_unacked(Duration::from_secs(2)).is_err(),
        "nothing but the FIN may follow the drained backlog"
    );
}

/// A neighbor that accepts TCP but never answers the `Hello` (here: the
/// proxy stalls the acceptor→dialer direction) must not wedge the dial
/// supervisor forever: the handshake deadline abandons the connection and
/// falls back to the redial backoff, and once the acceptor recovers the
/// link comes up and carries traffic.
#[test]
fn stalled_accept_falls_back_to_backoff_and_recovers() {
    let mut net = NetworkBuilder::new();
    let a = net.add_broker(); // acceptor: hosts the subscriber
    let b = net.add_broker(); // dialer: hosts the publisher
    net.connect(a, b, 5.0).unwrap();
    let sub_client = net.add_client(a).unwrap();
    let pub_client = net.add_client(b).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = registry();

    let start = |broker| {
        let mut config = BrokerConfig::localhost(broker, fabric.clone(), Arc::clone(&registry));
        config.link_handshake_timeout = Duration::from_millis(300);
        // Liveness stays slow so every redial below is attributable to the
        // handshake deadline, not the heartbeat sweep.
        config.liveness_timeout = Duration::from_secs(30);
        BrokerNode::start(config).unwrap()
    };
    let node_a = start(a);
    let node_b = start(b);

    // Stall the reply direction before the first dial: A accepts and even
    // hears B's Hello, but its answer never leaves the proxy.
    let link = FaultLink::start(node_a.addr());
    link.reply().stall(true);
    node_b.connect_to_persistent(a, link.addr());

    // The supervisor must keep abandoning half-done handshakes and
    // redialing; a wedged supervisor would stop at the first dial.
    let deadline = Instant::now() + Duration::from_secs(15);
    while link.dials() < 3 {
        assert!(
            Instant::now() < deadline,
            "supervisor wedged on the unanswered handshake after {} dial(s)",
            link.dials()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Heal: the next redial completes the handshake and the link carries
    // subscriptions and events end to end.
    link.heal();
    let mut subscriber =
        Client::connect(node_a.addr(), sub_client, 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    await_subscriptions(&[&node_a, &node_b], 1);

    let mut publisher =
        Client::connect(node_b.addr(), pub_client, 0, Arc::clone(&registry)).unwrap();
    for n in 0..3 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }
    for expected in 0..3 {
        let (_, event) = subscriber
            .recv(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("event {expected} never crossed the healed link: {e}"));
        assert_eq!(event.value(0).unwrap().as_int().unwrap(), expected);
    }
}

/// The deadline covers a handshake that *started*: a neighbor that accepts
/// and sends the first two bytes of a frame, then nothing, owes its `Hello`
/// like one that sends nothing at all. The supervisor must give up on each
/// such connection (the peer sees it close) and dial again.
#[test]
fn half_sent_hello_is_abandoned_at_the_deadline() {
    use std::io::{Read, Write};

    let mut net = NetworkBuilder::new();
    let a = net.add_broker();
    let b = net.add_broker();
    net.connect(a, b, 5.0).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let mut config = BrokerConfig::localhost(b, fabric, registry());
    config.link_handshake_timeout = Duration::from_millis(300);
    config.liveness_timeout = Duration::from_secs(30);
    let node_b = BrokerNode::start(config).unwrap();

    // Stands in for broker A: accepts, dribbles half a length prefix, and
    // waits to be hung up on.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    node_b.connect_to_persistent(a, listener.local_addr().unwrap());
    for dial in 1..=2 {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&[41, 0]).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // B's own `Hello` and resync arrive first; what matters is that the
        // stream *ends* — within the deadline plus slack, not never.
        let started = Instant::now();
        let mut sink = [0u8; 4096];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("dial {dial}: supervisor still holds the half-greeted link: {e}"),
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "dial {dial} was abandoned only after {:?}",
            started.elapsed()
        );
    }
    node_b.shutdown();
}

/// A client that sends half a frame and stalls holds nothing up: shutdown
/// returns in its usual time and the client is hung up on.
#[test]
fn half_sent_frame_does_not_hold_shutdown() {
    use std::io::{Read, Write};

    let mut net = NetworkBuilder::new();
    let broker = net.add_broker();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let node = BrokerNode::start(BrokerConfig::localhost(broker, fabric, registry())).unwrap();

    let mut stream = std::net::TcpStream::connect(node.addr()).unwrap();
    // A 13-byte `Hello` announced, six bytes of it sent.
    stream.write_all(&[13, 0, 0, 0, 0x01, 7]).unwrap();
    // Let the reader thread take the bytes and go back to waiting.
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    node.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "shutdown took {:?}",
        started.elapsed()
    );
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(stream.read(&mut [0u8; 16]).unwrap(), 0, "expected the FIN");
}
