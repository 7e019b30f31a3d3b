//! Robustness and stress tests for the TCP broker prototype.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_types::{ClientId, Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};

fn two_space_registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    r.register(
        EventSchema::builder("quotes")
            .attribute("bid", ValueKind::Dollar)
            .build()
            .unwrap(),
    )
    .unwrap();
    Arc::new(r)
}

fn single_broker(clients: usize) -> (BrokerNode, Arc<SchemaRegistry>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let b0 = b.add_broker();
    let ids = b.add_clients(b0, clients).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let registry = two_space_registry();
    let node =
        BrokerNode::start(BrokerConfig::localhost(b0, fabric, Arc::clone(&registry))).unwrap();
    (node, registry, ids)
}

#[test]
fn multiple_information_spaces_route_independently() {
    let (node, registry, clients) = single_broker(3);
    let trades = SchemaId::new(0);
    let quotes = SchemaId::new(1);

    let mut trade_watcher =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    trade_watcher.subscribe(trades, "volume > 100").unwrap();
    let mut quote_watcher =
        Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();
    quote_watcher.subscribe(quotes, "bid < 50.00").unwrap();
    let mut publisher = Client::connect(node.addr(), clients[2], 0, Arc::clone(&registry)).unwrap();

    let trade_schema = registry.get(trades).unwrap();
    let quote_schema = registry.get(quotes).unwrap();
    publisher
        .publish(&Event::from_values(trade_schema, [Value::str("IBM"), Value::Int(500)]).unwrap())
        .unwrap();
    publisher
        .publish(&Event::from_values(quote_schema, [Value::Dollar(4500)]).unwrap())
        .unwrap();

    let (_, t) = trade_watcher.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(t.schema().name(), "trades");
    let (_, q) = quote_watcher.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(q.schema().name(), "quotes");
    // Neither sees the other's space.
    assert!(trade_watcher.recv(Duration::from_millis(200)).is_err());
    assert!(quote_watcher.recv(Duration::from_millis(200)).is_err());
}

#[test]
fn concurrent_publishers_deliver_everything_in_sequence() {
    let (node, registry, clients) = single_broker(4);
    let trades = SchemaId::new(0);
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(trades, "volume >= 0").unwrap();

    let per_publisher = 500u64;
    let mut handles = Vec::new();
    for i in 1..4u32 {
        let addr = node.addr();
        let registry = Arc::clone(&registry);
        let client = clients[i as usize];
        handles.push(std::thread::spawn(move || {
            let mut publisher = Client::connect(addr, client, 0, Arc::clone(&registry)).unwrap();
            let schema = registry.get(SchemaId::new(0)).unwrap();
            for k in 0..per_publisher {
                let event = Event::from_values(
                    schema,
                    [
                        Value::str("X"),
                        Value::Int((u64::from(i) * 10_000 + k) as i64),
                    ],
                )
                .unwrap();
                publisher.publish(&event).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let total = 3 * per_publisher;
    let mut seqs = Vec::new();
    let mut volumes = Vec::new();
    for _ in 0..total {
        let (seq, event) = subscriber.recv(Duration::from_secs(10)).unwrap();
        seqs.push(seq);
        volumes.push(event.value_by_name("volume").unwrap().as_int().unwrap());
    }
    // Sequence numbers are contiguous 1..=total.
    assert_eq!(seqs, (1..=total).collect::<Vec<_>>());
    // Every published event arrived exactly once.
    volumes.sort_unstable();
    let mut expected: Vec<i64> = (1..4i64)
        .flat_map(|i| (0..per_publisher as i64).map(move |k| i * 10_000 + k))
        .collect();
    expected.sort_unstable();
    assert_eq!(volumes, expected);
    // Nothing extra.
    assert!(subscriber.recv(Duration::from_millis(200)).is_err());
}

#[test]
fn garbage_bytes_do_not_take_down_the_broker() {
    let (node, registry, clients) = single_broker(2);

    // A vandal connection: raw garbage with a plausible length prefix.
    {
        let mut stream = std::net::TcpStream::connect(node.addr()).unwrap();
        let mut frame = vec![];
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04]);
        stream.write_all(&frame).unwrap();
        // An absurd length prefix (beyond MAX_FRAME) must kill only this
        // connection.
        let _ = stream.write_all(&u32::MAX.to_le_bytes());
        std::thread::sleep(Duration::from_millis(100));
    }

    // Normal service continues.
    let trades = SchemaId::new(0);
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(trades, "volume >= 0").unwrap();
    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();
    let schema = registry.get(trades).unwrap();
    publisher
        .publish(&Event::from_values(schema, [Value::str("OK"), Value::Int(1)]).unwrap())
        .unwrap();
    let (_, event) = subscriber.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(event.value_by_name("issue"), Some(&Value::str("OK")));
    assert!(node.stats().errors >= 1, "the garbage frame was counted");
}

#[test]
fn protocol_error_sends_reason_then_closes_the_socket() {
    use std::io::Read;
    let (node, registry, _clients) = single_broker(1);

    let mut stream = std::net::TcpStream::connect(node.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // An undecodable client frame: plausible length, garbage payload.
    let mut frame = vec![];
    frame.extend_from_slice(&4u32.to_le_bytes());
    frame.extend_from_slice(&[0x0e, 0xad, 0xbe, 0xef]);
    stream.write_all(&frame).unwrap();

    // Flush-then-close: the reason arrives as an Error frame, then EOF.
    // `read_to_end` returning Ok proves the broker really shut the socket
    // (the read timeout turns a black-holed connection into a failure
    // instead of a hang).
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    assert!(buf.len() > 4, "no Error frame before the close: {buf:?}");
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    let payload = bytes::Bytes::copy_from_slice(&buf[4..4 + len]);
    match linkcast_broker::BrokerToClient::decode(payload, &registry) {
        Ok(linkcast_broker::BrokerToClient::Error { message }) => {
            assert!(!message.is_empty());
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.stats().protocol_errors < 1 {
        assert!(Instant::now() < deadline, "protocol error not counted");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn broker_peer_protocol_error_closes_link_without_error_frame() {
    use linkcast_broker::BrokerToBroker;
    use linkcast_types::wire::FrameTag;
    use std::io::Read;

    let mut net = NetworkBuilder::new();
    let a = net.add_broker();
    let b = net.add_broker();
    net.connect(a, b, 5.0).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = two_space_registry();
    let node =
        BrokerNode::start(BrokerConfig::localhost(a, fabric, Arc::clone(&registry))).unwrap();

    // Impersonate broker B over a raw socket: a valid handshake makes this
    // connection a registered broker peer, then a corrupt B2B frame forces
    // a protocol error.
    let mut stream = std::net::TcpStream::connect(node.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = BrokerToBroker::Hello {
        broker: b,
        incarnation: 1,
        last_recv: 0,
        last_recv_incarnation: 0,
        send_seq: 0,
    }
    .encode();
    stream.write_all(&hello).unwrap();
    let mut garbage = vec![];
    garbage.extend_from_slice(&2u32.to_le_bytes());
    garbage.extend_from_slice(&[0x2e, 0xff]);
    stream.write_all(&garbage).unwrap();

    // The link must actually close — a dial-side supervisor only redials
    // once it observes the EOF — and no client-protocol Error frame may
    // leak onto the broker-broker link (the peer would treat the
    // unexpected tag as a protocol error of its own).
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let mut off = 0;
    while off + 4 <= buf.len() {
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
        assert!(off + 4 + len <= buf.len(), "truncated frame in {buf:?}");
        assert_ne!(
            buf[off + 4],
            FrameTag::Error as u8,
            "B2C Error frame leaked onto a broker-broker link"
        );
        off += 4 + len;
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.stats().protocol_errors < 1 {
        assert!(Instant::now() < deadline, "protocol error not counted");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn many_subscribing_clients_on_one_broker() {
    let (node, registry, clients) = single_broker(21);
    let trades = SchemaId::new(0);
    // 20 subscribers, each watching a distinct volume band.
    let mut subscribers: Vec<Client> = (0..20)
        .map(|i| {
            let mut c = Client::connect(node.addr(), clients[i], 0, Arc::clone(&registry)).unwrap();
            c.subscribe(trades, &format!("volume = {i}")).unwrap();
            c
        })
        .collect();
    let mut publisher =
        Client::connect(node.addr(), clients[20], 0, Arc::clone(&registry)).unwrap();
    let schema = registry.get(trades).unwrap();
    for v in 0..20i64 {
        publisher
            .publish(&Event::from_values(schema, [Value::str("X"), Value::Int(v)]).unwrap())
            .unwrap();
    }
    for (i, sub) in subscribers.iter_mut().enumerate() {
        let (_, event) = sub.recv(Duration::from_secs(5)).unwrap();
        assert_eq!(
            event.value_by_name("volume"),
            Some(&Value::Int(i as i64)),
            "subscriber {i} gets exactly its band"
        );
        assert!(sub.recv(Duration::from_millis(50)).is_err());
    }
    assert_eq!(node.stats().delivered, 20);
}

#[test]
fn rapid_reconnect_cycles_preserve_the_log() {
    let (node, registry, clients) = single_broker(2);
    let trades = SchemaId::new(0);
    let mut subscriber =
        Client::connect(node.addr(), clients[0], 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(trades, "volume >= 0").unwrap();
    let mut publisher = Client::connect(node.addr(), clients[1], 0, Arc::clone(&registry)).unwrap();
    let schema = registry.get(trades).unwrap().clone();

    let mut resume = 0u64;
    let mut received = Vec::new();
    for round in 0..10i64 {
        publisher
            .publish(&Event::from_values(&schema, [Value::str("R"), Value::Int(round)]).unwrap())
            .unwrap();
        // Reconnect fresh each round, resuming from the last ack.
        let mut c =
            Client::connect(node.addr(), clients[0], resume, Arc::clone(&registry)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match c.recv(Duration::from_millis(200)) {
                Ok((seq, event)) => {
                    resume = seq;
                    received.push(event.value_by_name("volume").unwrap().as_int().unwrap());
                    if resume as i64 > round {
                        break;
                    }
                }
                Err(_) if resume as i64 == round + 1 => break,
                Err(_) => assert!(Instant::now() < deadline, "round {round} stalled"),
            }
        }
    }
    drop(subscriber);
    assert_eq!(received, (0..10i64).collect::<Vec<_>>());
}

#[test]
fn broker_restart_recovers_subscriptions_via_resync() {
    use linkcast_types::BrokerId;
    // Fixed port for B so the restarted instance is reachable at the same
    // address the supervisor keeps dialing.
    let mut net = NetworkBuilder::new();
    let a = net.add_broker();
    let b = net.add_broker();
    net.connect(a, b, 5.0).unwrap();
    let sub_client = net.add_client(a).unwrap();
    let pub_client = net.add_client(b).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = two_space_registry();

    let node_a = BrokerNode::start(BrokerConfig::localhost(
        a,
        fabric.clone(),
        Arc::clone(&registry),
    ))
    .unwrap();
    // Reserve a fixed port for B by binding :0 once and reusing it.
    let b_port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let mut b_config = BrokerConfig::localhost(b, fabric.clone(), Arc::clone(&registry));
    b_config.listen = format!("127.0.0.1:{b_port}").parse().unwrap();
    let node_b = BrokerNode::start(b_config.clone()).unwrap();

    // A supervises the link to B.
    node_a.connect_to_persistent(b, node_b.addr());

    // Subscribe at A; the subscription floods to B.
    let mut subscriber =
        Client::connect(node_a.addr(), sub_client, 0, Arc::clone(&registry)).unwrap();
    subscriber
        .subscribe(SchemaId::new(0), "volume >= 0")
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while node_b.stats().subscriptions < 1 {
        assert!(Instant::now() < deadline, "initial flood stalled");
        std::thread::sleep(Duration::from_millis(10));
    }

    // B crashes, losing all state; then restarts empty on the same port.
    node_b.shutdown();
    std::thread::sleep(Duration::from_millis(200));
    let node_b = BrokerNode::start(b_config).unwrap();
    assert_eq!(
        node_b.stats().subscriptions,
        0,
        "fresh instance knows nothing"
    );

    // The supervisor redials, both sides resync: B relearns the
    // subscription without anyone re-subscribing.
    let deadline = Instant::now() + Duration::from_secs(10);
    while node_b.stats().subscriptions < 1 {
        assert!(
            Instant::now() < deadline,
            "resync did not restore subscriptions"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Publishing from B now reaches the subscriber at A.
    let mut publisher =
        Client::connect(node_b.addr(), pub_client, 0, Arc::clone(&registry)).unwrap();
    let schema = registry.get(SchemaId::new(0)).unwrap();
    publisher
        .publish(&Event::from_values(schema, [Value::str("RECOVERED"), Value::Int(1)]).unwrap())
        .unwrap();
    let (_, event) = subscriber.recv(Duration::from_secs(10)).unwrap();
    assert_eq!(event.value_by_name("issue"), Some(&Value::str("RECOVERED")));
    assert_eq!(node_a.broker(), BrokerId::new(0));
}
