//! Integration test of the TCP broker prototype: a three-broker line with
//! real sockets, real threads, and the full client/broker protocol.

use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_types::{
    BrokerId, ClientId, Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind,
};

fn registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    Arc::new(r)
}

struct Cluster {
    nodes: Vec<BrokerNode>,
    registry: Arc<SchemaRegistry>,
    clients: Vec<ClientId>,
}

/// Starts B0 - B1 - B2 with two provisioned clients per broker and wires
/// the broker links.
fn start_cluster() -> Cluster {
    start_cluster_over(registry())
}

/// [`start_cluster`] serving the information spaces of `registry`.
fn start_cluster_over(registry: Arc<SchemaRegistry>) -> Cluster {
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(3);
    b.connect(brokers[0], brokers[1], 10.0).unwrap();
    b.connect(brokers[1], brokers[2], 10.0).unwrap();
    let mut clients = Vec::new();
    for &broker in &brokers {
        clients.extend(b.add_clients(broker, 2).unwrap());
    }
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();

    let nodes: Vec<BrokerNode> = brokers
        .iter()
        .map(|&id| {
            BrokerNode::start(BrokerConfig::localhost(
                id,
                fabric.clone(),
                Arc::clone(&registry),
            ))
            .unwrap()
        })
        .collect();
    // Wire the topology: the higher-id side dials.
    nodes[1].connect_to_persistent(BrokerId::new(0), nodes[0].addr());
    nodes[2].connect_to_persistent(BrokerId::new(1), nodes[1].addr());
    Cluster {
        nodes,
        registry,
        clients,
    }
}

/// Polls until every node reports `expected` subscriptions (control-plane
/// flooding is asynchronous).
fn await_subscriptions(cluster: &Cluster, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if cluster
            .nodes
            .iter()
            .all(|n| n.stats().subscriptions == expected as u64)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "subscription flooding did not converge: {:?}",
            cluster
                .nodes
                .iter()
                .map(|n| n.stats().subscriptions)
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn trade(registry: &SchemaRegistry, issue: &str, cents: i64, volume: i64) -> Event {
    let schema = registry.get_by_name("trades").unwrap();
    Event::from_values(
        schema,
        [Value::str(issue), Value::Dollar(cents), Value::Int(volume)],
    )
    .unwrap()
}

#[test]
fn events_cross_the_wire_to_matching_subscribers_only() {
    let cluster = start_cluster();
    let schema_id = SchemaId::new(0);

    // Client 4 lives at B2; client 0 at B0 publishes.
    let mut subscriber = Client::connect(
        cluster.nodes[2].addr(),
        cluster.clients[4],
        0,
        Arc::clone(&cluster.registry),
    )
    .unwrap();
    let mut bystander = Client::connect(
        cluster.nodes[1].addr(),
        cluster.clients[2],
        0,
        Arc::clone(&cluster.registry),
    )
    .unwrap();
    let mut publisher = Client::connect(
        cluster.nodes[0].addr(),
        cluster.clients[0],
        0,
        Arc::clone(&cluster.registry),
    )
    .unwrap();

    subscriber
        .subscribe(schema_id, r#"issue = "IBM" & volume > 1000"#)
        .unwrap();
    bystander.subscribe(schema_id, r#"issue = "HP""#).unwrap();
    await_subscriptions(&cluster, 2);

    publisher
        .publish(&trade(&cluster.registry, "IBM", 11950, 3000))
        .unwrap();
    publisher
        .publish(&trade(&cluster.registry, "IBM", 11950, 10))
        .unwrap(); // volume too low

    let (seq, event) = subscriber.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(seq, 1);
    assert_eq!(event.value_by_name("volume"), Some(&Value::Int(3000)));
    // No second delivery for the low-volume trade.
    assert!(subscriber.recv(Duration::from_millis(300)).is_err());
    // The HP subscriber got nothing.
    assert!(bystander.recv(Duration::from_millis(100)).is_err());

    // Broker-level counters: B0 published 2, forwarded only the matching
    // one; B2 delivered 1.
    let s0 = cluster.nodes[0].stats();
    assert_eq!(s0.published, 2);
    assert_eq!(s0.forwarded, 1);
    let s2 = cluster.nodes[2].stats();
    assert_eq!(s2.delivered, 1);
}

#[test]
fn subscriptions_work_from_any_broker_and_unsubscribe_propagates() {
    let cluster = start_cluster();
    let schema_id = SchemaId::new(0);

    let mut sub_client = Client::connect(
        cluster.nodes[0].addr(),
        cluster.clients[0],
        0,
        Arc::clone(&cluster.registry),
    )
    .unwrap();
    let mut pub_client = Client::connect(
        cluster.nodes[2].addr(),
        cluster.clients[5],
        0,
        Arc::clone(&cluster.registry),
    )
    .unwrap();

    let id = sub_client.subscribe(schema_id, "volume > 0").unwrap();
    await_subscriptions(&cluster, 1);

    pub_client
        .publish(&trade(&cluster.registry, "SUN", 100, 5))
        .unwrap();
    let (_, event) = sub_client.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(event.value_by_name("issue"), Some(&Value::str("SUN")));

    sub_client.unsubscribe(id).unwrap();
    await_subscriptions(&cluster, 0);
    pub_client
        .publish(&trade(&cluster.registry, "SUN", 100, 5))
        .unwrap();
    assert!(sub_client.recv(Duration::from_millis(300)).is_err());
}

#[test]
fn bad_requests_get_error_frames() {
    let cluster = start_cluster();
    // Hello with a client homed elsewhere is rejected.
    let err = Client::connect(
        cluster.nodes[0].addr(),
        cluster.clients[4], // homed at B2
        0,
        Arc::clone(&cluster.registry),
    )
    .unwrap_err();
    assert!(err.to_string().contains("not homed"), "{err}");

    // Subscribing to a nonexistent information space is rejected.
    let mut client = Client::connect(
        cluster.nodes[0].addr(),
        cluster.clients[0],
        0,
        Arc::clone(&cluster.registry),
    )
    .unwrap();
    let err = client
        .subscribe(SchemaId::new(7), "volume > 0")
        .unwrap_err();
    assert!(err.to_string().contains("information space"), "{err}");
    // And so is a garbled expression.
    let err = client
        .subscribe(SchemaId::new(0), "volume >>> 0")
        .unwrap_err();
    assert!(matches!(err, linkcast_broker::ClientError::Rejected(_)));
}

#[test]
fn local_connections_bypass_tcp() {
    let cluster = start_cluster();
    let local = cluster.nodes[0].open_local();
    local.send(&linkcast_broker::ClientToBroker::Hello {
        client: cluster.clients[1],
        resume_from: 0,
    });
    match local.recv(Duration::from_secs(2)).unwrap() {
        linkcast_broker::BrokerToClient::Welcome { client, .. } => {
            assert_eq!(client, cluster.clients[1]);
        }
        other => panic!("expected welcome, got {other:?}"),
    }
    local.send(&linkcast_broker::ClientToBroker::Subscribe {
        schema: SchemaId::new(0),
        expression: "volume > 0".into(),
    });
    match local.recv(Duration::from_secs(2)).unwrap() {
        linkcast_broker::BrokerToClient::SubAck { .. } => {}
        other => panic!("expected suback, got {other:?}"),
    }
    local.send(&linkcast_broker::ClientToBroker::Publish {
        event: trade(&cluster.registry, "IBM", 1, 10),
    });
    match local.recv(Duration::from_secs(2)).unwrap() {
        linkcast_broker::BrokerToClient::Deliver { seq, .. } => assert_eq!(seq, 1),
        other => panic!("expected delivery, got {other:?}"),
    }
}

/// Greets the broker as `client` over an in-process connection.
fn open_local_as(node: &BrokerNode, client: ClientId) -> linkcast_broker::LocalConn {
    let local = node.open_local();
    local.send(&linkcast_broker::ClientToBroker::Hello {
        client,
        resume_from: 0,
    });
    match local.recv(Duration::from_secs(2)).unwrap() {
        linkcast_broker::BrokerToClient::Welcome { .. } => local,
        other => panic!("expected welcome, got {other:?}"),
    }
}

/// Subscribes over an in-process connection and waits for the ack.
fn subscribe_local(local: &linkcast_broker::LocalConn, expression: String) {
    local.send(&linkcast_broker::ClientToBroker::Subscribe {
        schema: SchemaId::new(0),
        expression,
    });
    match local.recv(Duration::from_secs(2)).unwrap() {
        linkcast_broker::BrokerToClient::SubAck { .. } => {}
        other => panic!("expected suback, got {other:?}"),
    }
}

/// The benchmark's schema, `issue, volume, a1..a6, ts`, as the one
/// information space.
fn bench_registry() -> Arc<SchemaRegistry> {
    let mut schema = EventSchema::builder("bench")
        .attribute("issue", ValueKind::Str)
        .attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        schema = schema.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let mut registry = SchemaRegistry::new();
    registry
        .register(schema.attribute("ts", ValueKind::Int).build().unwrap())
        .unwrap();
    Arc::new(registry)
}

/// The benchmark's event stamped `ts`, its volume `ts % 256`.
fn bench_event(schema: &EventSchema, ts: i64) -> Event {
    let mut values = vec![Value::str("IBM"), Value::Int(ts % 256)];
    values.extend((1..=6).map(Value::Int));
    values.push(Value::Int(ts));
    Event::from_values(schema, values).unwrap()
}

/// The benchmark's `relay` table seen from outside a running chain: one
/// `volume >= 0` subscriber at B2, events published at B0. A broker walks
/// its tree with trivial tests eliminated — the default `PstOptions` — so
/// the subscription's `*` on `issue` is skipped and an event costs every
/// broker two steps: six across the chain, not nine.
#[test]
fn relay_table_costs_two_steps_per_broker() {
    const EVENTS: i64 = 64;
    let cluster = start_cluster_over(bench_registry());
    let schema = cluster.registry.get(SchemaId::new(0)).unwrap();
    let publisher = open_local_as(&cluster.nodes[0], cluster.clients[0]);
    let subscriber = open_local_as(&cluster.nodes[2], cluster.clients[4]);
    subscribe_local(&subscriber, "volume >= 0".into());
    await_subscriptions(&cluster, 1);

    for ts in 0..EVENTS {
        let event = bench_event(schema, ts);
        publisher.send(&linkcast_broker::ClientToBroker::Publish { event });
    }
    for ts in 0..EVENTS {
        match subscriber.recv(Duration::from_secs(10)).unwrap() {
            linkcast_broker::BrokerToClient::Deliver { seq, .. } => {
                assert_eq!(seq, ts as u64 + 1, "exactly once, in order");
            }
            other => panic!("expected delivery {ts}, got {other:?}"),
        }
    }
    let matching: Vec<_> = cluster.nodes.iter().map(BrokerNode::match_stats).collect();
    for (node, stats) in cluster.nodes.iter().zip(&matching) {
        assert_eq!(stats.events, EVENTS as u64, "{}", node.broker());
    }
    let steps: u64 = matching.iter().map(|s| s.steps).sum();
    assert_eq!(steps, 6 * EVENTS as u64, "{matching:?}");
}

/// The order adaptation seen from outside a running chain. The table is
/// the benchmark's `match` table with 64 decoy chains: in schema order a
/// broker walks into every chain before `a6` fails it. Each broker counts
/// what its walks test, rebuilds its tree once — at its 256th walked event,
/// between two events — with `a6` at the root, and says so in
/// `order_rebuilds`; from then on an event costs it three steps. The
/// subscriber at the far end sees 1000 events, each once, in order, across
/// the three rebuilds; the decoy subscribers see nothing.
#[test]
fn order_rebuild_is_invisible_to_subscribers() {
    const DECOYS: u64 = 64;
    const EVENTS: i64 = 1000;
    const BURST: i64 = 50;
    let cluster = start_cluster_over(bench_registry());
    let schema = cluster.registry.get(SchemaId::new(0)).unwrap();

    // Clients 0 and 1 live at B0, 2 and 3 at B1, 4 and 5 at B2.
    let publisher = open_local_as(&cluster.nodes[0], cluster.clients[0]);
    let subscriber = open_local_as(&cluster.nodes[2], cluster.clients[4]);
    subscribe_local(&subscriber, "volume >= 0".into());
    let decoys: Vec<_> = [(0, 1), (1, 2), (2, 5)]
        .map(|(node, client)| open_local_as(&cluster.nodes[node], cluster.clients[client]))
        .into();
    for j in 1..=DECOYS {
        let decoy = &decoys[j as usize % decoys.len()];
        subscribe_local(decoy, linkcast_workload::decoy_chain(j));
    }
    await_subscriptions(&cluster, 1 + DECOYS as usize);

    let mut next = 0;
    let mut settled = None;
    while next < EVENTS {
        for ts in next..next + BURST {
            let event = bench_event(schema, ts);
            publisher.send(&linkcast_broker::ClientToBroker::Publish { event });
        }
        for ts in next..next + BURST {
            match subscriber.recv(Duration::from_secs(10)).unwrap() {
                linkcast_broker::BrokerToClient::Deliver { seq, event } => {
                    assert_eq!(seq, ts as u64 + 1, "exactly once, in order");
                    assert_eq!(event.values().last(), Some(&Value::Int(ts)));
                }
                other => panic!("expected delivery {ts}, got {other:?}"),
            }
        }
        next += BURST;
        subscriber.send(&linkcast_broker::ClientToBroker::Ack { seq: next as u64 });
        // Every broker has routed exactly `next` events by now, and 300 is
        // past every broker's one rebuild.
        if next == 300 {
            settled = Some(
                cluster
                    .nodes
                    .iter()
                    .map(BrokerNode::match_stats)
                    .collect::<Vec<_>>(),
            );
        }
    }

    let settled = settled.unwrap();
    for (node, before) in cluster.nodes.iter().zip(&settled) {
        assert_eq!(node.stats().order_rebuilds, 1, "{}", node.broker());
        let after = node.match_stats();
        assert_eq!(before.events, 300, "{}", node.broker());
        assert_eq!(after.events, EVENTS as u64, "{}", node.broker());
        assert_eq!(
            after.steps - before.steps,
            3 * (after.events - before.events),
            "{}: three steps an event once the order has settled",
            node.broker()
        );
    }
    for decoy in &decoys {
        assert!(
            decoy.recv(Duration::from_millis(50)).is_err(),
            "a decoy saw an event"
        );
    }
}

/// One broker, one provisioned client, listening on `listen`.
fn lone_broker(listen: std::net::SocketAddr) -> (BrokerNode, ClientId, Arc<SchemaRegistry>) {
    let mut b = NetworkBuilder::new();
    let broker = b.add_broker();
    let client = b.add_client(broker).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let registry = registry();
    let mut config = BrokerConfig::localhost(broker, fabric, Arc::clone(&registry));
    config.listen = listen;
    (BrokerNode::start(config).unwrap(), client, registry)
}

/// The acceptor blocks in `accept`; it does not poll. When it napped 10 ms
/// between looks at a non-blocking listener, every inbound connection —
/// client connect, link dial, link *re*dial after a flap — waited out what
/// was left of the nap: twenty sequential connects (each through to the
/// broker's `Welcome`) took about 100 ms. Loopback needs a few hundred
/// microseconds apiece; the best of three rounds, so that a neighbour test
/// hogging both cores for one of them proves nothing.
#[test]
fn connects_do_not_wait_out_an_accept_poll() {
    let (node, client, registry) = lone_broker("127.0.0.1:0".parse().unwrap());
    let round = || {
        let started = Instant::now();
        for _ in 0..20 {
            let connected = Client::connect(node.addr(), client, 0, Arc::clone(&registry));
            drop(connected.unwrap());
        }
        started.elapsed()
    };
    let best = (0..3).map(|_| round()).min().unwrap();
    assert!(
        best < Duration::from_millis(40),
        "20 connects + welcomes took {best:?}"
    );
    node.shutdown();
}

/// `shutdown()` — and the crash path — return with the listener unbound:
/// the acceptor, woken out of `accept` by a dial to its own address, has
/// been joined. Fifty restarts on one fixed port, each bound the moment its
/// predecessor returned, each serving a client before it goes.
#[test]
fn restarts_rebind_the_same_port_at_once() {
    let (first, client, registry) = lone_broker("127.0.0.1:0".parse().unwrap());
    let addr = first.addr();
    first.shutdown();
    for restart in 0..50 {
        let (node, _, _) = lone_broker(addr);
        assert_eq!(node.addr(), addr, "restart {restart}");
        let connected = Client::connect(addr, client, 0, Arc::clone(&registry));
        drop(connected.unwrap_or_else(|e| panic!("restart {restart}: {e}")));
        if restart % 2 == 0 {
            node.shutdown();
        } else {
            node.crash();
        }
    }
}
