//! TCP cluster: the §4.2 broker prototype as a real process — five brokers
//! on localhost sockets, clients speaking the wire protocol, a
//! disconnect/reconnect to exercise the event log.
//!
//! Run with: `cargo run --example tcp_cluster`

use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_types::{BrokerId, Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Topology: a hub (B0) with four spokes; one client per broker.
    let mut builder = NetworkBuilder::new();
    let hub = builder.add_broker();
    let spokes: Vec<_> = (0..4)
        .map(|_| {
            let b = builder.add_broker();
            builder.connect(hub, b, 10.0).unwrap();
            b
        })
        .collect();
    let mut client_ids = vec![builder.add_client(hub)?];
    for &s in &spokes {
        client_ids.push(builder.add_client(s)?);
    }
    let fabric = RoutingFabric::new_all_roots(builder.build()?)?;

    let mut registry = SchemaRegistry::new();
    registry.register(
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .build()?,
    )?;
    let registry = Arc::new(registry);

    // Start five broker processes (threads) and wire the links.
    let nodes: Vec<BrokerNode> = (0..5)
        .map(|i| {
            BrokerNode::start(BrokerConfig::localhost(
                BrokerId::new(i),
                fabric.clone(),
                Arc::clone(&registry),
            ))
            .expect("broker starts")
        })
        .collect();
    for i in 1..5 {
        nodes[i].connect_to_persistent(BrokerId::new(0), nodes[0].addr());
    }
    println!("five brokers listening:");
    for n in &nodes {
        println!("  {} on {}", n.broker(), n.addr());
    }

    // A subscriber on spoke 1, a publisher on spoke 4.
    let trades = SchemaId::new(0);
    let mut subscriber = Client::connect(nodes[1].addr(), client_ids[1], 0, Arc::clone(&registry))?;
    let sub_id = subscriber.subscribe(trades, r#"issue = "IBM" & volume > 1000"#)?;
    println!("\nsubscribed {sub_id}: issue = \"IBM\" & volume > 1000");

    // Wait for the control plane to flood the subscription everywhere.
    let deadline = Instant::now() + Duration::from_secs(5);
    while nodes.iter().any(|n| n.stats().subscriptions < 1) {
        assert!(Instant::now() < deadline, "subscription flooding stalled");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut publisher = Client::connect(nodes[4].addr(), client_ids[4], 0, Arc::clone(&registry))?;
    let schema = registry.get(trades).unwrap();
    let hit = Event::from_values(
        schema,
        [Value::str("IBM"), Value::dollar(119, 50), Value::Int(3000)],
    )?;
    let miss = Event::from_values(
        schema,
        [Value::str("IBM"), Value::dollar(119, 50), Value::Int(10)],
    )?;
    publisher.publish(&hit)?;
    publisher.publish(&miss)?;

    let (seq, event) = subscriber.recv(Duration::from_secs(5))?;
    println!("received #{seq}: {event}");

    // Crash the subscriber, publish while it is away, reconnect, replay.
    let resume = subscriber.last_seq();
    drop(subscriber);
    println!("\nsubscriber crashed; publishing two more IBM trades...");
    for cents in [11800, 11700] {
        let e = Event::from_values(
            schema,
            [Value::str("IBM"), Value::Dollar(cents), Value::Int(5000)],
        )?;
        publisher.publish(&e)?;
    }
    // Let the deliveries reach the subscriber's broker log.
    let deadline = Instant::now() + Duration::from_secs(5);
    while nodes[1].stats().delivered < 3 {
        assert!(Instant::now() < deadline, "deliveries stalled");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut subscriber = Client::connect(
        nodes[1].addr(),
        client_ids[1],
        resume,
        Arc::clone(&registry),
    )?;
    println!("reconnected with resume_from = {resume}; replaying missed events:");
    while let Ok((seq, event)) = subscriber.recv(Duration::from_millis(500)) {
        println!("  replayed #{seq}: {event}");
    }

    for n in &nodes {
        let s = n.stats();
        println!(
            "{}: published={} forwarded={} delivered={}",
            n.broker(),
            s.published,
            s.forwarded,
            s.delivered
        );
    }
    for n in nodes {
        n.shutdown();
    }
    println!("\nall brokers stopped cleanly");
    Ok(())
}
