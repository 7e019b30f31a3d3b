//! Quickstart: a three-broker line, a content-based subscription, and one
//! published event — the smallest end-to-end use of the public API.
//!
//! Run with: `cargo run --example quickstart`

use linkcast::types::{parse_predicate, Event, EventSchema, Value, ValueKind};
use linkcast::{ContentRouter, NetworkBuilder, RoutingFabric};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the broker topology: B0 - B1 - B2 (delays in ms).
    let mut builder = NetworkBuilder::new();
    let brokers = builder.add_brokers(3);
    builder.connect(brokers[0], brokers[1], 25.0)?;
    builder.connect(brokers[1], brokers[2], 25.0)?;
    let alice = builder.add_client(brokers[2])?;
    let bob = builder.add_client(brokers[1])?;
    let fabric = RoutingFabric::new_all_roots(builder.build()?)?;

    // 2. Define the information space — the paper's stock-trade schema.
    let schema = EventSchema::builder("trades")
        .attribute("issue", ValueKind::Str)
        .attribute("price", ValueKind::Dollar)
        .attribute("volume", ValueKind::Int)
        .build()?;

    // 3. One link-matching engine per broker, managed by the router.
    let mut router = ContentRouter::new(fabric, schema.clone())?;

    // 4. Content-based subscriptions: predicates, not topics.
    router.subscribe(
        alice,
        parse_predicate(&schema, r#"issue = "IBM" & price < 120.00 & volume > 1000"#)?,
    )?;
    router.subscribe(bob, parse_predicate(&schema, r#"volume > 100000"#)?)?;

    // 5. Publish from B0 and watch link matching route hop by hop.
    let event = Event::from_values(
        &schema,
        [Value::str("IBM"), Value::dollar(119, 50), Value::Int(3000)],
    )?;
    let delivery = router.publish(brokers[0], &event)?;

    println!("published: {event}");
    println!("recipients: {:?}", delivery.recipients);
    println!(
        "broker-to-broker copies: {} (flooding would use {})",
        delivery.broker_messages, 2
    );
    println!("matching steps per hop:");
    for hop in &delivery.per_hop {
        println!("  {} at {} hops: {} steps", hop.broker, hop.hops, hop.steps);
    }
    assert_eq!(delivery.recipients, vec![alice]);
    Ok(())
}
