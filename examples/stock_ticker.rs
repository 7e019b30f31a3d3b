//! Stock ticker: the paper's motivating financial-trading workload on a
//! two-region WAN, showing how link matching exploits locality of interest.
//!
//! Run with: `cargo run --example stock_ticker`

use linkcast::types::{parse_predicate, ClientId, Event, EventSchema, Value, ValueKind};
use linkcast::{ContentRouter, NetworkBuilder, RoutingFabric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NY_ISSUES: [&str; 4] = ["IBM", "GE", "T", "KO"];
const LONDON_ISSUES: [&str; 4] = ["BP", "GLX", "BCS", "HSBA"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two regional hubs (New York, London) joined by a 65 ms transatlantic
    // link, each with two edge brokers.
    let mut builder = NetworkBuilder::new();
    let ny = builder.add_broker();
    let london = builder.add_broker();
    builder.connect(ny, london, 65.0)?;
    let mut edge = Vec::new();
    for &hub in &[ny, london] {
        for _ in 0..2 {
            let b = builder.add_broker();
            builder.connect(hub, b, 10.0)?;
            edge.push(b);
        }
    }
    // Ten trader clients per edge broker.
    let mut traders: Vec<(ClientId, usize)> = Vec::new(); // (client, region)
    for (i, &b) in edge.iter().enumerate() {
        for _ in 0..10 {
            traders.push((builder.add_client(b)?, i / 2));
        }
    }
    let fabric = RoutingFabric::new_all_roots(builder.build()?)?;

    let schema = EventSchema::builder("trades")
        .attribute("issue", ValueKind::Str)
        .attribute("price", ValueKind::Dollar)
        .attribute("volume", ValueKind::Int)
        .build()?;
    let mut router = ContentRouter::new(fabric.clone(), schema.clone())?;

    // Locality of interest: New York traders watch NYSE issues, London
    // traders watch LSE issues — with a couple of cross-region exceptions.
    let mut rng = StdRng::seed_from_u64(2026);
    for (i, &(client, region)) in traders.iter().enumerate() {
        let issues = if region == 0 {
            NY_ISSUES
        } else {
            LONDON_ISSUES
        };
        let issue = issues[rng.random_range(0..issues.len())];
        let cap = 50 + rng.random_range(0..200);
        let expr = format!(r#"issue = "{issue}" & price < {cap}.00"#);
        router.subscribe(client, parse_predicate(&schema, &expr)?)?;
        // Every 10th trader also watches a foreign blue chip on volume.
        if i % 10 == 0 {
            let foreign = if region == 0 { "BP" } else { "IBM" };
            let expr = format!(r#"issue = "{foreign}" & volume > 50000"#);
            router.subscribe(client, parse_predicate(&schema, &expr)?)?;
        }
    }

    // A day of trading: New York publishes NYSE trades, London LSE trades.
    let mut transatlantic = 0u64;
    let mut total_broker_msgs = 0u64;
    let mut deliveries = 0u64;
    let trades = 2_000;
    for _ in 0..trades {
        let region = rng.random_range(0..2);
        let issues = if region == 0 {
            NY_ISSUES
        } else {
            LONDON_ISSUES
        };
        let issue = issues[rng.random_range(0..issues.len())];
        let event = Event::from_values(
            &schema,
            [
                Value::str(issue),
                Value::Dollar(rng.random_range(1_000..25_000)),
                Value::Int(rng.random_range(1..100_000)),
            ],
        )?;
        let publisher = edge[region * 2 + rng.random_range(0..2)];
        let delivery = router.publish(publisher, &event)?;
        total_broker_msgs += delivery.broker_messages;
        deliveries += delivery.recipients.len() as u64;
        // Did this event cross the transatlantic link? It did iff some
        // recipient lives in the other region.
        let crossed = delivery.recipients.iter().any(|c| {
            let home = fabric.network().home_broker(*c).unwrap();
            let recipient_region = usize::from(
                home != publisher && edge[region * 2] != home && edge[region * 2 + 1] != home,
            );
            recipient_region == 1
        });
        if crossed {
            transatlantic += 1;
        }
    }

    println!("trades published:        {trades}");
    println!("client deliveries:       {deliveries}");
    println!("broker-to-broker copies: {total_broker_msgs}");
    println!(
        "events crossing the transatlantic link: {transatlantic} ({:.1}%)",
        100.0 * transatlantic as f64 / trades as f64
    );
    println!(
        "flooding would have sent {} broker copies (every tree edge, every event)",
        trades * 5
    );
    Ok(())
}
