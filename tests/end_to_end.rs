//! End-to-end scenarios through the public API: the paper's stock-trading
//! information space over a WAN-like topology.

use linkcast::{ContentRouter, NetworkBuilder, RoutingFabric};
use linkcast_matching::MatchStats;
use linkcast_types::{parse_predicate, BrokerId, ClientId, Event, EventSchema, Value, ValueKind};

fn trades_schema() -> EventSchema {
    EventSchema::builder("trades")
        .attribute("issue", ValueKind::Str)
        .attribute("price", ValueKind::Dollar)
        .attribute("volume", ValueKind::Int)
        .build()
        .unwrap()
}

fn trade(schema: &EventSchema, issue: &str, cents: i64, volume: i64) -> Event {
    Event::from_values(
        schema,
        [Value::str(issue), Value::Dollar(cents), Value::Int(volume)],
    )
    .unwrap()
}

/// Two regional broker trees joined at the top — a miniature of Figure 6.
struct Wan {
    fabric: std::sync::Arc<RoutingFabric>,
    hubs: [BrokerId; 2],
    leaves: [BrokerId; 4],
    clients: Vec<ClientId>, // one per leaf broker, then one per hub
}

fn wan() -> Wan {
    let mut b = NetworkBuilder::new();
    let hubs = [b.add_broker(), b.add_broker()];
    b.connect(hubs[0], hubs[1], 65.0).unwrap();
    let mut leaves = Vec::new();
    for &hub in &hubs {
        for _ in 0..2 {
            let leaf = b.add_broker();
            b.connect(hub, leaf, 10.0).unwrap();
            leaves.push(leaf);
        }
    }
    let mut clients = Vec::new();
    for &leaf in &leaves {
        clients.push(b.add_client(leaf).unwrap());
    }
    for &hub in &hubs {
        clients.push(b.add_client(hub).unwrap());
    }
    Wan {
        fabric: RoutingFabric::new_all_roots(b.build().unwrap()).unwrap(),
        hubs,
        leaves: [leaves[0], leaves[1], leaves[2], leaves[3]],
        clients,
    }
}

#[test]
fn stock_trading_scenario() {
    let schema = trades_schema();
    let wan = wan();
    let mut router = ContentRouter::new(wan.fabric.clone(), schema.clone()).unwrap();

    // The paper's running example subscription, and some orthogonal ones.
    let ibm_watcher = router
        .subscribe(
            wan.clients[0],
            parse_predicate(&schema, r#"issue = "IBM" & price < 120.00 & volume > 1000"#).unwrap(),
        )
        .unwrap();
    router
        .subscribe(
            wan.clients[1],
            parse_predicate(&schema, r#"volume > 100000"#).unwrap(),
        )
        .unwrap();
    router
        .subscribe(
            wan.clients[2],
            parse_predicate(&schema, r#"issue = "HP""#).unwrap(),
        )
        .unwrap();

    // A qualifying IBM trade published from the far side of the WAN.
    let d = router
        .publish(wan.leaves[3], &trade(&schema, "IBM", 11950, 3000))
        .unwrap();
    assert_eq!(d.recipients, vec![wan.clients[0]]);

    // Price too high: nobody gets it, and the WAN link stays quiet.
    let d = router
        .publish(wan.leaves[3], &trade(&schema, "IBM", 12100, 3000))
        .unwrap();
    assert!(d.recipients.is_empty());
    assert_eq!(d.broker_messages, 0);

    // A huge trade matches both the volume watcher and the IBM watcher.
    let d = router
        .publish(wan.hubs[0], &trade(&schema, "IBM", 11000, 200_000))
        .unwrap();
    assert_eq!(d.recipients, vec![wan.clients[0], wan.clients[1]]);

    // Unsubscribe and confirm silence for that subscriber.
    assert!(router.unsubscribe(ibm_watcher));
    let d = router
        .publish(wan.leaves[3], &trade(&schema, "IBM", 11950, 3000))
        .unwrap();
    assert!(d.recipients.is_empty());
}

#[test]
fn locality_keeps_regional_traffic_regional() {
    let schema = trades_schema();
    let wan = wan();
    let mut router = ContentRouter::new(wan.fabric.clone(), schema.clone()).unwrap();

    // Region 0 (leaves 0, 1) cares about IBM; region 1 (leaves 2, 3) about HP.
    router
        .subscribe(
            wan.clients[0],
            parse_predicate(&schema, r#"issue = "IBM""#).unwrap(),
        )
        .unwrap();
    router
        .subscribe(
            wan.clients[1],
            parse_predicate(&schema, r#"issue = "IBM""#).unwrap(),
        )
        .unwrap();
    router
        .subscribe(
            wan.clients[2],
            parse_predicate(&schema, r#"issue = "HP""#).unwrap(),
        )
        .unwrap();

    // An IBM trade published inside region 0 never crosses the 65 ms
    // intercontinental link.
    let d = router
        .publish(wan.leaves[0], &trade(&schema, "IBM", 100, 1))
        .unwrap();
    assert_eq!(d.recipients, vec![wan.clients[0], wan.clients[1]]);
    // Path: leaf0 -> hub0 -> leaf1 (2 broker messages; the hub0->hub1 link
    // is never used).
    assert_eq!(d.broker_messages, 2);
    assert_eq!(d.max_hops, 2);
}

#[test]
fn per_hop_costs_are_recorded() {
    let schema = trades_schema();
    let wan = wan();
    let mut router = ContentRouter::new(wan.fabric.clone(), schema.clone()).unwrap();
    router
        .subscribe(
            wan.clients[3],
            parse_predicate(&schema, r#"issue = "IBM""#).unwrap(),
        )
        .unwrap();
    let d = router
        .publish(wan.leaves[0], &trade(&schema, "IBM", 1, 1))
        .unwrap();
    assert_eq!(d.recipients, vec![wan.clients[3]]);
    // leaf0 -> hub0 -> hub1 -> leaf3: four brokers process the event.
    assert_eq!(d.per_hop.len(), 4);
    assert_eq!(d.max_hops, 3);
    assert!(d.total_steps > 0);
    assert!(d.per_hop.iter().all(|h| h.steps > 0));
    // Hop distances are contiguous along the path.
    let mut hops: Vec<u32> = d.per_hop.iter().map(|h| h.hops).collect();
    hops.sort_unstable();
    assert_eq!(hops, vec![0, 1, 2, 3]);
}

#[test]
fn centralized_matching_agrees_with_routing() {
    let schema = trades_schema();
    let wan = wan();
    let mut router = ContentRouter::new(wan.fabric.clone(), schema.clone()).unwrap();
    let sub = router
        .subscribe(
            wan.clients[2],
            parse_predicate(&schema, r#"issue = "IBM" & volume > 10"#).unwrap(),
        )
        .unwrap();
    let event = trade(&schema, "IBM", 1, 100);
    let mut stats = MatchStats::new();
    let matched = router.centralized_match(wan.hubs[0], &event, &mut stats);
    assert_eq!(matched, vec![sub]);
    assert!(stats.steps > 0);
    let d = router.publish(wan.hubs[0], &event).unwrap();
    assert_eq!(d.recipients, vec![wan.clients[2]]);
}

#[test]
fn many_subscribers_per_client_and_duplicate_suppression() {
    let schema = trades_schema();
    let wan = wan();
    let mut router = ContentRouter::new(wan.fabric.clone(), schema.clone()).unwrap();
    // The same client subscribes twice with overlapping predicates; it must
    // still receive exactly one copy.
    router
        .subscribe(
            wan.clients[0],
            parse_predicate(&schema, r#"issue = "IBM""#).unwrap(),
        )
        .unwrap();
    router
        .subscribe(
            wan.clients[0],
            parse_predicate(&schema, r#"volume > 0"#).unwrap(),
        )
        .unwrap();
    let d = router
        .publish(wan.hubs[1], &trade(&schema, "IBM", 1, 10))
        .unwrap();
    assert_eq!(d.recipients, vec![wan.clients[0]]);
    assert_eq!(
        d.recipients.len(),
        1,
        "one copy per client, not per subscription"
    );
}
