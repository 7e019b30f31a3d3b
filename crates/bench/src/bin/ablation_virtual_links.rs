//! **Ablation A3 — virtual links** (§3.2, footnote 1): "In some cases,
//! where some destinations reachable through a link \[are\] downstream on
//! some spanning trees and are not on others, the search may be optimized
//! by splitting the link into two or more 'virtual' links."
//!
//! Reports, per broker of (a) a tree-shaped network and (b) increasingly
//! cyclic networks, how many virtual-link classes arise and the resulting
//! trit-vector width — the space cost of exactness on non-tree topologies —
//! and validates that routing stays exact from every publisher.
//!
//! Run with: `cargo run --release -p linkcast-bench --bin ablation_virtual_links`

use linkcast::{ContentRouter, LinkSpace, NetworkBuilder, RoutingFabric};
use linkcast_bench::print_table;
use linkcast_types::{AttrTest, ClientId, Event, EventSchema, Predicate, Value, ValueKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn schema() -> EventSchema {
    let mut b = EventSchema::builder("vl");
    for i in 0..3 {
        b = b.attribute_with_domain(format!("a{i}"), ValueKind::Int, (0..3).map(Value::Int));
    }
    b.build().unwrap()
}

/// A 9-broker ring with `chords` extra chords, two clients per broker.
fn ring_with_chords(chords: usize) -> (Arc<RoutingFabric>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let ids = b.add_brokers(9);
    for i in 0..9 {
        b.connect(ids[i], ids[(i + 1) % 9], 10.0).unwrap();
    }
    let chord_edges = [(0usize, 4usize), (2, 6), (1, 5), (3, 8)];
    for &(x, y) in chord_edges.iter().take(chords) {
        b.connect(ids[x], ids[y], 17.0).unwrap();
    }
    let mut clients = Vec::new();
    for &id in &ids {
        clients.extend(b.add_clients(id, 2).unwrap());
    }
    (
        RoutingFabric::new_all_roots(b.build().unwrap()).unwrap(),
        clients,
    )
}

/// A 9-broker star-of-lines (a pure tree), two clients per broker.
fn tree_network() -> (Arc<RoutingFabric>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let ids = b.add_brokers(9);
    for i in 1..9 {
        b.connect(ids[i], ids[(i - 1) / 2], 10.0).unwrap();
    }
    let mut clients = Vec::new();
    for &id in &ids {
        clients.extend(b.add_clients(id, 2).unwrap());
    }
    (
        RoutingFabric::new_all_roots(b.build().unwrap()).unwrap(),
        clients,
    )
}

fn exactness_check(fabric: &Arc<RoutingFabric>, clients: &[ClientId], rng: &mut StdRng) {
    let schema = schema();
    let mut router = ContentRouter::new(fabric.clone(), schema.clone()).unwrap();
    let mut oracle = Vec::new();
    for &client in clients {
        let tests: Vec<AttrTest> = (0..3)
            .map(|_| {
                if rng.random_bool(0.5) {
                    AttrTest::Eq(Value::Int(rng.random_range(0..3)))
                } else {
                    AttrTest::Any
                }
            })
            .collect();
        let p = Predicate::from_tests(&schema, tests).unwrap();
        router.subscribe(client, p.clone()).unwrap();
        oracle.push((client, p));
    }
    for publisher in fabric.network().brokers() {
        for _ in 0..20 {
            let event =
                Event::from_values(&schema, (0..3).map(|_| Value::Int(rng.random_range(0..3))))
                    .unwrap();
            let d = router.publish(publisher, &event).unwrap();
            let mut expected: Vec<ClientId> = oracle
                .iter()
                .filter(|(_, p)| p.matches(&event))
                .map(|(c, _)| *c)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(d.recipients, expected, "publisher {publisher}");
        }
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut rows = Vec::new();
    let worlds: Vec<(String, Arc<RoutingFabric>, Vec<ClientId>)> = std::iter::once({
        let (f, c) = tree_network();
        ("tree".to_string(), f, c)
    })
    .chain((0..=4).map(|chords| {
        let (f, c) = ring_with_chords(chords);
        (format!("ring + {chords} chords"), f, c)
    }))
    .collect();

    for (name, fabric, clients) in &worlds {
        exactness_check(fabric, clients, &mut rng);
        let mut max_classes = 0usize;
        let mut total_width = 0usize;
        let mut total_links = 0usize;
        for broker in fabric.network().brokers() {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            max_classes = max_classes.max(space.class_count());
            total_width += space.width();
            total_links += space.link_count();
        }
        rows.push((
            name.clone(),
            vec![
                format!("{}", fabric.forest().len()),
                format!("{max_classes}"),
                format!("{:.2}x", total_width as f64 / total_links as f64),
            ],
        ));
    }

    print_table(
        "Ablation A3: virtual-link classes (9 brokers, trees for all publishers)",
        "topology",
        &["spanning trees", "max classes/broker", "width overhead"],
        &rows,
    );
    println!(
        "\nOn a tree every spanning tree induces the same next-hop table, so one\n\
         class suffices (width overhead 1.00x) — the paper's base case. Cycles\n\
         force footnote 1's virtual links: classes multiply trit-vector width\n\
         but keep routing exact from every publisher (validated above)."
    );
}
