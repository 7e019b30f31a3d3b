//! The `match` workload's table of `benchmark/`, built in-process and
//! walked as a broker walks it, with the per-broker step counts pinned and
//! every link set checked against the brute-force oracle.
//!
//! Three brokers in a chain A–B–C, spanning trees rooted everywhere, the
//! publisher at A, the subscriber (`volume >= 0`) at C, and 2048 decoy
//! chains — six range tests every event passes, a seventh none does — over
//! 96 decoy clients, client `slot` homed at broker `slot % 3`. Every broker
//! installs the real subscription first and then the chains phase by phase
//! (the chains of A's clients, then B's, then C's, ascending), as the
//! benchmark's rig does; the constants the benchmark offsets by a
//! seed-derived base are taken at base 0, which changes no shape.
//!
//! The PST keeps what no two subscriptions share as one tail node each:
//! the root and the `volume` node (which the first chain parting ways with
//! the real subscription, alone in the tree until then, made real), the
//! real subscription's tail below `volume`, and one tail per chain —
//! `3 + DECOYS` nodes standing for the `2 + 8 + 8·DECOYS` of the tree with
//! every chain spelled out, which is the tree the search walks.
//!
//! The arena walks under trivial test elimination: the root's only edge
//! is `*` (no subscription tests `issue`), so an event skips it and lands
//! on `volume`. From there it enters the subscriber's tail and folds
//! `a1..a5` of every chain into the prefix of its `a6` node — one step per
//! chain, `2 + DECOYS` in all — and keeps each tail as the one node the
//! PST does: it holds `3 + DECOYS` nodes and reports (`summary()`) the
//! runs of the spelled-out tree its walk is charged by.
//!
//! The table of the `chain_depth` bench (`crates/bench/benches/
//! link_matching.rs`) is pinned the same way, per event, at the depths the
//! bench runs — once as the bench builds it, every chain a tail, and once
//! with a twin per chain that makes the chain's passing levels real PST
//! nodes, so that the runs the walk folds are found in the tree itself.

use linkcast::{LinkMatchEngine, LinkSpace, NetworkBuilder, RouteScratch, RoutingFabric};
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    parse_predicate, Event, EventSchema, SubscriberId, Subscription, SubscriptionId, Value,
    ValueKind,
};
use linkcast_workload::decoy_chain;

mod oracle;

use oracle::oracle_links;

const BROKERS: usize = 3;
const DECOYS: u64 = 2048;
const DECOY_CLIENTS: u64 = 96;

/// The benchmark's schema: `issue, volume, a1..a6, ts`.
fn bench_schema() -> EventSchema {
    let mut schema = EventSchema::builder("bench")
        .attribute("issue", ValueKind::Str)
        .attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        schema = schema.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    schema.attribute("ts", ValueKind::Int).build().unwrap()
}

/// The event the benchmark publishes with this `volume`.
fn bench_event(schema: &EventSchema, volume: i64) -> Event {
    let mut values = vec![Value::str("IBM"), Value::Int(volume)];
    values.extend((1..=6).map(Value::Int));
    values.push(Value::Int(1_000 + volume));
    Event::from_values(schema, values).unwrap()
}

/// The chain's fabric, the table, and one engine per broker, each holding
/// the real subscription and `decoys` chains installed as the module doc
/// describes.
fn chain_engines(
    schema: &EventSchema,
    decoys: u64,
) -> (
    std::sync::Arc<RoutingFabric>,
    Vec<Subscription>,
    Vec<LinkMatchEngine>,
) {
    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(BROKERS);
    for pair in brokers.windows(2) {
        net.connect(pair[0], pair[1], 5.0).unwrap();
    }
    let _publisher = net.add_client(brokers[0]).unwrap();
    let subscriber = net.add_client(brokers[BROKERS - 1]).unwrap();
    let _churn = net.add_client(brokers[BROKERS - 1]).unwrap();
    let decoy_clients: Vec<_> = (0..DECOY_CLIENTS as usize)
        .map(|slot| net.add_client(brokers[slot % BROKERS]).unwrap())
        .collect();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();

    // (client, predicate) in install order, the same at every broker.
    let mut table = vec![(subscriber, "volume >= 0".to_string())];
    for phase in 0..BROKERS as u64 {
        let chains = (1..=decoys).filter(|j| (j % DECOY_CLIENTS) % BROKERS as u64 == phase);
        table.extend(chains.map(|j| {
            let client = decoy_clients[(j % DECOY_CLIENTS) as usize];
            (client, decoy_chain(j))
        }));
    }

    let table: Vec<Subscription> = (table.iter().enumerate())
        .map(|(id, (client, predicate))| {
            let home = fabric.network().home_broker(*client).unwrap();
            Subscription::new(
                SubscriptionId::new(id as u32),
                SubscriberId::new(home, *client),
                parse_predicate(schema, predicate).unwrap(),
            )
        })
        .collect();
    let engines = brokers
        .iter()
        .map(|&broker| {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            let mut engine =
                LinkMatchEngine::new(broker, schema.clone(), PstOptions::default(), space).unwrap();
            for subscription in &table {
                engine.subscribe(subscription.clone()).unwrap();
            }
            engine
        })
        .collect();
    (fabric, table, engines)
}

#[test]
fn match_table_steps_are_pinned() {
    let schema = bench_schema();
    let (fabric, table, engines) = chain_engines(&schema, DECOYS);
    let brokers: Vec<_> = fabric.network().brokers().collect();

    // Per chain the logical tree has the run [a1..a5 | a6], the `ts` node
    // and the leaf; plus the root, the `volume` node and the subscriber's
    // eight. Kept: a node per PST node.
    for engine in &engines {
        let summary = engine.arena().summary();
        assert_eq!(engine.pst().node_count(), 3 + DECOYS as usize);
        assert_eq!(summary.covered_nodes, engine.pst().expanded_node_count());
        assert_eq!(summary.covered_nodes, 2 + 8 + 8 * DECOYS as usize);
        assert_eq!(summary.nodes, 3 + DECOYS as usize);
        assert_eq!(engine.arena().node_count(), 3 + DECOYS as usize);
        assert_eq!(summary.runs, DECOYS as usize);
        assert_eq!(summary.prefix_tests, 5 * DECOYS as usize);
    }

    let tree_id = fabric.tree_for(brokers[0]).unwrap();
    let tree = fabric.forest().tree(tree_id).unwrap();
    let mut scratch = RouteScratch::new();
    let mut links = Vec::new();
    for volume in [0, 17, 255] {
        let event = bench_event(&schema, volume);

        let mut arena_steps = Vec::new();
        for engine in &engines {
            let mut arena = MatchStats::new();
            engine.match_links_into(&event, tree_id, &mut scratch, &mut arena, &mut links);
            let expected = oracle_links(fabric.network(), tree, engine.broker(), &table, &event);
            assert_eq!(links, expected, "volume {volume} at {}", engine.broker());
            assert_eq!(links.len(), 1, "towards the subscriber, nowhere else");
            arena_steps.push(arena.steps);
        }
        assert_eq!(arena_steps, [2050, 2050, 2050], "volume {volume}");
    }
}

/// The same table, fed through `match_links_into` + `adapt_order` as a
/// broker's inline route does. The walk counts what its edge tests come to;
/// at the first check — walked event 256, not before — every engine finds
/// that `a6` fails for all but the one subscription that does not test it,
/// prices the schema order at 8.0 against 1.0, and rebuilds once with `a6`
/// at the root: a binary search over the 2048 range edges there finds,
/// in 12 comparisons, that none holds, and no chain is entered. Nothing
/// after that is worth another rebuild. A table with one subscription (`relay`'s) has nothing to choose between: its
/// walk is two steps, the tail that subscription is and the node of its
/// `volume` test, with the `*` on `issue` between them skipped.
#[test]
fn observed_selectivity_reorders_the_match_table_once() {
    let schema = bench_schema();
    let (fabric, table, mut engines) = chain_engines(&schema, DECOYS);
    let tree = fabric.tree_for(engines[0].broker()).unwrap();
    let spanning = fabric.forest().tree(tree).unwrap();
    let attr = |name: &str| schema.attribute_index(name).unwrap();
    let adapted: Vec<usize> = ["a6", "volume", "a1", "a2", "a3", "a4", "a5", "issue", "ts"]
        .map(attr)
        .to_vec();

    let mut links = Vec::new();
    for engine in &mut engines {
        let mut scratch = RouteScratch::new();
        let generation = engine.generation();
        let tested = engine.tested_attributes().to_vec();
        let nodes = engine.arena().node_count();
        let mut rebuilds = Vec::new();
        for walked in 1..=300u64 {
            let event = bench_event(&schema, walked as i64 % 256);
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut links);
            let expected =
                oracle_links(fabric.network(), spanning, engine.broker(), &table, &event);
            assert_eq!(links, expected, "event {walked} at {}", engine.broker());
            assert_eq!(links.len(), 1, "towards the subscriber, nowhere else");
            let (steps, comparisons) = if rebuilds.is_empty() {
                (2050, 4788..=4795)
            } else {
                (3, 15..=15)
            };
            assert_eq!(stats.steps, steps, "event {walked}");
            assert!(
                comparisons.contains(&stats.comparisons),
                "event {walked}: {stats}"
            );
            if walked == 256 {
                let report = engine.order_report(&scratch);
                assert!((report.current_cost - 8.0).abs() < 0.01, "{report:?}");
                assert!((report.proposed_cost - 1.0).abs() < 0.01, "{report:?}");
            }
            if engine.adapt_order(&mut scratch) {
                rebuilds.push(walked);
            }
        }
        assert_eq!(rebuilds, [256], "{}", engine.broker());
        assert_eq!(engine.pst().order(), adapted);
        assert_eq!(engine.generation(), generation + 1);
        assert_eq!(engine.tested_attributes(), tested);
        // Each chain hangs off the root now, which alone is shared (and
        // ends in two `*`-only levels, `issue` and `ts`): one node fewer,
        // the real subscription's `volume` node.
        assert_eq!(engine.arena().node_count(), nodes - 1);
        assert_eq!(engine.pst().node_count(), 2 + DECOYS as usize);

        for walked in 0..5_000 {
            let event = bench_event(&schema, walked % 256);
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut links);
            assert_eq!((stats.steps, links.len()), (3, 1));
            assert!(!engine.adapt_order(&mut scratch), "event {walked}");
        }
        assert_eq!(engine.generation(), generation + 1);
    }

    let (fabric, _, mut relay) = chain_engines(&schema, 0);
    let tree = fabric.tree_for(relay[0].broker()).unwrap();
    for engine in &mut relay {
        let mut scratch = RouteScratch::new();
        for walked in 0..2_000 {
            let event = bench_event(&schema, walked % 256);
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut links);
            assert_eq!((stats.steps, links.len()), (2, 1));
            assert!(!engine.adapt_order(&mut scratch));
        }
        assert_eq!(engine.pst().order(), (0..9).collect::<Vec<_>>());
    }
}

/// The table of `link_matching`'s `chain_depth` bench: 1024 chains under
/// one `volume` node at the second of two brokers, each `depth - 1` range
/// tests every event passes, then one none does, `*` below, spread over 96
/// local subscribers. With `twins`, every chain gets a second subscriber
/// whose failing test differs: the two part ways at that level, so the
/// passing levels above are real single-edge PST nodes — runs the walk
/// finds in the tree, not in a tail's chain.
fn chain_depth_engine(
    depth: i64,
    twins: bool,
) -> (
    std::sync::Arc<RoutingFabric>,
    Vec<Subscription>,
    LinkMatchEngine,
) {
    use linkcast_types::{AttrTest, Predicate};
    const CHAINS: i64 = 1024;
    let mut b = EventSchema::builder("chains").attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let schema = b.build().unwrap();
    let chain = |j: i64, last: i64| {
        let mut tests = vec![AttrTest::Ge(Value::Int(-j))];
        tests.extend((1..depth).map(|k| AttrTest::Ge(Value::Int(-(7 * j + k)))));
        tests.push(AttrTest::Ge(Value::Int(last)));
        tests.resize(7, AttrTest::Any);
        Predicate::from_tests(&schema, tests).unwrap()
    };

    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(2);
    net.connect(brokers[0], brokers[1], 5.0).unwrap();
    let home = brokers[1];
    let clients: Vec<_> = (0..96).map(|_| net.add_client(home).unwrap()).collect();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let mut table = Vec::new();
    for j in 0..CHAINS {
        let copies: &[i64] = if twins { &[0, 1] } else { &[0] };
        for &copy in copies {
            let client = clients[(j + copy) as usize % clients.len()];
            table.push(Subscription::new(
                SubscriptionId::new(table.len() as u32),
                SubscriberId::new(home, client),
                chain(j, 100_000 + j + 50_000 * copy),
            ));
        }
    }
    let space = LinkSpace::build(fabric.network(), fabric.forest(), home);
    let mut engine =
        LinkMatchEngine::new(home, schema.clone(), PstOptions::default(), space).unwrap();
    for subscription in &table {
        engine.subscribe(subscription.clone()).unwrap();
    }
    (fabric, table, engine)
}

/// Per-event steps and comparisons of routing the bench's 64 events
/// (`volume` 0..64, `a_k = k`, so no chain matches) from the first broker
/// through the `chain_depth` table, at depths 1, 3 and 6, with and without
/// twins.
#[test]
fn chain_depth_costs_are_pinned() {
    let pinned = [
        // (depth, twins): arena nodes, covered nodes, runs, prefix tests,
        // and (steps, comparisons) per event, the same for all 64.
        ((1, false), (1025, 7169, 0, 0), (1025, 2060)),
        ((3, false), (1025, 7169, 1024, 2048), (1025, 4108)),
        ((6, false), (1025, 7169, 1024, 5120), (1025, 7180)),
        ((1, true), (3073, 13313, 0, 0), (1025, 3084)),
        ((3, true), (3073, 11265, 1024, 2048), (1025, 5132)),
        ((6, true), (3073, 8193, 1024, 5120), (1025, 8204)),
    ];
    for ((depth, twins), shape, cost) in pinned {
        let (fabric, table, engine) = chain_depth_engine(depth, twins);
        let summary = engine.arena().summary();
        let kept = (summary.nodes, summary.covered_nodes);
        let folded = (summary.runs, summary.prefix_tests);
        assert_eq!((kept, folded), ((shape.0, shape.1), (shape.2, shape.3)));
        assert_eq!(engine.arena().node_count(), shape.0);
        assert_eq!(summary.covered_nodes, engine.pst().expanded_node_count());
        let brokers: Vec<_> = fabric.network().brokers().collect();
        let tree_id = fabric.tree_for(brokers[0]).unwrap();
        let tree = fabric.forest().tree(tree_id).unwrap();
        let mut scratch = RouteScratch::new();
        let mut links = Vec::new();
        for volume in 0..64 {
            let values = std::iter::once(volume).chain(1..=6).map(Value::Int);
            let event = Event::from_values(engine.pst().schema(), values).unwrap();
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, tree_id, &mut scratch, &mut stats, &mut links);
            let expected = oracle_links(fabric.network(), tree, engine.broker(), &table, &event);
            assert_eq!(links, expected, "depth {depth}, volume {volume}");
            assert!(links.is_empty(), "no chain matches");
            let context = format!("depth {depth}, twins {twins}, volume {volume}");
            assert_eq!((stats.steps, stats.comparisons), cost, "{context}");
        }
    }
}
