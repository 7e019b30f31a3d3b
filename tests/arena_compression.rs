//! The `match` workload's table of `benchmark/`, built in-process and
//! walked both ways, with the per-broker step counts pinned.
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
//! every chain spelled out, which is the tree both searches walk.
//!
//! The recursive search enters a node per test: root, `volume`, the
//! subscriber's first `*` node, then six nodes down every chain whose link
//! is still undecided (those of the broker's own decoy clients) and one
//! for each of the rest. The arena walks as a broker does, under trivial
//! test elimination: the root's only edge is `*` (no subscription tests
//! `issue`), so an event skips it and lands on `volume`. From there it
//! enters the subscriber's tail and folds `a1..a5` of every chain into
//! the prefix of its `a6` node — one step per chain, `2 + DECOYS` in all —
//! and keeps each tail as the one node the PST does: it holds `3 + DECOYS`
//! nodes and reports (`summary()`) the runs of the spelled-out tree its
//! walk is charged by.

use linkcast::{LinkMatchEngine, LinkSpace, NetworkBuilder, RouteScratch, RoutingFabric};
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    parse_predicate, Event, EventSchema, SubscriberId, Subscription, SubscriptionId, Value,
    ValueKind,
};
use linkcast_workload::decoy_chain;

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

/// The chain's fabric and one engine per broker, each holding the real
/// subscription and `decoys` chains installed as the module doc describes.
fn chain_engines(
    schema: &EventSchema,
    decoys: u64,
) -> (std::sync::Arc<RoutingFabric>, Vec<LinkMatchEngine>) {
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

    let engines = brokers
        .iter()
        .map(|&broker| {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            let mut engine =
                LinkMatchEngine::new(broker, schema.clone(), PstOptions::default(), space).unwrap();
            for (id, (client, predicate)) in table.iter().enumerate() {
                let home = fabric.network().home_broker(*client).unwrap();
                engine
                    .subscribe(Subscription::new(
                        SubscriptionId::new(id as u32),
                        SubscriberId::new(home, *client),
                        parse_predicate(schema, predicate).unwrap(),
                    ))
                    .unwrap();
            }
            engine
        })
        .collect();
    (fabric, engines)
}

#[test]
fn match_table_steps_are_pinned_for_both_walks() {
    let schema = bench_schema();
    let (fabric, engines) = chain_engines(&schema, DECOYS);
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

    let tree = fabric.tree_for(brokers[0]).unwrap();
    let mut scratch = RouteScratch::new();
    let mut links = Vec::new();
    for volume in [0, 17, 255] {
        let event = bench_event(&schema, volume);

        let mut arena_steps = Vec::new();
        let mut recursive_steps = Vec::new();
        for engine in &engines {
            let mut arena = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut arena, &mut links);
            let mut recursive = MatchStats::new();
            let expected = engine.match_links(&event, tree, &mut recursive);
            assert_eq!(links, expected, "volume {volume} at {}", engine.broker());
            assert_eq!(links.len(), 1, "towards the subscriber, nowhere else");
            arena_steps.push(arena.steps);
            recursive_steps.push(recursive.steps);
        }
        assert_eq!(arena_steps, [2050, 2050, 2050], "volume {volume}");
        assert_eq!(recursive_steps, [5461, 5466, 5466], "volume {volume}");
    }
}

/// The same table, fed through `match_links_into` + `adapt_order` as a
/// broker's inline route does. The walk counts what its edge tests come to;
/// at the first check — walked event 256, not before — every engine finds
/// that `a6` fails for all but the one subscription that does not test it,
/// prices the schema order at 8.0 against 1.0, and rebuilds once with `a6`
/// at the root: the 2048 range edges there are scanned, none holds, no
/// chain is entered. Nothing after that is worth another rebuild. A table
/// with one subscription (`relay`'s) has nothing to choose between: its
/// walk is two steps, the tail that subscription is and the node of its
/// `volume` test, with the `*` on `issue` between them skipped.
#[test]
fn observed_selectivity_reorders_the_match_table_once() {
    let schema = bench_schema();
    let (fabric, mut engines) = chain_engines(&schema, DECOYS);
    let tree = fabric.tree_for(engines[0].broker()).unwrap();
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
            let expected = engine.match_links(&event, tree, &mut MatchStats::new());
            assert_eq!(links, expected, "event {walked} at {}", engine.broker());
            assert_eq!(links.len(), 1, "towards the subscriber, nowhere else");
            let (steps, comparisons) = if rebuilds.is_empty() {
                (2050, 6824..=6831)
            } else {
                (3, 2051..=2051)
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

    let (fabric, mut relay) = chain_engines(&schema, 0);
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
