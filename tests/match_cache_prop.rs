//! Churn property test for the arena walk and the generation-invalidated
//! match-result cache.
//!
//! One seeded run interleaves ≥1000 subscribe / unsubscribe / match steps
//! against a single [`MatchingEngine`] and, on every match step, compares
//! three independently computed link sets:
//!
//! 1. the **brute-force oracle** (`tests/oracle`) — evaluate every live
//!    predicate against the event and map each match to the link its
//!    subscriber sits behind on the tree (no PST, no link space);
//! 2. the **arena walk with the cache disabled** (capacity 0);
//! 3. the **arena walk with the cache enabled**, which must survive every
//!    generation bump the churn causes.
//!
//! The event domain is deliberately tiny (three int attributes over 0..3)
//! so the cache sees genuine repeats between churn steps, and the final
//! assertions require all three cache counters — hits, misses, and
//! generation invalidations — to have fired. Predicates mix equality,
//! range and `*` tests, so value branches come to exhaust (and stop
//! exhausting) the declared domains as subscriptions come and go.
//!
//! Two deterministic tests follow: one bounds the garbage the engine's
//! in-place maintenance may leave behind under sustained churn, one pins
//! that a test absorbed into a run still keys the cache.

mod fault;
mod oracle;

use std::collections::HashMap;
use std::sync::Arc;

use fault::Lcg;
use linkcast::{
    LinkMatchEngine, LinkSpace, MatchCache, NetworkBuilder, RouteScratch, RoutingFabric, TreeId,
};
use linkcast_broker::MatchingEngine;
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, SchemaId, SchemaRegistry,
    SubscriberId, Subscription, SubscriptionId, Value, ValueKind,
};
use oracle::oracle_links;

const STEPS: usize = 1200;
const DOMAIN: i64 = 3;
const ATTRS: usize = 3;

/// One space, `x y z` over `0..DOMAIN`, its first `factored` attributes
/// factored.
fn registry(factored: usize) -> Arc<SchemaRegistry> {
    let mut b = EventSchema::builder("churn");
    for name in ["x", "y", "z"] {
        b = b.attribute_with_domain(name, ValueKind::Int, (0..DOMAIN).map(Value::Int));
    }
    let mut r = SchemaRegistry::new();
    r.register(b.factored(factored).build().unwrap()).unwrap();
    Arc::new(r)
}

/// A star with B1 in the middle: B1 has three broker links plus local
/// clients, so its link space is wide enough that wrong link sets show up.
fn star_fabric() -> (Arc<RoutingFabric>, Vec<BrokerId>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(4);
    b.connect(brokers[1], brokers[0], 5.0).unwrap();
    b.connect(brokers[1], brokers[2], 5.0).unwrap();
    b.connect(brokers[1], brokers[3], 5.0).unwrap();
    let mut clients = Vec::new();
    for &broker in &brokers {
        clients.push(b.add_client(broker).unwrap());
        clients.push(b.add_client(broker).unwrap());
    }
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    (fabric, brokers, clients)
}

fn random_event(schema: &EventSchema, rng: &mut Lcg) -> Event {
    let values = (0..ATTRS).map(|_| Value::Int(rng.below(DOMAIN as u64) as i64));
    Event::from_values(schema, values).unwrap()
}

fn random_predicate(schema: &EventSchema, rng: &mut Lcg) -> Predicate {
    loop {
        let tests: Vec<AttrTest> = (0..ATTRS)
            .map(|_| {
                // Every range kind over the same values, so tests tie on
                // a bound.
                let v = Value::Int(rng.below(DOMAIN as u64) as i64);
                match rng.below(11) {
                    0..=2 => AttrTest::Eq(v),
                    3 => AttrTest::Ge(v),
                    4 => AttrTest::Gt(v),
                    5 => AttrTest::Lt(v),
                    6 => AttrTest::Le(v),
                    7 => {
                        let w = Value::Int(rng.below(DOMAIN as u64) as i64);
                        AttrTest::Between(v.clone().min(w.clone()), v.max(w))
                    }
                    _ => AttrTest::Any,
                }
            })
            .collect();
        // An all-Any predicate is legal but boring; reroll it sometimes
        // stays for match-all coverage.
        if tests.iter().any(|t| !matches!(t, AttrTest::Any)) || rng.below(4) == 0 {
            return Predicate::from_tests(schema, tests).unwrap();
        }
    }
}

fn run_churn(factored: usize, seed: u64) {
    let (fabric, brokers, clients) = star_fabric();
    let registry = registry(factored);
    let schema = registry.get(SchemaId::new(0)).unwrap().clone();
    let home = brokers[1];
    let mut engine = MatchingEngine::new(home, &fabric, Arc::clone(&registry)).unwrap();
    let trees: Vec<TreeId> = brokers
        .iter()
        .map(|&b| fabric.tree_for(b).unwrap())
        .collect();

    let mut rng = Lcg::new(seed);
    let mut live: HashMap<SubscriptionId, Subscription> = HashMap::new();
    let mut ids: Vec<SubscriptionId> = Vec::new();
    let mut next_id = 1u32;

    let mut cache = MatchCache::new(64);
    let mut disabled = MatchCache::new(0);
    let mut scratch_cached = RouteScratch::new();
    let mut scratch_plain = RouteScratch::new();
    let mut cached_stats = MatchStats::new();
    let mut plain_stats = MatchStats::new();

    let mut match_steps = 0usize;
    for step in 0..STEPS {
        match rng.below(10) {
            // 3/10: subscribe a random client anywhere in the network.
            0..=2 => {
                let client = clients[rng.below(clients.len() as u64) as usize];
                let broker = fabric.network().home_broker(client).unwrap();
                let sub = Subscription::new(
                    SubscriptionId::new(next_id),
                    SubscriberId::new(broker, client),
                    random_predicate(&schema, &mut rng),
                );
                next_id += 1;
                live.insert(sub.id(), sub.clone());
                ids.push(sub.id());
                engine.subscribe(SchemaId::new(0), sub).unwrap();
            }
            // 2/10: unsubscribe a random live subscription.
            3..=4 if !ids.is_empty() => {
                let id = ids.swap_remove(rng.below(ids.len() as u64) as usize);
                live.remove(&id);
                assert!(engine.unsubscribe(id), "live id must be removable");
            }
            // 5/10 (plus unsubscribes with nothing live): match an event
            // along a random spanning tree and compare all three answers.
            _ => {
                match_steps += 1;
                let event = random_event(&schema, &mut rng);
                let tree = trees[rng.below(trees.len() as u64) as usize];

                let spanning = fabric.forest().tree(tree).unwrap();
                let expected =
                    oracle_links(fabric.network(), spanning, home, live.values(), &event);
                let mut plain = Vec::new();
                engine.route_cached(
                    &event,
                    tree,
                    &mut disabled,
                    &mut scratch_plain,
                    &mut plain_stats,
                    &mut plain,
                );
                let mut cached = Vec::new();
                engine.route_cached(
                    &event,
                    tree,
                    &mut cache,
                    &mut scratch_cached,
                    &mut cached_stats,
                    &mut cached,
                );

                assert_eq!(plain, expected, "step {step}: arena walk vs oracle");
                assert_eq!(cached, expected, "step {step}: cached arena walk vs oracle");
            }
        }
    }

    const { assert!(STEPS >= 1000, "the property run must cover >= 1000 steps") };
    assert!(match_steps >= 300, "churn schedule starved match steps");
    // The disabled cache must have stayed out of the accounting entirely.
    assert_eq!(plain_stats.cache_hits, 0);
    assert_eq!(plain_stats.cache_misses, 0);
    assert_eq!(plain_stats.cache_invalidations, 0);
    // The live cache must have exercised all three counters: repeats hit,
    // fresh keys miss, and every subscribe/unsubscribe between lookups
    // forces a generation flush.
    assert!(cached_stats.cache_hits > 0, "no cache hit in {STEPS} steps");
    assert!(
        cached_stats.cache_misses > 0,
        "no cache miss in {STEPS} steps"
    );
    assert!(
        cached_stats.cache_invalidations > 0,
        "churn never invalidated the cache"
    );
}

#[test]
fn churn_equivalence_default_options() {
    run_churn(0, 0x5eed_0001);
}

#[test]
fn churn_equivalence_factored_with_trivial_elimination() {
    run_churn(1, 0x5eed_0002);
}

/// `volume, a1, a2, a3`, all open-ended integers: room for one chain of
/// range tests per subscription.
fn chains_schema() -> EventSchema {
    let mut b = EventSchema::builder("chains").attribute("volume", ValueKind::Int);
    for k in 1..=3 {
        b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    b.build().unwrap()
}

/// Garbage bound for the engine's in-place maintenance: 2048 chains that
/// each hang off their own range edge of one `volume` node are installed
/// one at a time, then 10 000 unsubscribe/subscribe pairs retire the oldest
/// chain for a fresh one. The edges stay in the tree's lists, and each
/// chain is one tail, whose tests stay in its predicate, so once the table
/// is full the node count must not move: pruned slots are reused, not
/// leaked.
#[test]
fn churn_leaves_bounded_garbage() {
    const CHAINS: u64 = 2048;
    const PAIRS: u64 = 10_000;
    let schema = chains_schema();
    let chain = |j: u64| {
        let j = j as i64;
        let tests = [
            AttrTest::Ge(Value::Int(-j)),
            AttrTest::Ge(Value::Int(-(7 * j + 1))),
            AttrTest::Ge(Value::Int(-(7 * j + 2))),
            AttrTest::Ge(Value::Int(100_000 + j)),
        ];
        Predicate::from_tests(&schema, tests).unwrap()
    };

    let (fabric, brokers, clients) = star_fabric();
    let home = brokers[1];
    let space = LinkSpace::build(fabric.network(), fabric.forest(), home);
    let mut engine =
        LinkMatchEngine::new(home, schema.clone(), PstOptions::default(), space).unwrap();
    let subscribe = |engine: &mut LinkMatchEngine, j: u64| {
        let client = clients[(j % clients.len() as u64) as usize];
        let broker = fabric.network().home_broker(client).unwrap();
        engine
            .subscribe(Subscription::new(
                SubscriptionId::new(j as u32),
                SubscriberId::new(broker, client),
                chain(j),
            ))
            .unwrap();
    };
    let assert_bounded = |engine: &LinkMatchEngine, when: &str| {
        let pst = engine.pst();
        let arena = engine.arena().summary();
        assert_eq!(arena.covered_nodes, pst.expanded_node_count(), "{when}");
        // The volume node, and per chain one node, its tail — standing
        // for the run [a1 a2 | a3] and a leaf (a lone chain is a tail at
        // the root, volume test and all).
        let chains = engine.subscription_count();
        let volume = usize::from(chains > 1);
        assert_eq!(arena.nodes, volume + chains, "{when}");
        assert_eq!(arena.runs, chains, "{when}");
    };

    for j in 0..CHAINS {
        subscribe(&mut engine, j);
        assert_bounded(&engine, &format!("install {j}"));
    }
    let nodes = engine.arena().node_count();
    for pair in 0..PAIRS {
        assert!(engine.unsubscribe(SubscriptionId::new(pair as u32)));
        subscribe(&mut engine, CHAINS + pair);
        assert_bounded(&engine, &format!("pair {pair}"));
        assert_eq!(engine.arena().node_count(), nodes, "pair {pair}");
    }
}

/// The cache keys on every attribute a walk can branch on, and a test
/// absorbed into a run is one: a single chain subscription is one tail,
/// walked as the run `[volume a1 a2 | a3]`, whose only node standing tests
/// `a3`. Two events that differ only in `a1` — one passing the chain, one
/// failing it in the run — must not share an entry.
#[test]
fn prefix_attributes_key_the_cache() {
    let mut registry = SchemaRegistry::new();
    registry.register(chains_schema()).unwrap();
    let registry = Arc::new(registry);
    let schema = registry.get(SchemaId::new(0)).unwrap().clone();

    let (fabric, brokers, clients) = star_fabric();
    let home = brokers[1];
    let mut engine = MatchingEngine::new(home, &fabric, Arc::clone(&registry)).unwrap();
    let subscriber = clients[0];
    let tests = (0..4).map(|_| AttrTest::Ge(Value::Int(0)));
    let chain = Subscription::new(
        SubscriptionId::new(1),
        SubscriberId::new(
            fabric.network().home_broker(subscriber).unwrap(),
            subscriber,
        ),
        Predicate::from_tests(&schema, tests).unwrap(),
    );
    engine.subscribe(SchemaId::new(0), chain).unwrap();

    let tree = fabric.tree_for(home).unwrap();
    let event = |a1: i64| {
        let values = [5, a1, 5, 5].map(Value::Int);
        Event::from_values(&schema, values).unwrap()
    };
    let mut cache = MatchCache::new(64);
    let mut scratch = RouteScratch::new();
    let mut stats = MatchStats::new();
    let mut route = |event: &Event, stats: &mut MatchStats| {
        let mut links = Vec::new();
        engine.route_cached(event, tree, &mut cache, &mut scratch, stats, &mut links);
        links
    };

    let delivered = route(&event(5), &mut stats);
    assert_eq!(
        delivered.len(),
        1,
        "the chain's subscriber is one link away"
    );
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 0));
    assert_eq!(stats.steps, 2, "the run's node, then the leaf");

    assert!(
        route(&event(-1), &mut stats).is_empty(),
        "a1 fails the chain"
    );
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 0));

    assert_eq!(route(&event(5), &mut stats), delivered);
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 1));
}

/// The real subscriber of the order tests below (`volume >= 0`, id 0, a
/// client of B2) and decoy chain `j` (id `j`): three range tests every
/// event passes, a fourth none does — the benchmark's `match` table in
/// small.
fn order_table_entry(
    schema: &EventSchema,
    fabric: &RoutingFabric,
    clients: &[ClientId],
    j: u32,
) -> Subscription {
    let k = i64::from(j);
    let tests = match j {
        0 => vec![
            AttrTest::Ge(Value::Int(0)),
            AttrTest::Any,
            AttrTest::Any,
            AttrTest::Any,
        ],
        _ => vec![
            AttrTest::Ge(Value::Int(-k)),
            AttrTest::Ge(Value::Int(-(7 * k + 1))),
            AttrTest::Ge(Value::Int(-(7 * k + 2))),
            AttrTest::Ge(Value::Int(100_000 + k)),
        ],
    };
    let client = clients[(j as usize + 4) % clients.len()];
    Subscription::new(
        SubscriptionId::new(j),
        SubscriberId::new(fabric.network().home_broker(client).unwrap(), client),
        Predicate::from_tests(schema, tests).unwrap(),
    )
}

/// An order rebuild is a function of the subscription set, not of how it
/// came about. Two engines reach the same 65 subscriptions by different
/// routes — one installs them in id order; the other backwards, among
/// extras it drops again, with a third of them dropped and re-added — yet
/// their range-edge lists are in the one range order. Fed the same events
/// they agree on every link set, walk alike (same steps and comparisons),
/// rebuild at the same event (the 256th walked), and from there on are
/// the same engine: same arena summary.
#[test]
fn order_rebuild_is_history_independent() {
    const CHAINS: u32 = 64;
    let schema = chains_schema();
    let (fabric, brokers, clients) = star_fabric();
    let home = brokers[1];
    let entry = |j: u32| order_table_entry(&schema, &fabric, &clients, j);
    let new_engine = || {
        let space = LinkSpace::build(fabric.network(), fabric.forest(), home);
        LinkMatchEngine::new(home, schema.clone(), PstOptions::default(), space).unwrap()
    };

    let mut straight = new_engine();
    for j in 0..=CHAINS {
        straight.subscribe(entry(j)).unwrap();
    }
    let mut winding = new_engine();
    for j in (0..=CHAINS).rev() {
        winding.subscribe(entry(1_000 + j)).unwrap();
        winding.subscribe(entry(j)).unwrap();
    }
    for j in 0..=CHAINS {
        assert!(winding.unsubscribe(SubscriptionId::new(1_000 + j)));
        if j % 3 == 1 {
            assert!(winding.unsubscribe(SubscriptionId::new(j)));
            winding.subscribe(entry(j)).unwrap();
        }
    }
    assert_eq!(straight.subscription_count(), winding.subscription_count());

    let tree = fabric.tree_for(brokers[0]).unwrap();
    let spanning = fabric.forest().tree(tree).unwrap();
    let table: Vec<Subscription> = (0..=CHAINS).map(entry).collect();
    let mut engines = [
        (straight, RouteScratch::new(), Vec::new()),
        (winding, RouteScratch::new(), Vec::new()),
    ];
    for walked in 1..=600i64 {
        let values = [walked % 97, 1, 2, 3].map(Value::Int);
        let event = Event::from_values(&schema, values).unwrap();
        let mut outcomes = Vec::new();
        for (engine, scratch, rebuilds) in &mut engines {
            let mut stats = MatchStats::new();
            let mut links = Vec::new();
            engine.match_links_into(&event, tree, scratch, &mut stats, &mut links);
            let expected = oracle_links(fabric.network(), spanning, home, &table, &event);
            assert_eq!(links, expected, "event {walked}");
            if engine.adapt_order(scratch) {
                rebuilds.push(walked);
            }
            outcomes.push((links, stats, rebuilds.clone()));
        }
        let (straight, winding) = (&outcomes[0], &outcomes[1]);
        assert_eq!(straight.0, winding.0, "event {walked}: links");
        assert_eq!(straight.2, winding.2, "event {walked}: rebuilds");
        assert_eq!(straight.1, winding.1, "event {walked}: walk cost");
        if walked > 256 {
            assert_eq!(straight.1.steps, 3, "event {walked}");
        }
    }
    let [(straight, ..), (winding, ..)] = &engines;
    assert_eq!(engines[0].2, [256]);
    assert_eq!(straight.pst().order(), [3, 0, 1, 2]);
    assert_eq!(straight.pst().order(), winding.pst().order());
    assert_eq!(straight.arena().summary(), winding.arena().summary());
    assert_eq!(straight.tested_attributes(), winding.tested_attributes());
}

/// A rebuild changes no link set, but it changes the tree the cache's key
/// schema is read off, so it must flush like any other generation change:
/// an event answered from the cache right before the rebuild misses right
/// after it — and walks to the same links.
#[test]
fn order_rebuild_flushes_the_match_cache() {
    let mut registry = SchemaRegistry::new();
    registry.register(chains_schema()).unwrap();
    let registry = Arc::new(registry);
    let schema = registry.get(SchemaId::new(0)).unwrap().clone();
    let (fabric, brokers, clients) = star_fabric();
    let home = brokers[1];
    let mut engine = MatchingEngine::new(home, &fabric, Arc::clone(&registry)).unwrap();
    for j in 0..=64 {
        let entry = order_table_entry(&schema, &fabric, &clients, j);
        engine.subscribe(SchemaId::new(0), entry).unwrap();
    }

    let tree = fabric.tree_for(brokers[0]).unwrap();
    let mut cache = MatchCache::new(1024);
    let mut scratch = RouteScratch::new();
    let mut stats = MatchStats::new();
    let mut links = Vec::new();
    let event =
        |volume: i64| Event::from_values(&schema, [volume, 1, 2, 3].map(Value::Int)).unwrap();
    // Distinct volumes: every one misses and walks.
    for volume in 1..=256 {
        assert_eq!(
            engine.adapt_orders(&mut scratch),
            0,
            "before event {volume}"
        );
        engine.route_cached(
            &event(volume),
            tree,
            &mut cache,
            &mut scratch,
            &mut stats,
            &mut links,
        );
    }
    assert_eq!((stats.cache_misses, stats.cache_hits), (256, 0));
    assert!(scratch.order_check_due());

    let generation = engine.generation();
    engine.route_cached(
        &event(256),
        tree,
        &mut cache,
        &mut scratch,
        &mut stats,
        &mut links,
    );
    assert_eq!((stats.cache_misses, stats.cache_hits), (256, 1));
    let before = links.clone();
    assert_eq!(before.len(), 1);

    assert_eq!(engine.adapt_orders(&mut scratch), 1);
    assert_eq!(engine.generation(), generation + 1);
    assert!(!scratch.order_check_due());

    let steps = stats.steps;
    engine.route_cached(
        &event(256),
        tree,
        &mut cache,
        &mut scratch,
        &mut stats,
        &mut links,
    );
    assert_eq!((stats.cache_misses, stats.cache_hits), (257, 1));
    assert_eq!(stats.cache_invalidations, 1);
    assert_eq!(stats.steps - steps, 3, "walked, in the new order");
    assert_eq!(links, before);
}
