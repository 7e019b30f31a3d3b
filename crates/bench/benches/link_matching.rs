//! Criterion bench of one link-matching hop: the §3.3 mask-refinement
//! search at a single broker, compared against a full centralized match of
//! the same event — the per-hop cost Chart 2 accumulates — plus what it
//! costs to keep the annotated tree current as subscriptions come and go,
//! what a route costs against the depth of single-choice chains, and what
//! the engine's own choice of attribute order does to the benchmark's
//! `match` table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linkcast::{
    ContentRouter, EventRouter, LinkMatchEngine, LinkSpace, NetworkBuilder, RouteScratch,
    RoutingFabric,
};
use linkcast_alloc_count::{allocations_in, live_bytes_in, CountingAllocator};
use linkcast_bench::options_for;
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_sim::topology39;
use linkcast_types::{
    parse_predicate, AttrTest, Event, EventSchema, Predicate, SubscriberId, Subscription,
    SubscriptionId, Value, ValueKind,
};
use linkcast_workload::{decoy_chain, EventGenerator, SubscriptionGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// For `install_from_empty`'s allocation and live-byte columns; elsewhere it
/// costs a thread-local increment per allocation, and the match paths make
/// none.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn bench_link_matching(c: &mut Criterion) {
    let wconfig = WorkloadConfig::chart2();
    let schema = wconfig.schema();
    let mut group = c.benchmark_group("link_matching_hop");
    group.sample_size(12);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    for subs in [2_000usize, 10_000] {
        let world = topology39::build().expect("figure 6 builds");
        let mut router =
            ContentRouter::new(world.fabric.clone(), schema.clone(), options_for(&wconfig))
                .unwrap();
        let generator = SubscriptionGenerator::new(&wconfig, 11);
        let mut rng = StdRng::seed_from_u64(11);
        topology39::subscribe_random(&mut router, &world, &generator, subs, &mut rng).unwrap();

        let events_gen = EventGenerator::new(&wconfig, 11);
        let events: Vec<_> = (0..128).map(|_| events_gen.generate(&mut rng, 0)).collect();
        let publisher = world.publishers[0].broker;
        let tree = world.fabric.tree_for(publisher).unwrap();

        let mut scratch = RouteScratch::new();
        let mut links = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("match_links_publisher", subs),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut stats = MatchStats::new();
                    let mut sent = 0usize;
                    let engine = router.engine(publisher);
                    for e in events {
                        engine.match_links_into(
                            black_box(e),
                            tree,
                            &mut scratch,
                            &mut stats,
                            &mut links,
                        );
                        sent += links.len();
                    }
                    sent
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("centralized_match", subs),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut stats = MatchStats::new();
                    let mut matched = 0usize;
                    for e in events {
                        matched += router
                            .centralized_match(publisher, black_box(e), &mut stats)
                            .len();
                    }
                    matched
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_multicast", subs),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut recipients = 0usize;
                    for e in events {
                        recipients += router
                            .publish(publisher, black_box(e))
                            .unwrap()
                            .recipients
                            .len();
                    }
                    recipients
                })
            },
        );
    }
    group.finish();
}

/// Subscription maintenance against fan-out: `n` chains, each hanging off
/// its own range edge of one `volume` node (the shape of the `match` and
/// `churn` tables of `benchmark/`), then steady churn — retire the oldest
/// chain, install a fresh one — so the fan-out stays `n` while every
/// operation prunes or grows a whole chain. The criterion line is the
/// pair; the two halves are timed inside it and printed after. A flat
/// subscribe curve across `n` is the point: the cost follows the path, not
/// the siblings. Unsubscribe is at its worst here — the oldest chain's edge
/// is the first of its node's list, so every other edge shifts down by one — and
/// shows what the order-preserving shift costs per sibling.
fn bench_subscribe_scaling(c: &mut Criterion) {
    let mut b = EventSchema::builder("chains").attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let schema = b.build().expect("well-formed schema");
    let chain = |j: i64| {
        let mut tests = vec![AttrTest::Ge(Value::Int(-j))];
        tests.extend((1..=5).map(|k| AttrTest::Ge(Value::Int(-(7 * j + k)))));
        tests.push(AttrTest::Ge(Value::Int(100_000 + j)));
        Predicate::from_tests(&schema, tests).expect("one test per attribute")
    };

    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(3);
    net.connect(brokers[0], brokers[1], 5.0)
        .expect("fresh link");
    net.connect(brokers[1], brokers[2], 5.0)
        .expect("fresh link");
    let clients: Vec<_> = (0..96)
        .map(|i| net.add_client(brokers[i % 3]).expect("known broker"))
        .collect();
    let fabric = RoutingFabric::new_all_roots(net.build().expect("connected")).expect("trees");
    let home = brokers[1];

    let mut group = c.benchmark_group("subscribe_scaling");
    group.sample_size(12);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for fanout in [256i64, 1024, 4096] {
        let space = LinkSpace::build(fabric.network(), fabric.forest(), home);
        let mut engine = LinkMatchEngine::new(home, schema.clone(), PstOptions::default(), space)
            .expect("default options");
        let subscription = |j: i64| {
            let client = clients[j as usize % clients.len()];
            let broker = fabric.network().home_broker(client).expect("homed");
            Subscription::new(
                SubscriptionId::new(j as u32),
                SubscriberId::new(broker, client),
                chain(j),
            )
        };
        for j in 0..fanout {
            engine.subscribe(subscription(j)).expect("fresh id");
        }
        let mut next = fanout;
        let (mut subscribe, mut unsubscribe, mut pairs) = (Duration::ZERO, Duration::ZERO, 0u32);
        group.bench_function(BenchmarkId::new("churn_pair", fanout), |b| {
            b.iter(|| {
                let fresh = subscription(next);
                let start = Instant::now();
                engine.unsubscribe(SubscriptionId::new((next - fanout) as u32));
                let middle = Instant::now();
                engine.subscribe(fresh).expect("fresh id");
                unsubscribe += middle - start;
                subscribe += middle.elapsed();
                pairs += 1;
                next += 1;
            })
        });
        for (name, total) in [("subscribe", subscribe), ("unsubscribe", unsubscribe)] {
            // No pairs ran when a name filter left the benchmark out.
            let Some(mean) = total.checked_div(pairs) else {
                continue;
            };
            let label = format!("subscribe_scaling/{name}/{fanout}");
            println!("{label:<50} mean: [{:.0} ns]", mean.as_nanos());
        }
        black_box(engine.arena().node_count());
    }
    group.finish();
}

/// One route against the depth of single-choice chains: 1024 chains under
/// one `volume` node, each `depth` unary nodes long — `depth - 1` range
/// tests every event passes, then one none does, `*` below — spread over
/// 96 subscribers so no chain's link is decided before the walk reaches it.
/// The arena folds each chain into one node, so steps per event stay at
/// one (the `volume` node) plus one per chain whatever the depth; what is
/// left of the slope in time is one comparison per folded test.
fn bench_chain_depth(c: &mut Criterion) {
    const CHAINS: i64 = 1024;
    let mut b = EventSchema::builder("chains").attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let schema = b.build().expect("well-formed schema");
    let chain = |j: i64, depth: i64| {
        let mut tests = vec![AttrTest::Ge(Value::Int(-j))];
        tests.extend((1..depth).map(|k| AttrTest::Ge(Value::Int(-(7 * j + k)))));
        tests.push(AttrTest::Ge(Value::Int(100_000 + j)));
        tests.resize(7, AttrTest::Any);
        Predicate::from_tests(&schema, tests).expect("one test per attribute")
    };

    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(2);
    net.connect(brokers[0], brokers[1], 5.0)
        .expect("fresh link");
    let home = brokers[1];
    let clients: Vec<_> = (0..96)
        .map(|_| net.add_client(home).expect("known broker"))
        .collect();
    let fabric = RoutingFabric::new_all_roots(net.build().expect("connected")).expect("trees");
    let tree = fabric.tree_for(brokers[0]).expect("rooted everywhere");
    let events: Vec<Event> = (0..64)
        .map(|volume| {
            let values = std::iter::once(volume).chain(1..=6).map(Value::Int);
            Event::from_values(&schema, values).expect("values match the schema")
        })
        .collect();

    let mut group = c.benchmark_group("chain_depth");
    group.sample_size(12);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for depth in [1i64, 3, 6] {
        let space = LinkSpace::build(fabric.network(), fabric.forest(), home);
        let mut engine = LinkMatchEngine::new(home, schema.clone(), PstOptions::default(), space)
            .expect("default options");
        for j in 0..CHAINS {
            let client = clients[j as usize % clients.len()];
            engine
                .subscribe(Subscription::new(
                    SubscriptionId::new(j as u32),
                    SubscriberId::new(home, client),
                    chain(j, depth),
                ))
                .expect("fresh id");
        }
        let mut scratch = RouteScratch::new();
        let mut links = Vec::new();
        let mut stats = MatchStats::new();
        group.bench_function(BenchmarkId::new("route", depth), |b| {
            b.iter(|| {
                for event in &events {
                    engine.match_links_into(
                        black_box(event),
                        tree,
                        &mut scratch,
                        &mut stats,
                        &mut links,
                    );
                    assert!(links.is_empty(), "no chain matches");
                }
            })
        });
        println!(
            "chain_depth/steps_per_event/{depth:<27} {:.0}  ({} arena nodes for the {} nodes {} PST nodes stand for)",
            stats.steps_per_event(),
            engine.arena().node_count(),
            engine.pst().expanded_node_count(),
            engine.pst().node_count(),
        );
    }
    group.finish();
}

/// The benchmark's `match` table — one `volume >= 0` subscriber behind the
/// far broker, `chains` never-matching decoy chains whose one failing test
/// sits on `a6`, the deepest level of the schema order — routed before and
/// after the engine reorders itself on what its walks observed
/// (DESIGN.md §11.2). Before, a route enters every chain (one step each);
/// after, a binary search finds that none of the root's `a6` range edges
/// holds, and three steps reach the subscriber whatever the number of
/// chains. The rebuild in
/// between is timed once per size and printed, not sampled: it happens once.
fn bench_order_adaptation(c: &mut Criterion) {
    let mut b = EventSchema::builder("bench")
        .attribute("issue", ValueKind::Str)
        .attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let schema = (b.attribute("ts", ValueKind::Int).build()).expect("well-formed schema");

    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(3);
    for pair in brokers.windows(2) {
        net.connect(pair[0], pair[1], 5.0).expect("fresh link");
    }
    let home = brokers[1];
    let subscriber = net.add_client(brokers[2]).expect("known broker");
    let decoy_clients: Vec<_> = (0..96)
        .map(|_| net.add_client(home).expect("known broker"))
        .collect();
    let fabric = RoutingFabric::new_all_roots(net.build().expect("connected")).expect("trees");
    let tree = fabric.tree_for(brokers[0]).expect("rooted everywhere");
    let events: Vec<Event> = (0..256)
        .map(|volume| {
            let mut values = vec![Value::str("IBM"), Value::Int(volume)];
            values.extend((1..=6).map(Value::Int));
            values.push(Value::Int(1_000 + volume));
            Event::from_values(&schema, values).expect("values match the schema")
        })
        .collect();

    let mut group = c.benchmark_group("order_adaptation");
    group.sample_size(12);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for chains in [256u64, 1024, 2048, 4096] {
        let space = LinkSpace::build(fabric.network(), fabric.forest(), home);
        let mut engine = LinkMatchEngine::new(home, schema.clone(), PstOptions::default(), space)
            .expect("default options");
        let table =
            std::iter::once((subscriber, "volume >= 0".to_string())).chain((1..=chains).map(|j| {
                (
                    decoy_clients[j as usize % decoy_clients.len()],
                    decoy_chain(j),
                )
            }));
        for (id, (client, predicate)) in table.enumerate() {
            let broker = fabric.network().home_broker(client).expect("provisioned");
            engine
                .subscribe(Subscription::new(
                    SubscriptionId::new(id as u32),
                    SubscriberId::new(broker, client),
                    parse_predicate(&schema, &predicate).expect("well-formed predicate"),
                ))
                .expect("fresh id");
        }

        let mut links = Vec::new();
        let mut route = |engine: &LinkMatchEngine, scratch: &mut RouteScratch| {
            let mut stats = MatchStats::new();
            for event in &events {
                engine.match_links_into(black_box(event), tree, scratch, &mut stats, &mut links);
                assert_eq!(links.len(), 1, "towards the subscriber, nowhere else");
            }
            stats.steps_per_event()
        };
        // The samples walk through a scratch of their own, so the engine's
        // evidence is exactly the 256 events that make its first check due.
        let mut bench_scratch = RouteScratch::new();
        group.bench_function(BenchmarkId::new("route_before", chains), |b| {
            b.iter(|| route(&engine, &mut bench_scratch))
        });
        let mut scratch = RouteScratch::new();
        let steps_before = route(&engine, &mut scratch);
        let nodes_before = engine.arena().node_count();
        let start = Instant::now();
        assert!(
            engine.adapt_order(&mut scratch),
            "256 walked events: a check"
        );
        let rebuild = start.elapsed();
        group.bench_function(BenchmarkId::new("route_after", chains), |b| {
            b.iter(|| route(&engine, &mut bench_scratch))
        });
        let steps_after = route(&engine, &mut scratch);
        println!(
            "order_adaptation/steps_per_event/{chains:<22} before: {steps_before:.0}  after: {steps_after:.0}  \
             rebuild: {:.2} ms  ({nodes_before} -> {} arena nodes)",
            rebuild.as_secs_f64() * 1e3,
            engine.arena().node_count(),
        );
    }
    group.finish();
}

/// Installing the benchmark's `match` table into an engine that holds
/// nothing: one `volume >= 0` subscriber, then `chains` decoy chains that
/// share no node below `volume`, in id order — what a broker pays per
/// subscription when a neighbour's table floods in, when it recovers its
/// snapshot, and when it rebuilds in another attribute order. *Cold* starts
/// from a new engine every time (every vector grows from nothing); *warm*
/// empties one engine and fills it again, so node slots, prefix windows and
/// annotation buffers are there to be reused — the case `subscribe_scaling`
/// measures, 64 subscriptions at a time. Both are timed around the
/// subscribes alone and printed per subscribe, beside what one cold install
/// allocates and keeps per subscription (heap requests and live bytes,
/// capacity slack included, the predicates not: they are parsed before) and
/// the nodes tree and arena keep: one each, where the spelled-out chains
/// would take eight.
fn bench_install_from_empty(c: &mut Criterion) {
    let mut b = EventSchema::builder("bench")
        .attribute("issue", ValueKind::Str)
        .attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let schema = (b.attribute("ts", ValueKind::Int).build()).expect("well-formed schema");

    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(3);
    for pair in brokers.windows(2) {
        net.connect(pair[0], pair[1], 5.0).expect("fresh link");
    }
    let home = brokers[1];
    let subscriber = net.add_client(brokers[2]).expect("known broker");
    let decoy_clients: Vec<_> = (0..96)
        .map(|slot| net.add_client(brokers[slot % 3]).expect("known broker"))
        .collect();
    let fabric = RoutingFabric::new_all_roots(net.build().expect("connected")).expect("trees");
    let new_engine = || {
        let space = LinkSpace::build(fabric.network(), fabric.forest(), home);
        LinkMatchEngine::new(home, schema.clone(), PstOptions::default(), space)
            .expect("default options")
    };

    let mut group = c.benchmark_group("install_from_empty");
    group.sample_size(12);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for chains in [256u64, 2048, 16384] {
        let decoys = (1..=chains).map(|j| {
            let client = decoy_clients[j as usize % decoy_clients.len()];
            (client, decoy_chain(j))
        });
        let table: Vec<Subscription> = std::iter::once((subscriber, "volume >= 0".to_string()))
            .chain(decoys)
            .enumerate()
            .map(|(id, (client, predicate))| {
                let broker = fabric.network().home_broker(client).expect("provisioned");
                Subscription::new(
                    SubscriptionId::new(id as u32),
                    SubscriberId::new(broker, client),
                    parse_predicate(&schema, &predicate).expect("well-formed predicate"),
                )
            })
            .collect();
        let install = |engine: &mut LinkMatchEngine| {
            let subscriptions = table.clone();
            let start = Instant::now();
            for subscription in subscriptions {
                engine.subscribe(subscription).expect("fresh id");
            }
            start.elapsed()
        };

        let (mut cold, mut warm, mut colds, mut warms) = (Duration::ZERO, Duration::ZERO, 0, 0);
        group.bench_function(BenchmarkId::new("cold", chains), |b| {
            b.iter(|| {
                let mut engine = new_engine();
                cold += install(&mut engine);
                colds += 1;
                engine
            })
        });
        let mut engine = new_engine();
        install(&mut engine);
        group.bench_function(BenchmarkId::new("warm", chains), |b| {
            b.iter(|| {
                for subscription in &table {
                    engine.unsubscribe(subscription.id());
                }
                warm += install(&mut engine);
                warms += 1;
            })
        });
        let per_subscribe = |total: Duration, installs: u32| {
            total.as_nanos() as f64 / f64::from(installs) / table.len() as f64
        };
        // Counted once, untimed: counts repeat exactly.
        let subscriptions = table.clone();
        let mut counted = new_engine();
        let (allocations, (bytes, ())) = allocations_in(|| {
            live_bytes_in(|| {
                for subscription in subscriptions {
                    counted.subscribe(subscription).expect("fresh id");
                }
            })
        });
        println!(
            "install_from_empty/ns_per_subscribe/{chains:<19} cold: {:.0}  warm: {:.0}  \
             allocations: {:.2}  live bytes: {:.0}  \
             nodes per subscription: {:.3} PST, {:.3} arena ({} nodes for the {} of the spelled-out tree)",
            per_subscribe(cold, colds),
            per_subscribe(warm, warms),
            allocations as f64 / table.len() as f64,
            bytes as f64 / table.len() as f64,
            engine.pst().node_count() as f64 / table.len() as f64,
            engine.arena().node_count() as f64 / table.len() as f64,
            engine.pst().node_count(),
            engine.pst().expanded_node_count(),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_link_matching,
    bench_subscribe_scaling,
    bench_chain_depth,
    bench_order_adaptation,
    bench_install_from_empty
);
criterion_main!(benches);
