//! What installing one subscription costs in heap, pinned as counts: the
//! paper's broker adds *every* subscription in the system to its matching
//! tree (§4.2), so allocations and kept bytes per install are what table
//! set-up, resync and recovery multiply by — and a count repeats exactly
//! where a timing does not.
//!
//! The subject is the `match` benchmark's decoy chain (six range tests over
//! per-chain constants), 2 048 of them installed into an empty engine with
//! the predicates parsed beforehand, so what is counted is the index — tree
//! node, subscription slot, annotation rows — and not the predicate it
//! indexes. The install tests take them in two orders: by id,
//! where each chain's `volume` edge is appended to the sorted list, and in
//! the benchmark's three phases, where two thirds land in its middle. Two
//! more tests pin what factoring (§2.1.1) costs: installing Chart 1's
//! table, whose schema factors two attributes, allocates per subscription
//! and not per factored replica; finding an event's factored subtree
//! allocates nothing.
//!
//! Alone in its test binary because of the `#[global_allocator]`; counts are
//! per thread, so the tests need not take turns.

#![cfg(not(miri))]

use linkcast::{LinkMatchEngine, LinkSpace, NetworkBuilder, RoutingFabric};
use linkcast_alloc_count::{allocations_in, live_bytes_in, CountingAllocator};
use linkcast_matching::{Pst, PstOptions};
use linkcast_sim::topology39;
use linkcast_types::{
    parse_predicate, BrokerId, ClientId, Event, EventSchema, SubscriberId, Subscription,
    SubscriptionId, Value, ValueKind,
};
use linkcast_workload::{decoy_chain, SubscriptionGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

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

/// The two install orders of the decoy chains `1..=DECOYS`, named: by id,
/// and the benchmark's — in three phases, chain `j` in phase
/// `(j % 96) % 3`, ascending within each (the benchmark rig's
/// `decoy_phase`, restated).
fn install_orders() -> [(&'static str, Vec<u64>); 2] {
    let by_id: Vec<u64> = (1..=DECOYS).collect();
    let mut phased = by_id.clone();
    phased.sort_by_key(|j| (j % DECOY_CLIENTS % 3, *j));
    [("id order", by_id), ("phase order", phased)]
}

/// An empty engine at the middle broker of the benchmark's three-broker
/// chain, and the decoy chains over its 96 decoy clients, parsed, in
/// `order`.
fn empty_engine_and_chains(order: &[u64]) -> (LinkMatchEngine, Vec<Subscription>) {
    let schema = bench_schema();
    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(3);
    for pair in brokers.windows(2) {
        net.connect(pair[0], pair[1], 5.0).unwrap();
    }
    let clients: Vec<_> = (0..DECOY_CLIENTS as usize)
        .map(|slot| net.add_client(brokers[slot % 3]).unwrap())
        .collect();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[1]);
    let engine =
        LinkMatchEngine::new(brokers[1], schema.clone(), PstOptions::default(), space).unwrap();
    let chains = (order.iter().copied())
        .map(|j| {
            let client = clients[(j % DECOY_CLIENTS) as usize];
            let home = fabric.network().home_broker(client).unwrap();
            Subscription::new(
                SubscriptionId::new(j as u32),
                SubscriberId::new(home, client),
                parse_predicate(&schema, &decoy_chain(j)).unwrap(),
            )
        })
        .collect();
    (engine, chains)
}

/// Allocations and live bytes of `f`, per decoy chain.
fn per_chain<R>(f: impl FnOnce() -> R) -> (f64, f64, R) {
    let (allocations, (bytes, result)) = allocations_in(|| live_bytes_in(f));
    let n = DECOYS as f64;
    (allocations as f64 / n, bytes as f64 / n, result)
}

/// One subscription is one row in every layer — a tree node with its first
/// id inline and its edge in the parent's list, a slab slot, and an
/// annotation row with its tally window and its chain's last failing level
/// beside it — so an install keeps under 420 bytes of index (379 measured
/// in either order, 41 of margin; 496 while a match arena mirrored every
/// node in columns of its own, 640 while it kept a copy of every edge list,
/// 770 while range edges carried a label index beside the list, 1 504 when
/// the arena spelled every chain out as three nodes and five cloned tests,
/// and annotations were two heap vectors a node) and allocates only where a
/// slab doubles (6.2 before). The annotations allocate nothing else: what
/// the engine allocates beyond a bare tree fed the same inserts is their
/// slabs' amortised growth.
#[test]
fn installing_a_chain_stays_inside_its_budget() {
    for (name, order) in install_orders() {
        let (mut engine, chains) = empty_engine_and_chains(&order);
        let mut tree = Pst::new(bench_schema(), PstOptions::default()).unwrap();
        let for_tree = chains.clone();

        let (allocations, bytes, ()) = per_chain(|| {
            for chain in chains {
                engine.subscribe(chain).unwrap();
            }
        });
        let (tree_allocations, tree_bytes, ()) = per_chain(|| {
            for chain in for_tree {
                tree.insert_reported(chain).unwrap();
            }
        });
        println!(
            "{name}, per installed chain: {allocations:.2} allocations ({tree_allocations:.2} in \
             the tree), {bytes:.0} B live ({tree_bytes:.0} in the tree), {} arena nodes",
            engine.arena().node_count()
        );
        assert!(
            allocations <= 3.0,
            "{name}: {allocations} allocations per chain"
        );
        assert!(bytes <= 420.0, "{name}: {bytes} live bytes per chain");
        let mirrors = allocations - tree_allocations;
        assert!(
            mirrors <= 0.25,
            "{name}: {mirrors} allocations per chain beside the tree's"
        );
        // The root, the `volume` node under it, and a tail per chain.
        assert_eq!(engine.arena().node_count(), 2 + DECOYS as usize, "{name}");
    }
}

/// Taking a chain out and putting it back allocates nothing in the
/// annotations: the tree node's index, the annotation row and the tally
/// window all come back in the role they had. (The
/// tree itself allocates the list of nodes a remove pruned; the engine must
/// allocate exactly what a bare tree does.)
#[test]
fn reinstalling_a_chain_allocates_nothing_beside_the_tree() {
    for (name, order) in install_orders() {
        let (mut engine, chains) = empty_engine_and_chains(&order);
        let mut tree = Pst::new(bench_schema(), PstOptions::default()).unwrap();
        for chain in &chains {
            engine.subscribe(chain.clone()).unwrap();
            tree.insert_reported(chain.clone()).unwrap();
        }
        // Once unmeasured: the free lists' first push is the one allocation
        // they ever make here.
        assert!(engine.unsubscribe(chains[0].id()));
        engine.subscribe(chains[0].clone()).unwrap();
        drop(tree.remove_reported(chains[0].id()));
        drop(tree.insert_reported(chains[0].clone()));
        let again: Vec<_> = chains.iter().step_by(7).cloned().collect();
        let for_tree = again.clone();

        let (in_engine, ()) = allocations_in(|| {
            for chain in again {
                assert!(engine.unsubscribe(chain.id()));
                engine.subscribe(chain).unwrap();
            }
        });
        let (in_tree, ()) = allocations_in(|| {
            for chain in for_tree {
                drop(tree.remove_reported(chain.id()));
                drop(tree.insert_reported(chain));
            }
        });
        assert_eq!(in_engine, in_tree, "{name}: allocations beside the tree's");
    }
}

/// Chart 1's table — 8 000 subscriptions of seed 7 over Chart 1's schema,
/// which factors its first two attributes — installed into an empty
/// engine at P1's broker of Figure 6. A `*` on a factored attribute
/// replicates the subscription into every value's subtree (1.85 subtrees
/// a subscription here), and each subtree is found by its factor key. The
/// keys are enumerated into one buffer the tree reuses and a key is boxed
/// only where it founds a subtree, so an install allocates at most 3.5
/// times (2.79 measured, in debug and release; 15.63 while every key and
/// every per-attribute candidate list was a vector of its own).
#[test]
fn installing_a_factored_table_allocates_per_subscription_not_per_replica() {
    const TABLE: usize = 8_000;
    let world = topology39::build().unwrap();
    let wconfig = WorkloadConfig::chart1();
    let schema = wconfig.schema();
    assert_eq!(schema.factored().len(), 2);
    let generator = SubscriptionGenerator::new(&wconfig, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let table = topology39::random_subscriptions(&world, &generator, TABLE, &mut rng);
    let network = world.fabric.network();
    let subscriptions: Vec<Subscription> = (table.into_iter().zip(0..))
        .map(|((client, predicate), id)| {
            let home = network.home_broker(client).unwrap();
            let subscriber = SubscriberId::new(home, client);
            Subscription::new(SubscriptionId::new(id), subscriber, predicate)
        })
        .collect();
    let p1 = world.publishers[0].broker;
    let space = LinkSpace::build(network, world.fabric.forest(), p1);
    let mut engine = LinkMatchEngine::new(p1, schema, PstOptions::default(), space).unwrap();

    let (allocations, ()) = allocations_in(|| {
        for subscription in subscriptions {
            engine.subscribe(subscription).unwrap();
        }
    });
    let per_subscription = allocations as f64 / TABLE as f64;
    println!(
        "{per_subscription:.2} allocations per subscription, {} subtrees",
        engine.pst().roots().count()
    );
    assert_eq!(engine.pst().roots().count(), 25);
    assert!(
        per_subscription <= 3.5,
        "{per_subscription} allocations per subscription"
    );
}

/// An event finds its factored subtree (§2.1.1) by binary search of the
/// tree's one root table against the event's own values: on a tree
/// factored on two attributes, the lookup allocates nothing.
#[test]
fn finding_a_factored_subtree_allocates_nothing() {
    let domain = || (0..5).map(Value::Int);
    let schema = EventSchema::builder("factored")
        .attribute_with_domain("region", ValueKind::Int, domain())
        .attribute_with_domain("tier", ValueKind::Int, domain())
        .attribute("volume", ValueKind::Int)
        .factored(2)
        .build()
        .unwrap();
    let filters = [
        "region = 1 & volume > 10",
        "tier = 3",
        "region = 4 & tier = 0",
    ];
    let subscriptions = filters.iter().zip(0..).map(|(filter, id)| {
        let subscriber = SubscriberId::new(BrokerId::new(0), ClientId::new(id));
        let predicate = parse_predicate(&schema, filter).unwrap();
        Subscription::new(SubscriptionId::new(id), subscriber, predicate)
    });
    let pst = Pst::build(schema.clone(), subscriptions, PstOptions::default()).unwrap();
    let events: Vec<Event> = (0..50)
        .map(|i| Event::from_values(&schema, [i % 5, i / 10, i].map(Value::Int)).unwrap())
        .collect();
    let (allocations, found) = allocations_in(|| {
        events
            .iter()
            .filter(|e| pst.root_for_event(e).is_some())
            .count()
    });
    assert_eq!(
        allocations,
        0,
        "allocations in {} root lookups",
        events.len()
    );
    assert!(pst.roots().count() > 1 && found > 0 && found < events.len());
}
