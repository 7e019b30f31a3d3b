//! What installing one subscription costs in heap, pinned as counts: the
//! paper's broker adds *every* subscription in the system to its matching
//! tree (§4.2), so allocations and kept bytes per install are what table
//! set-up, resync and recovery multiply by — and a count repeats exactly
//! where a timing does not.
//!
//! The subject is the `match` benchmark's decoy chain (six range tests over
//! per-chain constants), 2 048 of them installed into an empty engine with
//! the predicates parsed beforehand, so what is counted is the index — tree
//! node, subscription slot, annotation rows, arena node — and not the
//! predicate it indexes. Every test installs them in two orders: by id,
//! where each chain's `volume` edge is appended to the sorted list, and in
//! the benchmark's three phases, where two thirds land in its middle.
//!
//! Alone in its test binary because of the `#[global_allocator]`; counts are
//! per thread, so the tests need not take turns.

#![cfg(not(miri))]

use linkcast::{LinkMatchEngine, LinkSpace, NetworkBuilder, RoutingFabric};
use linkcast_alloc_count::{allocations_in, live_bytes_in, CountingAllocator};
use linkcast_matching::{Pst, PstOptions};
use linkcast_types::{
    parse_predicate, EventSchema, SubscriberId, Subscription, SubscriptionId, ValueKind,
};
use linkcast_workload::decoy_chain;

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
/// id inline, a slab slot, an annotation row and a tally window, an arena
/// node that reads the chain's tests, and the edges it follows, where they
/// are — so an install keeps under 550 bytes of index (496 measured in
/// either order, 54 of margin; 640 while the arena kept a copy of every
/// edge list, 770 while range edges carried a label index beside the list,
/// 1 504 when the arena spelled every chain out as three nodes and five
/// cloned tests, and annotations were two heap vectors a node) and
/// allocates only where a slab doubles (6.2 before).
/// The mirrors of the tree — annotations and arena — allocate nothing else:
/// what the engine allocates beyond a bare tree fed the same inserts is
/// their slabs' amortised growth.
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
        assert!(bytes <= 550.0, "{name}: {bytes} live bytes per chain");
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
/// annotations or the arena: the tree node's index, the annotation row, the
/// tally window and the arena slot all come back in the role they had. (The
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
