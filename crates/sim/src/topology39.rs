//! The paper's Figure 6 topology: "39 brokers and 10 subscribing clients
//! per broker ... the 39 brokers form three trees of 13 brokers each. The
//! root of each of these three trees are connected to the roots of the other
//! two. Also ... a small number of lateral links between non-root nodes in
//! the trees."
//!
//! Hop delays: "The top-level brokers are modeled to have a one-way hop
//! delay of about 65 ms, links from them to their next level neighbors is
//! 25 ms, the third level hop delay is about 10 ms, and the hop delay to
//! clients is 1 ms."

use std::sync::Arc;

use linkcast::{ContentRouter, NetworkBuilder, Result, RoutingFabric};
use linkcast_types::{BrokerId, ClientId, Predicate};
use linkcast_workload::SubscriptionGenerator;
use rand::Rng;

use crate::Publisher;

/// Delay between the three tree roots (intercontinental), ms.
pub const ROOT_DELAY_MS: f64 = 65.0;
/// Delay from a root to its second-level children, ms.
pub const LEVEL2_DELAY_MS: f64 = 25.0;
/// Delay from second-level brokers to leaves, ms.
pub const LEVEL3_DELAY_MS: f64 = 10.0;
/// Broker-to-client delay, ms.
pub const CLIENT_DELAY_MS: f64 = 1.0;
/// Subscribing clients per broker.
pub const CLIENTS_PER_BROKER: usize = 10;

/// The built Figure 6 world.
#[derive(Debug)]
pub struct Figure6 {
    /// Topology plus its spanning forest: one tree per broker, named by
    /// its root.
    pub fabric: Arc<RoutingFabric>,
    /// All 39 brokers; `brokers[tree * 13 + i]` with `i = 0` the tree root,
    /// `1..4` the second level, `4..13` the leaves.
    pub brokers: Vec<BrokerId>,
    /// Locality region (tree index 0..3) per broker.
    pub broker_region: Vec<usize>,
    /// The 390 subscribing clients with their regions.
    pub subscribers: Vec<(ClientId, usize)>,
    /// The three tracked publishers P1, P2, P3.
    pub publishers: Vec<Publisher>,
}

impl Figure6 {
    /// The region (tree index) of a broker.
    pub fn region_of(&self, broker: BrokerId) -> usize {
        self.broker_region[broker.index()]
    }

    /// One publisher per broker — the tracked P1-P3 plus the paper's
    /// background load ("the rest simply load the brokers by publishing
    /// messages that take up CPU time at the brokers").
    pub fn all_publishers(&self) -> Vec<Publisher> {
        self.brokers
            .iter()
            .map(|&broker| Publisher {
                broker,
                region: self.region_of(broker),
            })
            .collect()
    }
}

/// Builds the Figure 6 network: three 13-broker trees (root + 3 + 9),
/// pairwise-connected roots, two lateral links between second-level
/// brokers of different trees, ten subscribing clients per broker, and
/// publishers P1 (leaf of tree 0), P2 (leaf of tree 1), P3 (root of tree
/// 2).
///
/// # Errors
///
/// Topology construction errors (none for the fixed layout, but propagated
/// rather than unwrapped).
pub fn build() -> Result<Figure6> {
    let mut b = NetworkBuilder::new();
    let mut brokers = Vec::with_capacity(39);
    let mut broker_region = Vec::with_capacity(39);
    // Per tree: [root, l2a, l2b, l2c, 9 leaves].
    for tree in 0..3 {
        let root = b.add_broker();
        brokers.push(root);
        broker_region.push(tree);
        let mut level2 = Vec::new();
        for _ in 0..3 {
            let mid = b.add_broker();
            b.connect(root, mid, LEVEL2_DELAY_MS)?;
            brokers.push(mid);
            broker_region.push(tree);
            level2.push(mid);
        }
        for &mid in &level2 {
            for _ in 0..3 {
                let leaf = b.add_broker();
                b.connect(mid, leaf, LEVEL3_DELAY_MS)?;
                brokers.push(leaf);
                broker_region.push(tree);
            }
        }
    }
    let root = |tree: usize| brokers[tree * 13];
    let level2 = |tree: usize, i: usize| brokers[tree * 13 + 1 + i];
    let leaf = |tree: usize, i: usize| brokers[tree * 13 + 4 + i];

    // Intercontinental root mesh.
    b.connect(root(0), root(1), ROOT_DELAY_MS)?;
    b.connect(root(1), root(2), ROOT_DELAY_MS)?;
    b.connect(root(0), root(2), ROOT_DELAY_MS)?;
    // "A small number of lateral links between non-root nodes ... to allow
    // messages from some publishers to follow a different path."
    b.connect(level2(0, 0), level2(1, 0), ROOT_DELAY_MS)?;
    b.connect(level2(1, 1), level2(2, 1), ROOT_DELAY_MS)?;

    // Ten subscribing clients per broker.
    let mut subscribers = Vec::with_capacity(39 * CLIENTS_PER_BROKER);
    for (i, &broker) in brokers.iter().enumerate() {
        for _ in 0..CLIENTS_PER_BROKER {
            let c = b.add_client(broker)?;
            subscribers.push((c, broker_region[i]));
        }
    }

    // Tracked publishers (their brokers' trees carry their events).
    let publishers = vec![
        Publisher {
            broker: leaf(0, 0),
            region: 0,
        },
        Publisher {
            broker: leaf(1, 4),
            region: 1,
        },
        Publisher {
            broker: root(2),
            region: 2,
        },
    ];
    // A tree for every broker: besides P1-P3, "an unspecified number of
    // publishing clients ... simply load the brokers by publishing
    // messages that take up CPU time at the brokers" — background
    // publishers may sit anywhere.
    let fabric = RoutingFabric::new_all_roots(b.build()?)?;
    Ok(Figure6 {
        fabric,
        brokers,
        broker_region,
        subscribers,
        publishers,
    })
}

/// `count` randomly generated subscriptions, spread round-robin over the
/// figure's 390 subscribing clients (each using its region's value
/// distribution).
pub fn random_subscriptions(
    world: &Figure6,
    generator: &SubscriptionGenerator,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<(ClientId, Predicate)> {
    (0..count)
        .map(|i| {
            let (client, region) = world.subscribers[i % world.subscribers.len()];
            (client, generator.generate_predicate(rng, region))
        })
        .collect()
}

/// Registers [`random_subscriptions`] with `router`.
///
/// # Errors
///
/// Any subscription error from the router.
pub fn subscribe_random(
    router: &mut ContentRouter,
    world: &Figure6,
    generator: &SubscriptionGenerator,
    count: usize,
    rng: &mut impl Rng,
) -> Result<()> {
    for (client, predicate) in random_subscriptions(world, generator, count, rng) {
        router.subscribe(client, predicate)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use linkcast::LinkSpace;

    use super::*;

    #[test]
    fn figure6_has_the_papers_shape() {
        let world = build().unwrap();
        let net = world.fabric.network();
        assert_eq!(net.broker_count(), 39);
        assert_eq!(net.client_count(), 390);
        assert_eq!(world.subscribers.len(), 390);
        assert_eq!(world.publishers.len(), 3);

        // Roots: 2 root links + 3 children + 10 clients.
        let root0 = world.brokers[0];
        assert_eq!(net.neighbors(root0).len(), 5);
        assert_eq!(net.clients_of(root0).len(), 10);

        // Region split: 13 brokers per tree.
        for tree in 0..3 {
            let count = world.broker_region.iter().filter(|&&r| r == tree).count();
            assert_eq!(count, 13);
        }

        // Delays per level.
        assert_eq!(
            net.delay(world.brokers[0], world.brokers[13]),
            Some(ROOT_DELAY_MS)
        );
        assert_eq!(
            net.delay(world.brokers[0], world.brokers[1]),
            Some(LEVEL2_DELAY_MS)
        );
        assert_eq!(
            net.delay(world.brokers[1], world.brokers[4]),
            Some(LEVEL3_DELAY_MS)
        );

        // Lateral links exist (level-2 brokers of trees 0 and 1).
        assert_eq!(
            net.delay(world.brokers[1], world.brokers[14]),
            Some(ROOT_DELAY_MS)
        );
    }

    #[test]
    fn publishers_have_spanning_trees() {
        let world = build().unwrap();
        for p in &world.publishers {
            assert!(world.fabric.tree_for(p.broker).is_ok());
        }
        assert_eq!(world.fabric.forest().len(), world.brokers.len());
        // The lateral links and the root mesh make the graph cyclic, so
        // some broker's trees route a destination over different links:
        // its links split into virtual-link classes.
        let (network, forest) = (world.fabric.network(), world.fabric.forest());
        assert!(world
            .brokers
            .iter()
            .any(|&b| LinkSpace::build(network, forest, b).class_count() > 1));
    }

    #[test]
    fn region_lookup() {
        let world = build().unwrap();
        assert_eq!(world.region_of(world.brokers[0]), 0);
        assert_eq!(world.region_of(world.brokers[20]), 1);
        assert_eq!(world.region_of(world.brokers[38]), 2);
    }
}
