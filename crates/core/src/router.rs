//! Whole-network content routing: the link-matching protocol driven
//! hop-by-hop over a broker network.

use std::sync::Arc;

use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    BrokerId, ClientId, Event, EventSchema, Predicate, SubscriberId, Subscription, SubscriptionId,
};

use crate::{
    BrokerNetwork, CoreError, LinkMatchEngine, LinkSpace, LinkTarget, Result, RouteScratch,
    SpanningForest, TreeId,
};

/// The static routing substrate: the broker network plus its spanning
/// forest, one tree per broker, named by its root.
#[derive(Debug)]
pub struct RoutingFabric {
    network: BrokerNetwork,
    forest: SpanningForest,
}

impl RoutingFabric {
    /// Builds the fabric: any broker may host publishers, so every broker
    /// roots a tree.
    ///
    /// # Errors
    ///
    /// Never fails: every built network has at least one broker. The
    /// `Result` is kept for the callers that propagate it.
    pub fn new_all_roots(network: BrokerNetwork) -> Result<Arc<Self>> {
        let forest = SpanningForest::compute(&network);
        Ok(Arc::new(RoutingFabric { network, forest }))
    }

    /// Rebuilds the fabric over the surviving graph: the same network, with
    /// the spanning forest recomputed as if the `excluded` edges were
    /// severed. Link numbering is untouched — dead edges stay in the
    /// network and keep their [`LinkId`](linkcast_types::LinkId)s; they are
    /// only barred from tree membership, so trit-vector positions remain
    /// stable across repairs, and so does every [`TreeId`] (a tree is named
    /// by its root). Every broker recomputing from the same exclusion set
    /// derives the same forest, which is what lets topology epochs stand in
    /// for full tree comparison on the wire.
    pub fn rebuild_excluding(&self, excluded: &[(BrokerId, BrokerId)]) -> Arc<Self> {
        let network = self.network.clone();
        let forest = SpanningForest::compute_excluding(&network, excluded);
        Arc::new(RoutingFabric { network, forest })
    }

    /// The broker network.
    pub fn network(&self) -> &BrokerNetwork {
        &self.network
    }

    /// The spanning forest.
    pub fn forest(&self) -> &SpanningForest {
        &self.forest
    }

    /// The spanning tree used by publishers at `broker`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unknown`] if `broker` is not in the network.
    pub fn tree_for(&self, broker: BrokerId) -> Result<TreeId> {
        self.forest
            .tree_for_root(broker)
            .ok_or_else(|| CoreError::Unknown(format!("no spanning tree rooted at {broker}")))
    }
}

/// Per-broker cost record inside a [`Delivery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// The broker that processed the event.
    pub broker: BrokerId,
    /// Distance (broker hops) from the publishing broker.
    pub hops: u32,
    /// Matching steps spent at this broker.
    pub steps: u64,
}

/// The outcome of publishing one event through a [`ContentRouter`].
#[derive(Debug, Clone, Default)]
pub struct Delivery {
    /// Clients that received the event, sorted: one entry per
    /// broker-to-client copy, so a client appears once however many of its
    /// subscriptions match.
    pub recipients: Vec<ClientId>,
    /// Event copies sent over broker-to-broker links.
    pub broker_messages: u64,
    /// Matching steps summed over all brokers that processed the event.
    pub total_steps: u64,
    /// Per-broker processing record, in processing order.
    pub per_hop: Vec<HopRecord>,
    /// Greatest broker-hop distance the event traveled.
    pub max_hops: u32,
}

impl Delivery {
    fn record_hop(&mut self, broker: BrokerId, hops: u32, steps: u64) {
        self.total_steps += steps;
        self.max_hops = self.max_hops.max(hops);
        self.per_hop.push(HopRecord {
            broker,
            hops,
            steps,
        });
    }

    fn finish(mut self) -> Self {
        self.recipients.sort_unstable();
        self
    }
}

/// The paper's protocol: link matching at every hop (§3).
///
/// Every broker holds the full subscription set in an annotated PST; each
/// event is matched just enough at each hop to decide which links carry it.
/// At most one copy crosses any link, no destination lists are attached,
/// and clients receive exactly the events they subscribed to.
#[derive(Debug)]
pub struct ContentRouter {
    fabric: Arc<RoutingFabric>,
    engines: Vec<LinkMatchEngine>,
    next_subscription: u32,
}

impl ContentRouter {
    /// Creates a router: one [`LinkMatchEngine`] per broker.
    ///
    /// # Errors
    ///
    /// Any engine construction error.
    pub fn new(fabric: Arc<RoutingFabric>, schema: EventSchema) -> Result<Self> {
        let mut engines = Vec::with_capacity(fabric.network().broker_count());
        for broker in fabric.network().brokers() {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            engines.push(LinkMatchEngine::new(
                broker,
                schema.clone(),
                PstOptions::default(),
                space,
            )?);
        }
        Ok(ContentRouter {
            fabric,
            engines,
            next_subscription: 0,
        })
    }

    /// The shared routing fabric.
    pub fn fabric(&self) -> &Arc<RoutingFabric> {
        &self.fabric
    }

    /// The engine of one broker (e.g. for inspecting annotations or
    /// measuring per-broker matching cost).
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range.
    pub fn engine(&self, broker: BrokerId) -> &LinkMatchEngine {
        &self.engines[broker.index()]
    }

    /// Runs §2 centralized matching at `broker` (the non-trit algorithm) —
    /// the comparison series of Chart 2.
    pub fn centralized_match(
        &self,
        broker: BrokerId,
        event: &Event,
        stats: &mut MatchStats,
    ) -> Vec<SubscriptionId> {
        self.engines[broker.index()].match_subscriptions(event, stats)
    }

    /// Registers a subscription for `client` at every broker, assigning an
    /// id.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unknown`] for unknown clients, plus matcher errors.
    pub fn subscribe(&mut self, client: ClientId, predicate: Predicate) -> Result<SubscriptionId> {
        let home = self
            .fabric
            .network()
            .home_broker(client)
            .ok_or_else(|| CoreError::Unknown(format!("client {client}")))?;
        let id = SubscriptionId::new(self.next_subscription);
        let subscription = Subscription::new(id, SubscriberId::new(home, client), predicate);
        // "Each broker in the network has a copy of all the subscriptions."
        for engine in &mut self.engines {
            engine.subscribe(subscription.clone())?;
        }
        self.next_subscription += 1;
        Ok(id)
    }

    /// Removes a subscription from every broker; returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let mut removed = false;
        for engine in &mut self.engines {
            removed |= engine.unsubscribe(id);
        }
        removed
    }

    /// Publishes an event from a publisher attached to `broker`, propagating
    /// it hop-by-hop and returning the delivery record.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unknown`] if `broker` is not in the network.
    pub fn publish(&self, broker: BrokerId, event: &Event) -> Result<Delivery> {
        let tree = self.fabric.tree_for(broker)?;
        let network = self.fabric.network();
        let mut delivery = Delivery::default();
        // Every hop walks its broker's arena, as a broker core does.
        let mut scratch = RouteScratch::new();
        let mut links = Vec::new();
        // Hop-by-hop propagation along the spanning tree.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((broker, 0u32));
        while let Some((at, hops)) = queue.pop_front() {
            let mut stats = MatchStats::new();
            self.engines[at.index()].match_links_into(
                event,
                tree,
                &mut scratch,
                &mut stats,
                &mut links,
            );
            delivery.record_hop(at, hops, stats.steps);
            for &link in &links {
                match network.link_target(at, link) {
                    LinkTarget::Broker(next) => {
                        delivery.broker_messages += 1;
                        queue.push_back((next, hops + 1));
                    }
                    LinkTarget::Client(client) => delivery.recipients.push(client),
                }
            }
        }
        Ok(delivery.finish())
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.engines
            .first()
            .map_or(0, LinkMatchEngine::subscription_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    #[test]
    fn rebuild_excluding_preserves_network_and_reroots_trees() {
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(4);
        b.connect(ids[0], ids[1], 10.0).unwrap();
        b.connect(ids[1], ids[2], 10.0).unwrap();
        b.connect(ids[2], ids[3], 10.0).unwrap();
        b.connect(ids[3], ids[0], 10.0).unwrap();
        for &id in &ids {
            b.add_client(id).unwrap();
        }
        let net = b.build().unwrap();
        let fabric = RoutingFabric::new_all_roots(net).unwrap();
        let repaired = fabric.rebuild_excluding(&[(ids[0], ids[1])]);
        // The network (and its link numbering) is untouched; only the
        // forest changes, one tree per broker as before.
        assert_eq!(
            repaired.network().link_count(ids[0]),
            fabric.network().link_count(ids[0])
        );
        let roots: Vec<BrokerId> = fabric.network().brokers().collect();
        assert_eq!(repaired.forest().len(), roots.len());
        let tree = repaired
            .forest()
            .tree(repaired.tree_for(ids[0]).unwrap())
            .unwrap();
        assert_eq!(tree.parent(ids[1]), Some(ids[2]));
        // Rebuilding with no exclusions reproduces the original forest.
        let same = fabric.rebuild_excluding(&[]);
        for &root in &roots {
            let a = fabric
                .forest()
                .tree(fabric.tree_for(root).unwrap())
                .unwrap();
            let b = same.forest().tree(same.tree_for(root).unwrap()).unwrap();
            assert_eq!(a, b);
        }
    }
}
