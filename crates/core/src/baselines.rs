//! The two straightforward alternatives the paper compares against (§1, §5):
//! flooding and match-first.

use std::sync::Arc;

use linkcast_matching::{MatchStats, Matcher, Pst, PstOptions};
use linkcast_types::{
    BrokerId, ClientId, Event, EventSchema, Predicate, SubscriberId, Subscription, SubscriptionId,
};

use crate::router::child_links;
use crate::{CoreError, Delivery, EventRouter, LinkTarget, Result, RoutingFabric};

/// The **flooding** baseline: "the message is broadcast or flooded to all
/// destinations using standard multicast technology and unwanted messages
/// are filtered out at these destinations."
///
/// Every broker receives every event (one copy per spanning-tree link) and
/// forwards it to **all** of its clients; filtering happens *at the
/// clients*, exactly as the paper describes — brokers do no content
/// matching at all. The wasted broker-to-broker and broker-to-client
/// traffic is the protocol's cost — the quantity Chart 1 shows saturating
/// the network.
///
/// [`Delivery::recipients`] reports the post-filter outcome (what the
/// clients keep), so correctness comparisons against the other protocols
/// hold; [`Delivery::client_messages`] reports the pre-filter copies
/// actually sent.
#[derive(Debug)]
pub struct FloodingRouter {
    fabric: Arc<RoutingFabric>,
    /// Per-broker view of local subscriptions — this models the *clients'*
    /// own filters, not broker work.
    local: Vec<Pst>,
    next_subscription: u32,
}

impl FloodingRouter {
    /// Creates a flooding router over `fabric`.
    ///
    /// # Errors
    ///
    /// Any PST construction error.
    pub fn new(
        fabric: Arc<RoutingFabric>,
        schema: EventSchema,
        options: PstOptions,
    ) -> Result<Self> {
        let local = fabric
            .network()
            .brokers()
            .map(|_| Pst::new(schema.clone(), options.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FloodingRouter {
            fabric,
            local,
            next_subscription: 0,
        })
    }
}

impl EventRouter for FloodingRouter {
    fn subscribe(&mut self, client: ClientId, predicate: Predicate) -> Result<SubscriptionId> {
        let home = self
            .fabric
            .network()
            .home_broker(client)
            .ok_or_else(|| CoreError::Unknown(format!("client {client}")))?;
        let id = SubscriptionId::new(self.next_subscription);
        // Only the client's home broker needs the subscription: filtering
        // happens at the edge.
        self.local[home.index()].insert(Subscription::new(
            id,
            SubscriberId::new(home, client),
            predicate,
        ))?;
        self.next_subscription += 1;
        Ok(id)
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.local.iter_mut().any(|pst| pst.remove(id))
    }

    fn publish(&self, broker: BrokerId, event: &Event) -> Result<Delivery> {
        let tree_id = self.fabric.tree_for(broker)?;
        let tree = self
            .fabric
            .forest()
            .tree(tree_id)
            .expect("tree ids from the forest are valid");
        let network = self.fabric.network();
        let mut delivery = Delivery::default();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((broker, 0u32));
        while let Some((at, hops)) = queue.pop_front() {
            // The broker does no matching: every local client gets a copy.
            delivery.record_hop(at, hops, 0);
            delivery.client_messages += network.clients_of(at).len() as u64;
            // The *clients* filter: only matching subscribers keep the
            // event (modeled by the local subscription view).
            let mut stats = MatchStats::new();
            for sub_id in self.local[at.index()].matches_with_stats(event, &mut stats) {
                let sub = self.local[at.index()]
                    .subscription(sub_id)
                    .expect("matched ids are registered");
                delivery.recipients.push(sub.subscriber().client);
            }
            // Flood: forward on every tree link regardless of content.
            for link in child_links(network, tree, at) {
                match network.link_target(at, link) {
                    LinkTarget::Broker(next) => {
                        delivery.broker_messages += 1;
                        queue.push_back((next, hops + 1));
                    }
                    LinkTarget::Client(_) => unreachable!("child links lead to brokers"),
                }
            }
        }
        Ok(delivery.finish())
    }

    fn subscription_count(&self) -> usize {
        self.local.iter().map(Pst::len).sum()
    }
}

/// The **match-first** baseline: "the event is first matched against all
/// subscriptions, thus generating a destination list and the event is then
/// routed to all entries on this list."
///
/// The publisher's broker runs the full §2 match once, then the event
/// travels with an explicit destination list that each broker splits among
/// its spanning-tree children. [`Delivery::payload_units`] counts the
/// destination entries carried across broker links — the per-message
/// overhead that "makes the approach impractical" at scale.
#[derive(Debug)]
pub struct MatchFirstRouter {
    fabric: Arc<RoutingFabric>,
    /// The full subscription set (one copy is enough: matching happens only
    /// at the publishing broker).
    full: Pst,
    next_subscription: u32,
}

impl MatchFirstRouter {
    /// Creates a match-first router over `fabric`.
    ///
    /// # Errors
    ///
    /// Any PST construction error.
    pub fn new(
        fabric: Arc<RoutingFabric>,
        schema: EventSchema,
        options: PstOptions,
    ) -> Result<Self> {
        Ok(MatchFirstRouter {
            fabric,
            full: Pst::new(schema, options)?,
            next_subscription: 0,
        })
    }
}

impl EventRouter for MatchFirstRouter {
    fn subscribe(&mut self, client: ClientId, predicate: Predicate) -> Result<SubscriptionId> {
        let home = self
            .fabric
            .network()
            .home_broker(client)
            .ok_or_else(|| CoreError::Unknown(format!("client {client}")))?;
        let id = SubscriptionId::new(self.next_subscription);
        self.full.insert(Subscription::new(
            id,
            SubscriberId::new(home, client),
            predicate,
        ))?;
        self.next_subscription += 1;
        Ok(id)
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.full.remove(id)
    }

    fn publish(&self, broker: BrokerId, event: &Event) -> Result<Delivery> {
        let tree_id = self.fabric.tree_for(broker)?;
        let tree = self
            .fabric
            .forest()
            .tree(tree_id)
            .expect("tree ids from the forest are valid");
        let network = self.fabric.network();
        let mut delivery = Delivery::default();

        // One full match at the publishing broker.
        let mut stats = MatchStats::new();
        let matched = self.full.matches_with_stats(event, &mut stats);
        delivery.record_hop(broker, 0, stats.steps);
        let mut destinations: Vec<ClientId> = matched
            .iter()
            .map(|id| {
                self.full
                    .subscription(*id)
                    .expect("matched ids are registered")
                    .subscriber()
                    .client
            })
            .collect();
        destinations.sort_unstable();
        destinations.dedup();

        // Route the destination list along the tree.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((broker, 1u32, destinations));
        while let Some((at, hops, dests)) = queue.pop_front() {
            let mut per_child: std::collections::BTreeMap<BrokerId, Vec<ClientId>> =
                std::collections::BTreeMap::new();
            for client in dests {
                let home = network.home_broker(client).expect("destinations exist");
                if home == at {
                    delivery.client_messages += 1;
                    delivery.recipients.push(client);
                } else if let Some(child) = tree.child_toward(at, home) {
                    per_child.entry(child).or_default().push(client);
                }
                // Destinations not downstream cannot occur: the publisher's
                // broker is the tree root.
            }
            for (child, sublist) in per_child {
                delivery.broker_messages += 1;
                delivery.payload_units += sublist.len() as u64;
                delivery.max_hops = delivery.max_hops.max(hops);
                queue.push_back((child, hops + 1, sublist));
            }
        }
        Ok(delivery.finish())
    }

    fn subscription_count(&self) -> usize {
        self.full.len()
    }
}
