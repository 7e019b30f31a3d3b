//! The brute-force oracle link matching is checked against.
//!
//! No PST, no annotations, no link space: every live predicate is evaluated
//! against the event, and each subscription it matches is mapped to the
//! link its subscriber sits behind — the client's own link at its home
//! broker, else the link to the child whose subtree holds that home on the
//! spanning tree. It shares no code with the arena walk.

use std::collections::BTreeSet;

use linkcast::{BrokerNetwork, SpanningTree};
use linkcast_types::{BrokerId, Event, LinkId, Subscription};

/// The links `broker` forwards `event` on along `tree`, sorted.
pub fn oracle_links<'a>(
    network: &BrokerNetwork,
    tree: &SpanningTree,
    broker: BrokerId,
    live: impl IntoIterator<Item = &'a Subscription>,
    event: &Event,
) -> Vec<LinkId> {
    if !tree.contains(broker) {
        return Vec::new();
    }
    let links: BTreeSet<LinkId> = (live.into_iter())
        .filter(|sub| sub.predicate().matches(event))
        .filter_map(|sub| {
            let client = sub.subscriber().client;
            let home = network.home_broker(client)?;
            if home == broker {
                return network.link_to_client(broker, client);
            }
            network.link_to_broker(broker, tree.child_toward(broker, home)?)
        })
        .collect();
    links.into_iter().collect()
}
