//! The parallel search *graph* of §2.1, as ablation A2 measures it: "after
//! applying optimizations, the parallel search tree will no longer be a
//! tree but instead a directed acyclic graph". No walk runs on a graph;
//! its size is counted off the [`Pst`], and a graph walk's steps are the
//! tree walk's plus the nodes trivial test elimination skipped
//! ([`MatchStats::skipped`](linkcast_matching::MatchStats::skipped)).

use std::collections::HashMap;

use linkcast_matching::Pst;
use linkcast_types::{AttrTest, SubscriptionId, Value};

/// How many nodes `pst` keeps once structurally identical subtrees are
/// one: the size of its parallel search graph. The tree is hash-consed
/// bottom-up: two nodes are one when they sit at
/// the same level, park the same subscriptions (which fixes a tail's
/// chain) and have edges with the same labels to children that are one.
/// Factoring replicates every `*` subscription's suffix into each value's
/// subtree, and the replicas fold back together; within one subtree no
/// two nodes are one, so a walk of the graph costs what the tree's walk
/// costs without trivial test elimination.
pub fn shared_node_count(pst: &Pst) -> usize {
    type Key = (
        usize,
        Vec<(Value, usize)>,
        Vec<(AttrTest, usize)>,
        Option<usize>,
        Vec<SubscriptionId>,
    );
    let mut shared: HashMap<Key, usize> = HashMap::new();
    let mut class = vec![0; pst.arena_size()];
    for id in pst.postorder() {
        let node = pst.node(id);
        let edges = node.eq_edges().iter();
        let eq = edges.map(|(v, c)| (v.clone(), class[c.index()]));
        let edges = node.range_edges().iter();
        let range = edges.map(|(t, c)| (t.clone(), class[c.index()]));
        let key = (
            node.level(),
            eq.collect(),
            range.collect(),
            node.star().map(|c| class[c.index()]),
            node.subscription_ids().to_vec(),
        );
        let next = shared.len();
        class[id.index()] = *shared.entry(key).or_insert(next);
    }
    shared.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_matching::{Matcher, PstOptions};
    use linkcast_types::{
        parse_predicate, BrokerId, ClientId, EventSchema, SubscriberId, Subscription, ValueKind,
    };

    /// `x, y, z` over `0..4`, `x` factored.
    fn schema() -> EventSchema {
        let domain = || (0..4).map(Value::Int);
        EventSchema::builder("s")
            .attribute_with_domain("x", ValueKind::Int, domain())
            .attribute_with_domain("y", ValueKind::Int, domain())
            .attribute_with_domain("z", ValueKind::Int, domain())
            .factored(1)
            .build()
            .unwrap()
    }

    fn subscribe(pst: &mut Pst, id: u32, filter: &str) {
        let subscriber = SubscriberId::new(BrokerId::new(0), ClientId::new(id));
        let predicate = parse_predicate(pst.schema(), filter).unwrap();
        let subscription = Subscription::new(SubscriptionId::new(id), subscriber, predicate);
        pst.insert(subscription).unwrap();
    }

    /// `x = *` replicates a subscription's suffix into all four
    /// `x`-subtrees; the graph keeps one copy, and an empty tree keeps
    /// nothing.
    #[test]
    fn factoring_replicas_are_shared() {
        let mut pst = Pst::new(schema(), PstOptions::default()).unwrap();
        assert_eq!(shared_node_count(&pst), 0);
        subscribe(&mut pst, 0, "y = 1 & z > 2");
        assert_eq!((pst.node_count(), shared_node_count(&pst)), (4, 1));
        // A second subscription under `x = 2` bursts that subtree's tail
        // into a root, a `y = 1` node and two leaves, all four unlike
        // anything else; the other three subtrees stay one tail.
        subscribe(&mut pst, 1, "x = 2 & y = 1 & z = 0");
        assert_eq!((pst.node_count(), shared_node_count(&pst)), (7, 5));
    }

    /// Replicas fold only where their range edges agree: under the `x`
    /// values a `x >= 2` subscription also reaches, the subtrees differ in
    /// a range label and stay apart.
    #[test]
    fn range_edges_survive_compilation() {
        let mut pst = Pst::new(schema(), PstOptions::default()).unwrap();
        subscribe(&mut pst, 0, "y >= 1 & z = 3");
        subscribe(&mut pst, 1, "y = 2");
        // A root forking to two tails, four times over, kept once.
        assert_eq!((pst.node_count(), shared_node_count(&pst)), (12, 3));
        subscribe(&mut pst, 2, "x >= 2 & y < 3");
        assert_eq!(pst.node_count(), 14);
        // The two roots with the extra `y < 3` edge are one, the other two
        // another, and all four share the first two tails.
        assert_eq!(shared_node_count(&pst), 5);
    }
}
