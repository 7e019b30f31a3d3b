//! PST match-time traversal.

use linkcast_types::{AttrTest, Event, RangeLookup, SubscriptionId};

use super::{NodeId, Pst};
use crate::MatchStats;

impl Pst {
    /// Follows all satisfied root-to-leaf paths, collecting the
    /// subscriptions at every reached leaf (§2's parallel search).
    pub(crate) fn match_collect(
        &self,
        event: &Event,
        stats: &mut MatchStats,
    ) -> Vec<SubscriptionId> {
        stats.events += 1;
        let Some(root) = self.root_for_event(event) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![self.effective(root, stats)];
        self.run_stack(&mut stack, event, stats, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Depth-first search driver: pops nodes, visits them, pushes children,
    /// collects leaf subscriptions.
    fn run_stack(
        &self,
        stack: &mut Vec<NodeId>,
        event: &Event,
        stats: &mut MatchStats,
        out: &mut Vec<SubscriptionId>,
    ) {
        while let Some(id) = stack.pop() {
            self.visit(id, event, stats, stack, out);
        }
    }

    /// Visits one node: a leaf contributes its subscriptions, a tail
    /// does if the event passes its chain; an interior node pushes the
    /// children its test selects.
    fn visit(
        &self,
        id: NodeId,
        event: &Event,
        stats: &mut MatchStats,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<SubscriptionId>,
    ) {
        let node = self.node_inner(id);
        if node.is_terminal() {
            if walk_chain(self.residual(node), event, stats) {
                out.extend_from_slice(node.subs.as_slice());
            }
            return;
        }
        stats.steps += 1;
        let attr = self.order[node.level as usize];
        let value = &event.values()[attr];
        stats.comparisons += 1;
        if let Ok(i) = node.eq_edges.binary_search_by(|(v, _)| v.cmp(value)) {
            stack.push(self.effective(node.eq_edges[i].1, stats));
        }
        let ranges = RangeLookup::new(&node.range_edges, |(test, _)| test, value);
        stats.comparisons += ranges.probes;
        for (test, child) in &node.range_edges[ranges.candidates] {
            stats.comparisons += u64::from(matches!(test, AttrTest::Between(..)));
            if test.matches(value) {
                stack.push(self.effective(*child, stats));
            }
        }
        if let Some(star) = node.star {
            stack.push(self.effective(star, stats));
        }
    }

    /// Resolves trivial-test-elimination skips: the node actually worth
    /// visiting when a search would enter `id`, charging `stats.skipped`
    /// the `*`-only nodes jumped over on the way.
    #[inline]
    fn effective(&self, id: NodeId, stats: &mut MatchStats) -> NodeId {
        let node = self.node_inner(id);
        let Some(target) = node.skip else {
            return id;
        };
        stats.skipped += u64::from(self.node_inner(target).level - node.level);
        target
    }
}

/// Walks the single-edge chain `chain` spells out, level by level, from
/// its first node (which the search is entering) to its leaf, charging
/// `stats` what a search over the real nodes would be charged: a step per
/// node entered — a run of `*`-only nodes collapsing into the node it
/// leads to, each of them a node `skipped` — a comparison per equality
/// lookup and what a [`RangeLookup`] over the one range edge charges, a
/// leaf hit at the end. Returns whether the event passed every test, that
/// is, whether the leaf was reached.
fn walk_chain<'a>(
    chain: impl Iterator<Item = (usize, &'a AttrTest)>,
    event: &Event,
    stats: &mut MatchStats,
) -> bool {
    let mut chain = chain.peekable();
    loop {
        while chain.next_if(|(_, test)| test.is_wildcard()).is_some() {
            stats.skipped += 1;
        }
        stats.steps += 1;
        let Some((attr, test)) = chain.next() else {
            stats.leaf_hits += 1;
            return true;
        };
        // The equality lookup every node makes, and the one range edge.
        let value = &event.values()[attr];
        stats.comparisons += 1 + test.lone_range_cost(value);
        if !test.matches(value) {
            return false;
        }
    }
}
