//! Counted trit annotations: the §3.1 bottom-up propagation kept
//! incrementally.
//!
//! A node's annotation is *Alternative Combine* over its value-branch
//! children (plus one implicit all-`No` alternative unless the branches
//! exhaust the attribute's finite domain), *Parallel Combine*d with its `*`
//! child; a leaf's is *Parallel Combine* over its subscribers' leaf
//! vectors. A tail's is what the chain it stands for would carry at its
//! top: its subscribers' *Parallel Combine*, every `Yes` turned `Maybe` if
//! some test of the chain can fail ([`can_fail`]) — what the implicit
//! alternative does at that test's node and every node above it repeats.
//! Folding that from scratch costs a node's whole fan-out. Instead
//! every node keeps a row of [`TritTallies`] over what its value-branch
//! children (its subscribers, for a leaf) currently say, so a mutation that
//! changes one child is "take the old vector out, count the new one in,
//! read the annotation off the tallies" — word ops, independent of how many
//! siblings the child has. Domain exhaustion is counted the same way: per
//! domain value, how many branches accept it.
//!
//! Nothing here is a heap object per node: annotations are fixed-width rows
//! of one word slab and tallies windows into another, both addressed by
//! [`NodeId::index`], so annotating a fresh node allocates nothing beyond
//! the slabs' amortised growth and a pruned node's rows wait, emptied, for
//! the slot's next owner.

use std::collections::HashMap;

use linkcast_matching::{Matcher, NodeId, NodeRef, PathReport, Pst};
use linkcast_types::{AttrTest, ClientId, TritTallies, TritVec, Value};

use crate::LinkSpace;

/// Per-PST-node annotation state, indexed by [`NodeId::index`].
#[derive(Debug, Clone)]
pub(crate) struct Annotations {
    /// Words per annotation row.
    words: usize,
    /// The annotation of node `i` at `[i * words, (i + 1) * words)`.
    trits: Vec<u64>,
    /// Whether node `i`'s row holds a computed annotation.
    live: Vec<bool>,
    /// Per leaf or tail `i`: the levels of its chain down to and including
    /// the last test that can fail ([`can_fail`]), 0 if none can.
    cuts: Vec<u16>,
    /// Row `i`: what node `i`'s value-branch children (leaf: subscribers)
    /// say.
    tallies: TritTallies,
    /// For nodes testing an attribute with a finite domain: per domain
    /// value, the number of value branches accepting it.
    cover: HashMap<usize, Vec<u32>>,
    /// Memoized leaf vectors per subscriber client.
    leaves: HashMap<ClientId, TritVec>,
    /// The annotation the most recently derived node had before.
    previous: TritVec,
    /// Work buffer for the annotation being derived.
    next: TritVec,
}

/// Row `index` of an annotation slab of `words`-word rows.
fn row(trits: &[u64], words: usize, index: usize) -> &[u64] {
    &trits[index * words..(index + 1) * words]
}

impl Annotations {
    /// Empty state for masks of `width` trits.
    pub(crate) fn new(width: usize) -> Self {
        let next = TritVec::no(width);
        Annotations {
            words: next.words().len(),
            trits: Vec::new(),
            live: Vec::new(),
            cuts: Vec::new(),
            tallies: TritTallies::new(width),
            cover: HashMap::new(),
            leaves: HashMap::new(),
            previous: next.clone(),
            next,
        }
    }

    /// Trits per annotation row: the link-space width.
    pub(crate) fn width(&self) -> usize {
        self.next.len()
    }

    /// The annotation of a node, packed ([`TritVec::words`]), if computed.
    pub(crate) fn get(&self, id: NodeId) -> Option<&[u64]> {
        let live = self.live.get(id.index()).copied().unwrap_or(false);
        live.then(|| row(&self.trits, self.words, id.index()))
    }

    /// The levels of leaf or tail `id`'s chain down to and including the
    /// last test that can fail, 0 if none can (or `id` is interior): below
    /// it, the nodes the chain stands for carry the leaf's annotation.
    pub(crate) fn cut(&self, id: NodeId) -> usize {
        self.cuts.get(id.index()).map_or(0, |cut| usize::from(*cut))
    }

    /// Recomputes everything from `pst` over `space` (post-order, children
    /// first), forgetting leaf vectors minted under an older link space.
    pub(crate) fn rebuild(&mut self, pst: &Pst, space: &LinkSpace) {
        *self = Annotations::new(space.width());
        self.grow(pst.arena_size());
        for id in pst.postorder() {
            let node = pst.node(id);
            for sub in node.subscription_ids() {
                let client = pst
                    .subscription(*sub)
                    .expect("leaf subscriptions are registered")
                    .subscriber()
                    .client;
                self.count_subscriber(space, id, client, true);
            }
            for (label, child) in node.eq_edges() {
                self.count_branch(pst, &node, id, |v| v == label, *child);
            }
            for (test, child) in node.range_edges() {
                self.count_branch(pst, &node, id, |v| test.matches(v), *child);
            }
            self.derive(pst, &node, id);
        }
    }

    /// Re-annotates one reported path after `client`'s subscription was
    /// added to (`subscribed`) or removed from its leaf. Nodes off the path
    /// are unaffected (a node's annotation depends only on its
    /// descendants), and the climb stops at the first node whose annotation
    /// comes out unchanged.
    pub(crate) fn apply(
        &mut self,
        pst: &Pst,
        space: &LinkSpace,
        path: &PathReport,
        client: ClientId,
        subscribed: bool,
    ) {
        self.grow(pst.arena_size());
        if let (Some(parked), [.., fork, _]) = (path.burst, &path.nodes[..]) {
            // The burst tail's subscribers moved to `parked`, behind the
            // older edge of the fork; everything else about the nodes the
            // burst made real is the newcomer's path, annotated below.
            if let Some(tail) = path.created.checked_sub(1).and_then(|i| path.nodes.get(i)) {
                self.tallies.swap(parked.index(), tail.index());
            }
            self.derive(pst, &pst.node(parked), parked);
            let node = pst.node(*fork);
            if let Some(test) = value_label(pst, parked, node.level()) {
                self.count_branch(pst, &node, *fork, |v| test.matches(v), parked);
            }
        }
        // Drop the pruned chain's state, leaf first, keeping the last
        // annotation taken: the top's, which its parent still counts.
        let mut had_previous = false;
        for freed in &path.freed {
            had_previous |= self.take(*freed);
        }

        // The leaf or tail an insert parked the subscription on.
        let end = path.nodes.last().copied();
        // The child just below the node being visited, if it survives.
        let mut below: Option<NodeId> = None;
        for (i, &id) in path.nodes.iter().enumerate().rev() {
            let node = pst.node(id);
            let created = i >= path.created;
            debug_assert!(
                !created || !self.live[id.index()],
                "a recycled slot was cleared when its previous owner was pruned"
            );
            match below {
                None if node.is_leaf() => self.count_subscriber(space, id, client, subscribed),
                // The last survivor of a remove: its branch into the
                // pruned chain is gone.
                None => {
                    if let Some(test) = path.removed.as_ref().filter(|t| !t.is_wildcard()) {
                        self.tallies.remove(id.index(), self.previous.words());
                        self.cover_adjust(pst, &node, id, |v| test.matches(v), false);
                    }
                }
                Some(child) if node.star() == Some(child) => {}
                Some(child) => {
                    if had_previous {
                        self.tallies.remove(id.index(), self.previous.words());
                        debug_assert!(self.live[child.index()], "children are annotated first");
                        let now = row(&self.trits, self.words, child.index());
                        self.tallies.add(id.index(), now);
                    } else if let Some(test) = end.and_then(|end| value_label(pst, end, i)) {
                        // A fresh branch — the newer edge of a burst's
                        // fork, the boundary edge, or a created node's only
                        // edge — labeled with the new subscription's test.
                        self.count_branch(pst, &node, id, |v| test.matches(v), child);
                    }
                }
            }
            let changed = self.derive(pst, &node, id);
            if !created && !changed {
                return;
            }
            had_previous = !created;
            below = Some(id);
        }
    }

    /// Sizes the side tables for `slots` PST node slots.
    fn grow(&mut self, slots: usize) {
        if self.live.len() < slots {
            self.trits.resize(slots * self.words, 0);
            self.live.resize(slots, false);
            self.cuts.resize(slots, 0);
            self.tallies.resize(slots);
        }
    }

    /// Drops a node's state — its rows stay the slot's, emptied — leaving
    /// the annotation it had in `previous`; whether it had one.
    fn take(&mut self, id: NodeId) -> bool {
        self.tallies.clear(id.index());
        self.cover.remove(&id.index());
        let had = std::mem::replace(&mut self.live[id.index()], false);
        if had {
            let old = row(&self.trits, self.words, id.index());
            self.previous.copy_from_words(old);
        }
        had
    }

    /// Counts `client`'s leaf vector (memoized on first use) into or out
    /// of leaf `id`.
    fn count_subscriber(&mut self, space: &LinkSpace, id: NodeId, client: ClientId, add: bool) {
        let leaf = self
            .leaves
            .entry(client)
            .or_insert_with(|| space.leaf_vector(client));
        if add {
            self.tallies.add(id.index(), leaf.words());
        } else {
            self.tallies.remove(id.index(), leaf.words());
        }
    }

    /// Counts the (annotated) `child` behind the value branch of `id` that
    /// accepts the domain values `accepts` holds for in.
    fn count_branch(
        &mut self,
        pst: &Pst,
        node: &NodeRef<'_>,
        id: NodeId,
        accepts: impl Fn(&Value) -> bool,
        child: NodeId,
    ) {
        debug_assert!(self.live[child.index()], "children are annotated first");
        let says = row(&self.trits, self.words, child.index());
        self.tallies.add(id.index(), says);
        self.cover_adjust(pst, node, id, accepts, true);
    }

    /// Counts a value branch accepting exactly the domain values `accepts`
    /// holds for into or out of `id`'s domain cover. Attributes without a
    /// declared domain keep no cover.
    fn cover_adjust(
        &mut self,
        pst: &Pst,
        node: &NodeRef<'_>,
        id: NodeId,
        accepts: impl Fn(&Value) -> bool,
        add: bool,
    ) {
        let Some(domain) = domain_of(pst, node) else {
            return;
        };
        let counts = self
            .cover
            .entry(id.index())
            .or_insert_with(|| vec![0; domain.len()]);
        for (count, value) in counts.iter_mut().zip(domain) {
            if accepts(value) {
                *count = if add { *count + 1 } else { *count - 1 };
            }
        }
    }

    /// Whether a node's value branches cover every value of the tested
    /// attribute's (finite) domain. Attributes without declared domains are
    /// never exhaustive.
    fn branches_exhaust_domain(&self, pst: &Pst, node: &NodeRef<'_>, id: NodeId) -> bool {
        match (domain_of(pst, node), self.cover.get(&id.index())) {
            (None, _) => false,
            (Some(domain), None) => domain.is_empty(),
            (Some(_), Some(counts)) => counts.iter().all(|&n| n > 0),
        }
    }

    /// §3.1: reads `id`'s annotation off its tallies — leaves get `Yes` per
    /// link reaching one of their subscribers, tails `Maybe` instead if a
    /// test of their chain can fail (and note the last that can, their
    /// [`cut`](Self::cut)); interior nodes combine
    /// children with *Alternative Combine* (value branches, plus an
    /// implicit all-`No` alternative when the branches do not exhaust the
    /// attribute's domain) and *Parallel Combine* (the `*` branch). Leaves
    /// the node's former annotation in `previous` and returns whether the
    /// new one differs.
    fn derive(&mut self, pst: &Pst, node: &NodeRef<'_>, id: NodeId) -> bool {
        let mut cut = 0;
        if node.is_leaf() {
            self.tallies.parallel_into(id.index(), &mut self.next);
            let last = node
                .residual()
                .rposition(|(attr, test)| can_fail(pst, attr, test));
            if let Some(last) = last {
                cut = last as u16 + 1;
                self.next.yes_to_maybe_in_place();
            }
        } else {
            let branches = node.eq_edges().len() + node.range_edges().len();
            let implicit = usize::from(!self.branches_exhaust_domain(pst, node, id));
            let total = branches + implicit;
            self.tallies
                .alternative_into(id.index(), total, &mut self.next);
            if let Some(star) = node.star() {
                debug_assert!(self.live[star.index()], "children are annotated first");
                let says = row(&self.trits, self.words, star.index());
                self.next.parallel_words_in_place(says);
            }
        }
        self.cuts[id.index()] = cut;
        let words = self.words;
        let current = &mut self.trits[id.index() * words..(id.index() + 1) * words];
        let was_live = std::mem::replace(&mut self.live[id.index()], true);
        let changed = !was_live || *current != *self.next.words();
        if was_live {
            self.previous.copy_from_words(current);
        }
        current.copy_from_slice(self.next.words());
        changed
    }
}

/// The label of the value branch leaving tree level `level` on the way down
/// to leaf or tail `end`: the test the subscriptions parked there put at
/// that level. `None` if it is a `*` branch.
fn value_label(pst: &Pst, end: NodeId, level: usize) -> Option<&AttrTest> {
    let tests = pst.slot_tests(pst.node(end).residual_slot()?);
    let test = tests.get(*pst.order().get(level)?)?;
    (!test.is_wildcard()).then_some(test)
}

/// The finite domain of the attribute `node` tests, if it declares one.
fn domain_of<'a>(pst: &'a Pst, node: &NodeRef<'_>) -> Option<&'a [Value]> {
    pst.schema().attribute(node.attribute()?)?.domain()
}

/// Whether a node whose one edge tests `attr` by `test` turns some events
/// away — so that its annotation is its child's with every `Yes` demoted to
/// `Maybe`, by the implicit all-`No` alternative: neither `*` nor a test
/// every value of the attribute's declared finite domain passes.
pub(crate) fn can_fail(pst: &Pst, attr: usize, test: &AttrTest) -> bool {
    if test.is_wildcard() {
        return false;
    }
    let domain = pst.schema().attribute(attr).and_then(|a| a.domain());
    !domain.is_some_and(|values| values.iter().all(|v| test.matches(v)))
}
