//! The parallel search tree (PST) of §2.
//!
//! Subscriptions are organized into a tree in which the nodes at depth *d*
//! test the *d*-th attribute (in a configurable order); branches are labeled
//! with attribute tests (values, ranges, or `*` for don't-care) and each
//! subscription corresponds to one root-to-leaf path. Matching follows all
//! satisfied branches in parallel, sharing the cost of common predicate
//! prefixes across subscriptions.
//!
//! The tree is *lazily expanded*: an inner node exists only where two
//! subscriptions must be told apart. The part of a path no other
//! subscription shares is one **tail** node, parked on which the
//! subscription stands for the whole chain of single-edge nodes down to
//! its leaf; the tests of that chain are read off the parked
//! subscription's own predicate ([`NodeRef::residual`]), through the slot
//! the subscription occupies in the tree's slab. A tail is
//! observationally the chain it abbreviates — every search charges it the
//! steps and comparisons the chain would cost — and an insert that parts
//! ways with one mid-chain makes the shared levels real first.
//!
//! The module also implements the paper's §2.1 optimizations:
//!
//! 1. **Factoring** — the leading attributes of the test order can be
//!    *factored out*: a separate subtree is kept per combination of their
//!    values, turning the first tests into a hash lookup. Subscriptions
//!    with `*` on a factored attribute are replicated into every value's
//!    subtree (space for time), which is why factored attributes must
//!    declare finite domains.
//! 2. **Trivial test elimination**, on by default — chains of nodes whose
//!    only child is a `*` branch are skipped over during matching.
//! 3. **Attribute ordering** — the heuristic that "performance seems to be
//!    better if the attributes near the root are chosen to have the fewest
//!    number of subscriptions labeled with a `*`" is available as
//!    [`OrderPolicy::FewestStarsFirst`].

mod mutate;
mod options;
mod slab;
mod traverse;

#[cfg(test)]
mod tests;

use std::collections::HashMap;

use linkcast_types::{AttrTest, Event, EventSchema, Subscription, SubscriptionId, Value};

use crate::{MatchStats, Matcher, MatcherError};

pub use options::{OrderPolicy, PstOptions};
use slab::{Parked, Slab};
pub(crate) use traverse::walk_chain;

/// Identifies a node within a [`Pst`]'s arena.
///
/// Node ids are stable across unrelated mutations, which lets the
/// link-matching layer keep per-node annotations in a side table keyed by
/// `NodeId`. Ids of removed nodes may be reused by later insertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index, for indexing side tables sized by
    /// [`Pst::arena_size`].
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Position in the test order; `order.len()` marks a leaf.
    pub(crate) level: u16,
    /// Equality branches, sorted by value for binary search.
    pub(crate) eq_edges: Vec<(Value, NodeId)>,
    /// Non-equality (range) branches, sorted by [`AttrTest::range_cmp`]
    /// for binary search: by label, and by value ([`RangeLookup`](linkcast_types::RangeLookup)).
    pub(crate) range_edges: Vec<(AttrTest, NodeId)>,
    /// The `*` (don't-care) branch.
    pub(crate) star: Option<NodeId>,
    /// Subscriptions parked here (none on interior nodes). A node that
    /// parks subscriptions has no edges: it is a leaf, or above leaf level
    /// a tail, and the subscriptions on one tail agree on every test from
    /// its level down.
    pub(crate) subs: Parked,
    /// Trivial-test-elimination shortcut: set on nodes whose only outgoing
    /// edge is `*` (and which hold no subscriptions) to the deepest node
    /// the whole `*`-chain leads to.
    pub(crate) skip: Option<NodeId>,
}

impl Node {
    fn new(level: u16) -> Self {
        Node {
            level,
            eq_edges: Vec::new(),
            range_edges: Vec::new(),
            star: None,
            subs: Parked::default(),
            skip: None,
        }
    }

    /// Where `value` is, or would go, among the sorted equality edges.
    fn eq_position(&self, value: &Value) -> Result<usize, usize> {
        self.eq_edges.binary_search_by(|(v, _)| v.cmp(value))
    }

    /// Where `test` is, or would go, among the sorted range edges.
    fn range_position(&self, test: &AttrTest) -> Result<usize, usize> {
        self.range_edges
            .binary_search_by(|(t, _)| t.range_cmp(test))
    }

    /// The child the branch labeled `test` leads to, if that branch exists.
    pub(crate) fn child_for(&self, test: &AttrTest) -> Option<NodeId> {
        match test {
            AttrTest::Any => self.star,
            AttrTest::Eq(value) => self.eq_position(value).ok().map(|i| self.eq_edges[i].1),
            test => self
                .range_position(test)
                .ok()
                .map(|i| self.range_edges[i].1),
        }
    }

    /// Adds a branch labeled `test` (which must not exist yet) to `child`.
    pub(crate) fn attach(&mut self, test: AttrTest, child: NodeId) {
        match test {
            AttrTest::Any => self.star = Some(child),
            AttrTest::Eq(value) => {
                let at = self.eq_position(&value).unwrap_or_else(|at| at);
                self.eq_edges.insert(at, (value, child));
            }
            test => {
                let at = self.range_position(&test).unwrap_or_else(|at| at);
                self.range_edges.insert(at, (test, child));
            }
        }
    }

    /// Removes the branch labeled `test` leading to `child`, keeping the
    /// order of the remaining ones; whether there was one.
    pub(crate) fn detach(&mut self, test: &AttrTest, child: NodeId) -> bool {
        match test {
            AttrTest::Any => self.star.take_if(|star| *star == child).is_some(),
            AttrTest::Eq(value) => (self.eq_position(value))
                .map(|at| self.eq_edges.remove(at))
                .is_ok(),
            test => (self.range_position(test))
                .map(|at| self.range_edges.remove(at))
                .is_ok(),
        }
    }

    /// Whether subscriptions are parked here (a leaf or a tail).
    pub(crate) fn is_terminal(&self) -> bool {
        !self.subs.is_empty()
    }

    pub(crate) fn is_trivial(&self) -> bool {
        self.eq_edges.is_empty()
            && self.range_edges.is_empty()
            && self.star.is_some()
            && self.subs.is_empty()
    }

    fn is_dead(&self) -> bool {
        self.eq_edges.is_empty()
            && self.range_edges.is_empty()
            && self.star.is_none()
            && self.subs.is_empty()
    }
}

/// Key of a factored subtree: the values of the factored attributes, in
/// factoring order.
pub(crate) type FactorKey = Box<[Value]>;

/// The parallel search tree matcher.
///
/// See the crate-level documentation for the structure, and
/// [`PstOptions`] for the available optimizations. The read-only node
/// accessors ([`Pst::roots`], [`Pst::node`]) exist so the link-matching
/// layer can annotate the tree without owning it.
#[derive(Debug, Clone)]
pub struct Pst {
    schema: EventSchema,
    options: PstOptions,
    /// Attribute indices tested at each tree level (factored attributes
    /// excluded).
    order: Vec<usize>,
    /// Attribute indices handled by factor-key lookup, in key order.
    factored: Vec<usize>,
    roots: HashMap<FactorKey, NodeId>,
    nodes: Vec<Option<Node>>,
    free: Vec<u32>,
    subscriptions: Slab,
}

/// What one insert or remove did along one root-to-leaf path.
///
/// A mutation changes the *logical* tree — the one with every tail spelled
/// out as its chain — in at most one place per path: an insert hangs one
/// fresh tail below the deepest node that already existed, a remove prunes
/// one (and the single-edge nodes left childless above it). Everything
/// else it can change — annotations, skip pointers — lives on the path
/// above. An insert that parts ways with an existing tail mid-chain first
/// makes the shared levels of that chain real nodes ([`burst`](Self::burst)), which
/// changes which nodes exist but not the logical tree.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// Key of the factored subtree the path is in.
    pub key: Box<[Value]>,
    /// Insert: the path from the root to the node the subscription is
    /// parked on. Remove: the prefix that survived. Re-annotating exactly
    /// these nodes, bottom-up, restores annotation consistency. The edge
    /// from `nodes[i]` to `nodes[i + 1]` is labeled with the subscription's
    /// test at level `i`.
    pub nodes: PathNodes,
    /// Index into `nodes` of the first node the insert created; every node
    /// after it is new too. `nodes.len()` when nothing was created.
    pub created: usize,
    /// Insert: set when `nodes[created - 1]` was a tail the newcomer
    /// parted ways with, to the node that took its subscriptions over.
    /// The levels of the tail's chain the newcomer shares are now the real
    /// nodes `nodes[created - 1..nodes.len() - 1]`; the last of them forks,
    /// its older edge leading to this node (a shorter tail, or a leaf), its
    /// newer one to the newcomer's own tail `nodes[nodes.len() - 1]`. Only
    /// that last node is new to the logical tree.
    pub burst: Option<NodeId>,
    /// Nodes the remove pruned, leaf first; side tables should drop their
    /// entries.
    pub freed: Vec<NodeId>,
    /// Remove: the label of the edge that led from the last surviving node
    /// to the pruned chain (`*` when nothing survived: the root went).
    pub removed: Option<AttrTest>,
}

/// The nodes of a reported path, root first: a slice of [`NodeId`]s that
/// lives inside the report while the path is no longer than most trees are
/// deep, so reporting one costs no allocation.
#[derive(Debug, Clone, Default)]
pub struct PathNodes {
    len: usize,
    inline: [NodeId; PathNodes::INLINE],
    /// Every node of a path too long for `inline`; empty otherwise.
    spill: Vec<NodeId>,
}

impl PathNodes {
    const INLINE: usize = 12;

    pub(crate) fn push(&mut self, id: NodeId) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = id,
            None => {
                if self.spill.is_empty() {
                    self.spill.extend_from_slice(&self.inline);
                }
                self.spill.push(id);
            }
        }
        self.len += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<NodeId> {
        let last = self.last().copied()?;
        self.len -= 1;
        // `inline` still holds the first nodes of a path that spilled.
        if self.len <= Self::INLINE {
            self.spill.clear();
        } else {
            self.spill.pop();
        }
        Some(last)
    }
}

impl std::ops::Deref for PathNodes {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        if self.len <= Self::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Side effects of an insert or remove, for callers (the link-matching
/// annotator and arena) that maintain per-node state: one [`PathReport`]
/// per factored subtree the subscription touches.
#[derive(Debug, Clone, Default)]
pub struct MutationReport {
    paths: Paths,
}

/// One path — every mutation of an unfactored tree — is kept in the report
/// itself.
#[derive(Debug, Clone, Default)]
#[allow(
    clippy::large_enum_variant,
    reason = "boxing the one path to even the variants out is the allocation this saves"
)]
enum Paths {
    #[default]
    None,
    One(PathReport),
    Many(Vec<PathReport>),
}

impl MutationReport {
    /// The touched paths.
    pub fn paths(&self) -> &[PathReport] {
        match &self.paths {
            Paths::None => &[],
            Paths::One(path) => std::slice::from_ref(path),
            Paths::Many(paths) => paths,
        }
    }

    pub(crate) fn push(&mut self, path: PathReport) {
        self.paths = match std::mem::take(&mut self.paths) {
            Paths::None => Paths::One(path),
            Paths::One(first) => Paths::Many(vec![first, path]),
            Paths::Many(mut paths) => {
                paths.push(path);
                Paths::Many(paths)
            }
        };
    }
}

impl Pst {
    /// Creates an empty tree for `schema` with the given options.
    ///
    /// # Errors
    ///
    /// [`MatcherError::InvalidOptions`] if the options are inconsistent with
    /// the schema (bad explicit order, factoring beyond arity, factoring an
    /// attribute without a declared domain).
    pub fn new(schema: EventSchema, options: PstOptions) -> Result<Self, MatcherError> {
        let full_order = options.resolve_order(&schema, None)?;
        Self::with_order(schema, options, full_order)
    }

    /// Builds a tree from an initial subscription set. With
    /// [`OrderPolicy::FewestStarsFirst`], the attribute order is derived
    /// from this set's don't-care statistics. The set goes in sorted level
    /// by level by [`AttrTest::range_cmp`], the order edge lists are kept
    /// in, so every insert appends to the list it extends.
    ///
    /// # Errors
    ///
    /// Any error from [`Pst::new`] or from inserting a subscription.
    pub fn build(
        schema: EventSchema,
        subscriptions: impl IntoIterator<Item = Subscription>,
        options: PstOptions,
    ) -> Result<Self, MatcherError> {
        let mut subs: Vec<Subscription> = subscriptions.into_iter().collect();
        let full_order = options.resolve_order(&schema, Some(&subs))?;
        subs.sort_by(|a, b| {
            let (a, b) = (a.predicate(), b.predicate());
            let mut levels = full_order.iter().map(|&i| match (a.test(i), b.test(i)) {
                (Some(x), Some(y)) => x.range_cmp(y),
                (x, y) => x.is_some().cmp(&y.is_some()),
            });
            levels
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut pst = Self::with_order(schema, options, full_order)?;
        for sub in subs {
            pst.insert(sub)?;
        }
        Ok(pst)
    }

    fn with_order(
        schema: EventSchema,
        options: PstOptions,
        full_order: Vec<usize>,
    ) -> Result<Self, MatcherError> {
        let factoring = options.factoring;
        let factored: Vec<usize> = full_order[..factoring].to_vec();
        let order: Vec<usize> = full_order[factoring..].to_vec();
        for &attr in &factored {
            if schema.attribute(attr).and_then(|a| a.domain()).is_none() {
                return Err(MatcherError::InvalidOptions(format!(
                    "attribute `{}` is factored but declares no finite domain",
                    schema
                        .attribute(attr)
                        .map(|a| a.name().to_string())
                        .unwrap_or_else(|| attr.to_string())
                )));
            }
        }
        Ok(Pst {
            schema,
            options,
            order,
            factored,
            roots: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            subscriptions: Slab::default(),
        })
    }

    /// The schema this tree serves.
    pub fn schema(&self) -> &EventSchema {
        &self.schema
    }

    /// The options the tree was built with.
    #[inline]
    pub fn options(&self) -> &PstOptions {
        &self.options
    }

    /// Attribute indices tested at each level, root to leaf (factored
    /// attributes excluded).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Attribute indices handled by factor-key lookup.
    pub fn factored(&self) -> &[usize] {
        &self.factored
    }

    /// Tree depth: number of levels below each factored root (equal to
    /// `order().len()`; leaves proper live at this level, tails above it).
    pub fn depth(&self) -> usize {
        self.order.len()
    }

    /// Upper bound (exclusive) of raw node indices ever allocated; side
    /// tables indexed by [`NodeId::index`] should have this length.
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes. Not a function of the subscription set
    /// alone: a chain an insert made real stays real when the subscription
    /// it parted ways with is removed, so two histories leading to the
    /// same set may hold the same unshared suffix as one tail or as the
    /// nodes it abbreviates. [`expanded_node_count`] is history
    /// independent.
    ///
    /// [`expanded_node_count`]: Self::expanded_node_count
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of nodes of the logical tree: every live node, plus the
    /// chain below every tail.
    pub fn expanded_node_count(&self) -> usize {
        let chain = |n: &Node| 1 + self.depth().saturating_sub(n.level as usize);
        let nodes = self.nodes.iter().flatten();
        nodes
            .map(|n| if n.subs.is_empty() { 1 } else { chain(n) })
            .sum()
    }

    /// Iterates over the factored subtree roots and their keys. With
    /// `factoring = 0` there is at most one root, under the empty key.
    pub fn roots(&self) -> impl Iterator<Item = (&[Value], NodeId)> {
        self.roots.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// A read-only view of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live node.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        self.try_node(id)
            .unwrap_or_else(|| panic!("node {id} is not live"))
    }

    /// A read-only view of a node; `None` if `id` does not refer to a live
    /// node.
    #[inline]
    pub fn try_node(&self, id: NodeId) -> Option<NodeRef<'_>> {
        let node = self.nodes.get(id.index())?.as_ref()?;
        Some(NodeRef { pst: self, node })
    }

    pub(crate) fn node_inner(&self, id: NodeId) -> &Node {
        self.nodes[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("node {id} is not live"))
    }

    /// The chain `node` abbreviates, as `(attribute, test)` per level from
    /// its own down to the last; nothing for interior nodes and leaves
    /// proper. Read off one parked subscription, through the slot the node
    /// remembers: all of them agree.
    pub(crate) fn residual<'a>(
        &'a self,
        node: &Node,
    ) -> impl DoubleEndedIterator<Item = (usize, &'a AttrTest)> + ExactSizeIterator + Clone + 'a
    {
        let tests = self.slot_tests(node.subs.slot());
        let from = if tests.is_empty() {
            self.order.len()
        } else {
            (node.level as usize).min(self.order.len())
        };
        self.order[from..]
            .iter()
            .map(move |&attr| (attr, &tests[attr]))
    }

    /// The tests, by schema attribute, of the subscription in slab slot
    /// `slot` ([`NodeRef::residual_slot`]); none for a vacant slot.
    pub fn slot_tests(&self, slot: u32) -> &[AttrTest] {
        let parked = self.subscriptions.at(slot);
        parked.map_or(&[], |s| s.predicate().tests())
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {id} is not live"))
    }

    fn alloc(&mut self, level: u16) -> NodeId {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Some(Node::new(level));
            NodeId(idx)
        } else {
            self.nodes.push(Some(Node::new(level)));
            NodeId((self.nodes.len() - 1) as u32)
        }
    }

    fn dealloc(&mut self, id: NodeId) {
        debug_assert!(self.nodes[id.index()].is_some(), "double free of {id}");
        self.nodes[id.index()] = None;
        self.free.push(id.0);
    }

    /// All live node ids in post-order (children before parents), across
    /// all factored subtrees — the order in which a full re-annotation must
    /// visit nodes.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut stack: Vec<(NodeId, bool)> = self.roots.values().map(|r| (*r, false)).collect();
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                out.push(id);
                continue;
            }
            stack.push((id, true));
            let node = self.node_inner(id);
            for (_, child) in &node.eq_edges {
                stack.push((*child, false));
            }
            for (_, child) in &node.range_edges {
                stack.push((*child, false));
            }
            if let Some(star) = node.star {
                stack.push((star, false));
            }
        }
        out
    }

    /// The root of the subtree an event's factored values select, if any.
    pub fn root_for_event(&self, event: &Event) -> Option<NodeId> {
        if self.factored.is_empty() {
            return self.roots.get(&[] as &[Value]).copied();
        }
        let key: FactorKey = self
            .factored
            .iter()
            .map(|&attr| event.values()[attr].clone())
            .collect();
        self.roots.get(&key).copied()
    }

    /// Iterates over all registered subscriptions, in slab order: that of
    /// their insertion while none has been removed.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subscriptions.iter()
    }
}

impl Matcher for Pst {
    fn insert(&mut self, subscription: Subscription) -> Result<(), MatcherError> {
        self.insert_reported(subscription).map(|_| ())
    }

    fn remove(&mut self, id: SubscriptionId) -> bool {
        self.remove_reported(id).is_some()
    }

    fn matches_with_stats(&self, event: &Event, stats: &mut MatchStats) -> Vec<SubscriptionId> {
        self.match_collect(event, stats)
    }

    fn len(&self) -> usize {
        self.subscriptions.len()
    }

    fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subscriptions.get(id)
    }
}

/// Read-only view of a PST node, used by the link-matching annotator and
/// match-time search.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    pst: &'a Pst,
    node: &'a Node,
}

impl<'a> NodeRef<'a> {
    /// The tree level of this node (see [`Pst::order`]); leaves proper are
    /// at [`Pst::depth`].
    pub fn level(&self) -> usize {
        self.node.level as usize
    }

    /// Whether subscriptions are parked on this node: it is a leaf proper,
    /// or a tail standing for the chain down to one. Such a node has no
    /// edges.
    pub fn is_leaf(&self) -> bool {
        self.node.is_terminal()
    }

    /// Whether this node is a tail: it parks subscriptions above leaf
    /// level, in place of the chain of single-edge nodes
    /// [`residual`](Self::residual) spells out.
    pub fn is_tail(&self) -> bool {
        self.node.is_terminal() && self.level() < self.pst.depth()
    }

    /// The chain a tail abbreviates: per level from this node's own down
    /// to the last, the schema attribute tested there and the test on the
    /// chain's one edge. Empty for interior nodes and leaves proper.
    pub fn residual(
        &self,
    ) -> impl DoubleEndedIterator<Item = (usize, &'a AttrTest)> + ExactSizeIterator + Clone + 'a
    {
        self.pst.residual(self.node)
    }

    /// The schema attribute tested at this node — for a tail, by the first
    /// node of its chain; `None` for a leaf proper.
    pub fn attribute(&self) -> Option<usize> {
        self.pst.order.get(self.level()).copied()
    }

    /// Equality branches (value label, child), sorted by value.
    #[inline]
    pub fn eq_edges(&self) -> &'a [(Value, NodeId)] {
        &self.node.eq_edges
    }

    /// Range branches (test label, child), sorted by
    /// [`AttrTest::range_cmp`].
    #[inline]
    pub fn range_edges(&self) -> &'a [(AttrTest, NodeId)] {
        &self.node.range_edges
    }

    /// The `*` branch, if present.
    #[inline]
    pub fn star(&self) -> Option<NodeId> {
        self.node.star
    }

    /// Child reached by the equality branch labeled `value`, if any.
    pub fn eq_child(&self, value: &Value) -> Option<NodeId> {
        self.node
            .eq_edges
            .binary_search_by(|(v, _)| v.cmp(value))
            .ok()
            .map(|i| self.node.eq_edges[i].1)
    }

    /// Subscriptions parked on this leaf or tail (empty for interior
    /// nodes).
    pub fn subscription_ids(&self) -> &'a [SubscriptionId] {
        self.node.subs.as_slice()
    }

    /// The slab slot [`residual`](Self::residual) reads the chain's tests
    /// through ([`Pst::slot_tests`]): that of one parked subscription.
    /// `None` for interior nodes. A mirror of the tree may keep it in place
    /// of the chain; it is good until a subscription is parked on or taken
    /// off this node.
    pub fn residual_slot(&self) -> Option<u32> {
        (!self.node.subs.is_empty()).then(|| self.node.subs.slot())
    }

    /// The trivial-test-elimination skip target, if one is set: the deepest
    /// node a search entering this node can jump to without changing the
    /// outcome. Consumers flattening the tree resolve edges through this.
    #[inline]
    pub fn skip(&self) -> Option<NodeId> {
        self.node.skip
    }

    /// All children: equality, range, then `*`.
    pub fn children(&self) -> impl Iterator<Item = NodeId> + 'a {
        let node = self.node;
        node.eq_edges
            .iter()
            .map(|(_, c)| *c)
            .chain(node.range_edges.iter().map(|(_, c)| *c))
            .chain(node.star)
    }
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("level", &self.node.level)
            .field("eq_edges", &self.node.eq_edges.len())
            .field("range_edges", &self.node.range_edges.len())
            .field("star", &self.node.star.is_some())
            .field("subs", &self.node.subs.as_slice())
            .finish()
    }
}

impl Pst {
    /// Verifies the tree's structural invariants, returning a description
    /// of the first violation found. Used by the property-test suites;
    /// `O(nodes)`.
    ///
    /// Checked invariants:
    /// 1. equality edges are sorted by value and duplicate-free;
    /// 2. every child's level is its parent's level + 1;
    /// 3. subscriptions appear only on nodes without edges (leaves and
    ///    tails), sorted and duplicate-free, every listed id is registered,
    ///    those sharing a tail agree on every test from its level down,
    ///    and the slab slot the tail reads its chain through holds one of
    ///    them;
    /// 4. no node is dead (childless, subscription-less) — mutation prunes
    ///    them;
    /// 5. skip pointers are set exactly on trivial nodes and point to the
    ///    end of their `*`-chain;
    /// 6. every live arena slot is reachable from exactly one parent (the
    ///    structure is a forest of trees, not a DAG);
    /// 7. range edges are sorted by [`AttrTest::range_cmp`] and
    ///    duplicate-free.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = vec![0u32; self.nodes.len()];
        for (_, root) in self.roots() {
            seen[root.index()] += 1;
        }
        let order = self.postorder();
        for &id in &order {
            let node = self.node_inner(id);
            // (1), (7) sorted, unique labels.
            let eq_sorted = node.eq_edges.windows(2).all(|p| p[0].0 < p[1].0);
            let range_sorted =
                (node.range_edges.windows(2)).all(|p| p[0].0.range_cmp(&p[1].0).is_lt());
            if !eq_sorted || !range_sorted {
                return Err(format!("{id}: edges out of order"));
            }
            // (2) level discipline; count parents.
            for child in self.node(id).children() {
                let child_level = self.node_inner(child).level;
                if child_level != node.level + 1 {
                    return Err(format!(
                        "{id} (level {}) has child {child} at level {child_level}",
                        node.level
                    ));
                }
                seen[child.index()] += 1;
            }
            // (3) subscriptions only where the tree ends.
            if node.is_terminal() && self.node(id).children().next().is_some() {
                return Err(format!("interior node {id} holds subscriptions"));
            }
            if node.level as usize == self.depth() && !node.is_terminal() {
                return Err(format!("leaf {id} holds no subscription"));
            }
            for pair in node.subs.as_slice().windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("{id}: parked subscriptions out of order"));
                }
            }
            let through = self.subscriptions.at(node.subs.slot());
            let parked = |s: &Subscription| node.subs.as_slice().contains(&s.id());
            if node.is_terminal() && !through.is_some_and(parked) {
                return Err(format!(
                    "{id} reads its chain through a slot none of its subscriptions is in"
                ));
            }
            for sub in node.subs.as_slice() {
                let Some(parked) = self.subscriptions.get(*sub) else {
                    return Err(format!("{id} lists unregistered subscription {sub}"));
                };
                let tests = parked.predicate().tests();
                if self.residual(node).any(|(attr, test)| tests[attr] != *test) {
                    return Err(format!("{id}: {sub} disagrees with the tail's chain"));
                }
            }
            // (4) no dead nodes.
            if node.is_dead() {
                return Err(format!("dead node {id} was not pruned"));
            }
            // (5) skip pointers.
            match (node.is_trivial(), node.skip) {
                (false, Some(target)) => {
                    return Err(format!("non-trivial {id} has skip -> {target}"))
                }
                (true, None) => return Err(format!("trivial node {id} lacks a skip")),
                (true, Some(target)) => {
                    let star = node.star.expect("trivial nodes have a star child");
                    let expect = self.node_inner(star).skip.unwrap_or(star);
                    if target != expect {
                        return Err(format!("{id} skips to {target}, expected {expect}"));
                    }
                }
                (false, None) => {}
            }
        }
        // (6) single-parent reachability over live slots.
        for (idx, slot) in self.nodes.iter().enumerate() {
            let count = seen[idx];
            if slot.is_some() && count != 1 {
                return Err(format!("node n{idx} has {count} parents/roots"));
            }
            if slot.is_none() && count != 0 {
                return Err(format!("freed slot n{idx} is still referenced"));
            }
        }
        Ok(())
    }
}

/// A structural summary of a [`Pst`], for debugging and capacity planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PstSummary {
    /// Live nodes.
    pub nodes: usize,
    /// Nodes that park subscriptions: leaves proper and tails.
    pub leaves: usize,
    /// Registered subscriptions.
    pub subscriptions: usize,
    /// Leaf entries across the tree (≥ `subscriptions` under factoring,
    /// which replicates; ≤ when identical predicates share a leaf).
    pub leaf_entries: usize,
    /// Equality branches.
    pub eq_edges: usize,
    /// Range branches.
    pub range_edges: usize,
    /// `*` branches.
    pub star_edges: usize,
    /// Live nodes a trivial-test-elimination skip bypasses (the `*`
    /// levels inside a tail's chain are not nodes).
    pub trivial_nodes: usize,
    /// Factored subtrees (1 when factoring is off and the tree is
    /// non-empty).
    pub subtrees: usize,
}

impl Pst {
    /// Computes a structural summary in one arena pass.
    pub fn summary(&self) -> PstSummary {
        let mut s = PstSummary {
            subscriptions: self.subscriptions.len(),
            subtrees: self.roots.len(),
            ..PstSummary::default()
        };
        for slot in self.nodes.iter().flatten() {
            s.nodes += 1;
            if slot.is_terminal() {
                s.leaves += 1;
                s.leaf_entries += slot.subs.as_slice().len();
            }
            s.eq_edges += slot.eq_edges.len();
            s.range_edges += slot.range_edges.len();
            s.star_edges += usize::from(slot.star.is_some());
            s.trivial_nodes += usize::from(slot.is_trivial());
        }
        s
    }
}
