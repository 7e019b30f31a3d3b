//! PST insertion and removal.

use linkcast_types::{AttrTest, Subscription, SubscriptionId, Value};

use super::{FactorKey, MutationReport, NodeId, PathNodes, PathReport, Pst};
use crate::MatcherError;

impl Pst {
    /// Inserts a subscription, reporting the tree paths it created or
    /// extended (one per factored subtree it was replicated into).
    ///
    /// # Errors
    ///
    /// [`MatcherError::DuplicateSubscription`] or
    /// [`MatcherError::SchemaMismatch`].
    pub fn insert_reported(
        &mut self,
        subscription: Subscription,
    ) -> Result<MutationReport, MatcherError> {
        if subscription.predicate().tests().len() != self.schema.arity() {
            return Err(MatcherError::SchemaMismatch {
                expected: self.schema.arity(),
                actual: subscription.predicate().tests().len(),
            });
        }
        let id = subscription.id();
        if self.subscriptions.slot_of(id).is_some() {
            return Err(MatcherError::DuplicateSubscription(id));
        }

        // Where the subscription will live once its paths are in.
        let slot = self.subscriptions.vacant();
        let mut report = MutationReport::default();
        for key in self.factor_keys(&subscription) {
            let path = self.insert_path(key, &subscription, slot);
            self.recompute_skips(&path.nodes);
            report.push(path);
        }
        let filled = self.subscriptions.insert(subscription);
        debug_assert_eq!(filled, slot, "nothing else touches the slab meanwhile");
        Ok(report)
    }

    /// Removes a subscription, reporting the surviving prefixes of its tree
    /// paths and the nodes pruned away. Returns `None` if the id was not
    /// registered.
    pub fn remove_reported(&mut self, id: SubscriptionId) -> Option<MutationReport> {
        let (slot, subscription) = self.subscriptions.remove(id)?;
        let mut report = MutationReport::default();
        for key in self.factor_keys(&subscription) {
            let path = self.remove_path(key, &subscription, slot);
            self.recompute_skips(&path.nodes);
            report.push(path);
        }
        Some(report)
    }

    /// The factor keys a subscription must be inserted under: the cartesian
    /// product of, per factored attribute, the domain values its test
    /// accepts (`*` replicates across the whole domain, per §2.1.1). An
    /// unfactored tree has the one empty key, which costs no allocation.
    fn factor_keys(&self, subscription: &Subscription) -> impl Iterator<Item = FactorKey> {
        let unfactored = self.factored.is_empty();
        let mut keys: Vec<Vec<Value>> = if unfactored {
            Vec::new()
        } else {
            vec![Vec::with_capacity(self.factored.len())]
        };
        for &attr in &self.factored {
            let test = &subscription.predicate().tests()[attr];
            let candidates: Vec<Value> = match test {
                AttrTest::Eq(v) => vec![v.clone()],
                test => {
                    let domain = self
                        .schema
                        .attribute(attr)
                        .and_then(|a| a.domain())
                        .expect("factored attributes have domains (checked at construction)");
                    domain.iter().filter(|v| test.matches(v)).cloned().collect()
                }
            };
            let mut next = Vec::with_capacity(keys.len() * candidates.len());
            for key in &keys {
                for value in &candidates {
                    let mut k = key.clone();
                    k.push(value.clone());
                    next.push(k);
                }
            }
            keys = next;
        }
        let empty = unfactored.then(FactorKey::default);
        empty.into_iter().chain(keys.into_iter().map(Into::into))
    }

    /// The label `subscription` puts on the edge leaving a node at `level`.
    fn test_at<'a>(&self, subscription: &'a Subscription, level: usize) -> &'a AttrTest {
        &subscription.predicate().tests()[self.order[level]]
    }

    /// Routes `subscription` into the subtree `key`: down the edges that
    /// exist, and where the next one is missing onto one fresh tail hung
    /// there. Reaching a tail (or leaf) whose chain spells the same tests
    /// parks it beside the subscriptions already there; reaching one that
    /// differs bursts it first.
    fn insert_path(
        &mut self,
        key: FactorKey,
        subscription: &Subscription,
        slot: u32,
    ) -> PathReport {
        let mut nodes = PathNodes::default();
        let mut created = None;
        let mut burst = None;
        let mut current = match self.roots.get(&key) {
            Some(&r) => r,
            None => {
                let r = self.alloc(0);
                self.roots.insert(key.clone(), r);
                created = Some(0);
                r
            }
        };
        nodes.push(current);
        while created.is_none() {
            let level = nodes.len() - 1;
            let node = self.node_inner(current);
            if node.is_terminal() {
                let tests = subscription.predicate().tests();
                let mut chain = self.residual(node).enumerate();
                let parts_ways = chain.find(|(_, (attr, test))| tests[*attr] != **test);
                let Some((shared, older)) = parts_ways.map(|(at, (_, test))| (at, test.clone()))
                else {
                    break;
                };
                drop(chain);
                let (tail, parked) = self.burst(
                    current,
                    shared,
                    older,
                    subscription,
                    &mut nodes,
                    &mut created,
                );
                burst = Some(parked);
                current = tail;
                break;
            }
            let test = self.test_at(subscription, level);
            current = match node.child_for(test) {
                Some(c) => c,
                None => {
                    let c = self.alloc((level + 1) as u16);
                    self.node_mut(current).attach(test.clone(), c);
                    created = Some(nodes.len());
                    c
                }
            };
            nodes.push(current);
        }
        self.node_mut(current).subs.insert(subscription.id(), slot);
        PathReport {
            key,
            created: created.unwrap_or(nodes.len()),
            nodes,
            burst,
            freed: Vec::new(),
            removed: None,
        }
    }

    /// Bursts `tail`, the last of `nodes`, whose chain `subscription`
    /// follows for `shared` levels and then leaves: those levels become
    /// real single-edge nodes (appended to `nodes`), and the last of them
    /// forks — first the chain's own edge `older`, to a node that takes
    /// the tail's subscriptions over, then the newcomer's, to a fresh tail
    /// (appended too, and returned with the first). Every edge the tail's
    /// chain stood for keeps its place before the newcomer's, as if the
    /// chain had been real all along.
    fn burst(
        &mut self,
        tail: NodeId,
        shared: usize,
        older: AttrTest,
        subscription: &Subscription,
        nodes: &mut PathNodes,
        created: &mut Option<usize>,
    ) -> (NodeId, NodeId) {
        let parked_subs = std::mem::take(&mut self.node_mut(tail).subs);
        let mut fork = tail;
        for _ in 0..shared {
            let level = nodes.len() - 1;
            let below = self.alloc((level + 1) as u16);
            let test = self.test_at(subscription, level).clone();
            self.node_mut(fork).attach(test, below);
            created.get_or_insert(nodes.len());
            nodes.push(below);
            fork = below;
        }
        let level = nodes.len() - 1;
        let parked = self.alloc((level + 1) as u16);
        self.node_mut(parked).subs = parked_subs;
        self.node_mut(fork).attach(older, parked);
        let newcomer = self.alloc((level + 1) as u16);
        let test = self.test_at(subscription, level).clone();
        self.node_mut(fork).attach(test, newcomer);
        created.get_or_insert(nodes.len());
        nodes.push(newcomer);
        (newcomer, parked)
    }

    /// Removes `subscription` from the leaf or tail its predicate leads to
    /// in subtree `key`, pruning nodes left with no children and no
    /// subscriptions. A chain an insert made real is left real.
    fn remove_path(
        &mut self,
        key: FactorKey,
        subscription: &Subscription,
        slot: u32,
    ) -> PathReport {
        let mut report = PathReport {
            key,
            nodes: PathNodes::default(),
            created: 0,
            burst: None,
            freed: Vec::new(),
            removed: None,
        };
        let Some(&root) = self.roots.get(&report.key) else {
            return report;
        };
        let mut nodes = PathNodes::default();
        nodes.push(root);
        let mut current = root;
        while !self.node_inner(current).is_terminal() {
            let test = self.test_at(subscription, nodes.len() - 1);
            let Some(next) = self.node_inner(current).child_for(test) else {
                // The subscription was never materialized under this key
                // (defensive; insert and remove use the same key derivation).
                return report;
            };
            nodes.push(next);
            current = next;
        }
        // Split borrow: the node is rewritten, the slab only read.
        let (subscriptions, node) = (&self.subscriptions, self.nodes[current.index()].as_mut());
        if let Some(node) = node {
            let still_parked = |id| subscriptions.slot_of(id);
            node.subs.remove(subscription.id(), slot, still_parked);
        }

        // Prune dead nodes bottom-up; the last edge cut is the one the
        // surviving prefix lost.
        while let Some(&last) = nodes.last() {
            if !self.node_inner(last).is_dead() {
                break;
            }
            nodes.pop();
            report.removed = match nodes.last() {
                None => {
                    self.roots.remove(&report.key);
                    Some(AttrTest::Any)
                }
                Some(&parent) => {
                    let test = self.test_at(subscription, nodes.len() - 1);
                    let detached = self.node_mut(parent).detach(test, last);
                    detached.then(|| test.clone())
                }
            };
            self.dealloc(last);
            report.freed.push(last);
        }
        report.created = nodes.len();
        report.nodes = nodes;
        report
    }

    /// Recomputes trivial-test-elimination skip pointers for the (live)
    /// nodes of `path`, bottom-up. A node whose only outgoing edge is `*`
    /// (and which parks no subscriptions) skips to the deepest node its
    /// `*`-chain reaches.
    fn recompute_skips(&mut self, path: &[NodeId]) {
        for &id in path.iter().rev() {
            let node = self.node_inner(id);
            let skip = node.is_trivial().then(|| {
                let star = node.star.expect("trivial nodes have a star child");
                self.node_inner(star).skip.unwrap_or(star)
            });
            self.node_mut(id).skip = skip;
        }
    }
}
