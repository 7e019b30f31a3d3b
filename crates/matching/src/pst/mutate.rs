//! PST insertion and removal.

use linkcast_types::{AttrTest, Subscription, SubscriptionId, Value};

use super::{Burst, EdgeSlot, FactorKey, MutationReport, NodeId, PathNodes, PathReport, Pst};
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
            let mut path = self.insert_path(key, &subscription, slot);
            // A search entered a tail whose chain opened with `*` levels
            // below them, as if through a skip pointer. Burst with those
            // levels still `*`-only it has a real pointer now, which
            // differs from the none it had as a tail; forking at its own
            // level it has none, like before, but is entered itself from
            // now on.
            let forks_off_star = |b: &Burst| {
                let tail = path.created.checked_sub(1)?;
                let forked = self.node_inner(*path.nodes.get(tail)?).star == Some(b.parked);
                (forked && self.options.eliminate_trivial_tests).then_some(tail)
            };
            let reentered = path.burst.as_ref().and_then(forks_off_star);
            path.retargets =
                self.recompute_skips(&path.nodes, path.created, &subscription, reentered);
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
            let mut path = self.remove_path(key, &subscription, slot);
            path.retargets = self.recompute_skips(&path.nodes, path.created, &subscription, None);
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
        let mut added = None;
        let mut burst = None;
        let mut current = match self.roots.get(&key) {
            Some(&r) => r,
            None => {
                let r = self.alloc(0);
                self.roots.insert(key.clone(), r);
                added = Some((0, EdgeSlot::Root));
                r
            }
        };
        nodes.push(current);
        while added.is_none() {
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
                let (tail, forked) =
                    self.burst(current, shared, older, subscription, &mut nodes, &mut added);
                burst = Some(forked);
                current = tail;
                break;
            }
            let test = self.test_at(subscription, level);
            current = match node.child_for(test) {
                Some(c) => c,
                None => {
                    let c = self.alloc((level + 1) as u16);
                    let slot = self.node_mut(current).attach(test.clone(), c);
                    added = Some((nodes.len(), slot));
                    c
                }
            };
            nodes.push(current);
        }
        self.node_mut(current).subs.insert(subscription.id(), slot);
        PathReport {
            key,
            created: added.map_or(nodes.len(), |(at, _)| at),
            nodes,
            burst,
            freed: Vec::new(),
            added: added.map(|(_, slot)| slot),
            removed: None,
            retargets: Vec::new(),
        }
    }

    /// Bursts `tail`, the last of `nodes`, whose chain `subscription`
    /// follows for `shared` levels and then leaves: those levels become
    /// real single-edge nodes (appended to `nodes`), and the last of them
    /// forks — first the chain's own edge `older`, to a node that takes
    /// the tail's subscriptions over, then the newcomer's, to a fresh tail
    /// (appended too, and returned). Every edge the tail's chain stood for
    /// keeps its place before the newcomer's, as if the chain had been
    /// real all along.
    fn burst(
        &mut self,
        tail: NodeId,
        shared: usize,
        older: AttrTest,
        subscription: &Subscription,
        nodes: &mut PathNodes,
        added: &mut Option<(usize, EdgeSlot)>,
    ) -> (NodeId, Burst) {
        let parked_subs = std::mem::take(&mut self.node_mut(tail).subs);
        let mut fork = tail;
        for _ in 0..shared {
            let level = nodes.len() - 1;
            let below = self.alloc((level + 1) as u16);
            let test = self.test_at(subscription, level).clone();
            let slot = self.node_mut(fork).attach(test, below);
            added.get_or_insert((nodes.len(), slot));
            nodes.push(below);
            fork = below;
        }
        let level = nodes.len() - 1;
        let parked = self.alloc((level + 1) as u16);
        self.node_mut(parked).subs = parked_subs;
        self.node_mut(fork).attach(older, parked);
        let newcomer = self.alloc((level + 1) as u16);
        let test = self.test_at(subscription, level).clone();
        let forked = self.node_mut(fork).attach(test, newcomer);
        added.get_or_insert((nodes.len(), forked));
        nodes.push(newcomer);
        (newcomer, Burst { parked, forked })
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
            added: None,
            removed: None,
            retargets: Vec::new(),
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
                    Some((EdgeSlot::Root, AttrTest::Any))
                }
                Some(&parent) => {
                    let test = self.test_at(subscription, nodes.len() - 1);
                    self.node_mut(parent)
                        .detach(test, last)
                        .map(|slot| (slot, test.clone()))
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
    /// `*`-chain reaches. Returns, for every node among the first
    /// `existing` that searches now enter elsewhere — its pointer changed,
    /// it is `path[reentered]`, or it skips to such a node — its path index
    /// and the slot of the edge leading into it.
    fn recompute_skips(
        &mut self,
        path: &[NodeId],
        existing: usize,
        subscription: &Subscription,
        reentered: Option<usize>,
    ) -> Vec<(usize, EdgeSlot)> {
        let mut retargets = Vec::new();
        let mut moved = false;
        for (i, &id) in path.iter().enumerate().rev() {
            let node = self.node_inner(id);
            let skip = if node.is_trivial() {
                let star = node.star.expect("trivial nodes have a star child");
                Some(self.node_inner(star).skip.unwrap_or(star))
            } else {
                None
            };
            moved = skip != node.skip || reentered == Some(i) || (moved && skip.is_some());
            if !moved {
                continue;
            }
            if i < existing {
                let slot = match i.checked_sub(1) {
                    None => Some(EdgeSlot::Root),
                    Some(above) => self
                        .node_inner(path[above])
                        .slot_of(self.test_at(subscription, above), id),
                };
                retargets.extend(slot.map(|slot| (i, slot)));
            }
            self.node_mut(id).skip = skip;
        }
        retargets
    }
}
