//! PST insertion and removal.

use linkcast_types::{AttrTest, Subscription, SubscriptionId, Value};

use super::{EdgeSlot, FactorKey, MutationReport, NodeId, PathReport, Pst};
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
        if self.subscriptions.contains_key(&id) {
            return Err(MatcherError::DuplicateSubscription(id));
        }

        let mut report = MutationReport::default();
        for key in self.factor_keys(&subscription) {
            let mut path = self.insert_path(key, &subscription);
            path.retargets = self.recompute_skips(&path.nodes, path.created, &subscription);
            report.paths.push(path);
        }
        self.subscriptions.insert(id, subscription);
        Ok(report)
    }

    /// Removes a subscription, reporting the surviving prefixes of its tree
    /// paths and the nodes pruned away. Returns `None` if the id was not
    /// registered.
    pub fn remove_reported(&mut self, id: SubscriptionId) -> Option<MutationReport> {
        let subscription = self.subscriptions.remove(&id)?;
        let mut report = MutationReport::default();
        for key in self.factor_keys(&subscription) {
            let mut path = self.remove_path(key, &subscription);
            path.retargets = self.recompute_skips(&path.nodes, path.created, &subscription);
            report.paths.push(path);
        }
        Some(report)
    }

    /// The factor keys a subscription must be inserted under: the cartesian
    /// product of, per factored attribute, the domain values its test
    /// accepts (`*` replicates across the whole domain, per §2.1.1).
    fn factor_keys(&self, subscription: &Subscription) -> Vec<FactorKey> {
        if self.factored.is_empty() {
            return vec![FactorKey::from([] as [Value; 0])];
        }
        let mut keys: Vec<Vec<Value>> = vec![Vec::with_capacity(self.factored.len())];
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
        keys.into_iter().map(Into::into).collect()
    }

    /// The label `subscription` puts on the edge leaving a node at `level`.
    fn test_at<'a>(&self, subscription: &'a Subscription, level: usize) -> &'a AttrTest {
        &subscription.predicate().tests()[self.order[level]]
    }

    /// Creates/extends the root-to-leaf path for `subscription` in the
    /// subtree `key`.
    fn insert_path(&mut self, key: FactorKey, subscription: &Subscription) -> PathReport {
        let depth = self.depth();
        let mut nodes = Vec::with_capacity(depth + 1);
        let mut added = None;
        let root = match self.roots.get(&key) {
            Some(&r) => r,
            None => {
                let r = self.alloc(0);
                self.roots.insert(key.clone(), r);
                added = Some((0, EdgeSlot::Root));
                r
            }
        };
        nodes.push(root);
        let mut current = root;
        for level in 0..depth {
            let test = self.test_at(subscription, level);
            let next = match self.node_inner(current).child_for(test) {
                Some(c) => c,
                None => {
                    let c = self.alloc((level + 1) as u16);
                    let slot = self.node_mut(current).attach(test.clone(), c);
                    added.get_or_insert((nodes.len(), slot));
                    c
                }
            };
            nodes.push(next);
            current = next;
        }
        let leaf = self.node_mut(current);
        debug_assert_eq!(leaf.level as usize, depth);
        if let Err(i) = leaf.subs.binary_search(&subscription.id()) {
            leaf.subs.insert(i, subscription.id());
        }
        PathReport {
            key,
            created: added.map_or(nodes.len(), |(at, _)| at),
            nodes,
            freed: Vec::new(),
            added: added.map(|(_, slot)| slot),
            removed: None,
            retargets: Vec::new(),
        }
    }

    /// Removes `subscription` from the leaf its predicate leads to in
    /// subtree `key`, pruning nodes left with no children and no
    /// subscriptions.
    fn remove_path(&mut self, key: FactorKey, subscription: &Subscription) -> PathReport {
        let mut report = PathReport {
            key,
            nodes: Vec::new(),
            created: 0,
            freed: Vec::new(),
            added: None,
            removed: None,
            retargets: Vec::new(),
        };
        let Some(&root) = self.roots.get(&report.key) else {
            return report;
        };
        let mut nodes = vec![root];
        let mut current = root;
        for level in 0..self.depth() {
            let test = self.test_at(subscription, level);
            let Some(next) = self.node_inner(current).child_for(test) else {
                // The subscription was never materialized under this key
                // (defensive; insert and remove use the same key derivation).
                return report;
            };
            nodes.push(next);
            current = next;
        }
        let leaf = self.node_mut(current);
        if let Ok(i) = leaf.subs.binary_search(&subscription.id()) {
            leaf.subs.remove(i);
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
    /// `existing` whose pointer changed, its path index and the slot of the
    /// edge leading into it.
    fn recompute_skips(
        &mut self,
        path: &[NodeId],
        existing: usize,
        subscription: &Subscription,
    ) -> Vec<(usize, EdgeSlot)> {
        let mut retargets = Vec::new();
        for (i, &id) in path.iter().enumerate().rev() {
            let node = self.node_inner(id);
            let skip = if node.is_trivial() {
                let star = node.star.expect("trivial nodes have a star child");
                Some(self.node_inner(star).skip.unwrap_or(star))
            } else {
                None
            };
            if skip == node.skip {
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
