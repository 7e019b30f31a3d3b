//! The parallel search *graph* (§2.1): "under certain circumstances, after
//! applying optimizations, the parallel search tree will no longer be a
//! tree but instead a directed acyclic graph."
//!
//! [`Psg::compile`] hash-conses a [`Pst`] bottom-up: structurally identical
//! subtrees (same level, same branch structure, same subscriptions)
//! collapse into one shared node. The big win comes from factoring, which
//! replicates every `*`-subscription's suffix into each value subtree —
//! those replicas are identical by construction and fold back together.
//! Matching visits each shared node at most once per event, so both space
//! and matching steps drop.
//!
//! The graph is immutable (a compiled artifact); rebuild it after bulk
//! subscription changes. The link-matching layer keeps using the dynamic
//! [`Pst`] — the paper likewise notes that trit annotation on graphs
//! "requires the use of a parallel search graph and is not described here".

use std::collections::HashMap;

use linkcast_types::{AttrTest, Event, EventSchema, SubscriptionId, Value};

use crate::pst::{walk_chain, Pst};
use crate::MatchStats;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NodeKey {
    level: u16,
    eq_edges: Vec<(Value, u32)>,
    range_edges: Vec<(AttrTest, u32)>,
    star: Option<u32>,
    subs: Vec<SubscriptionId>,
}

#[derive(Debug, Clone)]
struct PsgNode {
    level: u16,
    eq_edges: Vec<(Value, u32)>,
    range_edges: Vec<(AttrTest, u32)>,
    star: Option<u32>,
    subs: Vec<SubscriptionId>,
    /// The chain a tail stands for (see [`NodeRef::residual`]); its level
    /// and subscriptions determine it, so it is not part of the key.
    ///
    /// [`NodeRef::residual`]: crate::NodeRef::residual
    chain: Vec<(usize, AttrTest)>,
}

/// A compiled, immutable, maximally shared form of a [`Pst`].
///
/// # Example
///
/// ```
/// use linkcast_matching::{Matcher, Psg, Pst, PstOptions};
/// use linkcast_types::{EventSchema, ValueKind, Value, Event, Predicate,
///     Subscription, SubscriptionId, SubscriberId, BrokerId, ClientId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = EventSchema::builder("s")
///     .attribute_with_domain("x", ValueKind::Int, (0..3).map(Value::Int))
///     .attribute_with_domain("y", ValueKind::Int, (0..3).map(Value::Int))
///     .build()?;
/// // `x = *` is replicated across all three x-subtrees by factoring...
/// let mut pst = Pst::new(schema.clone(), PstOptions::default().with_factoring(1))?;
/// pst.insert(Subscription::new(
///     SubscriptionId::new(0),
///     SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
///     Predicate::builder(&schema).eq("y", Value::Int(1))?.build(),
/// ))?;
/// // ...and the graph folds the replicas back into one shared suffix.
/// let psg = Psg::compile(&pst);
/// assert!(psg.node_count() < pst.node_count());
/// let event = Event::from_values(&schema, [Value::Int(2), Value::Int(1)])?;
/// assert_eq!(psg.matches(&event), pst.matches(&event));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Psg {
    schema: EventSchema,
    order: Vec<usize>,
    factored: Vec<usize>,
    /// Factored-subtree roots, sorted by key so the per-event lookup can
    /// binary-search against the event's *borrowed* factored values —
    /// building an owned `Box<[Value]>` key per match was a measurable
    /// allocation on the hot path.
    roots: Vec<(Box<[Value]>, u32)>,
    nodes: Vec<PsgNode>,
}

/// Lexicographically compares a stored factor key against the event values
/// at the factored attribute indices, without materializing a key.
fn cmp_key_to_event(key: &[Value], factored: &[usize], values: &[Value]) -> std::cmp::Ordering {
    for (k, &attr) in key.iter().zip(factored) {
        match k.cmp(&values[attr]) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

impl Psg {
    /// Compiles a PST into its maximally shared DAG form.
    pub fn compile(pst: &Pst) -> Psg {
        let mut nodes: Vec<PsgNode> = Vec::new();
        let mut interned: HashMap<NodeKey, u32> = HashMap::new();
        // Map from PST node id (arena index) to PSG node id.
        let mut translated: HashMap<usize, u32> = HashMap::new();

        for id in pst.postorder() {
            let node = pst.node(id);
            let key = NodeKey {
                level: node.level() as u16,
                eq_edges: node
                    .eq_edges()
                    .iter()
                    .map(|(v, c)| (v.clone(), translated[&c.index()]))
                    .collect(),
                range_edges: node
                    .range_edges()
                    .iter()
                    .map(|(t, c)| (t.clone(), translated[&c.index()]))
                    .collect(),
                star: node.star().map(|c| translated[&c.index()]),
                subs: node.subscription_ids().to_vec(),
            };
            let psg_id = *interned.entry(key.clone()).or_insert_with(|| {
                nodes.push(PsgNode {
                    level: key.level,
                    eq_edges: key.eq_edges.clone(),
                    range_edges: key.range_edges.clone(),
                    star: key.star,
                    subs: key.subs.clone(),
                    chain: node.residual().map(|(a, t)| (a, t.clone())).collect(),
                });
                (nodes.len() - 1) as u32
            });
            translated.insert(id.index(), psg_id);
        }

        let mut roots: Vec<(Box<[Value]>, u32)> = pst
            .roots()
            .map(|(key, root)| (key.to_vec().into(), translated[&root.index()]))
            .collect();
        roots.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Psg {
            schema: pst.schema().clone(),
            order: pst.order().to_vec(),
            factored: pst.factored().to_vec(),
            roots,
            nodes,
        }
    }

    /// The schema this graph serves.
    pub fn schema(&self) -> &EventSchema {
        &self.schema
    }

    /// Number of nodes after sharing.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Matched subscription ids for `event`, sorted and deduplicated,
    /// updating `stats` (each shared node is visited — and counted — at
    /// most once per event).
    pub fn matches_with_stats(&self, event: &Event, stats: &mut MatchStats) -> Vec<SubscriptionId> {
        stats.events += 1;
        let mut out = Vec::new();
        // Borrow-keyed root lookup: binary search against the event's
        // factored values in place (the empty-factored case compares equal
        // to the sole empty key). No per-event key allocation.
        let root = self
            .roots
            .binary_search_by(|(key, _)| cmp_key_to_event(key, &self.factored, event.values()))
            .ok()
            .map(|i| self.roots[i].1);
        let Some(root) = root else {
            return out;
        };
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let idx = id as usize;
            if std::mem::replace(&mut visited[idx], true) {
                continue;
            }
            let node = &self.nodes[idx];
            if !node.subs.is_empty() {
                let chain = node.chain.iter().map(|(attr, test)| (*attr, test));
                if walk_chain(chain, event, false, stats) {
                    out.extend_from_slice(&node.subs);
                }
                continue;
            }
            stats.steps += 1;
            let attr = self.order[node.level as usize];
            let value = &event.values()[attr];
            stats.comparisons += 1;
            if let Ok(i) = node.eq_edges.binary_search_by(|(v, _)| v.cmp(value)) {
                stack.push(node.eq_edges[i].1);
            }
            for (test, child) in &node.range_edges {
                stats.comparisons += 1;
                if test.matches(value) {
                    stack.push(*child);
                }
            }
            if let Some(star) = node.star {
                stack.push(star);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Matched subscription ids for `event`, sorted and deduplicated.
    pub fn matches(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut stats = MatchStats::new();
        self.matches_with_stats(event, &mut stats)
    }

    /// Writes the graph's nodes and edges in `dot` syntax (used by
    /// [`Psg::to_dot`]).
    pub(crate) fn render_dot_nodes(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (key, root) in &self.roots {
            if !key.is_empty() {
                let label: Vec<String> = key.iter().map(ToString::to_string).collect();
                let _ = writeln!(
                    out,
                    "  \"factor_{root}\" [shape=invhouse, label=\"[{}]\"];",
                    label.join(", ")
                );
                let _ = writeln!(out, "  \"factor_{root}\" -> \"n{root}\";");
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if !node.subs.is_empty() {
                let chain = node.chain.iter().map(|(attr, test)| (*attr, test));
                let label = crate::dot::leaf_label(&self.schema, chain, &node.subs);
                let _ = writeln!(
                    out,
                    "  \"n{id}\" [shape=box, label=\"{}\"];",
                    crate::dot::escape(&label)
                );
                continue;
            }
            let attr = self.order[node.level as usize];
            let name = self
                .schema
                .attribute(attr)
                .map(|a| a.name().to_string())
                .unwrap_or_else(|| format!("a{attr}"));
            let _ = writeln!(out, "  \"n{id}\" [shape=ellipse, label=\"{name}?\"];");
            for (value, child) in &node.eq_edges {
                let _ = writeln!(
                    out,
                    "  \"n{id}\" -> \"n{child}\" [label=\"= {}\"];",
                    value.to_string().replace('\\', "\\\\").replace('"', "\\\"")
                );
            }
            for (test, child) in &node.range_edges {
                let _ = writeln!(
                    out,
                    "  \"n{id}\" -> \"n{child}\" [label=\"{}\"];",
                    test.display_with("")
                        .replace('\\', "\\\\")
                        .replace('"', "\\\"")
                );
            }
            if let Some(star) = node.star {
                let _ = writeln!(
                    out,
                    "  \"n{id}\" -> \"n{star}\" [label=\"*\", style=dashed];"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matcher, PstOptions};
    use linkcast_types::{BrokerId, ClientId, Predicate, SubscriberId, Subscription, ValueKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> EventSchema {
        let mut b = EventSchema::builder("psg");
        for name in ["a", "b", "c", "d"] {
            b = b.attribute_with_domain(name, ValueKind::Int, (0..4).map(Value::Int));
        }
        b.build().unwrap()
    }

    fn sub(schema: &EventSchema, id: u32, tests: &[Option<i64>]) -> Subscription {
        let tests: Vec<AttrTest> = tests
            .iter()
            .map(|t| match t {
                Some(v) => AttrTest::Eq(Value::Int(*v)),
                None => AttrTest::Any,
            })
            .collect();
        Subscription::new(
            SubscriptionId::new(id),
            SubscriberId::new(BrokerId::new(0), ClientId::new(id)),
            Predicate::from_tests(schema, tests).unwrap(),
        )
    }

    fn int_event(schema: &EventSchema, values: &[i64]) -> Event {
        Event::from_values(schema, values.iter().map(|v| Value::Int(*v))).unwrap()
    }

    #[test]
    fn compiling_empty_tree_matches_nothing() {
        let schema = schema();
        let pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
        let psg = Psg::compile(&pst);
        assert_eq!(psg.node_count(), 0);
        assert!(psg.matches(&int_event(&schema, &[0, 0, 0, 0])).is_empty());
    }

    #[test]
    fn factoring_replicas_are_shared() {
        let schema = schema();
        let mut pst = Pst::new(schema.clone(), PstOptions::default().with_factoring(1)).unwrap();
        // `a = *` replicates this subscription's suffix into 4 subtrees.
        pst.insert(sub(&schema, 0, &[None, Some(1), None, Some(2)]))
            .unwrap();
        let psg = Psg::compile(&pst);
        // The PST holds 4 copies of the suffix path; the graph holds one
        // (plus the 4 shared roots collapse to 1 since they're identical).
        assert!(psg.node_count() * 2 <= pst.node_count());
        for a in 0..4 {
            assert_eq!(
                psg.matches(&int_event(&schema, &[a, 1, 3, 2])),
                vec![SubscriptionId::new(0)]
            );
            assert!(psg.matches(&int_event(&schema, &[a, 1, 3, 1])).is_empty());
        }
    }

    #[test]
    fn shared_nodes_are_visited_once() {
        let schema = schema();
        // The graph does not skip `*`-only chains, so neither may the tree
        // it is compared with: this test is about sharing, not skipping.
        let options = PstOptions::default()
            .with_factoring(1)
            .with_trivial_test_elimination(false);
        let mut pst = Pst::new(schema.clone(), options).unwrap();
        pst.insert(sub(&schema, 0, &[None, Some(1), None, None]))
            .unwrap();
        pst.insert(sub(&schema, 1, &[Some(2), Some(1), None, None]))
            .unwrap();
        let psg = Psg::compile(&pst);

        let mut pst_stats = MatchStats::new();
        let mut psg_stats = MatchStats::new();
        let event = int_event(&schema, &[2, 1, 0, 0]);
        assert_eq!(
            pst.matches_with_stats(&event, &mut pst_stats),
            psg.matches_with_stats(&event, &mut psg_stats)
        );
        assert!(
            psg_stats.steps <= pst_stats.steps,
            "graph must not cost more steps ({} vs {})",
            psg_stats.steps,
            pst_stats.steps
        );
    }

    #[test]
    fn agrees_with_pst_on_random_workloads() {
        let schema = schema();
        let mut rng = StdRng::seed_from_u64(31);
        for factoring in [0usize, 1, 2] {
            let mut pst = Pst::new(
                schema.clone(),
                PstOptions::default().with_factoring(factoring),
            )
            .unwrap();
            for i in 0..300u32 {
                let tests: Vec<Option<i64>> = (0..4)
                    .map(|_| {
                        if rng.random_bool(0.5) {
                            Some(rng.random_range(0..4))
                        } else {
                            None
                        }
                    })
                    .collect();
                pst.insert(sub(&schema, i, &tests)).unwrap();
            }
            let psg = Psg::compile(&pst);
            assert!(psg.node_count() <= pst.node_count());
            for _ in 0..200 {
                let values: Vec<i64> = (0..4).map(|_| rng.random_range(0..4)).collect();
                let event = int_event(&schema, &values);
                assert_eq!(
                    psg.matches(&event),
                    pst.matches(&event),
                    "factoring={factoring}"
                );
            }
        }
    }

    #[test]
    fn range_edges_survive_compilation() {
        let schema = schema();
        let mut pst = Pst::new(schema.clone(), PstOptions::default()).unwrap();
        let pred = Predicate::from_tests(
            &schema,
            [
                AttrTest::Ge(Value::Int(2)),
                AttrTest::Any,
                AttrTest::Between(Value::Int(1), Value::Int(2)),
                AttrTest::Any,
            ],
        )
        .unwrap();
        pst.insert(Subscription::new(
            SubscriptionId::new(0),
            SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
            pred,
        ))
        .unwrap();
        let psg = Psg::compile(&pst);
        assert_eq!(
            psg.matches(&int_event(&schema, &[3, 0, 1, 0])),
            vec![SubscriptionId::new(0)]
        );
        assert!(psg.matches(&int_event(&schema, &[1, 0, 1, 0])).is_empty());
        assert!(psg.matches(&int_event(&schema, &[3, 0, 3, 0])).is_empty());
    }
}
