//! Spanning trees for event distribution, and the per-broker link spaces
//! (including footnote 1's "virtual links") that trit vectors index.

use std::collections::HashMap;

use linkcast_types::{BrokerId, ClientId, LinkId, Trit, TritVec};

use crate::BrokerNetwork;

/// Identifies a spanning tree within a [`SpanningForest`]: the index of the
/// broker the tree is rooted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeId(pub(crate) u32);

impl TreeId {
    /// Raw index of the tree in its forest (its root broker's index).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a tree id from an index previously obtained via
    /// [`TreeId::index`] (e.g. carried over the wire between brokers that
    /// derive identical forests from the shared static topology). The index
    /// is *not* validated here; [`SpanningForest::tree`] returns `None` for
    /// out-of-range ids.
    pub const fn from_index(index: usize) -> Self {
        TreeId(index as u32)
    }
}

impl std::fmt::Display for TreeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One spanning tree over the broker graph: the shortest-path tree rooted at
/// one broker, down which events its publishers emit travel ("we assume
/// that events always follow the shortest path", §3.2). Its
/// [`SpanningForest`] names it by that root.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanningTree {
    root: BrokerId,
    parent: Vec<Option<BrokerId>>,
    children: Vec<Vec<BrokerId>>,
    /// Euler-tour interval per broker for O(1) descendant tests.
    tin: Vec<u32>,
    tout: Vec<u32>,
}

impl SpanningTree {
    /// Builds the shortest-path tree rooted at `root` over the surviving
    /// graph (edges in `excluded` are treated as severed). Brokers the
    /// exclusions disconnect from `root` are simply absent from the tree
    /// ([`SpanningTree::contains`] reports them).
    fn shortest_path_tree(
        network: &BrokerNetwork,
        root: BrokerId,
        excluded: &[(BrokerId, BrokerId)],
    ) -> Self {
        let (_, parent) = network.shortest_paths_excluding(root, excluded);
        let n = network.broker_count();
        let mut children: Vec<Vec<BrokerId>> = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(BrokerId::new(i as u32));
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut timer = 0u32;
        let mut stack = vec![(root, false)];
        while let Some((b, done)) = stack.pop() {
            if done {
                tout[b.index()] = timer;
                timer += 1;
                continue;
            }
            tin[b.index()] = timer;
            timer += 1;
            stack.push((b, true));
            for &c in &children[b.index()] {
                stack.push((c, false));
            }
        }
        SpanningTree {
            root,
            parent,
            children,
            tin,
            tout,
        }
    }

    /// The tree's root (the broker whose publishers it serves).
    pub fn root(&self) -> BrokerId {
        self.root
    }

    /// The parent of `broker` in the tree (`None` for the root).
    pub fn parent(&self, broker: BrokerId) -> Option<BrokerId> {
        self.parent[broker.index()]
    }

    /// The children of `broker` in the tree.
    pub fn children(&self, broker: BrokerId) -> &[BrokerId] {
        &self.children[broker.index()]
    }

    /// Whether `broker` is part of this tree. On a fully connected graph
    /// every broker is; after excluded-edge recomputation (topology repair)
    /// brokers cut off from the root are not, and their Euler-tour stamps
    /// are meaningless — every structural query below guards on this.
    pub fn contains(&self, broker: BrokerId) -> bool {
        broker == self.root || self.parent[broker.index()].is_some()
    }

    /// Whether `descendant` lies in the subtree rooted at `ancestor`
    /// (inclusive). Brokers outside the tree are nobody's descendant and
    /// nobody's ancestor.
    pub fn is_descendant(&self, descendant: BrokerId, ancestor: BrokerId) -> bool {
        self.contains(descendant)
            && self.contains(ancestor)
            && self.tin[ancestor.index()] <= self.tin[descendant.index()]
            && self.tout[descendant.index()] <= self.tout[ancestor.index()]
    }

    /// The brokers on the unique tree path from `from` down to its
    /// descendant `to`, inclusive of both ends; `None` if `to` is not in
    /// `from`'s subtree.
    ///
    /// Used to attribute per-hop matching costs to a delivery (Chart 2's
    /// "sum of the times for all the partial matches at intermediate
    /// brokers along the way from publisher to subscriber").
    pub fn path_down(&self, from: BrokerId, to: BrokerId) -> Option<Vec<BrokerId>> {
        if !self.is_descendant(to, from) {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = self.parent(cur).expect("descendants have parent chains");
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The child of `broker` whose subtree contains `target`, if `target`
    /// is a strict descendant of `broker`.
    pub fn child_toward(&self, broker: BrokerId, target: BrokerId) -> Option<BrokerId> {
        if target == broker || !self.is_descendant(target, broker) {
            return None;
        }
        // Walk up from the target until just below `broker`.
        let mut cur = target;
        loop {
            let p = self.parent(cur)?;
            if p == broker {
                return Some(cur);
            }
            cur = p;
        }
    }
}

/// The spanning trees in use: one shortest-path tree per broker, in broker
/// order, so a [`TreeId`] is its root broker's index ("there will be a
/// relatively small set of different spanning trees", §3.2 — the sharing
/// lives in [`LinkSpace`]'s virtual-link classes, not here). A tree's id
/// therefore never changes across topology repairs; only its shape does.
#[derive(Debug, Clone)]
pub struct SpanningForest {
    trees: Vec<SpanningTree>,
}

impl SpanningForest {
    /// Computes the tree rooted at every broker of `network` (any broker
    /// may host a publisher).
    pub fn compute(network: &BrokerNetwork) -> Self {
        Self::compute_excluding(network, &[])
    }

    /// [`compute`](Self::compute) over the surviving graph: edges in
    /// `excluded` are treated as severed, so every tree spans only the
    /// component its root sits in. Brokers disconnected from a root are
    /// absent from that root's tree (topology repair keeps routing the
    /// reachable component), but every broker still roots its own tree; an
    /// excluded edge that appears nowhere in the network is ignored.
    pub fn compute_excluding(network: &BrokerNetwork, excluded: &[(BrokerId, BrokerId)]) -> Self {
        let trees = network
            .brokers()
            .map(|root| SpanningTree::shortest_path_tree(network, root, excluded))
            .collect();
        SpanningForest { trees }
    }

    /// Number of trees: the network's broker count.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest is empty (never true for a built forest).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Whether `a` and `b` are parent/child in *any* tree of the forest.
    /// Topology repair uses the old-vs-new answer to decide which live
    /// links need a subscription resync after an epoch flip.
    pub fn tree_adjacent(&self, a: BrokerId, b: BrokerId) -> bool {
        self.trees
            .iter()
            .any(|t| t.parent(a) == Some(b) || t.parent(b) == Some(a))
    }

    /// The tree rooted at `root`, used by publishers attached to it;
    /// `None` for a broker outside the network.
    pub fn tree_for_root(&self, root: BrokerId) -> Option<TreeId> {
        (root.index() < self.trees.len()).then_some(TreeId(root.raw()))
    }

    /// Looks up a tree by id.
    pub fn tree(&self, id: TreeId) -> Option<&SpanningTree> {
        self.trees.get(id.index())
    }

    /// Iterates over `(id, tree)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TreeId, &SpanningTree)> {
        self.trees
            .iter()
            .enumerate()
            .map(|(i, t)| (TreeId(i as u32), t))
    }
}

/// The trit-vector index space of one broker: its physical links crossed
/// with the *virtual-link classes* of footnote 1.
///
/// Each spanning tree induces, at this broker, a mapping from downstream
/// destinations (clients) to the outgoing link that reaches them. Trees with
/// identical mappings share a **class**; the trit vector has one position
/// per `(class, link)` pair, so a single annotated PST serves every tree
/// soundly even when trees route the same destination over different links
/// (the situation footnote 1 resolves by "splitting the link into two or
/// more 'virtual' links"). On tree-like networks all trees share one class
/// and the vector is exactly one trit per physical link, as in the paper's
/// figures.
#[derive(Debug, Clone)]
pub struct LinkSpace {
    broker: BrokerId,
    n_links: usize,
    /// `class_of[tree.index()]` = class index.
    class_of: Vec<usize>,
    /// Per class: downstream destination → link.
    mappings: Vec<HashMap<ClientId, LinkId>>,
    /// Per tree: the initialization mask of §3.2 (width = classes × links).
    init_masks: Vec<TritVec>,
}

impl LinkSpace {
    /// Builds the link space of `broker` for all trees in `forest`.
    pub fn build(network: &BrokerNetwork, forest: &SpanningForest, broker: BrokerId) -> Self {
        let n_links = network.link_count(broker);
        let mut mappings: Vec<HashMap<ClientId, LinkId>> = Vec::new();
        let mut class_of = Vec::with_capacity(forest.len());
        for (_, tree) in forest.iter() {
            let mapping = Self::full_mapping(network, tree, broker);
            let class = match mappings.iter().position(|m| *m == mapping) {
                Some(i) => i,
                None => {
                    mappings.push(mapping);
                    mappings.len() - 1
                }
            };
            class_of.push(class);
        }
        let width = mappings.len() * n_links;
        let init_masks = forest
            .iter()
            .map(|(id, tree)| {
                // §3.2: the trit at link l is Maybe "if at least one of the
                // destinations routable via l is a descendant of the broker
                // in the spanning tree; and No" otherwise.
                let class = class_of[id.index()];
                let mut mask = TritVec::no(width);
                for (client, link) in &mappings[class] {
                    let home = network.home_broker(*client).expect("client exists");
                    if home == broker || tree.is_descendant(home, broker) {
                        mask.set(class * n_links + link.index(), Trit::Maybe);
                    }
                }
                mask
            })
            .collect();
        LinkSpace {
            broker,
            n_links,
            class_of,
            mappings,
            init_masks,
        }
    }

    /// The next-hop link from `broker` toward every destination along the
    /// unique tree path (downstream destinations map to a child link,
    /// upstream ones to the parent link, local clients to their client
    /// link). This is the broker's "routing table mapping each possible
    /// destination to the link which is the next hop" of §3.2, specialized
    /// to one tree; trees with identical tables share a virtual-link class.
    fn full_mapping(
        network: &BrokerNetwork,
        tree: &SpanningTree,
        broker: BrokerId,
    ) -> HashMap<ClientId, LinkId> {
        let mut mapping = HashMap::new();
        if !tree.contains(broker) {
            // The broker sits outside this tree's component (an excluded
            // edge cut it off from the root): events on this tree can never
            // reach it, so it routes nothing — not even to local clients.
            return mapping;
        }
        for client in network.clients() {
            let home = network.home_broker(client).expect("client exists");
            let link = if home == broker {
                network
                    .link_to_client(broker, client)
                    .expect("local client has a link")
            } else if !tree.contains(home) {
                // Unreachable on the surviving graph: no next hop exists.
                continue;
            } else if let Some(child) = tree.child_toward(broker, home) {
                network
                    .link_to_broker(broker, child)
                    .expect("tree edges are network links")
            } else {
                let parent = tree
                    .parent(broker)
                    .expect("non-descendant destinations lie through the parent");
                network
                    .link_to_broker(broker, parent)
                    .expect("tree edges are network links")
            };
            mapping.insert(client, link);
        }
        mapping
    }

    /// The broker this space belongs to.
    pub fn broker(&self) -> BrokerId {
        self.broker
    }

    /// Number of physical links.
    pub fn link_count(&self) -> usize {
        self.n_links
    }

    /// Number of virtual-link classes (1 on tree-like networks).
    pub fn class_count(&self) -> usize {
        self.mappings.len()
    }

    /// Width of trit vectors over this space (`classes × links`).
    pub fn width(&self) -> usize {
        self.mappings.len() * self.n_links
    }

    /// The initialization mask for events distributed along `tree`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not part of the forest this space was built
    /// from.
    pub fn init_mask(&self, tree: TreeId) -> &TritVec {
        &self.init_masks[tree.index()]
    }

    /// The virtual-link class `tree` belongs to.
    pub fn class(&self, tree: TreeId) -> usize {
        self.class_of[tree.index()]
    }

    /// The trit position of `(class, link)`.
    pub fn position(&self, class: usize, link: LinkId) -> usize {
        class * self.n_links + link.index()
    }

    /// Annotates a subscriber's leaf trit vector: `Yes` at each
    /// `(class, link)` position that reaches `client` downstream, `No`
    /// elsewhere. Returns an all-`No` vector for destinations never
    /// downstream of this broker.
    pub fn leaf_vector(&self, client: ClientId) -> TritVec {
        let mut v = TritVec::no(self.width());
        for (class, mapping) in self.mappings.iter().enumerate() {
            if let Some(link) = mapping.get(&client) {
                v.set(self.position(class, *link), Trit::Yes);
            }
        }
        v
    }

    /// Decodes a fully refined mask into the physical links to forward on
    /// (positions outside `tree`'s class are never `Yes` because the
    /// initialization mask starts them at `No`).
    pub fn links_to_send(&self, mask: &TritVec) -> Vec<LinkId> {
        let mut out = Vec::new();
        self.links_to_send_into(mask, &mut out);
        out
    }

    /// [`links_to_send`](Self::links_to_send) into a caller-provided buffer
    /// (cleared first) — the allocation-free path for reused scratch.
    pub fn links_to_send_into(&self, mask: &TritVec, out: &mut Vec<LinkId>) {
        out.clear();
        out.extend(
            mask.yes_indices()
                .map(|p| LinkId::new((p % self.n_links) as u32)),
        );
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    /// B0 - B1 - B2, with B1 - B3 hanging off; clients one per broker.
    fn star() -> (BrokerNetwork, Vec<BrokerId>, Vec<ClientId>) {
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(4);
        b.connect(ids[0], ids[1], 10.0).unwrap();
        b.connect(ids[1], ids[2], 10.0).unwrap();
        b.connect(ids[1], ids[3], 10.0).unwrap();
        let clients = ids.iter().map(|&i| b.add_client(i).unwrap()).collect();
        let net = b.build().unwrap();
        (net, ids, clients)
    }

    #[test]
    fn tree_structure_on_star() {
        let (net, ids, _) = star();
        let forest = SpanningForest::compute(&net);
        let tree = forest.tree(TreeId(0)).unwrap();
        assert_eq!(tree.root(), ids[0]);
        assert_eq!(tree.parent(ids[0]), None);
        assert_eq!(tree.parent(ids[1]), Some(ids[0]));
        assert_eq!(tree.parent(ids[2]), Some(ids[1]));
        assert_eq!(tree.children(ids[1]), &[ids[2], ids[3]]);
        assert!(tree.is_descendant(ids[3], ids[1]));
        assert!(tree.is_descendant(ids[1], ids[1]));
        assert!(!tree.is_descendant(ids[0], ids[1]));
        assert_eq!(tree.child_toward(ids[0], ids[2]), Some(ids[1]));
        assert_eq!(tree.child_toward(ids[1], ids[3]), Some(ids[3]));
        assert_eq!(tree.child_toward(ids[1], ids[0]), None);
        assert_eq!(tree.child_toward(ids[1], ids[1]), None);
        assert_eq!(
            tree.path_down(ids[0], ids[2]),
            Some(vec![ids[0], ids[1], ids[2]])
        );
        assert_eq!(tree.path_down(ids[0], ids[0]), Some(vec![ids[0]]));
        assert_eq!(tree.path_down(ids[1], ids[0]), None);
    }

    #[test]
    fn link_space_on_tree_network_has_one_class() {
        let (net, ids, clients) = star();
        let forest = SpanningForest::compute(&net);
        let space = LinkSpace::build(&net, &forest, ids[1]);
        assert_eq!(space.class_count(), 1);
        assert_eq!(space.link_count(), 4); // B0, B2, B3, local client
        assert_eq!(space.width(), 4);

        // Local client: Yes on its client link.
        let local = space.leaf_vector(clients[1]);
        let client_link = net.link_to_client(ids[1], clients[1]).unwrap();
        assert_eq!(
            local.yes_indices().collect::<Vec<_>>(),
            vec![client_link.index()]
        );

        // Remote client at B2: Yes on the link toward B2.
        let remote = space.leaf_vector(clients[2]);
        let link = net.link_to_broker(ids[1], ids[2]).unwrap();
        assert_eq!(remote.yes_indices().collect::<Vec<_>>(), vec![link.index()]);
    }

    #[test]
    fn init_mask_excludes_upstream_links() {
        let (net, ids, _) = star();
        let forest = SpanningForest::compute(&net);
        let tree = forest.tree_for_root(ids[0]).unwrap();
        let space = LinkSpace::build(&net, &forest, ids[1]);
        let mask = space.init_mask(tree);
        // From B1 on the tree rooted at B0: downstream = B2, B3, local
        // client; upstream = B0.
        let up = net.link_to_broker(ids[1], ids[0]).unwrap();
        assert_eq!(mask.get(up.index()), Trit::No);
        assert_eq!(mask.count_maybe(), 3);
    }

    #[test]
    fn leaf_broker_mask_covers_only_local_clients() {
        let (net, ids, _) = star();
        let forest = SpanningForest::compute(&net);
        let tree = forest.tree_for_root(ids[0]).unwrap();
        let space = LinkSpace::build(&net, &forest, ids[2]);
        let mask = space.init_mask(tree);
        assert_eq!(mask.count_maybe(), 1, "only the local client is downstream");
    }

    #[test]
    fn cyclic_topology_can_need_multiple_classes() {
        // Square B0-B1-B2-B3-B0 with unit delays: the tree rooted at B0
        // reaches B2's client via B1 (tie-break), while the tree rooted at
        // B2 makes B2 the root (client local, no forwarding). From B1's
        // perspective the mapping for B2's client differs across trees:
        // downstream in tree(B0), absent in tree(B2).
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(4);
        b.connect(ids[0], ids[1], 10.0).unwrap();
        b.connect(ids[1], ids[2], 10.0).unwrap();
        b.connect(ids[2], ids[3], 10.0).unwrap();
        b.connect(ids[3], ids[0], 10.0).unwrap();
        for &id in &ids {
            b.add_client(id).unwrap();
        }
        let net = b.build().unwrap();
        let forest = SpanningForest::compute(&net);
        assert!(forest.len() >= 2);
        let space = LinkSpace::build(&net, &forest, ids[1]);
        assert!(
            space.class_count() >= 2,
            "cyclic topology should split virtual-link classes, got {}",
            space.class_count()
        );
        assert_eq!(space.width(), space.class_count() * space.link_count());
    }

    #[test]
    fn links_to_send_maps_positions_to_physical_links() {
        let (net, ids, clients) = star();
        let forest = SpanningForest::compute(&net);
        let space = LinkSpace::build(&net, &forest, ids[1]);
        let leaf = space.leaf_vector(clients[3]);
        let links = space.links_to_send(&leaf);
        assert_eq!(links, vec![net.link_to_broker(ids[1], ids[3]).unwrap()]);
    }

    #[test]
    fn tree_id_display() {
        assert_eq!(TreeId(3).to_string(), "T3");
    }

    /// Square B0-B1-B2-B3-B0 with a client per broker (unit delays).
    fn square() -> (BrokerNetwork, Vec<BrokerId>) {
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(4);
        b.connect(ids[0], ids[1], 10.0).unwrap();
        b.connect(ids[1], ids[2], 10.0).unwrap();
        b.connect(ids[2], ids[3], 10.0).unwrap();
        b.connect(ids[3], ids[0], 10.0).unwrap();
        for &id in &ids {
            b.add_client(id).unwrap();
        }
        (b.build().unwrap(), ids)
    }

    #[test]
    fn excluding_a_cycle_edge_reroutes_the_long_way() {
        let (net, ids) = square();
        let forest = SpanningForest::compute_excluding(&net, &[(ids[0], ids[1])]);
        let tree = forest.tree(forest.tree_for_root(ids[0]).unwrap()).unwrap();
        // With 0-1 severed, B1 is reached the long way round: 0-3-2-1.
        assert_eq!(tree.parent(ids[1]), Some(ids[2]));
        assert_eq!(tree.parent(ids[2]), Some(ids[3]));
        assert_eq!(tree.parent(ids[3]), Some(ids[0]));
        for &b in &ids {
            assert!(tree.contains(b), "square stays connected without one edge");
        }
        // The reversed endpoint order must sever the same edge.
        let flipped = SpanningForest::compute_excluding(&net, &[(ids[1], ids[0])]);
        let t2 = flipped
            .tree(flipped.tree_for_root(ids[0]).unwrap())
            .unwrap();
        assert_eq!(t2.parent(ids[1]), Some(ids[2]));
    }

    #[test]
    fn excluding_a_bridge_cuts_brokers_out_of_the_tree() {
        let (net, ids, _) = star();
        // 0-1 is a bridge of the star: B0 ends up alone.
        let forest = SpanningForest::compute_excluding(&net, &[(ids[0], ids[1])]);
        let t1 = forest.tree(forest.tree_for_root(ids[1]).unwrap()).unwrap();
        assert!(!t1.contains(ids[0]));
        assert!(t1.contains(ids[2]));
        assert!(!t1.is_descendant(ids[0], ids[1]));
        assert!(!t1.is_descendant(ids[1], ids[0]));
        assert_eq!(t1.child_toward(ids[1], ids[0]), None);
        assert_eq!(t1.path_down(ids[1], ids[0]), None);
        let t0 = forest.tree(forest.tree_for_root(ids[0]).unwrap()).unwrap();
        assert!(t0.contains(ids[0]));
        assert!(!t0.contains(ids[1]) && !t0.contains(ids[2]) && !t0.contains(ids[3]));
        // A broker outside the tree's component routes nothing, and
        // reachable brokers never map destinations beyond the cut.
        let space0 = LinkSpace::build(&net, &forest, ids[0]);
        let tree1 = forest.tree_for_root(ids[1]).unwrap();
        assert_eq!(space0.init_mask(tree1).count_maybe(), 0);
        let space1 = LinkSpace::build(&net, &forest, ids[1]);
        let tree0 = forest.tree_for_root(ids[0]).unwrap();
        assert_eq!(space1.init_mask(tree0).count_maybe(), 0);
    }

    #[test]
    fn brokers_cut_off_together_each_keep_their_own_tree() {
        // Hub B0 with spokes B1-B3: severing two spokes leaves B1 and B2
        // each alone, two one-broker trees of the same (empty) shape.
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(4);
        for &spoke in &ids[1..] {
            b.connect(ids[0], spoke, 10.0).unwrap();
        }
        let clients: Vec<ClientId> = ids.iter().map(|&i| b.add_client(i).unwrap()).collect();
        let net = b.build().unwrap();
        let forest = SpanningForest::compute_excluding(&net, &[(ids[0], ids[2]), (ids[0], ids[1])]);
        assert_eq!(forest.len(), ids.len());
        for &cut in &ids[1..3] {
            let tree = forest.tree_for_root(cut).unwrap();
            assert_eq!(forest.tree(tree).unwrap().root(), cut);
            assert!(forest.tree(tree).unwrap().contains(cut));
            // The broker still routes its own publishers' events to its
            // own subscribers.
            let space = LinkSpace::build(&net, &forest, cut);
            let local = net.link_to_client(cut, clients[cut.index()]).unwrap();
            let position = space.position(space.class(tree), local);
            assert_eq!(space.init_mask(tree).get(position), Trit::Maybe);
        }
    }

    #[test]
    fn roots_are_sorted_and_tree_adjacency_tracks_the_forest() {
        let (net, ids, _) = star();
        let forest = SpanningForest::compute(&net);
        // One tree per broker, in broker order: a tree id is its root.
        let roots: Vec<BrokerId> = forest.iter().map(|(_, t)| t.root()).collect();
        assert_eq!(roots, ids);
        for (id, tree) in forest.iter() {
            assert_eq!(id.index(), tree.root().index());
        }
        assert!(forest.tree_adjacent(ids[0], ids[1]));
        assert!(forest.tree_adjacent(ids[1], ids[0]));
        assert!(!forest.tree_adjacent(ids[0], ids[2]), "not an edge");
        let (net2, ids2) = square();
        let full = SpanningForest::compute(&net2);
        let cut = SpanningForest::compute_excluding(&net2, &[(ids2[0], ids2[1])]);
        // The severed edge is tree-adjacent in the full forest but cannot
        // be in the repaired one; some surviving edge takes over.
        assert!(full.tree_adjacent(ids2[0], ids2[1]));
        assert!(!cut.tree_adjacent(ids2[0], ids2[1]));
        assert!(cut.tree_adjacent(ids2[1], ids2[2]));
    }

    /// Satellite: incremental recompute after k link removals must agree
    /// with a from-scratch `compute` over the surviving graph — tree
    /// for tree, parent for parent — and never orphan a reachable broker.
    mod repair_equivalence {
        use std::collections::HashSet;

        use proptest::prelude::*;

        use super::*;

        /// Random connected multigraph: a random tree plus chord edges.
        #[derive(Debug, Clone)]
        struct Graph {
            parents: Vec<usize>,
            chords: Vec<(usize, usize)>,
            /// Candidate removals, as indices into the edge list.
            removals: Vec<usize>,
        }

        fn graph_strategy() -> impl Strategy<Value = Graph> {
            (3usize..8).prop_flat_map(|n| {
                let parents = proptest::collection::vec(0usize..n, n - 1)
                    .prop_map(|raw| raw.iter().enumerate().map(|(i, &p)| p % (i + 1)).collect());
                let chords = proptest::collection::vec((0usize..n, 0usize..n), 1..4);
                let removals = proptest::collection::vec(0usize..(n + 3), 1..4);
                (parents, chords, removals).prop_map(|(parents, chords, removals)| Graph {
                    parents,
                    chords,
                    removals,
                })
            })
        }

        fn edge_list(g: &Graph) -> Vec<(usize, usize)> {
            let mut edges: Vec<(usize, usize)> = g
                .parents
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i + 1))
                .collect();
            for &(a, b) in &g.chords {
                let (a, b) = (a.min(b), a.max(b));
                if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
                    edges.push((a, b));
                }
            }
            edges
        }

        fn connected(n: usize, edges: &[(usize, usize)]) -> bool {
            let mut seen = HashSet::from([0usize]);
            let mut stack = vec![0usize];
            while let Some(v) = stack.pop() {
                for &(a, b) in edges {
                    let next = if a == v {
                        b
                    } else if b == v {
                        a
                    } else {
                        continue;
                    };
                    if seen.insert(next) {
                        stack.push(next);
                    }
                }
            }
            seen.len() == n
        }

        fn build(n: usize, edges: &[(usize, usize)]) -> BrokerNetwork {
            let mut b = NetworkBuilder::new();
            let ids = b.add_brokers(n);
            for &(x, y) in edges {
                b.connect(ids[x], ids[y], 10.0).unwrap();
            }
            for &id in &ids {
                b.add_client(id).unwrap();
            }
            b.build().unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn incremental_recompute_matches_from_scratch(g in graph_strategy()) {
                let n = g.parents.len() + 1;
                let edges = edge_list(&g);
                // Greedily honor each removal candidate while the surviving
                // graph stays connected (NetworkBuilder rejects
                // disconnected graphs, and a connected survivor is the
                // interesting repair case anyway).
                let mut surviving = edges.clone();
                let mut removed: Vec<(usize, usize)> = Vec::new();
                for &r in &g.removals {
                    if surviving.len() < 2 {
                        break;
                    }
                    let idx = r % surviving.len();
                    let candidate: Vec<_> = surviving
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &e)| (i != idx).then_some(e))
                        .collect();
                    if connected(n, &candidate) {
                        removed.push(surviving[idx]);
                        surviving = candidate;
                    }
                }
                prop_assume!(!removed.is_empty());

                let full = build(n, &edges);
                let excluded: Vec<(BrokerId, BrokerId)> = removed
                    .iter()
                    .map(|&(a, b)| (BrokerId::new(a as u32), BrokerId::new(b as u32)))
                    .collect();
                let incremental = SpanningForest::compute_excluding(&full, &excluded);
                let scratch_net = build(n, &surviving);
                let scratch = SpanningForest::compute(&scratch_net);

                prop_assert_eq!(incremental.len(), scratch.len());
                for root in full.brokers() {
                    let a = incremental
                        .tree(incremental.tree_for_root(root).unwrap())
                        .unwrap();
                    let b = scratch.tree(scratch.tree_for_root(root).unwrap()).unwrap();
                    prop_assert_eq!(a.root(), b.root());
                    for broker in full.brokers() {
                        prop_assert_eq!(a.parent(broker), b.parent(broker));
                        prop_assert_eq!(a.children(broker), b.children(broker));
                        // No orphans: the survivor is connected, so every
                        // broker must sit inside every repaired tree.
                        prop_assert!(a.contains(broker));
                    }
                }
            }
        }
    }
}
