//! Arena-flattened link-matching: the annotated PST compiled into a
//! contiguous struct-of-arrays index space.
//!
//! The PST keeps the edges; the per-broker annotations live beside it,
//! keyed by node. The [`MatchArena`] is the match-time view of the
//! annotated tree: node fields live in parallel vectors indexed by a dense
//! `u32`, every node's trit annotation occupies a fixed-width slot in one
//! contiguous word slab, and each node names the PST node whose sorted
//! equality, range and `*` edges a search follows on from it — one copy of
//! every edge list, the PST's, binary-searched where it is. A search is
//! then index arithmetic plus word ops against the slab, with all masks
//! drawn from a reusable [`MatchScratch`] pool — no allocation per event,
//! no per-child mask clone.
//!
//! Trivial-test skip pointers (§2.1.2) are followed as a search takes an
//! edge: it enters the child's skip target, so `*`-only chains cost nothing
//! at match time. This preserves results because a trivial node's
//! annotation equals its star child's annotation (the alternative fold
//! over zero value branches contributes all-`No`, the identity of
//! *Parallel Combine*), and refinement is idempotent over equal
//! annotations.
//!
//! The same idempotence compresses single-choice *runs*. A PST node is
//! **absorbed** into its child when it has exactly one equality-or-range
//! edge, no `*` edge, and the same annotation as that child, word for word
//! (subscriptions sit on leaves only, which have no edges). A maximal
//! absorbed sequence `n1..nk` is one arena node: `nk`'s ordinary content
//! plus a *prefix* of the `k - 1` absorbed tests. A search entering it
//! refines once, checks the prefix, and carries on at `nk`'s edges — the
//! result the node-per-test walk reaches, because refining by an equal
//! annotation changes nothing, and a `*`-less single-edge parent returns
//! exactly what its child returns (a `Maybe`-free mask) or, when its test
//! fails, its own mask with every `Maybe` turned `No`. Which nodes are
//! absorbed is a function of the PST and its annotations alone, so the
//! arena a mutation history leaves walks exactly like a fresh compile.
//!
//! The tree mirrored is the *logical* one. A PST tail — one node parking
//! subscriptions above leaf level, in place of the unshared chain of
//! single-edge nodes down to their leaf — is one arena node too, and a
//! search that enters it is charged, right there, what the chain's nodes
//! would charge: a step per node the run rule and trivial-test elimination
//! leave standing, a comparison and a [`WalkEvidence`] record per test,
//! under the annotations those nodes would carry — the tail's own down to
//! the last test that can fail, the leaf's (the same with every `Maybe` a
//! `Yes`) below it. The tests stay where they are, in the predicate of a
//! subscription parked there, read through its slab slot
//! ([`Pst::slot_tests`]). When an insert makes part of a tail's chain real
//! the logical tree has not changed: the node is re-cut into the runs the
//! new PST nodes form, by the rule that cuts any other.
//!
//! The arena is compiled from the PST once and then patched in place: a
//! [`MutationReport`] names the path each subscribe or unsubscribe
//! touched, so it rewrites the annotation slots on the path, the nodes it
//! created or pruned, and the run boundaries the path crosses — nothing
//! proportional to a node's fan-out. Prefix spans grow by doubling and
//! pruned nodes go on a free list; a fresh compile happens only as
//! compaction, once dead slots dominate.

// The per-event match walk, on the broker's engine thread: the shipped code
// neither unwraps nor indexes nor panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use linkcast_matching::{MatchStats, MutationReport, NodeId, NodeRef, PathReport, Pst};
use linkcast_types::{AttrTest, Event, RangeLookup, TritVec, Value};

use crate::annotate::{can_fail, Annotations};

/// Sentinel for "no node" in `u32` index fields.
const NONE: u32 = u32::MAX;

/// Dead slots tolerated before they are weighed against live ones, so tiny
/// arenas never compact.
const COMPACT_FLOOR: usize = 64;

/// One node's window `[start, start + cap)` into an [`EdgeTable`]'s arrays;
/// the first `len` entries are its live tests, the rest is slack to grow
/// into. Slack sits at the end, never between live tests.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    fn live(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// What an arena node that mirrors a PST leaf or tail keeps of the chain of
/// single-edge nodes it stands for: where the chain's tests are, where its
/// annotation changes, and the shape the run rule would give it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tail {
    /// Slab slot of a subscription parked on the PST node: the chain's
    /// tests are `pst.slot_tests(slot)[order[order.len() - len..]]`.
    slot: u32,
    /// Levels of the chain (0 for a leaf proper).
    len: u16,
    /// Levels down to and including the last test that can fail, 0 if none
    /// can: the nodes from this level on carry the leaf's annotation.
    cut: u16,
    /// Tests the run rule folds into prefixes: all but the `*` levels and
    /// (unless the annotation is all-`No`, above it as below) the last
    /// that can fail, which get nodes of their own.
    tests: u16,
    /// Of those, the ones in the prefix of the chain's topmost node, which
    /// continues the prefix (of real parents) this arena node holds.
    top_tests: u16,
    /// Nodes of the chain below the topmost with a prefix of their own.
    lower_runs: u16,
}

impl Tail {
    /// What an interior node holds.
    const NONE: Tail = Tail {
        slot: NONE,
        len: 0,
        cut: 0,
        tests: 0,
        top_tests: 0,
        lower_runs: 0,
    };

    fn is_some(self) -> bool {
        self.slot != NONE
    }
}

/// The tests every node's run absorbed, with the attribute each one reads,
/// in parallel arrays: one contiguous span per node.
#[derive(Debug, Clone, Default)]
struct EdgeTable {
    tests: Vec<AttrTest>,
    attrs: Vec<u32>,
    /// Per-node span.
    spans: Vec<Span>,
    /// Σ `len` over all spans.
    live: usize,
}

impl EdgeTable {
    /// The live tests of `node` and the attributes they read.
    fn edges(&self, node: usize) -> (&[AttrTest], &[u32]) {
        let live = self.spans.get(node).copied().unwrap_or_default().live();
        (
            self.tests.get(live.clone()).unwrap_or(&[]),
            self.attrs.get(live).unwrap_or(&[]),
        )
    }

    /// Makes `edges` the whole of `node`'s (empty) span, in a fresh window
    /// of exactly their number when the current one is too small.
    fn fill(&mut self, node: usize, edges: impl ExactSizeIterator<Item = (AttrTest, u32)>) {
        let Some(span) = self.spans.get_mut(node) else {
            return;
        };
        debug_assert_eq!(span.len, 0, "fill() is for freshly appended nodes");
        if (span.cap as usize) < edges.len() {
            span.start = self.tests.len() as u32;
            span.cap = edges.len() as u32;
            span.len = span.cap;
            self.live += edges.len();
            for (test, attr) in edges {
                self.tests.push(test);
                self.attrs.push(attr);
            }
            return;
        }
        for (at, (test, attr)) in edges.enumerate() {
            self.insert(node, at, test, attr);
        }
    }

    /// Inserts a test at position `at` of `node`'s span, shifting the
    /// later ones up. A full span first moves to a fresh one of twice the
    /// capacity at the end of the arrays (amortised O(1); the old window
    /// is dead until the next compaction).
    fn insert(&mut self, node: usize, at: usize, test: AttrTest, attr: u32) {
        let Some(mut span) = self.spans.get(node).copied() else {
            return;
        };
        if span.len == span.cap {
            let start = self.tests.len();
            let cap = (span.cap as usize * 2).max(1);
            self.tests.extend_from_within(span.live());
            self.attrs.extend_from_within(span.live());
            self.tests.resize(start + cap, test.clone());
            self.attrs.resize(start + cap, NONE);
            span.start = start as u32;
            span.cap = cap as u32;
        }
        let at = span.start as usize + at.min(span.len as usize);
        let end = span.start as usize + span.len as usize;
        if let Some(window) = self.tests.get_mut(at..=end) {
            window.rotate_right(1);
            if let Some(first) = window.first_mut() {
                *first = test;
            }
        }
        if let Some(window) = self.attrs.get_mut(at..=end) {
            window.rotate_right(1);
            if let Some(first) = window.first_mut() {
                *first = attr;
            }
        }
        span.len += 1;
        self.live += 1;
        if let Some(slot) = self.spans.get_mut(node) {
            *slot = span;
        }
    }

    /// Appends a test to `node`'s span.
    fn push(&mut self, node: usize, test: AttrTest, attr: u32) {
        self.insert(node, self.len(node), test, attr);
    }

    /// Number of live tests of `node`.
    fn len(&self, node: usize) -> usize {
        self.spans.get(node).map_or(0, |span| span.len as usize)
    }

    /// Appends copies of `from`'s tests, from position `start` on, to
    /// `to`'s span.
    fn extend_from(&mut self, to: usize, from: usize, start: usize) {
        for at in start..self.len(from) {
            let (tests, attrs) = self.edges(from);
            if let (Some(test), Some(attr)) = (tests.get(at).cloned(), attrs.get(at)) {
                self.push(to, test, *attr);
            }
        }
    }

    /// Drops every test of `node`'s span from position `len` on.
    fn truncate(&mut self, node: usize, len: usize) {
        if let Some(span) = self.spans.get_mut(node) {
            let cut = (span.len as usize).saturating_sub(len);
            span.len -= cut as u32;
            self.live -= cut;
        }
    }

    /// Empties `node`'s span, keeping its window for the slot's next owner.
    fn clear(&mut self, node: usize) {
        self.truncate(node, 0);
    }
}

/// The flattened, annotated match-time form of one engine's PST.
#[derive(Debug, Clone, Default)]
pub struct MatchArena {
    /// Trits per annotation/mask (the link-space width).
    width: usize,
    /// Words per annotation slot in [`ann_words`](Self::ann_words).
    words_per_mask: usize,
    /// Per-node attribute index tested at the node (a run's last PST
    /// node, its *tail*; where that is a PST tail, by the first node of its
    /// chain); `NONE` for leaves.
    attr: Vec<u32>,
    /// Per node, the PST node that ends its run: the one whose equality,
    /// range and `*` edges a search follows on from it, read from the PST
    /// itself. `None` on free slots.
    end: Vec<Option<NodeId>>,
    /// The tests a node's run absorbed, with the attribute each one reads,
    /// tail end first: the test of the tail's parent at position 0, the
    /// run's topmost test last, so a run grows upward by appending and is
    /// cut by truncating.
    prefix: EdgeTable,
    /// Per node, the chain it stands for below its own level, if it mirrors
    /// a PST leaf or tail; [`Tail::NONE`] on interior nodes.
    tail: Vec<Tail>,
    /// Whether edges skip `*`-only nodes (trivial-test elimination), which
    /// goes for the `*` levels of a tail's chain as well.
    skipping: bool,
    /// Annotation slab: node `i`'s trits at
    /// `[i * words_per_mask, (i + 1) * words_per_mask)`.
    ann_words: Vec<u64>,
    /// Factored-subtree roots (PST ids), sorted by key for borrow-keyed
    /// binary search against event values.
    roots: Vec<(Box<[Value]>, NodeId)>,
    /// Factored attribute indices (the root-key schema).
    factored: Vec<usize>,
    /// PST `NodeId::index()` → arena index, the same for every node of a
    /// run; `NONE` for dead/unknown slots.
    map: Vec<u32>,
    /// Node slots whose PST node was pruned, reused by later appends.
    free: Vec<u32>,
    /// Attribute indices that can influence the walk's branching: the
    /// factored attributes plus every `order` attribute whose level has at
    /// least one equality or range edge (absorbed into a prefix or not)
    /// somewhere in the tree. Sorted.
    /// Attributes outside this set cannot change the match result, which is
    /// exactly why the match-result cache keys on these and only these. An
    /// unsubscribe never shrinks the set (a superset only splits cache
    /// entries that could have been shared); compaction recomputes it.
    tested: Vec<usize>,
    /// Upper bound on the walk's stack depth (root-to-leaf node count).
    max_depth: usize,
    /// Attributes of the schema: what a [`WalkEvidence`] is sized for.
    arity: usize,
    /// Work buffer for the prefix a run is being built with (empty between
    /// calls; kept for its capacity, so a subscribe allocates nothing here).
    run_tests: Vec<(AttrTest, u32)>,
}

impl MatchArena {
    /// Flattens `pst` and its `annotations` into a fresh arena: every live
    /// node appended children-first, so each span is exactly as long as its
    /// run's prefix and nothing is dead.
    pub(crate) fn build(pst: &Pst, annotations: &Annotations) -> Self {
        let width = annotations.width();
        let mut arena = MatchArena {
            width,
            words_per_mask: TritVec::no(width).words().len(),
            skipping: pst.options().eliminate_trivial_tests,
            factored: pst.factored().to_vec(),
            tested: pst.factored().to_vec(),
            max_depth: pst.order().len() + 1,
            arity: pst.schema().arity(),
            map: vec![NONE; pst.arena_size()],
            ..MatchArena::default()
        };
        arena.append_runs(pst, pst.postorder().into_iter(), annotations);
        arena.roots = pst.roots().map(|(key, root)| (key.into(), root)).collect();
        arena.roots.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        arena.tested.sort_unstable();
        arena.tested.dedup();
        arena
    }

    /// Applies one PST mutation in place. Everything a mutation can change
    /// lives on the reported paths: annotations change only there, and run
    /// boundaries move only where the rule's inputs did — at path nodes, and
    /// below the node whose edge count changed, in the run of the one child
    /// it has left (remove) or had to itself before (insert). Edges need no
    /// patch: a search reads them, and the skip pointers they resolve
    /// through, from the PST. Recompiles only to compact, when dead slots
    /// (abandoned and slack prefix slots, free node slots) outnumber live
    /// ones three to one: a span's first relocation after a compile can
    /// strand twice its length for a single insert, so any lower bar could
    /// be hit again and again by a handful of mutations.
    pub(crate) fn apply_mutation(
        &mut self,
        pst: &Pst,
        report: &MutationReport,
        annotations: &Annotations,
    ) {
        if self.map.len() < pst.arena_size() {
            self.map.resize(pst.arena_size(), NONE);
        }
        for path in report.paths() {
            self.apply_path(pst, path, annotations);
        }
        let tests = self.prefix.live;
        let live = self.node_count() + tests;
        let dead = self.free.len() + self.edge_slots() - tests;
        if dead > 3 * live + COMPACT_FLOOR {
            *self = Self::build(pst, annotations);
        }
    }

    /// Mirrors one reported path.
    fn apply_path(&mut self, pst: &Pst, path: &PathReport, annotations: &Annotations) {
        // Top of the pruned chain first: the free list is a stack and
        // appends go leaf first, so the next chain of the same shape gets
        // each slot back in its old role, prefix windows fitting. A pruned
        // run's nodes are consecutive and share one slot.
        let mut released = NONE;
        for id in path.freed.iter().rev() {
            let Some(slot) = self.map.get_mut(id.index()) else {
                continue;
            };
            let idx = std::mem::replace(slot, NONE);
            if idx != NONE && idx != released {
                self.release(idx);
                released = idx;
            }
        }
        // What is new to the logical tree. A burst made nodes of a chain
        // the arena holds already, as one node: only the newcomer's tail
        // is, hanging off the fork.
        let created = match path.burst {
            Some(parked) => {
                self.spell_out(pst, path, parked, annotations);
                path.nodes.len().saturating_sub(1)
            }
            None => path.created,
        };
        // Leaf first, the order `append_runs` folds runs in.
        let fresh = path.nodes.iter().skip(created).rev();
        self.append_runs(pst, fresh.copied(), annotations);

        // The nodes that were there before, `nodes[i]` at tree level `i`.
        let mut existing = path.nodes.get(..created).unwrap_or(&path.nodes);
        // A leaf or tail among them gained or lost a subscriber: what its
        // chain says about any link, and where its tests are read, may
        // have changed.
        if let Some((last, above)) = existing.split_last() {
            if pst.node(*last).is_leaf() {
                self.write_tail(self.translate(*last), pst, *last, annotations);
                existing = above;
            }
        }
        // Runs are re-cut in two passes around the annotation copy: first
        // every node the rule no longer absorbs gets its own arena node
        // back, last every node the rule newly absorbs gives its arena node
        // up.
        for (i, id) in existing.iter().enumerate().rev() {
            if !self.ends_run(pst, i, *id) && absorbed_into(pst, annotations, *id).is_none() {
                self.split(pst, existing, i, annotations);
            }
        }
        // A new root, or a level that may branch for the first time.
        if let Some(child) = path.nodes.get(created) {
            match created.checked_sub(1).and_then(|p| path.nodes.get(p)) {
                None => self.add_root(&path.key, *child),
                Some(parent) => self.mark_branching(pst, *parent),
            }
        }
        if path.removed.is_some() && path.nodes.is_empty() {
            self.remove_root(&path.key);
        }
        for (i, id) in existing.iter().enumerate() {
            if self.ends_run(pst, i, *id) {
                self.set_annotation(self.translate(*id), annotations.get(*id));
            }
        }
        for (i, id) in existing.iter().enumerate().rev() {
            if !self.ends_run(pst, i, *id) {
                continue;
            }
            if let Some((child, test, attr)) = absorbed_into(pst, annotations, *id) {
                self.merge(pst, *id, child, (test, attr));
            }
        }
    }

    /// Re-states, ahead of the passes that re-cut runs, what a burst did to
    /// the tail `nodes[created - 1]`: the levels of its chain down to the
    /// fork `nodes[len - 2]` are real single-edge nodes now, and its
    /// subscriptions sit on `parked` below the fork. The arena node
    /// becomes the run of all of them — the chain's tests at those levels
    /// join its prefix, what is left of the chain is `parked`'s — which is
    /// what the rule makes of them only where they are value-edged and
    /// annotated alike; the split pass cuts it wherever they are not (at
    /// the fork, always), like any run the mutation invalidated.
    fn spell_out(
        &mut self,
        pst: &Pst,
        path: &PathReport,
        parked: NodeId,
        annotations: &Annotations,
    ) {
        let Some(from) = path.created.checked_sub(1) else {
            return;
        };
        let fork = path.nodes.len().saturating_sub(2);
        let idx = path.nodes.get(from).map_or(NONE, |id| self.translate(*id));
        let slot = pst.node(parked).residual_slot();
        let tests = pst.slot_tests(slot.unwrap_or(NONE));
        for level in from..=fork {
            // The node this level's edge leads to: the next one down the
            // path, or below the fork `parked`, which `write_tail` maps.
            let below = path.nodes.get(level + 1).filter(|_| level < fork);
            if let Some(slot) = below.and_then(|id| self.map.get_mut(id.index())) {
                *slot = idx;
            }
            let attr = pst.order().get(level).copied();
            if let Some((attr, test)) = attr.and_then(|a| Some((a, tests.get(a)?))) {
                // Tail end first: the deeper level's test goes in front.
                let test = test.clone();
                self.prefix.insert(idx as usize, 0, test, attr as u32);
            }
        }
        self.write_tail(idx, pst, parked, annotations);
    }

    /// Appends the arena images of the PST nodes `ids`, which must come
    /// children first: every node the run rule does not absorb gets an
    /// arena node (a free slot if there is one), and the absorbed parents
    /// that follow it — an only child's parent is next in any
    /// children-first order — become that node's prefix. A tail is one
    /// node, whatever its chain, and its parents may be absorbed into it:
    /// into the run its chain opens with.
    fn append_runs(
        &mut self,
        pst: &Pst,
        ids: impl Iterator<Item = NodeId>,
        annotations: &Annotations,
    ) {
        let mut ids = ids.peekable();
        let mut tests = std::mem::take(&mut self.run_tests);
        while let Some(end) = ids.next() {
            let idx = self.alloc();
            if pst.node(end).is_leaf() {
                self.write_tail(idx, pst, end, annotations);
            } else {
                self.write(idx, pst, end, annotations);
            }
            let mut below = end;
            while let Some(id) = ids.peek().copied() {
                match absorbed_into(pst, annotations, id) {
                    Some((child, test, attr)) if child == below => {
                        self.mark_tested(attr);
                        tests.push((test, attr));
                    }
                    _ => break,
                }
                if let Some(slot) = self.map.get_mut(id.index()) {
                    *slot = idx;
                }
                below = id;
                ids.next();
            }
            self.prefix.fill(idx as usize, tests.drain(..));
        }
        self.run_tests = tests;
    }

    /// Makes node slot `idx` (blank, or this tail's already) the image of
    /// leaf or tail `id`: its annotation, where its chain's tests are read,
    /// and the shape the run rule gives the single-edge nodes it stands
    /// for, bottom up — the leaf, then per level a node of its own for a
    /// `*` test and for the last test that can fail (where the annotation
    /// changes from the leaf's to the tail's, unless both are all-`No`),
    /// and a place in the prefix of the node below for every other test.
    /// [`search`](Self::search) walks that shape without its being stored;
    /// [`summary`](Self::summary) reports it.
    fn write_tail(&mut self, idx: u32, pst: &Pst, id: NodeId, annotations: &Annotations) {
        let node = pst.node(id);
        let chain = node.residual();
        self.set_annotation(idx, annotations.get(id));
        let flat = self.ann(idx).iter().all(|word| *word == 0);
        let mut tail = Tail {
            slot: node.residual_slot().unwrap_or(NONE),
            len: chain.len() as u16,
            ..Tail::NONE
        };
        // Tests in the prefix of the lowest node so far.
        let mut run = 0;
        for (level, (attr, test)) in chain.enumerate().rev() {
            if !test.is_wildcard() {
                self.mark_tested(attr as u32);
                // The first test from the bottom that can fail is the last.
                let last_failing = tail.cut == 0 && can_fail(pst, attr, test);
                if last_failing {
                    tail.cut = level as u16 + 1;
                }
                if !last_failing || flat {
                    run += 1;
                    continue;
                }
            }
            tail.tests += run;
            tail.lower_runs += u16::from(run > 0);
            run = 0;
        }
        tail.tests += run;
        tail.top_tests = run;
        if let Some(slot) = self.tail.get_mut(idx as usize) {
            *slot = tail;
        }
        self.name(idx, id, node.attribute());
    }

    /// Maps PST node `id` to node slot `idx`, the end of whose run it is:
    /// the slot tests what `id` does, and carries on along its edges.
    fn name(&mut self, idx: u32, id: NodeId, attribute: Option<usize>) {
        if let Some(slot) = self.map.get_mut(id.index()) {
            *slot = idx;
        }
        if let Some(slot) = self.attr.get_mut(idx as usize) {
            *slot = attribute.map_or(NONE, |a| a as u32);
        }
        if let Some(slot) = self.end.get_mut(idx as usize) {
            *slot = Some(id);
        }
    }

    /// A blank node slot: the most recently freed one, else a new one.
    fn alloc(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            return idx;
        }
        self.attr.push(NONE);
        self.end.push(None);
        self.tail.push(Tail::NONE);
        self.prefix.spans.push(Span::default());
        self.ann_words
            .resize(self.ann_words.len() + self.words_per_mask, 0);
        (self.attr.len() - 1) as u32
    }

    /// Makes the blank slot `idx` the image of interior PST node `id` —
    /// its attribute, its annotation, and its edges to carry on along — as
    /// the end of a run with no prefix yet.
    fn write(&mut self, idx: u32, pst: &Pst, id: NodeId, annotations: &Annotations) {
        self.name(idx, id, pst.node(id).attribute());
        self.mark_branching(pst, id);
        self.set_annotation(idx, annotations.get(id));
    }

    /// Retires node slot `idx`: emptied, prefix window kept, blank again,
    /// it waits on the free list for the next [`alloc`](Self::alloc).
    fn release(&mut self, idx: u32) {
        let at = idx as usize;
        self.prefix.clear(at);
        if let Some(slot) = self.attr.get_mut(at) {
            *slot = NONE;
        }
        if let Some(slot) = self.end.get_mut(at) {
            *slot = None;
        }
        if let Some(slot) = self.tail.get_mut(at) {
            *slot = Tail::NONE;
        }
        self.free.push(idx);
    }

    /// Whether `id` at tree level `level` ends its run: it is the node
    /// whose edges (or chain) the arena node holds, rather than absorbed. A
    /// run's nodes sit on consecutive levels, so only the last tests the
    /// arena node's attribute.
    fn ends_run(&self, pst: &Pst, level: usize, id: NodeId) -> bool {
        let attr = pst.order().get(level).map_or(NONE, |a| *a as u32);
        self.attr.get(self.translate(id) as usize) == Some(&attr)
    }

    /// Cuts the run of `nodes[i]` (absorbed so far) below it. The arena
    /// node keeps the upper part — `nodes[i]` as its new end, the prefix
    /// tests above it — so whatever leads into the run still does; the
    /// lower part moves to a fresh node with the rest of the prefix (and
    /// the chain, if it ends in a tail).
    fn split(&mut self, pst: &Pst, nodes: &[NodeId], i: usize, annotations: &Annotations) {
        let Some(&id) = nodes.get(i) else {
            return;
        };
        let run = self.translate(id);
        let members_above = nodes.iter().take(i).rev();
        let above = members_above
            .take_while(|n| self.translate(**n) == run)
            .count();
        // Tail end first: the lower part's tests, `id`'s own, then those of
        // the nodes above it.
        let len = self.prefix.len(run as usize);
        let Some(kept) = len.checked_sub(above + 1) else {
            return;
        };
        let lower = self.alloc();
        self.swap_slots(run, lower);
        self.prefix
            .extend_from(run as usize, lower as usize, kept + 1);
        self.prefix.truncate(lower as usize, kept);
        self.remap(pst, id, run, kept + 1, lower);
        self.write(run, pst, id, annotations);
    }

    /// Joins `id` — the end of its own run, now absorbed, with `test` on
    /// its one edge — and the prefix above it onto the run of `child`. The
    /// arena node of `id` takes the child's run over, so whatever leads
    /// into it still does; the child's node is freed.
    fn merge(&mut self, pst: &Pst, id: NodeId, child: NodeId, test: (AttrTest, u32)) {
        let (upper, lower) = (self.translate(id), self.translate(child));
        let members = self.prefix.len(lower as usize) + 1;
        self.swap_slots(upper, lower);
        self.prefix.push(upper as usize, test.0, test.1);
        self.prefix.extend_from(upper as usize, lower as usize, 0);
        self.remap(pst, id, lower, members, upper);
        self.release(lower);
    }

    /// Exchanges everything node slots `a` and `b` hold.
    fn swap_slots(&mut self, a: u32, b: u32) {
        let (a, b) = (a as usize, b as usize);
        if a.max(b) >= self.attr.len() {
            return;
        }
        self.attr.swap(a, b);
        self.end.swap(a, b);
        self.tail.swap(a, b);
        self.prefix.spans.swap(a, b);
        for word in 0..self.words_per_mask {
            self.ann_words.swap(
                a * self.words_per_mask + word,
                b * self.words_per_mask + word,
            );
        }
    }

    /// Re-maps the `count` run nodes below `from` — each the child, mapped
    /// to `run`, of the one before — to arena node `to`.
    fn remap(&mut self, pst: &Pst, from: NodeId, run: u32, count: usize, to: u32) {
        let mut at = from;
        for _ in 0..count {
            let mut children = pst.node(at).children();
            let Some(next) = children.find(|c| self.translate(*c) == run) else {
                debug_assert!(false, "a run is a chain of single edges");
                return;
            };
            if let Some(slot) = self.map.get_mut(next.index()) {
                *slot = to;
            }
            at = next;
        }
    }

    /// Files the new subtree root `root` under `key`.
    fn add_root(&mut self, key: &[Value], root: NodeId) {
        if let Err(at) = self.roots.binary_search_by(|(k, _)| (**k).cmp(key)) {
            self.roots.insert(at, (key.into(), root));
        }
    }

    /// Drops the subtree root filed under `key`.
    fn remove_root(&mut self, key: &[Value]) {
        if let Ok(at) = self.roots.binary_search_by(|(k, _)| (**k).cmp(key)) {
            self.roots.remove(at);
        }
    }

    /// Copies `annotation` (all-`No` when absent) into `node`'s slab slot.
    fn set_annotation(&mut self, node: u32, annotation: Option<&[u64]>) {
        let start = node as usize * self.words_per_mask;
        let Some(slot) = self.ann_words.get_mut(start..start + self.words_per_mask) else {
            return;
        };
        match annotation {
            Some(words) => slot.copy_from_slice(words),
            None => slot.fill(0),
        }
    }

    /// Records that PST node `id`'s level branches on values, if it does:
    /// future cache keys must include its attribute.
    fn mark_branching(&mut self, pst: &Pst, id: NodeId) {
        let node = pst.node(id);
        if !node.eq_edges().is_empty() || !node.range_edges().is_empty() {
            self.mark_tested(node.attribute().map_or(NONE, |a| a as u32));
        }
    }

    /// Records that the level testing `attr` branches on values.
    fn mark_tested(&mut self, attr: u32) {
        if attr == NONE {
            return;
        }
        if let Err(at) = self.tested.binary_search(&(attr as usize)) {
            self.tested.insert(at, attr as usize);
        }
    }

    /// The arena index a search entering PST node `id` lands on.
    fn resolve(&self, pst: &Pst, id: NodeId) -> u32 {
        resolve(&self.map, pst, id)
    }

    /// The attribute indices that can influence a match result (sorted).
    pub fn tested_attributes(&self) -> &[usize] {
        &self.tested
    }

    /// Number of live flattened nodes (free-listed slots excluded): one per
    /// run and one per tail, so at most the PST's node count.
    pub fn node_count(&self) -> usize {
        self.attr.len() - self.free.len()
    }

    /// Total length of the prefix arrays: live tests plus span slack plus
    /// windows abandoned by relocations.
    pub fn edge_slots(&self) -> usize {
        self.prefix.tests.len()
    }

    /// How much of the logical tree the run compression folds away —
    /// counted as if every tail's chain were spelled out, so a function of
    /// the subscription set and the order alone — and what is kept for it.
    pub fn summary(&self) -> ArenaSummary {
        let mut summary = ArenaSummary {
            nodes: self.node_count(),
            covered_nodes: self.node_count() + self.prefix.live,
            prefix_tests: self.prefix.live,
            edge_slots: self.edge_slots(),
            free_nodes: self.free.len(),
            ..ArenaSummary::default()
        };
        for (tail, prefix) in self.tail.iter().zip(&self.prefix.spans) {
            // The chain's topmost node continues this node's prefix.
            summary.runs += usize::from(prefix.len > 0 || tail.top_tests > 0);
            summary.runs += usize::from(tail.lower_runs);
            summary.prefix_tests += usize::from(tail.tests);
            summary.covered_nodes += usize::from(tail.len);
        }
        summary
    }

    /// Everything a search can reach, node by node in the order a
    /// depth-first walk from the roots (ascending by key) first meets them
    /// and named by that order: two arenas with equal outlines walk every
    /// event alike, wherever they keep their nodes.
    #[cfg(test)]
    pub(crate) fn outline(&self, pst: &Pst) -> Vec<String> {
        let mut names = std::collections::HashMap::new();
        let mut pending = Vec::new();
        let mut name = |node: u32, pending: &mut Vec<u32>| {
            let next = names.len();
            *names.entry(node).or_insert_with(|| {
                pending.push(node);
                next
            })
        };
        let mut out = Vec::new();
        for (key, root) in &self.roots {
            let root = resolve(&self.map, pst, *root);
            out.push(format!("{key:?} -> #{}", name(root, &mut pending)));
            while let Some(node) = pending.pop() {
                let (i, mut fresh) = (node as usize, Vec::new());
                let (tests, attrs) = self.prefix.edges(i);
                let end = self.end_of(pst, node);
                let mut target = |c: &NodeId| name(resolve(&self.map, pst, *c), &mut fresh);
                let (eq, ranges) =
                    end.map_or((&[][..], &[][..]), |n| (n.eq_edges(), n.range_edges()));
                let values: Vec<_> = eq.iter().map(|(v, _)| v).collect();
                let eq: Vec<_> = eq.iter().map(|(_, c)| target(c)).collect();
                let range: Vec<_> = ranges.iter().map(|(_, c)| target(c)).collect();
                let ranges: Vec<_> = ranges.iter().map(|(t, _)| t).collect();
                let star = end.and_then(|n| n.star()).map(|c| target(&c));
                let own = name(node, &mut fresh);
                // A tail by what it stands for, wherever its tests live.
                let tail = self.tail[i];
                let chain: Vec<_> = self.chain(pst, tail).collect();
                let tail = tail.is_some().then_some(Tail { slot: 0, ..tail });
                out.push(format!(
                    "#{} attr {} ann {:x?} prefix {tests:?} on {attrs:?} eq {values:?} -> {eq:?} \
                     ranges {ranges:?} -> {range:?} star {star:?} chain {chain:?} {tail:?}",
                    own,
                    self.attr[i] as i32,
                    self.ann(node),
                ));
                pending.extend(fresh.into_iter().rev());
            }
        }
        out
    }

    /// The arena root for `event`'s factor key, found by binary search
    /// against the event's *borrowed* factored values — no per-event key
    /// allocation.
    fn root_for_event(&self, event: &Event) -> Option<NodeId> {
        let values = event.values();
        self.roots
            .binary_search_by(|(key, _)| {
                key.iter()
                    .zip(&self.factored)
                    .map(|(k, &attr)| match values.get(attr) {
                        Some(v) => k.cmp(v),
                        None => std::cmp::Ordering::Less,
                    })
                    .find(|o| !o.is_eq())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok()
            .and_then(|i| self.roots.get(i).map(|(_, root)| *root))
    }

    /// The annotation slab slot of one node.
    fn ann(&self, node: u32) -> &[u64] {
        let start = node as usize * self.words_per_mask;
        self.ann_words
            .get(start..start + self.words_per_mask)
            .unwrap_or(&[])
    }

    fn translate(&self, id: NodeId) -> u32 {
        translate(&self.map, id)
    }

    /// The PST node whose edges a search carries on along from `node`.
    #[inline]
    fn end_of<'p>(&self, pst: &'p Pst, node: u32) -> Option<NodeRef<'p>> {
        pst.try_node((*self.end.get(node as usize)?)?)
    }

    /// The §3.3 refinement search as an explicit work-stack walk over the
    /// flattened tree of `pst` (the one this arena mirrors), along the
    /// edges of `pst`'s own nodes.
    /// `scratch.slot(0)` must hold the tree's initialization mask on entry
    /// (with at least one `Maybe`); on return it holds the fully refined
    /// mask. A node's children are searched depth-first — the equality
    /// child, the satisfied range edges in the order of their list, which a
    /// [`RangeLookup`] finds once the equality child has returned, then
    /// `*` — each with a copy of its mask, whose `Yes` trits are absorbed
    /// as the child returns, and a node is left as soon as no `Maybe`
    /// remains. It counts a step per run of the logical tree entered, so a
    /// run of `k` PST nodes (like a skipped trivial chain) costs one step;
    /// a comparison per prefix test and per equality lookup, and what the
    /// range lookup charges — a tail charged on entry what the runs of its
    /// chain come to. What the edge tests it evaluates come to, attribute
    /// by attribute, goes into `evidence` along with the walk's steps.
    pub fn search(
        &self,
        pst: &Pst,
        event: &Event,
        scratch: &mut MatchScratch,
        evidence: &mut WalkEvidence,
        stats: &mut MatchStats,
    ) -> bool {
        let Some(root) = self.root_for_event(event) else {
            return false;
        };
        evidence.size_for(self.arity);
        let entered = stats.steps;
        scratch.ensure(self.max_depth + 2, self.width);
        scratch.frames.clear();
        scratch.frames.push(Frame::enter(self.resolve(pst, root)));
        let values = event.values();

        'walk: while let Some(&Frame {
            node,
            cursor,
            end,
            state,
        }) = scratch.frames.last()
        {
            let depth = scratch.frames.len() - 1;
            match state {
                FrameState::Enter => {
                    stats.steps += 1;
                    let completed = {
                        let mask = scratch.slot_mut(depth);
                        mask.refine_in_place(self.ann(node));
                        !mask.has_maybe()
                    };
                    let attr = self.attr.get(node as usize).copied().unwrap_or(NONE);
                    if completed || attr == NONE {
                        // Fully refined, or a leaf (whose Yes/No-only
                        // annotation already killed every Maybe).
                        if !completed {
                            scratch.slot_mut(depth).maybes_to_no_in_place();
                        }
                        unwind(scratch);
                        continue 'walk;
                    }
                    // The run's absorbed tests, top first. Each was its
                    // node's only way on, under this same annotation: a
                    // failure ends the node like an exhausted edge list.
                    let (tests, attrs) = self.prefix.edges(node as usize);
                    for (test, attr) in tests.iter().zip(attrs).rev() {
                        stats.comparisons += 1;
                        let value = values.get(*attr as usize);
                        let holds = value.is_some_and(|v| test.matches(v));
                        evidence.record(*attr, 1, holds);
                        if !holds {
                            scratch.slot_mut(depth).maybes_to_no_in_place();
                            unwind(scratch);
                            continue 'walk;
                        }
                    }
                    let tail = self.tail.get(node as usize).copied().unwrap_or(Tail::NONE);
                    if tail.is_some() {
                        let opens_run = !tests.is_empty();
                        let chain = self.chain(pst, tail);
                        let passed =
                            self.walk_chain(chain, tail, opens_run, values, evidence, stats);
                        let mask = scratch.slot_mut(depth);
                        if passed {
                            mask.maybes_to_yes_in_place();
                        } else {
                            mask.maybes_to_no_in_place();
                        }
                        unwind(scratch);
                        continue 'walk;
                    }
                    // Range edges come after the equality branch either
                    // way; prime the resume point before descending.
                    set_top(scratch, FrameState::Ranges, NONE, end);
                    stats.comparisons += 1;
                    let edges = self.end_of(pst, node).map_or(&[][..], |n| n.eq_edges());
                    let child = values.get(attr as usize).and_then(|value| {
                        let i = edges.binary_search_by(|(v, _)| v.cmp(value)).ok()?;
                        edges.get(i)
                    });
                    evidence.record(attr, edges.len() as u64, child.is_some());
                    if let Some((_, child)) = child {
                        scratch.descend(depth, self.resolve(pst, *child));
                    }
                }
                FrameState::Ranges => {
                    let attr = self.attr.get(node as usize).copied().unwrap_or(NONE);
                    let value = values.get(attr as usize);
                    let edges = self.end_of(pst, node).map_or(&[][..], |n| n.range_edges());
                    let (mut cur, mut end) = (cursor, end);
                    if cur == NONE {
                        // Back from the equality branch: find the run of
                        // range candidates.
                        let lookup = value.map(|v| RangeLookup::new(edges, |(t, _)| t, v));
                        let RangeLookup { candidates, probes } = lookup.unwrap_or_default();
                        stats.comparisons += probes;
                        evidence.record(attr, edges.len() as u64, false);
                        (cur, end) = (candidates.start as u32, candidates.end as u32);
                    }
                    let mut child = None;
                    while cur < end {
                        let Some((test, target)) = edges.get(cur as usize) else {
                            break;
                        };
                        cur += 1;
                        // The lookup decided every other candidate.
                        stats.comparisons += u64::from(matches!(test, AttrTest::Between(..)));
                        if value.is_some_and(|v| test.matches(v)) {
                            child = Some(self.resolve(pst, *target));
                            break;
                        }
                    }
                    let next = if child.is_some() {
                        evidence.record(attr, 0, true);
                        FrameState::Ranges
                    } else {
                        FrameState::Star
                    };
                    set_top(scratch, next, cur, end);
                    if let Some(child) = child {
                        scratch.descend(depth, child);
                    }
                }
                FrameState::Star => {
                    set_top(scratch, FrameState::Done, cursor, end);
                    if let Some(star) = self.end_of(pst, node).and_then(|n| n.star()) {
                        scratch.descend(depth, self.resolve(pst, star));
                    }
                }
                FrameState::Done => {
                    // End of step 3: remaining Maybes become No.
                    scratch.slot_mut(depth).maybes_to_no_in_place();
                    unwind(scratch);
                }
            }
        }
        evidence.count_walk(stats.steps - entered);
        true
    }

    /// The chain `tail` stands for: per level, the attribute tested and
    /// the test, read off the subscription parked in its slot.
    fn chain<'a>(
        &self,
        pst: &'a Pst,
        tail: Tail,
    ) -> impl Iterator<Item = (usize, &'a AttrTest)> + Clone + 'a {
        let tests = pst.slot_tests(tail.slot);
        let order = pst.order();
        let from = order.len().saturating_sub(usize::from(tail.len));
        let levels = order.get(from..).unwrap_or(&[]);
        (levels.iter()).filter_map(move |&attr| Some((attr, tests.get(attr)?)))
    }

    /// Charges `stats` and `evidence` what a search that has just entered
    /// the topmost node of `chain` — refined by its annotation, some
    /// `Maybe` left, any prefix of real parents passed — is charged down
    /// the single-edge nodes the chain stands for, and returns whether the
    /// event passed every test down to the last that can fail.
    ///
    /// The run rule cuts such a chain into nodes at its `*` tests (no value
    /// edge to absorb) and at the last test that can fail (the annotation
    /// below it is the leaf's, which leaves no `Maybe`); every other test
    /// sits in the prefix of the node below it. A prefix test costs a
    /// comparison; a node's own test the equality lookup every node makes
    /// and what a range lookup over its one range edge charges; the node
    /// behind it a step — under trivial-test elimination the one the `*`
    /// nodes it heads lead to. An edge that lands on the chain's top skips
    /// such `*` nodes too, unless the top `opens_run`: is entered through a
    /// parent it absorbed.
    fn walk_chain<'a>(
        &self,
        chain: impl Iterator<Item = (usize, &'a AttrTest)>,
        tail: Tail,
        opens_run: bool,
        values: &[Value],
        evidence: &mut WalkEvidence,
        stats: &mut MatchStats,
    ) -> bool {
        let mut chain = chain.enumerate().peekable();
        let skip_trivial = |chain: &mut std::iter::Peekable<_>| {
            let trivial = |(_, (_, test)): &(usize, (usize, &AttrTest))| test.is_wildcard();
            while self.skipping && chain.next_if(trivial).is_some() {}
        };
        if !opens_run {
            skip_trivial(&mut chain);
        }
        while let Some((level, (attr, test))) = chain.next() {
            let value = values.get(attr);
            let holds = value.is_some_and(|v| test.matches(v));
            stats.comparisons += 1;
            let cut = level + 1 == usize::from(tail.cut);
            if test.is_wildcard() || cut {
                // A node of its own: the lookup among its (at most one)
                // equality edges, then among its range edges.
                stats.comparisons += value.map_or(0, |v| test.lone_range_cost(v));
                if !test.is_wildcard() {
                    evidence.record(attr as u32, 1, holds);
                }
                if !holds {
                    return false;
                }
                skip_trivial(&mut chain);
                stats.steps += 1;
                if cut {
                    return true;
                }
            } else {
                evidence.record(attr as u32, 1, holds);
                if !holds {
                    return false;
                }
            }
        }
        // Only a chain no test of which can fail gets here, and the
        // annotation of such a chain leaves no `Maybe` to walk it for.
        debug_assert!(false, "walked a chain past its last test that can fail");
        false
    }
}

/// What [`MatchArena::summary`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaSummary {
    /// Live arena nodes: what is kept. A tail is one, whatever its chain.
    pub nodes: usize,
    /// Nodes of the logical tree they stand for, every tail's chain
    /// spelled out.
    pub covered_nodes: usize,
    /// Nodes the run rule leaves standing in that tree that absorbed at
    /// least one other.
    pub runs: usize,
    /// Absorbed tests, Σ over runs: `covered_nodes` less the nodes the run
    /// rule leaves standing, which are what a search can count a step for.
    pub prefix_tests: usize,
    /// Length of the prefix arrays, dead slots included.
    pub edge_slots: usize,
    /// Node slots waiting for reuse.
    pub free_nodes: usize,
}

/// The run rule: if PST node `id` is absorbed, the child it is absorbed
/// into — its only child, behind an equality or range edge, annotated
/// exactly like it — with the test on that edge and the attribute it reads.
fn absorbed_into(
    pst: &Pst,
    annotations: &Annotations,
    id: NodeId,
) -> Option<(NodeId, AttrTest, u32)> {
    let node = pst.node(id);
    if node.star().is_some() {
        return None;
    }
    let child = match (node.eq_edges(), node.range_edges()) {
        ([(_, child)], []) | ([], [(_, child)]) => *child,
        _ => return None,
    };
    if annotations.get(id) != annotations.get(child) {
        return None;
    }
    // Cloned only now: most nodes asked about are not absorbed.
    let test = match node.eq_edges().first() {
        Some((value, _)) => AttrTest::Eq(value.clone()),
        None => node.range_edges().first()?.0.clone(),
    };
    Some((child, test, node.attribute()? as u32))
}

/// `map`'s arena index for PST node `id`; `NONE` for dead/unknown slots.
fn translate(map: &[u32], id: NodeId) -> u32 {
    map.get(id.index()).copied().unwrap_or(NONE)
}

/// The arena index a search entering PST node `id` lands on: that of its
/// trivial-test skip target when elimination is on, else its own. (A tail
/// whose chain opens with `*` tests is skipped into at walk time.)
#[inline]
fn resolve(map: &[u32], pst: &Pst, id: NodeId) -> u32 {
    let skipping = pst.options().eliminate_trivial_tests;
    let skip = skipping.then(|| pst.try_node(id)?.skip()).flatten();
    translate(map, skip.unwrap_or(id))
}

/// Rewrites the top frame's resume point.
fn set_top(scratch: &mut MatchScratch, state: FrameState, cursor: u32, end: u32) {
    if let Some(frame) = scratch.frames.last_mut() {
        frame.state = state;
        frame.cursor = cursor;
        frame.end = end;
    }
}

/// Pops the completed top frame and absorbs its result into the parent,
/// cascading while parents early-exit (no `Maybe` left: the parent is
/// done, and `maybes_to_no` would be the identity on its mask).
fn unwind(scratch: &mut MatchScratch) {
    loop {
        scratch.frames.pop();
        if scratch.frames.is_empty() {
            return;
        }
        let depth = scratch.frames.len() - 1;
        let (parent, child) = scratch.parent_child(depth);
        parent.absorb_yes_in_place(child);
        if parent.has_maybe() {
            // Parent resumes from its saved cursor/state.
            return;
        }
    }
}

/// One suspended node visit in the explicit work-stack walk.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Arena node index.
    node: u32,
    /// Next range candidate to test (index into the range edges of the PST
    /// node the arena node ends with); `NONE` until they are looked up.
    cursor: u32,
    /// End of the range candidates (exclusive).
    end: u32,
    state: FrameState,
}

impl Frame {
    fn enter(node: u32) -> Self {
        Frame {
            node,
            cursor: 0,
            end: 0,
            state: FrameState::Enter,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameState {
    /// Refine against the node's annotation, then try the equality branch.
    Enter,
    /// Looking the range candidates up (`cursor` is `NONE`), then testing
    /// them from `cursor` to `end`.
    Ranges,
    /// Range edges exhausted; the `*` branch remains.
    Star,
    /// All children absorbed; terminate the node.
    Done,
}

/// What [`MatchArena::search`] has observed since it was last cleared: per
/// attribute, how many edge tests the walks evaluated and how many of them
/// held, plus the walks themselves and the steps they took. A prefix test
/// counts one test; a lookup among `k` labels — equality or range — counts
/// `k` evaluated, which is what it decides, and each edge taken one
/// satisfied. Caller-owned like the scratch pool, and only ever added to on
/// the match path: the engine reads and clears it between events, when it
/// reconsiders its attribute order.
#[derive(Debug, Clone, Default)]
pub struct WalkEvidence {
    /// `(evaluated, satisfied)` per attribute index.
    tests: Vec<(u64, u64)>,
    walks: u64,
    steps: u64,
}

impl WalkEvidence {
    /// Edge tests on `attr` evaluated and satisfied.
    pub(crate) fn tests(&self, attr: usize) -> (u64, u64) {
        self.tests.get(attr).copied().unwrap_or_default()
    }

    /// Searches that walked the tree.
    pub(crate) fn walks(&self) -> u64 {
        self.walks
    }

    /// Steps those walks took.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Forgets everything observed so far.
    pub(crate) fn clear(&mut self) {
        self.tests.iter_mut().for_each(|t| *t = (0, 0));
        self.walks = 0;
        self.steps = 0;
    }

    fn size_for(&mut self, arity: usize) {
        if self.tests.len() < arity {
            self.tests.resize(arity, (0, 0));
        }
    }

    fn record(&mut self, attr: u32, evaluated: u64, satisfied: bool) {
        if let Some((tested, passed)) = self.tests.get_mut(attr as usize) {
            *tested += evaluated;
            *passed += u64::from(satisfied);
        }
    }

    fn count_walk(&mut self, steps: u64) {
        self.walks += 1;
        self.steps += steps;
    }
}

/// Reusable mask pool and frame stack for [`MatchArena::search`]: one
/// `TritVec` slot per tree depth, copied into (never freshly allocated) as
/// the walk descends. Owned by whoever runs matching — a broker's engine
/// loop, a benchmark thread — and handed down per call; never shared, so
/// it needs no lock.
#[derive(Debug, Default)]
pub struct MatchScratch {
    slots: Vec<TritVec>,
    frames: Vec<Frame>,
}

impl MatchScratch {
    /// A fresh, empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes sure `depth` mask slots of `width` trits exist.
    fn ensure(&mut self, depth: usize, width: usize) {
        if self.slots.len() < depth {
            self.slots.resize_with(depth, || TritVec::no(width));
        }
    }

    /// Seeds the root slot with the initialization mask (the caller checks
    /// `has_maybe` first).
    pub(crate) fn seed(&mut self, init: &TritVec) {
        if self.slots.is_empty() {
            self.slots.push(init.clone());
        } else if let Some(slot) = self.slots.first_mut() {
            slot.clone_from(init);
        }
    }

    /// The refined result mask after a successful search.
    pub(crate) fn result(&self) -> Option<&TritVec> {
        self.slots.first()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "depth < slots.len() by ensure(), asserted below"
    )]
    fn slot_mut(&mut self, depth: usize) -> &mut TritVec {
        // The walk never descends deeper than the PST depth the pool was
        // sized for, so `ensure()` has always made this slot exist.
        debug_assert!(depth < self.slots.len(), "slot pool sized by ensure()");
        &mut self.slots[depth]
    }

    /// Copies the parent mask at `depth` into the child slot and pushes the
    /// child's frame.
    fn descend(&mut self, depth: usize, child: u32) {
        let (parents, children) = self.slots.split_at_mut(depth + 1);
        match (parents.last(), children.first_mut()) {
            (Some(parent), Some(slot)) => slot.clone_from(parent),
            _ => debug_assert!(false, "slot pool sized by ensure()"),
        }
        self.frames.push(Frame::enter(child));
    }

    /// Mutable parent slot at `depth` plus shared child slot at `depth+1`.
    #[expect(
        clippy::indexing_slicing,
        reason = "both split sides non-empty, asserted below"
    )]
    fn parent_child(&mut self, depth: usize) -> (&mut TritVec, &TritVec) {
        let (parents, children) = self.slots.split_at_mut(depth + 1);
        // The walk only unwinds frames it descended into, and ensure()
        // sized the pool, so both sides of the split are non-empty.
        debug_assert!(!parents.is_empty() && !children.is_empty());
        (&mut parents[depth], &children[0])
    }
}
