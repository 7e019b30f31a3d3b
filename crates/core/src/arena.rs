//! Arena-flattened link-matching: the annotated PST compiled into a
//! contiguous struct-of-arrays index space.
//!
//! The boxed PST is the right structure for *mutation* (subscribe /
//! unsubscribe), but a match walk over it chases `Box` and `HashMap`
//! pointers and clones a fresh `TritVec` per child recursion. The
//! [`MatchArena`] is the match-time view of the same tree: node fields live
//! in parallel vectors indexed by a dense `u32`, edge lists are index spans
//! into shared edge arrays, and every node's trit annotation occupies a
//! fixed-width slot in one contiguous word slab. A search is then
//! sequential index arithmetic plus word ops against the slab, with all
//! masks drawn from a reusable [`MatchScratch`] pool — no allocation per
//! event, no pointer chasing, no per-child mask clone.
//!
//! Trivial-test skip pointers (§2.1.2) are resolved at build time: every
//! edge stores its *effective* target, so `*`-only chains cost nothing at
//! match time. This preserves results because a trivial node's annotation
//! equals its star child's annotation (the alternative fold over zero value
//! branches contributes all-`No`, the identity of *Parallel Combine*), and
//! refinement is idempotent over equal annotations.
//!
//! The arena is compiled from the PST once and then patched in place: a
//! [`MutationReport`] names the one edge each touched path gained or lost,
//! so a subscribe or unsubscribe rewrites that edge, the annotation slots
//! on the path, and the nodes it created or pruned — nothing proportional
//! to a node's fan-out except the order-preserving shift inside its span.
//! Edge spans grow by doubling and pruned nodes go on a free list; a fresh
//! compile happens only as compaction, once dead slots dominate.

use linkcast_matching::{EdgeSlot, MatchStats, MutationReport, NodeId, PathReport, Pst};
use linkcast_types::{AttrTest, Event, TritVec, Value};

use crate::LinkSpace;

/// Sentinel for "no node" in `u32` index fields.
const NONE: u32 = u32::MAX;

/// Dead slots tolerated before they are weighed against live ones, so tiny
/// arenas never compact.
const COMPACT_FLOOR: usize = 64;

/// One node's window `[start, start + cap)` into an [`EdgeTable`]'s arrays;
/// the first `len` entries are its live edges, the rest is slack to grow
/// into. Slack sits at the end, never between live edges.
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

/// The out-edges of one kind (equality or range) of every node: labels and
/// skip-resolved targets in parallel arrays, one contiguous span per node.
/// The order of a span's live edges is the match-time visiting order and
/// mirrors the PST's edge list position for position.
#[derive(Debug, Clone)]
struct EdgeTable<L> {
    labels: Vec<L>,
    children: Vec<u32>,
    /// Per-node span.
    spans: Vec<Span>,
    /// Σ `len` over all spans.
    live: usize,
}

impl<L> Default for EdgeTable<L> {
    fn default() -> Self {
        EdgeTable {
            labels: Vec::new(),
            children: Vec::new(),
            spans: Vec::new(),
            live: 0,
        }
    }
}

impl<L: Clone> EdgeTable<L> {
    /// The live labels and targets of `node`.
    fn edges(&self, node: usize) -> (&[L], &[u32]) {
        let live = self.spans.get(node).copied().unwrap_or_default().live();
        (
            self.labels.get(live.clone()).unwrap_or(&[]),
            self.children.get(live).unwrap_or(&[]),
        )
    }

    /// Makes `edges` the whole of `node`'s (empty) span, in a fresh window
    /// of exactly their number when the current one is too small.
    fn fill(&mut self, node: usize, edges: impl ExactSizeIterator<Item = (L, u32)>) {
        let Some(span) = self.spans.get_mut(node) else {
            return;
        };
        debug_assert_eq!(span.len, 0, "fill() is for freshly appended nodes");
        if (span.cap as usize) < edges.len() {
            span.start = self.labels.len() as u32;
            span.cap = edges.len() as u32;
            span.len = span.cap;
            self.live += edges.len();
            for (label, child) in edges {
                self.labels.push(label);
                self.children.push(child);
            }
            return;
        }
        for (at, (label, child)) in edges.enumerate() {
            self.insert(node, at, label, child);
        }
    }

    /// Inserts an edge at position `at` of `node`'s span, shifting the
    /// later ones up. A full span first moves to a fresh one of twice the
    /// capacity at the end of the arrays (amortised O(1); the old window
    /// is dead until the next compaction).
    fn insert(&mut self, node: usize, at: usize, label: L, child: u32) {
        let Some(mut span) = self.spans.get(node).copied() else {
            return;
        };
        if span.len == span.cap {
            let start = self.labels.len();
            let cap = (span.cap as usize * 2).max(1);
            self.labels.extend_from_within(span.live());
            self.children.extend_from_within(span.live());
            self.labels.resize(start + cap, label.clone());
            self.children.resize(start + cap, NONE);
            span.start = start as u32;
            span.cap = cap as u32;
        }
        let at = span.start as usize + at.min(span.len as usize);
        let end = span.start as usize + span.len as usize;
        if let Some(window) = self.labels.get_mut(at..=end) {
            window.rotate_right(1);
            if let Some(first) = window.first_mut() {
                *first = label;
            }
        }
        if let Some(window) = self.children.get_mut(at..=end) {
            window.rotate_right(1);
            if let Some(first) = window.first_mut() {
                *first = child;
            }
        }
        span.len += 1;
        self.live += 1;
        if let Some(slot) = self.spans.get_mut(node) {
            *slot = span;
        }
    }

    /// Removes the edge at position `at` of `node`'s span, shifting the
    /// later ones down (their order is kept).
    fn remove(&mut self, node: usize, at: usize) {
        let Some(span) = self.spans.get_mut(node) else {
            return;
        };
        if at >= span.len as usize {
            return;
        }
        let window = span.start as usize + at..(span.start + span.len) as usize;
        span.len -= 1;
        self.live -= 1;
        if let Some(window) = self.labels.get_mut(window.clone()) {
            window.rotate_left(1);
        }
        if let Some(window) = self.children.get_mut(window) {
            window.rotate_left(1);
        }
    }

    /// Points the edge at position `at` of `node`'s span at `child`.
    fn retarget(&mut self, node: usize, at: usize, child: u32) {
        let live = self.spans.get(node).copied().unwrap_or_default().live();
        if let Some(slot) = self.children.get_mut(live).and_then(|s| s.get_mut(at)) {
            *slot = child;
        }
    }

    /// Empties `node`'s span, keeping its window for the slot's next owner.
    fn clear(&mut self, node: usize) {
        if let Some(span) = self.spans.get_mut(node) {
            self.live -= span.len as usize;
            span.len = 0;
        }
    }
}

/// The flattened, annotated match-time form of one engine's PST.
#[derive(Debug, Clone, Default)]
pub struct MatchArena {
    /// Trits per annotation/mask (the link-space width).
    width: usize,
    /// Words per annotation slot in [`ann_words`](Self::ann_words).
    words_per_mask: usize,
    /// Per-node attribute index tested at the node; `NONE` for leaves.
    attr: Vec<u32>,
    /// Equality edges, sorted by label within each node's span.
    eq: EdgeTable<Value>,
    /// Range edges, in insertion order within each node's span.
    ranges: EdgeTable<AttrTest>,
    /// Per-node `*` child (skip-resolved); `NONE` if absent.
    star: Vec<u32>,
    /// Annotation slab: node `i`'s trits at
    /// `[i * words_per_mask, (i + 1) * words_per_mask)`.
    ann_words: Vec<u64>,
    /// Factored-subtree roots (skip-resolved), sorted by key for
    /// borrow-keyed binary search against event values.
    roots: Vec<(Box<[Value]>, u32)>,
    /// Factored attribute indices (the root-key schema).
    factored: Vec<usize>,
    /// PST `NodeId::index()` → arena index; `NONE` for dead/unknown slots.
    map: Vec<u32>,
    /// Node slots whose PST node was pruned, reused by later appends.
    free: Vec<u32>,
    /// Attribute indices that can influence the walk's branching: the
    /// factored attributes plus every `order` attribute whose level has at
    /// least one equality or range edge somewhere in the tree. Sorted.
    /// Attributes outside this set cannot change the match result, which is
    /// exactly why the match-result cache keys on these and only these. An
    /// unsubscribe never shrinks the set (a superset only splits cache
    /// entries that could have been shared); compaction recomputes it.
    tested: Vec<usize>,
    /// Upper bound on the walk's stack depth (root-to-leaf node count).
    max_depth: usize,
}

impl MatchArena {
    /// Flattens `pst` and its annotations (indexed by [`NodeId::index`],
    /// masks of `space.width()` trits) into a fresh arena.
    pub fn build(pst: &Pst, annotations: &[Option<TritVec>], space: &LinkSpace) -> Self {
        Self::compile(pst, annotations, space.width())
    }

    /// [`build`](Self::build) for masks of `width` trits: every live node
    /// appended children-first, so each span is exactly as long as its edge
    /// list and nothing is dead.
    fn compile(pst: &Pst, annotations: &[Option<TritVec>], width: usize) -> Self {
        let mut arena = MatchArena {
            width,
            words_per_mask: TritVec::no(width).words().len(),
            factored: pst.factored().to_vec(),
            tested: pst.factored().to_vec(),
            max_depth: pst.order().len() + 1,
            map: vec![NONE; pst.arena_size()],
            ..MatchArena::default()
        };
        for id in pst.postorder() {
            arena.append(pst, id, annotations);
        }
        arena.roots = pst
            .roots()
            .map(|(key, root)| (key.to_vec().into(), arena.resolve(pst, root)))
            .collect();
        arena.roots.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        arena.tested.sort_unstable();
        arena.tested.dedup();
        arena
    }

    /// Applies one PST mutation in place. Everything a mutation can change
    /// lives on the reported paths — a node's only incoming edge comes from
    /// its parent, which is on the path too, and a trivial node's skip
    /// chain is star-only, so it is walked (and therefore reported) by the
    /// mutation that altered it. Recompiles only to compact, when dead
    /// slots (abandoned and slack edge slots, free node slots) outnumber
    /// live ones three to one: a span's first relocation after a compile
    /// can strand twice its length for a single insert, so any lower bar
    /// could be hit again and again by a handful of mutations.
    pub fn apply_mutation(
        &mut self,
        pst: &Pst,
        report: &MutationReport,
        annotations: &[Option<TritVec>],
    ) {
        if self.map.len() < pst.arena_size() {
            self.map.resize(pst.arena_size(), NONE);
        }
        for path in &report.paths {
            self.apply_path(pst, path, annotations);
        }
        let live = self.node_count() + self.eq.live + self.ranges.live;
        let dead = self.free.len() + self.edge_slots() - self.eq.live - self.ranges.live;
        if dead > 3 * live + COMPACT_FLOOR {
            *self = Self::compile(pst, annotations, self.width);
        }
    }

    fn apply_path(&mut self, pst: &Pst, path: &PathReport, annotations: &[Option<TritVec>]) {
        // Top of the pruned chain first: the free list is a stack and
        // appends go leaf first, so the next chain of the same shape gets
        // each slot back in its old role, edge windows fitting.
        for id in path.freed.iter().rev() {
            self.release(*id);
        }
        // Leaf first, so a parent's edges can translate its children.
        for id in path.nodes.iter().skip(path.created).rev() {
            self.append(pst, *id, annotations);
        }
        // The node an edge into `nodes[i]` leaves from (none for a root).
        let above = |i: usize| i.checked_sub(1).and_then(|p| path.nodes.get(p)).copied();
        if let (Some(slot), Some(child)) = (path.added, path.nodes.get(path.created)) {
            self.add_edge(pst, &path.key, above(path.created), slot, *child);
        }
        if let Some((slot, _)) = &path.removed {
            self.remove_edge(&path.key, path.nodes.last().copied(), *slot);
        }
        for (i, slot) in &path.retargets {
            if let Some(id) = path.nodes.get(*i) {
                self.retarget(pst, &path.key, above(*i), *slot, *id);
            }
        }
        for id in path.nodes.iter().take(path.created) {
            self.set_annotation(self.translate(*id), annotations.get(id.index()));
        }
    }

    /// Appends the arena image of PST node `id` — attribute, annotation,
    /// and its edges resolved against the already-mapped children — into a
    /// free slot if there is one.
    fn append(&mut self, pst: &Pst, id: NodeId, annotations: &[Option<TritVec>]) {
        let node = pst.node(id);
        let attr = node.attribute().map_or(NONE, |a| a as u32);
        let star = node.star().map_or(NONE, |s| self.resolve(pst, s));
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.attr.push(NONE);
                self.star.push(NONE);
                self.eq.spans.push(Span::default());
                self.ranges.spans.push(Span::default());
                self.ann_words
                    .resize(self.ann_words.len() + self.words_per_mask, 0);
                (self.attr.len() - 1) as u32
            }
        };
        let i = idx as usize;
        if let Some(slot) = self.map.get_mut(id.index()) {
            *slot = idx;
        }
        if let Some(slot) = self.attr.get_mut(i) {
            *slot = attr;
        }
        if let Some(slot) = self.star.get_mut(i) {
            *slot = star;
        }
        let map = &self.map;
        let eq = node.eq_edges().iter();
        self.eq
            .fill(i, eq.map(|(v, c)| (v.clone(), resolve(map, pst, *c))));
        let ranges = node.range_edges().iter();
        self.ranges
            .fill(i, ranges.map(|(t, c)| (t.clone(), resolve(map, pst, *c))));
        if !node.eq_edges().is_empty() || !node.range_edges().is_empty() {
            self.mark_tested(attr);
        }
        self.set_annotation(idx, annotations.get(id.index()));
    }

    /// Retires the arena image of the pruned PST node `id`: its `map` entry
    /// clears and its slot — edge windows included — waits on the free list
    /// for the next append.
    fn release(&mut self, id: NodeId) {
        let Some(slot) = self.map.get_mut(id.index()) else {
            return;
        };
        let idx = std::mem::replace(slot, NONE);
        if idx != NONE {
            self.eq.clear(idx as usize);
            self.ranges.clear(idx as usize);
            self.free.push(idx);
        }
    }

    /// Mirrors the edge the PST gained at `slot` of `parent`, leading to
    /// `child`.
    fn add_edge(
        &mut self,
        pst: &Pst,
        key: &[Value],
        parent: Option<NodeId>,
        slot: EdgeSlot,
        child: NodeId,
    ) {
        let target = self.resolve(pst, child);
        let Some(parent) = parent else {
            if let Err(at) = self.roots.binary_search_by(|(k, _)| (**k).cmp(key)) {
                self.roots.insert(at, (key.into(), target));
            }
            return;
        };
        let p = self.translate(parent) as usize;
        let node = pst.node(parent);
        match slot {
            EdgeSlot::Eq(at) => {
                if let Some((value, _)) = node.eq_edges().get(at) {
                    self.eq.insert(p, at, value.clone(), target);
                }
            }
            EdgeSlot::Range(at) => {
                if let Some((test, _)) = node.range_edges().get(at) {
                    self.ranges.insert(p, at, test.clone(), target);
                }
            }
            EdgeSlot::Star | EdgeSlot::Root => {
                return self.retarget(pst, key, Some(parent), slot, child);
            }
        }
        // A level that branches for the first time makes its attribute
        // observable — future cache keys must include it.
        self.mark_tested(node.attribute().map_or(NONE, |a| a as u32));
    }

    /// Mirrors the loss of the edge at `slot` of `parent`.
    fn remove_edge(&mut self, key: &[Value], parent: Option<NodeId>, slot: EdgeSlot) {
        let Some(parent) = parent else {
            if let Ok(at) = self.roots.binary_search_by(|(k, _)| (**k).cmp(key)) {
                self.roots.remove(at);
            }
            return;
        };
        let p = self.translate(parent) as usize;
        match slot {
            EdgeSlot::Eq(at) => self.eq.remove(p, at),
            EdgeSlot::Range(at) => self.ranges.remove(p, at),
            EdgeSlot::Star | EdgeSlot::Root => {
                if let Some(star) = self.star.get_mut(p) {
                    *star = NONE;
                }
            }
        }
    }

    /// Re-resolves the edge at `slot` of `parent` (the roots entry under
    /// `key` when there is none) after `child`'s skip pointer moved.
    fn retarget(
        &mut self,
        pst: &Pst,
        key: &[Value],
        parent: Option<NodeId>,
        slot: EdgeSlot,
        child: NodeId,
    ) {
        let target = self.resolve(pst, child);
        let Some(parent) = parent else {
            if let Ok(at) = self.roots.binary_search_by(|(k, _)| (**k).cmp(key)) {
                if let Some(entry) = self.roots.get_mut(at) {
                    entry.1 = target;
                }
            }
            return;
        };
        let p = self.translate(parent) as usize;
        match slot {
            EdgeSlot::Eq(at) => self.eq.retarget(p, at, target),
            EdgeSlot::Range(at) => self.ranges.retarget(p, at, target),
            EdgeSlot::Star | EdgeSlot::Root => {
                if let Some(star) = self.star.get_mut(p) {
                    *star = target;
                }
            }
        }
    }

    /// Copies `annotation` (all-`No` when absent) into `node`'s slab slot.
    fn set_annotation(&mut self, node: u32, annotation: Option<&Option<TritVec>>) {
        let start = node as usize * self.words_per_mask;
        let Some(slot) = self.ann_words.get_mut(start..start + self.words_per_mask) else {
            return;
        };
        match annotation.and_then(|a| a.as_ref()) {
            Some(ann) => {
                debug_assert_eq!(ann.words().len(), self.words_per_mask);
                slot.copy_from_slice(ann.words());
            }
            None => slot.fill(0),
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

    /// Number of live flattened nodes (free-listed slots excluded).
    pub fn node_count(&self) -> usize {
        self.attr.len() - self.free.len()
    }

    /// Total length of the edge arrays: live edges plus span slack plus
    /// windows abandoned by relocations.
    pub fn edge_slots(&self) -> usize {
        self.eq.labels.len() + self.ranges.labels.len()
    }

    /// The arena root for `event`'s factor key, found by binary search
    /// against the event's *borrowed* factored values — no per-event key
    /// allocation.
    fn root_for_event(&self, event: &Event) -> Option<u32> {
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

    /// The §3.3 refinement search as an explicit work-stack walk over the
    /// flattened tree. `scratch.slot(0)` must hold the tree's
    /// initialization mask on entry (with at least one `Maybe`); on return
    /// it holds the fully refined mask. Mirrors the recursive `subsearch`
    /// exactly: same refinement order, same early exits, same step and
    /// comparison counts (modulo skipped trivial chains).
    pub fn search(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        stats: &mut MatchStats,
    ) -> bool {
        let Some(root) = self.root_for_event(event) else {
            return false;
        };
        scratch.ensure(self.max_depth + 2, self.width);
        scratch.frames.clear();
        scratch.frames.push(Frame {
            node: root,
            cursor: 0,
            state: FrameState::Enter,
        });
        let values = event.values();

        'walk: while let Some(&Frame {
            node,
            cursor,
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
                    // Range edges come after the equality branch either
                    // way; prime the resume point before descending.
                    let ranges = self.ranges.spans.get(node as usize);
                    let range_start = ranges.map_or(0, |span| span.start);
                    set_top(scratch, FrameState::Ranges, range_start);
                    stats.comparisons += 1;
                    if let Some(child) = self.eq_lookup(node, values) {
                        scratch.descend(depth, child);
                    }
                }
                FrameState::Ranges => {
                    let ranges = self.ranges.spans.get(node as usize);
                    let range_end = ranges.map_or(0, |span| span.start + span.len);
                    let value = self
                        .attr
                        .get(node as usize)
                        .and_then(|&a| values.get(a as usize));
                    let mut cur = cursor;
                    let mut child = None;
                    while cur < range_end {
                        let i = cur as usize;
                        cur += 1;
                        stats.comparisons += 1;
                        let matched = match (self.ranges.labels.get(i), value) {
                            (Some(test), Some(v)) => test.matches(v),
                            _ => false,
                        };
                        if matched {
                            child = self.ranges.children.get(i).copied();
                            break;
                        }
                    }
                    let next = if child.is_some() {
                        FrameState::Ranges
                    } else {
                        FrameState::Star
                    };
                    set_top(scratch, next, cur);
                    if let Some(child) = child {
                        scratch.descend(depth, child);
                    }
                }
                FrameState::Star => {
                    set_top(scratch, FrameState::Done, cursor);
                    let star = self.star.get(node as usize).copied().unwrap_or(NONE);
                    if star != NONE {
                        scratch.descend(depth, star);
                    }
                }
                FrameState::Done => {
                    // End of step 3: remaining Maybes become No.
                    scratch.slot_mut(depth).maybes_to_no_in_place();
                    unwind(scratch);
                }
            }
        }
        true
    }

    /// Binary search of the node's equality span for the event's value at
    /// the node's attribute.
    fn eq_lookup(&self, node: u32, values: &[Value]) -> Option<u32> {
        let attr = self.attr.get(node as usize).copied()?;
        let value = values.get(attr as usize)?;
        let (labels, children) = self.eq.edges(node as usize);
        let i = labels.binary_search_by(|v| v.cmp(value)).ok()?;
        children.get(i).copied()
    }
}

/// `map`'s arena index for PST node `id`; `NONE` for dead/unknown slots.
fn translate(map: &[u32], id: NodeId) -> u32 {
    map.get(id.index()).copied().unwrap_or(NONE)
}

/// The arena index a search entering PST node `id` lands on: that of its
/// trivial-test skip target when elimination is on, else its own. A
/// function of `map` alone so edges can be resolved while an edge table is
/// being written.
fn resolve(map: &[u32], pst: &Pst, id: NodeId) -> u32 {
    if pst.options().eliminate_trivial_tests {
        translate(map, pst.node(id).skip().unwrap_or(id))
    } else {
        translate(map, id)
    }
}

/// Rewrites the top frame's resume point.
fn set_top(scratch: &mut MatchScratch, state: FrameState, cursor: u32) {
    if let Some(frame) = scratch.frames.last_mut() {
        frame.state = state;
        frame.cursor = cursor;
    }
}

/// Pops the completed top frame and absorbs its result into the parent,
/// cascading while parents early-exit (no `Maybe` left — the recursive
/// search returns right there, skipping `maybes_to_no`, which is the
/// identity on a Maybe-free mask).
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
    /// Next range edge to test (absolute index into `range_tests`).
    cursor: u32,
    state: FrameState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameState {
    /// Refine against the node's annotation, then try the equality branch.
    Enter,
    /// Testing range edges from `cursor`.
    Ranges,
    /// Range edges exhausted; the `*` branch remains.
    Star,
    /// All children absorbed; terminate the node.
    Done,
}

/// Reusable mask pool and frame stack for [`MatchArena::search`]: one
/// `TritVec` slot per tree depth, copied into (never freshly allocated) as
/// the walk descends. Owned by whoever runs matching — a broker shard, the
/// inline engine loop, a benchmark thread — and handed down per call;
/// shard-owned, so it needs no lock.
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

    fn slot_mut(&mut self, depth: usize) -> &mut TritVec {
        // The walk never descends deeper than the PST depth the pool was
        // sized for, so `ensure()` has always made this slot exist.
        debug_assert!(depth < self.slots.len(), "slot pool sized by ensure()");
        // analyzer:allow(index): depth < slots.len() by ensure(), asserted above
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
        self.frames.push(Frame {
            node: child,
            cursor: 0,
            state: FrameState::Enter,
        });
    }

    /// Mutable parent slot at `depth` plus shared child slot at `depth+1`.
    fn parent_child(&mut self, depth: usize) -> (&mut TritVec, &TritVec) {
        let (parents, children) = self.slots.split_at_mut(depth + 1);
        // The walk only unwinds frames it descended into, and ensure()
        // sized the pool, so both sides of the split are non-empty.
        debug_assert!(!parents.is_empty() && !children.is_empty());
        // analyzer:allow(index): both split sides non-empty, asserted above
        (&mut parents[depth], &children[0])
    }
}
