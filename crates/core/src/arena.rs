//! The §3.3 link-matching walk over the annotated PST.
//!
//! The PST keeps the edges; the per-broker annotations live beside it, one
//! fixed-width word row per node, keyed by [`NodeId::index`]
//! ([`Annotations`]). A search walks that one tree: it keeps a stack of
//! frames of PST node ids, refines its mask by the row of each node it
//! enters, and follows the node's sorted equality, range and `*` edges
//! where the PST keeps them, binary-searched in place. Every mask comes
//! from a reusable [`MatchScratch`] pool — no allocation per event, no
//! per-child mask clone. Nothing beside the two is kept for the walk: it
//! finds the event's subtree in the PST's own sorted root table, by binary
//! search against the event's borrowed values, and sizes the pool by the
//! PST's depth and the annotations' width.
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
//! (subscriptions sit on leaves only, which have no edges). A search that
//! enters a node refines once; then, while the node it stands on is
//! absorbed, it checks that node's one edge label and moves on to the
//! child, and only at the first node that is not absorbed does it take up
//! equality, range and `*` edges or walk a tail. A run of `k` nodes costs
//! one step and `k - 1` comparisons — the result the node-per-test walk
//! reaches, because refining by an equal annotation changes nothing, and a
//! `*`-less single-edge parent returns exactly what its child returns (a
//! `Maybe`-free mask) or, when its test fails, its own mask with every
//! `Maybe` turned `No`. Which nodes are absorbed is a function of the PST
//! and its annotations alone, so the walk applies the rule where it stands
//! and nothing about runs is stored: whatever history led to a tree, it is
//! walked like a fresh build of it.
//!
//! The tree walked is the *logical* one. A PST tail — one node parking
//! subscriptions above leaf level, in place of the unshared chain of
//! single-edge nodes down to their leaf — is charged, where a search enters
//! it, what the chain's nodes would charge: a step per node the run rule
//! and trivial-test elimination leave standing, a comparison and a
//! [`WalkEvidence`] record per test, under the annotations those nodes would
//! carry — the tail's own down to the last test that can fail, the leaf's
//! (the same with every `Maybe` a `Yes`) below it. The tests are read from
//! the predicate of a subscription parked there ([`NodeRef::residual`]);
//! where the last that can fail sits is derived with the annotation
//! ([`Annotations::cut`]).

// The per-event match walk, on the broker's engine thread: the shipped code
// neither unwraps nor indexes nor panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use linkcast_matching::{MatchStats, NodeId, NodeRef, Pst};
use linkcast_types::{AttrTest, Event, RangeLookup, TritVec, Value};

use crate::annotate::Annotations;

/// Sentinel for "no attribute" and "not looked up yet" in `u32` fields.
const NONE: u32 = u32::MAX;

/// One engine's annotated PST read as the walk reads it: what
/// [`LinkMatchEngine::arena`](crate::LinkMatchEngine::arena) returns.
#[derive(Debug, Clone, Copy)]
pub struct ArenaView<'a> {
    pub(crate) pst: &'a Pst,
    pub(crate) annotations: &'a Annotations,
}

impl ArenaView<'_> {
    /// The node a search taking an edge to `id` enters: its trivial-test
    /// skip target if it has one, else `id` itself. (A tail whose chain
    /// opens with `*` tests is skipped into as it is walked.)
    #[inline]
    fn resolve(&self, id: NodeId) -> NodeId {
        let skip = self.pst.try_node(id).and_then(|node| node.skip());
        skip.unwrap_or(id)
    }

    /// The §3.3 refinement search as an explicit work-stack walk over the
    /// PST and its annotations, from the root of the subtree `event`'s
    /// factor key selects ([`Pst::root_for_event`]); `false` if there is
    /// none. `scratch.slot(0)` must hold the tree's initialization mask on entry
    /// (with at least one `Maybe`); on return it holds the fully refined
    /// mask. A node's children are searched depth-first — the equality
    /// child, the satisfied range edges in the order of their list, which a
    /// [`RangeLookup`] finds once the equality child has returned, then
    /// `*` — each with a copy of its mask, whose `Yes` trits are absorbed
    /// as the child returns, and a node is left as soon as no `Maybe`
    /// remains. It counts a step per node entered — the run of absorbed
    /// nodes it then passes through costs none, like a skipped trivial
    /// chain — a comparison per absorbed node's edge and per equality
    /// lookup, and what the range lookup charges; a tail is charged on
    /// entry what the runs of its chain come to. What the edge tests it
    /// evaluates come to, attribute by attribute, goes into `evidence`
    /// along with the walk's steps.
    pub(crate) fn search(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        evidence: &mut WalkEvidence,
        stats: &mut MatchStats,
    ) -> bool {
        let (pst, annotations) = (self.pst, self.annotations);
        let Some(root) = pst.root_for_event(event) else {
            return false;
        };
        evidence.size_for(pst.schema().arity());
        let entered = stats.steps;
        // A root-to-leaf path enters at most `depth + 1` nodes.
        scratch.ensure(pst.depth() + 3, annotations.width());
        scratch.frames.clear();
        scratch.frames.push(Frame::enter(self.resolve(root)));
        let values = event.values();

        'walk: while let Some(&Frame {
            node,
            cursor,
            end,
            state,
        }) = scratch.frames.last()
        {
            let depth = scratch.frames.len() - 1;
            let Some(at) = pst.try_node(node) else {
                debug_assert!(false, "edges lead to live nodes");
                scratch.slot_mut(depth).maybes_to_no_in_place();
                unwind(scratch);
                continue 'walk;
            };
            let attr = at.attribute().map_or(NONE, |a| a as u32);
            match state {
                FrameState::Enter => {
                    stats.steps += 1;
                    let completed = {
                        let mask = scratch.slot_mut(depth);
                        match annotations.get(node) {
                            Some(annotation) => mask.refine_in_place(annotation),
                            None => mask.maybes_to_no_in_place(),
                        }
                        !mask.has_maybe()
                    };
                    if completed || attr == NONE {
                        // Fully refined, or a leaf (whose Yes/No-only
                        // annotation already killed every Maybe).
                        if !completed {
                            scratch.slot_mut(depth).maybes_to_no_in_place();
                        }
                        unwind(scratch);
                        continue 'walk;
                    }
                    // The run: each absorbed node's edge was its only way
                    // on, under this same annotation, so a failure ends the
                    // node like an exhausted edge list.
                    let (mut end_id, mut end_at, mut attr) = (node, at, attr);
                    while let Some((child, label)) = absorbed_into(&end_at, end_id, annotations) {
                        stats.comparisons += 1;
                        let holds = values.get(attr as usize).is_some_and(|v| label.holds(v));
                        evidence.record(attr, 1, holds);
                        let next = pst.try_node(child).filter(|_| holds);
                        let Some(next) = next else {
                            scratch.slot_mut(depth).maybes_to_no_in_place();
                            unwind(scratch);
                            continue 'walk;
                        };
                        (end_id, end_at) = (child, next);
                        attr = end_at.attribute().map_or(NONE, |a| a as u32);
                    }
                    if end_at.is_leaf() {
                        let opens_run = end_id != node;
                        let cut = annotations.cut(end_id);
                        let chain = end_at.residual();
                        let passed =
                            self.walk_chain(chain, cut, opens_run, values, evidence, stats);
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
                    // way; prime the resume point, at the run's last node,
                    // before descending.
                    set_top(scratch, end_id, FrameState::Ranges, NONE, end);
                    stats.comparisons += 1;
                    let edges = end_at.eq_edges();
                    let child = values.get(attr as usize).and_then(|value| {
                        let i = edges.binary_search_by(|(v, _)| v.cmp(value)).ok()?;
                        edges.get(i)
                    });
                    evidence.record(attr, edges.len() as u64, child.is_some());
                    if let Some((_, child)) = child {
                        scratch.descend(depth, self.resolve(*child));
                    }
                }
                FrameState::Ranges => {
                    let value = values.get(attr as usize);
                    let edges = at.range_edges();
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
                            child = Some(self.resolve(*target));
                            break;
                        }
                    }
                    let next = if child.is_some() {
                        evidence.record(attr, 0, true);
                        FrameState::Ranges
                    } else {
                        FrameState::Star
                    };
                    set_top(scratch, node, next, cur, end);
                    if let Some(child) = child {
                        scratch.descend(depth, child);
                    }
                }
                FrameState::Star => {
                    set_top(scratch, node, FrameState::Done, cursor, end);
                    if let Some(star) = at.star() {
                        scratch.descend(depth, self.resolve(star));
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

    /// Charges `stats` and `evidence` what a search that has just entered
    /// the topmost node of a tail's `chain` — refined by its annotation,
    /// some `Maybe` left, any run of real parents passed — is charged down
    /// the single-edge nodes the chain stands for, and returns whether the
    /// event passed every test down to the last that can fail, the `cut`th.
    ///
    /// The run rule cuts such a chain into nodes at its `*` tests (no value
    /// edge to absorb) and at the last test that can fail (the annotation
    /// below it is the leaf's, which leaves no `Maybe`); every other test
    /// is absorbed into the node below it. An absorbed test costs a
    /// comparison; a node's own test the equality lookup every node makes
    /// and what a range lookup over its one range edge charges; the node
    /// behind it a step — trivial-test elimination makes it the one the `*`
    /// nodes it heads lead to. An edge that lands on the chain's top skips
    /// such `*` nodes too, unless the top `opens_run`: is entered through a
    /// parent it absorbed.
    fn walk_chain<'a>(
        &self,
        chain: impl Iterator<Item = (usize, &'a AttrTest)>,
        cut: usize,
        opens_run: bool,
        values: &[Value],
        evidence: &mut WalkEvidence,
        stats: &mut MatchStats,
    ) -> bool {
        let mut chain = chain.enumerate().peekable();
        let skip_trivial = |chain: &mut std::iter::Peekable<_>| {
            let trivial = |(_, (_, test)): &(usize, (usize, &AttrTest))| test.is_wildcard();
            while chain.next_if(trivial).is_some() {}
        };
        if !opens_run {
            skip_trivial(&mut chain);
        }
        while let Some((level, (attr, test))) = chain.next() {
            let value = values.get(attr);
            let holds = value.is_some_and(|v| test.matches(v));
            stats.comparisons += 1;
            let last = level + 1 == cut;
            if test.is_wildcard() || last {
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
                if last {
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

    /// Nodes a search can enter and stop at: the PST nodes the run rule
    /// does not absorb, a tail one whatever its chain — at most the PST's
    /// node count.
    pub fn node_count(&self) -> usize {
        self.summary().nodes
    }

    /// How much of the logical tree the run compression folds away —
    /// counted as if every tail's chain were spelled out, so a function of
    /// the subscription set and the order alone — in one pass over the
    /// live PST nodes.
    pub fn summary(&self) -> ArenaSummary {
        let (pst, annotations) = (self.pst, self.annotations);
        let mut summary = ArenaSummary::default();
        // Each node with whether its parent is absorbed into it.
        let mut pending: Vec<(NodeId, bool)> = pst.roots().map(|(_, root)| (root, false)).collect();
        while let Some((id, opens_run)) = pending.pop() {
            let Some(node) = pst.try_node(id) else {
                continue;
            };
            let absorbed = absorbed_into(&node, id, annotations).is_some();
            pending.extend(node.children().map(|child| (child, absorbed)));
            summary.covered_nodes += 1;
            if absorbed {
                summary.prefix_tests += 1;
                continue;
            }
            summary.nodes += 1;
            // The chain of a tail, bottom up: per level a node of its own
            // for a `*` test and for the last test that can fail (where the
            // annotation changes from the leaf's to the tail's, unless both
            // are all-`No`), and a place in the run of the node below for
            // every other test.
            let flat = annotations
                .get(id)
                .is_none_or(|row| row.iter().all(|w| *w == 0));
            let cut = annotations.cut(id);
            let mut run = 0;
            for (level, (_, test)) in node.residual().enumerate().rev() {
                summary.covered_nodes += 1;
                if !test.is_wildcard() && (level + 1 != cut || flat) {
                    run += 1;
                    continue;
                }
                summary.prefix_tests += run;
                summary.runs += usize::from(run > 0);
                run = 0;
            }
            // The chain's topmost node continues the run entering it.
            summary.prefix_tests += run;
            summary.runs += usize::from(opens_run || run > 0);
        }
        summary
    }
}

/// What [`ArenaView::summary`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaSummary {
    /// Nodes a search can stop at: what is kept. A tail is one, whatever
    /// its chain.
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
}

/// The label of an absorbed node's one edge.
#[derive(Debug, Clone, Copy)]
enum Label<'a> {
    Eq(&'a Value),
    Range(&'a AttrTest),
}

impl Label<'_> {
    fn holds(self, value: &Value) -> bool {
        match self {
            Label::Eq(label) => value == label,
            Label::Range(test) => test.matches(value),
        }
    }
}

/// The run rule: if `node` (PST node `id`) is absorbed, the child it is
/// absorbed into — its only child, behind an equality or range edge,
/// annotated exactly like it — and the label of that edge.
#[inline]
fn absorbed_into<'p>(
    node: &NodeRef<'p>,
    id: NodeId,
    annotations: &Annotations,
) -> Option<(NodeId, Label<'p>)> {
    if node.star().is_some() {
        return None;
    }
    let (child, label) = match (node.eq_edges(), node.range_edges()) {
        ([(value, child)], []) => (*child, Label::Eq(value)),
        ([], [(test, child)]) => (*child, Label::Range(test)),
        _ => return None,
    };
    (annotations.get(id) == annotations.get(child)).then_some((child, label))
}

/// Rewrites the top frame's resume point.
fn set_top(scratch: &mut MatchScratch, node: NodeId, state: FrameState, cursor: u32, end: u32) {
    if let Some(frame) = scratch.frames.last_mut() {
        frame.node = node;
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
    /// The PST node entered, and once its run is passed, the run's last
    /// node, whose edges the visit follows.
    node: NodeId,
    /// Next range candidate to test (index into the node's range edges);
    /// `NONE` until they are looked up.
    cursor: u32,
    /// End of the range candidates (exclusive).
    end: u32,
    state: FrameState,
}

impl Frame {
    fn enter(node: NodeId) -> Self {
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

/// What the match walk
/// ([`match_links_into`](crate::LinkMatchEngine::match_links_into)) has
/// observed since it was last cleared: per attribute, how many edge tests
/// the walks evaluated and how many of them held, plus the walks
/// themselves and the steps they took. An absorbed node's edge counts one
/// test; a lookup among `k` labels — equality or range — counts `k`
/// evaluated, which is what it decides, and each edge taken one
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

/// Reusable mask pool and frame stack for the match walk
/// ([`match_links_into`](crate::LinkMatchEngine::match_links_into)): one
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
    fn descend(&mut self, depth: usize, child: NodeId) {
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
