//! The per-broker link-matching engine: an annotated parallel search tree.

use linkcast_matching::{MatchStats, Matcher, NodeId, OrderPolicy, Pst, PstOptions};
use linkcast_types::{Event, EventSchema, LinkId, Subscription, SubscriptionId, TritVec};

use crate::annotate::Annotations;
use crate::arena::{ArenaView, WalkEvidence};
use crate::order::{self, OrderReport, FIRST_CHECK_WALKS};
use crate::{LinkSpace, MatchScratch, Result, TreeId};

/// Reusable buffers for the engine's allocation-free match path: the
/// arena walk's mask pool, plus what the walks have observed of each
/// information space's tests since its engine last reconsidered its
/// attribute order. Owned by whoever matches (a broker's engine thread, a
/// bench thread) and handed down by `&mut` — plain data, no lock.
#[derive(Debug, Default)]
pub struct RouteScratch {
    walk: MatchScratch,
    /// Indexed by schema id: one scratch serves every space of a broker.
    orders: Vec<OrderEvidence>,
}

impl RouteScratch {
    /// A fresh, empty scratch set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether some engine fed through this scratch has walked enough
    /// events since its last order check for
    /// [`LinkMatchEngine::adapt_order`] to have something to decide.
    pub fn order_check_due(&self) -> bool {
        self.orders.iter().any(OrderEvidence::due)
    }
}

/// One information space's walk evidence and the pacing of its checks.
#[derive(Debug, Default)]
struct OrderEvidence {
    walk: WalkEvidence,
    /// Checks since the last rebuild that left the order alone: each one
    /// doubles the walks the next waits for, so a table that has settled
    /// is looked at O(log events) times.
    quiet_checks: u32,
}

impl OrderEvidence {
    fn due(&self) -> bool {
        self.walk.walks() >= FIRST_CHECK_WALKS << self.quiet_checks.min(32)
    }

    /// Starts the next interval on fresh counters.
    fn settle(&mut self, rebuilt: bool) {
        self.walk.clear();
        self.quiet_checks = if rebuilt { 0 } else { self.quiet_checks + 1 };
    }
}

/// A rebuild awaiting its verdict: the order it replaced and the walk cost
/// of the interval that justified it.
#[derive(Debug, Clone)]
struct Trial {
    previous: Vec<usize>,
    walks: u64,
    steps: u64,
}

/// One broker's routing engine (§3): the full subscription set organized as
/// a PST, annotated with trit vectors over the broker's [`LinkSpace`], plus
/// the mask-refinement search of §3.3 that decides which links receive an
/// event.
///
/// "Each broker in the network has a copy of all the subscriptions,
/// organized into a PST" (§3.1) — the engine *is* that copy, specialized to
/// its broker's outgoing links.
///
/// # Example
///
/// ```
/// use linkcast::{NetworkBuilder, SpanningForest, LinkSpace, LinkMatchEngine, RouteScratch};
/// use linkcast_matching::{MatchStats, PstOptions};
/// use linkcast_types::{EventSchema, ValueKind, Value, Event, Predicate,
///     Subscription, SubscriptionId, SubscriberId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let b0 = b.add_broker();
/// let b1 = b.add_broker();
/// b.connect(b0, b1, 10.0)?;
/// let alice = b.add_client(b1)?;
/// let network = b.build()?;
/// let forest = SpanningForest::compute(&network);
/// let tree = forest.tree_for_root(b0).unwrap();
///
/// let schema = EventSchema::builder("s")
///     .attribute("x", ValueKind::Int)
///     .build()?;
/// let space = LinkSpace::build(&network, &forest, b0);
/// let mut engine = LinkMatchEngine::new(b0, schema.clone(), PstOptions::default(), space)?;
///
/// engine.subscribe(Subscription::new(
///     SubscriptionId::new(0),
///     SubscriberId::new(b1, alice),
///     Predicate::builder(&schema).eq("x", Value::Int(7))?.build(),
/// ))?;
///
/// let hit = Event::from_values(&schema, [Value::Int(7)])?;
/// let miss = Event::from_values(&schema, [Value::Int(8)])?;
/// let (mut scratch, mut stats, mut links) = (RouteScratch::new(), MatchStats::new(), Vec::new());
/// engine.match_links_into(&hit, tree, &mut scratch, &mut stats, &mut links);
/// assert_eq!(links.len(), 1);
/// engine.match_links_into(&miss, tree, &mut scratch, &mut stats, &mut links);
/// assert!(links.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinkMatchEngine {
    broker: linkcast_types::BrokerId,
    space: LinkSpace,
    pst: Pst,
    /// Annotation (and the tallies it is read off) per PST node.
    annotations: Annotations,
    /// Bumped on every subscription add/remove/re-annotation; a
    /// [`MatchCache`](crate::MatchCache) keyed under an old generation
    /// flushes itself on its next lookup.
    generation: u64,
    /// Per attribute, the live subscriptions that constrain it (hold a
    /// test other than `*`).
    constrained: Vec<u64>,
    /// `factored ∪ {a : constrained[a] > 0}`, sorted: re-derived whenever
    /// a count crosses zero.
    tested: Vec<usize>,
    /// Whether the attribute order is the engine's to choose: not when the
    /// operator pinned an [`OrderPolicy::Explicit`] one.
    adaptive: bool,
    /// Subscribes and unsubscribes so far.
    mutations: u64,
    /// The latest order rebuild, until its first interval has been judged.
    trial: Option<Trial>,
    /// The order a trial was reverted from, with `mutations` at that time.
    rejected: Option<(Vec<usize>, u64)>,
}

impl LinkMatchEngine {
    /// Creates an engine for `broker` with an empty subscription set.
    ///
    /// # Errors
    ///
    /// Any PST construction error (see [`Pst::new`]).
    pub fn new(
        broker: linkcast_types::BrokerId,
        schema: EventSchema,
        options: PstOptions,
        space: LinkSpace,
    ) -> Result<Self> {
        Self::with_subscriptions(broker, schema, options, space, [])
    }

    /// Creates an engine pre-loaded with a subscription set (the attribute
    /// order heuristic, if configured, derives from this set).
    ///
    /// # Errors
    ///
    /// Any PST construction or insertion error.
    pub fn with_subscriptions(
        broker: linkcast_types::BrokerId,
        schema: EventSchema,
        options: PstOptions,
        space: LinkSpace,
        subscriptions: impl IntoIterator<Item = Subscription>,
    ) -> Result<Self> {
        let adaptive = !matches!(options.order, OrderPolicy::Explicit(_));
        let arity = schema.arity();
        let pst = Pst::build(schema, subscriptions, options)?;
        let mut engine = LinkMatchEngine {
            broker,
            annotations: Annotations::new(space.width()),
            space,
            pst,
            generation: 0,
            constrained: vec![0; arity],
            tested: Vec::new(),
            adaptive,
            mutations: 0,
            trial: None,
            rejected: None,
        };
        engine.annotations.rebuild(&engine.pst, &engine.space);
        for subscription in engine.pst.subscriptions() {
            count_constraints(&mut engine.constrained, subscription, true);
        }
        engine.derive_tested();
        Ok(engine)
    }

    /// The broker this engine routes for.
    pub fn broker(&self) -> linkcast_types::BrokerId {
        self.broker
    }

    /// The engine's link space.
    pub fn space(&self) -> &LinkSpace {
        &self.space
    }

    /// The underlying (annotated) parallel search tree.
    pub fn pst(&self) -> &Pst {
        &self.pst
    }

    /// Number of registered subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.pst.len()
    }

    /// Registers a subscription and incrementally re-annotates the paths it
    /// touched: the cost follows the tree's depth and the mask width, not
    /// the fan-out of the nodes on the way.
    ///
    /// # Errors
    ///
    /// Duplicate ids or schema mismatches, from the PST.
    pub fn subscribe(&mut self, subscription: Subscription) -> Result<()> {
        let client = subscription.subscriber().client;
        let id = subscription.id();
        let report = self.pst.insert_reported(subscription)?;
        let subscription = self.pst.subscription(id);
        if subscription.is_some_and(|s| count_constraints(&mut self.constrained, s, true)) {
            self.derive_tested();
        }
        for path in report.paths() {
            self.annotations
                .apply(&self.pst, &self.space, path, client, true);
        }
        self.generation += 1;
        self.mutations += 1;
        Ok(())
    }

    /// Removes a subscription, pruning and re-annotating in place. Returns
    /// whether the id was registered.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(subscription) = self.pst.subscription(id) else {
            return false;
        };
        let client = subscription.subscriber().client;
        if count_constraints(&mut self.constrained, subscription, false) {
            self.derive_tested();
        }
        let Some(report) = self.pst.remove_reported(id) else {
            return false;
        };
        for path in report.paths() {
            self.annotations
                .apply(&self.pst, &self.space, path, client, false);
        }
        self.generation += 1;
        self.mutations += 1;
        true
    }

    /// The annotation of a PST node, if computed.
    pub fn annotation(&self, id: NodeId) -> Option<TritVec> {
        let words = self.annotations.get(id)?;
        Some(TritVec::from_words(self.space.width(), words))
    }

    /// Link matching (§3.3): refines `tree`'s initialization mask down the
    /// annotated PST until no `Maybe` remains, writing the physical links
    /// the event must be forwarded on (broker links and/or local client
    /// links) into `out` (cleared first). The walk is an explicit work
    /// stack of PST node ids that reads each node's edges and annotation
    /// row where they are and draws every mask from `scratch`; the
    /// steady-state path allocates nothing.
    pub fn match_links_into(
        &self,
        event: &Event,
        tree: TreeId,
        scratch: &mut RouteScratch,
        stats: &mut MatchStats,
        out: &mut Vec<LinkId>,
    ) {
        out.clear();
        stats.events += 1;
        let init = self.space.init_mask(tree);
        if !init.has_maybe() {
            // Nothing is downstream of this broker on this tree.
            return;
        }
        scratch.walk.seed(init);
        let space = self.space_index();
        if scratch.orders.len() <= space {
            scratch
                .orders
                .resize_with(space + 1, OrderEvidence::default);
        }
        let Some(evidence) = scratch.orders.get_mut(space) else {
            return;
        };
        let arena = self.arena();
        if !arena.search(event, &mut scratch.walk, &mut evidence.walk, stats) {
            // No subscription exists under the event's factor key.
            return;
        }
        if let Some(refined) = scratch.walk.result() {
            self.space.links_to_send_into(refined, out);
        }
    }

    /// Runs the §2 centralized matching over the full tree (no trits),
    /// returning matched subscription ids — the Chart 2 "centralized"
    /// series.
    pub fn match_subscriptions(
        &self,
        event: &Event,
        stats: &mut MatchStats,
    ) -> Vec<SubscriptionId> {
        self.pst.matches_with_stats(event, stats)
    }

    /// Looks up a registered subscription.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.pst.subscription(id)
    }

    /// The annotated PST as the match walk reads it: how many nodes a
    /// search can stop at, and what the run compression folds away.
    pub fn arena(&self) -> ArenaView<'_> {
        ArenaView {
            pst: &self.pst,
            annotations: &self.annotations,
        }
    }

    /// Monotonic subscription-set generation: bumped on every subscribe,
    /// unsubscribe, and re-annotation. A [`MatchCache`](crate::MatchCache)
    /// presents this on lookup; a mismatch flushes the cache, so no memoized
    /// result can outlive the subscription set it was computed under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The attribute indices that can influence this engine's match results
    /// (sorted) — the match-cache key schema: the factored attributes and
    /// every attribute some live subscription constrains. Every value edge
    /// and every non-`*` tail test is such a constraint, and no other test
    /// can tell two events apart, so the set is both sufficient and
    /// minimal after any sequence of subscribes and unsubscribes.
    pub fn tested_attributes(&self) -> &[usize] {
        &self.tested
    }

    /// Reconsiders the attribute order in the light of what the arena
    /// walks fed through `scratch` have observed, and rebuilds the engine in
    /// a better one if there is one. Returns whether it rebuilt.
    ///
    /// Does nothing until 256 events have walked the tree since the last
    /// check or rebuild, twice as many after every check that
    /// left the order alone — so it may be called after every event, or
    /// only when [`RouteScratch::order_check_due`] says so. A check prices
    /// the current order and the one ascending by observed survival
    /// ([`order_report`](Self::order_report)) and rebuilds when the current
    /// one costs at least twice the proposal: the live subscriptions
    /// inserted in id order into a fresh tree and re-annotated — what
    /// [`with_subscriptions`](Self::with_subscriptions) builds for that
    /// explicit order — under a new [`generation`](Self::generation). The
    /// model is not trusted: if the first interval under a new order does
    /// not walk fewer steps per event than the interval that asked for it,
    /// the engine rebuilds back and leaves that order alone until as many
    /// subscribes and unsubscribes as it holds subscriptions have passed.
    /// Everything here is a function of counts; no clock is read.
    ///
    /// An order the operator pinned ([`OrderPolicy::Explicit`]) is never
    /// changed, and factored attributes keep their place.
    pub fn adapt_order(&mut self, scratch: &mut RouteScratch) -> bool {
        let due = scratch.orders.get_mut(self.space_index());
        let Some(evidence) = due.filter(|e| e.due()) else {
            return false;
        };
        let rebuilt = self.adaptive && self.check_order(&evidence.walk);
        evidence.settle(rebuilt);
        rebuilt
    }

    /// One due order check over `evidence`: the verdict on a pending trial
    /// first, then the proposal.
    fn check_order(&mut self, evidence: &WalkEvidence) -> bool {
        let (walks, steps) = (evidence.walks(), evidence.steps());
        if let Some(trial) = self.trial.take() {
            // steps/walks now >= steps/walks then: no gain, go back.
            let no_lower = u128::from(steps) * u128::from(trial.walks)
                >= u128::from(trial.steps) * u128::from(walks);
            let tried = self.pst.order().to_vec();
            if no_lower && self.rebuild_in_order(&trial.previous) {
                self.rejected = Some((tried, self.mutations));
                return true;
            }
        }
        let report = self.assess(evidence);
        let barred = self.rejected.as_ref().is_some_and(|(order, since)| {
            *order == report.proposed && self.mutations - since < self.pst.len() as u64
        });
        if barred || !report.worth_rebuilding() {
            return false;
        }
        let previous = self.pst.order().to_vec();
        if !self.rebuild_in_order(&report.proposed) {
            return false;
        }
        self.trial = Some(Trial {
            previous,
            walks,
            steps,
        });
        true
    }

    /// Why the attribute order is what it is, on the evidence `scratch` has
    /// gathered since this engine's last check: per level the subscriptions
    /// constraining it, the edge tests evaluated and satisfied, and the
    /// survival estimated from them; the modelled cost of the current order
    /// and of the one [`adapt_order`](Self::adapt_order) would propose.
    pub fn order_report(&self, scratch: &RouteScratch) -> OrderReport {
        let none = WalkEvidence::default();
        let evidence = scratch.orders.get(self.space_index());
        self.assess(evidence.map_or(&none, |e| &e.walk))
    }

    /// Which of a [`RouteScratch`]'s evidence slots is this engine's: its
    /// information space's schema id.
    fn space_index(&self) -> usize {
        self.pst.schema().id().index()
    }

    fn assess(&self, evidence: &WalkEvidence) -> OrderReport {
        order::assess(
            self.pst.order(),
            &self.constrained,
            self.pst.len(),
            evidence,
        )
    }

    /// Rebuilds tree and annotations with the non-factored
    /// attributes tested in `order`, from the live subscriptions in id
    /// order: a function of the subscription set and the order alone,
    /// whatever history led here. `false` (and no change) if the tree
    /// cannot be built.
    fn rebuild_in_order(&mut self, order: &[usize]) -> bool {
        let mut subscriptions: Vec<Subscription> = self.pst.subscriptions().cloned().collect();
        subscriptions.sort_unstable_by_key(Subscription::id);
        let full = self.pst.factored().iter().chain(order).copied().collect();
        let options = (self.pst.options().clone()).with_order(OrderPolicy::Explicit(full));
        let Ok(pst) = Pst::build(self.pst.schema().clone(), subscriptions, options) else {
            return false;
        };
        self.pst = pst;
        self.rebuild_annotations();
        true
    }

    /// Re-derives [`tested_attributes`](Self::tested_attributes) from the
    /// constraint counts.
    fn derive_tested(&mut self) {
        let factored = self.pst.factored();
        let counts = self.constrained.iter().enumerate();
        let tested = counts.filter(|(attr, count)| **count > 0 || factored.contains(attr));
        self.tested.clear();
        self.tested.extend(tested.map(|(attr, _)| attr));
    }

    /// Swaps in a new link space (topology repair) and rebuilds every
    /// derived structure: leaf vectors and annotations. The engine's
    /// generation counter keeps counting up from its current value, so
    /// match-cache entries minted under the old space are invalidated
    /// rather than aliased.
    pub fn rebuild_space(&mut self, space: LinkSpace) {
        self.space = space;
        self.rebuild_annotations();
    }

    /// Recomputes leaf vectors, tallies and annotations from scratch (call
    /// after the link space changes; topology is otherwise static in this
    /// reproduction).
    pub fn rebuild_annotations(&mut self) {
        self.annotations.rebuild(&self.pst, &self.space);
        self.generation += 1;
    }
}

/// Counts `subscription` into (or out of) the per-attribute tallies of
/// subscriptions that constrain the attribute; `true` if a tally went from
/// or to zero.
fn count_constraints(constrained: &mut [u64], subscription: &Subscription, add: bool) -> bool {
    let tests = subscription.predicate().tests();
    let mut crossed = false;
    for (count, test) in constrained.iter_mut().zip(tests) {
        if !test.is_wildcard() {
            crossed |= *count == u64::from(!add);
            *count = if add { *count + 1 } else { *count - 1 };
        }
    }
    crossed
}
