//! The Fig. 7 "matching engine": subscription manager + event parser over
//! one link-matching engine per information space.

use std::sync::Arc;

use linkcast::{
    CoreError, LinkMatchEngine, LinkSpace, MatchCache, Result, RouteScratch, RoutingFabric, TreeId,
};
use linkcast_matching::{MatchStats, MatcherError, PstOptions};
use linkcast_types::{
    parse_predicate, BrokerId, Event, LinkId, Predicate, SchemaId, SchemaRegistry, Subscription,
    SubscriptionId,
};

/// A broker's matching engine: "a subscription manager, and an event
/// parser" (§4.2), serving every registered information space.
///
/// The subscription manager "receives a subscription from a client, parses
/// the subscription expression, and adds the subscription to the matching
/// tree"; the event parser validates incoming events against their schema
/// (done at decode time by [`linkcast_types::wire::get_event`], re-checked
/// here for locally constructed events).
#[derive(Debug)]
pub struct MatchingEngine {
    registry: Arc<SchemaRegistry>,
    /// One annotated PST per information space, indexed by schema id;
    /// a subscription id is registered in at most one of them.
    engines: Vec<LinkMatchEngine>,
}

impl MatchingEngine {
    /// Builds the engine for `broker` over all schemas in `registry`:
    /// each space's tree has the paper's options and factors what its
    /// schema declares factored.
    ///
    /// # Errors
    ///
    /// Any link-matching engine construction error.
    pub fn new(
        broker: BrokerId,
        fabric: &RoutingFabric,
        registry: Arc<SchemaRegistry>,
    ) -> Result<Self> {
        let mut engines = Vec::with_capacity(registry.len());
        for schema in registry.iter() {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            let options = PstOptions::default();
            engines.push(LinkMatchEngine::new(
                broker,
                schema.clone(),
                options,
                space,
            )?);
        }
        Ok(MatchingEngine { registry, engines })
    }

    /// The schema registry (information spaces) this engine serves.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// Rebuilds every per-space engine over a repaired routing fabric
    /// (topology repair: some links declared dead, spanning forest
    /// recomputed over the surviving graph).
    ///
    /// Subscriptions are preserved — only the link space (tree shapes,
    /// init masks, virtual-link classes) is rederived. Each underlying
    /// [`LinkMatchEngine`] bumps its generation in place, so match
    /// caches keyed by [`generation`](Self::generation) are invalidated
    /// without any risk of generation collision from a fresh engine.
    pub fn rebuild_topology(&mut self, broker: BrokerId, fabric: &RoutingFabric) {
        for engine in &mut self.engines {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            engine.rebuild_space(space);
        }
    }

    /// Parses a subscription expression against an information space.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unknown`] for unknown schemas, or parse errors.
    pub fn parse_subscription(&self, schema: SchemaId, expression: &str) -> Result<Predicate> {
        let schema = self
            .registry
            .get(schema)
            .ok_or_else(|| CoreError::Unknown(format!("information space {schema}")))?;
        parse_predicate(schema, expression).map_err(CoreError::Types)
    }

    /// Registers a subscription in the given information space.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unknown`] for unknown schemas, plus matcher errors
    /// (duplicates — in any information space — and arity mismatches).
    pub fn subscribe(&mut self, schema: SchemaId, subscription: Subscription) -> Result<()> {
        let id = subscription.id();
        if self.knows(id) {
            return Err(MatcherError::DuplicateSubscription(id).into());
        }
        let engine = self
            .engines
            .get_mut(schema.index())
            .ok_or_else(|| CoreError::Unknown(format!("information space {schema}")))?;
        engine.subscribe(subscription)
    }

    /// Removes a subscription, returning whether it was registered.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.engines.iter_mut().any(|engine| engine.unsubscribe(id))
    }

    /// Whether a subscription id is registered (used to stop control-plane
    /// flooding).
    pub fn knows(&self, id: SubscriptionId) -> bool {
        self.subscription(id).is_some()
    }

    /// Total registered subscriptions across all information spaces.
    pub fn subscription_count(&self) -> usize {
        self.engines
            .iter()
            .map(LinkMatchEngine::subscription_count)
            .sum()
    }

    /// Sum of the per-space engine generations. Bumps on every
    /// subscription add/remove and every re-annotation in any information
    /// space, so a [`MatchCache`] keyed by this value can never serve a
    /// link set computed against a stale subscription set.
    pub fn generation(&self) -> u64 {
        self.engines.iter().map(LinkMatchEngine::generation).sum()
    }

    /// Link matching for one event through the match walk: the
    /// links the event must be forwarded on, per its own schema's
    /// annotated tree. Reuses `scratch` across calls and memoizes the link
    /// set in `cache` keyed by the event's *tested* attribute values.
    ///
    /// The caller (the broker's engine thread) owns both `cache` and
    /// `scratch`. A disabled cache (capacity 0) degrades to the plain
    /// arena walk.
    pub fn route_cached(
        &self,
        event: &Event,
        tree: TreeId,
        cache: &mut MatchCache,
        scratch: &mut RouteScratch,
        stats: &mut MatchStats,
        out: &mut Vec<LinkId>,
    ) {
        out.clear();
        let schema = event.schema().id();
        let Some(engine) = self.engines.get(schema.index()) else {
            return;
        };
        let generation = self.generation();
        if let Some(links) = cache.lookup(
            generation,
            schema.index(),
            tree,
            event,
            engine.tested_attributes(),
            stats,
        ) {
            stats.events += 1;
            out.extend_from_slice(links);
            return;
        }
        engine.match_links_into(event, tree, scratch, stats, out);
        cache.insert(
            generation,
            schema.index(),
            tree,
            event,
            engine.tested_attributes(),
            out,
        );
    }

    /// Lets every information space whose walks through `scratch` have
    /// made an order check due reconsider its attribute order
    /// ([`LinkMatchEngine::adapt_order`]); returns how many rebuilt. The
    /// caller asks [`RouteScratch::order_check_due`] first and comes here
    /// between events only.
    pub fn adapt_orders(&mut self, scratch: &mut RouteScratch) -> u64 {
        let rebuilt = self.engines.iter_mut().map(|e| e.adapt_order(scratch));
        rebuilt.map(u64::from).sum()
    }

    /// Looks up a registered subscription: one lookup per information
    /// space, in the space's own PST.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.engines.iter().find_map(|e| e.subscription(id))
    }

    /// Every registered subscription with its information space, in id
    /// order — the payload of the anti-entropy resync sent when a broker
    /// link (re-)establishes.
    pub fn all_subscriptions(&self) -> Vec<(SchemaId, Subscription)> {
        let spaces = self.engines.iter().map(LinkMatchEngine::pst);
        let mut out: Vec<(SchemaId, Subscription)> = spaces
            .flat_map(|pst| pst.subscriptions().map(|s| (pst.schema().id(), s.clone())))
            .collect();
        out.sort_by_key(|(_, s)| s.id());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast::NetworkBuilder;
    use linkcast_types::{ClientId, EventSchema, SubscriberId, Value, ValueKind};

    fn registry() -> Arc<SchemaRegistry> {
        let mut r = SchemaRegistry::new();
        r.register(
            EventSchema::builder("trades")
                .attribute("issue", ValueKind::Str)
                .attribute("volume", ValueKind::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        r.register(
            EventSchema::builder("quotes")
                .attribute("bid", ValueKind::Dollar)
                .build()
                .unwrap(),
        )
        .unwrap();
        Arc::new(r)
    }

    /// The links `event` leaves on, walked with the result cache off.
    fn route(engine: &MatchingEngine, event: &Event, tree: TreeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        engine.route_cached(
            event,
            tree,
            &mut MatchCache::new(0),
            &mut RouteScratch::new(),
            &mut MatchStats::new(),
            &mut links,
        );
        links
    }

    fn world() -> (Arc<RoutingFabric>, ClientId, ClientId) {
        let mut b = NetworkBuilder::new();
        let b0 = b.add_broker();
        let b1 = b.add_broker();
        b.connect(b0, b1, 5.0).unwrap();
        let local = b.add_client(b0).unwrap();
        let remote = b.add_client(b1).unwrap();
        (
            RoutingFabric::new_all_roots(b.build().unwrap()).unwrap(),
            local,
            remote,
        )
    }

    #[test]
    fn multiple_information_spaces_are_independent() {
        let (fabric, local, _remote) = world();
        let registry = registry();
        let mut engine =
            MatchingEngine::new(BrokerId::new(0), &fabric, Arc::clone(&registry)).unwrap();

        let trades = registry.get_by_name("trades").unwrap().clone();
        let quotes = registry.get_by_name("quotes").unwrap().clone();
        let p_trades = engine
            .parse_subscription(trades.id(), "volume > 100")
            .unwrap();
        engine
            .subscribe(
                trades.id(),
                Subscription::new(
                    SubscriptionId::new(1),
                    SubscriberId::new(BrokerId::new(0), local),
                    p_trades,
                ),
            )
            .unwrap();

        let tree = fabric.tree_for(BrokerId::new(0)).unwrap();
        let trade = Event::from_values(&trades, [Value::str("IBM"), Value::Int(500)]).unwrap();
        let quote = Event::from_values(&quotes, [Value::Dollar(100)]).unwrap();
        assert_eq!(route(&engine, &trade, tree).len(), 1);
        assert!(route(&engine, &quote, tree).is_empty());
        assert_eq!(engine.subscription_count(), 1);
        assert!(engine.knows(SubscriptionId::new(1)));
        assert!(engine.subscription(SubscriptionId::new(1)).is_some());
        // An id lives in one space: the per-space lookups find it there.
        let p_quotes = engine.parse_subscription(quotes.id(), "bid > 1").unwrap();
        let subscriber = SubscriberId::new(BrokerId::new(0), local);
        let twin = Subscription::new(SubscriptionId::new(1), subscriber, p_quotes);
        assert!(engine.subscribe(quotes.id(), twin).is_err());
        assert_eq!(engine.all_subscriptions().len(), 1);
    }

    #[test]
    fn unsubscribe_routes_nothing() {
        let (fabric, local, _) = world();
        let registry = registry();
        let trades = registry.get_by_name("trades").unwrap().clone();
        let mut engine =
            MatchingEngine::new(BrokerId::new(0), &fabric, Arc::clone(&registry)).unwrap();
        let p = engine
            .parse_subscription(trades.id(), "volume > 0")
            .unwrap();
        engine
            .subscribe(
                trades.id(),
                Subscription::new(
                    SubscriptionId::new(1),
                    SubscriberId::new(BrokerId::new(0), local),
                    p,
                ),
            )
            .unwrap();
        assert!(engine.unsubscribe(SubscriptionId::new(1)));
        assert!(!engine.unsubscribe(SubscriptionId::new(1)));
        let tree = fabric.tree_for(BrokerId::new(0)).unwrap();
        let trade = Event::from_values(&trades, [Value::str("IBM"), Value::Int(500)]).unwrap();
        assert!(route(&engine, &trade, tree).is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let (fabric, _, _) = world();
        let registry = registry();
        let engine = MatchingEngine::new(BrokerId::new(0), &fabric, Arc::clone(&registry)).unwrap();
        assert!(engine
            .parse_subscription(SchemaId::new(9), "volume > 0")
            .is_err());
        assert!(engine
            .parse_subscription(SchemaId::new(0), "nonsense >>>")
            .is_err());
    }
}
