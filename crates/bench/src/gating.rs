//! Gating-test baseline matcher (Hanson et al., SIGMOD 1990).
//!
//! The paper's related-work section describes this predicate-matching
//! algorithm: "At analysis time, one of the tests `a_ij` of each
//! subscription is chosen as the *gating test*; the remaining tests of the
//! subscription (if any) are *residual tests*. At matching time ... the
//! event value `v_j` is used to select those subscriptions whose gating
//! tests include `a_ij = v_j`. The residual tests of each selected
//! subscription are then evaluated."
//!
//! The contrast the paper draws is that the PST "performs this type of test
//! for each attribute, not just a single gating test attribute."

use std::collections::{BTreeMap, HashMap};

use linkcast_matching::{MatchStats, Matcher, MatcherError};
use linkcast_types::{AttrTest, Event, EventSchema, Subscription, SubscriptionId, Value};

/// Where a subscription's gating test is indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GateSlot {
    /// Indexed under `(attribute, value)` in the equality hash index.
    Equality(usize, Value),
    /// Kept in the per-attribute list of non-equality gating tests.
    Range(usize),
    /// No non-`*` test exists; the subscription matches every event.
    Always,
}

/// Baseline matcher that indexes one *gating test* per subscription and
/// evaluates the rest (*residual tests*) per candidate.
///
/// Gating-test choice: the first equality test in schema order, else the
/// first non-`*` test, else the subscription is kept on an "always matches"
/// list.
#[derive(Debug, Clone)]
pub struct GatingMatcher {
    schema: EventSchema,
    subscriptions: BTreeMap<SubscriptionId, (Subscription, GateSlot)>,
    /// Per-attribute `value -> subscriptions gated on that equality`. Keyed
    /// per attribute (not by an `(attribute, value)` pair) so the per-event
    /// lookup borrows the event's value instead of cloning it into a
    /// composite key — `Str` values would heap-allocate on every attribute
    /// of every matched event otherwise.
    eq_index: Vec<HashMap<Value, Vec<SubscriptionId>>>,
    /// Per-attribute non-equality gating tests.
    range_index: Vec<Vec<(AttrTest, SubscriptionId)>>,
    /// Subscriptions whose predicate is all-`*`.
    always: Vec<SubscriptionId>,
}

impl GatingMatcher {
    /// Creates an empty matcher for `schema`.
    pub fn new(schema: EventSchema) -> Self {
        let arity = schema.arity();
        Self {
            schema,
            subscriptions: BTreeMap::new(),
            eq_index: vec![HashMap::new(); arity],
            range_index: vec![Vec::new(); arity],
            always: Vec::new(),
        }
    }

    /// The schema this matcher serves.
    pub fn schema(&self) -> &EventSchema {
        &self.schema
    }

    fn choose_gate(sub: &Subscription) -> GateSlot {
        let tests = sub.predicate().tests();
        for (i, t) in tests.iter().enumerate() {
            if let AttrTest::Eq(v) = t {
                return GateSlot::Equality(i, v.clone());
            }
        }
        for (i, t) in tests.iter().enumerate() {
            if !t.is_wildcard() {
                return GateSlot::Range(i);
            }
        }
        GateSlot::Always
    }

    /// Evaluates the residual tests of a candidate (every test except the
    /// gating one, which the index already established).
    fn residuals_hold(
        &self,
        sub: &Subscription,
        gate_attr: Option<usize>,
        event: &Event,
        stats: &mut MatchStats,
    ) -> bool {
        for (i, t) in sub.predicate().tests().iter().enumerate() {
            if Some(i) == gate_attr || t.is_wildcard() {
                continue;
            }
            stats.comparisons += 1;
            let Some(v) = event.value(i) else {
                return false;
            };
            if !t.matches(v) {
                return false;
            }
        }
        true
    }
}

impl Matcher for GatingMatcher {
    fn insert(&mut self, subscription: Subscription) -> Result<(), MatcherError> {
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
        let slot = Self::choose_gate(&subscription);
        match &slot {
            GateSlot::Equality(attr, value) => {
                self.eq_index[*attr]
                    .entry(value.clone())
                    .or_default()
                    .push(id);
            }
            GateSlot::Range(attr) => {
                let test = subscription.predicate().tests()[*attr].clone();
                self.range_index[*attr].push((test, id));
            }
            GateSlot::Always => self.always.push(id),
        }
        self.subscriptions.insert(id, (subscription, slot));
        Ok(())
    }

    fn remove(&mut self, id: SubscriptionId) -> bool {
        let Some((_, slot)) = self.subscriptions.remove(&id) else {
            return false;
        };
        match slot {
            GateSlot::Equality(attr, value) => {
                if let Some(list) = self.eq_index[attr].get_mut(&value) {
                    list.retain(|s| *s != id);
                    if list.is_empty() {
                        self.eq_index[attr].remove(&value);
                    }
                }
            }
            GateSlot::Range(attr) => {
                self.range_index[attr].retain(|(_, s)| *s != id);
            }
            GateSlot::Always => self.always.retain(|s| *s != id),
        }
        true
    }

    fn matches_with_stats(&self, event: &Event, stats: &mut MatchStats) -> Vec<SubscriptionId> {
        stats.events += 1;
        let mut out = Vec::new();
        let consider = |id: SubscriptionId,
                        gate: Option<usize>,
                        out: &mut Vec<SubscriptionId>,
                        stats: &mut MatchStats| {
            stats.steps += 1;
            let (sub, _) = &self.subscriptions[&id];
            if self.residuals_hold(sub, gate, event, stats) {
                stats.leaf_hits += 1;
                out.push(id);
            }
        };

        for (attr, value) in event.values().iter().enumerate() {
            if let Some(candidates) = self.eq_index[attr].get(value) {
                for id in candidates {
                    consider(*id, Some(attr), &mut out, stats);
                }
            }
            for (test, id) in &self.range_index[attr] {
                stats.comparisons += 1;
                if test.matches(value) {
                    consider(*id, Some(attr), &mut out, stats);
                }
            }
        }
        for id in &self.always {
            consider(*id, None, &mut out, stats);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn len(&self) -> usize {
        self.subscriptions.len()
    }

    fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subscriptions.get(&id).map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveMatcher;
    use linkcast_types::{parse_predicate, BrokerId, ClientId, SubscriberId, Value, ValueKind};
    use proptest::prelude::*;

    fn schema() -> EventSchema {
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap()
    }

    fn sub(id: u32, expr: &str) -> Subscription {
        Subscription::new(
            SubscriptionId::new(id),
            SubscriberId::new(BrokerId::new(0), ClientId::new(id)),
            parse_predicate(&schema(), expr).unwrap(),
        )
    }

    fn event(issue: &str, cents: i64, volume: i64) -> Event {
        Event::from_values(
            &schema(),
            [Value::str(issue), Value::Dollar(cents), Value::Int(volume)],
        )
        .unwrap()
    }

    #[test]
    fn gate_selection_prefers_equality() {
        assert_eq!(
            GatingMatcher::choose_gate(&sub(0, r#"price < 5 & issue = "IBM""#)),
            GateSlot::Equality(0, Value::str("IBM"))
        );
        assert_eq!(
            GatingMatcher::choose_gate(&sub(0, "price < 5 & volume > 2")),
            GateSlot::Range(1)
        );
        assert_eq!(
            GatingMatcher::choose_gate(&sub(0, "issue = *")),
            GateSlot::Always
        );
    }

    #[test]
    fn matches_equality_range_and_always() {
        let mut m = GatingMatcher::new(schema());
        m.insert(sub(0, r#"issue = "IBM" & volume > 1000"#))
            .unwrap();
        m.insert(sub(1, "price < 100.00")).unwrap();
        m.insert(sub(2, "volume = *")).unwrap(); // always
        m.insert(sub(3, r#"issue = "HP""#)).unwrap();

        let got = m.matches(&event("IBM", 5000, 2000));
        assert_eq!(
            got,
            vec![
                SubscriptionId::new(0),
                SubscriptionId::new(1),
                SubscriptionId::new(2)
            ]
        );
    }

    #[test]
    fn agrees_with_naive_on_random_workload() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let schema = schema();
        let issues = ["IBM", "HP", "SUN", "DEC"];

        let mut gating = GatingMatcher::new(schema.clone());
        let mut naive = NaiveMatcher::new(schema.clone());
        for i in 0..300u32 {
            let mut b = linkcast_types::Predicate::builder(&schema);
            if rng.random_bool(0.6) {
                b = b
                    .eq("issue", Value::str(issues[rng.random_range(0..4)]))
                    .unwrap();
            }
            if rng.random_bool(0.5) {
                b = b
                    .lt("price", Value::Dollar(rng.random_range(0..10_000)))
                    .unwrap();
            }
            if rng.random_bool(0.5) {
                b = b
                    .gt("volume", Value::Int(rng.random_range(0..100)))
                    .unwrap();
            }
            let s = Subscription::new(
                SubscriptionId::new(i),
                SubscriberId::new(BrokerId::new(0), ClientId::new(i)),
                b.build(),
            );
            gating.insert(s.clone()).unwrap();
            naive.insert(s).unwrap();
        }
        for _ in 0..200 {
            let ev = event(
                issues[rng.random_range(0..4)],
                rng.random_range(0..10_000),
                rng.random_range(0..100),
            );
            assert_eq!(gating.matches(&ev), naive.matches(&ev));
        }
    }

    /// One test over a domain of three values: `*`, `=`, `<`, `>=` or a
    /// closed interval, by `kind`.
    fn attr_test(kind: u8, a: i64, b: i64) -> AttrTest {
        let (v, lo, hi) = (Value::Int(a), Value::Int(a.min(b)), Value::Int(a.max(b)));
        match kind {
            0 => AttrTest::Any,
            1 => AttrTest::Eq(v),
            2 => AttrTest::Lt(v),
            3 => AttrTest::Ge(v),
            _ => AttrTest::Between(lo, hi),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On arbitrary tables over four small-domain attributes, every
        /// test kind and `*` drawn, the gating matcher agrees with the scan.
        #[test]
        fn agrees_with_naive_on_arbitrary_tables(
            table in proptest::collection::vec(
                proptest::array::uniform4((0u8..5, 0i64..3, 0i64..3)),
                0..24,
            ),
            events in proptest::collection::vec(proptest::array::uniform4(0i64..3), 1..16),
        ) {
            let mut b = EventSchema::builder("prop");
            for i in 0..4 {
                b = b.attribute_with_domain(format!("a{i}"), ValueKind::Int, (0..3).map(Value::Int));
            }
            let schema = b.build().unwrap();
            let mut gating = GatingMatcher::new(schema.clone());
            let mut naive = NaiveMatcher::new(schema.clone());
            for (i, tests) in table.iter().enumerate() {
                let tests = tests.iter().map(|&(kind, a, b)| attr_test(kind, a, b));
                let s = Subscription::new(
                    SubscriptionId::new(i as u32),
                    SubscriberId::new(BrokerId::new(0), ClientId::new(i as u32)),
                    linkcast_types::Predicate::from_tests(&schema, tests).unwrap(),
                );
                gating.insert(s.clone()).unwrap();
                naive.insert(s).unwrap();
            }
            for values in &events {
                let event = Event::from_values(&schema, values.map(Value::Int)).unwrap();
                prop_assert_eq!(gating.matches(&event), naive.matches(&event));
            }
        }
    }

    #[test]
    fn remove_unindexes() {
        let mut m = GatingMatcher::new(schema());
        m.insert(sub(0, r#"issue = "IBM""#)).unwrap();
        m.insert(sub(1, "price < 10.00")).unwrap();
        m.insert(sub(2, "issue = *")).unwrap();
        assert!(m.remove(SubscriptionId::new(0)));
        assert!(m.remove(SubscriptionId::new(1)));
        assert!(m.remove(SubscriptionId::new(2)));
        assert!(!m.remove(SubscriptionId::new(2)));
        assert!(m.matches(&event("IBM", 1, 1)).is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn duplicate_and_mismatch_rejected() {
        let mut m = GatingMatcher::new(schema());
        m.insert(sub(0, "volume > 1")).unwrap();
        assert!(matches!(
            m.insert(sub(0, "volume > 1")),
            Err(MatcherError::DuplicateSubscription(_))
        ));
        let other = EventSchema::builder("s")
            .attribute("x", ValueKind::Int)
            .build()
            .unwrap();
        let bad = Subscription::new(
            SubscriptionId::new(4),
            SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
            parse_predicate(&other, "x = 1").unwrap(),
        );
        assert!(matches!(
            m.insert(bad),
            Err(MatcherError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn stats_track_candidates() {
        let mut m = GatingMatcher::new(schema());
        m.insert(sub(0, r#"issue = "IBM" & volume > 1000"#))
            .unwrap();
        m.insert(sub(1, r#"issue = "HP""#)).unwrap();
        let mut stats = MatchStats::new();
        let got = m.matches_with_stats(&event("IBM", 1, 2000), &mut stats);
        assert_eq!(got, vec![SubscriptionId::new(0)]);
        // Only the IBM-gated subscription is a candidate.
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.leaf_hits, 1);
    }
}
