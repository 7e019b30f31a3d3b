//! Subscription predicates: conjunctions of per-attribute tests.

use std::cmp::Ordering;
use std::fmt;

use crate::{Error, Event, EventSchema, Result, Value, ValueKind};

/// A test applied to a single attribute of an event.
///
/// The paper's parallel search tree branches on equality tests and `*`
/// ("don't care") branches, and notes that "range tests are also possible";
/// this type covers both.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrTest {
    /// `*` — the subscription does not care about this attribute.
    Any,
    /// `attr = v`.
    Eq(Value),
    /// `attr < v`.
    Lt(Value),
    /// `attr <= v`.
    Le(Value),
    /// `attr > v`.
    Gt(Value),
    /// `attr >= v`.
    Ge(Value),
    /// `lo <= attr <= hi` (both bounds inclusive).
    Between(Value, Value),
}

impl AttrTest {
    /// Evaluates the test against an attribute value.
    ///
    /// A value of a different kind than the operand never satisfies a
    /// non-`Any` test.
    ///
    /// Inlinable across crates: every walk calls this on each candidate a
    /// [`RangeLookup`] returns.
    #[inline]
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            AttrTest::Any => true,
            AttrTest::Eq(v) => value == v,
            AttrTest::Lt(v) => value.kind() == v.kind() && value < v,
            AttrTest::Le(v) => value.kind() == v.kind() && value <= v,
            AttrTest::Gt(v) => value.kind() == v.kind() && value > v,
            AttrTest::Ge(v) => value.kind() == v.kind() && value >= v,
            AttrTest::Between(lo, hi) => value.kind() == lo.kind() && lo <= value && value <= hi,
        }
    }

    /// The order a node's range edges are kept in, so that the tests a
    /// value satisfies form one run, which [`RangeLookup`] finds: first the
    /// lower-bounded tests (`>`, `>=`, `between`) by descending lower bound,
    /// at a tie `>`, then `>=`, then `between` by descending upper bound;
    /// then the upper-bounded ones by descending upper bound, at a tie `<=`
    /// before `<`; last `*` and equality, which are not range edges.
    /// Descending lower bounds make the benchmark's `volume >= -j` tables,
    /// installed with `j` rising, an append.
    pub fn range_cmp(&self, other: &AttrTest) -> Ordering {
        // (group, bound, rank at a tied bound, a `between`'s upper bound)
        fn key(t: &AttrTest) -> (u8, Option<&Value>, u8, Option<&Value>) {
            match t {
                AttrTest::Gt(lo) => (0, Some(lo), 0, None),
                AttrTest::Ge(lo) => (0, Some(lo), 1, None),
                AttrTest::Between(lo, hi) => (0, Some(lo), 2, Some(hi)),
                AttrTest::Le(hi) => (1, Some(hi), 0, None),
                AttrTest::Lt(hi) => (1, Some(hi), 1, None),
                _ => (2, None, 0, None),
            }
        }
        let ((ga, a, ra, ha), (gb, b, rb, hb)) = (key(self), key(other));
        (ga, b, ra, hb)
            .cmp(&(gb, a, rb, ha))
            .then_with(|| self.cmp(other))
    }

    /// What a [`RangeLookup`] over this test alone charges for `value`,
    /// its candidate checked; nothing for `*` and equality, which are not
    /// range edges.
    pub fn lone_range_cost(&self, value: &Value) -> u64 {
        if self.is_wildcard() || self.is_equality() {
            return 0;
        }
        let lookup = RangeLookup::new(std::slice::from_ref(self), |t| t, value);
        let between = matches!(self, AttrTest::Between(..));
        lookup.probes + u64::from(between && !lookup.candidates.is_empty())
    }

    /// Whether this is the `*` (don't care) test.
    pub fn is_wildcard(&self) -> bool {
        matches!(self, AttrTest::Any)
    }

    /// Whether this is an equality test.
    pub fn is_equality(&self) -> bool {
        matches!(self, AttrTest::Eq(_))
    }

    /// The operand value(s) of the test, if any.
    pub fn operand(&self) -> Option<&Value> {
        match self {
            AttrTest::Any => None,
            AttrTest::Eq(v)
            | AttrTest::Lt(v)
            | AttrTest::Le(v)
            | AttrTest::Gt(v)
            | AttrTest::Ge(v) => Some(v),
            AttrTest::Between(lo, _) => Some(lo),
        }
    }

    /// Validates that the test's operand kinds are consistent and that the
    /// operator is meaningful for `kind`.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] for operand-kind mismatches (reported with
    /// `attribute` filled in by the caller via [`Predicate`] construction) or
    /// [`Error::UnsupportedOperator`] for ordered comparisons on booleans.
    pub fn check_kind(&self, attribute: &str, kind: ValueKind) -> Result<()> {
        let check_operand = |v: &Value| -> Result<()> {
            if v.kind() != kind {
                Err(Error::SchemaMismatch {
                    attribute: attribute.to_string(),
                    expected: kind,
                    actual: v.kind(),
                })
            } else {
                Ok(())
            }
        };
        let ordered = |op: &'static str| -> Result<()> {
            if kind == ValueKind::Bool {
                Err(Error::UnsupportedOperator { operator: op, kind })
            } else {
                Ok(())
            }
        };
        match self {
            AttrTest::Any => Ok(()),
            AttrTest::Eq(v) => check_operand(v),
            AttrTest::Lt(v) => ordered("<").and_then(|()| check_operand(v)),
            AttrTest::Le(v) => ordered("<=").and_then(|()| check_operand(v)),
            AttrTest::Gt(v) => ordered(">").and_then(|()| check_operand(v)),
            AttrTest::Ge(v) => ordered(">=").and_then(|()| check_operand(v)),
            AttrTest::Between(lo, hi) => {
                ordered("between")?;
                check_operand(lo)?;
                check_operand(hi)
            }
        }
    }

    /// Renders the test applied to the named attribute, e.g. `price < 120.00`.
    pub fn display_with(&self, name: &str) -> String {
        match self {
            AttrTest::Any => format!("{name} = *"),
            AttrTest::Eq(v) => format!("{name} = {v}"),
            AttrTest::Lt(v) => format!("{name} < {v}"),
            AttrTest::Le(v) => format!("{name} <= {v}"),
            AttrTest::Gt(v) => format!("{name} > {v}"),
            AttrTest::Ge(v) => format!("{name} >= {v}"),
            AttrTest::Between(lo, hi) => format!("{name} between {lo} and {hi}"),
        }
    }
}

/// Where the tests a value satisfies sit in a list of range tests sorted by
/// [`AttrTest::range_cmp`]: among `candidates`, every one of which holds
/// for a value of the tests' kind, except a `between` whose upper bound it
/// exceeds — which [`AttrTest::matches`] decides, at a comparison more.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeLookup {
    /// The run of candidates, as positions in the list.
    pub candidates: std::ops::Range<usize>,
    /// Comparisons made: over `l` lower- and `u` upper-bounded tests,
    /// `probes(l) + probes(u)`, where `probes(0) = 0` and
    /// `probes(n) = ⌈log₂ n⌉ + 1`.
    pub probes: u64,
}

impl RangeLookup {
    /// Searches `labels`, whose tests `test` reads, for `value`.
    pub fn new<T>(labels: &[T], test: impl Fn(&T) -> &AttrTest, value: &Value) -> Self {
        use AttrTest::{Between, Ge, Gt, Le, Lt};
        let lower = labels.partition_point(|l| matches!(test(l), Gt(_) | Ge(_) | Between(..)));
        let (lows, highs) = labels.split_at(lower);
        // The lower bounds the value fails, and the upper bounds it meets,
        // come first.
        let first = partition(lows, |l| match test(l) {
            Gt(lo) => lo >= value,
            Ge(lo) | Between(lo, _) => lo > value,
            _ => false,
        });
        let last = partition(highs, |l| match test(l) {
            Le(hi) => hi >= value,
            Lt(hi) => hi > value,
            _ => false,
        });
        RangeLookup {
            candidates: first..lower + last,
            probes: probes(lows.len()) + probes(highs.len()),
        }
    }
}

/// The first position of `items` at which `before` turns false (it must
/// hold on a prefix), found in exactly [`probes`]`(items.len())` calls.
fn partition<T>(items: &[T], before: impl Fn(&T) -> bool) -> usize {
    let (mut base, mut size) = (0, items.len());
    while size > 1 {
        let half = size / 2;
        if items.get(base + half).is_some_and(&before) {
            base += half;
        }
        size -= half;
    }
    base + usize::from(items.get(base).is_some_and(before))
}

fn probes(len: usize) -> u64 {
    match len {
        0 => 0,
        n => u64::from(n.next_power_of_two().trailing_zeros()) + 1,
    }
}

/// A content-based subscription predicate: one [`AttrTest`] per schema
/// attribute, all of which must hold (a conjunction).
///
/// # Example
///
/// ```
/// use linkcast_types::{EventSchema, Predicate, Value, ValueKind, Event};
///
/// # fn main() -> Result<(), linkcast_types::Error> {
/// let schema = EventSchema::builder("trades")
///     .attribute("issue", ValueKind::Str)
///     .attribute("price", ValueKind::Dollar)
///     .attribute("volume", ValueKind::Int)
///     .build()?;
/// let pred = Predicate::builder(&schema)
///     .eq("issue", Value::str("IBM"))?
///     .lt("price", Value::dollar(120, 0))?
///     .gt("volume", Value::Int(1000))?
///     .build();
///
/// let event = Event::from_values(
///     &schema,
///     [Value::str("IBM"), Value::dollar(119, 50), Value::Int(3000)],
/// )?;
/// assert!(pred.matches(&event));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    tests: Vec<AttrTest>,
}

impl Predicate {
    /// Starts building a predicate over `schema`; attributes not mentioned
    /// default to `*`.
    pub fn builder(schema: &EventSchema) -> PredicateBuilder {
        PredicateBuilder {
            schema: schema.clone(),
            tests: vec![AttrTest::Any; schema.arity()],
        }
    }

    /// Creates a predicate directly from one test per attribute, in schema
    /// order.
    ///
    /// # Errors
    ///
    /// [`Error::AttributeOutOfRange`] if the number of tests differs from the
    /// schema arity, plus any kind error from [`AttrTest::check_kind`].
    pub fn from_tests(
        schema: &EventSchema,
        tests: impl IntoIterator<Item = AttrTest>,
    ) -> Result<Self> {
        let tests: Vec<AttrTest> = tests.into_iter().collect();
        if tests.len() != schema.arity() {
            return Err(Error::AttributeOutOfRange {
                index: tests.len(),
                arity: schema.arity(),
            });
        }
        for (i, t) in tests.iter().enumerate() {
            let attr = schema.attribute(i).expect("index in range");
            t.check_kind(attr.name(), attr.kind())?;
        }
        Ok(Predicate { tests })
    }

    /// The predicate that matches every event of the schema (all `*`).
    pub fn match_all(schema: &EventSchema) -> Self {
        Predicate {
            tests: vec![AttrTest::Any; schema.arity()],
        }
    }

    /// The per-attribute tests, in schema order.
    pub fn tests(&self) -> &[AttrTest] {
        &self.tests
    }

    /// The test applied to attribute `index`.
    pub fn test(&self, index: usize) -> Option<&AttrTest> {
        self.tests.get(index)
    }

    /// Evaluates the predicate against an event.
    ///
    /// Events with fewer attributes than the predicate never match; this
    /// only arises if the event was built against a different schema.
    pub fn matches(&self, event: &Event) -> bool {
        if event.values().len() != self.tests.len() {
            return false;
        }
        self.tests
            .iter()
            .zip(event.values())
            .all(|(t, v)| t.matches(v))
    }

    /// Number of non-`*` tests — a crude selectivity measure; the paper's
    /// PST heuristic places attributes with the fewest `*` tests near the
    /// root.
    pub fn non_wildcard_count(&self) -> usize {
        self.tests.iter().filter(|t| !t.is_wildcard()).count()
    }

    /// Whether every test is an equality or `*` — the fragment for which the
    /// paper defines trit annotation directly (§3.1).
    pub fn is_equality_only(&self) -> bool {
        self.tests
            .iter()
            .all(|t| t.is_wildcard() || t.is_equality())
    }

    /// Renders the predicate using the schema's attribute names, e.g.
    /// `issue = "IBM" & price < 120.00`. The all-`*` predicate renders as
    /// its first attribute's `*` test, `issue = *`, which parses back to it.
    pub fn display_with(&self, schema: &EventSchema) -> String {
        let name = |i: usize| {
            schema
                .attribute(i)
                .map(|a| a.name().to_string())
                .unwrap_or_else(|| format!("a{i}"))
        };
        let parts: Vec<String> = self
            .tests
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_wildcard())
            .map(|(i, t)| t.display_with(&name(i)))
            .collect();
        if parts.is_empty() {
            AttrTest::Any.display_with(&name(0))
        } else {
            parts.join(" & ")
        }
    }
}

impl fmt::Display for Predicate {
    /// Renders positionally (`a0 = 1 & a2 < 5`; the all-`*` predicate as
    /// `a0 = *`); use
    /// [`Predicate::display_with`] to render with schema attribute names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, t) in self.tests.iter().enumerate() {
            if t.is_wildcard() {
                continue;
            }
            if !first {
                write!(f, " & ")?;
            }
            first = false;
            write!(f, "{}", t.display_with(&format!("a{i}")))?;
        }
        if first {
            write!(f, "{}", AttrTest::Any.display_with("a0"))?;
        }
        Ok(())
    }
}

/// Incrementally builds a [`Predicate`] by naming attributes.
#[derive(Debug)]
pub struct PredicateBuilder {
    schema: EventSchema,
    tests: Vec<AttrTest>,
}

impl PredicateBuilder {
    fn set(mut self, name: &str, test: AttrTest) -> Result<Self> {
        let index = self
            .schema
            .attribute_index(name)
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))?;
        let attr = self.schema.attribute(index).expect("index in range");
        test.check_kind(attr.name(), attr.kind())?;
        self.tests[index] = test;
        Ok(self)
    }

    /// Requires `name = value`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownAttribute`] or [`Error::SchemaMismatch`].
    pub fn eq(self, name: &str, value: Value) -> Result<Self> {
        self.set(name, AttrTest::Eq(value))
    }

    /// Requires `name < value`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownAttribute`], [`Error::SchemaMismatch`], or
    /// [`Error::UnsupportedOperator`] on booleans.
    pub fn lt(self, name: &str, value: Value) -> Result<Self> {
        self.set(name, AttrTest::Lt(value))
    }

    /// Requires `name <= value`.
    ///
    /// # Errors
    ///
    /// See [`PredicateBuilder::lt`].
    pub fn le(self, name: &str, value: Value) -> Result<Self> {
        self.set(name, AttrTest::Le(value))
    }

    /// Requires `name > value`.
    ///
    /// # Errors
    ///
    /// See [`PredicateBuilder::lt`].
    pub fn gt(self, name: &str, value: Value) -> Result<Self> {
        self.set(name, AttrTest::Gt(value))
    }

    /// Requires `name >= value`.
    ///
    /// # Errors
    ///
    /// See [`PredicateBuilder::lt`].
    pub fn ge(self, name: &str, value: Value) -> Result<Self> {
        self.set(name, AttrTest::Ge(value))
    }

    /// Requires `lo <= name <= hi`.
    ///
    /// # Errors
    ///
    /// See [`PredicateBuilder::lt`].
    pub fn between(self, name: &str, lo: Value, hi: Value) -> Result<Self> {
        self.set(name, AttrTest::Between(lo, hi))
    }

    /// Explicitly marks `name` as don't-care (the default).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownAttribute`].
    pub fn any(self, name: &str) -> Result<Self> {
        self.set(name, AttrTest::Any)
    }

    /// Finalizes the predicate.
    pub fn build(self) -> Predicate {
        Predicate { tests: self.tests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trades() -> EventSchema {
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap()
    }

    fn ibm_event(price_cents: i64, volume: i64) -> Event {
        Event::from_values(
            &trades(),
            [
                Value::str("IBM"),
                Value::Dollar(price_cents),
                Value::Int(volume),
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_predicate() {
        // (issue="IBM" & price < 120 & volume > 1000)
        let p = Predicate::builder(&trades())
            .eq("issue", Value::str("IBM"))
            .unwrap()
            .lt("price", Value::dollar(120, 0))
            .unwrap()
            .gt("volume", Value::Int(1000))
            .unwrap()
            .build();
        assert!(p.matches(&ibm_event(11950, 3000)));
        assert!(!p.matches(&ibm_event(12050, 3000))); // price too high
        assert!(!p.matches(&ibm_event(11950, 1000))); // volume not > 1000
        assert_eq!(p.non_wildcard_count(), 3);
        assert!(!p.is_equality_only());
    }

    #[test]
    fn attr_test_semantics() {
        let v = Value::Int(5);
        assert!(AttrTest::Any.matches(&v));
        assert!(AttrTest::Eq(Value::Int(5)).matches(&v));
        assert!(!AttrTest::Eq(Value::Int(6)).matches(&v));
        assert!(AttrTest::Lt(Value::Int(6)).matches(&v));
        assert!(!AttrTest::Lt(Value::Int(5)).matches(&v));
        assert!(AttrTest::Le(Value::Int(5)).matches(&v));
        assert!(AttrTest::Gt(Value::Int(4)).matches(&v));
        assert!(!AttrTest::Gt(Value::Int(5)).matches(&v));
        assert!(AttrTest::Ge(Value::Int(5)).matches(&v));
        assert!(AttrTest::Between(Value::Int(5), Value::Int(7)).matches(&v));
        assert!(AttrTest::Between(Value::Int(0), Value::Int(5)).matches(&v));
        assert!(!AttrTest::Between(Value::Int(6), Value::Int(7)).matches(&v));
    }

    #[test]
    fn cross_kind_operands_never_match() {
        assert!(!AttrTest::Eq(Value::Int(0)).matches(&Value::Dollar(0)));
        assert!(!AttrTest::Lt(Value::Int(10)).matches(&Value::Dollar(0)));
        assert!(!AttrTest::Between(Value::Int(0), Value::Int(9)).matches(&Value::Dollar(5)));
    }

    #[test]
    fn match_all_matches_everything() {
        let p = Predicate::match_all(&trades());
        assert!(p.matches(&ibm_event(1, 1)));
        assert_eq!(p.non_wildcard_count(), 0);
        assert!(p.is_equality_only());
        assert_eq!(p.to_string(), "a0 = *");
        let text = p.display_with(&trades());
        assert_eq!(crate::parse_predicate(&trades(), &text).unwrap(), p);
    }

    #[test]
    fn builder_rejects_bad_kinds_and_names() {
        let b = Predicate::builder(&trades());
        assert!(matches!(
            b.eq("nope", Value::Int(1)),
            Err(Error::UnknownAttribute(_))
        ));
        let b = Predicate::builder(&trades());
        assert!(matches!(
            b.eq("price", Value::Int(1)),
            Err(Error::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn ordered_operators_rejected_on_bool() {
        let schema = EventSchema::builder("s")
            .attribute("flag", ValueKind::Bool)
            .build()
            .unwrap();
        let b = Predicate::builder(&schema);
        assert!(matches!(
            b.lt("flag", Value::Bool(false)),
            Err(Error::UnsupportedOperator { .. })
        ));
        // Equality on bool is fine.
        let p = Predicate::builder(&schema)
            .eq("flag", Value::Bool(true))
            .unwrap()
            .build();
        let ev = Event::from_values(&schema, [Value::Bool(true)]).unwrap();
        assert!(p.matches(&ev));
    }

    #[test]
    fn from_tests_validates_arity() {
        let err = Predicate::from_tests(&trades(), [AttrTest::Any]).unwrap_err();
        assert!(matches!(err, Error::AttributeOutOfRange { .. }));
        let ok = Predicate::from_tests(
            &trades(),
            [
                AttrTest::Eq(Value::str("IBM")),
                AttrTest::Any,
                AttrTest::Any,
            ],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn display_with_names() {
        let p = Predicate::builder(&trades())
            .eq("issue", Value::str("IBM"))
            .unwrap()
            .lt("price", Value::dollar(120, 0))
            .unwrap()
            .build();
        assert_eq!(
            p.display_with(&trades()),
            "issue = \"IBM\" & price < 120.00"
        );
        assert_eq!(p.to_string(), "a0 = \"IBM\" & a1 < 120.00");
    }

    #[test]
    fn equality_only_detection() {
        let p = Predicate::builder(&trades())
            .eq("issue", Value::str("IBM"))
            .unwrap()
            .build();
        assert!(p.is_equality_only());
    }

    #[test]
    fn mismatched_event_arity_never_matches() {
        let other = EventSchema::builder("other")
            .attribute("x", ValueKind::Int)
            .build()
            .unwrap();
        let ev = Event::from_values(&other, [Value::Int(1)]).unwrap();
        let p = Predicate::match_all(&trades());
        assert!(!p.matches(&ev));
    }
}
