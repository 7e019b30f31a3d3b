//! Property-based tests for the data model: trit algebra laws, codec
//! roundtrips, and decoder robustness against arbitrary bytes.

use bytes::BytesMut;
use linkcast_types::{
    parse_literal, wire, AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate,
    SchemaRegistry, SubscriberId, Subscription, SubscriptionId, Trit, TritVec, Value, ValueKind,
};
use proptest::prelude::*;

fn trit_strategy() -> impl Strategy<Value = Trit> {
    prop_oneof![Just(Trit::No), Just(Trit::Maybe), Just(Trit::Yes)]
}

fn tritvec_strategy(max_len: usize) -> impl Strategy<Value = TritVec> {
    proptest::collection::vec(trit_strategy(), 0..max_len).prop_map(|v| v.into_iter().collect())
}

fn paired_tritvecs(max_len: usize) -> impl Strategy<Value = (TritVec, TritVec)> {
    (0..max_len).prop_flat_map(|len| {
        (
            proptest::collection::vec(trit_strategy(), len),
            proptest::collection::vec(trit_strategy(), len),
        )
            .prop_map(|(a, b)| {
                (
                    a.into_iter().collect::<TritVec>(),
                    b.into_iter().collect::<TritVec>(),
                )
            })
    })
}

proptest! {
    /// The vectorized (bit-packed, word-parallel) operators agree with the
    /// scalar Fig. 4 tables on every lane.
    #[test]
    fn vector_ops_match_scalar_ops((a, b) in paired_tritvecs(130)) {
        let alt = a.alternative(&b);
        let par = a.parallel(&b);
        let refi = a.refine(&b);
        let abs = a.absorb_yes(&b);
        for i in 0..a.len() {
            let (x, y) = (a.get(i), b.get(i));
            prop_assert_eq!(alt.get(i), x.alternative(y));
            prop_assert_eq!(par.get(i), x.parallel(y));
            prop_assert_eq!(refi.get(i), if x == Trit::Maybe { y } else { x });
            prop_assert_eq!(
                abs.get(i),
                if x == Trit::Maybe && y == Trit::Yes { Trit::Yes } else { x }
            );
        }
    }

    /// Algebraic laws the annotation propagation relies on.
    #[test]
    fn trit_algebra_laws((a, b) in paired_tritvecs(70), c in tritvec_strategy(70)) {
        // Commutativity.
        prop_assert_eq!(a.alternative(&b), b.alternative(&a));
        prop_assert_eq!(a.parallel(&b), b.parallel(&a));
        // Idempotence.
        prop_assert_eq!(a.alternative(&a), a.clone());
        prop_assert_eq!(a.parallel(&a), a.clone());
        // Associativity (on equal-length triples only).
        if c.len() == a.len() {
            prop_assert_eq!(
                a.alternative(&b).alternative(&c),
                a.alternative(&b.alternative(&c))
            );
            prop_assert_eq!(a.parallel(&b).parallel(&c), a.parallel(&b.parallel(&c)));
        }
        // Refinement never leaves a Maybe where the annotation is decided.
        let refined = a.refine(&b);
        for i in 0..a.len() {
            if refined.get(i) == Trit::Maybe {
                prop_assert_eq!(b.get(i), Trit::Maybe);
                prop_assert_eq!(a.get(i), Trit::Maybe);
            }
        }
        // maybes_to_no produces a decided mask.
        prop_assert!(!a.maybes_to_no().has_maybe());
        // Counting is consistent with iteration.
        prop_assert_eq!(a.count_yes(), a.iter().filter(|t| *t == Trit::Yes).count());
        prop_assert_eq!(a.count_maybe(), a.iter().filter(|t| *t == Trit::Maybe).count());
    }

    /// Parse/display roundtrip for the figure notation.
    #[test]
    fn tritvec_display_parse_roundtrip(v in tritvec_strategy(100)) {
        let text = v.to_string();
        let back: TritVec = text.parse().unwrap();
        prop_assert_eq!(back, v);
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Dollar),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn kinded_value(kind: ValueKind) -> BoxedStrategy<Value> {
    match kind {
        // Quotes, backslashes, control and non-ASCII characters: the ones a
        // literal must escape, or must carry raw.
        ValueKind::Str => "[a-zA-Z0-9\"\\\\\t\n\u{e9}\u{6f22}\u{1f600}]{0,8}"
            .prop_map(Value::str)
            .boxed(),
        ValueKind::Int => any::<i64>().prop_map(Value::Int).boxed(),
        ValueKind::Dollar => any::<i64>().prop_map(Value::Dollar).boxed(),
        ValueKind::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
    }
}

fn test_schema() -> EventSchema {
    EventSchema::builder("prop")
        .attribute("s", ValueKind::Str)
        .attribute("i", ValueKind::Int)
        .attribute("d", ValueKind::Dollar)
        .attribute("b", ValueKind::Bool)
        .build()
        .unwrap()
}

fn attr_test_strategy(kind: ValueKind) -> BoxedStrategy<AttrTest> {
    let v = kinded_value(kind);
    if kind == ValueKind::Bool {
        prop_oneof![Just(AttrTest::Any), v.prop_map(AttrTest::Eq),].boxed()
    } else {
        let v2 = kinded_value(kind);
        prop_oneof![
            Just(AttrTest::Any),
            v.clone().prop_map(AttrTest::Eq),
            v.clone().prop_map(AttrTest::Lt),
            v.clone().prop_map(AttrTest::Le),
            v.clone().prop_map(AttrTest::Gt),
            v.clone().prop_map(AttrTest::Ge),
            (v, v2).prop_map(|(a, b)| AttrTest::Between(a, b)),
        ]
        .boxed()
    }
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (
        attr_test_strategy(ValueKind::Str),
        attr_test_strategy(ValueKind::Int),
        attr_test_strategy(ValueKind::Dollar),
        attr_test_strategy(ValueKind::Bool),
    )
        .prop_map(|(a, b, c, d)| Predicate::from_tests(&test_schema(), [a, b, c, d]).unwrap())
}

proptest! {
    /// Values survive the wire codec byte-for-byte.
    #[test]
    fn value_wire_roundtrip(v in value_strategy()) {
        let mut buf = BytesMut::new();
        wire::put_value(&mut buf, &v);
        let mut rd = wire::Reader::new(&buf);
        prop_assert_eq!(rd.value().unwrap(), v);
        prop_assert_eq!(rd.remaining(), 0, "decoder must consume exactly what was encoded");
    }

    /// Events survive the wire codec through a registry.
    #[test]
    fn event_wire_roundtrip(
        s in kinded_value(ValueKind::Str),
        i in kinded_value(ValueKind::Int),
        d in kinded_value(ValueKind::Dollar),
        b in kinded_value(ValueKind::Bool),
    ) {
        let mut registry = SchemaRegistry::new();
        registry.register(test_schema()).unwrap();
        let schema = registry.get_by_name("prop").unwrap();
        let event = Event::from_values(schema, [s, i, d, b]).unwrap();
        let mut buf = BytesMut::new();
        wire::put_event(&mut buf, &event);
        let back = wire::get_event(&buf, &registry).unwrap();
        prop_assert_eq!(back, event);
    }

    /// Subscriptions (with arbitrary predicates) survive the wire codec.
    #[test]
    fn subscription_wire_roundtrip(p in predicate_strategy(), id in any::<u32>()) {
        let schema = test_schema();
        let sub = Subscription::new(
            SubscriptionId::new(id),
            SubscriberId::new(BrokerId::new(1), ClientId::new(2)),
            p,
        );
        let mut buf = BytesMut::new();
        wire::put_subscription(&mut buf, &sub);
        let back = wire::Reader::new(&buf).subscription(&schema).unwrap();
        prop_assert_eq!(back, sub);
    }

    /// The decoders never panic on arbitrary input — they return errors.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut registry = SchemaRegistry::new();
        registry.register(test_schema()).unwrap();
        let schema = registry.get_by_name("prop").unwrap().clone();
        let _ = wire::Reader::new(&bytes).value();
        let _ = wire::get_event(&bytes, &registry);
        let _ = wire::Reader::new(&bytes).predicate(&schema);
        let _ = wire::Reader::new(&bytes).subscription(&schema);
    }

    /// The predicate and literal parsers never panic on arbitrary strings.
    #[test]
    fn parser_never_panics(input in "\\PC{0,64}") {
        let _ = linkcast_types::parse_predicate(&test_schema(), &input);
        for kind in [ValueKind::Str, ValueKind::Int, ValueKind::Dollar, ValueKind::Bool] {
            let _ = parse_literal(kind, &input);
        }
    }

    /// A digit string typed as an integer or a dollar amount parses to
    /// exactly the number it spells (a dollar amount's magnitude in cents
    /// must fit `i64`), or is an error — never a wrapped value, never a
    /// panic — and what parses renders to a literal that parses back.
    #[test]
    fn numeric_literals_are_exact_or_errors(
        negative in any::<bool>(),
        whole in "[0-9]{1,21}",
        decimals in "[0-9]{0,2}",
        dollar in any::<bool>(),
    ) {
        let sign = if negative { "-" } else { "" };
        let point = if decimals.is_empty() { "" } else { "." };
        let text = format!("{sign}{whole}{point}{decimals}");
        let (kind, exact) = if dollar {
            let frac = format!("{decimals:0<2}").parse::<i128>().unwrap();
            let cents = whole.parse::<i128>().unwrap() * 100 + frac;
            let fits = cents <= i128::from(i64::MAX);
            (ValueKind::Dollar, fits.then(|| Value::Dollar((if negative { -cents } else { cents }) as i64)))
        } else {
            let n = whole.parse::<i128>().unwrap() * if negative { -1 } else { 1 };
            let n = i64::try_from(n).ok().filter(|_| decimals.is_empty());
            (ValueKind::Int, n.map(Value::Int))
        };
        let parsed = parse_literal(kind, &text).ok();
        prop_assert_eq!(&parsed, &exact, "{}", text);
        if let Some(value) = parsed {
            prop_assert_eq!(parse_literal(kind, &value.to_literal()).unwrap(), value);
        }
    }

    /// Predicates render to text that parses back to the same predicate
    /// (for the operator set the grammar covers).
    #[test]
    fn predicate_display_parse_roundtrip(p in predicate_strategy()) {
        let schema = test_schema();
        let text = p.display_with(&schema);
        // `Between` renders with the `between ... and ...` form the parser
        // accepts; all other forms are canonical too.
        let parsed = linkcast_types::parse_predicate(&schema, &text);
        // Dollar literal rendering is exact only to two decimals, which is
        // also the parser's precision, so this must roundtrip.
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed, p);
    }
}
