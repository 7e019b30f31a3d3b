//! Compact binary codec for values, events, predicates, and subscriptions.
//!
//! The broker prototype (paper §4.2) exchanges events and subscriptions over
//! TCP; this module defines the payload encoding. All integers are
//! little-endian; strings and sequences are length-prefixed. Framing (length
//! prefix per message) is the transport's concern, not this module's, and
//! the one-byte frame tags live with the broker's frame codec
//! (`linkcast_broker::FrameTag`).

// Decodes bytes a peer controls, on the broker's engine thread: the shipped
// code neither unwraps nor indexes nor panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut};

use crate::{
    AttrTest, BrokerId, ClientId, Error, Event, EventSchema, Predicate, Result, SchemaRegistry,
    SubscriberId, Subscription, SubscriptionId, Value,
};

const TAG_STR: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOLLAR: u8 = 2;
const TAG_BOOL: u8 = 3;

const TEST_ANY: u8 = 0;
const TEST_EQ: u8 = 1;
const TEST_LT: u8 = 2;
const TEST_LE: u8 = 3;
const TEST_GT: u8 = 4;
const TEST_GE: u8 = 5;
const TEST_BETWEEN: u8 = 6;

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::Decode(format!(
            "truncated input: need {n} more bytes for {what}"
        )))
    } else {
        Ok(())
    }
}

/// Decode limits for attacker-controlled lengths and counts.
///
/// Every count or length read off the wire is untrusted: a peer can
/// declare `u16::MAX` elements in a 10-byte payload and an unguarded
/// `Vec::with_capacity` would allocate for all of them before the decode
/// loop hits the truncation error. The helpers here clamp declared counts
/// against the bytes actually present *before* any allocation; the
/// `wire-taint` xtask pass treats them as sanitizers.
pub mod limits {
    use crate::{Error, Result};

    /// Minimum encoded size of a [`Value`](crate::Value): a one-byte tag
    /// plus at least one payload byte (`Bool`).
    pub const MIN_VALUE_BYTES: usize = 2;

    /// Minimum encoded size of an [`AttrTest`](crate::AttrTest): a
    /// one-byte tag (`Any` has no payload).
    pub const MIN_TEST_BYTES: usize = 1;

    /// Validates a declared element count against the bytes actually
    /// remaining in the buffer: `n` elements of at least `min_bytes` each
    /// cannot outsize the payload. Returns `n` unchanged when plausible,
    /// so callers can write
    /// `Vec::with_capacity(limits::checked_count(n, ..)?)`.
    ///
    /// # Errors
    ///
    /// [`Error::Decode`] when the declared count cannot fit.
    pub fn checked_count(
        n: usize,
        remaining: usize,
        min_bytes: usize,
        what: &str,
    ) -> Result<usize> {
        if n.saturating_mul(min_bytes) > remaining {
            Err(Error::Decode(format!(
                "declared count {n} for {what} exceeds the {remaining} payload bytes present"
            )))
        } else {
            Ok(n)
        }
    }
}

/// Encodes a string as `u32` length + UTF-8 bytes.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decodes a string written by [`put_str`].
///
/// # Errors
///
/// [`Error::Decode`] on truncation or invalid UTF-8.
pub fn get_str(buf: &mut impl Buf) -> Result<String> {
    need(buf, 4, "string length")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, "string bytes")?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|e| Error::Decode(format!("invalid UTF-8 string: {e}")))
}

/// Encodes a [`Value`] as a one-byte tag plus payload.
pub fn put_value(buf: &mut impl BufMut, value: &Value) {
    match value {
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Dollar(c) => {
            buf.put_u8(TAG_DOLLAR);
            buf.put_i64_le(*c);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
    }
}

/// Bytes [`put_value`] writes for `value`.
fn value_len(value: &Value) -> usize {
    match value {
        Value::Str(s) => 5 + s.len(),
        Value::Int(_) | Value::Dollar(_) => 9,
        Value::Bool(_) => 2,
    }
}

/// Decodes a [`Value`] written by [`put_value`].
///
/// # Errors
///
/// [`Error::Decode`] on truncation or an unknown tag.
pub fn get_value(buf: &mut impl Buf) -> Result<Value> {
    need(buf, 1, "value tag")?;
    match buf.get_u8() {
        TAG_STR => Ok(Value::Str(get_str(buf)?.into())),
        TAG_INT => {
            need(buf, 8, "integer value")?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        TAG_DOLLAR => {
            need(buf, 8, "dollar value")?;
            Ok(Value::Dollar(buf.get_i64_le()))
        }
        TAG_BOOL => {
            need(buf, 1, "boolean value")?;
            match buf.get_u8() {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                other => Err(Error::Decode(format!("invalid boolean byte {other}"))),
            }
        }
        tag => Err(Error::Decode(format!("unknown value tag {tag}"))),
    }
}

/// Process-wide count of [`put_event`] calls.
///
/// The broker's encode-once invariant — an event fanned out to N links is
/// serialized exactly once — is asserted in tests by sampling this counter
/// around a publish. It has no other consumer; a relaxed atomic keeps the
/// hot path uncontended.
static EVENT_ENCODES: AtomicU64 = AtomicU64::new(0);

/// Returns the number of times [`put_event`] has run in this process.
#[must_use]
pub fn event_encode_count() -> u64 {
    EVENT_ENCODES.load(Ordering::Relaxed)
}

/// Encodes an [`Event`] as its schema id plus the value tuple.
pub fn put_event(buf: &mut impl BufMut, event: &Event) {
    EVENT_ENCODES.fetch_add(1, Ordering::Relaxed);
    buf.put_u32_le(event.schema().id().raw());
    buf.put_u16_le(event.values().len() as u16);
    for v in event.values() {
        put_value(buf, v);
    }
}

/// Bytes [`put_event`] writes for `event`, so an encoder can size its buffer
/// once instead of growing it.
#[must_use]
pub fn event_len(event: &Event) -> usize {
    6 + event.values().iter().map(value_len).sum::<usize>()
}

/// Decodes an [`Event`] written by [`put_event`], resolving its schema in
/// `registry` and validating value kinds.
///
/// # Errors
///
/// [`Error::Decode`] on truncation or an unregistered schema id, plus any
/// schema-validation error from [`Event::from_values`].
pub fn get_event(buf: &mut impl Buf, registry: &SchemaRegistry) -> Result<Event> {
    need(buf, 6, "event header")?;
    let schema_id = crate::SchemaId::new(buf.get_u32_le());
    let n = limits::checked_count(
        buf.get_u16_le() as usize,
        buf.remaining(),
        limits::MIN_VALUE_BYTES,
        "event values",
    )?;
    let schema = registry
        .get(schema_id)
        .ok_or_else(|| Error::Decode(format!("unknown schema id {schema_id}")))?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(buf)?);
    }
    Event::from_values(schema, values)
}

/// Encodes an [`AttrTest`].
pub fn put_attr_test(buf: &mut impl BufMut, test: &AttrTest) {
    match test {
        AttrTest::Any => buf.put_u8(TEST_ANY),
        AttrTest::Eq(v) => {
            buf.put_u8(TEST_EQ);
            put_value(buf, v);
        }
        AttrTest::Lt(v) => {
            buf.put_u8(TEST_LT);
            put_value(buf, v);
        }
        AttrTest::Le(v) => {
            buf.put_u8(TEST_LE);
            put_value(buf, v);
        }
        AttrTest::Gt(v) => {
            buf.put_u8(TEST_GT);
            put_value(buf, v);
        }
        AttrTest::Ge(v) => {
            buf.put_u8(TEST_GE);
            put_value(buf, v);
        }
        AttrTest::Between(lo, hi) => {
            buf.put_u8(TEST_BETWEEN);
            put_value(buf, lo);
            put_value(buf, hi);
        }
    }
}

/// Decodes an [`AttrTest`] written by [`put_attr_test`].
///
/// # Errors
///
/// [`Error::Decode`] on truncation or an unknown tag.
pub fn get_attr_test(buf: &mut impl Buf) -> Result<AttrTest> {
    need(buf, 1, "test tag")?;
    match buf.get_u8() {
        TEST_ANY => Ok(AttrTest::Any),
        TEST_EQ => Ok(AttrTest::Eq(get_value(buf)?)),
        TEST_LT => Ok(AttrTest::Lt(get_value(buf)?)),
        TEST_LE => Ok(AttrTest::Le(get_value(buf)?)),
        TEST_GT => Ok(AttrTest::Gt(get_value(buf)?)),
        TEST_GE => Ok(AttrTest::Ge(get_value(buf)?)),
        TEST_BETWEEN => Ok(AttrTest::Between(get_value(buf)?, get_value(buf)?)),
        tag => Err(Error::Decode(format!("unknown test tag {tag}"))),
    }
}

/// Encodes a [`Predicate`] as its test list.
pub fn put_predicate(buf: &mut impl BufMut, predicate: &Predicate) {
    buf.put_u16_le(predicate.tests().len() as u16);
    for t in predicate.tests() {
        put_attr_test(buf, t);
    }
}

/// Decodes a [`Predicate`] written by [`put_predicate`], validating it
/// against `schema`.
///
/// # Errors
///
/// [`Error::Decode`] on truncation, plus validation errors from
/// [`Predicate::from_tests`].
pub fn get_predicate(buf: &mut impl Buf, schema: &EventSchema) -> Result<Predicate> {
    need(buf, 2, "predicate length")?;
    let n = limits::checked_count(
        buf.get_u16_le() as usize,
        buf.remaining(),
        limits::MIN_TEST_BYTES,
        "predicate tests",
    )?;
    let mut tests = Vec::with_capacity(n);
    for _ in 0..n {
        tests.push(get_attr_test(buf)?);
    }
    Predicate::from_tests(schema, tests)
}

/// Process-wide count of subscription serializations, the control plane's
/// twin of [`event_encode_count`]: a subscription is encoded where it is
/// made and floods onward as the bytes received.
static SUBSCRIPTION_ENCODES: AtomicU64 = AtomicU64::new(0);

/// Returns the number of times [`put_subscription`] has run in this
/// process.
#[must_use]
pub fn subscription_encode_count() -> u64 {
    SUBSCRIPTION_ENCODES.load(Ordering::Relaxed)
}

/// Encodes a [`Subscription`] (id, subscriber, predicate).
pub fn put_subscription(buf: &mut impl BufMut, sub: &Subscription) {
    SUBSCRIPTION_ENCODES.fetch_add(1, Ordering::Relaxed);
    buf.put_u32_le(sub.id().raw());
    buf.put_u32_le(sub.subscriber().broker.raw());
    buf.put_u32_le(sub.subscriber().client.raw());
    put_predicate(buf, sub.predicate());
}

/// Bytes [`put_subscription`] writes for `sub`; see [`event_len`].
#[must_use]
pub fn subscription_len(sub: &Subscription) -> usize {
    let tests = sub.predicate().tests().iter().map(|test| match test {
        AttrTest::Any => 1,
        AttrTest::Eq(v) | AttrTest::Lt(v) | AttrTest::Le(v) | AttrTest::Gt(v) | AttrTest::Ge(v) => {
            1 + value_len(v)
        }
        AttrTest::Between(lo, hi) => 1 + value_len(lo) + value_len(hi),
    });
    14 + tests.sum::<usize>()
}

/// Decodes a [`Subscription`] written by [`put_subscription`].
///
/// # Errors
///
/// See [`get_predicate`].
pub fn get_subscription(buf: &mut impl Buf, schema: &EventSchema) -> Result<Subscription> {
    need(buf, 12, "subscription header")?;
    let id = SubscriptionId::new(buf.get_u32_le());
    let broker = BrokerId::new(buf.get_u32_le());
    let client = ClientId::new(buf.get_u32_le());
    let predicate = get_predicate(buf, schema)?;
    Ok(Subscription::new(
        id,
        SubscriberId::new(broker, client),
        predicate,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueKind;
    use bytes::BytesMut;

    fn trades() -> EventSchema {
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .attribute("urgent", ValueKind::Bool)
            .build()
            .unwrap()
    }

    fn registry() -> SchemaRegistry {
        let mut r = SchemaRegistry::new();
        r.register(trades()).unwrap();
        r
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            Value::str("IBM"),
            Value::str(""),
            Value::str("héllo"),
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Dollar(-11950),
            Value::Bool(true),
            Value::Bool(false),
        ] {
            let mut buf = BytesMut::new();
            put_value(&mut buf, &v);
            let mut rd = buf.freeze();
            assert_eq!(get_value(&mut rd).unwrap(), v);
            assert_eq!(rd.remaining(), 0);
        }
    }

    #[test]
    fn event_roundtrip() {
        let reg = registry();
        let schema = reg.get_by_name("trades").unwrap();
        let ev = Event::from_values(
            schema,
            [
                Value::str("IBM"),
                Value::Dollar(11950),
                Value::Int(3000),
                Value::Bool(false),
            ],
        )
        .unwrap();
        let mut buf = BytesMut::new();
        put_event(&mut buf, &ev);
        assert_eq!(buf.len(), event_len(&ev));
        let mut rd = buf.freeze();
        let back = get_event(&mut rd, &reg).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn event_with_unknown_schema_fails() {
        let reg = registry();
        let mut buf = BytesMut::new();
        buf.put_u32_le(99);
        buf.put_u16_le(0);
        let err = get_event(&mut buf.freeze(), &reg).unwrap_err();
        assert!(matches!(err, Error::Decode(_)));
    }

    #[test]
    fn attr_test_roundtrip() {
        for t in [
            AttrTest::Any,
            AttrTest::Eq(Value::str("IBM")),
            AttrTest::Lt(Value::Dollar(12000)),
            AttrTest::Le(Value::Int(5)),
            AttrTest::Gt(Value::Int(1000)),
            AttrTest::Ge(Value::Dollar(1)),
            AttrTest::Between(Value::Int(1), Value::Int(9)),
        ] {
            let mut buf = BytesMut::new();
            put_attr_test(&mut buf, &t);
            assert_eq!(get_attr_test(&mut buf.freeze()).unwrap(), t);
        }
    }

    #[test]
    fn predicate_and_subscription_roundtrip() {
        let schema = trades();
        let pred = Predicate::builder(&schema)
            .eq("issue", Value::str("IBM"))
            .unwrap()
            .lt("price", Value::dollar(120, 0))
            .unwrap()
            .gt("volume", Value::Int(1000))
            .unwrap()
            .build();
        let sub = Subscription::new(
            SubscriptionId::new(7),
            SubscriberId::new(BrokerId::new(3), ClientId::new(1)),
            pred.clone(),
        );
        let mut buf = BytesMut::new();
        put_subscription(&mut buf, &sub);
        assert_eq!(buf.len(), subscription_len(&sub));
        let back = get_subscription(&mut buf.freeze(), &schema).unwrap();
        assert_eq!(back, sub);
        assert_eq!(back.predicate(), &pred);

        // One of every test shape, so the length helper cannot drift from
        // the encoder.
        let every_shape = Subscription::new(
            SubscriptionId::new(8),
            SubscriberId::new(BrokerId::new(3), ClientId::new(1)),
            Predicate::builder(&schema)
                .between("price", Value::dollar(1, 0), Value::dollar(2, 0))
                .unwrap()
                .eq("urgent", Value::Bool(true))
                .unwrap()
                .build(),
        );
        let mut buf = BytesMut::new();
        put_subscription(&mut buf, &every_shape);
        assert_eq!(buf.len(), subscription_len(&every_shape));
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let schema = trades();
        let mut buf = BytesMut::new();
        let pred = Predicate::match_all(&schema);
        put_predicate(&mut buf, &pred);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            assert!(
                get_predicate(&mut partial, &schema).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn garbage_tags_error_cleanly() {
        let mut buf = BytesMut::new();
        buf.put_u8(200);
        assert!(get_value(&mut buf.freeze()).is_err());

        let mut buf = BytesMut::new();
        buf.put_u8(TAG_BOOL);
        buf.put_u8(9);
        assert!(get_value(&mut buf.freeze()).is_err());

        let mut buf = BytesMut::new();
        buf.put_u8(77);
        assert!(get_attr_test(&mut buf.freeze()).is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_STR);
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert!(get_value(&mut buf.freeze()).is_err());
    }

    #[test]
    fn oversized_declared_value_count_is_rejected_before_allocating() {
        // An attacker declares u16::MAX event values but sends a 2-byte
        // payload: the decoder must reject the count against the bytes
        // actually present instead of reserving capacity for 65535 values.
        let reg = registry();
        let mut buf = BytesMut::new();
        buf.put_u32_le(0); // schema id (registered)
        buf.put_u16_le(u16::MAX);
        buf.put_u8(TAG_BOOL);
        buf.put_u8(1);
        let err = get_event(&mut buf.freeze(), &reg).unwrap_err();
        assert!(
            err.to_string().contains("declared count"),
            "want a count-vs-payload rejection, got: {err}"
        );
    }

    #[test]
    fn oversized_declared_test_count_is_rejected_before_allocating() {
        let schema = trades();
        let mut buf = BytesMut::new();
        buf.put_u16_le(u16::MAX);
        buf.put_u8(TEST_ANY);
        let err = get_predicate(&mut buf.freeze(), &schema).unwrap_err();
        assert!(
            err.to_string().contains("declared count"),
            "want a count-vs-payload rejection, got: {err}"
        );
    }

    #[test]
    fn plausible_declared_counts_still_decode() {
        // checked_count passes counts the payload can actually hold:
        // a TEST_ANY-only predicate is 1 byte per test, the minimum size.
        let schema = trades();
        let mut buf = BytesMut::new();
        buf.put_u16_le(4);
        for _ in 0..4 {
            buf.put_u8(TEST_ANY);
        }
        let pred = get_predicate(&mut buf.freeze(), &schema).unwrap();
        assert_eq!(pred.tests().len(), 4);
    }

    #[test]
    fn decoded_predicate_is_schema_checked() {
        // Encode a predicate with a wrong-kind operand by hand; decoding
        // against the schema must reject it.
        let schema = trades();
        let mut buf = BytesMut::new();
        buf.put_u16_le(4);
        put_attr_test(&mut buf, &AttrTest::Eq(Value::Int(5))); // issue is Str
        put_attr_test(&mut buf, &AttrTest::Any);
        put_attr_test(&mut buf, &AttrTest::Any);
        put_attr_test(&mut buf, &AttrTest::Any);
        let err = get_predicate(&mut buf.freeze(), &schema).unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch { .. }));
    }
}
