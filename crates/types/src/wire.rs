//! Compact binary codec for values, events, predicates, and subscriptions.
//!
//! The broker prototype (paper §4.2) exchanges events and subscriptions over
//! TCP; this module defines the payload encoding. All integers are
//! little-endian; strings and sequences are length-prefixed. Framing (length
//! prefix per message) is the transport's concern, not this module's, and
//! the one-byte frame tags live with the broker's frame codec
//! (`linkcast_broker::FrameTag`).
//!
//! Everything that decodes — here, and the broker's frames, WAL records and
//! snapshots — reads through one [`Reader`]. Its integer reads fail on
//! truncation instead of panicking, and its length and count reads return a
//! [`Count`], the only thing its slice and capacity helpers accept: a decoder
//! cannot size a slice or an allocation by a number it has not checked
//! against the bytes that carry it. The raw `bytes::Buf` integer reads are
//! `disallowed-methods` in the root `clippy.toml`, denied in this crate and
//! in the broker.

// Decodes bytes a peer controls, on the broker's engine thread: the shipped
// code neither unwraps nor indexes nor panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::BufMut;

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

/// A length or element count read off the wire and checked against the
/// bytes that must carry it. Only [`limits::checked_count`] and
/// [`Reader::need`] make one, and [`Reader::take`] and [`Count::vec`] take
/// nothing else, so an unchecked number cannot size a slice or an
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Count(usize);

impl Count {
    /// The checked number.
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }

    /// An empty vector with room for this many elements.
    #[must_use]
    pub fn vec<T>(self) -> Vec<T> {
        Vec::with_capacity(self.0)
    }

    /// This count, if it is `schema`'s arity: one element per attribute.
    ///
    /// # Errors
    ///
    /// [`Error::Decode`] naming `what` otherwise.
    pub fn of_arity(self, schema: &EventSchema, what: &str) -> Result<Count> {
        if self.0 == schema.arity() {
            return Ok(self);
        }
        Err(Error::Decode(format!(
            "{} {what} for schema `{}` of arity {}",
            self.0,
            schema.name(),
            schema.arity()
        )))
    }
}

/// Decode limits for attacker-controlled lengths and counts.
///
/// Every count or length read off the wire is untrusted: a peer can
/// declare `u16::MAX` elements in a 10-byte payload and an unguarded
/// `Vec::with_capacity` would allocate for all of them before the decode
/// loop hits the truncation error. [`checked_count`](limits::checked_count)
/// clamps a declared count against the bytes actually present *before* any
/// allocation, and the [`Count`] it returns is what a decoder sizes things
/// by.
pub mod limits {
    use super::Count;
    use crate::{Error, Result};

    /// Minimum encoded size of a [`Value`](crate::Value): a one-byte tag
    /// plus at least one payload byte (`Bool`).
    pub const MIN_VALUE_BYTES: usize = 2;

    /// Minimum encoded size of an [`AttrTest`](crate::AttrTest): a
    /// one-byte tag (`Any` has no payload).
    pub const MIN_TEST_BYTES: usize = 1;

    /// Validates a declared element count against `room`, the bytes that
    /// must hold the elements (what is left of the input, or a hard cap):
    /// `n` elements of at least `min_bytes` each cannot outsize it.
    ///
    /// # Errors
    ///
    /// [`Error::Decode`] when the declared count cannot fit.
    pub fn checked_count(n: usize, room: usize, min_bytes: usize, what: &str) -> Result<Count> {
        if n.saturating_mul(min_bytes) > room {
            Err(Error::Decode(format!(
                "declared count {n} for {what} exceeds the {room} payload bytes present"
            )))
        } else {
            Ok(Count(n))
        }
    }
}

/// A read cursor over bytes nobody vouches for: a frame payload, a WAL
/// record, a snapshot.
///
/// Every read checks what is left first and fails with
/// [`Error::Truncated`], which allocates nothing, instead of panicking;
/// lengths and counts come back as a [`Count`]. The typed reads
/// ([`value`](Self::value), [`event`](Self::event),
/// [`subscription`](Self::subscription), …) decode what the matching
/// `put_*` function wrote.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not read yet.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether everything has been read.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Checks that `n` more bytes are present.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] when fewer remain.
    #[inline]
    pub fn need(&self, n: usize, what: &'static str) -> Result<Count> {
        if n > self.rest.len() {
            Err(self.short(n, what))
        } else {
            Ok(Count(n))
        }
    }

    fn short(&self, need: usize, what: &'static str) -> Error {
        Error::Truncated {
            what,
            need,
            left: self.rest.len(),
        }
    }

    /// Fails unless everything has been read: a decoder that accepted bytes
    /// after a message would accept two encodings of one message.
    ///
    /// # Errors
    ///
    /// [`Error::Decode`] naming `what` and the bytes left over.
    #[inline]
    pub fn finish(&self, what: &str) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(Error::Decode(format!(
                "{} stray bytes after {what}",
                self.rest.len()
            )))
        }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] when fewer remain (`n` was checked before other
    /// reads moved the cursor).
    #[inline]
    pub fn take(&mut self, n: Count) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.rest.split_at_checked(n.0) else {
            return Err(self.short(n.0, "a checked length"));
        };
        self.rest = rest;
        Ok(head)
    }

    /// Everything not read yet; the reader is empty afterwards.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.short(N, "an integer"));
        };
        self.rest = rest;
        Ok(*head)
    }

    /// Reads a byte.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] on truncation, like every read here.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads a `u32` byte length and checks that many bytes follow.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] on truncation, before or after the length.
    #[inline]
    pub fn length(&mut self, what: &'static str) -> Result<Count> {
        let n = self.u32()? as usize;
        self.need(n, what)
    }

    /// Reads a `u16` element count and checks it against the bytes left,
    /// at `min_bytes` per element; see [`limits::checked_count`].
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`], or [`Error::Decode`] when the count cannot fit.
    #[inline]
    pub fn count16(&mut self, min_bytes: usize, what: &str) -> Result<Count> {
        let n = usize::from(self.u16()?);
        limits::checked_count(n, self.rest.len(), min_bytes, what)
    }

    /// Reads a `u32` element count; see [`count16`](Self::count16).
    ///
    /// # Errors
    ///
    /// As for [`count16`](Self::count16).
    #[inline]
    pub fn count32(&mut self, min_bytes: usize, what: &str) -> Result<Count> {
        let n = self.u32()? as usize;
        limits::checked_count(n, self.rest.len(), min_bytes, what)
    }

    /// Reads a string written by [`put_str`].
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`], or [`Error::Decode`] on invalid UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.length("string bytes")?;
        std::str::from_utf8(self.take(len)?)
            .map_err(|e| Error::Decode(format!("invalid UTF-8 string: {e}")))
    }

    /// Reads a [`Value`] written by [`put_value`].
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`], or [`Error::Decode`] on an unknown tag.
    #[inline]
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            TAG_STR => Ok(Value::Str(Arc::from(self.str()?))),
            TAG_INT => Ok(Value::Int(self.i64()?)),
            TAG_DOLLAR => Ok(Value::Dollar(self.i64()?)),
            TAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                other => Err(Error::Decode(format!("invalid boolean byte {other}"))),
            },
            tag => Err(Error::Decode(format!("unknown value tag {tag}"))),
        }
    }

    /// Reads an [`Event`] written by [`put_event`], resolving its schema in
    /// `registry` and validating value kinds.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`], [`Error::Decode`] on an unregistered schema id
    /// or a value count other than the schema's arity (before anything is
    /// allocated for the values), plus any schema-validation error from
    /// [`Event::from_values`].
    pub fn event(&mut self, registry: &SchemaRegistry) -> Result<Event> {
        let schema_id = crate::SchemaId::new(self.u32()?);
        let n = self.count16(limits::MIN_VALUE_BYTES, "event values")?;
        let schema = registry
            .get(schema_id)
            .ok_or_else(|| Error::Decode(format!("unknown schema id {schema_id}")))?;
        let n = n.of_arity(schema, "event values")?;
        let mut values = n.vec();
        for _ in 0..n.get() {
            values.push(self.value()?);
        }
        Event::from_values(schema, values)
    }

    /// Reads an [`AttrTest`] written by [`put_attr_test`].
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`], or [`Error::Decode`] on an unknown tag.
    #[inline]
    pub fn attr_test(&mut self) -> Result<AttrTest> {
        match self.u8()? {
            TEST_ANY => Ok(AttrTest::Any),
            TEST_EQ => Ok(AttrTest::Eq(self.value()?)),
            TEST_LT => Ok(AttrTest::Lt(self.value()?)),
            TEST_LE => Ok(AttrTest::Le(self.value()?)),
            TEST_GT => Ok(AttrTest::Gt(self.value()?)),
            TEST_GE => Ok(AttrTest::Ge(self.value()?)),
            TEST_BETWEEN => Ok(AttrTest::Between(self.value()?, self.value()?)),
            tag => Err(Error::Decode(format!("unknown test tag {tag}"))),
        }
    }

    /// Reads a [`Predicate`] written by [`put_predicate`], validating it
    /// against `schema`.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`], [`Error::Decode`] (a test count other than the
    /// schema's arity among them, before anything is allocated for the
    /// tests), and validation errors from [`Predicate::from_tests`].
    pub fn predicate(&mut self, schema: &EventSchema) -> Result<Predicate> {
        let n = self.count16(limits::MIN_TEST_BYTES, "predicate tests")?;
        let n = n.of_arity(schema, "predicate tests")?;
        let mut tests = n.vec();
        for _ in 0..n.get() {
            tests.push(self.attr_test()?);
        }
        Predicate::from_tests(schema, tests)
    }

    /// Reads a [`Subscription`] written by [`put_subscription`].
    ///
    /// # Errors
    ///
    /// See [`predicate`](Self::predicate).
    pub fn subscription(&mut self, schema: &EventSchema) -> Result<Subscription> {
        let id = SubscriptionId::new(self.u32()?);
        let broker = BrokerId::new(self.u32()?);
        let client = ClientId::new(self.u32()?);
        let predicate = self.predicate(schema)?;
        Ok(Subscription::new(
            id,
            SubscriberId::new(broker, client),
            predicate,
        ))
    }
}

/// Encodes a string as `u32` length + UTF-8 bytes.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
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

/// Decodes the one [`Event`] that `bytes` holds, as [`put_event`] wrote it;
/// see [`Reader::event`].
///
/// # Errors
///
/// Those of [`Reader::event`], and [`Error::Decode`] for bytes after the
/// event.
pub fn get_event(bytes: &[u8], registry: &SchemaRegistry) -> Result<Event> {
    let mut r = Reader::new(bytes);
    let event = r.event(registry)?;
    r.finish("the event")?;
    Ok(event)
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

/// Encodes a [`Predicate`] as its test list.
pub fn put_predicate(buf: &mut impl BufMut, predicate: &Predicate) {
    buf.put_u16_le(predicate.tests().len() as u16);
    for t in predicate.tests() {
        put_attr_test(buf, t);
    }
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
            let mut rd = Reader::new(&buf);
            assert_eq!(rd.value().unwrap(), v);
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
        let back = get_event(&buf, &reg).unwrap();
        assert_eq!(back, ev);
        // The event must fill the bytes it is decoded from.
        buf.put_u8(0);
        assert!(get_event(&buf, &reg).is_err());
    }

    #[test]
    fn event_with_unknown_schema_fails() {
        let reg = registry();
        let mut buf = BytesMut::new();
        buf.put_u32_le(99);
        buf.put_u16_le(0);
        let err = get_event(&buf, &reg).unwrap_err();
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
            assert_eq!(Reader::new(&buf).attr_test().unwrap(), t);
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
        let back = Reader::new(&buf).subscription(&schema).unwrap();
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
        for cut in 0..buf.len() {
            assert!(
                Reader::new(&buf[..cut]).predicate(&schema).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn garbage_tags_error_cleanly() {
        assert!(Reader::new(&[200]).value().is_err());
        assert!(Reader::new(&[TAG_BOOL, 9]).value().is_err());
        assert!(Reader::new(&[77]).attr_test().is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_STR);
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert!(Reader::new(&buf).value().is_err());
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
        let err = get_event(&buf, &reg).unwrap_err();
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
        let err = Reader::new(&buf).predicate(&schema).unwrap_err();
        assert!(
            err.to_string().contains("declared count"),
            "want a count-vs-payload rejection, got: {err}"
        );
    }

    #[test]
    fn counts_other_than_the_arity_are_decode_errors() {
        // Five `*` tests and five values fit their bytes, but the schema
        // has four attributes: nothing is collected for them.
        let schema = trades();
        let mut buf = BytesMut::new();
        buf.put_u16_le(5);
        for _ in 0..5 {
            buf.put_u8(TEST_ANY);
        }
        let err = Reader::new(&buf).predicate(&schema).unwrap_err();
        assert!(matches!(err, Error::Decode(_)), "{err}");
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_u16_le(5);
        for _ in 0..5 {
            put_value(&mut buf, &Value::Bool(true));
        }
        let err = get_event(&buf, &registry()).unwrap_err();
        assert!(matches!(err, Error::Decode(_)), "{err}");
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
        let pred = Reader::new(&buf).predicate(&schema).unwrap();
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
        let err = Reader::new(&buf).predicate(&schema).unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch { .. }));
    }
}
