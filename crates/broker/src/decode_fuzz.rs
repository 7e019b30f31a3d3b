//! Every decoder a peer or a disk feeds, under mutation: frames in all
//! three directions, WAL ops and records, the state snapshot, and the frame
//! reader under arbitrary read cuts. Each case draws valid encodings (one
//! per `FrameTag`) and damages copies of them with byte flips, truncation,
//! splices of other encodings, stray bytes and inflated length and count
//! fields. For every input:
//!
//! - no decode panics;
//! - no single allocation a decode makes exceeds [`ALLOC_FACTOR`] times the
//!   input's length plus [`ALLOC_SLACK`];
//! - what a decoder accepts re-encodes to exactly the bytes it came from —
//!   except a `Stats` payload, which is length-tolerant by contract, and the
//!   snapshot, which has no canonical encoding and must instead refuse one
//!   stray byte after it.
//!
//! Cases follow `PROPTEST_CASES` (64 by default); CI's release step raises
//! it. A failure prints the input; replay it with `PROPTEST_SEED`.
// The allocation bound reads the counting allocator, which Miri runs without.
#![cfg(not(miri))]

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use linkcast::TreeId;
use linkcast_alloc_count::largest_allocation_in;
use linkcast_types::wire::Reader;
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, SchemaId, SchemaRegistry,
    SubscriberId, Subscription, SubscriptionId, Value, ValueKind,
};
use proptest::prelude::*;

use crate::broker::{decode_snapshot, encode_snapshot};
use crate::control::{SubIdAllocator, TombstoneSet};
use crate::counters::NodeCounters;
use crate::link::Link;
use crate::protocol::{BrokerToBroker, BrokerToClient, ClientToBroker, FrameTag, FRAME_PREFIX};
use crate::storage::{decode_ops, decode_records, encode_ops, encode_record, WalOp};
use crate::transport::{FrameReader, Polled};

/// A decode may allocate this many bytes per input byte in one request,
/// beyond [`ALLOC_SLACK`]: none. Every count a decoder sizes a collection
/// by is checked against the bytes left and, for values and tests, against
/// the schema's arity; the largest single allocation a 4 096-case run makes
/// is 1 552 bytes, for a 191-byte snapshot.
const ALLOC_FACTOR: usize = 0;

/// Plus this much whatever the input: the frame reader's first buffer.
const ALLOC_SLACK: usize = 4096;

/// The most a backed count mutation raises a count by: enough for a test
/// or value vector sized by it to outgrow [`ALLOC_SLACK`], little enough
/// that what it appends — to a connection's whole stream too — stays
/// inside it.
const BACKED_EXTRA: usize = 256;

/// Damaged copies of each valid encoding, per case.
const MUTANTS: usize = 8;

/// A `Stats` payload of exactly this build's counters re-encodes byte for
/// byte; a shorter or longer one decodes by contract and does not.
const STATS_PAYLOAD: usize = 1 + 8 * NodeCounters::COUNT;

/// SplitMix64: every case derives its inputs and mutations from one seed.
struct Rng(u64);

impl Rng {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n.max(1) as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

fn registry() -> SchemaRegistry {
    let mut registry = SchemaRegistry::new();
    registry
        .register(
            EventSchema::builder("fuzz")
                .attribute("s", ValueKind::Str)
                .attribute("i", ValueKind::Int)
                .attribute("d", ValueKind::Dollar)
                .attribute("b", ValueKind::Bool)
                .build()
                .unwrap(),
        )
        .unwrap();
    registry
}

fn schema(registry: &SchemaRegistry) -> &EventSchema {
    registry.get(SchemaId::new(0)).unwrap()
}

fn value(rng: &mut Rng, kind: ValueKind) -> Value {
    match kind {
        ValueKind::Str => {
            let len = rng.below(12);
            Value::str(
                (0..len)
                    .map(|_| rng.pick(&['a', 'Z', '0', ' ', 'é']))
                    .collect::<String>(),
            )
        }
        ValueKind::Int => Value::Int(rng.u64() as i64),
        ValueKind::Dollar => Value::Dollar(rng.u64() as i64 >> 8),
        ValueKind::Bool => Value::Bool(rng.below(2) == 1),
    }
}

fn event(rng: &mut Rng, registry: &SchemaRegistry) -> Event {
    let schema = schema(registry);
    let values: Vec<Value> = schema
        .attributes()
        .iter()
        .map(|a| value(rng, a.kind()))
        .collect();
    Event::from_values(schema, values).unwrap()
}

fn subscription(rng: &mut Rng, registry: &SchemaRegistry) -> Subscription {
    let schema = schema(registry);
    let tests: Vec<AttrTest> = schema
        .attributes()
        .iter()
        .map(|a| {
            let kind = a.kind();
            let shapes = if kind == ValueKind::Bool { 2 } else { 7 };
            match rng.below(shapes) {
                0 => AttrTest::Any,
                1 => AttrTest::Eq(value(rng, kind)),
                2 => AttrTest::Lt(value(rng, kind)),
                3 => AttrTest::Le(value(rng, kind)),
                4 => AttrTest::Gt(value(rng, kind)),
                5 => AttrTest::Ge(value(rng, kind)),
                _ => AttrTest::Between(value(rng, kind), value(rng, kind)),
            }
        })
        .collect();
    Subscription::new(
        SubscriptionId::new(rng.u32()),
        SubscriberId::new(BrokerId::new(rng.u32()), ClientId::new(rng.u32())),
        Predicate::from_tests(schema, tests).unwrap(),
    )
}

/// One valid frame (length prefix included) carrying `tag`.
fn frame(tag: FrameTag, rng: &mut Rng, registry: &SchemaRegistry) -> Bytes {
    // No wildcard: a tag declared without a sample here does not build.
    match tag {
        FrameTag::ClientHello => ClientToBroker::Hello {
            client: ClientId::new(rng.u32()),
            resume_from: rng.u64(),
        }
        .encode(),
        FrameTag::Subscribe => ClientToBroker::Subscribe {
            schema: SchemaId::new(rng.u32()),
            expression: "i > 10 & b = true".into(),
        }
        .encode(),
        FrameTag::Unsubscribe => ClientToBroker::Unsubscribe {
            id: SubscriptionId::new(rng.u32()),
        }
        .encode(),
        FrameTag::Publish => ClientToBroker::Publish {
            event: event(rng, registry),
        }
        .encode(),
        FrameTag::Ack => ClientToBroker::Ack { seq: rng.u64() }.encode(),
        FrameTag::StatsRequest => ClientToBroker::StatsRequest.encode(),
        FrameTag::Welcome => BrokerToClient::Welcome {
            client: ClientId::new(rng.u32()),
            resume_from: rng.u64(),
        }
        .encode(),
        FrameTag::Deliver => BrokerToClient::Deliver {
            seq: rng.u64(),
            event: event(rng, registry),
        }
        .encode(),
        FrameTag::SubAck => BrokerToClient::SubAck {
            id: SubscriptionId::new(rng.u32()),
        }
        .encode(),
        FrameTag::UnsubAck => BrokerToClient::UnsubAck {
            id: SubscriptionId::new(rng.u32()),
        }
        .encode(),
        FrameTag::Error => BrokerToClient::Error {
            message: "unknown schema".into(),
        }
        .encode(),
        FrameTag::Stats => {
            let words: Vec<u8> = (0..NodeCounters::COUNT)
                .flat_map(|_| (rng.u64() >> rng.below(64)).to_le_bytes())
                .collect();
            BrokerToClient::Stats(NodeCounters::decode_wire(&mut Reader::new(&words))).encode()
        }
        FrameTag::BrokerHello => BrokerToBroker::Hello {
            broker: BrokerId::new(rng.u32()),
            incarnation: rng.u64(),
            last_recv: rng.u64(),
            last_recv_incarnation: rng.u64(),
            send_seq: rng.u64(),
        }
        .encode(),
        FrameTag::Forward => BrokerToBroker::Forward {
            tree: TreeId::from_index(rng.below(64)),
            seq: rng.u64(),
            epoch: rng.u64(),
            event: event(rng, registry),
        }
        .encode(),
        FrameTag::SubAdd => BrokerToBroker::SubAdd {
            schema: SchemaId::new(0),
            subscription: subscription(rng, registry),
            resync: rng.below(2) == 1,
        }
        .encode(),
        FrameTag::SubRemove => BrokerToBroker::SubRemove {
            id: SubscriptionId::new(rng.u32()),
        }
        .encode(),
        FrameTag::FwdAck => BrokerToBroker::FwdAck { seq: rng.u64() }.encode(),
        FrameTag::Ping => BrokerToBroker::Ping.encode(),
        FrameTag::Pong => BrokerToBroker::Pong.encode(),
        FrameTag::LinkDown => BrokerToBroker::LinkDown {
            a: BrokerId::new(rng.u32()),
            b: BrokerId::new(rng.u32()),
            ver: rng.u64(),
        }
        .encode(),
        FrameTag::LinkUp => BrokerToBroker::LinkUp {
            a: BrokerId::new(rng.u32()),
            b: BrokerId::new(rng.u32()),
            ver: rng.u64(),
        }
        .encode(),
    }
}

fn frames(rng: &mut Rng, registry: &SchemaRegistry) -> Vec<Bytes> {
    FrameTag::ALL
        .iter()
        .map(|&tag| frame(tag, rng, registry))
        .collect()
}

fn wal_ops(rng: &mut Rng, frames: &[Bytes]) -> Vec<WalOp> {
    (0..1 + rng.below(4))
        .map(|_| match rng.below(3) {
            0 => WalOp::RecvMark {
                from: rng.u32(),
                incarnation: rng.u64(),
                seq: rng.u64(),
            },
            1 => WalOp::Append {
                neighbor: rng.u32(),
                seq: rng.u64(),
                frame: rng.pick(frames),
            },
            _ => WalOp::Trim {
                neighbor: rng.u32(),
                acked: rng.u64(),
            },
        })
        .collect()
}

fn snapshot(rng: &mut Rng, registry: &SchemaRegistry, frames: &[Bytes]) -> Vec<u8> {
    let mut sub_ids = SubIdAllocator::default();
    for _ in 0..rng.below(4) {
        let id = sub_ids.allocate().unwrap();
        if rng.below(2) == 1 {
            sub_ids.free(id);
        }
    }
    let mut tombstones = TombstoneSet::default();
    for _ in 0..rng.below(3) {
        tombstones.insert(SubscriptionId::new(rng.u32()));
    }
    let mut links = BTreeMap::new();
    for neighbor in 0..rng.below(3) as u32 {
        let mut link = Link::default();
        link.recover_mark(rng.u64(), rng.u64() >> 1);
        for seq in 1..=rng.below(3) as u64 {
            link.recover_append(seq, rng.pick(frames));
        }
        links.insert(BrokerId::new(neighbor), link);
    }
    let subscriptions: Vec<(SchemaId, Subscription)> = (0..rng.below(3))
        .map(|_| (SchemaId::new(0), subscription(rng, registry)))
        .collect();
    encode_snapshot(rng.u64(), &sub_ids, &tombstones, &links, &subscriptions)
}

/// `input` damaged one to three times: a bit flipped, the tail cut, a
/// piece of another encoding spliced in, stray bytes appended, a length or
/// count field inflated past the bytes present, or a `u16` count field
/// raised by up to [`BACKED_EXTRA`] and as many or twice as many donor
/// bytes appended to back it — a count only a check against the
/// schema, not against the bytes, can refuse.
fn mutate(rng: &mut Rng, input: &[u8], donors: &[Bytes]) -> Vec<u8> {
    let mut m = input.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(m.len() + 1);
        match rng.below(6) {
            0 if !m.is_empty() => {
                let at = at.min(m.len() - 1);
                m[at] ^= 1 << rng.below(8);
            }
            1 => m.truncate(at),
            2 => {
                let donor = rng.pick(donors);
                let from = rng.below(donor.len());
                let piece = &donor[from..(from + 1 + rng.below(16)).min(donor.len())];
                m.splice(at..at, piece.iter().copied());
            }
            3 => m.extend((0..1 + rng.below(3)).map(|_| rng.u64() as u8)),
            4 if m.len() >= 2 => {
                let at = at.min(m.len() - 2);
                let count = u16::from_le_bytes([m[at], m[at + 1]]);
                let extra = 1 + rng.below(BACKED_EXTRA);
                let raised = count.saturating_add(extra as u16);
                m[at..at + 2].copy_from_slice(&raised.to_le_bytes());
                let donor = rng.pick(donors);
                let backing = extra * rng.pick(&[1, 2]);
                m.extend(donor.iter().cycle().take(backing));
            }
            _ => {
                let field: &[u8] = match rng.below(6) {
                    0 => &u16::MAX.to_le_bytes(),
                    1 => &0x8000u16.to_le_bytes(),
                    2 => &u32::MAX.to_le_bytes(),
                    3 => &0x0100_0000u32.to_le_bytes(),
                    4 => &0x0001_0000u32.to_le_bytes(),
                    _ => &(m.len() as u32 + 1).to_le_bytes(),
                };
                let at = at.min(m.len().saturating_sub(field.len()));
                for (dst, &b) in m.iter_mut().skip(at).zip(field) {
                    *dst = b;
                }
            }
        }
    }
    m
}

/// Runs one decode: fails the case if it panicked or made an allocation
/// larger than the bound for `input`.
fn decoded<M>(what: &str, input: &[u8], decode: impl FnOnce() -> M) -> Result<M, TestCaseError> {
    let (largest, result) = largest_allocation_in(|| catch_unwind(AssertUnwindSafe(decode)));
    let Ok(result) = result else {
        return Err(TestCaseError::fail(format!(
            "{what} panicked on {input:02x?}"
        )));
    };
    let bound = ALLOC_FACTOR * input.len() + ALLOC_SLACK;
    prop_assert!(
        largest <= bound,
        "{what} allocated {largest} bytes at once for {} input bytes (bound {bound}): {input:02x?}",
        input.len()
    );
    Ok(result)
}

/// `payload` through all three directions' decoders.
fn check_frame(payload: &[u8], registry: &SchemaRegistry) -> Result<(), TestCaseError> {
    let bytes = Bytes::copy_from_slice(payload);
    let c2b = decoded("ClientToBroker::decode", payload, || {
        ClientToBroker::decode(bytes.clone(), registry)
    })?;
    let b2c = decoded("BrokerToClient::decode", payload, || {
        BrokerToClient::decode(bytes.clone(), registry)
    })?;
    let b2b = decoded("BrokerToBroker::decode", payload, || {
        BrokerToBroker::decode(bytes.clone(), registry)
    })?;
    let reencoded = [
        c2b.ok().map(|m| m.encode()),
        b2c.ok().and_then(|m| match m {
            BrokerToClient::Stats(_) if payload.len() != STATS_PAYLOAD => None,
            m => Some(m.encode()),
        }),
        b2b.ok().map(|m| m.encode()),
    ];
    for frame in reencoded.into_iter().flatten() {
        prop_assert!(
            frame.get(FRAME_PREFIX..) == Some(payload),
            "accepted {payload:02x?}, re-encoded {:02x?}",
            &frame[FRAME_PREFIX..]
        );
    }
    Ok(())
}

fn check_ops(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Some(ops) = decoded("decode_ops", payload, || decode_ops(payload))? {
        prop_assert_eq!(encode_ops(&ops), payload);
    }
    Ok(())
}

fn check_log(log: &[u8]) -> Result<(), TestCaseError> {
    let (records, torn) = decoded("decode_records", log, || decode_records(log))?;
    let mut again = Vec::new();
    for record in &records {
        encode_record(record, &mut again);
    }
    prop_assert!(
        log.starts_with(&again),
        "records re-encode to {again:02x?}, log {log:02x?}"
    );
    prop_assert_eq!(torn == 0, again.len() == log.len());
    Ok(())
}

fn check_snapshot(snap: &[u8], registry: &SchemaRegistry) -> Result<(), TestCaseError> {
    if decoded("decode_snapshot", snap, || decode_snapshot(snap, registry))?.is_some() {
        let stray = [snap, &[0]].concat();
        prop_assert!(
            decode_snapshot(&stray, registry).is_none(),
            "a snapshot accepted with a stray byte after it: {stray:02x?}"
        );
    }
    Ok(())
}

/// A read half that cuts `stream` as `cuts` says (0 is a timeout), then
/// serves the rest whole, then reports EOF.
struct Cut {
    stream: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
}

impl Read for Cut {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let cut = self.cuts.pop().unwrap_or(usize::MAX);
        if cut == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        let rest = &self.stream[self.pos..];
        let n = rest.len().min(out.len()).min(cut);
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

/// `stream` through a [`FrameReader`] under `cuts`: every poll within the
/// allocation bound for the whole stream, and the frames it hands out are
/// the stream's own bytes, in order.
fn check_reader(stream: Vec<u8>, cuts: Vec<usize>) -> Result<(), TestCaseError> {
    let polls = stream.len() + cuts.len() + 2;
    let source = Box::new(Cut {
        stream: stream.clone(),
        pos: 0,
        cuts,
    });
    let mut reader = decoded("FrameReader::new", &stream, || FrameReader::new(source))?;
    let mut out = Vec::new();
    for _ in 0..polls {
        match decoded("FrameReader::poll", &stream, || reader.poll())? {
            Ok(Polled::Frames(batch)) => out.extend(batch.flat_map(|frame| frame.to_vec())),
            Ok(Polled::Idle) => {}
            Ok(Polled::Closed) | Err(_) => break,
        }
    }
    prop_assert!(
        stream.starts_with(&out),
        "the reader handed out bytes that were not sent"
    );
    Ok(())
}

/// The largest `SubAdd` a `u16` test count can declare, every test the
/// one byte of a `*`: before decoders checked a count against the schema's
/// arity, it made one 48-byte slot per declared test (3 145 680 bytes) for
/// a schema of four attributes.
#[test]
fn a_sub_add_declaring_more_tests_than_the_schema_has_allocates_none() {
    let registry = registry();
    let mut payload = vec![FrameTag::SubAdd as u8];
    payload.extend(0u32.to_le_bytes()); // the schema
    payload.push(0); // resync
    payload.extend([0; 12]); // subscription id, broker, client
    payload.extend(u16::MAX.to_le_bytes());
    for _ in 0..u16::MAX {
        linkcast_types::wire::put_attr_test(&mut payload, &AttrTest::Any);
    }
    assert_eq!(payload.len(), 65_555);
    let bytes = Bytes::copy_from_slice(&payload);
    let (largest, decoded) =
        largest_allocation_in(|| BrokerToBroker::decode(bytes.clone(), &registry));
    assert!(decoded.is_err());
    assert!(largest <= ALLOC_SLACK, "{largest} bytes at once");
    check_frame(&payload, &registry).unwrap();
}

proptest! {
    /// Every frame tag's encoding, damaged, through all three directions.
    #[test]
    fn frames_of_every_tag_in_every_direction(seed in any::<u64>()) {
        let (mut rng, registry) = (Rng(seed), registry());
        let frames = frames(&mut rng, &registry);
        for frame in &frames {
            check_frame(&frame[FRAME_PREFIX..], &registry)?;
            for _ in 0..MUTANTS {
                check_frame(&mutate(&mut rng, &frame[FRAME_PREFIX..], &frames), &registry)?;
            }
        }
    }

    /// A WAL record batch and a log of records, damaged.
    #[test]
    fn wal_ops_and_records(seed in any::<u64>()) {
        let (mut rng, registry) = (Rng(seed), registry());
        let frames = frames(&mut rng, &registry);
        let ops = encode_ops(&wal_ops(&mut rng, &frames));
        let mut log = Vec::new();
        for _ in 0..1 + rng.below(3) {
            encode_record(&encode_ops(&wal_ops(&mut rng, &frames)), &mut log);
        }
        check_ops(&ops)?;
        check_log(&log)?;
        for _ in 0..MUTANTS {
            check_ops(&mutate(&mut rng, &ops, &frames))?;
            check_log(&mutate(&mut rng, &log, &frames))?;
        }
    }

    /// The state snapshot, damaged.
    #[test]
    fn state_snapshot(seed in any::<u64>()) {
        let (mut rng, registry) = (Rng(seed), registry());
        let frames = frames(&mut rng, &registry);
        let snap = snapshot(&mut rng, &registry, &frames);
        prop_assert!(decode_snapshot(&snap, &registry).is_some());
        check_snapshot(&snap, &registry)?;
        for _ in 0..MUTANTS {
            check_snapshot(&mutate(&mut rng, &snap, &frames), &registry)?;
        }
    }

    /// A connection's byte stream — every tag's frame, damaged — cut into
    /// reads at random, with timeouts between them.
    #[test]
    fn frame_reader_under_read_cuts(seed in any::<u64>()) {
        let (mut rng, registry) = (Rng(seed), registry());
        let frames = frames(&mut rng, &registry);
        let whole: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        let stream = mutate(&mut rng, &whole, &frames);
        let cuts = (0..rng.below(64)).map(|_| rng.pick(&[0, 1, 3, 7, 64, 4096])).collect();
        check_reader(stream, cuts)?;
    }
}
