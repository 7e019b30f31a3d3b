//! Allocation counts of the subscription install path, pinned: what it costs
//! to move one subscription between threads and sockets is allocations and
//! copies, and an allocation count repeats exactly where a timing does not.
//!
//! The subject is the `match` benchmark's decoy chain (seven integer tests),
//! taken through every stage a subscription passes on its way into three
//! brokers: the client's `Subscribe` encode, the home broker's parse and
//! `SubAdd` encode, a neighbor's read, decode and onward flood. (The flood's
//! last hop — the outbox handing the one frame to every neighbor's queue —
//! is not public API; `outbox::tests::a_flood_to_two_neighbors_allocates_nothing`
//! pins it at zero from inside the crate, under the same allocator.)
//!
//! Alone in its test binary because of the `#[global_allocator]`; the count
//! is per thread, so the tests need not take turns.

#![cfg(not(miri))]

use std::collections::VecDeque;
use std::io::{self, Read};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use linkcast_alloc_count::{allocations_in, CountingAllocator};
use linkcast_broker::{BrokerToBroker, ClientToBroker, FrameReader, Polled};
use linkcast_types::{
    parse_predicate, BrokerId, ClientId, EventSchema, SchemaId, SchemaRegistry, SubscriberId,
    Subscription, SubscriptionId, ValueKind,
};
use linkcast_workload::decoy_chain;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The benchmark's information space, as far as the chain names it.
fn registry() -> SchemaRegistry {
    let mut schema = EventSchema::builder("ticks").attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        schema = schema.attribute(format!("a{k}"), ValueKind::Int);
    }
    let mut registry = SchemaRegistry::new();
    registry.register(schema.build().unwrap()).unwrap();
    registry
}

fn sub_add(registry: &SchemaRegistry, j: u64) -> BrokerToBroker {
    let schema = registry.get(SchemaId::new(0)).unwrap();
    BrokerToBroker::SubAdd {
        schema: SchemaId::new(0),
        subscription: Subscription::new(
            SubscriptionId::new(j as u32),
            SubscriberId::new(BrokerId::new(1), ClientId::new(2)),
            parse_predicate(schema, &decoy_chain(j)).unwrap(),
        ),
        resync: false,
    }
}

/// A read half that serves what the test has queued as fast as it is
/// asked, and times out when that runs dry.
#[derive(Clone, Default)]
struct Queue(Arc<Mutex<VecDeque<u8>>>);

impl Read for Queue {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut queued = self.0.lock().unwrap();
        if queued.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = queued.len().min(out.len());
        for (dst, byte) in out.iter_mut().zip(queued.drain(..n)) {
            *dst = byte;
        }
        Ok(n)
    }
}

/// An encoder builds the frame in the buffer it is sent in: the buffer and
/// its reference count, whatever the message. (Five and seven before the
/// buffer was sized up front and frozen in place.)
#[test]
fn an_encode_is_one_buffer() {
    let registry = registry();
    let subscribe = ClientToBroker::Subscribe {
        schema: SchemaId::new(0),
        expression: decoy_chain(7),
    };
    let (allocations, frame) = allocations_in(|| subscribe.encode());
    assert_eq!(allocations, 2, "Subscribe");
    assert_eq!(frame.len(), 4 + 9 + decoy_chain(7).len());

    let flood = sub_add(&registry, 7);
    let (allocations, _frame) = allocations_in(|| flood.encode());
    assert_eq!(allocations, 2, "SubAdd");
}

/// Parsing the chain allocates the predicate's test vector and nothing per
/// token (fifteen with a `String` per identifier and number); decoding it
/// off the wire likewise.
#[test]
fn parse_and_decode_allocate_the_predicate_only() {
    let registry = registry();
    let schema = registry.get(SchemaId::new(0)).unwrap();
    let chain = decoy_chain(7);
    let (allocations, predicate) = allocations_in(|| parse_predicate(schema, &chain));
    assert_eq!(allocations, 1, "parse");
    assert_eq!(predicate.unwrap().non_wildcard_count(), 7);

    let payload = sub_add(&registry, 7).encode().slice(4..);
    let (allocations, decoded) = allocations_in(|| BrokerToBroker::decode(payload, &registry));
    assert_eq!(allocations, 1, "decode");
    assert_eq!(decoded.unwrap(), sub_add(&registry, 7));
}

/// A burst of frames costs the reader one buffer per read, not two
/// allocations per frame, and a frame it hands on is ready to send as it is:
/// flooding a received `SubAdd` onward is a reference-count bump (it was a
/// re-prefixed copy, two allocations).
#[test]
fn a_burst_is_one_buffer_per_read_and_floods_onward_as_received() {
    let registry = registry();
    let sent: Vec<Bytes> = (0..64).map(|j| sub_add(&registry, j).encode()).collect();
    let burst: Vec<u8> = sent.iter().flat_map(|f| f.iter().copied()).collect();
    let wire = Queue::default();
    let mut reader = FrameReader::new(Box::new(wire.clone()));

    // The first burst grows the read buffer to what this connection's
    // traffic needs; the second is the steady state.
    wire.0.lock().unwrap().extend(&burst);
    let mut warm_up = 0;
    while warm_up < sent.len() {
        match reader.poll().unwrap() {
            Polled::Frames(batch) => warm_up += batch.count(),
            other => panic!("the burst is not over: {other:?}"),
        }
    }
    assert!(reader.buffer_len() > burst.len());

    wire.0.lock().unwrap().extend(&burst);
    let (allocations, polled) = allocations_in(|| reader.poll());
    // The shared buffer and its reference count, for all 64 frames.
    assert_eq!(allocations, 2, "read");
    let Polled::Frames(batch) = polled.unwrap() else {
        panic!("a whole burst completes no frame");
    };
    let mut frames = Vec::with_capacity(sent.len());
    let (allocations, ()) = allocations_in(|| frames.extend(batch));
    assert_eq!(allocations, 0, "carve");
    assert_eq!(frames, sent, "length prefixes included");

    let received = &frames[63];
    let (allocations, onward) = allocations_in(|| received.clone());
    assert_eq!(allocations, 0, "re-flood");
    assert_eq!(onward.as_ptr(), received.as_ptr());
}
