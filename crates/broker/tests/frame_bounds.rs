//! Frame-length bounds at the API boundaries: an event whose encoded
//! body exceeds [`MAX_EVENT_BODY`] is rejected *before* it enters
//! routing — by the client library before a byte hits the wire, and by
//! the broker's publish ingress for peers that skip the client library —
//! and in both cases the connection survives to carry the next event.
//!
//! And at the read side: [`FrameReader`] cuts a byte stream into the same
//! frames however the transport happens to cut the stream into reads, and
//! sizes nothing by a length prefix it has not checked.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read};
use std::sync::Arc;
use std::time::Duration;

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{
    BrokerConfig, BrokerNode, BrokerToClient, Client, ClientError, ClientToBroker, FrameReader,
    Polled, MAX_EVENT_BODY, MAX_FRAME,
};
use linkcast_types::{ClientId, Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};
use proptest::prelude::*;

fn registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("blobs")
            .attribute("n", ValueKind::Int)
            .attribute("data", ValueKind::Str)
            .build()
            .unwrap(),
    )
    .unwrap();
    Arc::new(r)
}

fn blob(registry: &SchemaRegistry, n: i64, data_len: usize) -> Event {
    let schema = registry.get(SchemaId::new(0)).unwrap();
    Event::from_values(schema, [Value::Int(n), Value::str("x".repeat(data_len))]).unwrap()
}

fn start_broker(registry: &Arc<SchemaRegistry>) -> (BrokerNode, ClientId, ClientId) {
    let mut b = NetworkBuilder::new();
    let broker = b.add_broker();
    let publisher = b.add_client(broker).unwrap();
    let subscriber = b.add_client(broker).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let node = BrokerNode::start(BrokerConfig::localhost(
        broker,
        fabric,
        Arc::clone(registry),
    ))
    .unwrap();
    (node, publisher, subscriber)
}

/// The client library refuses to send an oversized event, and the session
/// keeps working afterwards.
#[test]
fn client_rejects_oversized_publish_and_survives() {
    let registry = registry();
    let (node, publisher, subscriber) = start_broker(&registry);

    let mut sub = Client::connect(node.addr(), subscriber, 0, Arc::clone(&registry)).unwrap();
    sub.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    let mut publ = Client::connect(node.addr(), publisher, 0, Arc::clone(&registry)).unwrap();

    let err = publ
        .publish(&blob(&registry, 1, MAX_EVENT_BODY + 1))
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Protocol(m) if m.contains("exceeds limit")),
        "{err}"
    );

    // The rejection happened client-side: the connection is intact and the
    // next (small) event flows end to end.
    publ.publish(&blob(&registry, 2, 8)).unwrap();
    let (_, event) = sub.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(event.value(0).unwrap().as_int().unwrap(), 2);
    node.shutdown();
}

/// A peer that bypasses the client library's guard hits the broker-side
/// ingress check: an `Error` frame comes back, nothing is routed, and the
/// connection is kept (an oversized event is the publisher's bug, not a
/// framing desync).
#[test]
fn broker_rejects_oversized_publish_and_keeps_the_connection() {
    let registry = registry();
    let (node, publisher, subscriber) = start_broker(&registry);

    let mut sub = Client::connect(node.addr(), subscriber, 0, Arc::clone(&registry)).unwrap();
    sub.subscribe(SchemaId::new(0), "n >= 0").unwrap();

    // LocalConn feeds frames straight into the engine, skipping both the
    // client library's publish guard and the wire read path.
    let local = node.open_local();
    local.send(&ClientToBroker::Hello {
        client: publisher,
        resume_from: 0,
    });
    match local.recv(Duration::from_secs(2)).unwrap() {
        BrokerToClient::Welcome { client, .. } => assert_eq!(client, publisher),
        other => panic!("expected welcome, got {other:?}"),
    }

    local.send(&ClientToBroker::Publish {
        event: blob(&registry, 1, MAX_EVENT_BODY + 1),
    });
    match local.recv(Duration::from_secs(2)).unwrap() {
        BrokerToClient::Error { message } => {
            assert!(message.contains("exceeds limit"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // The oversized event must not have been routed to the subscriber...
    assert!(sub.recv(Duration::from_millis(300)).is_err());
    // ...and the same connection still publishes.
    local.send(&ClientToBroker::Publish {
        event: blob(&registry, 2, 8),
    });
    let (_, event) = sub.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(event.value(0).unwrap().as_int().unwrap(), 2);
    node.shutdown();
}

/// What the scripted transport does on one `read` call.
#[derive(Debug, Clone)]
enum Step {
    /// Hand over at most this many of the stream's next bytes.
    Bytes(usize),
    /// Time out, as a quiet socket does every read quantum.
    Timeout,
}

/// A read half that cuts `stream` into reads as `script` says, serves the
/// rest in reads as large as asked for once the script is over, and then
/// reports EOF.
struct Scripted {
    stream: Vec<u8>,
    pos: usize,
    script: VecDeque<Step>,
}

impl Scripted {
    fn reader(stream: Vec<u8>, script: impl IntoIterator<Item = Step>) -> FrameReader {
        FrameReader::new(Box::new(Scripted {
            stream,
            pos: 0,
            script: script.into_iter().collect(),
        }))
    }
}

impl Read for Scripted {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        assert!(!out.is_empty(), "the reader asked for nothing");
        let cut = match self.script.pop_front() {
            Some(Step::Timeout) => return Err(ErrorKind::WouldBlock.into()),
            Some(Step::Bytes(n)) => n,
            None => usize::MAX,
        };
        let rest = &self.stream[self.pos..];
        let n = rest.len().min(out.len()).min(cut);
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// Polls to the end of the stream. Returns the frames (length prefixes
/// included), how the stream ended, and the largest the read buffer got.
fn read_all(reader: &mut FrameReader) -> (Vec<Vec<u8>>, io::Result<()>, usize) {
    let mut frames = Vec::new();
    let mut largest = reader.buffer_len();
    loop {
        let polled = reader.poll();
        largest = largest.max(reader.buffer_len());
        match polled {
            Ok(Polled::Frames(batch)) => frames.extend(batch.map(|f| f.to_vec())),
            Ok(Polled::Idle) => {}
            Ok(Polled::Closed) => return (frames, Ok(()), largest),
            Err(e) => return (frames, Err(e), largest),
        }
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Cuts inside a 4-byte prefix, byte-at-a-time reads...
        4 => (1usize..6).prop_map(Step::Bytes),
        // ...reads that take many frames at once...
        2 => (6usize..6000).prop_map(Step::Bytes),
        // ...and timeouts anywhere in between.
        2 => Just(Step::Timeout),
    ]
}

fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Empty payloads are frames too.
        1 => Just(Vec::new()),
        8 => proptest::collection::vec(any::<u8>(), 1..200),
        // Larger than the buffer a connection starts with.
        1 => (5_000usize..20_000).prop_map(|n| vec![0xab; n]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However the stream is cut into reads — and wherever reads time out —
    /// the frames are those of the uncut stream, a close on a frame
    /// boundary is clean, and the buffer never outgrows its largest frame.
    #[test]
    fn any_cut_of_the_stream_yields_the_same_frames(
        payloads in proptest::collection::vec(payload_strategy(), 0..24),
        script in proptest::collection::vec(step_strategy(), 0..400),
    ) {
        let expected: Vec<Vec<u8>> = payloads.iter().map(|p| framed(p)).collect();
        let stream = expected.concat();

        let (uncut, end, _) = read_all(&mut Scripted::reader(stream.clone(), []));
        prop_assert!(end.is_ok(), "{:?}", end);
        prop_assert_eq!(&uncut, &expected);

        let (cut, end, largest) = read_all(&mut Scripted::reader(stream, script));
        prop_assert!(end.is_ok(), "{:?}", end);
        prop_assert_eq!(&cut, &expected);
        let largest_frame = expected.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert!(largest <= largest_frame.max(64 * 1024), "buffer of {}", largest);
    }

    /// A stream that ends inside a frame — inside its prefix or its payload
    /// — is an error, after every frame that did arrive whole.
    #[test]
    fn eof_inside_a_frame_is_an_error(
        payloads in proptest::collection::vec(payload_strategy(), 1..8),
        script in proptest::collection::vec(step_strategy(), 0..100),
        cut_back in 1usize..64,
    ) {
        let expected: Vec<Vec<u8>> = payloads.iter().map(|p| framed(p)).collect();
        let mut stream = expected.concat();
        let last = expected.last().map_or(0, Vec::len);
        // Drop the tail of the last frame, never all of it.
        stream.truncate(stream.len() - cut_back.min(last - 1));

        let (frames, end, _) = read_all(&mut Scripted::reader(stream, script));
        prop_assert_eq!(&frames, &expected[..expected.len() - 1]);
        prop_assert_eq!(end.map_err(|e| e.kind()), Err(ErrorKind::UnexpectedEof));
    }
}

/// The buffer starts at a page, not at the largest burst a connection might
/// one day send: most connections are quiet, and each has one.
#[test]
fn a_connection_starts_with_a_small_buffer() {
    assert!(Scripted::reader(Vec::new(), []).buffer_len() <= 4096);
}

/// A length prefix over the limit fails the stream before anything is
/// sized by it — also when it is all that has arrived — and after the
/// whole frames in front of it went out.
#[test]
fn an_oversized_prefix_sizes_nothing() {
    let hostile = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
    let (frames, end, largest) = read_all(&mut Scripted::reader(hostile.clone(), []));
    assert!(frames.is_empty());
    assert!(end.unwrap_err().to_string().contains("exceeds limit"));
    assert!(largest <= 4096, "buffer grew to {largest}");

    let stream = [framed(b"first"), framed(b""), hostile].concat();
    let (frames, end, largest) = read_all(&mut Scripted::reader(stream, []));
    assert_eq!(frames, [framed(b"first"), framed(b"")]);
    assert!(end.unwrap_err().to_string().contains("exceeds limit"));
    assert!(largest <= 4096, "buffer grew to {largest}");
}

/// The largest legal frame is read — the buffer grows to exactly its size,
/// `MAX_FRAME + 4` — and the buffer shrinks back once it is through.
#[test]
fn the_largest_frame_fits_and_the_buffer_shrinks_back() {
    let stream = [framed(&vec![7u8; MAX_FRAME]), framed(b"next")].concat();
    let mut reader = Scripted::reader(stream, []);
    let (frames, end, largest) = read_all(&mut reader);
    assert!(end.is_ok(), "{end:?}");
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].len(), MAX_FRAME + 4);
    assert_eq!(frames[1], framed(b"next"));
    assert_eq!(largest, MAX_FRAME + 4);
    assert!(reader.buffer_len() <= 64 * 1024);
}
