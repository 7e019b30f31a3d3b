//! Message types and codec for the client and broker protocols.
//!
//! Every frame on the wire is `[u32 LE payload length][payload]`; the
//! payload starts with a one-byte message tag. Events, predicates, and
//! subscriptions reuse the [`linkcast_types::wire`] codec.

use crate::counters::NodeCounters;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use linkcast::TreeId;
use linkcast_types::wire::FrameTag;
use linkcast_types::{
    wire, BrokerId, ClientId, Event, SchemaId, SchemaRegistry, Subscription, SubscriptionId,
};
use std::fmt;

/// Maximum frame payload, bytes, both ways: a receiver rejects a longer
/// length prefix (a defense against corrupt ones), and an encode entry
/// point rejects a longer payload with [`ProtocolError::Oversized`] instead
/// of truncating its `u32` length prefix and desyncing the stream.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Maximum encoded *event body* accepted into routing. Tighter than
/// [`MAX_FRAME`] by a headroom margin because an accepted publish body
/// is re-stitched as a `Forward` frame (+21 bytes of routing header) and a
/// `Deliver` frame; the result must still fit every receiver's
/// [`MAX_FRAME`], or the oversized Forward would flap the link forever
/// (retransmit → reject → disconnect → resync → retransmit).
pub const MAX_EVENT_BODY: usize = MAX_FRAME - 64;

/// Checks an encoded event body against [`MAX_EVENT_BODY`].
///
/// Called at the API boundary (client publish, broker publish ingress)
/// so oversized events are rejected before they enter routing.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when `len` exceeds [`MAX_EVENT_BODY`].
pub(crate) fn check_event_body(len: usize) -> Result<(), ProtocolError> {
    if len > MAX_EVENT_BODY {
        return Err(ProtocolError::Oversized(len));
    }
    Ok(())
}

/// Errors from encoding or decoding protocol frames.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The payload failed to decode.
    Malformed(String),
    /// The frame length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ProtocolError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<linkcast_types::Error> for ProtocolError {
    fn from(e: linkcast_types::Error) -> Self {
        ProtocolError::Malformed(e.to_string())
    }
}

/// Messages a client sends to its broker.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientToBroker {
    /// Identify (and possibly resume) a session. `resume_from` is the last
    /// sequence number the client has safely received (0 for a fresh
    /// session); the broker redelivers everything after it.
    Hello {
        /// The pre-provisioned client identity.
        client: ClientId,
        /// Last sequence number already received.
        resume_from: u64,
    },
    /// Register a subscription: a predicate expression against the named
    /// information space, parsed by the broker's subscription manager.
    Subscribe {
        /// Information space to subscribe in.
        schema: SchemaId,
        /// Predicate expression, e.g. `issue = "IBM" & price < 120.00`.
        expression: String,
    },
    /// Remove a subscription.
    Unsubscribe {
        /// The subscription to remove.
        id: SubscriptionId,
    },
    /// Publish an event.
    Publish {
        /// The event (validated against its schema by the event parser).
        event: Event,
    },
    /// Acknowledge delivery of every event up to `seq`, allowing the
    /// broker's garbage collector to trim the client's log.
    Ack {
        /// Highest contiguously received sequence number.
        seq: u64,
    },
    /// Ask for the broker's counters (allowed before `Hello`; used by
    /// operational tooling).
    StatsRequest,
}

/// Messages a broker sends to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerToClient {
    /// Session accepted; deliveries resume after `resume_from`.
    Welcome {
        /// Echo of the client identity.
        client: ClientId,
        /// Sequence number deliveries resume after.
        resume_from: u64,
    },
    /// A matched event, with the client's log sequence number.
    Deliver {
        /// Per-client sequence number (contiguous from 1).
        seq: u64,
        /// The event.
        event: Event,
    },
    /// A subscription was registered.
    SubAck {
        /// The assigned subscription id.
        id: SubscriptionId,
    },
    /// A subscription was removed.
    UnsubAck {
        /// The removed subscription id.
        id: SubscriptionId,
    },
    /// A request failed.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// The broker's counters, answering a
    /// [`StatsRequest`](ClientToBroker::StatsRequest). The payload layout
    /// (registry order, `u64` LE words) comes from the `broker_counters!`
    /// registry in `crate::counters`.
    Stats(NodeCounters),
}

/// Messages brokers exchange.
///
/// Each broker–broker link is a reliable stateful channel: `Forward`
/// frames carry a per-link sequence number drawn from the sender's link
/// spool, the receiver acknowledges cumulatively with `FwdAck`, and the
/// `Hello` handshake exchanges both sides' high-water marks so a
/// reconnecting link retransmits exactly the unacknowledged suffix.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerToBroker {
    /// Identify a broker to its neighbor and resync the link. Sent by the
    /// dialing side on (re-)connect and answered in kind by the accepting
    /// side, so both directions of the link recover independently.
    Hello {
        /// The sending broker's id.
        broker: BrokerId,
        /// Nonce minted when the sending broker process started. A change
        /// between handshakes means the sender restarted: its `Forward`
        /// sequence space toward us is brand new, so our recorded
        /// high-water mark must be discarded, not compared. Comparing
        /// `send_seq` alone misses the restart once the fresh stream's
        /// sequence has caught up to (or passed) the old one — the
        /// receiver would then dedup-drop or ack-trim live frames.
        incarnation: u64,
        /// Highest `Forward` sequence number the sender has received *from*
        /// this neighbor — the neighbor trims its spool through this and
        /// retransmits everything after it.
        last_recv: u64,
        /// The neighbor incarnation `last_recv` was observed under. If it
        /// is not the receiver's *current* incarnation, `last_recv` counts
        /// a dead sequence space and must be treated as 0 (retransmit the
        /// whole spool; the peer's reset dedup window absorbs it).
        last_recv_incarnation: u64,
        /// Highest `Forward` sequence number the sender has ever assigned
        /// *toward* this neighbor. A value below the receiver's recorded
        /// high-water mark means the sender restarted and lost its spool;
        /// the receiver resets its dedup window so the fresh stream is not
        /// mistaken for duplicates (redundant with `incarnation` but kept
        /// as an independent guard).
        send_seq: u64,
    },
    /// An event in flight along a spanning tree.
    Forward {
        /// The spanning tree the event follows.
        tree: TreeId,
        /// Per-link sequence number (contiguous from 1 per neighbor pair,
        /// modulo spool-overflow gaps). The receiver drops sequence numbers
        /// at or below its high-water mark as retransmission duplicates.
        seq: u64,
        /// The sender's topology epoch when the frame was spooled. A
        /// receiver at a different epoch drops the frame *without* acking
        /// it or advancing its dedup window — the sender's epoch-flip
        /// sweep re-homes the still-spooled frame down the repaired tree,
        /// so a stale-epoch drop can never lose an event.
        epoch: u64,
        /// The event.
        event: Event,
    },
    /// Cumulative acknowledgment of `Forward` frames received on this
    /// link; the sender trims its spool through `seq`.
    FwdAck {
        /// Highest received per-link sequence number.
        seq: u64,
    },
    /// Flooded subscription registration (control plane).
    SubAdd {
        /// Information space of the subscription.
        schema: SchemaId,
        /// The subscription.
        subscription: Subscription,
        /// Whether this is anti-entropy resync traffic (replayed on link
        /// establishment) rather than a fresh registration. Resynced adds
        /// are filtered against the receiver's tombstone set so removals
        /// that flooded while the link was down stay removed; fresh adds
        /// instead clear a matching tombstone (id recycling).
        resync: bool,
    },
    /// Flooded subscription removal.
    SubRemove {
        /// The subscription to remove.
        id: SubscriptionId,
    },
    /// Liveness probe. Sent on a link with no received traffic for a
    /// heartbeat interval; the peer answers with [`Pong`](Self::Pong).
    /// Carries no state — any frame arrival refreshes the receiver's
    /// liveness clock, a `Ping` merely guarantees there is one.
    Ping,
    /// Liveness probe answer. Like `Ping`, its only payload is its
    /// arrival.
    Pong,
    /// Flooded link-state statement: the broker-broker edge `(a, b)` is
    /// down. Endpoints are normalized (`a < b`); `ver` is the per-edge
    /// statement version. A receiver applies the statement iff it is newer
    /// than its recorded state for the edge, recomputes the spanning
    /// forest over the surviving graph (bumping its topology epoch), and
    /// re-floods to every neighbor except the one it heard from.
    LinkDown {
        /// Lower-numbered endpoint of the edge.
        a: BrokerId,
        /// Higher-numbered endpoint of the edge.
        b: BrokerId,
        /// Per-edge statement version (monotone; dedups the flood).
        ver: u64,
    },
    /// Flooded link-state statement: the broker-broker edge `(a, b)` is
    /// live again. Same normalization, versioning, and apply-if-newer
    /// semantics as [`LinkDown`](Self::LinkDown).
    LinkUp {
        /// Lower-numbered endpoint of the edge.
        a: BrokerId,
        /// Higher-numbered endpoint of the edge.
        b: BrokerId,
        /// Per-edge statement version (monotone; dedups the flood).
        ver: u64,
    },
}

// Tag bytes are owned by `FrameTag` in `linkcast_types::wire` — the consts
// below only bind local names; `cargo xtask check` verifies that every
// variant is bound, encoded, and decoded here.
const C2B_HELLO: u8 = FrameTag::ClientHello as u8;
const C2B_SUBSCRIBE: u8 = FrameTag::Subscribe as u8;
const C2B_UNSUBSCRIBE: u8 = FrameTag::Unsubscribe as u8;
const C2B_PUBLISH: u8 = FrameTag::Publish as u8;
const C2B_ACK: u8 = FrameTag::Ack as u8;
const C2B_STATS: u8 = FrameTag::StatsRequest as u8;

const B2C_WELCOME: u8 = FrameTag::Welcome as u8;
const B2C_DELIVER: u8 = FrameTag::Deliver as u8;
const B2C_SUBACK: u8 = FrameTag::SubAck as u8;
const B2C_UNSUBACK: u8 = FrameTag::UnsubAck as u8;
const B2C_ERROR: u8 = FrameTag::Error as u8;
const B2C_STATS: u8 = FrameTag::Stats as u8;

const B2B_HELLO: u8 = FrameTag::BrokerHello as u8;
const B2B_FORWARD: u8 = FrameTag::Forward as u8;
const B2B_SUBADD: u8 = FrameTag::SubAdd as u8;
const B2B_SUBREMOVE: u8 = FrameTag::SubRemove as u8;
const B2B_FWDACK: u8 = FrameTag::FwdAck as u8;
const B2B_PING: u8 = FrameTag::Ping as u8;
const B2B_PONG: u8 = FrameTag::Pong as u8;
const B2B_LINKDOWN: u8 = FrameTag::LinkDown as u8;
const B2B_LINKUP: u8 = FrameTag::LinkUp as u8;

/// Bytes of the `u32` LE length prefix in front of every frame's payload.
pub(crate) const FRAME_PREFIX: usize = 4;

/// Starts a frame whose payload will take `payload_len` bytes: the one
/// buffer the frame is built and sent in, its length prefix a placeholder
/// until [`finish_frame`] knows what was written.
fn begin_frame(payload_len: usize) -> BytesMut {
    let mut out = BytesMut::with_capacity(FRAME_PREFIX + payload_len);
    out.put_u32_le(0);
    out
}

/// Patches the length prefix of a frame started by [`begin_frame`] and
/// freezes the buffer as it stands.
fn finish_frame(mut out: BytesMut) -> Bytes {
    let payload_len = out.len().saturating_sub(FRAME_PREFIX) as u32;
    if let Some(prefix) = out.get_mut(..FRAME_PREFIX) {
        prefix.copy_from_slice(&payload_len.to_le_bytes());
    }
    out.freeze()
}

/// Byte offset of the encoded event inside a `Publish` payload (tag byte).
pub(crate) const PUBLISH_BODY_OFFSET: usize = 1;
/// Byte offset of the encoded event inside a `Forward` payload (tag byte +
/// tree id + per-link sequence number + topology epoch).
pub(crate) const FORWARD_BODY_OFFSET: usize = 21;
/// Byte offset of the encoded event inside a `Deliver` payload (tag byte +
/// per-client sequence number).
const DELIVER_BODY_OFFSET: usize = 9;

/// Serializes an event body exactly once, for fan-out through the frame
/// stitchers below. The broker calls this only for events that did not
/// arrive over the wire; events that did are sliced straight out of the
/// incoming payload (see the `*_BODY_OFFSET` constants) and never
/// re-serialized.
pub(crate) fn encode_event_body(event: &Event) -> Bytes {
    let mut b = BytesMut::with_capacity(wire::event_len(event));
    wire::put_event(&mut b, event);
    b.freeze()
}

/// Stitches a complete `Publish` frame around an already-encoded event body.
pub(crate) fn publish_frame(body: &[u8]) -> Bytes {
    let mut out = begin_frame(PUBLISH_BODY_OFFSET + body.len());
    out.put_u8(C2B_PUBLISH);
    out.extend_from_slice(body);
    finish_frame(out)
}

/// Stitches a complete `Forward` frame around an already-encoded event
/// body. The sequence number is per-link (each neighbor's spool assigns
/// its own), so every link gets its own header, but the body bytes are
/// never re-serialized.
pub(crate) fn forward_frame(tree: TreeId, seq: u64, epoch: u64, body: &[u8]) -> Bytes {
    let mut out = begin_frame(FORWARD_BODY_OFFSET + body.len());
    out.put_u8(B2B_FORWARD);
    out.put_u32_le(tree.index() as u32);
    out.put_u64_le(seq);
    out.put_u64_le(epoch);
    out.extend_from_slice(body);
    finish_frame(out)
}

/// Stitches a complete `Deliver` frame around an already-encoded event body.
/// The sequence number is per-client, so each client gets its own header,
/// but the body bytes are never re-serialized.
pub(crate) fn deliver_frame(seq: u64, body: &[u8]) -> Bytes {
    let mut out = begin_frame(DELIVER_BODY_OFFSET + body.len());
    out.put_u8(B2C_DELIVER);
    out.put_u64_le(seq);
    out.extend_from_slice(body);
    finish_frame(out)
}

/// A complete `SubAdd` frame for a subscription its caller keeps: the home
/// broker encodes the flood from a reference and then moves the
/// subscription into its engine. [`BrokerToBroker::SubAdd`] encodes through
/// here too.
pub(crate) fn sub_add_frame(schema: SchemaId, subscription: &Subscription, resync: bool) -> Bytes {
    let mut b = begin_frame(6 + wire::subscription_len(subscription));
    b.put_u8(B2B_SUBADD);
    b.put_u32_le(schema.raw());
    b.put_u8(u8::from(resync));
    wire::put_subscription(&mut b, subscription);
    finish_frame(b)
}

impl ClientToBroker {
    /// Encodes into a length-prefixed frame.
    pub fn encode(&self) -> Bytes {
        let b = match self {
            ClientToBroker::Hello {
                client,
                resume_from,
            } => {
                let mut b = begin_frame(13);
                b.put_u8(C2B_HELLO);
                b.put_u32_le(client.raw());
                b.put_u64_le(*resume_from);
                b
            }
            ClientToBroker::Subscribe { schema, expression } => {
                let mut b = begin_frame(9 + expression.len());
                b.put_u8(C2B_SUBSCRIBE);
                b.put_u32_le(schema.raw());
                wire::put_str(&mut b, expression);
                b
            }
            ClientToBroker::Unsubscribe { id } => {
                let mut b = begin_frame(5);
                b.put_u8(C2B_UNSUBSCRIBE);
                b.put_u32_le(id.raw());
                b
            }
            ClientToBroker::Publish { event } => {
                let mut b = begin_frame(PUBLISH_BODY_OFFSET + wire::event_len(event));
                b.put_u8(C2B_PUBLISH);
                wire::put_event(&mut b, event);
                b
            }
            ClientToBroker::Ack { seq } => {
                let mut b = begin_frame(9);
                b.put_u8(C2B_ACK);
                b.put_u64_le(*seq);
                b
            }
            ClientToBroker::StatsRequest => {
                let mut b = begin_frame(1);
                b.put_u8(C2B_STATS);
                b
            }
        };
        finish_frame(b)
    }

    /// Decodes a frame payload (without the length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation, unknown tags, or schema
    /// violations.
    pub fn decode(mut payload: Bytes, registry: &SchemaRegistry) -> Result<Self, ProtocolError> {
        let buf = &mut payload;
        if buf.remaining() < 1 {
            return Err(ProtocolError::Malformed("empty payload".into()));
        }
        match buf.get_u8() {
            C2B_HELLO => {
                if buf.remaining() < 12 {
                    return Err(ProtocolError::Malformed("short hello".into()));
                }
                Ok(ClientToBroker::Hello {
                    client: ClientId::new(buf.get_u32_le()),
                    resume_from: buf.get_u64_le(),
                })
            }
            C2B_SUBSCRIBE => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed("short subscribe".into()));
                }
                let schema = SchemaId::new(buf.get_u32_le());
                let expression = wire::get_str(buf)?;
                Ok(ClientToBroker::Subscribe { schema, expression })
            }
            C2B_UNSUBSCRIBE => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed("short unsubscribe".into()));
                }
                Ok(ClientToBroker::Unsubscribe {
                    id: SubscriptionId::new(buf.get_u32_le()),
                })
            }
            C2B_PUBLISH => Ok(ClientToBroker::Publish {
                event: wire::get_event(buf, registry)?,
            }),
            C2B_ACK => {
                if buf.remaining() < 8 {
                    return Err(ProtocolError::Malformed("short ack".into()));
                }
                Ok(ClientToBroker::Ack {
                    seq: buf.get_u64_le(),
                })
            }
            C2B_STATS => Ok(ClientToBroker::StatsRequest),
            tag => Err(ProtocolError::Malformed(format!(
                "unknown client message tag {tag:#x}"
            ))),
        }
    }
}

impl BrokerToClient {
    /// Encodes into a length-prefixed frame.
    pub fn encode(&self) -> Bytes {
        let b = match self {
            BrokerToClient::Welcome {
                client,
                resume_from,
            } => {
                let mut b = begin_frame(13);
                b.put_u8(B2C_WELCOME);
                b.put_u32_le(client.raw());
                b.put_u64_le(*resume_from);
                b
            }
            BrokerToClient::Deliver { seq, event } => {
                let mut b = begin_frame(DELIVER_BODY_OFFSET + wire::event_len(event));
                b.put_u8(B2C_DELIVER);
                b.put_u64_le(*seq);
                wire::put_event(&mut b, event);
                b
            }
            BrokerToClient::SubAck { id } => {
                let mut b = begin_frame(5);
                b.put_u8(B2C_SUBACK);
                b.put_u32_le(id.raw());
                b
            }
            BrokerToClient::UnsubAck { id } => {
                let mut b = begin_frame(5);
                b.put_u8(B2C_UNSUBACK);
                b.put_u32_le(id.raw());
                b
            }
            BrokerToClient::Error { message } => {
                let mut b = begin_frame(5 + message.len());
                b.put_u8(B2C_ERROR);
                wire::put_str(&mut b, message);
                b
            }
            BrokerToClient::Stats(counters) => {
                let mut b = begin_frame(1 + 8 * NodeCounters::COUNT);
                b.put_u8(B2C_STATS);
                counters.encode_wire(&mut b);
                b
            }
        };
        finish_frame(b)
    }

    /// Decodes a frame payload (without the length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation, unknown tags, or schema
    /// violations.
    pub fn decode(mut payload: Bytes, registry: &SchemaRegistry) -> Result<Self, ProtocolError> {
        let buf = &mut payload;
        if buf.remaining() < 1 {
            return Err(ProtocolError::Malformed("empty payload".into()));
        }
        match buf.get_u8() {
            B2C_WELCOME => {
                if buf.remaining() < 12 {
                    return Err(ProtocolError::Malformed("short welcome".into()));
                }
                Ok(BrokerToClient::Welcome {
                    client: ClientId::new(buf.get_u32_le()),
                    resume_from: buf.get_u64_le(),
                })
            }
            B2C_DELIVER => {
                if buf.remaining() < 8 {
                    return Err(ProtocolError::Malformed("short deliver".into()));
                }
                let seq = buf.get_u64_le();
                let event = wire::get_event(buf, registry)?;
                Ok(BrokerToClient::Deliver { seq, event })
            }
            B2C_SUBACK => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed("short suback".into()));
                }
                Ok(BrokerToClient::SubAck {
                    id: SubscriptionId::new(buf.get_u32_le()),
                })
            }
            B2C_UNSUBACK => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed("short unsuback".into()));
                }
                Ok(BrokerToClient::UnsubAck {
                    id: SubscriptionId::new(buf.get_u32_le()),
                })
            }
            B2C_ERROR => Ok(BrokerToClient::Error {
                message: wire::get_str(buf)?,
            }),
            B2C_STATS => {
                // Forward-compatible prefix decoding: the Stats frame has
                // grown (64 → 72 → 104 → 128 bytes) as counters were added,
                // and will grow again. `NodeCounters::decode_wire` (macro-
                // generated from the counter registry) reads whatever whole
                // counters are present in registry order, defaults the rest
                // to 0, and ignores trailing counters newer than this
                // build. Only a ragged (non-multiple-of-8) payload is
                // malformed. The *encoder* stays exact-size so old decoders
                // keep working.
                if !buf.remaining().is_multiple_of(8) {
                    return Err(ProtocolError::Malformed("ragged stats payload".into()));
                }
                Ok(BrokerToClient::Stats(NodeCounters::decode_wire(buf)))
            }
            tag => Err(ProtocolError::Malformed(format!(
                "unknown broker-to-client tag {tag:#x}"
            ))),
        }
    }
}

impl BrokerToBroker {
    /// Encodes into a length-prefixed frame.
    pub fn encode(&self) -> Bytes {
        let b = match self {
            BrokerToBroker::Hello {
                broker,
                incarnation,
                last_recv,
                last_recv_incarnation,
                send_seq,
            } => {
                let mut b = begin_frame(37);
                b.put_u8(B2B_HELLO);
                b.put_u32_le(broker.raw());
                b.put_u64_le(*incarnation);
                b.put_u64_le(*last_recv);
                b.put_u64_le(*last_recv_incarnation);
                b.put_u64_le(*send_seq);
                b
            }
            BrokerToBroker::Forward {
                tree,
                seq,
                epoch,
                event,
            } => {
                let mut b = begin_frame(FORWARD_BODY_OFFSET + wire::event_len(event));
                b.put_u8(B2B_FORWARD);
                b.put_u32_le(tree.index() as u32);
                b.put_u64_le(*seq);
                b.put_u64_le(*epoch);
                wire::put_event(&mut b, event);
                b
            }
            BrokerToBroker::FwdAck { seq } => {
                let mut b = begin_frame(9);
                b.put_u8(B2B_FWDACK);
                b.put_u64_le(*seq);
                b
            }
            BrokerToBroker::SubAdd {
                schema,
                subscription,
                resync,
            } => return sub_add_frame(*schema, subscription, *resync),
            BrokerToBroker::SubRemove { id } => {
                let mut b = begin_frame(5);
                b.put_u8(B2B_SUBREMOVE);
                b.put_u32_le(id.raw());
                b
            }
            BrokerToBroker::Ping => {
                let mut b = begin_frame(1);
                b.put_u8(B2B_PING);
                b
            }
            BrokerToBroker::Pong => {
                let mut b = begin_frame(1);
                b.put_u8(B2B_PONG);
                b
            }
            BrokerToBroker::LinkDown { a, b: bb, ver } => {
                let mut b = begin_frame(17);
                b.put_u8(B2B_LINKDOWN);
                b.put_u32_le(a.raw());
                b.put_u32_le(bb.raw());
                b.put_u64_le(*ver);
                b
            }
            BrokerToBroker::LinkUp { a, b: bb, ver } => {
                let mut b = begin_frame(17);
                b.put_u8(B2B_LINKUP);
                b.put_u32_le(a.raw());
                b.put_u32_le(bb.raw());
                b.put_u64_le(*ver);
                b
            }
        };
        finish_frame(b)
    }

    /// Decodes a frame payload (without the length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation, unknown tags, or schema
    /// violations.
    pub fn decode(mut payload: Bytes, registry: &SchemaRegistry) -> Result<Self, ProtocolError> {
        let buf = &mut payload;
        if buf.remaining() < 1 {
            return Err(ProtocolError::Malformed("empty payload".into()));
        }
        match buf.get_u8() {
            B2B_HELLO => {
                if buf.remaining() < 36 {
                    return Err(ProtocolError::Malformed("short broker hello".into()));
                }
                Ok(BrokerToBroker::Hello {
                    broker: BrokerId::new(buf.get_u32_le()),
                    incarnation: buf.get_u64_le(),
                    last_recv: buf.get_u64_le(),
                    last_recv_incarnation: buf.get_u64_le(),
                    send_seq: buf.get_u64_le(),
                })
            }
            B2B_FORWARD => {
                if buf.remaining() < 20 {
                    return Err(ProtocolError::Malformed("short forward".into()));
                }
                let tree = tree_from_raw(buf.get_u32_le());
                let seq = buf.get_u64_le();
                let epoch = buf.get_u64_le();
                let event = wire::get_event(buf, registry)?;
                Ok(BrokerToBroker::Forward {
                    tree,
                    seq,
                    epoch,
                    event,
                })
            }
            B2B_FWDACK => {
                if buf.remaining() < 8 {
                    return Err(ProtocolError::Malformed("short fwdack".into()));
                }
                Ok(BrokerToBroker::FwdAck {
                    seq: buf.get_u64_le(),
                })
            }
            B2B_SUBADD => {
                if buf.remaining() < 5 {
                    return Err(ProtocolError::Malformed("short subadd".into()));
                }
                let schema_id = SchemaId::new(buf.get_u32_le());
                let resync = buf.get_u8() != 0;
                let schema = registry.get(schema_id).ok_or_else(|| {
                    ProtocolError::Malformed(format!("unknown schema {schema_id}"))
                })?;
                let subscription = wire::get_subscription(buf, schema)?;
                Ok(BrokerToBroker::SubAdd {
                    schema: schema_id,
                    subscription,
                    resync,
                })
            }
            B2B_SUBREMOVE => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed("short subremove".into()));
                }
                Ok(BrokerToBroker::SubRemove {
                    id: SubscriptionId::new(buf.get_u32_le()),
                })
            }
            B2B_PING => Ok(BrokerToBroker::Ping),
            B2B_PONG => Ok(BrokerToBroker::Pong),
            B2B_LINKDOWN => {
                if buf.remaining() < 16 {
                    return Err(ProtocolError::Malformed("short linkdown".into()));
                }
                Ok(BrokerToBroker::LinkDown {
                    a: BrokerId::new(buf.get_u32_le()),
                    b: BrokerId::new(buf.get_u32_le()),
                    ver: buf.get_u64_le(),
                })
            }
            B2B_LINKUP => {
                if buf.remaining() < 16 {
                    return Err(ProtocolError::Malformed("short linkup".into()));
                }
                Ok(BrokerToBroker::LinkUp {
                    a: BrokerId::new(buf.get_u32_le()),
                    b: BrokerId::new(buf.get_u32_le()),
                    ver: buf.get_u64_le(),
                })
            }
            tag => Err(ProtocolError::Malformed(format!(
                "unknown broker-to-broker tag {tag:#x}"
            ))),
        }
    }
}

/// Rebuilds a [`TreeId`] from its wire form. Tree ids are indices into the
/// shared spanning forest, which every broker derives identically from the
/// static topology.
pub(crate) fn tree_from_raw(raw: u32) -> TreeId {
    TreeId::from_index(raw as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_types::{EventSchema, SubscriberId, Value, ValueKind};

    fn registry() -> SchemaRegistry {
        let mut r = SchemaRegistry::new();
        r.register(
            EventSchema::builder("trades")
                .attribute("issue", ValueKind::Str)
                .attribute("volume", ValueKind::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        r
    }

    fn strip(frame: Bytes) -> Bytes {
        assert!(frame.len() >= 4);
        let mut f = frame;
        let len = f.get_u32_le() as usize;
        assert_eq!(len, f.remaining());
        f
    }

    #[test]
    fn client_messages_roundtrip() {
        let reg = registry();
        let schema = reg.get(SchemaId::new(0)).unwrap();
        let event = Event::from_values(schema, [Value::str("IBM"), Value::Int(5)]).unwrap();
        let messages = [
            ClientToBroker::Hello {
                client: ClientId::new(3),
                resume_from: 42,
            },
            ClientToBroker::Subscribe {
                schema: SchemaId::new(0),
                expression: "volume > 100".into(),
            },
            ClientToBroker::Unsubscribe {
                id: SubscriptionId::new(9),
            },
            ClientToBroker::Publish { event },
            ClientToBroker::Ack { seq: 7 },
            ClientToBroker::StatsRequest,
        ];
        for m in messages {
            let back = ClientToBroker::decode(strip(m.encode()), &reg).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn broker_to_client_messages_roundtrip() {
        let reg = registry();
        let schema = reg.get(SchemaId::new(0)).unwrap();
        let event = Event::from_values(schema, [Value::str("HP"), Value::Int(1)]).unwrap();
        let messages = [
            BrokerToClient::Welcome {
                client: ClientId::new(1),
                resume_from: 10,
            },
            BrokerToClient::Deliver { seq: 11, event },
            BrokerToClient::SubAck {
                id: SubscriptionId::new(2),
            },
            BrokerToClient::UnsubAck {
                id: SubscriptionId::new(2),
            },
            BrokerToClient::Error {
                message: "no such schema".into(),
            },
            BrokerToClient::Stats(NodeCounters {
                published: 1,
                forwarded: 2,
                delivered: 3,
                errors: 4,
                subscriptions: 5,
                spooled: 6,
                retransmitted: 7,
                dropped_spool_overflow: 8,
                protocol_errors: 9,
                pings_sent: 10,
                liveness_timeouts: 11,
                evicted_slow_consumers: 12,
                peer_overflow_disconnects: 13,
                match_cache_hits: 14,
                match_cache_misses: 15,
                match_cache_invalidations: 16,
                wal_appends: 17,
                wal_replayed: 18,
                snapshot_writes: 19,
                torn_records_discarded: 20,
                recoveries: 21,
                repairs_initiated: 22,
                epoch_flips: 23,
                stale_epoch_drops: 24,
                rerouted_frames: 25,
                order_rebuilds: 26,
                storage_errors: 27,
            }),
        ];
        for m in messages {
            let back = BrokerToClient::decode(strip(m.encode()), &reg).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn broker_to_broker_subscription_roundtrips() {
        let reg = registry();
        let schema = reg.get(SchemaId::new(0)).unwrap();
        let sub = Subscription::new(
            SubscriptionId::new(5),
            SubscriberId::new(BrokerId::new(1), ClientId::new(2)),
            linkcast_types::parse_predicate(schema, "volume > 10").unwrap(),
        );
        for resync in [false, true] {
            let m = BrokerToBroker::SubAdd {
                schema: SchemaId::new(0),
                subscription: sub.clone(),
                resync,
            };
            let back = BrokerToBroker::decode(strip(m.encode()), &reg).unwrap();
            assert_eq!(back, m);
        }

        let hello = BrokerToBroker::Hello {
            broker: BrokerId::new(7),
            incarnation: 0xdead_beef_0000_0001,
            last_recv: 99,
            last_recv_incarnation: 0xdead_beef_0000_0000,
            send_seq: 120,
        };
        assert_eq!(
            BrokerToBroker::decode(strip(hello.encode()), &reg).unwrap(),
            hello
        );
        let rm = BrokerToBroker::SubRemove {
            id: SubscriptionId::new(5),
        };
        assert_eq!(
            BrokerToBroker::decode(strip(rm.encode()), &reg).unwrap(),
            rm
        );
        let ack = BrokerToBroker::FwdAck { seq: 77 };
        assert_eq!(
            BrokerToBroker::decode(strip(ack.encode()), &reg).unwrap(),
            ack
        );
        for probe in [BrokerToBroker::Ping, BrokerToBroker::Pong] {
            assert_eq!(
                BrokerToBroker::decode(strip(probe.encode()), &reg).unwrap(),
                probe
            );
        }

        let event = Event::from_values(schema, [Value::str("X"), Value::Int(2)]).unwrap();
        let fwd = BrokerToBroker::Forward {
            tree: TreeId::from_index(2),
            seq: 31,
            epoch: 6,
            event,
        };
        assert_eq!(
            BrokerToBroker::decode(strip(fwd.encode()), &reg).unwrap(),
            fwd
        );

        for msg in [
            BrokerToBroker::LinkDown {
                a: BrokerId::new(1),
                b: BrokerId::new(3),
                ver: 7,
            },
            BrokerToBroker::LinkUp {
                a: BrokerId::new(1),
                b: BrokerId::new(3),
                ver: 8,
            },
        ] {
            assert_eq!(
                BrokerToBroker::decode(strip(msg.encode()), &reg).unwrap(),
                msg
            );
        }
    }

    #[test]
    fn stitched_frames_match_enum_encoding() {
        let reg = registry();
        let schema = reg.get(SchemaId::new(0)).unwrap();
        let event = Event::from_values(schema, [Value::str("IBM"), Value::Int(5)]).unwrap();
        let body = encode_event_body(&event);
        assert_eq!(
            publish_frame(&body),
            ClientToBroker::Publish {
                event: event.clone()
            }
            .encode()
        );
        assert_eq!(
            forward_frame(TreeId::from_index(3), 17, 5, &body),
            BrokerToBroker::Forward {
                tree: TreeId::from_index(3),
                seq: 17,
                epoch: 5,
                event: event.clone()
            }
            .encode()
        );
        assert_eq!(
            deliver_frame(42, &body),
            BrokerToClient::Deliver { seq: 42, event }.encode()
        );
    }

    #[test]
    fn body_offsets_locate_the_encoded_event() {
        let reg = registry();
        let schema = reg.get(SchemaId::new(0)).unwrap();
        let event = Event::from_values(schema, [Value::str("HP"), Value::Int(9)]).unwrap();
        let body = encode_event_body(&event);
        let publish = strip(
            ClientToBroker::Publish {
                event: event.clone(),
            }
            .encode(),
        );
        assert_eq!(publish.slice(PUBLISH_BODY_OFFSET..), body);
        let forward = strip(
            BrokerToBroker::Forward {
                tree: TreeId::from_index(1),
                seq: 9,
                epoch: 2,
                event,
            }
            .encode(),
        );
        assert_eq!(forward.slice(FORWARD_BODY_OFFSET..), body);
    }

    #[test]
    fn garbage_is_rejected() {
        let reg = registry();
        assert!(ClientToBroker::decode(Bytes::new(), &reg).is_err());
        assert!(ClientToBroker::decode(Bytes::from_static(&[0xff]), &reg).is_err());
        assert!(BrokerToClient::decode(Bytes::from_static(&[0x12, 1]), &reg).is_err());
        assert!(BrokerToBroker::decode(Bytes::from_static(&[0x23]), &reg).is_err());
    }

    #[test]
    fn event_body_bounds() {
        assert!(check_event_body(0).is_ok());
        assert!(check_event_body(MAX_EVENT_BODY).is_ok());
        let over = MAX_EVENT_BODY + 1;
        assert_eq!(check_event_body(over), Err(ProtocolError::Oversized(over)));
        // The headroom exists so an accepted body re-stitched with the
        // Forward routing header (and the 4-byte length prefix) still
        // fits every receiver's MAX_FRAME — otherwise the oversized
        // Forward would flap the link forever.
        const { assert!(MAX_EVENT_BODY + FORWARD_BODY_OFFSET + 4 <= MAX_FRAME) };
    }

    fn stats_payload(counters: &[u64]) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u8(B2C_STATS);
        for &c in counters {
            b.put_u64_le(c);
        }
        b.freeze()
    }

    #[test]
    fn stats_decodes_shorter_older_payloads() {
        let reg = registry();
        // An 8-counter payload, as a pre-heartbeat build would send: the
        // prefix lands in wire order, the unknown tail defaults to zero.
        match BrokerToClient::decode(stats_payload(&[1, 2, 3, 4, 5, 6, 7, 8]), &reg).unwrap() {
            BrokerToClient::Stats(c) => {
                assert_eq!(
                    (
                        c.published,
                        c.forwarded,
                        c.delivered,
                        c.errors,
                        c.subscriptions,
                        c.spooled,
                        c.retransmitted,
                        c.dropped_spool_overflow
                    ),
                    (1, 2, 3, 4, 5, 6, 7, 8)
                );
                assert_eq!(c.protocol_errors, 0);
                assert_eq!(c.match_cache_invalidations, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Degenerate but legal: a zero-counter payload is all defaults.
        match BrokerToClient::decode(stats_payload(&[]), &reg).unwrap() {
            BrokerToClient::Stats(c) => assert_eq!(c, NodeCounters::default()),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_ignores_longer_newer_payloads() {
        let reg = registry();
        // A 30-counter payload from a future build: the 27 counters this
        // build knows decode in wire order, the 3 extra are ignored.
        let counters: Vec<u64> = (1..=30).collect();
        match BrokerToClient::decode(stats_payload(&counters), &reg).unwrap() {
            BrokerToClient::Stats(c) => {
                assert_eq!(c.published, 1);
                assert_eq!(c.match_cache_invalidations, 16);
                assert_eq!(c.recoveries, 21);
                assert_eq!(c.rerouted_frames, 25);
                assert_eq!(c.order_rebuilds, 26);
                assert_eq!(c.storage_errors, 27);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_rejects_ragged_payloads() {
        let reg = registry();
        let mut b = BytesMut::new();
        b.put_u8(B2C_STATS);
        b.put_u64_le(1);
        b.put_u32_le(2); // half a counter
        let err = BrokerToClient::decode(b.freeze(), &reg).unwrap_err();
        assert!(err.to_string().contains("ragged"), "{err}");
    }
}
