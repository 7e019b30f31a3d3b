//! The broker-node prototype of the paper's §4.2 (Fig. 7), in Rust.
//!
//! Each broker node consists of:
//!
//! - a **matching engine** (subscription manager + event parser) wrapping a
//!   per-information-space [`LinkMatchEngine`](linkcast::LinkMatchEngine);
//! - a **client protocol** that assigns per-client sequence numbers, keeps
//!   an **event log** per client so that "once a client re-connects after a
//!   failure, the client protocol object delivers the events received while
//!   the client was dis-connected", with a periodic **garbage collector**
//!   trimming acknowledged entries;
//! - a **broker protocol** that floods subscriptions to every broker and
//!   forwards published events along spanning-tree links chosen by link
//!   matching;
//! - a **connection manager** tracking client and neighbor-broker
//!   connections;
//! - a **transport** that "implements an asynchronous send operation by
//!   maintaining a set of outgoing queues, one per connection", drained by
//!   "a pool of sending threads".
//!
//! The paper's prototype is Java over TCP/IP; this one is OS threads +
//! blocking TCP (`std::net`) with `crossbeam` channels — no async runtime,
//! matching the 1999 design faithfully.
//!
//! # Example
//!
//! See [`BrokerNode`] and [`Client`] for a runnable two-broker setup, and
//! the `tcp_cluster` example for a full network.

// One broker process runs the matching engine, the client protocol and the
// broker protocol (paper Fig. 7), so a panic on one frame stops delivery to
// every subscriber downstream: the shipped code neither unwraps nor indexes
// nor panics. Test code is exempt (the root `clippy.toml`); a waiver is an
// `#[expect(clippy::…, reason = "…")]` on the smallest item that needs it.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]
// Every lock is a leaf: a private field of one small type whose methods are
// the only code that takes it (docs/LOCK_ORDER.md). Each carries an
// `#[expect(clippy::disallowed_types, reason = "leaf: …")]`, so a lock
// declared anywhere else fails here, and one deleted leaves a stale expect.
#![deny(clippy::disallowed_types)]
// The protocol the simulator steps in virtual time is handed `now`: only
// functions of the shell modules that own threads and sockets (`broker`,
// `client`, `transport`, `outbox`) read a clock, each under an `#[expect]`.
// Tests pick their own base instant. The same lint holds the wire rule:
// every decoder reads through `linkcast_types::wire::Reader`.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

/// Unit tests pin allocation counts where the subject is not public (the
/// outbox's fan-out); counting is per thread and costs an increment.
#[cfg(all(test, not(miri)))]
#[global_allocator]
static ALLOC: linkcast_alloc_count::CountingAllocator = linkcast_alloc_count::CountingAllocator;

mod broker;
mod broker_core;
mod client;
mod control;
mod counters;
#[cfg(test)]
mod decode_fuzz;
mod engine;
mod link;
mod log;
mod outbox;
mod protocol;
mod repair;
mod storage;
mod tcp;
mod transport;

pub use broker::{BrokerConfig, BrokerNode, LocalConn};
pub use broker_core::sim;
pub use client::{Client, ClientError};
pub use counters::{BrokerStats, NodeCounters};
pub use engine::MatchingEngine;
pub use log::{AckLog, EventLog};
pub use protocol::{
    BrokerToBroker, BrokerToClient, ClientToBroker, FrameTag, ProtocolError, MAX_EVENT_BODY,
    MAX_FRAME,
};
pub use storage::{FsStorage, PowerCut, SimStorage, Storage};
pub use tcp::TcpTransport;
pub use transport::{
    Connection, FrameBatch, FrameReader, LinkReader, LinkWriter, Listener, Polled, Transport,
};
