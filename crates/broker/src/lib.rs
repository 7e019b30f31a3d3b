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
pub use client::{Client, ClientError};
pub use counters::{BrokerStats, NodeCounters};
pub use engine::MatchingEngine;
pub use log::{AckLog, EventLog};
pub use protocol::{
    BrokerToBroker, BrokerToClient, ClientToBroker, ProtocolError, MAX_EVENT_BODY, MAX_FRAME,
};
pub use storage::{FsStorage, PowerCut, SimStorage, Storage};
pub use tcp::TcpTransport;
pub use transport::{
    Connection, FrameBatch, FrameReader, LinkReader, LinkWriter, Listener, Polled, Transport,
};
