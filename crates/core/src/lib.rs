//! # linkcast — content-based publish/subscribe with link matching
//!
//! A Rust reproduction of *"An Efficient Multicast Protocol for
//! Content-Based Publish-Subscribe Systems"* (Banavar, Chandra, Mukherjee,
//! Nagarajarao, Strom, Sturman — ICDCS 1999), the Gryphon **link matching**
//! paper.
//!
//! Content-based subscribers ask for events by predicate
//! (`issue = "IBM" & price < 120 & volume > 1000`) rather than by
//! pre-defined subject. The hard problem in a *network* of brokers is
//! multicasting each published event to exactly the brokers and clients
//! that need it, without attaching destination lists (match-first) and
//! without sending everything everywhere (flooding). Link matching solves
//! it: every broker keeps the full subscription set in a parallel search
//! tree annotated with **trit vectors** (Yes/No/Maybe, one per outgoing
//! link) and, per event, refines a per-spanning-tree mask just enough to
//! decide which links carry the event.
//!
//! ## Crate map
//!
//! - [`NetworkBuilder`] / [`BrokerNetwork`] — the broker topology.
//! - [`SpanningForest`] / [`LinkSpace`] — distribution trees, initialization
//!   masks, and virtual links (footnote 1).
//! - [`LinkMatchEngine`] — one broker's annotated PST and the §3.3 search.
//! - [`ContentRouter`] — the protocol end-to-end over a network. Flooding,
//!   the baseline the paper measures, runs on real broker cores in
//!   `linkcast_sim` (`Simulation::flooding`).
//!
//! Re-exported: [`linkcast_types`] as [`types`] and [`linkcast_matching`]
//! as [`matching`] (schemas, predicates, trits, and the single-broker
//! matchers).
//!
//! ## Quickstart
//!
//! ```
//! use linkcast::{NetworkBuilder, RoutingFabric, ContentRouter};
//! use linkcast::types::{EventSchema, ValueKind, Value, Event, parse_predicate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three brokers in a line, a publisher at B0, a subscriber at B2.
//! let mut b = NetworkBuilder::new();
//! let brokers = b.add_brokers(3);
//! b.connect(brokers[0], brokers[1], 25.0)?;
//! b.connect(brokers[1], brokers[2], 25.0)?;
//! let alice = b.add_client(brokers[2])?;
//! let bob = b.add_client(brokers[1])?;
//! let fabric = RoutingFabric::new_all_roots(b.build()?)?;
//!
//! let schema = EventSchema::builder("trades")
//!     .attribute("issue", ValueKind::Str)
//!     .attribute("price", ValueKind::Dollar)
//!     .attribute("volume", ValueKind::Int)
//!     .build()?;
//! let mut router = ContentRouter::new(fabric, schema.clone())?;
//!
//! router.subscribe(alice, parse_predicate(&schema, r#"issue = "IBM" & price < 120.00"#)?)?;
//! router.subscribe(bob, parse_predicate(&schema, r#"volume > 5000"#)?)?;
//!
//! let event = Event::from_values(
//!     &schema,
//!     [Value::str("IBM"), Value::dollar(119, 0), Value::Int(100)],
//! )?;
//! let delivery = router.publish(brokers[0], &event)?;
//! assert_eq!(delivery.recipients, vec![alice]); // bob's volume test fails
//! # Ok(())
//! # }
//! ```

// The routing layer takes no lock: one thread owns each matcher, cache and
// scratch pool (docs/LOCK_ORDER.md).
#![deny(clippy::disallowed_types)]

mod annotate;
mod arena;
mod cache;
mod engine;
mod error;
mod order;
mod router;
mod spanning;
mod topology;

pub use arena::{ArenaSummary, ArenaView, MatchScratch, WalkEvidence};
pub use cache::MatchCache;
pub use engine::{LinkMatchEngine, RouteScratch};
pub use error::{CoreError, Result};
pub use order::{LevelReport, OrderReport};
pub use router::{ContentRouter, Delivery, HopRecord, RoutingFabric};
pub use spanning::{LinkSpace, SpanningForest, SpanningTree, TreeId};
pub use topology::{BrokerNetwork, LinkTarget, NetworkBuilder};

pub use linkcast_matching as matching;
pub use linkcast_types as types;

#[cfg(test)]
mod engine_tests;
