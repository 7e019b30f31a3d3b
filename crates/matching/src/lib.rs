//! Matching engines for content-based subscriptions.
//!
//! This crate implements the single-broker matching problem of the paper's
//! §2: given an event and a (large) set of subscriptions, find every
//! subscription whose predicate the event satisfies.
//!
//! [`Pst`] is the paper's **parallel search tree**, behind the [`Matcher`]
//! trait: subscriptions are sorted into a tree in which each level tests
//! one attribute and each subscription is a root-to-leaf path; matching
//! follows all satisfied paths at once, sharing work across subscriptions
//! with common prefixes. It supports the paper's optimizations: *factoring*
//! (§2.1.1), *trivial test elimination* (§2.1.2), and configurable
//! attribute ordering (fewest don't-cares near the root). [`Psg`] compiles
//! a tree into the §2.1 search graph, and [`compact_subscriptions`] drops
//! subscriptions another of the same subscriber covers. The chart
//! baselines (a linear scan and Hanson et al.'s gating-test matcher) live
//! in the bench crate.
//!
//! # Example
//!
//! ```
//! use linkcast_types::{EventSchema, ValueKind, Value, Event, Subscription,
//!     SubscriptionId, SubscriberId, BrokerId, ClientId, parse_predicate};
//! use linkcast_matching::{Matcher, Pst, PstOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = EventSchema::builder("trades")
//!     .attribute("issue", ValueKind::Str)
//!     .attribute("price", ValueKind::Dollar)
//!     .attribute("volume", ValueKind::Int)
//!     .build()?;
//!
//! let mut pst = Pst::new(schema.clone(), PstOptions::default())?;
//! let pred = parse_predicate(&schema, r#"issue = "IBM" & volume > 1000"#)?;
//! pst.insert(Subscription::new(
//!     SubscriptionId::new(0),
//!     SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
//!     pred,
//! ))?;
//!
//! let event = Event::from_values(
//!     &schema,
//!     [Value::str("IBM"), Value::dollar(99, 0), Value::Int(5000)],
//! )?;
//! assert_eq!(pst.matches(&event), vec![SubscriptionId::new(0)]);
//! # Ok(())
//! # }
//! ```

mod compact;
mod dot;
mod matcher;
mod psg;
mod pst;
mod stats;

pub use compact::compact_subscriptions;
pub use matcher::{Matcher, MatcherError};
pub use psg::Psg;
pub use pst::{
    MutationReport, NodeId, NodeRef, OrderPolicy, PathReport, Pst, PstOptions, PstSummary,
};
pub use stats::MatchStats;
