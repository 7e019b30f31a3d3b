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
//! with common prefixes. It carries the paper's optimizations: *factoring*
//! (§2.1.1) of the attributes the schema declares factored, *trivial test
//! elimination* (§2.1.2), which every walk applies, and a configurable
//! attribute order. [`MatchStats::skipped`] counts what elimination saved,
//! so one walk reports its cost with and without it. The chart baselines
//! (a linear scan and Hanson et al.'s gating-test matcher) live in the
//! bench crate.
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

mod dot;
mod matcher;
mod pst;
mod stats;

pub use matcher::{Matcher, MatcherError};
pub use pst::{
    MutationReport, NodeId, NodeRef, OrderPolicy, PathReport, Pst, PstOptions, PstSummary,
};
pub use stats::MatchStats;
