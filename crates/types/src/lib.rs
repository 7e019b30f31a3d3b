//! Core data model for the `linkcast` content-based publish/subscribe system.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! - [`Value`] and [`ValueKind`]: the typed attribute values events carry.
//! - [`EventSchema`] and [`SchemaRegistry`]: information spaces, each with a
//!   fixed tuple of named, typed attributes (e.g. `[issue: string,
//!   price: dollar, volume: integer]`).
//! - [`Event`]: a published tuple of values conforming to a schema.
//! - [`Predicate`] and [`AttrTest`]: content-based subscriptions — a
//!   conjunction of per-attribute tests such as
//!   `issue = "IBM" & price < 120.00 & volume > 1000`.
//! - [`parse_predicate`]: the textual subscription language.
//! - [`Trit`] and [`TritVec`]: the three-valued (Yes/No/Maybe) link
//!   annotations at the heart of the link-matching protocol, with the
//!   *Alternative Combine* and *Parallel Combine* operators from the paper.
//! - [`wire`]: a compact, length-prefixed binary codec used by the broker
//!   prototype's transport.
//!
//! # Example
//!
//! ```
//! use linkcast_types::{EventSchema, ValueKind, Event, Value, parse_predicate};
//!
//! # fn main() -> Result<(), linkcast_types::Error> {
//! let schema = EventSchema::builder("trades")
//!     .attribute("issue", ValueKind::Str)
//!     .attribute("price", ValueKind::Dollar)
//!     .attribute("volume", ValueKind::Int)
//!     .build()?;
//!
//! let event = Event::builder(&schema)
//!     .set("issue", Value::str("IBM"))?
//!     .set("price", Value::dollar(119, 50))?
//!     .set("volume", Value::Int(3000))?
//!     .build()?;
//!
//! let sub = parse_predicate(&schema, r#"issue = "IBM" & price < 120.00 & volume > 1000"#)?;
//! assert!(sub.matches(&event));
//! # Ok(())
//! # }
//! ```

// The wire rule (root `clippy.toml`): decoders read through `wire::Reader`,
// never a raw `bytes::Buf` integer read.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod covering;
mod error;
mod event;
mod id;
mod parser;
mod predicate;
mod schema;
mod subscription;
mod trit;
mod value;
pub mod wire;

pub use error::{Error, Result};
pub use event::{Event, EventBuilder};
pub use id::{BrokerId, ClientId, EventId, LinkId, SchemaId, SubscriberId, SubscriptionId};
pub use parser::{parse_literal, parse_predicate, ParsePredicateError};
pub use predicate::{AttrTest, Predicate, PredicateBuilder, RangeLookup};
pub use schema::{AttributeDef, EventSchema, EventSchemaBuilder, SchemaRegistry};
pub use subscription::Subscription;
pub use trit::{Trit, TritTallies, TritVec};
pub use value::{Value, ValueKind};
