//! Workload generation for `linkcast` experiments.
//!
//! The paper's simulations (§4.1) drive a broker network with synthetic
//! subscriptions and events:
//!
//! - the event schema has a configurable number of attributes and values per
//!   attribute, with the leading attributes declared factored;
//! - subscriptions are random: the first attribute is non-`*` with
//!   probability 0.98, decaying geometrically (×0.85 or ×0.82) toward the
//!   last attribute; non-`*` values follow a **Zipf** distribution;
//! - "locality of interest" makes subscribers within one subtree of the
//!   topology prefer similar values while subtrees differ from each other;
//! - events carry Zipf-distributed values and arrive in a **Poisson**
//!   process at a controlled mean rate.
//!
//! This crate reproduces each of those generators. Distribution samplers
//! are implemented here directly on top of [`rand`] (the approved dependency
//! set has no `rand_distr`).

mod arrivals;
mod config;
mod decoys;
mod events;
mod locality;
mod subscriptions;
mod zipf;

pub use arrivals::{ArrivalProcess, BurstyProcess, PoissonProcess};
pub use config::WorkloadConfig;
pub use decoys::decoy_chain;
pub use events::EventGenerator;
pub use locality::RegionValueMap;
pub use subscriptions::SubscriptionGenerator;
pub use zipf::Zipf;
