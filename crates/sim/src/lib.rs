//! The paper's §4.1 simulation environment, on real broker cores.
//!
//! Brokers with a service-time model, links with per-hop delays, Poisson
//! (or bursty) publishers, and overload detection ("a broker is overloaded
//! when its input message queue is growing at a rate higher than the
//! broker processor can handle"). Every broker is a `linkcast-broker`
//! core — the arena walk, `adapt_order`, spools and acks the shipped
//! broker runs — stepped in virtual time by [`linkcast_broker::sim`],
//! which charges each core step the [`CostModel`]'s `base + step × (match
//! steps) + send × (frames sent)`.
//!
//! [`Simulation::link_matching`] installs a workload's subscriptions;
//! [`Simulation::flooding`] is the baseline as a workload, every client
//! subscribed to everything and filtering for itself. Chart 1 (saturation
//! publish rate vs. subscription count, per protocol) falls out of
//! [`find_saturation_rate`].
//!
//! The [`topology39`] module builds the exact Figure 6 network: three
//! 13-broker trees with interconnected roots, lateral links, 65/25/10/1 ms
//! hop delays, ten subscribing clients per broker, and publishers P1–P3.

mod cluster;
mod config;
mod metrics;
mod saturation;
pub mod topology39;

pub use cluster::{publications, Publication, Publisher, Simulation};
pub use config::{ArrivalKind, SimConfig, OVERLOAD_BACKLOG};
pub use linkcast_broker::sim::CostModel;
pub use metrics::{BrokerLoad, SimReport};
pub use saturation::find_saturation_rate;
