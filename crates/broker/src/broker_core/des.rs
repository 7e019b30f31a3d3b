//! The models' harness over the simulator ([`super::sim`]): small seeded
//! clusters serving one `ticks(n: int)` space, and the seeds they run.

use std::sync::Arc;
use std::time::Duration;

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_types::{Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub(crate) use super::sim::{Drawn, Sim, Spec};

mod flap;
mod model;

/// The seed `SIMNET_SEED` names, to replay one run.
pub(crate) fn replay_seed() -> Option<u64> {
    std::env::var("SIMNET_SEED").ok()?.trim().parse().ok()
}

/// The seeds a model runs: [`replay_seed`] alone if set; otherwise a few
/// in a debug build and CI's eight in release.
pub(crate) fn seeds() -> Vec<u64> {
    match replay_seed() {
        Some(seed) => vec![seed],
        None if cfg!(debug_assertions) => vec![1, 7, 42],
        None => vec![1, 2, 3, 4, 5, 7, 42, 1234],
    }
}

/// A deterministic schedule source (64-bit LCG, Knuth's constants).
pub(crate) struct Lcg(u64);

impl Lcg {
    pub(crate) fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493))
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 16) % n
    }
}

/// The one-schema registry the simulated clusters serve: `ticks(n: int)`.
pub(crate) fn ticks() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    let schema = EventSchema::builder("ticks")
        .attribute("n", ValueKind::Int)
        .build()
        .unwrap();
    r.register(schema).unwrap();
    Arc::new(r)
}

/// The `ticks` event `n`.
pub(crate) fn tick(registry: &SchemaRegistry, n: i64) -> Event {
    let schema = registry.get(SchemaId::new(0)).unwrap();
    Event::from_values(schema, [Value::Int(n)]).unwrap()
}

impl Spec {
    /// `brokers` brokers serving `ticks` over `edges` (`(a, b)`, `a < b`:
    /// `b` dials), each at a seeded 1–4 ms delay with 3 ms of jitter;
    /// clients homed at `clients`; no storage.
    pub(crate) fn new(
        seed: u64,
        brokers: usize,
        edges: &[(usize, usize)],
        clients: &[usize],
    ) -> Spec {
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(brokers);
        for &(x, y) in edges {
            b.connect(ids[x], ids[y], 5.0).unwrap();
        }
        for &home in clients {
            b.add_client(ids[home]).unwrap();
        }
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let jitter = Duration::from_millis(3);
        let edges = (edges.iter())
            .map(|&(x, y)| (x, y, Duration::from_millis(rng.random_range(1..=4)), jitter))
            .collect();
        Spec {
            seed,
            fabric,
            edges,
            rng,
            registry: ticks(),
            durable: false,
        }
    }
}
