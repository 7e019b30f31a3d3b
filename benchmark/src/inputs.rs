//! Everything a run's inputs are made of, as pure functions of `--seed`:
//! the information space, the published volume sequence, the decoy
//! predicates and the four workload specifications. The brokers receive
//! only the generated inputs, never the seed.

use std::sync::Arc;

use linkcast_types::{Event, EventSchema, SchemaRegistry, Value, ValueKind};

/// Index of the `volume` attribute in the `bench` schema.
pub const VOLUME_ATTR: usize = 1;
/// Index of the `ts` attribute: the event's due-time stamp. No
/// subscription ever tests it, so stamping perturbs neither the matching
/// walk nor the match-cache key (which covers tested attributes only).
pub const TS_ATTR: usize = 8;
/// Decoy subscriber clients, spread round-robin over the three brokers.
pub const DECOY_CLIENTS: usize = 96;
/// Churn chains kept live by the `churn` workload's churn client.
pub const CHURN_LIVE: usize = 8;
/// Length of the cycled volume sequence: longer than any run publishes
/// at `churn`'s pace, so a run averages the cache hit ratio over thousands
/// of distinct 64-event stretches instead of replaying the same few (with
/// a 4096-event cycle the hit ratio, and with it `churn`'s cost, moved
/// ±13 % with the seed alone).
pub const VOLUME_CYCLE: usize = 1 << 17;
/// Distinct volumes of the Zipf sequence: small enough that the hot set
/// fits the match cache many times over.
pub const ZIPF_DOMAIN: u64 = 10;

/// One workload: which table the brokers carry, what the publisher sends
/// and how hard. `window`, `rate` and `burst` are fixed constants, never
/// derived from a measured run, so two runs always offer the same load.
/// Against the closed-loop goodput this commit reaches on the 2-core
/// reference host, the open-loop rates are: `relay` 20 000 of 90k-150k
/// (about a sixth), `match` 400 of 0.8k-1.3k (about 40 %), `durable`
/// 20 000 of 39k-55k (about 40 %), `churn` 1200 of 5k-8k (about a fifth).
/// Every one leaves the slowest quarter of an hour seen on that host room
/// to sustain it, which the oracle requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Never-matching deep-chain decoy subscriptions in the table.
    pub decoys: usize,
    /// `BrokerConfig::match_cache_cap` (0 = cache off).
    pub cache_cap: usize,
    /// One `FsStorage` WAL per broker at `BrokerConfig`'s defaults
    /// (`wal_sync = true`, a snapshot per 256 records).
    pub durable: bool,
    /// Zipf-skewed volumes (events recur) instead of all-distinct ones.
    pub zipf: bool,
    /// One unsubscribe/subscribe pair per this many deliveries (0 = none).
    pub churn_every: u64,
    /// Closed loop: events kept in flight (`W`).
    pub window: u64,
    /// Open loop: offered events per second (`R`).
    pub rate: u64,
    /// Open loop: events per burst (`B`), one burst every `B/R` seconds.
    pub burst: u64,
}

/// The four workloads, in the order the default command runs them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "relay",
        decoys: 0,
        cache_cap: 0,
        durable: false,
        zipf: false,
        churn_every: 0,
        window: 1024,
        rate: 20_000,
        burst: 20,
    },
    Spec {
        name: "match",
        decoys: 2048,
        cache_cap: 0,
        durable: false,
        zipf: false,
        churn_every: 0,
        window: 256,
        rate: 400,
        burst: 1,
    },
    Spec {
        name: "durable",
        decoys: 0,
        cache_cap: 0,
        durable: true,
        zipf: false,
        churn_every: 0,
        window: 256,
        rate: 20_000,
        burst: 20,
    },
    Spec {
        name: "churn",
        decoys: 2048,
        cache_cap: 1024,
        durable: false,
        zipf: true,
        churn_every: 64,
        window: 256,
        rate: 1200,
        burst: 1,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// splitmix64: small, seedable, and good enough for permutations.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded permutation of `0..VOLUME_CYCLE`: every event of a cycle
/// carries a distinct volume, so a result cache could never help.
pub fn distinct_volumes(seed: u64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..VOLUME_CYCLE as i64).collect();
    let mut rng = Rng::new(seed ^ 0x766f_6c75_6d65);
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// A seeded Zipf(`ZIPF_DOMAIN`) draw of `VOLUME_CYCLE` volumes: value `k`
/// has weight `1/(k+1)`, so a handful of hot values dominate.
pub fn zipf_volumes(seed: u64) -> Vec<i64> {
    let weights: Vec<f64> = (0..ZIPF_DOMAIN).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng::new(seed ^ 0x7a69_7066);
    (0..VOLUME_CYCLE)
        .map(|_| {
            let mut u = rng.next_f64() * total;
            for (k, w) in weights.iter().enumerate() {
                if u < *w {
                    return k as i64;
                }
                u -= w;
            }
            ZIPF_DOMAIN as i64 - 1
        })
        .collect()
}

/// The volume sequence a workload publishes, cycled.
pub fn volumes(spec: &Spec, seed: u64) -> Vec<i64> {
    if spec.zipf {
        zipf_volumes(seed)
    } else {
        distinct_volumes(seed)
    }
}

/// Seed-derived offset added to every decoy's index before its constants
/// are computed: different seeds install different constants, the same
/// tree shape.
pub fn decoy_base(seed: u64) -> u64 {
    1 + Rng::new(seed ^ 0x0064_6563_6f79).next_u64() % 10_000
}

/// The `j`-th decoy predicate (`decoy_chain` of
/// `crates/bench/benches/broker_pipeline.rs`): six range tests every
/// published event satisfies — with per-chain-distinct constants, so
/// factoring cannot merge chains — and a seventh none does. The
/// schema-order PST tests `volume` first and `a6` last, so the walk
/// descends the whole chain before it can refine the subscriber's link
/// to No.
pub fn decoy_chain(j: u64) -> String {
    let mut p = format!("volume >= -{j} & ");
    for k in 1..=5u64 {
        p.push_str(&format!("a{k} >= -{} & ", 7 * j + k));
    }
    p.push_str(&format!("a6 >= {}", 100_000 + j));
    p
}

/// The single information space: `issue, volume, a1..a6, ts`.
pub fn registry() -> Arc<SchemaRegistry> {
    let mut b = EventSchema::builder("bench")
        .attribute("issue", ValueKind::Str)
        .attribute("volume", ValueKind::Int);
    for k in 1..=6 {
        b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
    }
    let schema = b
        .attribute("ts", ValueKind::Int)
        .build()
        .expect("the bench schema is well-formed");
    let mut r = SchemaRegistry::new();
    r.register(schema).expect("a fresh registry accepts it");
    Arc::new(r)
}

/// Builds published events without re-allocating the constant `issue`.
#[derive(Debug, Clone)]
pub struct EventFactory {
    schema: EventSchema,
    issue: Value,
}

impl EventFactory {
    /// A factory over `registry`'s `bench` space.
    pub fn new(registry: &SchemaRegistry) -> Self {
        EventFactory {
            schema: registry
                .get_by_name("bench")
                .expect("registry() registered it")
                .clone(),
            issue: Value::str("IBM"),
        }
    }

    /// The `bench` schema.
    pub fn schema(&self) -> &EventSchema {
        &self.schema
    }

    /// One event: `a1..a6 = 1..6` satisfy every decoy's first six tests
    /// and fail its seventh.
    pub fn event(&self, volume: i64, ts: i64) -> Event {
        Event::from_values(
            &self.schema,
            [
                self.issue.clone(),
                Value::Int(volume),
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
                Value::Int(5),
                Value::Int(6),
                Value::Int(ts),
            ],
        )
        .expect("values match the bench schema")
    }
}

/// The integer at `attr`, or `None` if the event is not a `bench` event.
pub fn int_attr(event: &Event, attr: usize) -> Option<i64> {
    match event.value(attr) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

/// Order-sensitive checksum step over `(ts, volume)`: publisher and
/// receiver fold the same function, so equal sums mean the same events in
/// the same order.
pub fn fold_checksum(sum: u64, ts: i64, volume: i64) -> u64 {
    (sum.rotate_left(7) ^ ts as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(volume as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [1, 2, 77] {
            assert_eq!(distinct_volumes(seed), distinct_volumes(seed));
            assert_eq!(zipf_volumes(seed), zipf_volumes(seed));
            assert_eq!(decoy_base(seed), decoy_base(seed));
        }
        assert_ne!(distinct_volumes(1), distinct_volumes(2));
        assert_ne!(zipf_volumes(1), zipf_volumes(2));
        assert_ne!(decoy_base(1), decoy_base(2));
    }

    #[test]
    fn distinct_volumes_are_a_permutation() {
        let mut v = distinct_volumes(5);
        v.sort_unstable();
        assert_eq!(v, (0..VOLUME_CYCLE as i64).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_domain() {
        let v = zipf_volumes(3);
        assert!(v.iter().all(|&x| (0..ZIPF_DOMAIN as i64).contains(&x)));
        let zeros = v.iter().filter(|&&x| x == 0).count();
        let tail = v.iter().filter(|&&x| x == ZIPF_DOMAIN as i64 - 1).count();
        assert!(zeros > 5 * tail.max(1), "zeros={zeros} tail={tail}");
    }

    #[test]
    fn decoys_parse_and_never_match() {
        let registry = registry();
        let factory = EventFactory::new(&registry);
        let event = factory.event(17, 123);
        for j in [1, 2048, decoy_base(1) + 2048] {
            let p = linkcast_types::parse_predicate(factory.schema(), &decoy_chain(j)).unwrap();
            assert!(!p.matches(&event), "decoy {j} matched");
        }
        assert_eq!(int_attr(&event, TS_ATTR), Some(123));
        assert_eq!(int_attr(&event, VOLUME_ATTR), Some(17));
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = fold_checksum(fold_checksum(0, 1, 5), 2, 6);
        let b = fold_checksum(fold_checksum(0, 2, 6), 1, 5);
        assert_ne!(a, b);
    }
}
