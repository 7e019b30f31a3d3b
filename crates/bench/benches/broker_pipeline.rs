//! End-to-end bench of the pipelined broker dataflow: events/sec through a
//! three-broker TCP chain (A - B - C) with several subscribers per broker
//! and four information spaces. The "before" leg runs the seed dataflow
//! (`BrokerConfig::seed_dataflow`: one event serialization and one write
//! syscall per outgoing frame, matching inline on the engine thread); the
//! "after" legs run the pipelined dataflow (encode-once stitched frames,
//! batched vectored writes, schema-sharded matching workers), the arena-
//! flattened matcher (`BrokerConfig::match_arena`: contiguous index-based
//! walk, scratch-pool masks), and the arena plus the generation-invalidated
//! match-result cache (`BrokerConfig::match_cache_cap`) on a repeated-
//! content workload whose Zipf-skewed volumes make events genuinely recur.
//! A heartbeat leg re-runs the pipelined dataflow with an aggressive 50 ms
//! interval: the A/B against the default leg records what the liveness
//! machinery costs at saturation (expected: well under 1% — busy links
//! never go idle, so the sweep only reads a clock). A durability leg
//! re-runs the arena dataflow with an `FsStorage` WAL on every broker
//! (fsync-per-commit, the DESIGN.md §14 default); its A/B against `arena`
//! is recorded as `wal_overhead_pct`, tracking the fsync path's cost.
//! Results are recorded as a baseline in `BENCH_broker_pipeline.json` at
//! the repository root.
//!
//! Every cluster also carries a decoy subscription table sized so the
//! per-event matching walk does paper-scale work — without it the chain is
//! purely syscall-bound and any matcher looks the same. Each decoy is a
//! deep conjunction chain (`volume >= -j & a1 >= .. & .. & a6 >= 100000+j`)
//! with per-decoy-distinct constants, issued from one of many dedicated
//! decoy clients. Distinct constants keep factoring from merging the
//! chains, distinct subscribers keep the annotation-based pruning from
//! short-circuiting them (a link a walk has already proven stays pruned;
//! a link it has never seen must be refined), and the final always-false
//! test means no decoy ever delivers — so the walk descends thousands of
//! nodes per event while the delivered link set, and therefore delivery
//! accounting, is identical across legs. This is the regime the paper's
//! Chart 3 measures (cost proportional to undecided links times depth) and
//! precisely what the arena flattening and the result cache target.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client, FsStorage, Storage};
use linkcast_types::{ClientId, Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};
use linkcast_workload::decoy_chain;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Information spaces; with `match_shards = 4` each gets its own worker.
const SPACES: usize = 4;
/// Subscriber clients per broker; each watches every space, so every event
/// fans out to `BROKERS * SUBSCRIBERS_PER_BROKER` client links.
const SUBSCRIBERS_PER_BROKER: usize = 6;
/// Events published per measured batch, round-robin over the spaces.
const BATCH: u64 = 200;
/// Brokers in the chain.
const BROKERS: u64 = 3;
/// Deep-chain decoy subscriptions per space: each satisfies six range
/// tests (forcing six node descents) and fails the seventh, so the walk
/// visits ~7 nodes per decoy per event before refining that subscriber's
/// link to No — sized so matching, not syscalls, dominates the boxed
/// engine's per-event cost.
const DECOY_CHAINS: usize = 1024;
/// Dedicated clients the decoy chains are spread over. Distinct
/// subscribers are what make the chains expensive: the walk prunes
/// subtrees whose links it has already decided, so piling decoys onto one
/// client would collapse to a single refinement.
const DECOY_CLIENTS: usize = 96;
/// Distinct volumes in the Zipf workload — small enough that the hot
/// working set fits any reasonable cache capacity.
const ZIPF_DOMAIN: u64 = 64;

fn registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    for i in 0..SPACES {
        let mut b = EventSchema::builder(format!("space{i}"))
            .attribute("issue", ValueKind::Str)
            .attribute("volume", ValueKind::Int);
        for k in 1..=6 {
            b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
        }
        r.register(b.build().unwrap()).unwrap();
    }
    Arc::new(r)
}

/// Which volume sequence a cluster publishes.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// Every event in a batch carries a distinct volume (0..BATCH): the
    /// mixed-content regime where a result cache cannot help.
    Mixed,
    /// Volumes drawn Zipf-like from a small domain: the repeated-content
    /// regime the match cache targets.
    Zipf,
}

impl Workload {
    fn volumes(self) -> Vec<i64> {
        match self {
            Workload::Mixed => (0..BATCH as i64).collect(),
            Workload::Zipf => zipf_volumes(ZIPF_DOMAIN, 1024, 0x5eed_cafe),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::Zipf => "zipf",
        }
    }
}

/// Zipf-skewed volumes: value `k` is drawn with probability proportional
/// to 1/(k+1), so a handful of hot values dominate the stream. A fixed
/// LCG keeps the sequence identical across runs and legs.
fn zipf_volumes(domain: u64, len: usize, mut seed: u64) -> Vec<i64> {
    let weights: Vec<f64> = (0..domain).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut u = (seed >> 11) as f64 / (1u64 << 53) as f64 * total;
            for (k, w) in weights.iter().enumerate() {
                if u < *w {
                    return k as i64;
                }
                u -= w;
            }
            domain as i64 - 1
        })
        .collect()
}

/// One measured configuration.
#[derive(Clone, Copy)]
struct LegSpec {
    name: &'static str,
    seed_dataflow: bool,
    match_shards: usize,
    match_threads: usize,
    heartbeat_ms: u64,
    match_arena: bool,
    match_cache_cap: usize,
    workload: Workload,
    /// Deep-chain decoy subscriptions per space (0 = no decoy table). The
    /// measured legs all carry [`DECOY_CHAINS`] so their A/Bs are paired
    /// on identical matching work; the heartbeat A/B cluster runs without
    /// one because it measures the liveness machinery, not the matcher,
    /// and needs batches fast enough for a sub-1% signal to survive noise.
    decoy_chains: usize,
    /// Give every broker an `FsStorage` WAL (fsync-per-commit, the
    /// DESIGN.md §14 default): the A/B against the matching leg without
    /// one is the durability layer's whole cost.
    durable: bool,
}

struct Cluster {
    nodes: Vec<BrokerNode>,
    publisher: Client,
    /// Total events received across all subscriber threads.
    delivered: Arc<AtomicU64>,
    /// Events received by decoy clients — must stay zero (no decoy chain
    /// matches a published event).
    decoy_delivered: Arc<AtomicU64>,
    /// Deliveries already claimed by finished iterations.
    claimed: u64,
    stop: Arc<AtomicBool>,
    receivers: Vec<std::thread::JoinHandle<()>>,
    /// The published volume sequence, cycled by `cursor`.
    volumes: Vec<i64>,
    cursor: usize,
    /// WAL directories to remove at shutdown (durability leg only).
    wal_dirs: Vec<std::path::PathBuf>,
}

impl Cluster {
    fn start(spec: LegSpec, heartbeat_interval: Duration) -> Cluster {
        let registry = registry();
        let mut net = NetworkBuilder::new();
        let brokers: Vec<_> = (0..BROKERS).map(|_| net.add_broker()).collect();
        for pair in brokers.windows(2) {
            net.connect(pair[0], pair[1], 5.0).unwrap();
        }
        let publisher_id = net.add_client(brokers[0]).unwrap();
        let mut subscriber_ids: Vec<(usize, ClientId)> = Vec::new();
        for (i, &broker) in brokers.iter().enumerate() {
            for _ in 0..SUBSCRIBERS_PER_BROKER {
                subscriber_ids.push((i, net.add_client(broker).unwrap()));
            }
        }
        let decoy_client_count = if spec.decoy_chains == 0 {
            0
        } else {
            DECOY_CLIENTS
        };
        let decoy_ids: Vec<(usize, ClientId)> = (0..decoy_client_count)
            .map(|i| {
                let b = i % brokers.len();
                (b, net.add_client(brokers[b]).unwrap())
            })
            .collect();
        let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();

        // WAL directories for the durability leg: one per broker under the
        // OS temp dir, removed at shutdown.
        let wal_dirs: Vec<std::path::PathBuf> = if spec.durable {
            (0..brokers.len())
                .map(|i| {
                    std::env::temp_dir().join(format!(
                        "linkcast_bench_wal_{}_{}_{i}",
                        spec.name,
                        std::process::id()
                    ))
                })
                .collect()
        } else {
            Vec::new()
        };
        for dir in &wal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        let nodes: Vec<BrokerNode> = brokers
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mut config = BrokerConfig::localhost(b, fabric.clone(), Arc::clone(&registry));
                config.seed_dataflow = spec.seed_dataflow;
                config.match_shards = spec.match_shards;
                config.match_threads = spec.match_threads;
                config.match_arena = spec.match_arena;
                config.match_cache_cap = spec.match_cache_cap;
                config.heartbeat_interval = heartbeat_interval;
                if spec.durable {
                    config.storage =
                        Some(Arc::new(FsStorage::open(&wal_dirs[i]).unwrap()) as Arc<dyn Storage>);
                }
                BrokerNode::start(config).unwrap()
            })
            .collect();
        for (i, pair) in brokers.windows(2).enumerate() {
            nodes[i].connect_to_persistent(pair[1], nodes[i + 1].addr());
        }

        // Every subscriber watches every space, so each event produces one
        // Deliver frame per subscriber at every broker — the fan-out the
        // dataflow changes target.
        let mut clients: Vec<Client> = subscriber_ids
            .iter()
            .map(|&(i, id)| Client::connect(nodes[i].addr(), id, 0, Arc::clone(&registry)).unwrap())
            .collect();
        let mut total_subs = 0usize;
        for client in &mut clients {
            for space in 0..SPACES {
                client
                    .subscribe(SchemaId::new(space as u32), "volume >= 0")
                    .unwrap();
                total_subs += 1;
            }
        }
        // The decoy table: deep conjunction chains spread over dedicated
        // decoy clients (subscriptions flood to every broker). No chain
        // ever matches a published event, so the delivered link set — and
        // therefore delivery accounting — is unchanged across legs.
        let mut decoy_clients: Vec<Client> = decoy_ids
            .iter()
            .map(|&(i, id)| Client::connect(nodes[i].addr(), id, 0, Arc::clone(&registry)).unwrap())
            .collect();
        for space in 0..SPACES {
            let schema = SchemaId::new(space as u32);
            for j in 1..=spec.decoy_chains {
                let slot = j % decoy_client_count.max(1);
                decoy_clients[slot]
                    .subscribe(schema, &decoy_chain(j as u64))
                    .unwrap();
                total_subs += 1;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        for node in &nodes {
            while node.stats().subscriptions < total_subs as u64 {
                assert!(Instant::now() < deadline, "subscription flood stalled");
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        let delivered = Arc::new(AtomicU64::new(0));
        let decoy_delivered = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        // Decoy clients join the receive pool too (so their links answer
        // liveness pings), but tally separately: a nonzero decoy count
        // would mean a decoy chain matched and the legs are no longer
        // delivery-equivalent.
        let receivers = clients
            .into_iter()
            .map(|c| (c, Arc::clone(&delivered)))
            .chain(
                decoy_clients
                    .into_iter()
                    .map(|c| (c, Arc::clone(&decoy_delivered))),
            )
            .map(|(mut client, tally)| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || loop {
                    match client.recv(Duration::from_millis(100)) {
                        Ok(_) => {
                            tally.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) if stop.load(Ordering::Relaxed) => return,
                        Err(_) => {}
                    }
                })
            })
            .collect();

        let publisher =
            Client::connect(nodes[0].addr(), publisher_id, 0, Arc::clone(&registry)).unwrap();
        Cluster {
            nodes,
            publisher,
            delivered,
            decoy_delivered,
            claimed: 0,
            stop,
            receivers,
            volumes: spec.workload.volumes(),
            cursor: 0,
            wal_dirs,
        }
    }

    /// One measured batch: publish BATCH events from the chain head, then
    /// wait until every subscriber at every broker has received its copy.
    fn pump_batch(&mut self, registry: &SchemaRegistry) {
        for i in 0..BATCH {
            let schema = registry
                .get(SchemaId::new((i as u32) % SPACES as u32))
                .unwrap();
            let volume = self.volumes[self.cursor];
            self.cursor = (self.cursor + 1) % self.volumes.len();
            let event = Event::from_values(
                schema,
                [
                    Value::str("IBM"),
                    Value::Int(volume),
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(3),
                    Value::Int(4),
                    Value::Int(5),
                    Value::Int(6),
                ],
            )
            .unwrap();
            self.publisher.publish(&event).unwrap();
        }
        self.claimed += BATCH * BROKERS * SUBSCRIBERS_PER_BROKER as u64;
        while self.delivered.load(Ordering::Relaxed) < self.claimed {
            std::thread::yield_now();
        }
    }

    /// Stops the cluster, returning the summed reliability and match-cache
    /// counters across all brokers so the bench records the spool layer's,
    /// the liveness/overload layer's, and the result cache's footprint.
    fn shutdown(self) -> Counters {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.receivers {
            handle.join().unwrap();
        }
        assert_eq!(
            self.decoy_delivered.load(Ordering::Relaxed),
            0,
            "a decoy chain matched a published event"
        );
        let mut totals = Counters::default();
        for node in &self.nodes {
            let stats = node.stats();
            totals.spooled += stats.spooled;
            totals.retransmitted += stats.retransmitted;
            totals.dropped_spool_overflow += stats.dropped_spool_overflow;
            totals.pings_sent += stats.pings_sent;
            totals.liveness_timeouts += stats.liveness_timeouts;
            totals.evicted_slow_consumers += stats.evicted_slow_consumers;
            totals.peer_overflow_disconnects += stats.peer_overflow_disconnects;
            totals.match_cache_hits += stats.match_cache_hits;
            totals.match_cache_misses += stats.match_cache_misses;
            totals.match_cache_invalidations += stats.match_cache_invalidations;
            totals.wal_appends += stats.wal_appends;
            totals.snapshot_writes += stats.snapshot_writes;
        }
        for node in self.nodes {
            node.shutdown();
        }
        for dir in &self.wal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        totals
    }
}

/// Cluster-wide counters recorded alongside the throughput.
#[derive(Default)]
struct Counters {
    spooled: u64,
    retransmitted: u64,
    dropped_spool_overflow: u64,
    pings_sent: u64,
    liveness_timeouts: u64,
    evicted_slow_consumers: u64,
    peer_overflow_disconnects: u64,
    match_cache_hits: u64,
    match_cache_misses: u64,
    match_cache_invalidations: u64,
    wal_appends: u64,
    snapshot_writes: u64,
}

/// One measured configuration's outcome.
struct Leg {
    spec: LegSpec,
    median_ns: f64,
    events_per_sec: f64,
    counters: Counters,
}

/// The liveness machinery's cost at saturation, measured as a paired
/// single-cluster A/B: the *same* running cluster alternates between
/// heartbeats effectively off (one-hour interval) and an aggressive 50 ms
/// sweep via `set_heartbeat_interval`, so neither machine-wide drift nor
/// per-cluster placement luck (ports, thread pinning) can masquerade as
/// heartbeat cost. Each phase starts with a short idle gap — that is when
/// a 50 ms sweep actually pings the quiet links — and then times a burst
/// of batches. Returns `(overhead_pct, measured_batches_per_side)`;
/// positive = heartbeats cost throughput.
fn heartbeat_overhead(registry: &SchemaRegistry) -> (f64, usize) {
    const ROUNDS: usize = 40;
    /// One batch is ~10 ms of work — small enough that scheduler jitter
    /// swamps a sub-1% signal; timing several per sample amortizes it.
    const BATCHES_PER_ROUND: usize = 15;
    /// Long enough that every broker link goes idle past the 50 ms
    /// interval and gets pinged before the timed burst begins.
    const IDLE_GAP: Duration = Duration::from_millis(150);
    let off = Duration::from_secs(3600);
    let on = Duration::from_millis(50);
    let mut cluster = Cluster::start(
        LegSpec {
            name: "heartbeat_ab",
            seed_dataflow: false,
            match_shards: 4,
            match_threads: 1,
            heartbeat_ms: 0,
            match_arena: false,
            match_cache_cap: 0,
            workload: Workload::Mixed,
            decoy_chains: 0,
            durable: false,
        },
        off,
    );
    for _ in 0..3 {
        cluster.pump_batch(registry);
    }
    // Rounds alternate phases adjacent in time (order swapping each
    // round, so a warmed-cache advantage for whichever phase runs second
    // cancels). The summary compares low percentiles of the two burst
    // distributions rather than medians: subscriber receive loops park in
    // 100 ms poll timeouts, so individual bursts carry occasional
    // ~100 ms scheduler hiccups that fat-tail every central statistic,
    // while the fast tail is the steady-state cost the claim is about.
    let mut base_ns: Vec<u64> = Vec::with_capacity(ROUNDS);
    let mut hb_ns: Vec<u64> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut pair = [0u64; 2];
        let mut phases = [false, true];
        if round % 2 == 1 {
            phases.reverse();
        }
        for heartbeats_on in phases {
            let interval = if heartbeats_on { on } else { off };
            for node in &cluster.nodes {
                node.set_heartbeat_interval(interval);
            }
            std::thread::sleep(IDLE_GAP);
            let t = Instant::now();
            for _ in 0..BATCHES_PER_ROUND {
                cluster.pump_batch(registry);
            }
            pair[usize::from(heartbeats_on)] = u64::try_from(t.elapsed().as_nanos()).unwrap();
        }
        base_ns.push(pair[0]);
        hb_ns.push(pair[1]);
    }
    let pings = cluster
        .nodes
        .iter()
        .map(|n| n.stats().pings_sent)
        .sum::<u64>();
    assert!(pings > 0, "the 50 ms sweep never pinged an idle link");
    cluster.shutdown();
    base_ns.sort_unstable();
    hb_ns.sort_unstable();
    let p10 = |v: &[u64]| v[v.len() / 10] as f64;
    (
        (p10(&hb_ns) / p10(&base_ns) - 1.0) * 100.0,
        ROUNDS * BATCHES_PER_ROUND,
    )
}

fn bench_chain(c: &mut Criterion) {
    let configs = [
        // The seed dataflow: per-frame serialization, per-frame writes,
        // inline matching on the recursive boxed-tree engine.
        LegSpec {
            name: "seed_dataflow",
            seed_dataflow: true,
            match_shards: 1,
            match_threads: 1,
            heartbeat_ms: 500,
            match_arena: false,
            match_cache_cap: 0,
            workload: Workload::Mixed,
            decoy_chains: DECOY_CHAINS,
            durable: false,
        },
        // The pipelined dataflow: encode-once, batched vectored writes,
        // schema-sharded matching workers — still the boxed-tree engine.
        LegSpec {
            name: "pipelined",
            seed_dataflow: false,
            match_shards: 4,
            match_threads: 1,
            heartbeat_ms: 500,
            match_arena: false,
            match_cache_cap: 0,
            workload: Workload::Mixed,
            decoy_chains: DECOY_CHAINS,
            durable: false,
        },
        // The arena-flattened walk on the same mixed workload: the A/B
        // against `pipelined` is the flattening's contribution alone
        // (every batch volume is distinct, so a cache could not help).
        LegSpec {
            name: "arena",
            seed_dataflow: false,
            match_shards: 4,
            match_threads: 1,
            heartbeat_ms: 500,
            match_arena: true,
            match_cache_cap: 0,
            workload: Workload::Mixed,
            decoy_chains: DECOY_CHAINS,
            durable: false,
        },
        // The arena walk plus an `FsStorage` WAL on every broker
        // (fsync-per-commit): the A/B against `arena` is the durability
        // layer's whole cost — encode + append + fsync per inbound broker
        // frame, snapshot checkpoints on cadence.
        LegSpec {
            name: "durability",
            seed_dataflow: false,
            match_shards: 4,
            match_threads: 1,
            heartbeat_ms: 500,
            match_arena: true,
            match_cache_cap: 0,
            workload: Workload::Mixed,
            decoy_chains: DECOY_CHAINS,
            durable: true,
        },
        // The boxed-tree engine on repeated content: baseline for the
        // cache leg below.
        LegSpec {
            name: "pipelined_zipf",
            seed_dataflow: false,
            match_shards: 4,
            match_threads: 1,
            heartbeat_ms: 500,
            match_arena: false,
            match_cache_cap: 0,
            workload: Workload::Zipf,
            decoy_chains: DECOY_CHAINS,
            durable: false,
        },
        // Arena plus the generation-invalidated result cache on the same
        // repeated content: hot volumes resolve to one hash probe.
        LegSpec {
            name: "arena_cache",
            seed_dataflow: false,
            match_shards: 4,
            match_threads: 1,
            heartbeat_ms: 500,
            match_arena: true,
            match_cache_cap: 1024,
            workload: Workload::Zipf,
            decoy_chains: DECOY_CHAINS,
            durable: false,
        },
        // The pipelined dataflow under an aggressive heartbeat sweep: the
        // A/B against the `pipelined` leg is the liveness machinery's cost
        // at saturation (busy links never idle past the interval, so the
        // sweep should only ever read a clock).
        LegSpec {
            name: "pipelined_heartbeat_50ms",
            seed_dataflow: false,
            match_shards: 4,
            match_threads: 1,
            heartbeat_ms: 50,
            match_arena: false,
            match_cache_cap: 0,
            workload: Workload::Mixed,
            decoy_chains: DECOY_CHAINS,
            durable: false,
        },
    ];
    let registry = registry();
    let mut results: Vec<Leg> = Vec::new();
    for spec in configs {
        let mut cluster = Cluster::start(spec, Duration::from_millis(spec.heartbeat_ms));
        let median = Cell::new(0.0f64);
        let mut group = c.benchmark_group("broker_pipeline_chain");
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(800));
        group.measurement_time(Duration::from_secs(4));
        group.throughput(Throughput::Elements(BATCH));
        group.bench_function(spec.name, |b| {
            b.iter(|| cluster.pump_batch(&registry));
            median.set(b.median_ns());
        });
        group.finish();
        let counters = cluster.shutdown();
        let events_per_sec = BATCH as f64 / (median.get() * 1e-9);
        results.push(Leg {
            spec,
            median_ns: median.get(),
            events_per_sec,
            counters,
        });
    }

    let by_name = |n: &str| {
        results
            .iter()
            .find(|l| l.spec.name == n)
            .expect("leg exists")
    };
    let speedup = by_name("pipelined").events_per_sec / by_name("seed_dataflow").events_per_sec;
    let arena_speedup = by_name("arena").events_per_sec / by_name("pipelined").events_per_sec;
    let cache_speedup =
        by_name("arena_cache").events_per_sec / by_name("pipelined_zipf").events_per_sec;
    // Positive = the WAL costs throughput; the pair differs only in
    // `BrokerConfig::storage`.
    let wal_overhead_pct =
        (by_name("arena").events_per_sec / by_name("durability").events_per_sec - 1.0) * 100.0;
    let (heartbeat_overhead_pct, paired_rounds) = heartbeat_overhead(&registry);
    let configs_json: Vec<String> = results
        .iter()
        .map(|leg| {
            let s = &leg.spec;
            let c = &leg.counters;
            format!(
                "    {{ \"name\": \"{}\", \"seed_dataflow\": {}, \"match_shards\": {}, \"match_threads\": {}, \"heartbeat_interval_ms\": {}, \"match_arena\": {}, \"match_cache_cap\": {}, \"workload\": \"{}\", \"durable\": {}, \"median_ns_per_batch\": {:.0}, \"events_per_sec\": {:.0}, \"spooled\": {}, \"retransmitted\": {}, \"dropped_spool_overflow\": {}, \"pings_sent\": {}, \"liveness_timeouts\": {}, \"evicted_slow_consumers\": {}, \"peer_overflow_disconnects\": {}, \"match_cache_hits\": {}, \"match_cache_misses\": {}, \"match_cache_invalidations\": {}, \"wal_appends\": {}, \"snapshot_writes\": {} }}",
                s.name,
                s.seed_dataflow,
                s.match_shards,
                s.match_threads,
                s.heartbeat_ms,
                s.match_arena,
                s.match_cache_cap,
                s.workload.label(),
                s.durable,
                leg.median_ns,
                leg.events_per_sec,
                c.spooled,
                c.retransmitted,
                c.dropped_spool_overflow,
                c.pings_sent,
                c.liveness_timeouts,
                c.evicted_slow_consumers,
                c.peer_overflow_disconnects,
                c.match_cache_hits,
                c.match_cache_misses,
                c.match_cache_invalidations,
                c.wal_appends,
                c.snapshot_writes,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"broker_pipeline\",\n  \"topology\": \"{BROKERS}-broker TCP chain, {SUBSCRIBERS_PER_BROKER} subscribers per broker, {SPACES} information spaces, {} deep-chain decoy subscriptions per space over {DECOY_CLIENTS} decoy clients\",\n  \"batch_events\": {BATCH},\n  \"deliveries_per_event\": {},\n  \"configs\": [\n{}\n  ],\n  \"speedup_events_per_sec\": {speedup:.2},\n  \"arena_speedup_events_per_sec\": {arena_speedup:.2},\n  \"arena_cache_speedup_events_per_sec\": {cache_speedup:.2},\n  \"wal_overhead_pct\": {wal_overhead_pct:.2},\n  \"heartbeat_overhead_pct\": {heartbeat_overhead_pct:.2},\n  \"heartbeat_overhead_paired_batches\": {paired_rounds}\n}}\n",
        DECOY_CHAINS,
        BROKERS * SUBSCRIBERS_PER_BROKER as u64,
        configs_json.join(",\n"),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_broker_pipeline.json"
    );
    std::fs::write(path, &json).unwrap();
    println!("{json}");
    println!("wrote {path}");
}

criterion_group!(benches, bench_chain);
criterion_main!(benches);
