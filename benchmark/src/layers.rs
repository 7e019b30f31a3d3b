//! Per-layer microbenchmarks: direct calls into each layer's public API
//! on the workload's own inputs, timed as the median of eleven batches on
//! the SUT core. Layer = crate/module: `types` (wire codec, predicate
//! parser), `matching` (PST maintenance), `core` (arena walk, match cache,
//! subscription maintenance), `broker.protocol` / `broker.log` /
//! `broker.storage`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use linkcast::{LinkMatchEngine, LinkSpace, MatchCache, RouteScratch};
use linkcast_broker::{
    BrokerToBroker, BrokerToClient, ClientToBroker, EventLog, FsStorage, Storage,
};
use linkcast_matching::{MatchStats, Pst, PstOptions};
use linkcast_types::{
    parse_predicate, wire, Event, LinkId, SubscriberId, Subscription, SubscriptionId,
};

use crate::inputs::{self, EventFactory, Spec};
use crate::rig::{decoy_phase, Topology, BROKERS};
use crate::stats::median;

/// Batches per measurement; the median is reported.
pub const BATCHES: usize = 11;
/// Distinct workload events each codec/route batch cycles through.
const EVENTS: usize = 256;
/// Table size the `matching` layer is measured at, whatever the workload.
const PST_CHAINS: usize = 2048;
/// Mutations per maintenance batch.
const MUTATIONS: usize = 64;

/// Runs `batch` [`BATCHES`] times; each call returns how many operations
/// it timed and how long they took. Median ns per operation.
fn median_ns(mut batch: impl FnMut() -> (usize, std::time::Duration)) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ops, took) = batch();
            took.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&per_op)
}

/// Times `f` over every item, as one batch.
fn timed<T>(items: &[T], mut f: impl FnMut(&T)) -> (usize, std::time::Duration) {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    (items.len(), start.elapsed())
}

/// Times [`BATCHES`] rounds of adding [`MUTATIONS`] fresh subscriptions to
/// `target` and removing them again, so every round starts from the same
/// table. Returns the median ns per `(add, remove)`.
fn mutation_ns<T>(
    target: &mut T,
    mut fresh: impl FnMut() -> Subscription,
    add: impl Fn(&mut T, Subscription) -> Result<(), String>,
    remove: impl Fn(&mut T, SubscriptionId),
) -> Result<(f64, f64), String> {
    let mut add_ns = Vec::with_capacity(BATCHES);
    let mut remove_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let batch: Vec<Subscription> = (0..MUTATIONS).map(|_| fresh()).collect();
        let ids: Vec<SubscriptionId> = batch.iter().map(Subscription::id).collect();
        let start = Instant::now();
        for s in batch {
            add(target, s)?;
        }
        add_ns.push(start.elapsed().as_nanos() as f64 / MUTATIONS as f64);
        let start = Instant::now();
        for id in ids {
            remove(target, id);
        }
        remove_ns.push(start.elapsed().as_nanos() as f64 / MUTATIONS as f64);
    }
    Ok((median(&add_ns), median(&remove_ns)))
}

fn decoy_subscription(
    factory: &EventFactory,
    topology: &Topology,
    id: u32,
    slot: usize,
    chain: u64,
) -> Subscription {
    let predicate =
        parse_predicate(factory.schema(), &inputs::decoy_chain(chain)).expect("decoy chains parse");
    Subscription::new(
        SubscriptionId::new(id),
        SubscriberId::new(
            topology.brokers[slot % BROKERS],
            topology.decoy_ids[slot % inputs::DECOY_CLIENTS],
        ),
        predicate,
    )
}

/// B's table for `spec`, built in the order B sees the cluster's phased
/// install: the subscriber's subscription, then each phase's chains.
fn table_at_b(
    spec: &Spec,
    seed: u64,
    factory: &EventFactory,
    topology: &Topology,
) -> Vec<Subscription> {
    let base = inputs::decoy_base(seed);
    let mut table = vec![Subscription::new(
        SubscriptionId::new(0),
        SubscriberId::new(topology.brokers[BROKERS - 1], topology.subscriber_id),
        parse_predicate(factory.schema(), "volume >= 0").expect("literal parses"),
    )];
    for phase in 0..BROKERS {
        for j in decoy_phase(spec.decoys, phase) {
            table.push(decoy_subscription(
                factory,
                topology,
                j as u32,
                j,
                base + j as u64,
            ));
        }
    }
    table
}

/// Every direct-call layer metric for `spec`, as `(name, value)`.
///
/// # Errors
///
/// Set-up failures (topology, engine construction, storage), as text.
pub fn measure(spec: &Spec, seed: u64, out_dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let registry = inputs::registry();
    let factory = EventFactory::new(&registry);
    let topology = Topology::new()?;
    let volumes = inputs::volumes(spec, seed);
    let events: Vec<Event> = volumes
        .iter()
        .take(EVENTS)
        .enumerate()
        .map(|(i, &v)| factory.event(v, 1_000_000 + i as i64))
        .collect();
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // --- types ------------------------------------------------------------
    let mut buf = BytesMut::with_capacity(256);
    out.push((
        "types.event_encode_ns",
        median_ns(|| {
            timed(&events, |e| {
                buf.clear();
                wire::put_event(&mut buf, black_box(e));
                black_box(buf.len());
            })
        }),
    ));
    let encoded: Vec<Bytes> = events
        .iter()
        .map(|e| {
            let mut b = BytesMut::with_capacity(128);
            wire::put_event(&mut b, e);
            b.freeze()
        })
        .collect();
    out.push((
        "types.event_decode_ns",
        median_ns(|| {
            timed(&encoded, |b| {
                let mut b = b.clone();
                black_box(wire::get_event(&mut b, &registry).expect("own encoding decodes"));
            })
        }),
    ));
    let base = inputs::decoy_base(seed);
    let expressions: Vec<String> = (1..=EVENTS as u64)
        .map(|j| inputs::decoy_chain(base + j))
        .collect();
    out.push((
        "types.predicate_parse_ns",
        median_ns(|| {
            timed(&expressions, |x| {
                black_box(parse_predicate(factory.schema(), black_box(x)).expect("decoys parse"));
            })
        }),
    ));

    // --- matching: PST maintenance at 2048 chains --------------------------
    let mut pst =
        Pst::new(factory.schema().clone(), PstOptions::default()).map_err(|e| e.to_string())?;
    for j in 1..=PST_CHAINS {
        pst.insert_reported(decoy_subscription(
            &factory,
            &topology,
            j as u32,
            j,
            base + j as u64,
        ))
        .map_err(|e| e.to_string())?;
    }
    let mut fresh = PST_CHAINS as u64;
    let (insert_ns, remove_ns) = mutation_ns(
        &mut pst,
        || {
            fresh += 1;
            decoy_subscription(
                &factory,
                &topology,
                fresh as u32,
                fresh as usize,
                base + fresh,
            )
        },
        |pst, s| {
            pst.insert_reported(s)
                .map(|report| drop(black_box(report)))
                .map_err(|e| e.to_string())
        },
        |pst, id| drop(black_box(pst.remove_reported(id))),
    )?;
    out.push(("matching.pst_insert_ns", insert_ns));
    out.push(("matching.pst_remove_ns", remove_ns));

    // --- core: B's engine over the workload's table -------------------------
    let b = topology.brokers[1];
    let space = LinkSpace::build(topology.fabric.network(), topology.fabric.forest(), b);
    let mut engine =
        LinkMatchEngine::new(b, factory.schema().clone(), PstOptions::default(), space)
            .map_err(|e| e.to_string())?;
    for s in table_at_b(spec, seed, &factory, &topology) {
        engine.subscribe(s).map_err(|e| e.to_string())?;
    }
    let tree = topology
        .fabric
        .tree_for(topology.brokers[0])
        .map_err(|e| e.to_string())?;
    let mut scratch = RouteScratch::new();
    let mut links: Vec<LinkId> = Vec::new();
    let mut stats = MatchStats::new();
    out.push((
        "core.route_ns",
        median_ns(|| {
            timed(&events, |e| {
                engine.match_links_into(black_box(e), tree, &mut scratch, &mut stats, &mut links);
                black_box(links.len());
            })
        }),
    ));
    out.push(("core.route_steps", stats.steps_per_event()));
    out.push(("core.arena_nodes", engine.arena().node_count() as f64));

    let mut cache = MatchCache::new(1024);
    let generation = engine.generation();
    let mut cache_stats = MatchStats::new();
    for e in &events {
        engine.match_links_into(e, tree, &mut scratch, &mut stats, &mut links);
        cache.insert(generation, 0, tree, e, engine.tested_attributes(), &links);
    }
    out.push((
        "core.cache_hit_ns",
        median_ns(|| {
            timed(&events, |e| {
                let hit = cache.lookup(
                    generation,
                    0,
                    tree,
                    black_box(e),
                    engine.tested_attributes(),
                    &mut cache_stats,
                );
                black_box(hit.map(<[LinkId]>::len));
            })
        }),
    ));
    if cache_stats.cache_misses > 0 {
        return Err("core.cache_hit_ns timed misses".into());
    }

    let mut fresh = (spec.decoys + inputs::CHURN_LIVE) as u64;
    let (subscribe_ns, unsubscribe_ns) = mutation_ns(
        &mut engine,
        || {
            fresh += 1;
            decoy_subscription(&factory, &topology, fresh as u32, 2, base + fresh)
        },
        |engine, s| engine.subscribe(s).map_err(|e| e.to_string()),
        |engine, id| {
            black_box(engine.unsubscribe(id));
        },
    )?;
    out.push(("core.subscribe_ns", subscribe_ns));
    out.push(("core.unsubscribe_ns", unsubscribe_ns));

    // --- broker.protocol / broker.log ---------------------------------------
    let publish_payloads: Vec<Bytes> = events
        .iter()
        .map(|e| {
            ClientToBroker::Publish { event: e.clone() }
                .encode()
                .slice(4..)
        })
        .collect();
    out.push((
        "broker.protocol.publish_decode_ns",
        median_ns(|| {
            timed(&publish_payloads, |p| {
                black_box(ClientToBroker::decode(p.clone(), &registry).expect("own frame decodes"));
            })
        }),
    ));
    let forwards: Vec<BrokerToBroker> = events
        .iter()
        .enumerate()
        .map(|(i, e)| BrokerToBroker::Forward {
            tree,
            seq: i as u64 + 1,
            epoch: 0,
            event: e.clone(),
        })
        .collect();
    out.push((
        "broker.protocol.forward_codec_ns",
        median_ns(|| {
            timed(&forwards, |f| {
                let frame = black_box(f).encode();
                black_box(
                    BrokerToBroker::decode(frame.slice(4..), &registry).expect("own frame decodes"),
                );
            })
        }),
    ));
    let delivers: Vec<BrokerToClient> = events
        .iter()
        .enumerate()
        .map(|(i, e)| BrokerToClient::Deliver {
            seq: i as u64 + 1,
            event: e.clone(),
        })
        .collect();
    out.push((
        "broker.protocol.deliver_encode_ns",
        median_ns(|| {
            timed(&delivers, |d| {
                black_box(black_box(d).encode());
            })
        }),
    ));
    out.push((
        "broker.log.append_ack_ns",
        median_ns(|| {
            // One subscriber's log through a full ack cycle: append every
            // event, acknowledge cumulatively every 64, collect.
            let mut log = EventLog::new();
            let start = Instant::now();
            for e in &events {
                let seq = log.append(e.clone());
                if seq.is_multiple_of(64) {
                    log.ack(seq);
                    black_box(log.collect());
                }
            }
            (events.len(), start.elapsed())
        }),
    ));

    // --- broker.storage: what one sync costs on this checkout's device ------
    let dir = out_dir.join(format!("devsync-{}", std::process::id()));
    let storage = FsStorage::open(&dir).map_err(|e| e.to_string())?;
    let record = [0x5au8; 128];
    let sync_ns = median_ns(|| {
        storage.append("probe", &record).expect("probe append");
        let start = Instant::now();
        storage.sync("probe").expect("probe sync");
        (1, start.elapsed())
    });
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    out.push(("broker.storage.device_sync_us", sync_ns / 1000.0));

    Ok(out)
}
