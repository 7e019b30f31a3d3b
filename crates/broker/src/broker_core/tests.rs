//! Tests that step [`BrokerCore`]s by hand or on the simulator: no thread,
//! no socket, and no clock but the `now` each test moves.

use linkcast::NetworkBuilder;
use linkcast_types::{
    parse_predicate, EventSchema, Predicate, SchemaId, SchemaRegistry, Value, ValueKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::des::{Drawn, Sim, Spec};
use super::*;
use crate::transport::FrameBatch;

pub(crate) use super::sim::{Io, Recording};

impl BrokerCore<Recording> {
    /// One frame arriving on `conn` at `now`.
    pub(crate) fn feed(&mut self, conn: ConnId, frame: Bytes, now: Instant) {
        self.step(Command::Frames(conn, FrameBatch::single(frame)), now);
    }
}

/// `trades`, whose `id` no subscription tests: it names the event.
fn registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    let schema = EventSchema::builder("trades")
        .attribute("issue", ValueKind::Str)
        .attribute("volume", ValueKind::Int)
        .attribute("id", ValueKind::Int)
        .build()
        .unwrap();
    r.register(schema).unwrap();
    Arc::new(r)
}

/// B0's configuration in a two-broker network, its neighbor B1, and two
/// clients homed at B0.
fn pair() -> (BrokerConfig, BrokerId, [ClientId; 2]) {
    let mut b = NetworkBuilder::new();
    let (b0, b1) = (b.add_broker(), b.add_broker());
    b.connect(b0, b1, 1.0).unwrap();
    let clients = [b.add_client(b0).unwrap(), b.add_client(b0).unwrap()];
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    (BrokerConfig::localhost(b0, fabric, registry()), b1, clients)
}

/// B1's `Hello` opening a fresh link.
fn peer_hello(broker: BrokerId) -> Bytes {
    let hello = BrokerToBroker::Hello {
        broker,
        incarnation: 0xb1,
        last_recv: 0,
        last_recv_incarnation: 0,
        send_seq: 0,
    };
    hello.encode()
}

/// `client`'s `Hello`, resuming after `resume_from`.
fn client_hello(client: ClientId, resume_from: u64) -> Bytes {
    let hello = ClientToBroker::Hello {
        client,
        resume_from,
    };
    hello.encode()
}

/// A subscription to every `trades` event.
fn subscribe_all() -> Bytes {
    let (schema, expression) = (SchemaId::new(0), "volume >= 0".into());
    ClientToBroker::Subscribe { schema, expression }.encode()
}

/// The `trades` event `id`: IBM, at volume `id`.
fn trade(id: i64) -> Event {
    let registry = registry();
    let values = [Value::Str("IBM".into()), Value::Int(id), Value::Int(id)];
    Event::from_values(registry.get(SchemaId::new(0)).unwrap(), values).unwrap()
}

/// `trade(id)`, published.
fn publish(id: i64) -> Bytes {
    ClientToBroker::Publish { event: trade(id) }.encode()
}

/// What the core sent `conn` since the last call, decoded.
fn sent_to(core: &mut BrokerCore<Recording>, conn: ConnId) -> Vec<BrokerToClient> {
    let registry = Arc::clone(&core.config.registry);
    let payloads = core.take_io().into_iter().filter_map(|io| match io {
        Io::Send(to, frame) if to == conn => Some(frame.slice(protocol::FRAME_PREFIX..)),
        _ => None,
    });
    payloads
        .map(|p| BrokerToClient::decode(p, &registry).unwrap())
        .collect()
}

#[test]
fn the_clock_pings_an_idle_link_drops_a_silent_one_and_reclaims_a_gone_client() {
    const PEER: ConnId = 1;
    const CLIENT: ConnId = 2;
    let (config, b1, [client, _]) = pair();
    let liveness = config.liveness_timeout;
    let heartbeat = heartbeat_period(liveness);
    let t0 = Instant::now();
    let mut core = BrokerCore::boot(config, 0xa0, Recording::default(), t0).unwrap();
    assert_eq!(core.next_deadline(), t0 + GC_INTERVAL.min(heartbeat));
    // B1 connects; a client says hello and leaves.
    core.feed(PEER, peer_hello(b1), t0);
    core.feed(CLIENT, client_hello(client, 0), t0);
    core.step(Command::Disconnected(CLIENT), t0);
    core.take_io();
    let count = |core: &BrokerCore<Recording>| {
        let stats = &core.stats;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        (load(&stats.pings_sent), load(&stats.liveness_timeouts))
    };

    // Short of the heartbeat, nothing; idle past its jittered threshold
    // (under 1.5 intervals), one ping.
    core.on_clock(t0 + heartbeat - Duration::from_millis(1));
    assert_eq!(core.take_io(), []);
    core.on_clock(t0 + heartbeat * 3 / 2);
    assert_eq!(
        core.take_io(),
        [Io::Send(PEER, BrokerToBroker::Ping.encode())]
    );
    assert_eq!(count(&core), (1, 0));
    // Silent past the liveness timeout: torn down, once.
    core.on_clock(t0 + liveness);
    assert_eq!(core.take_io(), [Io::Unregister(PEER)]);
    core.on_clock(t0 + liveness * 2);
    assert_eq!(core.take_io(), []);
    assert_eq!(count(&core), (1, 1));
    // The client's state outlives its connection by the TTL, no more.
    core.on_clock(t0 + CLIENT_TTL);
    assert!(core.clients.contains_key(&client));
    core.on_clock(t0 + CLIENT_TTL + GC_INTERVAL);
    assert!(!core.clients.contains_key(&client));
}

/// The heartbeat is a tenth of the liveness timeout. At 2 s an idle link is
/// pinged once 200 ms idle (by 300 ms, with the jitter) and dropped at 2 s;
/// at 0 the period is still `MIN_PERIOD`, so the shell's wait never spins.
#[test]
fn the_heartbeat_follows_the_liveness_timeout() {
    const PEER: ConnId = 1;
    let ms = Duration::from_millis;
    let (mut config, b1, _) = pair();
    config.liveness_timeout = ms(2000);
    let t0 = Instant::now();
    let mut core = BrokerCore::boot(config.clone(), 0xa0, Recording::default(), t0).unwrap();
    core.feed(PEER, peer_hello(b1), t0);
    core.take_io();
    core.on_clock(t0 + ms(199));
    assert_eq!(core.take_io(), []);
    core.on_clock(t0 + ms(300));
    assert_eq!(
        core.take_io(),
        [Io::Send(PEER, BrokerToBroker::Ping.encode())]
    );
    core.on_clock(t0 + ms(2000));
    assert_eq!(core.take_io(), [Io::Unregister(PEER)]);

    config.liveness_timeout = Duration::ZERO;
    let mut core = BrokerCore::boot(config, 0xa0, Recording::default(), t0).unwrap();
    core.feed(PEER, peer_hello(b1), t0);
    let mut now = t0;
    for _ in 0..3 {
        assert!(core.next_deadline() >= now + MIN_PERIOD);
        now = core.next_deadline();
        core.on_clock(now);
    }
}

/// A client gone past `CLIENT_TTL` loses its state: back on a new
/// connection, nothing it missed replays and its sequence restarts at 1.
#[test]
fn client_state_is_reclaimed_after_the_ttl() {
    const SUBSCRIBER: ConnId = 1;
    const PUBLISHER: ConnId = 2;
    const RETURNED: ConnId = 3;
    let (config, _, [subscriber, publisher]) = pair();
    let t0 = Instant::now();
    let mut core = BrokerCore::boot(config, 0xa0, Recording::default(), t0).unwrap();
    core.feed(SUBSCRIBER, client_hello(subscriber, 0), t0);
    core.feed(SUBSCRIBER, subscribe_all(), t0);
    core.feed(PUBLISHER, client_hello(publisher, 0), t0);
    core.feed(PUBLISHER, publish(1), t0);
    core.feed(SUBSCRIBER, ClientToBroker::Ack { seq: 1 }.encode(), t0);
    core.step(Command::Disconnected(SUBSCRIBER), t0);
    // One more event lands in the log while the subscriber is away, and it
    // stays away past the TTL and the GC pass after it.
    core.feed(PUBLISHER, publish(2), t0);
    let back = t0 + CLIENT_TTL + GC_INTERVAL;
    core.on_clock(back);
    core.take_io();
    core.feed(RETURNED, client_hello(subscriber, 1), back);
    let welcome = BrokerToClient::Welcome {
        client: subscriber,
        resume_from: 0,
    };
    let replayed = sent_to(&mut core, RETURNED);
    assert_eq!(replayed, [welcome], "the expired log must not replay");
    core.feed(PUBLISHER, publish(3), back);
    let fresh = BrokerToClient::Deliver {
        seq: 1,
        event: trade(3),
    };
    assert_eq!(
        sent_to(&mut core, RETURNED),
        [fresh],
        "a fresh log starts at 1"
    );
}

/// A client that never returns holds at most `LOG_BOUND` entries: the GC
/// pass drops the oldest and counts them lost, and a reconnect replays
/// exactly the newest `LOG_BOUND`.
#[test]
fn log_bound_drops_oldest_for_absent_clients() {
    const SUBSCRIBER: ConnId = 1;
    const PUBLISHER: ConnId = 2;
    const RETURNED: ConnId = 3;
    const OVER: u64 = 5;
    let (config, _, [subscriber, publisher]) = pair();
    let t0 = Instant::now();
    let mut core = BrokerCore::boot(config, 0xa0, Recording::default(), t0).unwrap();
    // The absent subscriber connects just long enough to subscribe.
    core.feed(SUBSCRIBER, client_hello(subscriber, 0), t0);
    core.feed(SUBSCRIBER, subscribe_all(), t0);
    core.step(Command::Disconnected(SUBSCRIBER), t0);
    core.feed(PUBLISHER, client_hello(publisher, 0), t0);
    let published = LOG_BOUND as u64 + OVER;
    for id in 1..=published {
        core.feed(PUBLISHER, publish(id as i64), t0);
    }
    let gc = t0 + GC_INTERVAL;
    core.on_clock(gc);
    assert_eq!(core.clients[&subscriber].log.lost(), OVER);
    core.take_io();
    core.feed(RETURNED, client_hello(subscriber, 0), gc);
    let welcome = BrokerToClient::Welcome {
        client: subscriber,
        resume_from: OVER,
    };
    let newest = (OVER + 1..=published).map(|seq| BrokerToClient::Deliver {
        seq,
        event: trade(seq as i64),
    });
    let expected: Vec<_> = std::iter::once(welcome).chain(newest).collect();
    assert_eq!(sent_to(&mut core, RETURNED), expected);
}

/// The chain A – B – C's two clients: a publisher at A, a subscriber at C.
const PUBLISHER: usize = 0;
const SUBSCRIBER: usize = 1;

const FILTERS: [&str; 5] = [
    "volume >= 0",
    "issue = \"IBM\"",
    "volume > 60",
    "issue = \"HP\" & volume < 40",
    "volume < 20",
];

/// Operations per seeded schedule.
const OPS: usize = 400;

/// What one seeded schedule left behind.
struct Run {
    logs: Vec<Vec<Io>>,
    /// The `id`s of the events C's client was delivered, in order.
    delivered: Vec<i64>,
    /// The `id`s the flooding oracle says C's client must get, in order.
    expected: Vec<i64>,
    drawn: Drawn,
}

/// Heals every link and runs until all are up and nothing is in flight.
fn settle(sim: &mut Sim) -> Result<(), String> {
    sim.heal();
    let settled = |sim: &Sim| sim.meshed() && sim.quiet();
    sim.run_until("a settled chain", Duration::from_secs(60), settled)
}

/// A seeded schedule over the chain, on the simulator: publish at A;
/// subscribe or unsubscribe at C; kill, revive or stall a link; let time
/// run. A subscription change is made on a settled chain and settled
/// after, so every event is routed, end to end, under the one subscription
/// set in force when it was published: the oracle is that set's predicates.
fn run_schedule(seed: u64, base: Instant) -> Result<Run, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let chain = Spec::new(seed, 3, &[(0, 1), (1, 2)], &[0, 2]);
    let spec = Spec {
        registry: registry(),
        ..chain
    };
    let mut sim = Sim::new(spec, base, |config| {
        // As long as the schedule's longest wait: a stalled link can die.
        config.liveness_timeout = Duration::from_millis(1500);
    });
    sim.connect(PUBLISHER, 0);
    sim.connect(SUBSCRIBER, 0);
    settle(&mut sim)?;
    let schema = sim.registry.get(SchemaId::new(0)).unwrap().clone();
    let mut live: Vec<(SubscriptionId, Predicate)> = Vec::new();
    let (mut expected, mut next_id) = (Vec::new(), 0);
    let ms = |ms| Duration::from_millis(ms);
    for _ in 0..OPS {
        match rng.random_range(0..20) {
            0..=5 => {
                let issue = ["IBM", "HP", "SUN"][rng.random_range(0..3)];
                let volume = rng.random_range(0..100);
                let values = [
                    Value::Str(issue.into()),
                    Value::Int(volume),
                    Value::Int(next_id),
                ];
                let event = Event::from_values(&schema, values).unwrap();
                if live.iter().any(|(_, p)| p.matches(&event)) {
                    expected.push(next_id);
                }
                next_id += 1;
                sim.publish(PUBLISHER, event);
            }
            6..=10 => sim.run_for(ms(rng.random_range(0..20))),
            11 => sim.stall(rng.random_range(0..2), rng.random(), rng.random()),
            12 => sim.kill(rng.random_range(0..2)),
            13 | 14 => sim.revive(rng.random_range(0..2)),
            15 | 16 => sim.run_for(ms(rng.random_range(0..1500))),
            17 | 18 if live.len() < 4 => {
                settle(&mut sim)?;
                let expression = FILTERS[rng.random_range(0..FILTERS.len())];
                let id = sim.subscribe(SUBSCRIBER, expression)?;
                live.push((id, parse_predicate(&schema, expression).unwrap()));
                settle(&mut sim)?;
            }
            _ if !live.is_empty() => {
                settle(&mut sim)?;
                let (id, _) = live.remove(rng.random_range(0..live.len()));
                sim.unsubscribe(SUBSCRIBER, id)?;
                settle(&mut sim)?;
            }
            _ => {}
        }
    }
    settle(&mut sim)?;
    let id = |event: &Event| match event.value(2) {
        Some(&Value::Int(id)) => id,
        _ => panic!("no id in {event:?}"),
    };
    Ok(Run {
        logs: sim.logs(),
        delivered: sim.clients[SUBSCRIBER]
            .got
            .iter()
            .map(|(_, e)| id(e))
            .collect(),
        expected,
        drawn: sim.drawn(),
    })
}

/// Seeded schedules: a few in a debug build, more in release (CI's
/// count-pinning step runs this test there).
const SEEDS: &[u64] = if cfg!(debug_assertions) {
    &[1, 2, 3]
} else {
    &[1, 2, 3, 4, 5, 7, 42, 1234, 2024, 65537]
};

#[test]
fn three_cores_meet_the_flooding_oracle_and_replay_byte_for_byte() {
    let mut drawn = Drawn::default();
    for &seed in SEEDS {
        let t0 = Instant::now();
        let run = run_schedule(seed, t0).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            run.delivered, run.expected,
            "seed {seed}: delivered != oracle"
        );
        // The same seed from another base instant: the same bytes.
        let later = t0 + Duration::from_secs(3600);
        let again = run_schedule(seed, later).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (core, (a, b)) in run.logs.iter().zip(&again.logs).enumerate() {
            let first = a.iter().zip(b).position(|(x, y)| x != y);
            assert_eq!(first, None, "seed {seed}: core {core} diverges on replay");
            assert_eq!(a.len(), b.len(), "seed {seed}: core {core} log length");
        }
        drawn.add(&run.drawn);
    }
    // The schedules cut links, time them out, retransmit, and land frames
    // on one link ahead of frames sent earlier on the other.
    let missing = drawn.missing(&["cut", "liveness timeout", "retransmit", "overtake"]);
    assert!(missing.is_empty(), "never drawn: {missing:?} in {drawn:?}");
}
