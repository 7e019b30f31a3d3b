//! Tests that step [`BrokerCore`]s by hand: no thread, no socket, and no
//! clock but the `now` each test moves.

use std::cell::RefCell;
use std::collections::VecDeque;

use linkcast::NetworkBuilder;
use linkcast_matching::PstOptions;
use linkcast_types::{
    parse_predicate, EventSchema, Predicate, SchemaId, SchemaRegistry, Value, ValueKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::transport::FrameBatch;

/// One call a core made on its [`Out`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Io {
    Send(ConnId, Bytes),
    Unregister(ConnId),
    CloseAfterFlush(ConnId),
    Evict(ConnId, Option<Bytes>),
}

/// An [`Out`] that records every call, in order.
#[derive(Default)]
pub(crate) struct Recording(RefCell<Vec<Io>>);

impl Out for Recording {
    fn send(&self, conn: ConnId, frame: Bytes) {
        self.0.borrow_mut().push(Io::Send(conn, frame));
    }
    fn send_many<I: IntoIterator<Item = ConnId>>(&self, conns: I, frame: &Bytes) {
        for conn in conns {
            self.send(conn, frame.clone());
        }
    }
    fn unregister(&self, conn: ConnId) {
        self.0.borrow_mut().push(Io::Unregister(conn));
    }
    fn close_after_flush(&self, conn: ConnId) {
        self.0.borrow_mut().push(Io::CloseAfterFlush(conn));
    }
    fn evict(&self, conn: ConnId, notice: Option<Bytes>) {
        self.0.borrow_mut().push(Io::Evict(conn, notice));
    }
}

impl BrokerCore<Recording> {
    /// A freshly booted core for `config`, lifetime `incarnation`, at `now`.
    pub(crate) fn recording(config: BrokerConfig, incarnation: u64, now: Instant) -> Self {
        let registry = Arc::clone(&config.registry);
        let options = PstOptions::default();
        let engine = MatchingEngine::new(config.broker, &config.fabric, registry, options);
        let recovered = Recovered {
            incarnation,
            ..Recovered::default()
        };
        let stats = Arc::new(StatsInner::default());
        BrokerCore::new(
            config,
            recovered,
            engine.unwrap(),
            Recording::default(),
            stats,
            now,
        )
    }

    /// What the core did to its connections since the last call.
    pub(crate) fn take_io(&mut self) -> Vec<Io> {
        self.out.0.take()
    }

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

#[test]
fn the_clock_pings_an_idle_link_drops_a_silent_one_and_reclaims_a_gone_client() {
    const PEER: ConnId = 1;
    const CLIENT: ConnId = 2;
    let mut b = NetworkBuilder::new();
    let (b0, b1) = (b.add_broker(), b.add_broker());
    b.connect(b0, b1, 1.0).unwrap();
    let client = b.add_client(b0).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let config = BrokerConfig::localhost(b0, fabric, registry());
    let (gc, heartbeat) = (config.gc_interval, config.heartbeat_interval);
    let (liveness, ttl) = (config.liveness_timeout, config.client_ttl);
    let t0 = Instant::now();
    let mut core = BrokerCore::recording(config, 0xa0, t0);
    assert_eq!(core.next_deadline(), t0 + gc.min(heartbeat));
    // B1 connects; a client says hello and leaves.
    let hello = BrokerToBroker::Hello {
        broker: b1,
        incarnation: 0xb1,
        last_recv: 0,
        last_recv_incarnation: 0,
        send_seq: 0,
    };
    core.feed(PEER, hello.encode(), t0);
    let resume_from = 0;
    core.feed(
        CLIENT,
        ClientToBroker::Hello {
            client,
            resume_from,
        }
        .encode(),
        t0,
    );
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
    core.on_clock(t0 + ttl);
    assert!(core.clients.contains_key(&client));
    core.on_clock(t0 + ttl + gc);
    assert!(!core.clients.contains_key(&client));
}

/// The client connection at either end of the chain.
const CLIENT: ConnId = 1;
const A: usize = 0;
const C: usize = 2;

/// Three cores on the chain A – B – C, joined by a FIFO pump. Link `l`
/// joins cores `l` and `l + 1`, and either may dial it.
struct Chain {
    registry: Arc<SchemaRegistry>,
    brokers: Vec<BrokerId>,
    cores: Vec<BrokerCore<Recording>>,
    /// Everything each core did to its connections, in order.
    logs: Vec<Vec<Io>>,
    now: Instant,
    /// Frames in flight, oldest first: the core they go to, its conn.
    fifo: VecDeque<(usize, ConnId, Bytes)>,
    /// Each link's live connection, one number at both ends.
    wires: [Option<ConnId>; 2],
    next_conn: ConnId,
    cuts: u64,
    /// The `id`s of the events C's client was delivered, in order.
    delivered: Vec<i64>,
    /// Subscription ids acknowledged to C's client and not yet read.
    sub_acks: Vec<SubscriptionId>,
}

impl Chain {
    /// The chain at `now`, links down, with a client at A and at C.
    fn new(now: Instant) -> (Chain, ClientId, ClientId) {
        let mut b = NetworkBuilder::new();
        let brokers = b.add_brokers(3);
        b.connect(brokers[0], brokers[1], 1.0).unwrap();
        b.connect(brokers[1], brokers[2], 1.0).unwrap();
        let publisher = b.add_client(brokers[A]).unwrap();
        let subscriber = b.add_client(brokers[C]).unwrap();
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
        let registry = registry();
        let cores = (0..3)
            .map(|i| {
                let fabric = Arc::clone(&fabric);
                let mut config = BrokerConfig::localhost(brokers[i], fabric, Arc::clone(&registry));
                // Three heartbeats: a link the pump starves can die.
                config.liveness_timeout = config.heartbeat_interval * 3;
                BrokerCore::recording(config, 0xa0 + i as u64, now)
            })
            .collect();
        let chain = Chain {
            registry,
            brokers,
            cores,
            logs: vec![Vec::new(); 3],
            now,
            fifo: VecDeque::new(),
            wires: [None; 2],
            next_conn: 100,
            cuts: 0,
            delivered: Vec::new(),
            sub_acks: Vec::new(),
        };
        (chain, publisher, subscriber)
    }

    /// Steps core `i` and carries out what it did.
    fn step(&mut self, i: usize, command: Command) {
        self.cores[i].step(command, self.now);
        self.route(i);
    }

    /// The client at core `i` sends `message`.
    fn client_sends(&mut self, i: usize, message: ClientToBroker) {
        self.step(
            i,
            Command::Frames(CLIENT, FrameBatch::single(message.encode())),
        );
    }

    /// Logs what core `i` did to its connections and carries it out: a
    /// frame on a live link joins the FIFO, one to its client is read, and
    /// a closed link is cut.
    fn route(&mut self, i: usize) {
        let io = self.cores[i].take_io();
        self.logs[i].extend(io.iter().cloned());
        for io in io {
            match io {
                Io::Send(conn, frame) => match self.link_of(i, conn) {
                    Some(l) => self.fifo.push_back((2 * l + 1 - i, conn, frame)),
                    None if conn == CLIENT => self.client_frame(i, &frame),
                    // A connection the core has already given up.
                    None => {}
                },
                Io::Unregister(conn) | Io::CloseAfterFlush(conn) | Io::Evict(conn, _) => {
                    if let Some(l) = self.link_of(i, conn) {
                        self.cut(l);
                    }
                }
            }
        }
    }

    fn link_of(&self, i: usize, conn: ConnId) -> Option<usize> {
        (0..2).find(|&l| self.wires[l] == Some(conn) && (l == i || l + 1 == i))
    }

    fn client_frame(&mut self, i: usize, frame: &Bytes) {
        let payload = frame.slice(protocol::FRAME_PREFIX..);
        match BrokerToClient::decode(payload, &self.registry).unwrap() {
            BrokerToClient::Deliver { event, .. } if i == C => {
                let Some(&Value::Int(id)) = event.value(2) else {
                    panic!("no id in {event:?}");
                };
                self.delivered.push(id);
            }
            BrokerToClient::SubAck { id } => self.sub_acks.push(id),
            BrokerToClient::Error { message } => panic!("core {i}: {message}"),
            _ => {}
        }
    }

    /// Drops link `l`: what is in flight on it is lost, and both ends
    /// hear `Disconnected`, as their readers would.
    fn cut(&mut self, l: usize) {
        let Some(conn) = self.wires[l].take() else {
            return;
        };
        self.cuts += 1;
        self.fifo.retain(|&(_, c, _)| c != conn);
        self.step(l, Command::Disconnected(conn));
        self.step(l + 1, Command::Disconnected(conn));
    }

    /// Core `from` redials link `l` if it is down: `DialedNeighbor` there,
    /// whose frames then reach the other end on the fresh conn.
    fn dial(&mut self, l: usize, from: usize) {
        if self.wires[l].is_none() {
            let conn = self.next_conn;
            self.next_conn += 1;
            self.wires[l] = Some(conn);
            let to = self.brokers[2 * l + 1 - from];
            self.step(from, Command::DialedNeighbor(conn, to));
        }
    }

    /// Delivers the `n` oldest frames in flight.
    fn pump(&mut self, n: usize) {
        for _ in 0..n {
            let Some((to, conn, frame)) = self.fifo.pop_front() else {
                return;
            };
            self.step(to, Command::Frames(conn, FrameBatch::single(frame)));
        }
    }

    /// Redials every link and delivers until nothing is in flight.
    fn settle(&mut self) {
        while self.wires.contains(&None) || !self.fifo.is_empty() {
            self.dial(0, 1);
            self.dial(1, 2);
            self.pump(1);
        }
    }

    /// Moves the clock on by `by` and offers every core its timers.
    fn advance(&mut self, by: Duration) {
        self.now += by;
        for i in 0..3 {
            self.cores[i].on_clock(self.now);
            self.route(i);
        }
    }
}

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
    delivered: Vec<i64>,
    /// The `id`s the flooding oracle says C's client must get, in order.
    expected: Vec<i64>,
    cuts: u64,
    retransmitted: u64,
    timeouts: u64,
}

/// A seeded schedule over the chain: publish at A; subscribe or
/// unsubscribe at C; drop or redial a link; deliver some frames; move
/// the clock. A subscription change is made on a settled chain and
/// settled after, so every event is routed, end to end, under the one
/// subscription set in force when it was published: the oracle is
/// that set's predicates.
fn run_schedule(seed: u64, t0: Instant) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut chain, publisher, subscriber) = Chain::new(t0);
    let resume_from = 0;
    chain.client_sends(
        A,
        ClientToBroker::Hello {
            client: publisher,
            resume_from,
        },
    );
    chain.client_sends(
        C,
        ClientToBroker::Hello {
            client: subscriber,
            resume_from,
        },
    );
    chain.settle();
    let schema = chain.registry.get(SchemaId::new(0)).unwrap().clone();
    let mut live: Vec<(SubscriptionId, Predicate)> = Vec::new();
    let (mut expected, mut next_id) = (Vec::new(), 0);
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
                chain.client_sends(A, ClientToBroker::Publish { event });
            }
            6..=11 => chain.pump(rng.random_range(1..=8)),
            12 => chain.cut(rng.random_range(0..2)),
            13 | 14 => {
                let l = rng.random_range(0..2);
                chain.dial(l, l + rng.random_range(0..2));
            }
            15 | 16 => chain.advance(Duration::from_millis(rng.random_range(0..1500))),
            17 | 18 if live.len() < 4 => {
                chain.settle();
                let expression = FILTERS[rng.random_range(0..FILTERS.len())];
                let subscribe = ClientToBroker::Subscribe {
                    schema: SchemaId::new(0),
                    expression: expression.into(),
                };
                chain.client_sends(C, subscribe);
                let id = chain
                    .sub_acks
                    .pop()
                    .expect("the subscription is acknowledged");
                live.push((id, parse_predicate(&schema, expression).unwrap()));
                chain.settle();
            }
            _ if !live.is_empty() => {
                chain.settle();
                let (id, _) = live.remove(rng.random_range(0..live.len()));
                chain.client_sends(C, ClientToBroker::Unsubscribe { id });
                chain.settle();
            }
            _ => {}
        }
    }
    chain.settle();
    let total = |counter: fn(&StatsInner) -> &AtomicU64| {
        let cores = chain.cores.iter();
        cores
            .map(|c| counter(&c.stats).load(Ordering::Relaxed))
            .sum()
    };
    Run {
        retransmitted: total(|s| &s.retransmitted),
        timeouts: total(|s| &s.liveness_timeouts),
        logs: chain.logs,
        delivered: chain.delivered,
        expected,
        cuts: chain.cuts,
    }
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
    let (mut cuts, mut retransmitted, mut timeouts) = (0, 0, 0);
    for &seed in SEEDS {
        let t0 = Instant::now();
        let run = run_schedule(seed, t0);
        assert_eq!(
            run.delivered, run.expected,
            "seed {seed}: delivered != oracle"
        );
        let again = run_schedule(seed, t0);
        for (core, (a, b)) in run.logs.iter().zip(&again.logs).enumerate() {
            let first = a.iter().zip(b).position(|(x, y)| x != y);
            assert_eq!(first, None, "seed {seed}: core {core} diverges on replay");
            assert_eq!(a.len(), b.len(), "seed {seed}: core {core} log length");
        }
        cuts += run.cuts;
        retransmitted += run.retransmitted;
        timeouts += run.timeouts;
    }
    // The schedules drop links, time them out and retransmit.
    let drawn = (cuts > 0, timeouts > 0, retransmitted > 0);
    assert_eq!(
        drawn,
        (true, true, true),
        "{cuts} {timeouts} {retransmitted}"
    );
}
