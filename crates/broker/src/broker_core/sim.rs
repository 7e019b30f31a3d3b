//! A discrete-event simulator that steps real broker cores in virtual time
//! (DESIGN.md §12.2): no thread, no socket, and no clock but one base
//! `Instant` plus the offset of the event being run.
//!
//! One heap orders every event by `(at, seq)`: a frame landing on one end
//! of a connection, a command a core is handed (a hang-up, a repair
//! escalation), a core's timer, a service finishing, a link supervisor's
//! dial, a dial's handshake deadline, and the cut of a connection closed
//! after flush. Each broker edge has a delay, a jitter and an up flag, each
//! of its directions a stall flag. A connection is FIFO per direction, so
//! frames on different links interleave in orders the seed picks; nothing
//! inside a live connection is lost or duplicated, because the transport
//! contract is a reliable ordered stream and loss is a cut (§12.1).
//!
//! Cores are driven as the engine thread drives them: `step(command, now)`
//! then `on_clock(now)`, one timer pending per core at `next_deadline()`.
//! Each edge's dialler — its higher-numbered end — owns a `Redial`, and a
//! boot, first or after a crash or restart, goes through the constructor
//! the shell uses.
//!
//! **Service time.** The paper's §4.1 model charges a broker per event for
//! its matching steps and the copies it sends. A [`CostModel`] charges a
//! core step `base + step × (match steps it took) + send × (frames it
//! sent)`; the frames depart when that service completes, and services
//! queue FIFO per core. A step that matches nothing and sends nothing (an
//! ack) is free and is not queued. Under the zero model, the default, every
//! step's frames depart at once.
//!
//! [`Spec::from_fabric`] builds a cluster over a [`RoutingFabric`] with the
//! network's own hop delays and no jitter; clients connect, subscribe and
//! publish by their `ClientId`'s index. `linkcast-sim` drives the paper's
//! Figure 6 network through this module.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "a harness: a panic fails the simulated run that hit it, not a broker"
)]

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use linkcast::RoutingFabric;
use linkcast_types::{BrokerId, ClientId, Event, SchemaId, SchemaRegistry, SubscriptionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{BrokerCore, Out};
use crate::broker::{BrokerConfig, Command};
use crate::counters::{Derived, NodeCounters};
use crate::link::{Link, Redial};
use crate::outbox::ConnId;
use crate::protocol::{self, BrokerToClient, ClientToBroker, FrameTag};
use crate::storage::{SimStorage, Storage};
use crate::transport::FrameBatch;

/// One-way delay of a client connection.
const CLIENT_DELAY: Duration = Duration::from_millis(1);

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
    /// What the core did to its connections since the last call.
    pub(crate) fn take_io(&mut self) -> Vec<Io> {
        self.out.0.take()
    }
}

/// The §4.1 service-time model: how long one core step occupies a
/// broker's processor. The default charges nothing.
///
/// The paper charges an event for "waiting at an incoming broker queue,
/// getting matched, and being sent (software latency of the communication
/// stack)", the matched portion scaling with matching steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostModel {
    /// Fixed cost of a charged step (receive + dispatch), µs.
    pub base_us: f64,
    /// Cost per matching step, µs.
    pub step_us: f64,
    /// Cost per frame sent (communication-stack software latency), µs.
    pub send_us: f64,
}

impl CostModel {
    /// Service time for a step that took `steps` matching steps and sent
    /// `frames` frames, in µs.
    pub fn service_us(&self, steps: u64, frames: usize) -> f64 {
        self.base_us + self.step_us * steps as f64 + self.send_us * frames as f64
    }
}

/// What a core's processor did since [`Sim::take_loads`] last read it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Load {
    /// Charged steps.
    pub services: u64,
    /// Time spent serving them.
    pub busy: Duration,
    /// Matching steps they took.
    pub steps: u64,
    /// Most services queued at once behind the one in progress: the
    /// longest the input queue grew.
    pub max_queue: usize,
}

/// Boots node `n`'s lifetime `life` at `at` through the constructor the
/// shell uses, a fresh incarnation derived from the seed (splitmix64 of
/// seed, node and lifetime; never 0, which means "none seen").
fn boot(
    config: &BrokerConfig,
    seed: u64,
    n: usize,
    life: u64,
    at: Instant,
) -> BrokerCore<Recording> {
    let mut z = (seed ^ ((n as u64) << 32) ^ life).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let incarnation = (z ^ (z >> 31)) | 1;
    let core = BrokerCore::boot(config.clone(), incarnation, Recording::default(), at);
    core.expect("a simulated boot cannot fail")
}

/// How often each fault was drawn, by name: "cut" (a broker connection
/// killed, timed out, displaced or closed), "liveness timeout",
/// "retransmit", "escalation" (a `LinkUnreachable` a `Redial` raised),
/// "recovery" (a boot that recovered durable state), "suffix replay" (a
/// recovery that replayed WAL records on top of its snapshot),
/// "checkpoint" (a snapshot the `SNAPSHOT_EVERY` cadence took), "restart",
/// and "overtake" (a frame landing ahead of one sent earlier on another
/// connection).
#[derive(Debug, Default, Clone)]
pub(crate) struct Drawn(BTreeMap<&'static str, u64>);

impl Drawn {
    fn count(&mut self, fault: &'static str, n: u64) {
        *self.0.entry(fault).or_default() += n;
    }

    #[cfg(test)]
    pub(crate) fn add(&mut self, other: &Drawn) {
        for (&fault, &n) in &other.0 {
            self.count(fault, n);
        }
    }

    /// The faults of `wanted` never drawn.
    #[cfg(test)]
    pub(crate) fn missing(&self, wanted: &[&'static str]) -> Vec<&'static str> {
        let never = |f: &&str| self.0.get(f).is_none_or(|&n| n == 0);
        wanted.iter().copied().filter(never).collect()
    }
}

/// One end of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// A broker, in one lifetime: frames for an earlier one are lost.
    Core(usize, u64),
    Client(usize),
}

struct Conn {
    /// End 0 dialled end 1.
    ends: [End; 2],
    edge: Option<usize>,
    /// When the last frame each end sent is due at the other.
    due: [Duration; 2],
    /// Each end's close-after-flush: what it sends from then on is dropped.
    closing: [bool; 2],
    /// The dialler has heard a frame.
    heard: bool,
}

struct Edge {
    /// The acceptor, and the dialler (the higher-numbered end).
    ends: (usize, usize),
    up: bool,
    delay: Duration,
    jitter: Duration,
    /// Per direction, by the sending end's index (0: the dialler's frames,
    /// 1: the acceptor's): held, not delivered.
    stalled: [bool; 2],
    /// Held frames, in send order: their connection and sending end.
    held: Vec<(ConnId, usize, Bytes)>,
    redial: Redial,
    /// Dial events of an older generation are stale.
    dial_gen: u64,
    /// The supervisor's connection and when it was dialled.
    dialled: Option<(ConnId, Duration)>,
    /// `Forward` frames sent, by the sending end's index as in `stalled`.
    forwards: [u64; 2],
}

struct Node {
    core: BrokerCore<Recording>,
    config: BrokerConfig,
    #[cfg_attr(not(test), expect(dead_code, reason = "read by the fault models"))]
    storage: Option<Arc<SimStorage>>,
    life: u64,
    /// The deadline the pending timer event is for, and its generation.
    timer: (Instant, u64),
    /// Everything the core did to its connections, over all its lifetimes:
    /// the models compare it across runs.
    #[cfg(test)]
    log: Vec<Io>,
    /// The core's match steps when its last step was charged.
    steps: u64,
    /// When each unfinished service completes, in order.
    services: VecDeque<Duration>,
    load: Load,
}

/// A client, reading its connection as `Client` does.
pub(crate) struct SimClient {
    pub(crate) id: ClientId,
    home: usize,
    conn: Option<ConnId>,
    /// The broker's `Welcome` echo on the current connection.
    resumed_from: Option<u64>,
    /// Every event delivered, over all its connections, and when.
    pub(crate) got: Vec<(Duration, Event)>,
    /// The answer to the request in progress, until its caller takes it.
    answer: Option<BrokerToClient>,
}

enum Ev {
    /// A frame lands on end `.1` of a connection; `.3` is its send order.
    Frame(ConnId, usize, Bytes, u64),
    /// A core, if still in lifetime `.1`, is handed a command.
    Input(usize, u64, Command),
    /// A core's timer, armed in generation `.1`.
    Timer(usize, u64),
    /// A core, if still in lifetime `.1`, finishes a service: what the
    /// step did goes out.
    Done(usize, u64, Vec<Io>),
    /// An edge's supervisor dials, if still in generation `.1`.
    Dial(usize, u64),
    /// A dialled connection that has heard nothing by now is cut.
    Handshake(ConnId),
    /// A connection closed after flush is cut.
    Cut(ConnId),
}

/// A simulated cluster: one core per broker of a fabric's network, and one
/// client per client of it.
pub struct Spec {
    pub(crate) seed: u64,
    pub(crate) fabric: Arc<RoutingFabric>,
    /// Broker edges `(a, b)`, `a < b` (`b` dials), with their one-way delay
    /// and jitter.
    pub(crate) edges: Vec<(usize, usize, Duration, Duration)>,
    /// Draws each frame's jitter.
    pub(crate) rng: StdRng,
    pub(crate) registry: Arc<SchemaRegistry>,
    /// Whether every broker journals to its own `SimStorage`.
    pub(crate) durable: bool,
}

impl Spec {
    /// `fabric`'s network serving `registry`, each broker edge at the
    /// network's own hop delay with no jitter, no storage.
    pub fn from_fabric(fabric: Arc<RoutingFabric>, registry: Arc<SchemaRegistry>) -> Spec {
        let network = fabric.network();
        let mut edges = Vec::new();
        for a in network.brokers() {
            for &(b, ms) in network.neighbors(a).iter().filter(|(b, _)| *b > a) {
                let delay = Duration::from_secs_f64(ms / 1000.0);
                edges.push((a.index(), b.index(), delay, Duration::ZERO));
            }
        }
        Spec {
            seed: 0,
            fabric,
            edges,
            rng: StdRng::seed_from_u64(0),
            registry,
            durable: false,
        }
    }
}

/// A simulated cluster of [`Spec`]'s cores and clients, in virtual time.
pub struct Sim {
    #[cfg_attr(not(test), expect(dead_code, reason = "read by the fault models"))]
    seed: u64,
    base: Instant,
    now: Duration,
    queue: BinaryHeap<Reverse<(Duration, u64)>>,
    events: HashMap<u64, Ev>,
    /// The last number handed out: event sequence, connection id and send
    /// order all draw from it, so each is unique and increasing.
    last_id: u64,
    rng: StdRng,
    costs: CostModel,
    pub(crate) registry: Arc<SchemaRegistry>,
    #[cfg_attr(not(test), expect(dead_code, reason = "read by the fault models"))]
    pub(crate) fabric: Arc<RoutingFabric>,
    pub(crate) brokers: Vec<BrokerId>,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    conns: BTreeMap<ConnId, Conn>,
    pub(crate) clients: Vec<SimClient>,
    /// Frames in flight by send order, and their connection.
    in_flight: BTreeMap<u64, ConnId>,
    /// Faults drawn, with the counters of cores no longer running.
    drawn: Drawn,
}

impl Sim {
    /// Boots `spec`'s cluster at virtual time zero, `base` in the cores'
    /// eyes; `tune` adjusts every broker's configuration.
    ///
    /// # Panics
    ///
    /// If an edge's first end is not the lower-numbered one, or a core
    /// cannot boot.
    pub fn new(spec: Spec, base: Instant, tune: impl Fn(&mut BrokerConfig)) -> Sim {
        let network = spec.fabric.network();
        let brokers: Vec<BrokerId> = network.brokers().collect();
        let mut nodes = Vec::new();
        for (n, &broker) in brokers.iter().enumerate() {
            let (fabric, registry) = (Arc::clone(&spec.fabric), Arc::clone(&spec.registry));
            let mut config = BrokerConfig::localhost(broker, fabric, registry);
            tune(&mut config);
            let storage = spec.durable.then(|| Arc::new(SimStorage::new()));
            config.storage = storage.clone().map(|s| s as Arc<dyn Storage>);
            nodes.push(Node {
                core: boot(&config, spec.seed, n, 1, base),
                config,
                storage,
                life: 1,
                timer: (base, 0),
                #[cfg(test)]
                log: Vec::new(),
                steps: 0,
                services: VecDeque::new(),
                load: Load::default(),
            });
        }
        let edges = (spec.edges.iter())
            .map(|&(a, b, delay, jitter)| {
                assert!(a < b, "edge ({a}, {b}): the dialler is the higher end");
                Edge {
                    ends: (a, b),
                    up: true,
                    delay,
                    jitter,
                    stalled: [false; 2],
                    held: Vec::new(),
                    redial: Redial::new(brokers[b], brokers[a], 0),
                    dial_gen: 0,
                    dialled: None,
                    forwards: [0; 2],
                }
            })
            .collect();
        let clients = (network.clients())
            .map(|id| SimClient {
                id,
                home: network.home_broker(id).unwrap().index(),
                conn: None,
                resumed_from: None,
                got: Vec::new(),
                answer: None,
            })
            .collect();
        let mut sim = Sim {
            seed: spec.seed,
            base,
            now: Duration::ZERO,
            queue: BinaryHeap::new(),
            events: HashMap::new(),
            last_id: 0,
            rng: spec.rng,
            costs: CostModel::default(),
            registry: spec.registry,
            fabric: spec.fabric,
            brokers,
            nodes,
            edges,
            conns: BTreeMap::new(),
            clients,
            in_flight: BTreeMap::new(),
            drawn: Drawn::default(),
        };
        for n in 0..sim.nodes.len() {
            sim.started(n);
        }
        sim
    }

    /// Charges every core step from now on under `costs`.
    pub fn set_costs(&mut self, costs: CostModel) {
        self.costs = costs;
    }

    /// Virtual time since boot.
    pub fn now(&self) -> Duration {
        self.now
    }

    fn at(&self) -> Instant {
        self.base + self.now
    }

    fn next_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    fn schedule(&mut self, at: Duration, ev: Ev) {
        let seq = self.next_id();
        self.events.insert(seq, ev);
        self.queue.push(Reverse((at, seq)));
    }

    /// Runs the next event; `false` once none is due by `until`.
    fn run_one(&mut self, until: Duration) -> bool {
        let Some(&Reverse((at, seq))) = self.queue.peek() else {
            return false;
        };
        if at > until {
            return false;
        }
        self.queue.pop();
        self.now = at;
        match self.events.remove(&seq) {
            Some(Ev::Frame(conn, to, frame, sent)) => self.land(conn, to, frame, sent),
            Some(Ev::Input(n, life, command)) if self.nodes[n].life == life => {
                self.input(n, command);
            }
            Some(Ev::Timer(n, gen)) if self.nodes[n].timer.1 == gen => {
                let now = self.at();
                self.nodes[n].core.on_clock(now);
                self.settle_core(n);
            }
            Some(Ev::Done(n, life, io)) if self.nodes[n].life == life => {
                self.carry_out(n, io);
            }
            Some(Ev::Dial(e, gen)) if self.edges[e].dial_gen == gen => self.dial(e),
            Some(Ev::Handshake(conn)) if self.conns.get(&conn).is_some_and(|c| !c.heard) => {
                self.cut(conn);
            }
            Some(Ev::Cut(conn)) => self.cut(conn),
            _ => {} // stale
        }
        true
    }

    /// Moves virtual time on by `by`, running everything due meanwhile.
    pub fn run_for(&mut self, by: Duration) {
        let until = self.now + by;
        while self.run_one(until) {}
        self.now = until;
    }

    /// Runs until `done` holds, for at most `within` of virtual time.
    ///
    /// # Errors
    ///
    /// Past `within`, one that names `what` and dumps every core.
    pub fn run_until(
        &mut self,
        what: &str,
        within: Duration,
        done: impl Fn(&Sim) -> bool,
    ) -> Result<(), String> {
        let deadline = self.now + within;
        while !done(self) {
            if !self.run_one(deadline) {
                let (now, dump) = (self.now, self.dump());
                return Err(format!("timed out waiting for {what} at {now:?}\n{dump}"));
            }
        }
        Ok(())
    }

    /// Hands core `n` one command, as the engine thread does.
    fn input(&mut self, n: usize, command: Command) {
        let now = self.at();
        let core = &mut self.nodes[n].core;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let appends = load(&core.stats.wal_appends);
        let snapshots = load(&core.stats.snapshot_writes);
        core.step(command, now);
        core.on_clock(now);
        // Only a step that journals checkpoints on the cadence, and nothing
        // else checkpoints in it: the eager checkpoints follow subscription
        // changes, which journal nothing.
        if load(&core.stats.wal_appends) > appends {
            let cadence = load(&core.stats.snapshot_writes) - snapshots;
            self.drawn.count("checkpoint", cadence);
        }
        self.settle_core(n);
    }

    /// Charges core `n`'s step, carries out what it did — now, or when its
    /// service completes — and re-arms its timer.
    fn settle_core(&mut self, n: usize) {
        let now = self.now;
        let node = &mut self.nodes[n];
        let io = node.core.take_io();
        #[cfg(test)]
        node.log.extend(io.iter().cloned());
        let steps = node.core.match_stats.get().steps;
        let took = steps - std::mem::replace(&mut node.steps, steps);
        let sent = io.iter().filter(|io| matches!(io, Io::Send(..))).count();
        while node.services.front().is_some_and(|&done| done <= now) {
            node.services.pop_front();
        }
        // An ack matches nothing and sends nothing: it costs no service.
        if took == 0 && sent == 0 {
            self.carry_out(n, io);
        } else {
            let service = Duration::from_secs_f64(self.costs.service_us(took, sent) / 1e6);
            node.load.services += 1;
            node.load.busy += service;
            node.load.steps += took;
            let done = node.services.back().map_or(now, |&last| last.max(now)) + service;
            if done == now {
                self.carry_out(n, io);
            } else {
                node.services.push_back(done);
                let queued = node.services.len() - 1;
                node.load.max_queue = node.load.max_queue.max(queued);
                let life = node.life;
                self.schedule(done, Ev::Done(n, life, io));
            }
        }
        let deadline = self.nodes[n].core.next_deadline();
        let (armed, gen) = self.nodes[n].timer;
        if deadline != armed {
            self.nodes[n].timer = (deadline, gen + 1);
            let at = deadline.saturating_duration_since(self.base);
            self.schedule(at, Ev::Timer(n, gen + 1));
        }
    }

    /// Carries out what core `n` did to its connections.
    fn carry_out(&mut self, n: usize, io: Vec<Io>) {
        let me = End::Core(n, self.nodes[n].life);
        for io in io {
            let conn = match &io {
                Io::Send(conn, _) | Io::Unregister(conn) => *conn,
                Io::CloseAfterFlush(conn) | Io::Evict(conn, _) => *conn,
            };
            let Some(end) = self.end_of(conn, me) else {
                continue; // gone already: the transport drops it
            };
            match io {
                Io::Send(_, frame) => {
                    let forward =
                        frame.get(protocol::FRAME_PREFIX) == Some(&(FrameTag::Forward as u8));
                    if let Some(e) = self.conns[&conn].edge.filter(|_| forward) {
                        let by = usize::from(self.edges[e].ends.0 == n);
                        self.edges[e].forwards[by] += 1;
                    }
                    self.send(conn, end, frame);
                }
                Io::Unregister(_) | Io::Evict(_, None) => self.cut(conn),
                Io::Evict(_, Some(notice)) => {
                    self.send(conn, end, notice);
                    self.close_after_flush(conn, end);
                }
                Io::CloseAfterFlush(_) => self.close_after_flush(conn, end),
            }
        }
    }

    /// Which end of `conn` `end` is, if it is still open.
    fn end_of(&self, conn: ConnId, end: End) -> Option<usize> {
        let c = self.conns.get(&conn)?;
        c.ends.iter().position(|&e| e == end)
    }

    /// Node `n` has booted: its first timer is armed (any older one is
    /// stale) and the edges it dials get a fresh supervisor, dialling now.
    fn started(&mut self, n: usize) {
        self.nodes[n].timer.0 = self.base;
        self.settle_core(n);
        let repair_after = self.nodes[n].config.repair_after;
        for e in 0..self.edges.len() {
            let (a, b) = self.edges[e].ends;
            if b == n {
                self.edges[e].redial = Redial::new(self.brokers[b], self.brokers[a], repair_after);
                self.edges[e].dialled = None;
                self.redial_in(e, Duration::ZERO);
            }
        }
    }

    /// What core `n`'s counters read now.
    pub fn counts(&self, n: usize) -> NodeCounters {
        let core = &self.nodes[n].core;
        let matching = core.match_stats.get();
        core.stats.counters(Derived {
            match_cache_hits: matching.cache_hits,
            match_cache_misses: matching.cache_misses,
            match_cache_invalidations: matching.cache_invalidations,
        })
    }

    /// Core `n`'s services not yet completed.
    pub fn backlog(&self, n: usize) -> usize {
        let services = &self.nodes[n].services;
        services.len() - services.partition_point(|&done| done <= self.now)
    }

    /// Every core's [`Load`] since the last call, in broker order.
    pub fn take_loads(&mut self) -> Vec<Load> {
        let nodes = self.nodes.iter_mut();
        nodes.map(|node| std::mem::take(&mut node.load)).collect()
    }

    /// `Forward` frames sent so far per directed broker edge, as
    /// `((from, to), frames)`.
    pub fn forwards(&self) -> Vec<((BrokerId, BrokerId), u64)> {
        let mut out = Vec::new();
        for edge in &self.edges {
            let (a, b) = (self.brokers[edge.ends.0], self.brokers[edge.ends.1]);
            out.push(((b, a), edge.forwards[0]));
            out.push(((a, b), edge.forwards[1]));
        }
        out
    }

    /// Core `n`'s link to core `m`.
    pub(crate) fn link(&self, n: usize, m: usize) -> Option<&Link> {
        self.nodes[n].core.links.get(&self.brokers[m])
    }

    /// Whether edge `e` carries one connection both ends have greeted.
    pub(crate) fn established(&self, e: usize) -> bool {
        let (a, b) = self.edges[e].ends;
        let at = |n, m| self.link(n, m).and_then(Link::established);
        at(a, b).is_some() && at(a, b) == at(b, a)
    }

    /// Every live edge established, and no dead one connected at either end.
    pub fn meshed(&self) -> bool {
        (0..self.edges.len()).all(|e| {
            let (a, b) = self.edges[e].ends;
            let down = |n, m| self.link(n, m).and_then(Link::conn).is_none();
            if self.edges[e].up {
                self.established(e)
            } else {
                down(a, b) && down(b, a)
            }
        })
    }

    /// One line per core: its epoch and subscriptions, and per link whether
    /// it is established, the spool's length and the receive window.
    fn dump(&self) -> String {
        let mut out = format!("{} frames in flight\n", self.in_flight.len());
        for (n, node) in self.nodes.iter().enumerate() {
            let (core, life) = (&node.core, node.life);
            let subs = core.engine.subscription_count();
            out += &format!("b{n} life {life} epoch {} subs {subs}:", core.epoch);
            for (peer, link) in &core.links {
                let (seq, durable, acked, _) = link.window();
                let (est, spool) = (link.established().is_some(), link.spool().len());
                out += &format!(" [{peer} est={est} spool={spool} window={seq}/{durable}/{acked}]");
            }
            out.push('\n');
        }
        out
    }

    /// Opens a connection `ends[0]` dialled, on `edge` if a broker link.
    fn open(&mut self, ends: [End; 2], edge: Option<usize>) -> ConnId {
        let conn = self.next_id();
        let (due, closing, heard) = ([self.now; 2], [false; 2], false);
        let c = Conn {
            ends,
            edge,
            due,
            closing,
            heard,
        };
        self.conns.insert(conn, c);
        conn
    }

    /// End `from` of `conn` sends `frame`: due after the delay and the
    /// jitter, and never ahead of what it sent before.
    fn send(&mut self, conn: ConnId, from: usize, frame: Bytes) {
        let Some(c) = self.conns.get(&conn).filter(|c| !c.closing[from]) else {
            return;
        };
        let (delay, jitter) = match c.edge {
            Some(e) if self.edges[e].stalled[from] => {
                self.edges[e].held.push((conn, from, frame));
                return;
            }
            Some(e) => (self.edges[e].delay, self.edges[e].jitter),
            None => (CLIENT_DELAY, Duration::ZERO),
        };
        let extra = Duration::from_micros(self.rng.random_range(0..=jitter.as_micros() as u64));
        let sent = self.next_id();
        let c = self.conns.get_mut(&conn).expect("checked above");
        let at = c.due[from].max(self.now + delay + extra);
        c.due[from] = at;
        self.in_flight.insert(sent, conn);
        self.schedule(at, Ev::Frame(conn, 1 - from, frame, sent));
    }

    /// A frame lands on end `to` of `conn`.
    fn land(&mut self, conn: ConnId, to: usize, frame: Bytes, sent: u64) {
        if self.in_flight.remove(&sent).is_none() {
            return; // lost to a cut
        }
        let first = self.in_flight.first_key_value();
        if first.is_some_and(|(&earlier, &other)| earlier < sent && other != conn) {
            self.drawn.count("overtake", 1);
        }
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        c.heard |= to == 0;
        match c.ends[to] {
            End::Core(n, life) if self.nodes[n].life == life => {
                self.input(n, Command::Frames(conn, FrameBatch::single(frame)));
            }
            End::Core(..) => {} // a dead lifetime reads nothing
            End::Client(j) => self.client_reads(j, conn, frame),
        }
    }

    /// `conn` is gone: what is in flight on it is lost, and each end that
    /// still runs hears of it.
    fn cut(&mut self, conn: ConnId) {
        let Some(c) = self.conns.remove(&conn) else {
            return;
        };
        self.in_flight.retain(|_, &mut on| on != conn);
        if let Some(e) = c.edge {
            self.drawn.count("cut", 1);
            self.edges[e].held.retain(|held| held.0 != conn);
            if let Some((_, at)) = self.edges[e].dialled.filter(|d| d.0 == conn) {
                // The supervisor's read loop ends.
                self.edges[e].dialled = None;
                let (pause, escalate) = self.edges[e].redial.ended(c.heard, self.now - at);
                self.escalate_if(e, escalate);
                self.redial_in(e, pause);
            }
        }
        for end in c.ends {
            match end {
                End::Core(n, life) if self.nodes[n].life == life => {
                    self.schedule(self.now, Ev::Input(n, life, Command::Disconnected(conn)));
                }
                End::Core(..) => {}
                End::Client(j) => {
                    let client = &mut self.clients[j];
                    client.conn = client.conn.filter(|&c| c != conn);
                }
            }
        }
    }

    /// End `from` closes `conn` once what it already sent has landed.
    fn close_after_flush(&mut self, conn: ConnId, from: usize) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.closing[from] = true;
            let at = c.due[from].max(self.now);
            self.schedule(at, Ev::Cut(conn));
        }
    }

    fn redial_in(&mut self, e: usize, pause: Duration) {
        self.edges[e].dial_gen += 1;
        let gen = self.edges[e].dial_gen;
        self.schedule(self.now + pause, Ev::Dial(e, gen));
    }

    fn escalate_if(&mut self, e: usize, escalate: bool) {
        if escalate {
            self.drawn.count("escalation", 1);
            let (a, b) = self.edges[e].ends;
            let command = Command::LinkUnreachable(self.brokers[a]);
            self.schedule(self.now, Ev::Input(b, self.nodes[b].life, command));
        }
    }

    /// Edge `e`'s supervisor dials: refused while the edge is down, else a
    /// connection the acceptor learns of by its first frame.
    fn dial(&mut self, e: usize) {
        let (a, b) = self.edges[e].ends;
        if !self.edges[e].up {
            let (pause, escalate) = self.edges[e].redial.refused();
            self.escalate_if(e, escalate);
            self.redial_in(e, pause);
            return;
        }
        let ends = [
            End::Core(b, self.nodes[b].life),
            End::Core(a, self.nodes[a].life),
        ];
        let conn = self.open(ends, Some(e));
        self.edges[e].dialled = Some((conn, self.now));
        let deadline = self.now + self.nodes[b].config.link_handshake_timeout;
        self.schedule(deadline, Ev::Handshake(conn));
        self.input(b, Command::DialedNeighbor(conn, self.brokers[a]));
    }

    /// Client `j` connects to its home broker, resuming after `resume_from`.
    pub fn connect(&mut self, j: usize, resume_from: u64) {
        let home = self.clients[j].home;
        let conn = self.open(
            [End::Client(j), End::Core(home, self.nodes[home].life)],
            None,
        );
        let client = &mut self.clients[j];
        (client.conn, client.resumed_from) = (Some(conn), None);
        let client = client.id;
        self.client_sends(
            j,
            ClientToBroker::Hello {
                client,
                resume_from,
            },
        );
    }

    /// Whether client `j` is connected and welcomed.
    pub fn welcomed(&self, j: usize) -> bool {
        self.clients[j].conn.is_some() && self.clients[j].resumed_from.is_some()
    }

    pub(crate) fn client_sends(&mut self, j: usize, message: ClientToBroker) {
        if let Some(conn) = self.clients[j].conn {
            self.send(conn, 0, message.encode());
        }
    }

    /// Client `j` publishes `event`.
    pub fn publish(&mut self, j: usize, event: Event) {
        self.client_sends(j, ClientToBroker::Publish { event });
    }

    /// Client `j` subscribes to `expression` in the first information space
    /// and waits for the broker's answer.
    ///
    /// # Errors
    ///
    /// The broker's refusal, or no answer within 5 s.
    pub fn subscribe(&mut self, j: usize, expression: &str) -> Result<SubscriptionId, String> {
        let (schema, expression) = (SchemaId::new(0), expression.into());
        match self.request(j, ClientToBroker::Subscribe { schema, expression })? {
            BrokerToClient::SubAck { id } => Ok(id),
            other => Err(format!("client {j} asked to subscribe, got {other:?}")),
        }
    }

    /// Client `j` sends `message` and runs until the broker answers.
    fn request(&mut self, j: usize, message: ClientToBroker) -> Result<BrokerToClient, String> {
        self.client_sends(j, message);
        let answered = |sim: &Sim| sim.clients[j].answer.is_some();
        self.run_until(
            &format!("client {j}'s answer"),
            Duration::from_secs(5),
            answered,
        )?;
        Ok(self.clients[j].answer.take().expect("answered"))
    }

    /// The events delivered to client `j` since the last call, each with
    /// the instant it landed.
    pub fn take_deliveries(&mut self, j: usize) -> Vec<(Duration, Event)> {
        std::mem::take(&mut self.clients[j].got)
    }

    /// What client `j` makes of a frame: deliveries are kept and acked at
    /// once, as `Client::recv` does; answers wait for their caller.
    fn client_reads(&mut self, j: usize, conn: ConnId, frame: Bytes) {
        let payload = frame.slice(protocol::FRAME_PREFIX..);
        let client = &mut self.clients[j];
        match BrokerToClient::decode(payload, &self.registry).unwrap() {
            BrokerToClient::Welcome { resume_from, .. } => client.resumed_from = Some(resume_from),
            BrokerToClient::Deliver { seq, event } => {
                client.got.push((self.now, event));
                self.send(conn, 0, ClientToBroker::Ack { seq }.encode());
            }
            BrokerToClient::Stats(_) => {}
            answer => client.answer = Some(answer),
        }
    }
}

/// Fault injection and inspection, for the models in `des`.
#[cfg(test)]
impl Sim {
    /// Node `n`'s open connections, and which end of each it is.
    fn conns_of(&self, n: usize) -> Vec<(ConnId, usize)> {
        let me = End::Core(n, self.nodes[n].life);
        let ends = self.conns.iter();
        ends.filter_map(|(&id, c)| Some((id, c.ends.iter().position(|&e| e == me)?)))
            .collect()
    }

    /// Boots node `n` into its next lifetime, recovering what its storage
    /// holds, after retiring its counters into the drawn faults.
    fn reboot(&mut self, n: usize) {
        let retired = self.node_drawn(n);
        self.drawn.add(&retired);
        let node = &mut self.nodes[n];
        node.life += 1;
        node.core = boot(&node.config, self.seed, n, node.life, self.base + self.now);
        (node.steps, node.services) = (0, VecDeque::new());
        let stats = &node.core.stats;
        let recovered = stats.recoveries.load(Ordering::Relaxed);
        self.drawn.count("recovery", recovered);
        let replayed = stats.wal_replayed.load(Ordering::Relaxed) > 0;
        self.drawn
            .count("suffix replay", u64::from(recovered > 0 && replayed));
        self.started(n);
    }

    /// Core `n`'s topology epoch.
    pub(crate) fn epoch(&self, n: usize) -> u64 {
        self.nodes[n].core.epoch
    }

    /// Every core's `Io` log, over all its lifetimes.
    pub(crate) fn logs(&self) -> Vec<Vec<Io>> {
        self.nodes.iter().map(|n| n.log.clone()).collect()
    }

    /// The faults drawn so far.
    pub(crate) fn drawn(&self) -> Drawn {
        let mut drawn = self.drawn.clone();
        for n in 0..self.nodes.len() {
            drawn.add(&self.node_drawn(n));
        }
        drawn
    }

    /// The faults core `n`'s own counters saw.
    fn node_drawn(&self, n: usize) -> Drawn {
        let counts = self.counts(n);
        let mut drawn = Drawn::default();
        drawn.count("liveness timeout", counts.liveness_timeouts());
        drawn.count("retransmit", counts.retransmitted());
        drawn
    }

    /// Nothing in flight and nothing held.
    pub(crate) fn quiet(&self) -> bool {
        self.in_flight.is_empty() && self.edges.iter().all(|e| e.held.is_empty())
    }

    /// Cuts edge `e`'s connections and refuses dials until [`revive`](Self::revive).
    pub(crate) fn kill(&mut self, e: usize) {
        self.edges[e].up = false;
        let on = self.conns.iter().filter(|(_, c)| c.edge == Some(e));
        let on: Vec<ConnId> = on.map(|(&id, _)| id).collect();
        for conn in on {
            self.cut(conn);
        }
    }

    pub(crate) fn revive(&mut self, e: usize) {
        self.edges[e].up = true;
    }

    /// Holds (or, `on = false`, releases) the frames edge `e` carries from
    /// its dialler (`from_dialler`) or toward it.
    pub(crate) fn stall(&mut self, e: usize, from_dialler: bool, on: bool) {
        let from = usize::from(!from_dialler);
        self.edges[e].stalled[from] = on;
        if !on {
            let held = std::mem::take(&mut self.edges[e].held);
            let (release, keep) = held.into_iter().partition(|h| h.1 == from);
            self.edges[e].held = keep;
            for (conn, from, frame) in release {
                self.send(conn, from, frame);
            }
        }
    }

    /// Releases every stall and revives every edge.
    pub(crate) fn heal(&mut self) {
        for e in 0..self.edges.len() {
            self.stall(e, true, false);
            self.stall(e, false, false);
            self.revive(e);
        }
    }

    /// Node `n` loses power: no ack flush, every connection cut with what
    /// is in flight both ways, its storage degraded by `cut`; then it boots.
    pub(crate) fn crash(&mut self, n: usize, cut: crate::storage::PowerCut) {
        for (conn, _) in self.conns_of(n) {
            self.cut(conn);
        }
        if let Some(storage) = &self.nodes[n].storage {
            storage.power_cut(cut);
        }
        self.reboot(n);
    }

    /// Node `n` shuts down gracefully — the acks it owes, then every
    /// connection closed after flush — and boots again.
    pub(crate) fn restart(&mut self, n: usize) {
        self.nodes[n].core.flush_forward_acks();
        self.settle_core(n);
        for (conn, end) in self.conns_of(n) {
            self.close_after_flush(conn, end);
        }
        self.drawn.count("restart", 1);
        self.reboot(n);
    }

    /// Whether client `j`'s connection is gone.
    pub(crate) fn disconnected(&self, j: usize) -> bool {
        self.clients[j].conn.is_none()
    }

    /// Client `j` unsubscribes `id` and waits for the broker's answer.
    pub(crate) fn unsubscribe(&mut self, j: usize, id: SubscriptionId) -> Result<(), String> {
        match self.request(j, ClientToBroker::Unsubscribe { id })? {
            BrokerToClient::UnsubAck { id: acked } if acked == id => Ok(()),
            other => Err(format!(
                "client {j} asked to unsubscribe {id}, got {other:?}"
            )),
        }
    }

    /// Whether client `j` was delivered `n` events or more.
    pub(crate) fn holds(&self, j: usize, n: usize) -> bool {
        self.clients[j].got.len() >= n
    }

    /// The `n`s client `j` was delivered (attribute 0 of `ticks`).
    pub(crate) fn ticks_of(&self, j: usize) -> Vec<i64> {
        let got = self.clients[j].got.iter();
        got.map(|(_, e)| e.value(0).and_then(linkcast_types::Value::as_int).unwrap())
            .collect()
    }
}
