//! The broker node: connection manager, protocol state machine, and
//! lifecycle.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use linkcast::{LinkTarget, MatchCache, RouteScratch, RoutingFabric, TreeId};
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    wire, BrokerId, ClientId, Event, LinkId, SchemaId, SchemaRegistry, SubscriberId, Subscription,
    SubscriptionId,
};
use parking_lot::Mutex;

use crate::control::{SubIdAllocator, TombstoneSet, SUB_COUNTER_BITS, SUB_ID_SPACE};
use crate::counters::{BrokerStats, Derived, Gauges, StatsInner};
use crate::engine::MatchingEngine;
use crate::link::{heartbeat_jitter_seed, jitter_seed, jittered_backoff, Link, Mark, Tick};
use crate::log::EventLog;
use crate::outbox::{ConnId, Outbox, Sink};
use crate::protocol::{self, BrokerToBroker, BrokerToClient, ClientToBroker};
use crate::storage::{self, Storage, WalOp};
use crate::tcp::TcpTransport;
use crate::transport::{self, FrameBatch, Transport};

/// Initial (and minimum) redial backoff for supervised links.
const LINK_REDIAL_MIN: Duration = Duration::from_millis(50);
/// Redial backoff ceiling.
const LINK_REDIAL_MAX: Duration = Duration::from_secs(2);
/// How long a supervised link must survive before the redial backoff
/// resets to the minimum. A neighbor that accepts the TCP handshake and
/// then immediately dies (crash loop) keeps backing off instead of being
/// hot-redialed at the minimum interval forever.
const LINK_STABILITY_WINDOW: Duration = Duration::from_secs(2);
/// SO_SNDTIMEO applied to every TCP connection: a peer that stops reading
/// while the kernel send buffer is full fails the write (and is
/// disconnected) instead of wedging a sender-pool thread indefinitely.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of one broker node.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// This broker's identity in the topology.
    pub broker: BrokerId,
    /// Shared topology + spanning trees (identical on every node).
    pub fabric: Arc<RoutingFabric>,
    /// Information spaces served.
    pub registry: Arc<SchemaRegistry>,
    /// Listen address; use port 0 to let the OS pick.
    pub listen: SocketAddr,
    /// The network the node binds and dials through:
    /// [`TcpTransport`] (the default) for real sockets, or a
    /// [`SimNet`](crate::SimNet) host for deterministic in-process
    /// clusters.
    pub transport: Arc<dyn Transport>,
    /// Size of the sending-thread pool.
    pub sender_threads: usize,
    /// Garbage-collection period for client event logs.
    pub gc_interval: Duration,
    /// Maximum retained entries per client log (older unacknowledged
    /// entries are dropped and counted as lost).
    pub log_bound: usize,
    /// How long a disconnected client's log is retained before the garbage
    /// collector reclaims it entirely. A client reconnecting later starts a
    /// fresh session (sequence numbers restart).
    pub client_ttl: Duration,
    /// Capacity of the match-result cache (entries), keyed by the event's
    /// *tested* attribute values and invalidated wholesale when the
    /// subscription set changes generation. `0` disables caching.
    pub match_cache_cap: usize,
    /// How long a broker link may sit with no *received* traffic before the
    /// engine probes it with a `Ping`. Doubles as the heartbeat timer's
    /// period, so detection granularity is one interval.
    pub heartbeat_interval: Duration,
    /// How long a broker link may stay completely silent (no frames at
    /// all — a live peer answers pings) before it is declared dead and torn
    /// down. The link spool keeps every unacknowledged frame, so the redial
    /// handshake retransmits and nothing is lost. Should be several
    /// heartbeat intervals.
    pub liveness_timeout: Duration,
    /// Per-connection cap on queued outgoing bytes. A client that crosses
    /// it (a subscriber that stopped reading) is evicted with a final
    /// `Error` frame; a broker peer that crosses it is disconnected and its
    /// spool retransmits after the redial. Either way one stalled consumer
    /// costs at most this much memory, not the broker.
    pub conn_queue_bound: u64,
    /// Graceful-shutdown drain deadline: how long [`BrokerNode::shutdown`]
    /// waits for queued frames (final acks, tail-of-stream deliveries) to
    /// flush before cutting stragglers off.
    pub drain_timeout: Duration,
    /// How long a dialed neighbor may take to send its first frame (the
    /// `Hello` handshake answer) before the link supervisor gives up and
    /// redials with backoff. A peer that accepts the TCP connection and
    /// then stalls would otherwise wedge the link forever.
    pub link_handshake_timeout: Duration,
    /// Durable storage for crash consistency, or `None` (the default) for
    /// a purely in-memory broker. With storage configured, every routed
    /// event's spool appends and receive mark commit to a write-ahead log
    /// (fsynced: a torn tail record can only ever describe frames no peer
    /// received) before its `Forward` frames reach the wire, control state
    /// (subscriptions, id allocator, incarnation, link windows) checkpoints
    /// to snapshots, and boot becomes recovery: load the snapshot, replay
    /// the WAL suffix, discard torn tails, and resume the *same*
    /// incarnation — to peers a crash looks like a long link stall, not a
    /// restart. See `DESIGN.md` §14.
    pub storage: Option<Arc<dyn Storage>>,
    /// Snapshot cadence with storage configured: after this many WAL
    /// records the broker checkpoints a snapshot and truncates the log,
    /// bounding both recovery replay time and WAL growth.
    pub snapshot_every: u64,
    /// Consecutive failed redials of a supervised link
    /// ([`BrokerNode::connect_to_persistent`]) after which the dialing
    /// broker declares the link dead and floods a `LinkDown` statement,
    /// triggering a topology repair: every broker recomputes its spanning
    /// forest over the surviving graph and routing cuts over under a new
    /// topology epoch (see `DESIGN.md` §15). `0` (the default) disables
    /// escalation — transient flaps then rely on spool-and-retransmit
    /// alone, which on a non-redundant (tree) topology is the only option
    /// anyway: repair can reroute only while the surviving graph stays
    /// connected. Escalation fires once per down episode; a successful
    /// handshake re-arms it.
    pub repair_after: u32,
}

impl BrokerConfig {
    /// A localhost configuration with OS-assigned port and default tuning.
    pub fn localhost(
        broker: BrokerId,
        fabric: Arc<RoutingFabric>,
        registry: Arc<SchemaRegistry>,
    ) -> Self {
        BrokerConfig {
            broker,
            fabric,
            registry,
            // analyzer:allow(panic): startup-time parse of a literal address, not dataflow
            listen: "127.0.0.1:0".parse().expect("valid literal address"),
            transport: Arc::new(TcpTransport),
            sender_threads: 2,
            gc_interval: Duration::from_millis(250),
            log_bound: 4096,
            client_ttl: Duration::from_secs(3600),
            match_cache_cap: 0,
            heartbeat_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(5),
            conn_queue_bound: 8 * 1024 * 1024,
            drain_timeout: Duration::from_secs(1),
            link_handshake_timeout: Duration::from_secs(2),
            repair_after: 0,
            storage: None,
            snapshot_every: 256,
        }
    }
}

pub(crate) enum Command {
    /// The frames one read of a connection completed, in arrival order
    /// (length prefixes kept).
    Frames(ConnId, FrameBatch),
    /// The dialing side knows which neighbor it reached.
    DialedNeighbor(ConnId, BrokerId),
    /// A connection died (reader EOF/error or writer failure).
    Disconnected(ConnId),
    /// A supervised link's redial escalation crossed
    /// [`BrokerConfig::repair_after`] consecutive failures (or an
    /// operator called [`BrokerNode::mark_link_down`]): declare the edge
    /// to this neighbor dead, flood the `LinkDown` statement, and repair
    /// the topology around it.
    LinkUnreachable(BrokerId),
    /// A connection's outgoing queue crossed
    /// [`BrokerConfig::conn_queue_bound`] (reported once by the outbox);
    /// the engine picks the policy — client eviction or peer disconnect.
    QueueOverflow(ConnId),
    /// Stop the engine loop.
    Shutdown,
    /// Crash-stop the engine loop (fault injection): exit immediately,
    /// without the final ack flush a graceful `Shutdown` performs.
    Crash,
}

#[derive(Clone, Copy)]
enum Peer {
    Client(ClientId),
    Broker(BrokerId),
}

struct ClientState {
    conn: Option<ConnId>,
    log: EventLog,
    /// When the client's connection dropped (None while connected).
    disconnected_at: Option<Instant>,
}

/// A running broker node (also its handle: inspect stats, connect
/// neighbors, open local connections, shut down).
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use linkcast::{NetworkBuilder, RoutingFabric};
/// use linkcast_types::{EventSchema, SchemaRegistry, ValueKind};
/// use linkcast_broker::{BrokerConfig, BrokerNode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let b0 = b.add_broker();
/// let _client = b.add_client(b0)?;
/// let fabric = RoutingFabric::new_all_roots(b.build()?)?;
/// let mut registry = SchemaRegistry::new();
/// registry.register(
///     EventSchema::builder("trades")
///         .attribute("issue", ValueKind::Str)
///         .build()?,
/// )?;
/// let node = BrokerNode::start(BrokerConfig::localhost(b0, fabric, Arc::new(registry)))?;
/// println!("listening on {}", node.addr());
/// node.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct BrokerNode {
    /// What the node was started with (the engine loop has its own copy).
    config: BrokerConfig,
    addr: SocketAddr,
    cmd_tx: Sender<Command>,
    outbox: Arc<Outbox>,
    stats: Arc<StatsInner>,
    match_stats: Arc<Mutex<MatchStats>>,
    shutdown: Arc<AtomicBool>,
    next_conn: Arc<AtomicU64>,
    /// Current topology epoch, stored by the engine loop on every
    /// link-state flip and sampled by [`stats`](Self::stats). Equal
    /// epochs across brokers mean identical link-state tables, hence
    /// identical repaired forests — the cluster-convergence signal.
    topology_epoch: Arc<AtomicU64>,
    engine_thread: Option<std::thread::JoinHandle<()>>,
    /// Joined on shutdown so the listener is unbound before `shutdown`
    /// returns — a restart re-binding the same address must not race the
    /// old acceptor's last wakeup.
    acceptor_thread: Option<std::thread::JoinHandle<()>>,
}

impl BrokerNode {
    /// Starts the node: binds the listener, spawns the sender pool, the
    /// acceptor and the engine loop (DESIGN.md §7 lists every thread).
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or engine construction errors (boxed).
    pub fn start(config: BrokerConfig) -> Result<BrokerNode, Box<dyn std::error::Error>> {
        let listener = config.transport.bind(config.listen)?;
        let addr = listener.local_addr()?;

        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let outbox = Outbox::new(
            config.sender_threads.max(1),
            config.conn_queue_bound,
            Some(WRITE_STALL_TIMEOUT),
            cmd_tx.clone(),
        )?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let next_conn = Arc::new(AtomicU64::new(1));

        // Acceptor.
        let acceptor_thread = transport::spawn_acceptor(
            listener,
            cmd_tx.clone(),
            Arc::clone(&outbox),
            Arc::clone(&next_conn),
            Arc::clone(&shutdown),
        )?;

        // Durable-state recovery, before the engine loop exists: load the
        // snapshot, replay the WAL suffix on top (discarding torn tails),
        // and resume the recovered incarnation so peers' cumulative acks
        // stay valid. With no storage configured this is a fresh boot.
        let recovered = match &config.storage {
            Some(st) => recover(st.as_ref(), &config.registry, &stats)?,
            None => Recovered::fresh(),
        };

        // Matching engine, moved into the engine thread below: nothing
        // else ever reads or writes it.
        let mut engine = MatchingEngine::new(
            config.broker,
            &config.fabric,
            Arc::clone(&config.registry),
            PstOptions::default(),
        )?;
        if !recovered.subscriptions.is_empty() {
            // Re-install the checkpointed subscription set. Failures are
            // skipped rather than fatal (a subscription that no longer
            // parses against the fabric is better dropped than blocking
            // boot); the anti-entropy resync heals any gap from peers.
            for (schema, subscription) in &recovered.subscriptions {
                let _ = engine.subscribe(*schema, subscription.clone());
            }
            stats
                .subscriptions
                .store(engine.subscription_count() as u64, Ordering::Relaxed);
        }
        if let Some(st) = &config.storage {
            // Commit recovery: a boot snapshot of the merged state, then
            // truncate the WAL it absorbed. Snapshot-then-truncate order
            // makes a cut between the two steps harmless — the old records
            // replay idempotently on top of the new snapshot. Only after
            // this point may the engine talk to peers (the snapshot is
            // what makes the resumed incarnation durable).
            let snapshot = encode_snapshot(
                recovered.incarnation,
                &recovered.sub_ids,
                &recovered.tombstones,
                &recovered.links,
                &recovered.subscriptions,
            );
            st.write_snapshot(STATE_SNAPSHOT, &snapshot)?;
            st.truncate(WAL_LOG)?;
            stats.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        }
        let match_stats = Arc::new(Mutex::new(MatchStats::new()));

        // Engine loop.
        let topology_epoch = Arc::new(AtomicU64::new(0));
        let engine_loop = EngineLoop {
            match_cache: MatchCache::new(config.match_cache_cap),
            route_scratch: RouteScratch::new(),
            fabric: Arc::clone(&config.fabric),
            link_state: crate::repair::LinkStateTable::default(),
            epoch: 0,
            epoch_gauge: Arc::clone(&topology_epoch),
            journal: Journal {
                storage: config.storage.clone(),
                stats: Arc::clone(&stats),
                ..Journal::default()
            },
            staged: Vec::new(),
            config: config.clone(),
            incarnation: recovered.incarnation,
            engine,
            outbox: Arc::clone(&outbox),
            stats: Arc::clone(&stats),
            match_stats: Arc::clone(&match_stats),
            conns: HashMap::new(),
            clients: HashMap::new(),
            links: recovered.links,
            tombstones: recovered.tombstones,
            sub_ids: recovered.sub_ids,
        };
        let engine_thread = std::thread::Builder::new()
            .name(format!("broker-{}", config.broker))
            .spawn(move || engine_loop.run(cmd_rx))?;

        Ok(BrokerNode {
            config,
            addr,
            cmd_tx,
            outbox,
            stats,
            match_stats,
            shutdown,
            next_conn,
            topology_epoch,
            engine_thread: Some(engine_thread),
            acceptor_thread: Some(acceptor_thread),
        })
    }

    /// This broker's id.
    pub fn broker(&self) -> BrokerId {
        self.config.broker
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The information spaces served.
    pub fn registry(&self) -> &Arc<SchemaRegistry> {
        &self.config.registry
    }

    /// Opens the link to a neighbor broker, supervised. Call once per
    /// topology link (one side suffices; conventionally the higher-id
    /// broker dials). A background thread dials and reads the link, and if
    /// it drops (or a dial fails, the first included) redials with
    /// exponential backoff until the node shuts down. The backoff resets
    /// only after a link has survived a stability window, so a neighbor
    /// stuck in an accept-then-crash loop is not hot-redialed at the
    /// minimum interval. On every (re-)establishment both sides exchange
    /// `Hello` handshakes that resync their full subscription sets *and*
    /// their per-link spool state: events routed toward the neighbor while
    /// the link was down were spooled (up to 32768 frames per link) and are
    /// retransmitted after the handshake, with receiver-side sequence dedup
    /// discarding any copies that had already crossed before the flap —
    /// at-least-once across the link, exactly-once into client logs.
    pub fn connect_to_persistent(&self, neighbor: BrokerId, addr: SocketAddr) {
        let cmd_tx = self.cmd_tx.clone();
        let outbox = Arc::clone(&self.outbox);
        let next_conn = Arc::clone(&self.next_conn);
        let shutdown = Arc::clone(&self.shutdown);
        let transport = Arc::clone(&self.config.transport);
        let handshake_timeout = self.config.link_handshake_timeout;
        let repair_after = self.config.repair_after;
        let me = self.config.broker;
        let _ = std::thread::Builder::new()
            .name(format!("link-{me}-{neighbor}"))
            .spawn(move || {
                let mut backoff = LINK_REDIAL_MIN;
                let mut jitter = jitter_seed(me, neighbor);
                // Consecutive attempts since the link last completed a
                // handshake; crossing `repair_after` escalates ONCE per
                // down episode to a `LinkDown` topology repair. A
                // successful handshake re-arms the escalation.
                let mut failures: u32 = 0;
                let mut escalated = false;
                // Never panic here — that would kill the supervisor thread
                // and orphan the link forever.
                while !shutdown.load(Ordering::Acquire) {
                    // Whether the peer answered this attempt with a frame,
                    // and how long to wait before the next one.
                    let (greeted, pause) = match transport.dial(addr) {
                        // Dial failures (including per-connection setup
                        // inside the transport) back off instead of
                        // spin-dialing.
                        Err(_) => {
                            let step = backoff;
                            backoff = (backoff * 2).min(LINK_REDIAL_MAX);
                            (false, step)
                        }
                        Ok(connection) => {
                            let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                            outbox.register(conn, Sink::Link(connection.writer));
                            // The engine answers `DialedNeighbor` with the
                            // `Hello` handshake: it carries per-link
                            // spool/sequence state only the engine knows.
                            if cmd_tx
                                .send(Command::DialedNeighbor(conn, neighbor))
                                .is_err()
                            {
                                return;
                            }
                            let established = Instant::now();
                            // A peer that accepted the dial owes us its
                            // `Hello` (its first frame) within the handshake
                            // deadline; one that accepts and then stalls
                            // must not wedge this supervisor.
                            let greeted = transport::read_frames(
                                connection.reader,
                                conn,
                                &cmd_tx,
                                &shutdown,
                                Some(established + handshake_timeout),
                            );
                            if shutdown.load(Ordering::Acquire) {
                                return;
                            }
                            // Only a link that proved stable (handshake
                            // included) earns a backoff reset; an
                            // accept-then-die or accept-then-stall neighbor
                            // keeps escalating.
                            backoff = if greeted && established.elapsed() >= LINK_STABILITY_WINDOW {
                                LINK_REDIAL_MIN
                            } else {
                                (backoff * 2).min(LINK_REDIAL_MAX)
                            };
                            (greeted, backoff)
                        }
                    };
                    if greeted {
                        // The down episode (if any) is over.
                        failures = 0;
                        escalated = false;
                    } else {
                        // Accept-then-stall counts toward repair escalation
                        // like a refused dial: the link is not usable.
                        failures = failures.saturating_add(1);
                        if repair_after > 0 && failures >= repair_after && !escalated {
                            escalated = true;
                            if cmd_tx.send(Command::LinkUnreachable(neighbor)).is_err() {
                                return;
                            }
                        }
                    }
                    std::thread::sleep(jittered_backoff(pause, &mut jitter));
                }
            });
    }

    /// Operator escalation: declare the link to `neighbor` dead *now*,
    /// without waiting for [`BrokerConfig::repair_after`] redial
    /// failures. The broker floods a `LinkDown` statement and repairs
    /// its topology exactly as if the link supervisor had escalated.
    ///
    /// A link whose connection is currently live (handshake complete) is
    /// left alone — marking a healthy link down is a no-op, which also
    /// makes a stale supervisor escalation racing a reconnect harmless.
    /// The repair undoes itself when the link next completes a `Hello`
    /// handshake (a `LinkUp` statement floods).
    pub fn mark_link_down(&self, neighbor: BrokerId) {
        let _ = self.cmd_tx.send(Command::LinkUnreachable(neighbor));
    }

    /// Opens an in-process connection (bypassing TCP). The returned pair is
    /// a sender for client frames and a receiver of broker frames — used by
    /// tests and the throughput benchmark.
    pub fn open_local(&self) -> LocalConn {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded::<Bytes>();
        self.outbox.register(conn, Sink::Chan(tx));
        LocalConn {
            conn,
            cmd_tx: self.cmd_tx.clone(),
            rx,
            registry: Arc::clone(&self.config.registry),
        }
    }

    /// A snapshot of the broker's counters.
    pub fn stats(&self) -> BrokerStats {
        let (queued_frames, queued_bytes) = self.outbox.queue_depth();
        let matching = self.match_stats();
        self.stats.broker_stats(
            Derived {
                match_cache_hits: matching.cache_hits,
                match_cache_misses: matching.cache_misses,
                match_cache_invalidations: matching.cache_invalidations,
            },
            Gauges {
                queued_frames,
                queued_bytes,
                connections: self.outbox.connections(),
                topology_epoch: self.topology_epoch.load(Ordering::Relaxed),
            },
        )
    }

    /// Accumulated matching cost of every event this broker has routed.
    pub fn match_stats(&self) -> MatchStats {
        *self.match_stats.lock()
    }

    /// Stops the node: the engine loop exits, the acceptor stops, reader
    /// threads wind down at their next poll.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // The flag stops the acceptor (no new connections join the drain)
        // and winds reader threads down at their next poll.
        self.shutdown.store(true, Ordering::Release);
        let _ = self.cmd_tx.send(Command::Shutdown);
        if let Some(t) = self.engine_thread.take() {
            // The engine flushes its final cumulative acks before exiting,
            // so they are in the outbox queues when the drain starts.
            let _ = t.join();
        }
        self.stop_acceptor();
        // Drain phase: flush every queue with a deadline and FIN each peer
        // as its queue empties, so neighbors trim their spools and restarts
        // don't open on avoidable retransmit storms. Stragglers past the
        // deadline are cut off; the sender pool winds down either way.
        self.outbox.drain_all(self.config.drain_timeout);
    }

    /// Wakes the acceptor out of `accept` — the shutdown flag is set, so it
    /// drops the connection that does it and exits — and joins it: that
    /// proves the listener is dropped, so the address is free the moment
    /// the caller returns. A dial that fails (the listener's backlog is
    /// full of connections the acceptor is still working through) is
    /// retried until the thread is seen to have finished.
    fn stop_acceptor(&mut self) {
        let Some(acceptor) = self.acceptor_thread.take() else {
            return;
        };
        while !acceptor.is_finished() && self.config.transport.dial(self.addr).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = acceptor.join();
    }

    /// Crash-stops the node (fault injection): no final ack flush, no
    /// queue drain, no checkpoint — in-memory state dies as a power cut
    /// would take it, and the next start recovers from exactly what
    /// [`BrokerConfig::storage`] holds. Production shutdown is
    /// [`BrokerNode::shutdown`]; this exists so crash-consistency tests
    /// exercise the recovery path honestly.
    pub fn crash(mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = self.cmd_tx.send(Command::Crash);
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        self.stop_acceptor();
        // Instant transport teardown: queued frames (including any acks a
        // graceful drain would have delivered) are discarded, sockets FIN.
        self.outbox.close();
        // `Drop` still runs `shutdown_inner`, which is a no-op by now: the
        // threads are joined and `drain_all` on a closed outbox sees no
        // connections.
    }
}

impl Drop for BrokerNode {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for BrokerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerNode")
            .field("broker", &self.config.broker)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// An in-process connection to a broker (see [`BrokerNode::open_local`]).
pub struct LocalConn {
    conn: ConnId,
    cmd_tx: Sender<Command>,
    rx: Receiver<Bytes>,
    registry: Arc<SchemaRegistry>,
}

impl LocalConn {
    /// Sends a client-protocol message to the broker.
    pub fn send(&self, message: &ClientToBroker) {
        let batch = FrameBatch::single(message.encode());
        let _ = self.cmd_tx.send(Command::Frames(self.conn, batch));
    }

    /// Receives the next broker-protocol message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`crate::ClientError`] on timeout or malformed frames.
    pub fn recv(&self, timeout: Duration) -> Result<BrokerToClient, crate::ClientError> {
        let frame = self
            .rx
            .recv_timeout(timeout)
            .map_err(|_| crate::ClientError::Timeout)?;
        let payload = frame.slice(protocol::FRAME_PREFIX..);
        BrokerToClient::decode(payload, &self.registry)
            .map_err(|e| crate::ClientError::Protocol(e.to_string()))
    }
}

impl Drop for LocalConn {
    fn drop(&mut self) {
        let _ = self.cmd_tx.send(Command::Disconnected(self.conn));
    }
}

/// Mints a nonzero nonce for one broker lifetime: a process-wide counter
/// in the high bits (restarts within one process — the common test and
/// embedded-cluster case — always differ) salted with startup time in the
/// low bits (so counter collisions across separate processes still
/// differ in practice).
fn mint_incarnation() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    (COUNTER.fetch_add(1, Ordering::Relaxed) << 32) | (nanos & 0xffff_ffff)
}

/// Name of the broker's single write-ahead log inside its [`Storage`].
const WAL_LOG: &str = "wal";
/// Name of the broker's control-state snapshot slot.
const STATE_SNAPSHOT: &str = "state";
/// Upper bound on any count field in a snapshot. Snapshots are
/// self-written (never peer input), so a larger count only ever means
/// corruption — reject the snapshot rather than trust the length.
const MAX_SNAPSHOT_ITEMS: u32 = 1 << 24;

/// The write-ahead journal, on the engine thread. Without
/// [`BrokerConfig::storage`] it records nothing and every call is a no-op:
/// callers never ask which kind of broker they run in.
#[derive(Default)]
struct Journal {
    storage: Option<Arc<dyn Storage>>,
    /// Ops recorded since the last commit; they commit as one WAL record.
    pending: Vec<WalOp>,
    /// Reusable record-encoding buffer.
    buf: Vec<u8>,
    /// WAL records appended since the last checkpoint; reaching
    /// [`BrokerConfig::snapshot_every`] triggers the next one.
    records_since_snapshot: u64,
    stats: Arc<StatsInner>,
}

impl Journal {
    /// Adds `op` to the record being built — the one place the event path
    /// learns whether a journal exists.
    fn record(&mut self, op: impl FnOnce() -> WalOp) {
        if self.storage.is_some() {
            self.pending.push(op());
        }
    }

    /// Appends the recorded ops as one WAL record — the atomicity unit:
    /// recovery replays a record wholly or not at all, so everything that
    /// must survive together (an event's spool appends plus its receive
    /// mark) rides in one record. `sync` makes it durable before returning;
    /// trims pass `false` since losing one only re-replays already-acked
    /// frames, which the receiver's dedup discards. Storage errors are
    /// counted and otherwise swallowed: a broker cannot un-route mid-event,
    /// and availability wins over durability by design (DESIGN.md §14.2).
    fn commit(&mut self, sync: bool) {
        let Some(storage) = &self.storage else {
            return;
        };
        if self.pending.is_empty() {
            return;
        }
        let payload = storage::encode_ops(&self.pending);
        self.pending.clear();
        self.buf.clear();
        storage::encode_record(&payload, &mut self.buf);
        self.swallow(storage.append(WAL_LOG, &self.buf));
        if sync {
            self.swallow(storage.sync(WAL_LOG));
        }
        self.records_since_snapshot += 1;
        self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Journals a spool trim, if the ack floor moved (unsynced). Every path
    /// that can move one ends here.
    fn trim(&mut self, neighbor: BrokerId, floor: Option<u64>) {
        if let Some(acked) = floor {
            let neighbor = neighbor.raw();
            self.record(|| WalOp::Trim { neighbor, acked });
            self.commit(false);
        }
    }

    /// Writes `snapshot`, then truncates the WAL it absorbs: after a cut
    /// between the two the old records replay idempotently on top of it. A
    /// failed write leaves the WAL alone, to grow until one succeeds.
    fn checkpoint(&mut self, snapshot: impl FnOnce() -> Vec<u8>) {
        let Some(storage) = &self.storage else {
            return;
        };
        if self.swallow(storage.write_snapshot(STATE_SNAPSHOT, &snapshot())) {
            self.swallow(storage.truncate(WAL_LOG));
            self.stats.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.records_since_snapshot = 0;
    }

    /// Counts a failed storage call; `true` if it succeeded.
    fn swallow(&self, result: std::io::Result<()>) -> bool {
        if result.is_err() {
            self.stats.storage_errors.fetch_add(1, Ordering::Relaxed);
        }
        result.is_ok()
    }
}

/// Broker state rebuilt by [`recover`] (or minted fresh) and handed to
/// the engine loop at boot.
#[derive(Default)]
struct Recovered {
    incarnation: u64,
    sub_ids: SubIdAllocator,
    tombstones: TombstoneSet,
    links: BTreeMap<BrokerId, Link>,
    subscriptions: Vec<(SchemaId, Subscription)>,
}

impl Recovered {
    /// A fresh boot: new incarnation, empty state.
    fn fresh() -> Self {
        Recovered {
            incarnation: mint_incarnation(),
            ..Recovered::default()
        }
    }

    /// The link to neighbor `raw`, made on first mention.
    fn link(&mut self, raw: u32) -> &mut Link {
        self.links.entry(BrokerId::new(raw)).or_default()
    }
}

/// Encodes the full control-state snapshot: incarnation, id allocator,
/// tombstones, per-neighbor receive windows (their *durable* marks — a
/// mark may never outrun the journaled effects it stands for), per-
/// neighbor spools (unacknowledged frames only), and the subscription
/// set. The layout is internal to this module; [`decode_snapshot`] is the
/// only reader.
fn encode_snapshot(
    incarnation: u64,
    sub_ids: &SubIdAllocator,
    tombstones: &TombstoneSet,
    links: &BTreeMap<BrokerId, Link>,
    subscriptions: &[(SchemaId, Subscription)],
) -> Vec<u8> {
    let mut b: Vec<u8> = Vec::new();
    b.put_u64_le(incarnation);
    let (counter, free) = sub_ids.checkpoint();
    b.put_u32_le(counter);
    b.put_u32_le(free.len() as u32);
    for raw in free {
        b.put_u32_le(raw);
    }
    let tombs = tombstones.checkpoint();
    b.put_u32_le(tombs.len() as u32);
    for id in tombs {
        b.put_u32_le(id.raw());
    }
    b.put_u32_le(links.len() as u32);
    for (broker, link) in links {
        let (_, durable_seq, _, peer_incarnation) = link.window();
        b.put_u32_le(broker.raw());
        b.put_u64_le(peer_incarnation);
        b.put_u64_le(durable_seq);
    }
    b.put_u32_le(links.len() as u32);
    for (broker, link) in links {
        let spool = link.spool();
        b.put_u32_le(broker.raw());
        let acked = spool.acked();
        b.put_u64_le(acked);
        let frames: Vec<&Bytes> = spool.replay_after(acked).map(|(_, f)| f).collect();
        b.put_u32_le(frames.len() as u32);
        for frame in frames {
            b.put_u32_le(frame.len() as u32);
            b.extend_from_slice(frame);
        }
    }
    b.put_u32_le(subscriptions.len() as u32);
    for (schema, subscription) in subscriptions {
        b.put_u32_le(schema.raw());
        wire::put_subscription(&mut b, subscription);
    }
    b
}

/// Reads a length-prefixed count, rejecting corrupt (absurdly large)
/// values before any caller sizes a loop by them.
fn snap_count(buf: &mut &[u8]) -> Option<u32> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32_le();
    if n > MAX_SNAPSHOT_ITEMS {
        return None;
    }
    Some(n)
}

/// Decodes a snapshot written by [`encode_snapshot`]. Returns `None` on
/// any structural violation: the caller falls back to a fresh boot (a new
/// incarnation makes the discarded sequence space inert network-wide,
/// so a corrupt snapshot costs durability, never correctness).
fn decode_snapshot(mut data: &[u8], registry: &SchemaRegistry) -> Option<Recovered> {
    let buf = &mut data;
    if buf.remaining() < 8 + 4 {
        return None;
    }
    let incarnation = buf.get_u64_le();
    let counter = buf.get_u32_le();
    let n_free = snap_count(buf)?;
    let mut free = Vec::new();
    for _ in 0..n_free {
        if buf.remaining() < 4 {
            return None;
        }
        free.push(buf.get_u32_le());
    }
    let mut recovered = Recovered {
        incarnation,
        sub_ids: SubIdAllocator::restore(counter, free),
        ..Recovered::default()
    };
    let n_tombs = snap_count(buf)?;
    for _ in 0..n_tombs {
        if buf.remaining() < 4 {
            return None;
        }
        recovered
            .tombstones
            .insert(SubscriptionId::new(buf.get_u32_le()));
    }
    let n_recv = snap_count(buf)?;
    for _ in 0..n_recv {
        if buf.remaining() < 4 + 8 + 8 {
            return None;
        }
        let link = recovered.link(buf.get_u32_le());
        let (peer_incarnation, seq) = (buf.get_u64_le(), buf.get_u64_le());
        link.recover_mark(peer_incarnation, seq);
    }
    let n_spools = snap_count(buf)?;
    for _ in 0..n_spools {
        if buf.remaining() < 4 + 8 {
            return None;
        }
        let link = recovered.link(buf.get_u32_le());
        let acked = buf.get_u64_le();
        link.recover_floor(acked);
        let n_frames = snap_count(buf)?;
        for i in 0..u64::from(n_frames) {
            if buf.remaining() < 4 {
                return None;
            }
            let len = buf.get_u32_le() as usize;
            if len > crate::protocol::MAX_FRAME {
                return None;
            }
            let head = buf.get(..len)?;
            link.recover_append(acked.saturating_add(1 + i), Bytes::copy_from_slice(head));
            buf.advance(len);
        }
    }
    let n_subs = snap_count(buf)?;
    for _ in 0..n_subs {
        if buf.remaining() < 4 {
            return None;
        }
        let schema_id = SchemaId::new(buf.get_u32_le());
        let schema = registry.get(schema_id)?;
        let subscription = wire::get_subscription(buf, schema).ok()?;
        recovered.subscriptions.push((schema_id, subscription));
    }
    Some(recovered)
}

/// Rebuilds broker state from storage: snapshot first, then the WAL
/// suffix replayed idempotently on top (duplicate appends dedup by
/// sequence, receive marks and trims are cumulative). Torn or corrupt
/// tail records are discarded, never replayed as data. A missing or
/// undecodable snapshot falls back to a fresh boot — with a *new*
/// incarnation, so nothing of the dead sequence space leaks.
fn recover(
    st: &dyn Storage,
    registry: &SchemaRegistry,
    stats: &StatsInner,
) -> std::io::Result<Recovered> {
    let snap = st.read_snapshot(STATE_SNAPSHOT)?;
    let wal = st.read(WAL_LOG)?;
    let had_state = snap.is_some() || !wal.is_empty();
    let mut recovered = snap
        .and_then(|bytes| decode_snapshot(&bytes, registry))
        .unwrap_or_else(Recovered::fresh);
    let (records, torn) = storage::decode_records(&wal);
    stats
        .torn_records_discarded
        .fetch_add(torn, Ordering::Relaxed);
    'records: for record in records {
        let Some(ops) = storage::decode_ops(&record) else {
            // CRC-valid but semantically undecodable: version skew or a
            // writer bug. Everything after it is unordered relative to the
            // lost batch, so stop — same policy as a torn tail.
            stats.torn_records_discarded.fetch_add(1, Ordering::Relaxed);
            break 'records;
        };
        stats.wal_replayed.fetch_add(1, Ordering::Relaxed);
        for op in ops {
            match op {
                WalOp::RecvMark {
                    from,
                    incarnation,
                    seq,
                } => recovered.link(from).recover_mark(incarnation, seq),
                WalOp::Append {
                    neighbor,
                    seq,
                    frame,
                } => recovered.link(neighbor).recover_append(seq, frame),
                WalOp::Trim { neighbor, acked } => {
                    if let Some(link) = recovered.links.get_mut(&BrokerId::new(neighbor)) {
                        link.on_ack(acked);
                    }
                }
            }
        }
    }
    if had_state {
        stats.recoveries.fetch_add(1, Ordering::Relaxed);
    }
    Ok(recovered)
}

struct EngineLoop {
    config: BrokerConfig,
    /// This broker lifetime's nonce, announced in every link `Hello` so
    /// peers can tell a restart from a reconnect.
    incarnation: u64,
    engine: MatchingEngine,
    outbox: Arc<Outbox>,
    stats: Arc<StatsInner>,
    /// Accumulated matching cost, read by [`BrokerNode::match_stats`].
    match_stats: Arc<Mutex<MatchStats>>,
    /// The match-result cache.
    match_cache: MatchCache,
    /// Reusable matching buffers (scratch masks, walk frames).
    route_scratch: RouteScratch,
    /// Who each registered connection speaks for. A broker's entry is
    /// exactly its [`Link`]'s current connection.
    conns: HashMap<ConnId, Peer>,
    clients: HashMap<ClientId, ClientState>,
    /// Everything per neighbor, made on first mention and never dropped;
    /// ordered, so floods, timers, re-homing and snapshots walk in id order.
    links: BTreeMap<BrokerId, Link>,
    /// Removed subscription ids, so the anti-entropy resync cannot
    /// resurrect an unsubscribe that flooded while a link was down.
    tombstones: TombstoneSet,
    sub_ids: SubIdAllocator,
    journal: Journal,
    /// `Forward`s stitched for the event being dispatched, released once
    /// its WAL record has committed. Reused across events.
    staged: Vec<(ConnId, Bytes)>,
    /// The routing fabric currently in force: [`BrokerConfig::fabric`]
    /// at boot, swapped for a rebuild over the surviving graph on every
    /// topology repair. Routing, dispatch, and the tree-bound check all
    /// read this — never `config.fabric` — so a repair cuts the whole
    /// data plane over atomically (single-threaded engine loop).
    fabric: Arc<RoutingFabric>,
    /// Flooded link-state statements folded into per-edge versions; the
    /// source of truth for `epoch` and the dead-edge exclusion set.
    link_state: crate::repair::LinkStateTable,
    /// Current topology epoch (`link_state.epoch()`), stitched into
    /// every outgoing `Forward` frame and compared against incoming
    /// ones. Plain engine-thread copy of `epoch_gauge`.
    epoch: u64,
    /// Shared copy of `epoch` for [`BrokerNode::stats`].
    epoch_gauge: Arc<AtomicU64>,
}

impl EngineLoop {
    /// The engine thread's loop, and its only clock: the GC and heartbeat
    /// deadlines live here, the wait for the next command ends at the
    /// nearer of them, and both are checked after every command so a
    /// mailbox that never empties cannot starve them. `now` is read once
    /// per wake-up and handed down; no handler reads time itself.
    fn run(mut self, cmd_rx: Receiver<Command>) {
        let gc_interval = self.config.gc_interval.max(Duration::from_millis(1));
        let heartbeat_interval = self.config.heartbeat_interval.max(Duration::from_millis(1));
        let mut now = Instant::now();
        let mut gc_due = now + gc_interval;
        let mut heartbeat_due = now + heartbeat_interval;
        loop {
            let wait = gc_due.min(heartbeat_due).saturating_duration_since(now);
            let command = cmd_rx.recv_timeout(wait);
            now = Instant::now();
            match command {
                Ok(Command::Frames(conn, batch)) => {
                    // Any frame, decodable or not, proves a broker peer's send
                    // path alive; one stamp covers the batch, it is one read.
                    if let Some((_, link)) = self.peer_link(conn) {
                        link.heard(conn, now);
                    }
                    for frame in batch {
                        self.handle_frame(conn, frame, now);
                    }
                }
                Ok(Command::DialedNeighbor(conn, neighbor)) => {
                    // `Forward`s stay spooled until the peer's `Hello`.
                    self.install_link(neighbor, conn, now);
                    self.greet(neighbor, conn);
                }
                Ok(Command::Disconnected(conn)) => self.handle_disconnect(conn, now),
                Ok(Command::LinkUnreachable(neighbor)) => {
                    self.handle_link_unreachable(neighbor, now);
                }
                Ok(Command::QueueOverflow(conn)) => self.handle_queue_overflow(conn, now),
                Ok(Command::Shutdown) => {
                    // Final courtesy: push cumulative acks for everything
                    // received but not yet acked, so surviving neighbors
                    // trim their spools instead of retransmitting the tail
                    // at our restart. The frames flush in the drain phase.
                    self.flush_forward_acks();
                    break;
                }
                // Fault injection: die as a power cut would — no ack
                // flush, no checkpoint. Whatever the WAL and the last
                // snapshot hold is what recovery gets.
                Ok(Command::Crash) => break,
                // Not while this loop runs: its outbox holds a sender.
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
            }
            if now >= gc_due {
                self.collect_garbage(now);
                gc_due = now + gc_interval;
            }
            if now >= heartbeat_due {
                self.heartbeat_tick(now);
                heartbeat_due = now + heartbeat_interval;
            }
        }
    }

    /// One frame, length prefix included.
    fn handle_frame(&mut self, conn: ConnId, frame: Bytes, now: Instant) {
        let Some(&tag) = frame.get(protocol::FRAME_PREFIX) else {
            return;
        };
        // The decoders consume a slice of the frame (a refcount bump), and
        // the handlers get the frame itself: the data-plane arms slice the
        // already-encoded event body out of it instead of re-serializing
        // the decoded event, the control-plane arms flood it onward as it
        // came (it decoded, so it is a well-formed message).
        let payload = || frame.slice(protocol::FRAME_PREFIX..);
        if tag < 0x10 {
            match ClientToBroker::decode(payload(), &self.config.registry) {
                Ok(msg) => self.handle_client(conn, msg, &frame, now),
                Err(e) => self.protocol_error_disconnect(conn, e.to_string(), now),
            }
        } else if (0x21..=0x2f).contains(&tag) {
            match BrokerToBroker::decode(payload(), &self.config.registry) {
                Ok(msg) => self.handle_broker(conn, msg, &frame, now),
                Err(e) => self.protocol_error_disconnect(conn, e.to_string(), now),
            }
        } else {
            self.protocol_error_disconnect(conn, format!("unexpected message tag {tag:#x}"), now);
        }
    }

    /// A peer sent something undecodable. A corrupt payload means the
    /// stream's framing can no longer be trusted, so rather than guess at
    /// the next message boundary the broker counts the error and drops the
    /// connection — the socket shutdown is what the peer observes (a
    /// dialing neighbor's link supervisor sees the EOF and redials with a
    /// fresh handshake). Clients additionally get the reason as an `Error`
    /// frame, flushed before the FIN; broker peers do not, because
    /// `BrokerToClient::Error` is an unexpected tag on a broker-broker
    /// link and would itself count as a protocol error on the remote side.
    /// Semantically invalid but *well-formed* requests (unknown schema on
    /// subscribe, publish before hello) go through `client_error` instead
    /// and keep the connection.
    fn protocol_error_disconnect(&mut self, conn: ConnId, message: String, now: Instant) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        if matches!(self.conns.get(&conn), Some(Peer::Broker(_))) {
            self.handle_disconnect(conn, now);
            return;
        }
        self.client_error(conn, message);
        self.outbox.close_after_flush(conn);
        self.forget_conn(conn, now);
    }

    fn handle_publish(&mut self, conn: ConnId, event: Event, body: Bytes, now: Instant) {
        if self.client_of(conn).is_none() {
            self.client_error(conn, "publish before hello".into());
            return;
        }
        // Reject events too large to re-stitch as Forward/Deliver frames
        // before they enter routing; an unchecked body would either
        // truncate the `u32` length prefix or flap the downstream link
        // (retransmit → peer reject → disconnect → retransmit) forever.
        if let Err(e) = crate::protocol::check_event_body(body.len()) {
            self.client_error(conn, e.to_string());
            return;
        }
        let tree = match self.fabric.tree_for(self.config.broker) {
            Ok(t) => t,
            Err(e) => {
                self.client_error(conn, e.to_string());
                return;
            }
        };
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        let links = self.route_inline(&event, tree);
        self.dispatch(&event, tree, &body, links, None, now);
    }

    /// `frame` is `message` as it arrived, length prefix included.
    fn handle_client(
        &mut self,
        conn: ConnId,
        message: ClientToBroker,
        frame: &Bytes,
        now: Instant,
    ) {
        match message {
            ClientToBroker::Hello {
                client,
                resume_from,
            } => {
                let home = self.config.fabric.network().home_broker(client);
                if home != Some(self.config.broker) {
                    self.client_error(
                        conn,
                        format!(
                            "client {client} is not homed at broker {}",
                            self.config.broker
                        ),
                    );
                    return;
                }
                self.conns.insert(conn, Peer::Client(client));
                let state = self.clients.entry(client).or_insert_with(|| ClientState {
                    conn: None,
                    log: EventLog::new(),
                    disconnected_at: None,
                });
                state.conn = Some(conn);
                state.disconnected_at = None;
                state.log.ack(resume_from);
                let acked = state.log.acked();
                self.outbox.send(
                    conn,
                    BrokerToClient::Welcome {
                        client,
                        resume_from: acked,
                    }
                    .encode(),
                );
                // Replay what the client missed while disconnected.
                let frames: Vec<Bytes> = state
                    .log
                    .replay_after(acked)
                    .map(|(seq, event)| {
                        BrokerToClient::Deliver {
                            seq,
                            event: event.clone(),
                        }
                        .encode()
                    })
                    .collect();
                for frame in frames {
                    self.outbox.send(conn, frame);
                }
            }
            ClientToBroker::Subscribe { schema, expression } => {
                let Some(client) = self.client_of(conn) else {
                    self.client_error(conn, "subscribe before hello".into());
                    return;
                };
                let predicate = match self.engine.parse_subscription(schema, &expression) {
                    Ok(p) => p,
                    Err(e) => {
                        self.client_error(conn, e.to_string());
                        return;
                    }
                };
                // Globally unique id: 12 bits of broker, 20 bits of
                // per-broker counter (recycled after unsubscribe, so churn
                // never wedges the broker — only concurrency is capped).
                let Some(raw) = self.sub_ids.allocate() else {
                    self.client_error(conn, "subscription id space exhausted".into());
                    return;
                };
                let id = SubscriptionId::new((self.config.broker.raw() << SUB_COUNTER_BITS) | raw);
                // A recycled id must not be shadowed by its previous life's
                // tombstone.
                self.tombstones.remove(id);
                let subscription =
                    Subscription::new(id, SubscriberId::new(self.config.broker, client), predicate);
                // The one encoding of this subscription's flood: every
                // broker it reaches passes these bytes on as received.
                let flood = protocol::sub_add_frame(schema, &subscription, false);
                match self.engine.subscribe(schema, subscription) {
                    Ok(()) => {
                        self.stats
                            .subscriptions
                            .store(self.engine.subscription_count() as u64, Ordering::Relaxed);
                        self.outbox
                            .send(conn, BrokerToClient::SubAck { id }.encode());
                        // Control plane: flood to every neighbor.
                        self.flood_frame(&flood, None);
                        self.checkpoint();
                    }
                    Err(e) => {
                        self.sub_ids.free(raw);
                        self.client_error(conn, e.to_string());
                    }
                }
            }
            ClientToBroker::Unsubscribe { id } => {
                let Some(client) = self.client_of(conn) else {
                    self.client_error(conn, "unsubscribe before hello".into());
                    return;
                };
                let owned = self
                    .engine
                    .subscription(id)
                    .is_some_and(|s| s.subscriber().client == client);
                if !owned {
                    self.client_error(conn, format!("subscription {id} is not yours"));
                    return;
                }
                self.engine.unsubscribe(id);
                self.stats
                    .subscriptions
                    .store(self.engine.subscription_count() as u64, Ordering::Relaxed);
                // Tombstone the id (so a resync while some link is down
                // cannot resurrect it) and recycle its counter half.
                self.tombstones.insert(id);
                self.sub_ids.free(id.raw() & (SUB_ID_SPACE - 1));
                self.outbox
                    .send(conn, BrokerToClient::UnsubAck { id }.encode());
                self.flood_broker_message(&BrokerToBroker::SubRemove { id }, None);
                self.checkpoint();
            }
            ClientToBroker::Publish { event } => {
                let body = frame.slice(protocol::FRAME_PREFIX + protocol::PUBLISH_BODY_OFFSET..);
                self.handle_publish(conn, event, body, now);
            }
            ClientToBroker::Ack { seq } => {
                if let Some(client) = self.client_of(conn) {
                    if let Some(state) = self.clients.get_mut(&client) {
                        state.log.ack(seq);
                    }
                }
            }
            ClientToBroker::StatsRequest => {
                // `subscriptions` reads the stored gauge, refreshed on
                // every subscription change.
                let counters = {
                    let matching = self.match_stats.lock();
                    self.stats.counters(Derived {
                        match_cache_hits: matching.cache_hits,
                        match_cache_misses: matching.cache_misses,
                        match_cache_invalidations: matching.cache_invalidations,
                    })
                };
                let frame = BrokerToClient::Stats(counters).encode();
                self.outbox.send(conn, frame);
            }
        }
    }

    /// `frame` is `message` as it arrived, length prefix included.
    fn handle_broker(
        &mut self,
        conn: ConnId,
        message: BrokerToBroker,
        frame: &Bytes,
        now: Instant,
    ) {
        match message {
            BrokerToBroker::Hello {
                broker,
                incarnation,
                last_recv,
                last_recv_incarnation,
                send_seq,
            } => {
                // Reply with our own handshake only on a conn we have not
                // already greeted (the dialer side greeted on
                // `DialedNeighbor`); otherwise the pair would ping-pong
                // Hellos forever.
                let fresh = self.install_link(broker, conn, now);
                // The window first — our own `Hello` advertises it — and
                // the peer's cumulative ack before any repair flip below:
                // frames the peer already has must not look pending to the
                // flip's re-homing sweep, which would re-dispatch them.
                let floor = self.links.entry(broker).or_default().on_hello(
                    self.incarnation,
                    incarnation,
                    last_recv,
                    last_recv_incarnation,
                    send_seq,
                );
                self.journal.trim(broker, floor);
                self.maybe_snapshot();
                if fresh {
                    self.greet(broker, conn);
                }
                // A Hello on this link proves the edge is live again: if
                // our table says it is down, originate the LinkUp
                // statement. Both endpoints may do so concurrently — the
                // strictly-monotone apply test makes the duplicate
                // converge instead of ping-ponging.
                let me = self.config.broker;
                let (a, b) = crate::repair::normalize_edge(me, broker);
                let (ver, down) = self.link_state.get(a, b);
                if down {
                    self.apply_link_state(a, b, ver.saturating_add(1), false, None, now);
                }
                // Last on the conn, behind the resyncs and any statement the
                // flip flooded: what the peer missed, what the flip re-homed.
                let frames = self.links.entry(broker).or_default().replay();
                self.stats
                    .retransmitted
                    .fetch_add(frames.len() as u64, Ordering::Relaxed);
                for frame in frames {
                    self.outbox.send(conn, frame);
                }
            }
            BrokerToBroker::FwdAck { seq } => {
                if let Some((broker, link)) = self.peer_link(conn) {
                    let floor = link.on_ack(seq);
                    self.journal.trim(broker, floor);
                    self.maybe_snapshot();
                }
            }
            BrokerToBroker::Forward {
                tree,
                seq,
                epoch,
                event,
            } => {
                let body = frame.slice(protocol::FRAME_PREFIX + protocol::FORWARD_BODY_OFFSET..);
                if let Some(source) = self.accept_forward(conn, tree, seq, epoch, now) {
                    let links = self.route_inline(&event, tree);
                    self.dispatch(&event, tree, &body, links, Some(source), now);
                }
            }
            BrokerToBroker::SubAdd {
                schema,
                subscription,
                resync,
            } => {
                let id = subscription.id();
                // A resynced add may be a resurrection: the neighbor never
                // saw the `SubRemove` that flooded while its link was down.
                // Ignoring it is not enough — the neighbor (and everything
                // behind it) still *holds* the stale subscription and would
                // keep routing on it forever. Push the removal back on the
                // same link; the receiver un-installs it and floods the
                // removal onward, so the partition-missed `SubRemove`
                // finally reaches every stale copy.
                if resync && self.tombstones.contains(id) {
                    self.outbox
                        .send(conn, BrokerToBroker::SubRemove { id }.encode());
                    return;
                }
                if self.engine.knows(id) {
                    return; // flood dedup on cyclic broker graphs
                }
                if !resync {
                    // A fresh add recycles the id: its previous life's
                    // tombstone no longer applies.
                    self.tombstones.remove(id);
                }
                if self.engine.subscribe(schema, subscription).is_ok() {
                    // One this broker minted in an earlier life, handed
                    // back by a neighbor: not to be minted again.
                    if id.raw() >> SUB_COUNTER_BITS == self.config.broker.raw() {
                        self.sub_ids.reserve(id.raw() & (SUB_ID_SPACE - 1));
                    }
                    self.stats
                        .subscriptions
                        .store(self.engine.subscription_count() as u64, Ordering::Relaxed);
                    // `resync` travels unchanged, with the rest.
                    self.flood_frame(frame, Some(conn));
                    self.checkpoint();
                } else {
                    debug_assert!(false, "replicated subscription {id} failed to install");
                }
            }
            BrokerToBroker::Ping => {
                // Answer on the same conn: the pong's arrival refreshes the
                // peer's liveness clock for this link.
                self.outbox.send(conn, BrokerToBroker::Pong.encode());
            }
            BrokerToBroker::Pong => {
                // Its arrival already stamped the link's liveness clock;
                // there is nothing else to do.
            }
            BrokerToBroker::LinkDown { a, b, ver } => {
                self.handle_link_statement(conn, a, b, ver, true, now);
            }
            BrokerToBroker::LinkUp { a, b, ver } => {
                self.handle_link_statement(conn, a, b, ver, false, now);
            }
            BrokerToBroker::SubRemove { id } => {
                // Tombstone-insert doubles as flood dedup: a removal we
                // already tombstoned has already been flooded onward.
                let newly_tombstoned = self.tombstones.insert(id);
                let removed = self.engine.unsubscribe(id);
                if removed {
                    self.stats
                        .subscriptions
                        .store(self.engine.subscription_count() as u64, Ordering::Relaxed);
                }
                if removed || newly_tombstoned {
                    self.flood_frame(frame, Some(conn));
                    self.checkpoint();
                }
            }
        }
    }

    /// The neighbor `conn` currently speaks for, and its link.
    fn peer_link(&mut self, conn: ConnId) -> Option<(BrokerId, &mut Link)> {
        let Some(&Peer::Broker(peer)) = self.conns.get(&conn) else {
            return None;
        };
        Some((peer, self.links.get_mut(&peer)?))
    }

    /// Makes `conn` the one connection to `peer`, tearing down an older one
    /// (dead but undetected when the peer redialed). Returns whether `conn`
    /// is new to `peer`: it has yet to be greeted.
    fn install_link(&mut self, peer: BrokerId, conn: ConnId, now: Instant) -> bool {
        let was = self.conns.insert(conn, Peer::Broker(peer));
        let jitter = heartbeat_jitter_seed(self.config.broker, peer);
        let link = self.links.entry(peer).or_default();
        if let Some(old) = link.install(conn, now, jitter) {
            self.outbox.unregister(old);
            self.conns.remove(&old);
        }
        !matches!(was, Some(Peer::Broker(b)) if b == peer)
    }

    /// Our half of the handshake on a fresh `conn`: `Hello`, then the
    /// anti-entropy resyncs of what a (re-)connecting neighbor may have
    /// missed — subscriptions (the flood dedup drops duplicates, the
    /// tombstone filter dead ids) and link-state statements. All of it
    /// precedes any spool replay on the conn (FIFO link): a peer that
    /// rebooted at epoch 0 flips forward before it sees replayed frames.
    fn greet(&mut self, peer: BrokerId, conn: ConnId) {
        let link = self.links.entry(peer).or_default();
        let hello = link.hello(self.config.broker, self.incarnation);
        self.outbox.send(conn, hello.encode());
        self.resync_subscriptions(conn);
        self.resync_link_state(conn);
    }

    /// Sends the cumulative `FwdAck` a link asked for.
    fn send_ack(outbox: &Outbox, conn: ConnId, seq: u64) {
        outbox.send(conn, BrokerToBroker::FwdAck { seq }.encode());
    }

    /// An inbound `Forward`'s header: the neighbor and the receive mark to
    /// route the event under, or `None` for a frame that must not be routed.
    fn accept_forward(
        &mut self,
        conn: ConnId,
        tree: TreeId,
        seq: u64,
        epoch: u64,
        now: Instant,
    ) -> Option<(BrokerId, Mark)> {
        // Epoch check FIRST, before the tree-bound check: a frame stitched
        // under a different topology epoch refers to trees that no longer
        // exist here (its tree index may not even be in range of the
        // repaired forest). Dropping it is safe precisely because it is
        // *not* acked and does *not* advance the receive window: the frame
        // stays pending in the sender's spool, and the sender's own epoch
        // flip re-homes every pending frame down its repaired trees (see
        // `rehome_spools` and DESIGN.md §15).
        if epoch != self.epoch {
            self.stats.stale_epoch_drops.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // The tree id arrives as a raw index; an out-of-range value from a
        // corrupt or hostile peer would panic deep inside the matching
        // engine's per-tree tables. Treat it like any other undecodable
        // frame: count it and cut the link.
        if tree.index() >= self.fabric.forest().len() {
            self.protocol_error_disconnect(
                conn,
                format!("forward on unknown spanning tree {}", tree.index()),
                now,
            );
            return None;
        }
        // Not a registered broker peer: most likely an old stream torn
        // down when the neighbor redialed (see `install_link`). Routing it
        // would bypass the dedup window; the live stream replays it.
        let (broker, link) = self.peer_link(conn)?;
        Some((broker, link.accept(seq)?))
    }

    /// Link-matches one event: match-cache lookup, else the arena walk
    /// through the engine's scratch buffers, then the attribute-order
    /// check when it is due. Its caller dispatches the links: all of them
    /// for an arriving event, the broker links only when spool re-homing
    /// re-matches under the repaired topology.
    fn route_inline(&mut self, event: &Event, tree: TreeId) -> Vec<LinkId> {
        let mut stats = MatchStats::new();
        let mut links = Vec::new();
        self.engine.route_cached(
            event,
            tree,
            &mut self.match_cache,
            &mut self.route_scratch,
            &mut stats,
            &mut links,
        );
        *self.match_stats.lock() += stats;
        // Between events, and only once enough of them have walked the tree.
        if self.route_scratch.order_check_due() {
            let rebuilt = self.engine.adapt_orders(&mut self.route_scratch);
            if rebuilt > 0 {
                self.stats
                    .order_rebuilds
                    .fetch_add(rebuilt, Ordering::Relaxed);
            }
        }
        links
    }

    /// Dispatches a routed event: per-neighbor `Forward` frames (each link
    /// carries its own sequence header around the shared, already-encoded
    /// `body`, sliced from the incoming frame) and one `Deliver` header per
    /// client around the same body.
    ///
    /// The event's spool appends and its receive mark (`source`) commit as
    /// **one WAL record** before any `Forward` frame reaches the wire, so a
    /// power cut either keeps the whole batch or loses a batch no peer ever
    /// saw (the sender's spool retransmits it); without storage the commit
    /// is a no-op and the route is the same. Client deliveries are volatile
    /// by design (DESIGN.md §14.3) and go out at once.
    fn dispatch(
        &mut self,
        event: &Event,
        tree: TreeId,
        body: &Bytes,
        links: Vec<LinkId>,
        source: Option<(BrokerId, Mark)>,
        now: Instant,
    ) {
        let fabric = Arc::clone(&self.fabric);
        let network = fabric.network();
        let mut staged = std::mem::take(&mut self.staged);
        for link in links {
            match network.link_target(self.config.broker, link) {
                LinkTarget::Broker(neighbor) => {
                    let link = self.links.entry(neighbor).or_default();
                    let (seq, frame, dropped) = link.stitch(tree, self.epoch, body);
                    self.stats.spooled.fetch_add(1, Ordering::Relaxed);
                    if dropped > 0 {
                        let overflow = &self.stats.dropped_spool_overflow;
                        overflow.fetch_add(dropped, Ordering::Relaxed);
                    }
                    self.journal.record(|| WalOp::Append {
                        neighbor: neighbor.raw(),
                        seq,
                        frame: frame.clone(),
                    });
                    // Not ahead of the handshake: the next replay sends it.
                    if let Some(conn) = link.established() {
                        self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                        staged.push((conn, frame));
                    }
                }
                LinkTarget::Client(client) => {
                    let state = self.clients.entry(client).or_insert_with(|| ClientState {
                        conn: None,
                        log: EventLog::new(),
                        disconnected_at: Some(now),
                    });
                    let seq = state.log.append(event.clone());
                    self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = state.conn {
                        self.outbox.send(conn, protocol::deliver_frame(seq, body));
                    }
                }
            }
        }
        // The receive mark is journaled even when the event matched no
        // links: `durable_seq` (and with it ack pacing and the `Hello`
        // high-water mark) may only ever advance through the WAL.
        if let Some((from, mark)) = source {
            self.journal.record(|| WalOp::RecvMark {
                from: from.raw(),
                incarnation: mark.incarnation,
                seq: mark.seq,
            });
        }
        self.journal.commit(true);
        if let Some((from, mark)) = source {
            let link = self.links.entry(from).or_default();
            if let (Some(seq), Some(conn)) = (link.committed(mark), link.conn()) {
                Self::send_ack(&self.outbox, conn, seq);
            }
        }
        for (conn, frame) in staged.drain(..) {
            self.outbox.send(conn, frame);
        }
        self.staged = staged;
        self.maybe_snapshot();
    }

    /// Checkpoints once the WAL has grown past the configured cadence.
    fn maybe_snapshot(&mut self) {
        if self.journal.records_since_snapshot >= self.config.snapshot_every.max(1) {
            self.checkpoint();
        }
    }

    /// Writes a full-state snapshot and truncates the WAL it absorbs (a
    /// no-op without storage). Besides the record cadence, every
    /// subscription-table, tombstone or id-allocator change checkpoints at
    /// once: the snapshot is the only durable home of control-plane state,
    /// and a crash that resurrects a removed subscription is the one
    /// divergence the anti-entropy resync cannot heal (DESIGN.md §14.2).
    fn checkpoint(&mut self) {
        self.journal.checkpoint(|| {
            encode_snapshot(
                self.incarnation,
                &self.sub_ids,
                &self.tombstones,
                &self.links,
                &self.engine.all_subscriptions(),
            )
        });
    }

    /// Sends every known subscription to a newly established broker link.
    /// Marked `resync` so the receiver filters them against its tombstones
    /// instead of resurrecting subscriptions removed while the link was
    /// down.
    fn resync_subscriptions(&self, conn: ConnId) {
        for (schema, subscription) in self.engine.all_subscriptions() {
            self.outbox.send(
                conn,
                BrokerToBroker::SubAdd {
                    schema,
                    subscription,
                    resync: true,
                }
                .encode(),
            );
        }
    }

    fn flood_broker_message(&self, message: &BrokerToBroker, except: Option<ConnId>) {
        // Not encoded for nobody.
        let mut conns = self.links.values().filter_map(Link::conn);
        if conns.any(|conn| Some(conn) != except) {
            self.flood_frame(&message.encode(), except);
        }
    }

    /// Queues one already-encoded frame for every neighbor but `except`.
    fn flood_frame(&self, frame: &Bytes, except: Option<ConnId>) {
        let conns = self.links.values().filter_map(Link::conn);
        let targets = conns.filter(|&conn| Some(conn) != except);
        self.outbox.send_many(targets, frame);
    }

    /// A link supervisor crossed [`BrokerConfig::repair_after`]
    /// consecutive redial failures (or the operator called
    /// [`BrokerNode::mark_link_down`]): originate the `LinkDown`
    /// statement for the edge between this broker and `neighbor`.
    fn handle_link_unreachable(&mut self, neighbor: BrokerId, now: Instant) {
        let me = self.config.broker;
        let network = self.fabric.network();
        // Only real topology edges can be declared dead; and a link whose
        // connection is currently live (handshake complete) is
        // demonstrably not unreachable — a stale supervisor escalation
        // racing a reconnect must not take a healthy link down.
        if neighbor == me || network.link_to_broker(me, neighbor).is_none() {
            return;
        }
        if (self.links.get(&neighbor)).is_some_and(|link| link.established().is_some()) {
            return;
        }
        let (a, b) = crate::repair::normalize_edge(me, neighbor);
        let (ver, down) = self.link_state.get(a, b);
        if down {
            return; // already repaired around in a previous episode
        }
        self.apply_link_state(a, b, ver.saturating_add(1), true, None, now);
    }

    /// A flooded `LinkDown`/`LinkUp` statement arrived from a peer.
    /// Statements about edges outside the shared static topology are
    /// silently ignored (they cannot affect any tree this broker could
    /// compute); everything else goes through the apply test.
    fn handle_link_statement(
        &mut self,
        conn: ConnId,
        a: BrokerId,
        b: BrokerId,
        ver: u64,
        down: bool,
        now: Instant,
    ) {
        if !matches!(self.conns.get(&conn), Some(Peer::Broker(_))) {
            return; // link-state is broker-to-broker control traffic only
        }
        let network = self.fabric.network();
        let count = network.broker_count();
        // Endpoints come straight off the wire: bound-check before any
        // adjacency lookup (those index per-broker tables).
        if a.index() >= count || b.index() >= count || a == b {
            return;
        }
        if network.link_to_broker(a, b).is_none() {
            return;
        }
        let (a, b) = crate::repair::normalize_edge(a, b);
        self.apply_link_state(a, b, ver, down, Some(conn), now);
    }

    /// Folds one link-state statement into the table and, if it applied,
    /// performs the topology cutover: rebuild the spanning forest over
    /// the surviving graph, rebuild the matching engines' link spaces,
    /// flip the epoch, flood the statement onward, re-home every pending
    /// spooled frame down the repaired trees, and re-propagate
    /// subscription state over edges that just became tree-adjacent.
    ///
    /// Ordering inside this method is load-bearing (DESIGN.md §15): the
    /// flood (step 5) must precede the re-homing sweep (step 6) so that
    /// on every FIFO link the statement outruns any frame stitched under
    /// the new epoch — receivers flip before they see the frames.
    fn apply_link_state(
        &mut self,
        a: BrokerId,
        b: BrokerId,
        ver: u64,
        down: bool,
        from: Option<ConnId>,
        now: Instant,
    ) {
        // Speculative apply: only commit the table once the fabric
        // rebuild has succeeded, so the table never disagrees with the
        // fabric actually in force.
        let mut table = self.link_state.clone();
        if !table.apply(a, b, ver, down) {
            return; // stale or duplicate — already known, flood stops here
        }
        let Ok(fabric) = self.fabric.rebuild_excluding(&table.dead_edges()) else {
            // Unreachable with a fabric whose roots all exist in the
            // (immutable) network; bail without committing the statement.
            debug_assert!(false, "spanning-forest recompute failed");
            return;
        };
        let old_fabric = Arc::clone(&self.fabric);
        // Rebuild the matching engines in place: each per-space engine
        // swaps its link space and bumps its generation, so the match
        // cache can never serve a link set computed against the dead
        // topology.
        self.engine.rebuild_topology(self.config.broker, &fabric);
        self.link_state = table;
        self.fabric = fabric;
        self.epoch = self.link_state.epoch();
        self.epoch_gauge.store(self.epoch, Ordering::Relaxed);
        self.stats.epoch_flips.fetch_add(1, Ordering::Relaxed);
        if from.is_none() {
            self.stats.repairs_initiated.fetch_add(1, Ordering::Relaxed);
        }
        let statement = if down {
            BrokerToBroker::LinkDown { a, b, ver }
        } else {
            BrokerToBroker::LinkUp { a, b, ver }
        };
        self.flood_broker_message(&statement, from);
        self.rehome_spools(now);
        // Subscription state lives where the old trees put it; edges that
        // are tree-adjacent in the repaired forest but were not in the
        // old one have never carried this broker's subscription set.
        // Re-propagate over exactly those (the resync flag routes the
        // adds through the receiver's tombstone filter, so removals that
        // flooded before the repair stay removed).
        let me = self.config.broker;
        let resync: Vec<ConnId> = self
            .links
            .iter()
            .filter(|&(&n, _)| {
                self.fabric.forest().tree_adjacent(me, n)
                    && !old_fabric.forest().tree_adjacent(me, n)
            })
            .filter_map(|(_, link)| link.conn())
            .collect();
        for conn in resync {
            self.resync_subscriptions(conn);
        }
    }

    /// The epoch-flip sweep: every frame still pending (unacked) in any
    /// neighbor spool was stitched under a dead topology — receivers
    /// drop it on sight (stale epoch) and will never ack it. Pull each
    /// one out, trim the spools (journaled), and re-dispatch its event
    /// down this broker's tree in the repaired fabric, **broker links
    /// only**: the local client deliveries from its first dispatch
    /// already happened and client logs must not see it twice.
    ///
    /// Re-homing is what makes the stale-epoch drop lossless: a pending
    /// frame is either re-sent here (under the new epoch, with a fresh
    /// spool sequence) or provably unreachable (its subscribers sit in a
    /// component the surviving graph no longer connects). Subtrees the
    /// old dispatch already covered may be covered again — receiver
    /// sequence dedup cannot catch a re-homed frame (fresh sequence), so
    /// transition windows are at-least-once into routing; quiescent cuts
    /// (nothing pending except toward the dead link) stay exactly-once.
    fn rehome_spools(&mut self, now: Instant) {
        let me = self.config.broker;
        let Ok(tree) = self.fabric.tree_for(me) else {
            return;
        };
        let mut pending: Vec<Bytes> = Vec::new();
        for (&neighbor, link) in self.links.iter_mut() {
            let (frames, floor) = link.take_pending();
            pending.extend(frames);
            self.journal.trim(neighbor, floor);
        }
        self.maybe_snapshot();
        for frame in pending {
            // Spooled frames are full wire frames (length prefix + payload).
            let payload = frame.slice(4..);
            let Ok(BrokerToBroker::Forward { event, .. }) =
                BrokerToBroker::decode(payload.clone(), &self.config.registry)
            else {
                // A frame this broker stitched always decodes; skip
                // defensively rather than poison the sweep.
                continue;
            };
            let body = payload.slice(protocol::FORWARD_BODY_OFFSET..);
            self.stats.rerouted_frames.fetch_add(1, Ordering::Relaxed);
            let links = self.route_inline(&event, tree);
            let fabric = Arc::clone(&self.fabric);
            let network = fabric.network();
            let broker_links: Vec<LinkId> = links
                .into_iter()
                .filter(|&link| matches!(network.link_target(me, link), LinkTarget::Broker(_)))
                .collect();
            if broker_links.is_empty() {
                continue;
            }
            self.dispatch(&event, tree, &body, broker_links, None, now);
        }
    }

    /// Replays every link-state statement with a non-zero version to a
    /// (re)connecting neighbor, exactly like the subscription resync: a
    /// peer that rebooted (epoch 0, empty table) or sat out a repair
    /// behind a partition applies what it is missing and flips forward;
    /// a peer that already knows everything rejects them all in the
    /// apply test and the flood stops. Must be sent before any spool
    /// retransmission on the same conn — FIFO ordering is what
    /// guarantees the peer reaches our epoch before our replayed frames.
    fn resync_link_state(&self, conn: ConnId) {
        for s in self.link_state.statements() {
            let statement = if s.down {
                BrokerToBroker::LinkDown {
                    a: s.a,
                    b: s.b,
                    ver: s.ver,
                }
            } else {
                BrokerToBroker::LinkUp {
                    a: s.a,
                    b: s.b,
                    ver: s.ver,
                }
            };
            self.outbox.send(conn, statement.encode());
        }
    }

    fn client_of(&self, conn: ConnId) -> Option<ClientId> {
        match self.conns.get(&conn) {
            Some(Peer::Client(c)) => Some(*c),
            _ => None,
        }
    }

    fn client_error(&self, conn: ConnId, message: String) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        self.outbox
            .send(conn, BrokerToClient::Error { message }.encode());
    }

    /// One heartbeat-timer edge: tear down the links that stayed completely
    /// silent past the liveness timeout (half-open and stalled peers the
    /// kernel never reports — the spool keeps their frames and the redial
    /// handshake retransmits) and ping the merely idle ones, so a live
    /// peer always has something to answer.
    fn heartbeat_tick(&mut self, now: Instant) {
        let (heartbeat, liveness) = (self.config.heartbeat_interval, self.config.liveness_timeout);
        // Decide first: teardown goes back through `links`.
        let links = self.links.values_mut();
        let ticks: Vec<Tick> = links.map(|l| l.tick(now, heartbeat, liveness)).collect();
        for tick in ticks {
            match tick {
                Tick::Idle => {}
                Tick::Ping(conn) => {
                    self.stats.pings_sent.fetch_add(1, Ordering::Relaxed);
                    self.outbox.send(conn, BrokerToBroker::Ping.encode());
                }
                Tick::Dead(conn) => {
                    self.stats.liveness_timeouts.fetch_add(1, Ordering::Relaxed);
                    // Immediate teardown, not flush-then-close: unregistering shuts
                    // the socket; our reader and a dialing supervisor notice.
                    self.handle_disconnect(conn, now);
                }
            }
        }
    }

    /// A connection overran [`BrokerConfig::conn_queue_bound`]. Clients are
    /// evicted with a final flushed `Error` frame (their event logs survive
    /// for replay on reconnect); broker peers are disconnected without
    /// ceremony — their spools hold every unacknowledged frame and the
    /// redial handshake retransmits, so overflow costs a reconnect, not
    /// events.
    fn handle_queue_overflow(&mut self, conn: ConnId, now: Instant) {
        match self.conns.get(&conn) {
            Some(Peer::Client(_)) => {
                self.stats
                    .evicted_slow_consumers
                    .fetch_add(1, Ordering::Relaxed);
                let notice = BrokerToClient::Error {
                    message: "evicted: outgoing queue exceeded conn_queue_bound".into(),
                }
                .encode();
                self.outbox.evict(conn, Some(notice));
                self.forget_conn(conn, now);
            }
            Some(Peer::Broker(_)) => {
                self.stats
                    .peer_overflow_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                self.handle_disconnect(conn, now);
            }
            None => {
                // Overflow before the peer even said hello: nothing owed.
                self.outbox.evict(conn, None);
            }
        }
    }

    /// Pushes a cumulative `FwdAck` to every neighbor we owe one: the GC
    /// pass (idle links below the ack cadence) and the shutdown path.
    fn flush_forward_acks(&mut self) {
        for link in self.links.values_mut() {
            if let (Some(conn), Some(seq)) = (link.conn(), link.owed_ack()) {
                Self::send_ack(&self.outbox, conn, seq);
            }
        }
    }

    fn handle_disconnect(&mut self, conn: ConnId, now: Instant) {
        self.outbox.unregister(conn);
        self.forget_conn(conn, now);
    }

    /// Engine-side teardown shared by the immediate
    /// ([`handle_disconnect`](Self::handle_disconnect)) and flush-then-
    /// close (`protocol_error_disconnect`) paths: drops the routing state
    /// for `conn` without touching the transport.
    fn forget_conn(&mut self, conn: ConnId, now: Instant) {
        match self.conns.remove(&conn) {
            Some(Peer::Client(client)) => {
                if let Some(state) = self.clients.get_mut(&client) {
                    if state.conn == Some(conn) {
                        // Keep the log: deliveries continue to accumulate
                        // for replay on reconnect (until the TTL).
                        state.conn = None;
                        state.disconnected_at = Some(now);
                    }
                }
            }
            Some(Peer::Broker(broker)) => {
                if let Some(link) = self.links.get_mut(&broker) {
                    link.forget(conn);
                }
            }
            None => {}
        }
    }

    fn collect_garbage(&mut self, now: Instant) {
        let ttl = self.config.client_ttl;
        self.clients.retain(|_, state| {
            state.log.collect();
            state.log.enforce_bound(self.config.log_bound);
            // Reclaim state for clients gone longer than the TTL.
            state
                .disconnected_at
                .is_none_or(|at| now.saturating_duration_since(at) <= ttl)
        });
        // Flush pending forward acks, so a link that went quiet below the
        // ack cadence still lets the neighbor trim its spool.
        // Spools need no pass: acks reclaim, appends enforce the bound.
        self.flush_forward_acks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::heartbeat_jitter_seed;
    use crate::storage::{PowerCut, SimStorage};
    use linkcast_types::{EventSchema, ValueKind};

    fn registry() -> SchemaRegistry {
        let mut r = SchemaRegistry::new();
        r.register(
            EventSchema::builder("trades")
                .attribute("issue", ValueKind::Str)
                .attribute("volume", ValueKind::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        r
    }

    fn subscription(reg: &SchemaRegistry, id: u32) -> (SchemaId, Subscription) {
        let schema_id = SchemaId::new(0);
        let schema = reg.get(schema_id).unwrap();
        let sub = Subscription::new(
            SubscriptionId::new(id),
            SubscriberId::new(BrokerId::new(1), ClientId::new(2)),
            linkcast_types::parse_predicate(schema, "volume > 10").unwrap(),
        );
        (schema_id, sub)
    }

    /// One WAL record, encoded the way `wal_commit` writes it.
    fn record(ops: &[WalOp]) -> Vec<u8> {
        let payload = storage::encode_ops(ops);
        let mut out = Vec::new();
        storage::encode_record(&payload, &mut out);
        out
    }

    #[test]
    fn redial_jitter_stays_in_band_and_spreads_the_herd() {
        // In-band: every jittered value lands in [backoff, 1.5*backoff].
        for base in [LINK_REDIAL_MIN, Duration::from_millis(400), LINK_REDIAL_MAX] {
            let mut state = jitter_seed(BrokerId::new(1), BrokerId::new(2));
            for _ in 0..64 {
                let j = jittered_backoff(base, &mut state);
                assert!(j >= base, "{j:?} < {base:?}");
                assert!(
                    j <= base + base / 2 + Duration::from_millis(1),
                    "{j:?} too far over {base:?}"
                );
            }
        }
        // Spread: the first redial of distinct (local, neighbor) pairs —
        // the lockstep moment after a hub crash — must not collapse onto
        // one instant. Demand a majority of distinct values across 16
        // supervisors (50ms base gives 26 possible slots).
        let base = LINK_REDIAL_MIN;
        let firsts: std::collections::HashSet<Duration> = (0..16)
            .map(|n| {
                let mut state = jitter_seed(BrokerId::new(n), BrokerId::new(0));
                jittered_backoff(base, &mut state)
            })
            .collect();
        assert!(
            firsts.len() >= 8,
            "only {} distinct first backoffs",
            firsts.len()
        );
        // And successive redials of one supervisor spread too.
        let mut state = jitter_seed(BrokerId::new(3), BrokerId::new(0));
        let series: std::collections::HashSet<Duration> = (0..16)
            .map(|_| jittered_backoff(base, &mut state))
            .collect();
        assert!(
            series.len() >= 8,
            "only {} distinct successive backoffs",
            series.len()
        );
    }

    #[test]
    fn heartbeat_jitter_stays_in_band_and_decorrelates_from_redials() {
        // In-band: every jittered ping threshold lands in
        // [interval, 1.5*interval] — detection latency stays bounded by
        // the same order of one heartbeat interval.
        for base in [
            Duration::from_millis(100),
            Duration::from_millis(500),
            Duration::from_secs(2),
        ] {
            let mut state = heartbeat_jitter_seed(BrokerId::new(1), BrokerId::new(2));
            for _ in 0..64 {
                let j = jittered_backoff(base, &mut state);
                assert!(j >= base, "{j:?} < {base:?}");
                assert!(
                    j <= base + base / 2 + Duration::from_millis(1),
                    "{j:?} too far over {base:?}"
                );
            }
        }
        // Spread: distinct links draw distinct first thresholds, so the
        // mesh's pings do not land on one timer edge.
        let base = Duration::from_millis(500);
        let firsts: std::collections::HashSet<Duration> = (0..16)
            .map(|n| {
                let mut state = heartbeat_jitter_seed(BrokerId::new(n), BrokerId::new(0));
                jittered_backoff(base, &mut state)
            })
            .collect();
        assert!(
            firsts.len() >= 8,
            "only {} distinct ping thresholds",
            firsts.len()
        );
        // Decorrelated from the redial stream: the same (local, neighbor)
        // pair must not draw the same schedule for pings as for redials.
        let mut redial = jitter_seed(BrokerId::new(1), BrokerId::new(2));
        let mut ping = heartbeat_jitter_seed(BrokerId::new(1), BrokerId::new(2));
        let redials: Vec<Duration> = (0..8)
            .map(|_| jittered_backoff(base, &mut redial))
            .collect();
        let pings: Vec<Duration> = (0..8).map(|_| jittered_backoff(base, &mut ping)).collect();
        assert_ne!(redials, pings, "ping jitter mirrors the redial jitter");
    }

    #[test]
    fn snapshot_roundtrips_full_state() {
        let reg = registry();
        let mut sub_ids = SubIdAllocator::default();
        let a = sub_ids.allocate().unwrap();
        let _b = sub_ids.allocate().unwrap();
        sub_ids.free(a);
        let mut tombstones = TombstoneSet::default();
        tombstones.insert(SubscriptionId::new(77));
        let mut receiving = Link::default();
        receiving.recover_mark(0xabc, 9);
        let mut sending = Link::default();
        for (seq, frame) in [(1, "one"), (2, "two"), (3, "three")] {
            sending.recover_append(seq, Bytes::from_static(frame.as_bytes()));
        }
        sending.on_ack(1);
        let links = BTreeMap::from([(BrokerId::new(3), receiving), (BrokerId::new(4), sending)]);
        let subs = vec![subscription(&reg, 5)];

        let bytes = encode_snapshot(0xfeed, &sub_ids, &tombstones, &links, &subs);
        let back = decode_snapshot(&bytes, &reg).expect("snapshot decodes");

        assert_eq!(back.incarnation, 0xfeed);
        assert_eq!(back.sub_ids.checkpoint(), sub_ids.checkpoint());
        assert!(back.tombstones.contains(SubscriptionId::new(77)));
        let (seq, durable_seq, acked_sent, peer_incarnation) =
            back.links.get(&BrokerId::new(3)).unwrap().window();
        assert_eq!((seq, durable_seq, peer_incarnation), (9, 9, 0xabc));
        // Acked-sent restarts at zero: the next flush re-advertises the
        // durable mark, which is harmless (cumulative acks clamp).
        assert_eq!(acked_sent, 0);
        let spool = back.links.get(&BrokerId::new(4)).unwrap().spool();
        // Only unacknowledged frames survive, in the same sequence space.
        assert_eq!(spool.acked(), 1);
        assert_eq!(spool.last_seq(), 3);
        let frames: Vec<&Bytes> = spool.replay_after(1).map(|(_, f)| f).collect();
        assert_eq!(
            frames,
            vec![&Bytes::from_static(b"two"), &Bytes::from_static(b"three")]
        );
        assert_eq!(back.subscriptions.len(), 1);
        assert_eq!(
            back.subscriptions.first().unwrap().1.id(),
            SubscriptionId::new(5)
        );
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_fresh_boot() {
        let reg = registry();
        assert!(decode_snapshot(&[1, 2, 3], &reg).is_none());
        let st = SimStorage::default();
        st.write_snapshot(STATE_SNAPSHOT, &[9, 9, 9, 9]).unwrap();
        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        // Fresh state, fresh incarnation — but the boot still counts as a
        // recovery attempt (durable state existed).
        assert!(r.links.is_empty());
        assert_ne!(r.incarnation, 0);
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fresh_storage_recovers_to_fresh_boot_without_counting() {
        let reg = registry();
        let st = SimStorage::default();
        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        assert!(r.links.is_empty());
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 0);
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn recover_replays_wal_suffix_on_top_of_snapshot() {
        let reg = registry();
        let st = SimStorage::default();
        // Snapshot: incarnation 7, one spool with one unacked frame.
        let mut sending = Link::default();
        sending.recover_append(1, Bytes::from_static(b"f1"));
        let snap = encode_snapshot(
            7,
            &SubIdAllocator::default(),
            &TombstoneSet::default(),
            &BTreeMap::from([(BrokerId::new(2), sending)]),
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &snap).unwrap();
        // WAL suffix: one more append + a receive mark, then a trim.
        st.append(
            WAL_LOG,
            &record(&[
                WalOp::Append {
                    neighbor: 2,
                    seq: 2,
                    frame: Bytes::from_static(b"f2"),
                },
                WalOp::RecvMark {
                    from: 3,
                    incarnation: 0xabc,
                    seq: 5,
                },
            ]),
        )
        .unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::Trim {
                neighbor: 2,
                acked: 1,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        assert_eq!(r.incarnation, 7);
        let spool = r.links.get(&BrokerId::new(2)).unwrap().spool();
        assert_eq!((spool.acked(), spool.last_seq()), (1, 2));
        let frames: Vec<&Bytes> = spool.replay_after(1).map(|(_, f)| f).collect();
        assert_eq!(frames, vec![&Bytes::from_static(b"f2")]);
        let (seq, durable_seq, _, peer_incarnation) =
            r.links.get(&BrokerId::new(3)).unwrap().window();
        assert_eq!((seq, durable_seq, peer_incarnation), (5, 5, 0xabc));
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 1);
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 2);
        assert_eq!(stats.torn_records_discarded.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn snapshot_torn_cut_recovers_from_previous_snapshot_and_wal() {
        // A cut that interrupts the snapshot rename itself (no storage op
        // followed the write) reverts the slot to its previous contents.
        // The WAL was not yet truncated — the truncate would have
        // committed the rename — so the previous snapshot plus the full
        // WAL reconstructs the state the torn snapshot described.
        let reg = registry();
        let st = SimStorage::default();
        let old = encode_snapshot(
            7,
            &SubIdAllocator::default(),
            &TombstoneSet::default(),
            &BTreeMap::new(),
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &old).unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 0xabc,
                seq: 4,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        // The interrupted checkpoint (a decodable snapshot with a
        // recognizably different incarnation, so a failed revert shows).
        let torn = encode_snapshot(
            9,
            &SubIdAllocator::default(),
            &TombstoneSet::default(),
            &BTreeMap::new(),
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &torn).unwrap();
        st.power_cut(PowerCut::SnapshotTorn);

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        assert_eq!(
            r.incarnation, 7,
            "torn rename must revert to the committed snapshot"
        );
        let (seq, durable_seq, ..) = r.links.get(&BrokerId::new(3)).unwrap().window();
        assert_eq!((seq, durable_seq), (4, 4));
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wal_replay_is_idempotent_over_an_untruncated_log() {
        // A cut between boot-snapshot commit and WAL truncate leaves the
        // absorbed records behind: replaying them on top of the snapshot
        // that already contains their effects must change nothing.
        let reg = registry();
        let st = SimStorage::default();
        let append = record(&[
            WalOp::Append {
                neighbor: 2,
                seq: 1,
                frame: Bytes::from_static(b"f1"),
            },
            WalOp::RecvMark {
                from: 3,
                incarnation: 0xabc,
                seq: 4,
            },
        ]);
        st.append(WAL_LOG, &append).unwrap();
        st.sync(WAL_LOG).unwrap();
        let stats = StatsInner::default();
        let first = recover(&st, &reg, &stats).unwrap();
        // Simulate the boot snapshot without the truncate.
        let snap = encode_snapshot(
            first.incarnation,
            &first.sub_ids,
            &first.tombstones,
            &first.links,
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &snap).unwrap();
        let second = recover(&st, &reg, &stats).unwrap();
        assert_eq!(second.incarnation, first.incarnation);
        let spool = second.links.get(&BrokerId::new(2)).unwrap().spool();
        assert_eq!((spool.acked(), spool.last_seq(), spool.len()), (0, 1, 1));
        let (seq, ..) = second.links.get(&BrokerId::new(3)).unwrap().window();
        assert_eq!(seq, 4);
    }

    #[test]
    fn torn_tail_record_is_discarded_on_recovery_not_replayed() {
        let reg = registry();
        let st = SimStorage::default();
        st.append(
            WAL_LOG,
            &record(&[WalOp::Append {
                neighbor: 2,
                seq: 1,
                frame: Bytes::from_static(b"durable"),
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        // The second record never syncs; the power cut tears it.
        st.append(
            WAL_LOG,
            &record(&[WalOp::Append {
                neighbor: 2,
                seq: 2,
                frame: Bytes::from_static(b"torn"),
            }]),
        )
        .unwrap();
        st.power_cut(PowerCut::TornTail);

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        let spool = r.links.get(&BrokerId::new(2)).unwrap().spool();
        assert_eq!(
            spool.last_seq(),
            1,
            "torn append must not be replayed as data"
        );
        assert_eq!(stats.torn_records_discarded.load(Ordering::Relaxed), 1);
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lost_suffix_reverts_to_synced_prefix_on_recovery() {
        let reg = registry();
        let st = SimStorage::default();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 1,
                seq: 10,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 1,
                seq: 20,
            }]),
        )
        .unwrap();
        st.power_cut(PowerCut::LostSuffix);

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        let (_, durable_seq, ..) = r.links.get(&BrokerId::new(3)).unwrap().window();
        assert_eq!(durable_seq, 10, "unsynced mark must not survive the cut");
    }

    #[test]
    fn recv_mark_replay_tracks_peer_restarts_in_order() {
        let reg = registry();
        let st = SimStorage::default();
        // Peer incarnation A reaches seq 10, restarts as B, reaches seq 2.
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 0xa,
                seq: 10,
            }]),
        )
        .unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 0xb,
                seq: 2,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        let (seq, .., peer_incarnation) = r.links.get(&BrokerId::new(3)).unwrap().window();
        assert_eq!((peer_incarnation, seq), (0xb, 2));
    }

    /// A neighbor broker played by hand over an in-process connection.
    struct FakePeer {
        conn: LocalConn,
    }

    impl FakePeer {
        fn send(&self, message: BrokerToBroker) {
            let batch = FrameBatch::single(message.encode());
            let command = Command::Frames(self.conn.conn, batch);
            self.conn.cmd_tx.send(command).unwrap();
        }

        /// What the broker has sent since the last call: commands run in
        /// order, so it is everything ahead of the answer to a `Ping`.
        fn sync(&self) -> Vec<BrokerToBroker> {
            self.send(BrokerToBroker::Ping);
            let mut seen = Vec::new();
            loop {
                let frame = self.conn.rx.recv_timeout(Duration::from_secs(5)).unwrap();
                let payload = frame.slice(protocol::FRAME_PREFIX..);
                match BrokerToBroker::decode(payload, &self.conn.registry).unwrap() {
                    BrokerToBroker::Pong => return seen,
                    message => seen.push(message),
                }
            }
        }
    }

    #[test]
    fn a_handshake_journals_one_trim_and_an_ack_that_moves_nothing_none() {
        let reg = Arc::new(registry());
        let mut b = linkcast::NetworkBuilder::new();
        let (b0, b1) = (b.add_broker(), b.add_broker());
        b.connect(b0, b1, 1.0).unwrap();
        let (publisher, far) = (b.add_client(b0).unwrap(), b.add_client(b1).unwrap());
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
        let mut config = BrokerConfig::localhost(b0, fabric, Arc::clone(&reg));
        config.storage = Some(Arc::new(SimStorage::default()));
        // Nothing but this test's frames may move the journal.
        config.gc_interval = Duration::from_secs(3600);
        config.heartbeat_interval = Duration::from_secs(3600);
        let node = BrokerNode::start(config).unwrap();
        let hello = |last_recv, last_recv_incarnation| BrokerToBroker::Hello {
            broker: b1,
            incarnation: 0xb1,
            last_recv,
            last_recv_incarnation,
            send_seq: 0,
        };

        // B1 connects and subscribes its client to everything.
        let peer = FakePeer {
            conn: node.open_local(),
        };
        peer.send(hello(0, 0));
        let schema = reg.get(SchemaId::new(0)).unwrap();
        peer.send(BrokerToBroker::SubAdd {
            schema: SchemaId::new(0),
            subscription: Subscription::new(
                SubscriptionId::new((b1.raw() << SUB_COUNTER_BITS) | 1),
                SubscriberId::new(b1, far),
                linkcast_types::parse_predicate(schema, "volume >= 0").unwrap(),
            ),
            resync: false,
        });
        let ours = peer.sync().iter().find_map(|m| match m {
            BrokerToBroker::Hello { incarnation, .. } => Some(*incarnation),
            _ => None,
        });
        let ours = ours.expect("the broker greets back");

        // Three events cross: three frames spooled, three records.
        let client = node.open_local();
        client.send(&ClientToBroker::Hello {
            client: publisher,
            resume_from: 0,
        });
        for volume in 0..3 {
            let values = [
                linkcast_types::Value::Str("IBM".into()),
                linkcast_types::Value::Int(volume),
            ];
            let event = Event::from_values(schema, values).unwrap();
            client.send(&ClientToBroker::Publish { event });
        }
        client.send(&ClientToBroker::StatsRequest);
        let stats = loop {
            if let BrokerToClient::Stats(stats) = client.recv(Duration::from_secs(5)).unwrap() {
                break stats;
            }
        };
        assert_eq!((stats.spooled, stats.wal_appends), (3, 3));
        assert_eq!(peer.sync().len(), 3);

        // B1 redials having durably received two of them: one trim, one
        // frame replayed behind the handshake.
        let peer = FakePeer {
            conn: node.open_local(),
        };
        peer.send(hello(2, ours));
        let sent = peer.sync();
        assert!(
            matches!(sent.last(), Some(BrokerToBroker::Forward { seq: 3, .. })),
            "{sent:?}"
        );
        assert_eq!(node.stats().retransmitted, 1);
        assert_eq!(node.stats().wal_appends, 3 + 1);
        // The same Hello again trims nothing and journals nothing.
        peer.send(hello(2, ours));
        peer.sync();
        assert_eq!(node.stats().wal_appends, 3 + 1);
        // An ack that moves the floor is one record; repeated, none.
        peer.send(BrokerToBroker::FwdAck { seq: 3 });
        peer.sync();
        assert_eq!(node.stats().wal_appends, 3 + 2);
        peer.send(BrokerToBroker::FwdAck { seq: 3 });
        peer.sync();
        assert_eq!(node.stats().wal_appends, 3 + 2);
        assert_eq!(node.stats().storage_errors, 0);
    }

    /// Storage whose calls fail while the flag is up.
    #[derive(Debug, Default)]
    struct FlakyStorage {
        inner: SimStorage,
        failing: AtomicBool,
    }

    impl FlakyStorage {
        fn check(&self) -> std::io::Result<()> {
            if self.failing.load(Ordering::Relaxed) {
                return Err(std::io::Error::other("injected"));
            }
            Ok(())
        }
    }

    impl Storage for FlakyStorage {
        fn append(&self, log: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.check().and_then(|()| self.inner.append(log, bytes))
        }
        fn sync(&self, log: &str) -> std::io::Result<()> {
            self.check().and_then(|()| self.inner.sync(log))
        }
        fn read(&self, log: &str) -> std::io::Result<Vec<u8>> {
            self.check().and_then(|()| self.inner.read(log))
        }
        fn truncate(&self, log: &str) -> std::io::Result<()> {
            self.check().and_then(|()| self.inner.truncate(log))
        }
        fn write_snapshot(&self, slot: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.check()
                .and_then(|()| self.inner.write_snapshot(slot, bytes))
        }
        fn read_snapshot(&self, slot: &str) -> std::io::Result<Option<Vec<u8>>> {
            self.check().and_then(|()| self.inner.read_snapshot(slot))
        }
    }

    #[test]
    fn swallowed_storage_errors_are_counted() {
        let storage = Arc::new(FlakyStorage::default());
        let stats = Arc::new(StatsInner::default());
        let mut journal = Journal {
            storage: Some(Arc::clone(&storage) as Arc<dyn Storage>),
            stats: Arc::clone(&stats),
            ..Journal::default()
        };
        let errors = || stats.storage_errors.load(Ordering::Relaxed);
        let mark = || WalOp::RecvMark {
            from: 2,
            incarnation: 0xb1,
            seq: 1,
        };
        journal.record(mark);
        journal.commit(true);
        journal.checkpoint(|| b"snapshot".to_vec());
        assert_eq!(errors(), 0);

        storage.failing.store(true, Ordering::Relaxed);
        // A synced commit fails twice (append, sync), an unsynced one once;
        // the record still counts, as it did before the counter existed.
        journal.record(mark);
        journal.commit(true);
        assert_eq!(errors(), 2);
        journal.trim(BrokerId::new(2), Some(1));
        assert_eq!(errors(), 3);
        assert_eq!(stats.wal_appends.load(Ordering::Relaxed), 3);
        // A failed snapshot write is one error and leaves the WAL alone.
        journal.checkpoint(|| b"snapshot".to_vec());
        assert_eq!(errors(), 4);
        assert_eq!(stats.snapshot_writes.load(Ordering::Relaxed), 1);

        storage.failing.store(false, Ordering::Relaxed);
        assert_eq!(storage.inner.read(WAL_LOG).unwrap(), Vec::<u8>::new());
        journal.checkpoint(|| b"snapshot".to_vec());
        assert_eq!(errors(), 4);
        assert_eq!(stats.snapshot_writes.load(Ordering::Relaxed), 2);
    }
}
