//! The broker node: threads, recovery and lifecycle around the protocol
//! core, [`BrokerCore`], which its engine thread steps.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use linkcast::RoutingFabric;
use linkcast_matching::MatchStats;
use linkcast_types::{wire, BrokerId, SchemaId, SchemaRegistry, Subscription, SubscriptionId};
use parking_lot::Mutex;

use crate::broker_core::{BrokerCore, Out, STATE_SNAPSHOT, WAL_LOG};
use crate::control::{SubIdAllocator, TombstoneSet};
use crate::counters::{BrokerStats, Derived, Gauges, StatsInner};
use crate::link::{Link, Redial};
use crate::outbox::{ConnId, Outbox, Sink};
use crate::protocol::{self, BrokerToClient, ClientToBroker};
use crate::storage::{self, Storage, WalOp};
use crate::tcp::TcpTransport;
use crate::transport::{self, FrameBatch, Transport};

/// SO_SNDTIMEO applied to every TCP connection: a peer that stops reading
/// while the kernel send buffer is full fails the write (and is
/// disconnected) instead of wedging a sender-pool thread indefinitely.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Threads in the sending pool. One sender drains a connection at a time,
/// so more of them help only when more connections have frames queued.
const SENDER_THREADS: usize = 2;

/// Per-connection cap on queued outgoing bytes. A client that crosses it
/// (a subscriber that stopped reading) is evicted with a final `Error`
/// frame; a broker peer that crosses it is disconnected and its spool
/// retransmits after the redial. Either way one stalled consumer costs at
/// most this much memory, not the broker.
const CONN_QUEUE_BOUND: u64 = 8 * 1024 * 1024;

/// How long [`BrokerNode::shutdown`] waits for queued frames (final acks,
/// tail-of-stream deliveries) to flush before cutting stragglers off.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

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
    /// The network the node binds and dials through: [`TcpTransport`] (the
    /// default), or any other [`Transport`] — a wrapper that counts or
    /// traces what the sockets do, say.
    pub transport: Arc<dyn Transport>,
    /// Capacity of the match-result cache (entries), keyed by the event's
    /// *tested* attribute values and invalidated wholesale when the
    /// subscription set changes generation. `0` disables caching.
    pub match_cache_cap: usize,
    /// How long a broker link may stay completely silent (no frames at
    /// all — a live peer answers pings) before it is declared dead and torn
    /// down. The link spool keeps every unacknowledged frame, so the redial
    /// handshake retransmits and nothing is lost. The heartbeat is a tenth
    /// of it: a link idle that long is pinged, so a live peer answers
    /// several times before the timeout.
    pub liveness_timeout: Duration,
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
            match_cache_cap: 0,
            liveness_timeout: Duration::from_secs(5),
            link_handshake_timeout: Duration::from_secs(2),
            repair_after: 0,
            storage: None,
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
    /// [`BrokerConfig::repair_after`] consecutive failures: declare the
    /// edge to this neighbor dead, flood the `LinkDown` statement, and
    /// repair the topology around it.
    LinkUnreachable(BrokerId),
    /// A connection's outgoing queue crossed [`CONN_QUEUE_BOUND`] (reported
    /// once by the outbox); the engine picks the policy — client eviction
    /// or peer disconnect.
    QueueOverflow(ConnId),
    /// Stop the engine loop.
    Shutdown,
    /// Crash-stop the engine loop (fault injection): exit immediately,
    /// without the final ack flush a graceful `Shutdown` performs.
    Crash,
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
    /// What the node was started with (the core has its own copy).
    config: BrokerConfig,
    addr: SocketAddr,
    cmd_tx: Sender<Command>,
    outbox: Arc<Outbox>,
    stats: Arc<StatsInner>,
    match_stats: Arc<Mutex<MatchStats>>,
    shutdown: Arc<AtomicBool>,
    next_conn: Arc<AtomicU64>,
    /// Current topology epoch, stored by the core on every
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
            SENDER_THREADS,
            CONN_QUEUE_BOUND,
            Some(WRITE_STALL_TIMEOUT),
            cmd_tx.clone(),
        )?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let next_conn = Arc::new(AtomicU64::new(1));

        // Acceptor.
        let acceptor_thread = transport::spawn_acceptor(
            listener,
            cmd_tx.clone(),
            Arc::clone(&outbox),
            Arc::clone(&next_conn),
            Arc::clone(&shutdown),
        )?;

        let (out, now) = (Arc::clone(&outbox), Instant::now());
        let core = BrokerCore::boot(config.clone(), mint_incarnation(), out, now)?;
        let stats = Arc::clone(&core.stats);
        let match_stats = Arc::clone(&core.match_stats);
        let topology_epoch = Arc::clone(&core.epoch_gauge);
        let engine_thread = std::thread::Builder::new()
            .name(format!("broker-{}", config.broker))
            .spawn(move || run(core, cmd_rx))?;

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
                let mut redial = Redial::new(me, neighbor, repair_after);
                // Never panic here — that would kill the supervisor thread
                // and orphan the link forever.
                while !shutdown.load(Ordering::Acquire) {
                    // How long to wait before the next attempt, and whether
                    // to escalate to a `LinkDown` topology repair.
                    let (pause, escalate) = match transport.dial(addr) {
                        // Dial failures (including per-connection setup
                        // inside the transport) back off instead of
                        // spin-dialing.
                        Err(_) => redial.refused(),
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
                            redial.ended(greeted, established.elapsed())
                        }
                    };
                    if escalate && cmd_tx.send(Command::LinkUnreachable(neighbor)).is_err() {
                        return;
                    }
                    std::thread::sleep(pause);
                }
            });
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
        self.outbox.drain_all(DRAIN_TIMEOUT);
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

/// Upper bound on any count field in a snapshot. Snapshots are
/// self-written (never peer input), so a larger count only ever means
/// corruption — reject the snapshot rather than trust the length.
const MAX_SNAPSHOT_ITEMS: u32 = 1 << 24;

/// Broker state rebuilt by [`recover`] (or fresh) and handed to the core
/// at boot.
#[derive(Default)]
pub(crate) struct Recovered {
    pub(crate) incarnation: u64,
    pub(crate) sub_ids: SubIdAllocator,
    pub(crate) tombstones: TombstoneSet,
    pub(crate) links: BTreeMap<BrokerId, Link>,
    pub(crate) subscriptions: Vec<(SchemaId, Subscription)>,
}

impl Recovered {
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
pub(crate) fn encode_snapshot(
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
/// undecodable snapshot falls back to a fresh boot — with the *new*
/// `incarnation`, so nothing of the dead sequence space leaks.
pub(crate) fn recover(
    st: &dyn Storage,
    registry: &SchemaRegistry,
    stats: &StatsInner,
    incarnation: u64,
) -> std::io::Result<Recovered> {
    let snap = st.read_snapshot(STATE_SNAPSHOT)?;
    let wal = st.read(WAL_LOG)?;
    let had_state = snap.is_some() || !wal.is_empty();
    let mut recovered = snap
        .and_then(|bytes| decode_snapshot(&bytes, registry))
        .unwrap_or_else(|| Recovered {
            incarnation,
            ..Recovered::default()
        });
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

/// The engine thread, the one thread that steps a [`BrokerCore`]: its clock.
/// The wait for a command ends at the core's next deadline, the time is
/// read once per wake-up, and the core's timers are offered that time after
/// every command, so a mailbox that never empties delays them by one.
fn run(mut core: BrokerCore<Arc<Outbox>>, cmd_rx: Receiver<Command>) {
    let mut now = Instant::now();
    loop {
        let command = cmd_rx.recv_timeout(core.next_deadline().saturating_duration_since(now));
        now = Instant::now();
        match command {
            // Final courtesy: the acks we owe, so surviving neighbors trim
            // their spools instead of retransmitting at our restart.
            Ok(Command::Shutdown) => return core.flush_forward_acks(),
            // Fault injection: die as a power cut would, no ack flush, no
            // checkpoint. (The outbox holds a sender: no early close.)
            Ok(Command::Crash) | Err(RecvTimeoutError::Disconnected) => return,
            Ok(command) => core.step(command, now),
            Err(RecvTimeoutError::Timeout) => {}
        }
        core.on_clock(now);
    }
}

/// The core's connections are the outbox's.
impl Out for Arc<Outbox> {
    fn send(&self, conn: ConnId, frame: Bytes) {
        Outbox::send(self, conn, frame);
    }
    fn send_many<I: IntoIterator<Item = ConnId>>(&self, conns: I, frame: &Bytes) {
        Outbox::send_many(self, conns, frame);
    }
    fn unregister(&self, conn: ConnId) {
        Outbox::unregister(self, conn);
    }
    fn close_after_flush(&self, conn: ConnId) {
        Outbox::close_after_flush(self, conn);
    }
    fn evict(&self, conn: ConnId, notice: Option<Bytes>) {
        Outbox::evict(self, conn, notice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker_core::tests::{Io, Recording};
    use crate::broker_core::Journal;
    use crate::control::SUB_COUNTER_BITS;
    use crate::link::{
        heartbeat_jitter_seed, jitter_seed, jittered_backoff, LINK_REDIAL_MAX, LINK_REDIAL_MIN,
    };
    use crate::protocol::BrokerToBroker;
    use crate::storage::{PowerCut, SimStorage};
    use linkcast_types::{ClientId, Event, EventSchema, SubscriberId, ValueKind};

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
        let r = recover(&st, &reg, &stats, 0xf1).unwrap();
        // Fresh state, the fresh incarnation — but the boot still counts as
        // a recovery attempt (durable state existed).
        assert!(r.links.is_empty());
        assert_eq!(r.incarnation, 0xf1);
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fresh_storage_recovers_to_fresh_boot_without_counting() {
        let reg = registry();
        let st = SimStorage::default();
        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats, 0xf1).unwrap();
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
        let r = recover(&st, &reg, &stats, 0xf1).unwrap();
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
        let r = recover(&st, &reg, &stats, 0xf1).unwrap();
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
        let first = recover(&st, &reg, &stats, 0xf1).unwrap();
        // Simulate the boot snapshot without the truncate.
        let snap = encode_snapshot(
            first.incarnation,
            &first.sub_ids,
            &first.tombstones,
            &first.links,
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &snap).unwrap();
        let second = recover(&st, &reg, &stats, 0xf1).unwrap();
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
        let r = recover(&st, &reg, &stats, 0xf1).unwrap();
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
        let r = recover(&st, &reg, &stats, 0xf1).unwrap();
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
        let r = recover(&st, &reg, &stats, 0xf1).unwrap();
        let (seq, .., peer_incarnation) = r.links.get(&BrokerId::new(3)).unwrap().window();
        assert_eq!((peer_incarnation, seq), (0xb, 2));
    }

    #[test]
    fn a_handshake_journals_one_trim_and_an_ack_that_moves_nothing_none() {
        const PEER: ConnId = 1;
        const CLIENT: ConnId = 2;
        const REDIALED: ConnId = 3;
        let reg = Arc::new(registry());
        let mut b = linkcast::NetworkBuilder::new();
        let (b0, b1) = (b.add_broker(), b.add_broker());
        b.connect(b0, b1, 1.0).unwrap();
        let (publisher, far) = (b.add_client(b0).unwrap(), b.add_client(b1).unwrap());
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
        let mut config = BrokerConfig::localhost(b0, fabric, Arc::clone(&reg));
        config.storage = Some(Arc::new(SimStorage::default()));
        // No timer fires: nothing moves the clock.
        let now = Instant::now();
        let mut core = BrokerCore::boot(config, 0xb0, Recording::default(), now).unwrap();
        let stats = Arc::clone(&core.stats);
        let wal_appends = || stats.wal_appends.load(Ordering::Relaxed);
        // What the broker sent on `conn` since the last call.
        let sent = |core: &mut BrokerCore<_>, conn| -> Vec<BrokerToBroker> {
            let frames = core.take_io().into_iter().filter_map(|io| match io {
                Io::Send(to, frame) if to == conn => Some(frame),
                _ => None,
            });
            let payload = |frame: Bytes| frame.slice(protocol::FRAME_PREFIX..);
            let decode = |frame| BrokerToBroker::decode(payload(frame), &reg).unwrap();
            frames.map(decode).collect()
        };
        let hello = |last_recv, last_recv_incarnation| BrokerToBroker::Hello {
            broker: b1,
            incarnation: 0xb1,
            last_recv,
            last_recv_incarnation,
            send_seq: 0,
        };

        // B1 connects and subscribes its client to everything.
        core.feed(PEER, hello(0, 0).encode(), now);
        let schema = reg.get(SchemaId::new(0)).unwrap();
        let add = BrokerToBroker::SubAdd {
            schema: SchemaId::new(0),
            subscription: Subscription::new(
                SubscriptionId::new((b1.raw() << SUB_COUNTER_BITS) | 1),
                SubscriberId::new(b1, far),
                linkcast_types::parse_predicate(schema, "volume >= 0").unwrap(),
            ),
            resync: false,
        };
        core.feed(PEER, add.encode(), now);
        let ours = sent(&mut core, PEER).iter().find_map(|m| match m {
            BrokerToBroker::Hello { incarnation, .. } => Some(*incarnation),
            _ => None,
        });
        let ours = ours.expect("the broker greets back");

        // Three events cross: three frames spooled, three records.
        let hello_client = ClientToBroker::Hello {
            client: publisher,
            resume_from: 0,
        };
        core.feed(CLIENT, hello_client.encode(), now);
        for volume in 0..3 {
            let values = [
                linkcast_types::Value::Str("IBM".into()),
                linkcast_types::Value::Int(volume),
            ];
            let event = Event::from_values(schema, values).unwrap();
            core.feed(CLIENT, ClientToBroker::Publish { event }.encode(), now);
        }
        assert_eq!(stats.spooled.load(Ordering::Relaxed), 3);
        assert_eq!(wal_appends(), 3);
        assert_eq!(sent(&mut core, PEER).len(), 3);

        // B1 redials having durably received two of them: one trim, one
        // frame replayed behind the handshake.
        core.feed(REDIALED, hello(2, ours).encode(), now);
        let replayed = sent(&mut core, REDIALED);
        assert!(
            matches!(
                replayed.last(),
                Some(BrokerToBroker::Forward { seq: 3, .. })
            ),
            "{replayed:?}"
        );
        assert_eq!(stats.retransmitted.load(Ordering::Relaxed), 1);
        assert_eq!(wal_appends(), 3 + 1);
        // The same Hello again trims nothing and journals nothing.
        core.feed(REDIALED, hello(2, ours).encode(), now);
        assert_eq!(wal_appends(), 3 + 1);
        // An ack that moves the floor is one record; repeated, none.
        core.feed(REDIALED, BrokerToBroker::FwdAck { seq: 3 }.encode(), now);
        assert_eq!(wal_appends(), 3 + 2);
        core.feed(REDIALED, BrokerToBroker::FwdAck { seq: 3 }.encode(), now);
        assert_eq!(wal_appends(), 3 + 2);
        assert_eq!(stats.storage_errors.load(Ordering::Relaxed), 0);
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
