//! The broker as a function of its inputs (DESIGN.md §7): every handler,
//! both timers and the journal, and no thread, clock, channel or socket.
//! [`BrokerCore`] takes each [`Command`] with the time its caller read and
//! acts on connections through [`Out`]; `broker.rs` drives it, the tests and
//! the simulator (`broker_core/des.rs`, DESIGN.md §12.2) step it.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use linkcast::{LinkTarget, MatchCache, RouteScratch, RoutingFabric, TreeId};
use linkcast_matching::MatchStats;
use linkcast_types::{
    BrokerId, ClientId, Event, LinkId, SubscriberId, Subscription, SubscriptionId,
};

use crate::broker::{encode_snapshot, recover, BrokerConfig, Command, Recovered};
use crate::control::{SubIdAllocator, TombstoneSet, SUB_COUNTER_BITS, SUB_ID_SPACE};
use crate::counters::{Derived, MatchTally, StatsInner};
use crate::engine::MatchingEngine;
use crate::link::{heartbeat_jitter_seed, Link, Mark, Tick};
use crate::log::EventLog;
use crate::outbox::ConnId;
use crate::protocol::{self, BrokerToBroker, BrokerToClient, ClientToBroker};
use crate::repair::{LinkStateTable, LinkStatement};
use crate::storage::{self, Storage, WalOp};

/// Name of the broker's single write-ahead log inside its [`Storage`].
pub(crate) const WAL_LOG: &str = "wal";
/// Name of the broker's control-state snapshot slot.
pub(crate) const STATE_SNAPSHOT: &str = "state";

/// What the core does to connections: the outbox's five calls, or a record.
pub(crate) trait Out {
    /// Queues `frame` on `conn`; dropped if `conn` is gone.
    fn send(&self, conn: ConnId, frame: Bytes);
    /// Queues one shared `frame` on each of `conns`.
    fn send_many<I: IntoIterator<Item = ConnId>>(&self, conns: I, frame: &Bytes) {
        for conn in conns {
            self.send(conn, frame.clone());
        }
    }
    /// Closes `conn` at once, discarding what is queued on it.
    fn unregister(&self, conn: ConnId);
    /// Closes `conn` once what is queued on it is written.
    fn close_after_flush(&self, conn: ConnId);
    /// Closes `conn`, discarding what is queued on it but `notice`.
    fn evict(&self, conn: ConnId, notice: Option<Bytes>);
}

#[derive(Clone, Copy)]
enum Peer {
    Client(ClientId),
    Broker(BrokerId),
}

#[derive(Default)]
struct ClientState {
    conn: Option<ConnId>,
    log: EventLog,
    /// When the client's connection dropped (None while connected).
    disconnected_at: Option<Instant>,
}

/// The write-ahead journal, the core's one storage handle. Without
/// [`BrokerConfig::storage`] it records nothing and every call is a no-op:
/// callers never ask which kind of broker they run in.
#[derive(Default)]
pub(crate) struct Journal {
    pub(crate) storage: Option<Arc<dyn Storage>>,
    /// Ops recorded since the last commit; they commit as one WAL record.
    pub(crate) pending: Vec<WalOp>,
    /// Reusable record-encoding buffer.
    pub(crate) buf: Vec<u8>,
    /// WAL records appended since the last checkpoint; reaching
    /// `SNAPSHOT_EVERY` triggers the next one.
    pub(crate) records_since_snapshot: u64,
    pub(crate) stats: Arc<StatsInner>,
}

impl Journal {
    /// Adds `op` to the record being built — the one place the event path
    /// learns whether a journal exists.
    pub(crate) fn record(&mut self, op: impl FnOnce() -> WalOp) {
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
    pub(crate) fn commit(&mut self, sync: bool) {
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
    pub(crate) fn trim(&mut self, neighbor: BrokerId, floor: Option<u64>) {
        if let Some(acked) = floor {
            let neighbor = neighbor.raw();
            self.record(|| WalOp::Trim { neighbor, acked });
            self.commit(false);
        }
    }

    /// Writes `snapshot`, then truncates the WAL it absorbs: after a cut
    /// between the two the old records replay idempotently on top of it. A
    /// failed write leaves the WAL alone, to grow until one succeeds.
    pub(crate) fn checkpoint(&mut self, snapshot: impl FnOnce() -> Vec<u8>) {
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

/// One broker's protocol state and handlers, over the connections `O`.
pub(crate) struct BrokerCore<O: Out> {
    config: BrokerConfig,
    /// This broker lifetime's nonce, announced in every link `Hello` so
    /// peers can tell a restart from a reconnect.
    incarnation: u64,
    engine: MatchingEngine,
    out: O,
    pub(crate) stats: Arc<StatsInner>,
    /// Accumulated matching cost, read by `BrokerNode::match_stats`.
    pub(crate) match_stats: Arc<MatchTally>,
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
    /// data plane over atomically (one thread steps the core).
    fabric: Arc<RoutingFabric>,
    /// The spanning tree rooted at this broker, down which its own
    /// clients' events travel. A tree is named by its root, so a repair
    /// reshapes it but never renames it.
    tree: TreeId,
    /// Flooded link-state statements folded into per-edge versions; the
    /// source of truth for `epoch` and the dead-edge exclusion set.
    link_state: LinkStateTable,
    /// Current topology epoch (`link_state.epoch()`), stitched into
    /// every outgoing `Forward` frame and compared against incoming
    /// ones. Plain copy of `epoch_gauge`.
    epoch: u64,
    /// Shared copy of `epoch` for `BrokerNode::stats`.
    pub(crate) epoch_gauge: Arc<AtomicU64>,
    /// When the GC pass is next due (`GC_INTERVAL` apart).
    gc_due: Instant,
    /// When the heartbeat is next due (`heartbeat_period` apart).
    heartbeat_due: Instant,
}

/// How often the GC pass runs: it trims acknowledged client-log entries,
/// enforces `LOG_BOUND`, reclaims clients gone past `CLIENT_TTL` and sends
/// the `FwdAck`s quiet links still owe.
const GC_INTERVAL: Duration = Duration::from_millis(250);
/// Entries a client log retains; older unacknowledged ones are dropped and
/// counted lost, so a client that never returns holds bounded memory.
const LOG_BOUND: usize = 4096;
/// How long a disconnected client's log outlives its connection; a client
/// that reconnects later starts a fresh session (sequence numbers restart).
const CLIENT_TTL: Duration = Duration::from_secs(3600);
/// WAL records between cadence checkpoints with storage configured: each
/// writes a snapshot and truncates the log, bounding recovery replay.
const SNAPSHOT_EVERY: u64 = 256;
/// The shortest heartbeat period, so a zero liveness timeout cannot spin
/// the shell.
const MIN_PERIOD: Duration = Duration::from_millis(1);

/// The heartbeat period: a tenth of the liveness timeout, so a live peer
/// is pinged, and answers, several times before its link could time out.
fn heartbeat_period(liveness: Duration) -> Duration {
    (liveness / 10).max(MIN_PERIOD)
}

/// The frame that states `s`.
fn statement(s: LinkStatement) -> BrokerToBroker {
    let LinkStatement { a, b, ver, down } = s;
    if down {
        BrokerToBroker::LinkDown { a, b, ver }
    } else {
        BrokerToBroker::LinkUp { a, b, ver }
    }
}

impl<O: Out> BrokerCore<O> {
    /// Boots a broker, its timers first due an interval after `now`: what
    /// `config.storage` holds is recovered and its subscriptions
    /// re-installed, or — with no storage, or nothing in it — the broker
    /// starts empty as lifetime `incarnation`. Every boot, the first and
    /// every restart alike, goes through here.
    ///
    /// # Errors
    ///
    /// Storage errors reading or committing the recovered state, and
    /// matching-engine construction errors.
    pub(crate) fn boot(
        config: BrokerConfig,
        incarnation: u64,
        out: O,
        now: Instant,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let stats = Arc::new(StatsInner::default());
        // Load the snapshot, replay the WAL suffix on top (discarding torn
        // tails) and resume the recovered incarnation, so peers' cumulative
        // acks stay valid.
        let recovered = match &config.storage {
            Some(st) => recover(st.as_ref(), &config.registry, &stats, incarnation)?,
            None => Recovered {
                incarnation,
                ..Recovered::default()
            },
        };
        let tree = config.fabric.tree_for(config.broker)?;
        let registry = Arc::clone(&config.registry);
        let mut engine = MatchingEngine::new(config.broker, &config.fabric, registry)?;
        // Failures are skipped rather than fatal (a subscription that no
        // longer parses against the fabric is better dropped than blocking
        // boot); the anti-entropy resync heals any gap from peers.
        for (schema, subscription) in &recovered.subscriptions {
            let _ = engine.subscribe(*schema, subscription.clone());
        }
        if let Some(st) = &config.storage {
            // Commit recovery: a boot snapshot of the merged state, then
            // truncate the WAL it absorbed (a cut between the two replays
            // the old records idempotently on top). Only after this may the
            // core talk to peers: the snapshot makes the incarnation durable.
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
        let core = BrokerCore {
            match_cache: MatchCache::new(config.match_cache_cap),
            route_scratch: RouteScratch::new(),
            fabric: Arc::clone(&config.fabric),
            tree,
            link_state: LinkStateTable::default(),
            epoch: 0,
            epoch_gauge: Arc::new(AtomicU64::new(0)),
            journal: Journal {
                storage: config.storage.clone(),
                stats: Arc::clone(&stats),
                ..Journal::default()
            },
            staged: Vec::new(),
            gc_due: now + GC_INTERVAL,
            heartbeat_due: now + heartbeat_period(config.liveness_timeout),
            incarnation: recovered.incarnation,
            engine,
            out,
            stats,
            match_stats: Arc::default(),
            conns: HashMap::new(),
            clients: HashMap::new(),
            links: recovered.links,
            tombstones: recovered.tombstones,
            sub_ids: recovered.sub_ids,
            config,
        };
        core.refresh_subscriptions();
        Ok(core)
    }

    /// Handles one command read at `now` (`Shutdown` and `Crash` are the shell's).
    pub(crate) fn step(&mut self, command: Command, now: Instant) {
        match command {
            Command::Frames(conn, batch) => {
                // Any frame, decodable or not, proves a broker peer's send
                // path alive; one stamp covers the batch, it is one read.
                if let Some((_, link)) = self.peer_link(conn) {
                    link.heard(conn, now);
                }
                for frame in batch {
                    self.handle_frame(conn, frame, now);
                }
            }
            Command::DialedNeighbor(conn, neighbor) => {
                // `Forward`s stay spooled until the peer's `Hello`.
                self.install_link(neighbor, conn, now);
                self.greet(neighbor, conn);
            }
            Command::Disconnected(conn) => self.handle_disconnect(conn, now),
            Command::LinkUnreachable(neighbor) => self.handle_link_unreachable(neighbor, now),
            Command::QueueOverflow(conn) => self.handle_queue_overflow(conn, now),
            Command::Shutdown | Command::Crash => {}
        }
    }

    /// Runs the GC pass and the heartbeat if `now` has reached their
    /// deadlines, and sets the next ones an interval after `now`.
    pub(crate) fn on_clock(&mut self, now: Instant) {
        if now >= self.gc_due {
            self.collect_garbage(now);
            self.gc_due = now + GC_INTERVAL;
        }
        if now >= self.heartbeat_due {
            self.heartbeat_tick(now);
            self.heartbeat_due = now + heartbeat_period(self.config.liveness_timeout);
        }
    }

    /// The nearer of the GC and heartbeat deadlines.
    pub(crate) fn next_deadline(&self) -> Instant {
        self.gc_due.min(self.heartbeat_due)
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
        self.out.close_after_flush(conn);
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
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        let links = self.route_inline(&event, self.tree);
        self.dispatch(&event, self.tree, &body, links, None, now);
    }

    /// `frame` is `message` as it arrived, length prefix included. Every
    /// variant has its own arm: a wildcard, which would swallow one added
    /// later, fails clippy.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
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
                let state = self.clients.entry(client).or_default();
                state.conn = Some(conn);
                state.disconnected_at = None;
                state.log.ack(resume_from);
                let welcome = BrokerToClient::Welcome {
                    client,
                    resume_from: state.log.acked(),
                };
                self.out.send(conn, welcome.encode());
                // Replay what the client missed while disconnected.
                for (seq, event) in state.log.replay_after(state.log.acked()) {
                    let event = event.clone();
                    self.out
                        .send(conn, BrokerToClient::Deliver { seq, event }.encode());
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
                        self.refresh_subscriptions();
                        self.out.send(conn, BrokerToClient::SubAck { id }.encode());
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
                self.refresh_subscriptions();
                // Tombstone the id (so a resync while some link is down
                // cannot resurrect it) and recycle its counter half.
                self.tombstones.insert(id);
                self.sub_ids.free(id.raw() & (SUB_ID_SPACE - 1));
                self.out
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
                let matching = self.match_stats.get();
                let counters = self.stats.counters(Derived {
                    match_cache_hits: matching.cache_hits,
                    match_cache_misses: matching.cache_misses,
                    match_cache_invalidations: matching.cache_invalidations,
                });
                let frame = BrokerToClient::Stats(counters).encode();
                self.out.send(conn, frame);
            }
        }
    }

    /// `frame` is `message` as it arrived, length prefix included. Every
    /// variant has its own arm: a wildcard, which would swallow one added
    /// later, fails clippy.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
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
                    self.out.send(conn, frame);
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
                    self.out
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
                    self.refresh_subscriptions();
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
                self.out.send(conn, BrokerToBroker::Pong.encode());
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
                    self.refresh_subscriptions();
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
            self.out.unregister(old);
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
        self.out.send(conn, hello.encode());
        self.resync_subscriptions(conn);
        self.resync_link_state(conn);
    }

    /// Sends the cumulative `FwdAck` a link asked for.
    fn send_ack(out: &O, conn: ConnId, seq: u64) {
        out.send(conn, BrokerToBroker::FwdAck { seq }.encode());
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
        // under a different topology epoch names a tree whose shape has
        // changed here since (a tree id is its root's index and survives
        // repair; the tree's edges do not). Dropping it is safe precisely
        // because it is *not* acked and does *not* advance the receive
        // window: the frame stays pending in the sender's spool, and the
        // sender's own epoch flip re-homes every pending frame down its
        // repaired trees (see `rehome_spools` and DESIGN.md §15).
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
        self.match_stats.add(stats);
        // Between events, and only once enough of them have walked the tree.
        if self.route_scratch.order_check_due() {
            let rebuilt = self.engine.adapt_orders(&mut self.route_scratch);
            self.stats
                .order_rebuilds
                .fetch_add(rebuilt, Ordering::Relaxed);
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
                        disconnected_at: Some(now),
                        ..ClientState::default()
                    });
                    let seq = state.log.append(event.clone());
                    self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = state.conn {
                        self.out.send(conn, protocol::deliver_frame(seq, body));
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
                Self::send_ack(&self.out, conn, seq);
            }
        }
        for (conn, frame) in staged.drain(..) {
            self.out.send(conn, frame);
        }
        self.staged = staged;
        self.maybe_snapshot();
    }

    /// Checkpoints once the WAL has grown to `SNAPSHOT_EVERY` records.
    fn maybe_snapshot(&mut self) {
        if self.journal.records_since_snapshot >= SNAPSHOT_EVERY {
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
            self.out
                .send(conn, protocol::sub_add_frame(schema, &subscription, true));
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
        self.out.send_many(targets, frame);
    }

    /// A link supervisor crossed [`BrokerConfig::repair_after`]
    /// consecutive redial failures: originate the `LinkDown` statement for
    /// the edge between this broker and `neighbor`.
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
        // Apply to a copy, kept only if the statement is news: a stale or
        // duplicate one must not leave even a zero entry behind, since
        // `resync_link_state` replays every entry.
        let mut table = self.link_state.clone();
        if !table.apply(a, b, ver, down) {
            return; // stale or duplicate — already known, flood stops here
        }
        let fabric = self.fabric.rebuild_excluding(&table.dead_edges());
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
        let applied = LinkStatement { a, b, ver, down };
        self.flood_broker_message(&statement(applied), from);
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
        let (me, tree) = (self.config.broker, self.tree);
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
            self.out.send(conn, statement(s).encode());
        }
    }

    fn client_of(&self, conn: ConnId) -> Option<ClientId> {
        match self.conns.get(&conn) {
            Some(Peer::Client(c)) => Some(*c),
            _ => None,
        }
    }

    /// Stores the subscription count in the `subscriptions` gauge; every
    /// change to the table calls it.
    fn refresh_subscriptions(&self) {
        let count = self.engine.subscription_count() as u64;
        self.stats.subscriptions.store(count, Ordering::Relaxed);
    }

    fn client_error(&self, conn: ConnId, message: String) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        self.out
            .send(conn, BrokerToClient::Error { message }.encode());
    }

    /// One heartbeat-timer edge: tear down the links that stayed completely
    /// silent past the liveness timeout (half-open and stalled peers the
    /// kernel never reports — the spool keeps their frames and the redial
    /// handshake retransmits) and ping the merely idle ones, so a live
    /// peer always has something to answer.
    fn heartbeat_tick(&mut self, now: Instant) {
        let liveness = self.config.liveness_timeout;
        let heartbeat = heartbeat_period(liveness);
        // Decide first: teardown goes back through `links`.
        let links = self.links.values_mut();
        let ticks: Vec<Tick> = links.map(|l| l.tick(now, heartbeat, liveness)).collect();
        for tick in ticks {
            match tick {
                Tick::Idle => {}
                Tick::Ping(conn) => {
                    self.stats.pings_sent.fetch_add(1, Ordering::Relaxed);
                    self.out.send(conn, BrokerToBroker::Ping.encode());
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

    /// A connection overran its queue bound (`CONN_QUEUE_BOUND`). Clients are
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
                    message: "evicted: outgoing queue exceeded its bound".into(),
                }
                .encode();
                self.out.evict(conn, Some(notice));
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
                self.out.evict(conn, None);
            }
        }
    }

    /// Pushes a cumulative `FwdAck` to every neighbor we owe one: the GC
    /// pass (idle links below the ack cadence) and the shutdown path.
    pub(crate) fn flush_forward_acks(&mut self) {
        for link in self.links.values_mut() {
            if let (Some(conn), Some(seq)) = (link.conn(), link.owed_ack()) {
                Self::send_ack(&self.out, conn, seq);
            }
        }
    }

    fn handle_disconnect(&mut self, conn: ConnId, now: Instant) {
        self.out.unregister(conn);
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
        self.clients.retain(|_, state| {
            state.log.collect();
            state.log.enforce_bound(LOG_BOUND);
            // Reclaim state for clients gone longer than the TTL.
            state
                .disconnected_at
                .is_none_or(|at| now.saturating_duration_since(at) <= CLIENT_TTL)
        });
        // Flush pending forward acks, so a link that went quiet below the
        // ack cadence still lets the neighbor trim its spool.
        // Spools need no pass: acks reclaim, appends enforce the bound.
        self.flush_forward_acks();
    }
}

#[cfg(test)]
mod des;
pub mod sim;
#[cfg(test)]
pub(crate) mod tests;
