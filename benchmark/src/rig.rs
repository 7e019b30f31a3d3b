//! The rig every workload runs on: a three-broker chain A–B–C over
//! loopback TCP with `BrokerConfig::localhost` defaults, a publisher on A,
//! a subscriber on C, and — per workload — a decoy table, a match cache, a
//! WAL, a churn client.
//!
//! Two things here exist only to make two runs of the same code agree:
//!
//! - **Core split.** The thread that builds a cluster pins itself to the
//!   SUT core first, so every thread the brokers spawn inherits that core;
//!   the two generator threads later pin themselves to the other one.
//! - **Phased install.** Subscriptions are installed from one thread,
//!   broker by broker, and every broker's subscription count must converge
//!   before the next phase starts. Concurrent installs race their own
//!   floods, each broker then inserts in a different order, and the
//!   annotated tree — hence matching steps per event — differs run to run.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{
    BrokerConfig, BrokerNode, BrokerStats, BrokerToClient, Client, ClientToBroker, FsStorage,
    LocalConn, Storage, TcpTransport, Transport,
};
use linkcast_matching::MatchStats;
use linkcast_types::{BrokerId, ClientId, SchemaId, SchemaRegistry, SubscriptionId};

use crate::inputs::{self, Spec, CHURN_LIVE, DECOY_CLIENTS};
use crate::procfs;
use crate::trace::{TracedStorage, TracedTransport, Tracer};

/// Brokers in the chain.
pub const BROKERS: usize = 3;
/// Broker labels, chain order.
pub const BROKER_NAMES: [&str; BROKERS] = ["A", "B", "C"];
const CONTROL_TIMEOUT: Duration = Duration::from_secs(10);

/// Where and how this process runs; fixed before the first cluster.
#[derive(Debug, Clone)]
pub struct Env {
    /// Cores available to the process at start.
    pub nproc: usize,
    /// Whether the core split is in force.
    pub pinned: bool,
    /// Core every broker thread runs on.
    pub sut_core: usize,
    /// Core the two generator threads run on.
    pub gen_core: usize,
    /// Directory the `durable` workload's WALs live under; removed by
    /// [`Env::remove_wal_root`] when the process is done.
    pub wal_root: PathBuf,
    /// Filesystem type of `wal_root` (from `/proc/mounts`).
    pub wal_fs: String,
    /// Directory for trace files and self-check output.
    pub out_dir: PathBuf,
}

impl Env {
    /// Probes the host. With fewer than two cores, or without a working
    /// `taskset`, the run goes unpinned and says so.
    pub fn detect(out_dir: &Path) -> Env {
        let mut env = Env::unpinned(out_dir);
        // Pinning the main thread to the SUT core doubles as the probe.
        env.pinned = env.nproc >= 2 && procfs::pin_current_thread(env.sut_core);
        // The WALs go to tmpfs where there is one: `durable` keeps the
        // brokers' sync-before-ack path (`wal_sync = true`, a snapshot per
        // 256 records) and on the checkout's virtual disk that measures the
        // device — 2.2k to 3.3k events/s, drifting by the quarter of an
        // hour — not the broker. `wal_fs` says which one a run got.
        let shm = Path::new("/dev/shm").join(format!("linkcast-bench-{}", std::process::id()));
        if std::fs::create_dir(&shm).is_ok() {
            env.wal_fs = fs_type_of(&shm);
            env.wal_root = shm;
        }
        env
    }

    /// Removes the WAL directory and whatever a failed run left in it.
    pub fn remove_wal_root(&self) {
        let _ = std::fs::remove_dir_all(&self.wal_root);
    }

    /// An environment that never pins and keeps its WALs under `out_dir`:
    /// for tests, which share their process with other tests.
    pub fn unpinned(out_dir: &Path) -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Env {
            nproc,
            pinned: false,
            sut_core: nproc.saturating_sub(1),
            gen_core: 0,
            wal_root: out_dir.join("wal"),
            wal_fs: fs_type_of(out_dir),
            out_dir: out_dir.to_path_buf(),
        }
    }

    /// Moves the calling thread onto the SUT core (before building a
    /// cluster, or for layer microbenchmarks).
    pub fn enter_sut_core(&self) {
        if self.pinned {
            procfs::pin_current_thread(self.sut_core);
        }
    }

    /// Moves the calling thread onto the generator core.
    pub fn enter_gen_core(&self) {
        if self.pinned {
            procfs::pin_current_thread(self.gen_core);
        }
    }
}

/// Filesystem type of the longest mount point that prefixes `path`.
fn fs_type_of(path: &Path) -> String {
    let absolute = std::env::current_dir()
        .map(|cwd| cwd.join(path))
        .unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(fs)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if absolute.starts_with(point) && point.len() >= best.0 {
            best = (point.len(), fs.to_string());
        }
    }
    best.1
}

/// The churn client: a `LocalConn` on C that replaces its oldest live
/// decoy chain with a fresh one, paced by the caller.
pub struct ChurnClient {
    conn: LocalConn,
    schema: SchemaId,
    live: VecDeque<SubscriptionId>,
    next_chain: u64,
    /// Subscribe/unsubscribe pairs issued.
    pub steps: u64,
    /// Frames that must never arrive: deliveries (a decoy matched) and
    /// errors (a mutation was refused).
    pub violations: u64,
}

impl ChurnClient {
    /// Folds in acknowledgments that have arrived, without waiting.
    pub fn drain_acks(&mut self) {
        while let Ok(frame) = self.conn.recv(Duration::ZERO) {
            self.take(frame);
        }
    }

    fn take(&mut self, frame: BrokerToClient) {
        match frame {
            BrokerToClient::SubAck { id } => self.live.push_back(id),
            BrokerToClient::UnsubAck { .. } => {}
            _ => self.violations += 1,
        }
    }

    /// One mutation pair: drop the oldest live chain, add a fresh one.
    pub fn step(&mut self) {
        self.drain_acks();
        if self.live.is_empty() {
            // Acks lag the mutations by less than CHURN_LIVE steps in any
            // healthy run; waiting here keeps the pair count exact anyway.
            match self.conn.recv(CONTROL_TIMEOUT) {
                Ok(frame) => self.take(frame),
                Err(_) => self.violations += 1,
            }
        }
        if let Some(id) = self.live.pop_front() {
            self.conn.send(&ClientToBroker::Unsubscribe { id });
        }
        self.conn.send(&ClientToBroker::Subscribe {
            schema: self.schema,
            expression: inputs::decoy_chain(self.next_chain),
        });
        self.next_chain += 1;
        self.steps += 1;
    }
}

/// Sum of the counters the oracle and the per-layer metrics read, over
/// the three brokers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `errors`.
    pub errors: u64,
    /// `protocol_errors`.
    pub protocol_errors: u64,
    /// `spooled`.
    pub spooled: u64,
    /// `retransmitted`.
    pub retransmitted: u64,
    /// `dropped_spool_overflow`.
    pub dropped_spool_overflow: u64,
    /// `wal_appends`.
    pub wal_appends: u64,
    /// `snapshot_writes`.
    pub snapshot_writes: u64,
    /// Outgoing frames queued right now, Σ over brokers.
    pub queued_frames: u64,
    /// Per-broker matching cost, chain order.
    pub matching: [MatchStats; BROKERS],
}

impl Counters {
    /// Σ over brokers of one `MatchStats` field.
    pub fn match_sum(&self, field: impl Fn(&MatchStats) -> u64) -> u64 {
        self.matching.iter().map(field).sum()
    }
}

/// A running cluster with its clients attached.
pub struct Cluster {
    /// The workload it was built for.
    pub spec: Spec,
    /// Brokers A, B, C.
    pub nodes: Vec<BrokerNode>,
    /// The publisher's connection to A.
    pub publisher: Client,
    /// The subscriber's connection to C (taken by the receiver thread).
    pub subscriber: Option<Client>,
    /// Decoy subscribers, kept connected so stray deliveries would show.
    pub decoys: Vec<LocalConn>,
    /// The churn client (`churn` workload only; taken by the receiver).
    pub churn: Option<ChurnClient>,
    /// The information space.
    pub registry: Arc<SchemaRegistry>,
    /// Subscriptions every broker holds once set-up has converged.
    pub expected_subscriptions: u64,
    wal_dirs: Vec<PathBuf>,
}

/// The static network every cluster (and the `core` layer benchmark,
/// which needs B's link space) is built over.
pub struct Topology {
    /// Spanning trees rooted at every broker.
    pub fabric: Arc<RoutingFabric>,
    /// A, B, C.
    pub brokers: Vec<BrokerId>,
    /// The publisher, homed at A.
    pub publisher_id: ClientId,
    /// The subscriber, homed at C.
    pub subscriber_id: ClientId,
    /// The churn client, homed at C.
    pub churn_id: ClientId,
    /// Decoy client `slot`, homed at broker `slot % 3`.
    pub decoy_ids: Vec<ClientId>,
}

impl Topology {
    /// The chain A-B-C with every client provisioned.
    ///
    /// # Errors
    ///
    /// Topology construction errors, as text.
    pub fn new() -> Result<Topology, String> {
        let mut net = NetworkBuilder::new();
        let brokers = net.add_brokers(BROKERS);
        for pair in brokers.windows(2) {
            net.connect(pair[0], pair[1], 5.0)
                .map_err(|e| e.to_string())?;
        }
        let mut client_at = |b: usize| net.add_client(brokers[b]).map_err(|e| e.to_string());
        let publisher_id = client_at(0)?;
        let subscriber_id = client_at(BROKERS - 1)?;
        let churn_id = client_at(BROKERS - 1)?;
        let decoy_ids: Vec<ClientId> = (0..DECOY_CLIENTS)
            .map(|slot| client_at(slot % BROKERS))
            .collect::<Result<_, _>>()?;
        let fabric = RoutingFabric::new_all_roots(net.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        Ok(Topology {
            fabric,
            brokers,
            publisher_id,
            subscriber_id,
            churn_id,
            decoy_ids,
        })
    }
}

/// Decoy chain indices (1-based) installed in `phase`: those whose client
/// slot `j % DECOY_CLIENTS` is homed at broker `phase`, ascending.
pub fn decoy_phase(decoys: usize, phase: usize) -> Vec<usize> {
    (1..=decoys)
        .filter(|j| (j % DECOY_CLIENTS) % BROKERS == phase)
        .collect()
}

fn hello(conn: &LocalConn, client: ClientId) -> Result<(), String> {
    conn.send(&ClientToBroker::Hello {
        client,
        resume_from: 0,
    });
    match conn.recv(CONTROL_TIMEOUT) {
        Ok(BrokerToClient::Welcome { .. }) => Ok(()),
        other => Err(format!("expected welcome, got {other:?}")),
    }
}

fn expect_suback(conn: &LocalConn) -> Result<SubscriptionId, String> {
    match conn.recv(CONTROL_TIMEOUT) {
        Ok(BrokerToClient::SubAck { id }) => Ok(id),
        other => Err(format!("expected subscription ack, got {other:?}")),
    }
}

impl Cluster {
    /// Builds the cluster for `spec`: starts the brokers, dials the chain,
    /// installs the table phase by phase and connects the publisher.
    /// Returns once every broker holds every subscription.
    ///
    /// The calling thread must already be on the SUT core
    /// ([`Env::enter_sut_core`]) for the core split to hold.
    ///
    /// # Errors
    ///
    /// A description of whichever set-up step failed or timed out.
    pub fn build(
        spec: Spec,
        seed: u64,
        env: &Env,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Cluster, String> {
        let registry = inputs::registry();
        let schema = SchemaId::new(0);
        let Topology {
            fabric,
            brokers,
            publisher_id,
            subscriber_id,
            churn_id,
            decoy_ids,
        } = Topology::new()?;

        static BUILDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let build_no = BUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let wal_dirs: Vec<PathBuf> = if spec.durable {
            BROKER_NAMES
                .iter()
                .map(|name| {
                    env.wal_root
                        .join(format!("{}-{build_no}-{name}", std::process::id()))
                })
                .collect()
        } else {
            Vec::new()
        };

        let mut nodes = Vec::with_capacity(BROKERS);
        for (i, &broker) in brokers.iter().enumerate() {
            let mut config = BrokerConfig::localhost(broker, fabric.clone(), Arc::clone(&registry));
            config.match_cache_cap = spec.cache_cap;
            if let Some(tracer) = tracer {
                config.transport = Arc::new(TracedTransport::new(
                    Arc::new(TcpTransport) as Arc<dyn Transport>,
                    Arc::clone(tracer),
                    BROKER_NAMES[i],
                ));
            }
            if spec.durable {
                // `wal_sync` and `snapshot_every` keep their defaults:
                // sync before ack, a snapshot per 256 records.
                let _ = std::fs::remove_dir_all(&wal_dirs[i]);
                let fs: Arc<dyn Storage> =
                    Arc::new(FsStorage::open(&wal_dirs[i]).map_err(|e| e.to_string())?);
                config.storage = Some(match tracer {
                    Some(tracer) => {
                        Arc::new(TracedStorage::new(fs, Arc::clone(tracer), BROKER_NAMES[i]))
                    }
                    None => fs,
                });
            }
            nodes.push(BrokerNode::start(config).map_err(|e| e.to_string())?);
        }
        for i in 0..BROKERS - 1 {
            nodes[i].connect_to_persistent(brokers[i + 1], nodes[i + 1].addr());
        }

        let mut cluster = Cluster {
            spec,
            publisher: Client::connect(nodes[0].addr(), publisher_id, 0, Arc::clone(&registry))
                .map_err(|e| e.to_string())?,
            subscriber: None,
            decoys: Vec::new(),
            churn: None,
            registry: Arc::clone(&registry),
            expected_subscriptions: 0,
            nodes,
            wal_dirs,
        };

        let mut subscriber = Client::connect(
            cluster.nodes[BROKERS - 1].addr(),
            subscriber_id,
            0,
            Arc::clone(&registry),
        )
        .map_err(|e| e.to_string())?;
        // This first subscription doubles as the link-up barrier: it
        // reaches A only once both links have completed their handshakes.
        subscriber
            .subscribe(schema, "volume >= 0")
            .map_err(|e| e.to_string())?;
        cluster.subscriber = Some(subscriber);
        cluster.expected_subscriptions = 1;
        cluster.await_convergence()?;

        if spec.decoys > 0 {
            let base = inputs::decoy_base(seed);
            for (slot, &id) in decoy_ids.iter().enumerate() {
                let conn = cluster.nodes[slot % BROKERS].open_local();
                hello(&conn, id)?;
                cluster.decoys.push(conn);
            }
            for phase in 0..BROKERS {
                // Pipelined: the broker's command queue is FIFO, so the
                // install order is the send order; acks are collected
                // after, in the same order.
                let chains = decoy_phase(spec.decoys, phase);
                for &j in &chains {
                    cluster.decoys[j % DECOY_CLIENTS].send(&ClientToBroker::Subscribe {
                        schema,
                        expression: inputs::decoy_chain(base + j as u64),
                    });
                }
                for &j in &chains {
                    expect_suback(&cluster.decoys[j % DECOY_CLIENTS])?;
                }
                cluster.expected_subscriptions += chains.len() as u64;
                cluster.await_convergence()?;
            }
            if spec.churn_every > 0 {
                let conn = cluster.nodes[BROKERS - 1].open_local();
                hello(&conn, churn_id)?;
                let mut churn = ChurnClient {
                    conn,
                    schema,
                    live: VecDeque::with_capacity(CHURN_LIVE + 1),
                    next_chain: base + spec.decoys as u64 + 1,
                    steps: 0,
                    violations: 0,
                };
                for _ in 0..CHURN_LIVE {
                    churn.conn.send(&ClientToBroker::Subscribe {
                        schema,
                        expression: inputs::decoy_chain(churn.next_chain),
                    });
                    churn.next_chain += 1;
                    let id = expect_suback(&churn.conn)?;
                    churn.live.push_back(id);
                }
                cluster.churn = Some(churn);
                cluster.expected_subscriptions += CHURN_LIVE as u64;
                cluster.await_convergence()?;
            }
        }
        Ok(cluster)
    }

    /// Waits until every broker reports exactly the expected subscription
    /// count.
    fn await_convergence(&self) -> Result<(), String> {
        let deadline = Instant::now() + CONTROL_TIMEOUT * 3;
        loop {
            let counts: Vec<u64> = self.nodes.iter().map(|n| n.stats().subscriptions).collect();
            if counts.iter().all(|&c| c == self.expected_subscriptions) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "subscription flood stalled: brokers hold {counts:?}, expected {}",
                    self.expected_subscriptions
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Snapshot of the summed counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for (i, node) in self.nodes.iter().enumerate() {
            let s: BrokerStats = node.stats();
            c.errors += s.errors;
            c.protocol_errors += s.protocol_errors;
            c.spooled += s.spooled;
            c.retransmitted += s.retransmitted;
            c.dropped_spool_overflow += s.dropped_spool_overflow;
            c.wal_appends += s.wal_appends;
            c.snapshot_writes += s.snapshot_writes;
            c.queued_frames += s.queued_frames;
            c.matching[i] = node.match_stats();
        }
        c
    }

    /// Frames waiting on decoy connections: each would be a delivery to a
    /// subscriber whose predicate no published event satisfies.
    pub fn stray_decoy_frames(&self) -> u64 {
        let mut n = 0;
        for conn in &self.decoys {
            while conn.recv(Duration::ZERO).is_ok() {
                n += 1;
            }
        }
        n
    }

    /// Stops the brokers, removes the WALs and waits for the cluster's
    /// detached reader threads to finish their last poll, so the next
    /// cluster (and its CPU accounting) starts from the baseline.
    pub fn teardown(self, baseline_threads: usize) {
        let Cluster {
            nodes,
            publisher,
            subscriber,
            decoys,
            churn,
            wal_dirs,
            ..
        } = self;
        drop(publisher);
        drop(subscriber);
        drop(decoys);
        drop(churn);
        for node in nodes {
            node.shutdown();
        }
        for dir in &wal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while procfs::thread_ids().len() > baseline_threads && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
