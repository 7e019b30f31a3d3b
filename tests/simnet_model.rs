//! Deterministic cluster model test on the in-process simnet.
//!
//! One seeded schedule drives a five-broker tree (0–1, 1–2, 2–3, 1–4;
//! broker 1 is the hub) through interleaved subscribe / unsubscribe /
//! publish / link-kill / link-revive / graceful-hub-restart operations,
//! with every byte moving through [`SimNet`] pipes instead of TCP. At
//! quiescence the run asserts:
//!
//! - **flooding-baseline delivery equivalence** — every stable match-all
//!   subscriber received exactly the published sequence, in publish
//!   order (single publisher), nothing lost to outages or the restart,
//!   nothing duplicated by spool retransmissions;
//! - **exactly-once into routing** — probe events' `forwarded` /
//!   `delivered` counter deltas match a [`LinkSpace`] flood oracle
//!   exactly, per broker (a duplicate into routing would inflate them);
//! - **routing-table convergence** — every broker's subscription view
//!   equals the harness's live-subscription oracle (a lost `SubRemove`
//!   resurrected by resync would stick out here);
//! - **zero counter leaks** — no queued frames/bytes, spool overflows,
//!   protocol errors, or overflow evictions left behind.
//!
//! A second test, `seeded_crash_model`, runs the same machinery with
//! durable [`SimStorage`] under every broker and replaces the graceful
//! hub restart with a power-cut crash ([`Op::CrashBroker`]): the hub is
//! killed without draining, its simulated disk is degraded by the
//! `SIMNET_CUT` mode, and the reboot must recover from WAL + snapshot
//! such that every assertion above still holds (DESIGN.md §14).
//!
//! A failing schedule is re-run through a greedy ddmin-style shrinker
//! and the minimal failing op sequence is printed with the seed, so a CI
//! failure replays locally with `SIMNET_SEED=<seed>` (DESIGN.md §12).
//!
//! What "deterministic" means here: the op schedule and the quiescent
//! observables derive from the seed alone; thread interleavings within a
//! run still vary with OS scheduling (the pipes' seeded jitter perturbs
//! them reproducibly in distribution, not per-instruction — see
//! DESIGN.md §12 for the contrast with loom).

mod fault;

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fault::{registry, seed_from_env, tick, Lcg};
use linkcast::{LinkSpace, LinkTarget, NetworkBuilder, RoutingFabric, TreeId};
use linkcast_broker::{
    BrokerConfig, BrokerNode, Client, ClientError, PowerCut, SimHost, SimNet, SimStorage, Storage,
};
use linkcast_types::{
    parse_predicate, BrokerId, ClientId, Event, SchemaId, SchemaRegistry, SubscriberId,
    Subscription, SubscriptionId, TritVec,
};

/// Tree topology: broker 1 is the hub.
const EDGES: [(usize, usize); 4] = [(0, 1), (1, 2), (2, 3), (1, 4)];
/// Redundant (cyclic) topology for the repair model: brokers 1-2-3-4
/// form a cycle, so any single cycle edge can die permanently and the
/// surviving graph stays connected — the precondition for a topology
/// repair to reroute around the cut. Edge 0 (0–1) is a bridge and is
/// never partitioned.
const REPAIR_EDGES: [(usize, usize); 5] = [(0, 1), (1, 2), (2, 3), (1, 4), (3, 4)];
/// Indices of `REPAIR_EDGES` the repair schedule may partition (the
/// cycle edges; killing the bridge would disconnect broker 0).
const REPAIR_CYCLE: std::ops::Range<usize> = 1..5;
const N_BROKERS: usize = 5;
const HUB: usize = 1;
/// Brokers hosting a churner client (not the hub: the hub restarts, and
/// restart wipes tombstones, which is a different property than the one
/// the churn pins).
const CHURN_BROKERS: [usize; 4] = [0, 2, 3, 4];
/// Regular published values start here so they never match a churner's
/// `n < K` predicate (K ≤ 5); probe values 0..=5 disambiguate.
const VALUE_BASE: i64 = 100;

/// One schedule step. Executors must treat every op as total: an op made
/// redundant by shrinking (reviving a live link, unsubscribing with no
/// live subscription, restarting with a link down) degrades to a no-op,
/// so any subsequence of a valid schedule is itself a valid schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Publish the next value (`VALUE_BASE + k`) at broker 0.
    Publish,
    /// Churner subscribes `n < below` at its home broker.
    Subscribe { churner: usize, below: i64 },
    /// Churner removes its live subscription.
    Unsubscribe { churner: usize },
    /// Sever a tree edge (spools hold events until the revive).
    KillLink { edge: usize },
    /// Bring a severed edge back (supervisors redial and resync).
    ReviveLink { edge: usize },
    /// Gracefully drain and restart the hub broker. No-op while any
    /// edge is down: restart loses the in-memory spool, so the
    /// exactly-once claim under test is for restarts of a *connected*
    /// broker (DESIGN.md §12 documents the limit).
    RestartHub,
    /// Kill the hub without draining (power cut) and reboot it from its
    /// durable storage, degraded by the run's [`PowerCut`] mode. No-op
    /// in a storage-less run, and while any edge is down — the crash
    /// survives arbitrary *broker* state loss, but the hub subscriber's
    /// client delivery log is volatile by design (DESIGN.md §14), so the
    /// pre-crash barrier needs a connected mesh to drain it first.
    CrashBroker,
    /// Let in-flight traffic land.
    Settle { ms: u64 },
    /// Permanently sever a cycle edge of the redundant repair topology
    /// and wait for the LinkDown repair to converge (every broker at the
    /// expected topology epoch). Emitted only by [`repair_schedule`];
    /// no-op when another partition is already active (two dead cycle
    /// edges could disconnect the graph, which is outside the repair
    /// contract), so shrunk subsequences stay well-formed.
    PartitionLink { edge: usize },
    /// Heal the active partition and wait for the LinkUp repair to
    /// converge. No-op when `edge` is not the active partition.
    HealLink { edge: usize },
}

/// Derives the op schedule from the seed. Generation tracks link and
/// subscription state so the emitted schedule is well-formed (kill only
/// up links, at most one live subscription per churner, at most one
/// restart per schedule to bound runtime).
fn schedule(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Lcg::new(seed);
    let mut live = [false; CHURN_BROKERS.len()];
    let mut up = [true; EDGES.len()];
    let mut restarted = false;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match rng.below(12) {
            0..=3 => Op::Publish,
            4..=6 => {
                let churner = rng.below(CHURN_BROKERS.len() as u64) as usize;
                if live[churner] {
                    live[churner] = false;
                    Op::Unsubscribe { churner }
                } else {
                    live[churner] = true;
                    Op::Subscribe {
                        churner,
                        below: 1 + rng.below(5) as i64,
                    }
                }
            }
            7..=8 => {
                let edge = rng.below(EDGES.len() as u64) as usize;
                if up[edge] {
                    up[edge] = false;
                    Op::KillLink { edge }
                } else {
                    up[edge] = true;
                    Op::ReviveLink { edge }
                }
            }
            9 if !restarted && up.iter().all(|&u| u) => {
                restarted = true;
                Op::RestartHub
            }
            _ => Op::Settle {
                ms: 20 + rng.below(80),
            },
        };
        ops.push(op);
    }
    ops
}

/// The crash-model schedule: the seed's graceful [`Op::RestartHub`]
/// becomes a power-cut [`Op::CrashBroker`]. Seeds whose schedule never
/// drew the restart arm get a crash appended (after reviving any
/// still-down edges, so it is not no-op'd away), keeping every seed in
/// the CI matrix an actual crash test.
fn crash_schedule(seed: u64, len: usize) -> Vec<Op> {
    let mut ops: Vec<Op> = schedule(seed, len)
        .into_iter()
        .map(|op| match op {
            Op::RestartHub => Op::CrashBroker,
            other => other,
        })
        .collect();
    if !ops.contains(&Op::CrashBroker) {
        let mut up = [true; EDGES.len()];
        for op in &ops {
            match *op {
                Op::KillLink { edge } => up[edge] = false,
                Op::ReviveLink { edge } => up[edge] = true,
                _ => {}
            }
        }
        for (edge, &u) in up.iter().enumerate() {
            if !u {
                ops.push(Op::ReviveLink { edge });
            }
        }
        ops.push(Op::Settle { ms: 100 });
        ops.push(Op::CrashBroker);
        ops.push(Op::Publish);
    }
    ops
}

/// The repair-model schedule: publishes and settles interleaved with
/// permanent single-link partitions (and heals) of the redundant
/// [`REPAIR_EDGES`] cycle. At most one partition is active at a time —
/// the repair contract covers any *single* link failure of a redundant
/// graph. If the drawn ops left the mesh whole, a final partition is
/// appended so the closing publish and the probe phase always run
/// *through* a repaired topology.
fn repair_schedule(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Lcg::new(seed);
    let mut active: Option<usize> = None;
    let mut ops = Vec::with_capacity(len + 2);
    for _ in 0..len {
        let op = match rng.below(10) {
            0..=4 => Op::Publish,
            5..=6 => match active.take() {
                Some(edge) => Op::HealLink { edge },
                None => {
                    let edge = REPAIR_CYCLE.start + rng.below(REPAIR_CYCLE.len() as u64) as usize;
                    active = Some(edge);
                    Op::PartitionLink { edge }
                }
            },
            _ => Op::Settle {
                ms: 20 + rng.below(80),
            },
        };
        ops.push(op);
    }
    if active.is_none() {
        let edge = REPAIR_CYCLE.start + rng.below(REPAIR_CYCLE.len() as u64) as usize;
        ops.push(Op::PartitionLink { edge });
    }
    ops.push(Op::Publish);
    ops
}

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// The §3.2 link-matching oracle over the public [`LinkSpace`] API: no
/// PST, no broker internals — evaluate every live predicate, union the
/// matching subscribers' leaf vectors, absorb into the tree's
/// initialization mask (same construction as `tests/match_cache_prop`).
fn oracle_links(
    space: &LinkSpace,
    live: &HashMap<SubscriptionId, Subscription>,
    event: &Event,
    tree: TreeId,
) -> Vec<linkcast_types::LinkId> {
    let mut yes = TritVec::no(space.width());
    for sub in live.values() {
        if sub.predicate().matches(event) {
            yes.parallel_in_place(&space.leaf_vector(sub.subscriber().client));
        }
    }
    let mut mask = space.init_mask(tree).clone();
    mask.absorb_yes_in_place(&yes);
    mask.maybes_to_no_in_place();
    space.links_to_send(&mask)
}

/// Per-broker `(forwarded, delivered)` increments a probe event must
/// cause, from flooding the oracle's link sets out of broker 0 along the
/// publish tree.
fn probe_flood(
    fabric: &RoutingFabric,
    spaces: &[LinkSpace],
    brokers: &[BrokerId],
    live: &HashMap<SubscriptionId, Subscription>,
    event: &Event,
    tree: TreeId,
) -> Vec<(u64, u64)> {
    let mut deltas = vec![(0u64, 0u64); brokers.len()];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        for link in oracle_links(&spaces[b], live, event, tree) {
            match fabric.network().link_target(brokers[b], link) {
                LinkTarget::Broker(n) => {
                    deltas[b].0 += 1;
                    let idx = brokers.iter().position(|&x| x == n).expect("known broker");
                    stack.push(idx); // a tree: never revisits
                }
                LinkTarget::Client(_) => deltas[b].1 += 1,
            }
        }
    }
    deltas
}

struct Cluster {
    net: Arc<SimNet>,
    fabric: Arc<RoutingFabric>,
    registry: Arc<SchemaRegistry>,
    brokers: Vec<BrokerId>,
    hosts: Vec<Arc<SimHost>>,
    nodes: Vec<Option<BrokerNode>>,
    addrs: Vec<SocketAddr>,
    /// One extra host shared by all clients (client links are never
    /// killed; the fault knobs target broker–broker edges).
    client_host: Arc<SimHost>,
    spaces: Vec<LinkSpace>,
    tree: TreeId,
    /// Per-broker durable storage, `None` in storage-less runs. The
    /// harness holds the `Arc`s, so the bytes survive a crashed broker
    /// the way a disk survives a dead process.
    storage: Vec<Option<Arc<SimStorage>>>,
    /// The broker graph this cluster was built over ([`EDGES`] or
    /// [`REPAIR_EDGES`]).
    edges: &'static [(usize, usize)],
    /// The `repair_after` escalation threshold every broker runs with
    /// (0 = repair disabled, the tree-model default).
    repair_after: u32,
}

impl Cluster {
    fn start(seed: u64, durable: bool) -> (Cluster, Vec<ClientId>, Vec<ClientId>, ClientId) {
        Cluster::start_with(seed, durable, &EDGES, 0)
    }

    fn start_with(
        seed: u64,
        durable: bool,
        edges: &'static [(usize, usize)],
        repair_after: u32,
    ) -> (Cluster, Vec<ClientId>, Vec<ClientId>, ClientId) {
        let mut builder = NetworkBuilder::new();
        let brokers: Vec<BrokerId> = (0..N_BROKERS).map(|_| builder.add_broker()).collect();
        for &(a, b) in edges {
            builder.connect(brokers[a], brokers[b], 5.0).unwrap();
        }
        let stable: Vec<ClientId> = brokers
            .iter()
            .map(|&b| builder.add_client(b).unwrap())
            .collect();
        let churners: Vec<ClientId> = CHURN_BROKERS
            .iter()
            .map(|&b| builder.add_client(brokers[b]).unwrap())
            .collect();
        let publisher = builder.add_client(brokers[0]).unwrap();
        let fabric = RoutingFabric::new_all_roots(builder.build().unwrap()).unwrap();
        let registry = registry();

        let net = SimNet::new(seed);
        let hosts: Vec<Arc<SimHost>> = (0..N_BROKERS).map(|_| Arc::new(net.host())).collect();
        let client_host = Arc::new(net.host());
        let addrs: Vec<SocketAddr> = hosts
            .iter()
            .enumerate()
            .map(|(i, h)| SocketAddr::new(h.ip(), 7100 + i as u16))
            .collect();
        let spaces: Vec<LinkSpace> = brokers
            .iter()
            .map(|&b| LinkSpace::build(fabric.network(), fabric.forest(), b))
            .collect();
        let tree = fabric.tree_for(brokers[0]).unwrap();

        let storage: Vec<Option<Arc<SimStorage>>> = (0..N_BROKERS)
            .map(|_| durable.then(|| Arc::new(SimStorage::new())))
            .collect();
        let mut cluster = Cluster {
            net,
            fabric,
            registry,
            brokers,
            hosts,
            nodes: (0..N_BROKERS).map(|_| None).collect(),
            addrs,
            client_host,
            spaces,
            tree,
            storage,
            edges,
            repair_after,
        };
        for i in 0..N_BROKERS {
            cluster.boot_broker(i);
        }
        (cluster, stable, churners, publisher)
    }

    fn config(&self, i: usize) -> BrokerConfig {
        let mut config = BrokerConfig::localhost(
            self.brokers[i],
            Arc::clone(&self.fabric),
            Arc::clone(&self.registry),
        );
        config.listen = self.addrs[i];
        config.transport = Arc::clone(&self.hosts[i]) as Arc<dyn linkcast_broker::Transport>;
        config.gc_interval = Duration::from_millis(50);
        config.heartbeat_interval = Duration::from_millis(100);
        config.liveness_timeout = Duration::from_secs(2);
        config.drain_timeout = Duration::from_secs(2);
        config.match_cache_cap = 64;
        config.storage = self.storage[i].clone().map(|s| s as Arc<dyn Storage>);
        // A short cadence so crash schedules exercise checkpoint +
        // WAL-suffix replay, not just one long log.
        config.snapshot_every = 8;
        config.repair_after = self.repair_after;
        config
    }

    /// Starts broker `i` and (re)issues its outgoing persistent dials
    /// (the higher-numbered endpoint of each edge supervises the dial).
    fn boot_broker(&mut self, i: usize) {
        let node = BrokerNode::start(self.config(i)).unwrap();
        for &(a, b) in self.edges {
            if b == i {
                node.connect_to_persistent(self.brokers[a], self.addrs[a]);
            }
        }
        self.nodes[i] = Some(node);
    }

    fn node(&self, i: usize) -> &BrokerNode {
        self.nodes[i].as_ref().expect("broker running")
    }

    /// Expected steady-state connection count of broker `i`: incident
    /// tree edges plus connected local clients.
    fn baseline_connections(&self, i: usize) -> usize {
        let links = self
            .edges
            .iter()
            .filter(|&&(a, b)| a == i || b == i)
            .count();
        let clients = self.fabric.network().clients_of(self.brokers[i]).len();
        links + clients
    }

    fn wait(
        &self,
        what: &str,
        timeout: Duration,
        mut done: impl FnMut(&Cluster) -> bool,
    ) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while !done(self) {
            ensure!(
                Instant::now() < deadline,
                "timed out waiting for {what}; {}",
                self.snapshot()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        Ok(())
    }

    /// One-line per-broker state dump for wait-timeout diagnostics.
    fn snapshot(&self) -> String {
        (0..N_BROKERS)
            .map(|i| {
                let s = self.node(i).stats();
                format!(
                    "b{i}: conns={}/{} subs={} queued={}f/{}B",
                    s.connections,
                    self.baseline_connections(i),
                    s.subscriptions,
                    s.queued_frames,
                    s.queued_bytes
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Drains deliveries into `sink` until it holds `target` values.
fn drain_into(
    client: &mut Client,
    sink: &mut Vec<i64>,
    target: usize,
    who: &str,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while sink.len() < target {
        match client.recv_unacked(deadline.saturating_duration_since(Instant::now())) {
            Ok((_, event)) => sink.push(event.value(0).unwrap().as_int().unwrap()),
            Err(e) => {
                return Err(format!(
                    "{who} stalled at {}/{target} events: {e}",
                    sink.len()
                ));
            }
        }
    }
    Ok(())
}

/// Asserts nothing further is delivered to `client` (duplicate / leak
/// detector).
fn assert_quiet(client: &mut Client, who: &str) -> Result<(), String> {
    match client.recv_unacked(Duration::from_millis(300)) {
        Ok((_, event)) => Err(format!(
            "{who} received an extra event {:?} at quiescence",
            event.value(0).unwrap().as_int().unwrap()
        )),
        Err(_) => Ok(()),
    }
}

/// Executes one schedule against a fresh storage-less cluster — see
/// [`run_model`].
fn run_ops(seed: u64, ops: &[Op]) -> Result<String, String> {
    run_model(seed, ops, None)
}

/// Executes one schedule against a fresh cluster and returns the event
/// trace (ops + quiescent observables). `Err` carries the first model
/// violation. `cut: Some(mode)` gives every broker durable [`SimStorage`]
/// and arms [`Op::CrashBroker`] with that power-cut mode.
fn run_model(seed: u64, ops: &[Op], cut: Option<PowerCut>) -> Result<String, String> {
    let (mut cluster, stable_ids, churner_ids, publisher_id) = Cluster::start(seed, cut.is_some());
    let registry = Arc::clone(&cluster.registry);
    let schema = SchemaId::new(0);

    // Phase A: stable match-all subscriber at every broker, barriered.
    let mut stable: Vec<Client> = stable_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let mut c = Client::connect_via(
                &*cluster.client_host,
                cluster.addrs[i],
                id,
                0,
                Arc::clone(&registry),
            )
            .unwrap();
            c.subscribe(schema, "n >= 0").unwrap();
            c
        })
        .collect();
    let mut churners: Vec<Client> = churner_ids
        .iter()
        .zip(CHURN_BROKERS)
        .map(|(&id, b)| {
            Client::connect_via(
                &*cluster.client_host,
                cluster.addrs[b],
                id,
                0,
                Arc::clone(&registry),
            )
            .unwrap()
        })
        .collect();
    let mut publisher = Client::connect_via(
        &*cluster.client_host,
        cluster.addrs[0],
        publisher_id,
        0,
        Arc::clone(&registry),
    )
    .unwrap();
    cluster.wait("stable subscription flood", Duration::from_secs(10), |c| {
        (0..N_BROKERS).all(|i| c.node(i).stats().subscriptions >= N_BROKERS as u64)
    })?;
    cluster.wait("initial link mesh", Duration::from_secs(10), |c| {
        (0..N_BROKERS).all(|i| c.node(i).stats().connections >= c.baseline_connections(i))
    })?;

    // Phase B: the seeded schedule.
    let mut published: Vec<i64> = Vec::new();
    let mut churn_subs: Vec<Option<(SubscriptionId, i64)>> = vec![None; churners.len()];
    let mut edge_up = [true; EDGES.len()];
    let mut received: Vec<Vec<i64>> = vec![Vec::new(); N_BROKERS];
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Publish => {
                let value = VALUE_BASE + published.len() as i64;
                publisher
                    .publish(&tick(&registry, value))
                    .map_err(|e| format!("op {step}: publish failed: {e}"))?;
                published.push(value);
            }
            Op::Subscribe { churner, below } => {
                if churn_subs[churner].is_none() {
                    let id = churners[churner]
                        .subscribe(schema, &format!("n < {below}"))
                        .map_err(|e| format!("op {step}: subscribe failed: {e}"))?;
                    churn_subs[churner] = Some((id, below));
                }
            }
            Op::Unsubscribe { churner } => {
                if let Some((id, _)) = churn_subs[churner].take() {
                    churners[churner]
                        .unsubscribe(id)
                        .map_err(|e| format!("op {step}: unsubscribe failed: {e}"))?;
                }
            }
            Op::KillLink { edge } => {
                let (a, b) = EDGES[edge];
                cluster
                    .net
                    .kill_link(cluster.hosts[a].ip(), cluster.hosts[b].ip());
                edge_up[edge] = false;
            }
            Op::ReviveLink { edge } => {
                let (a, b) = EDGES[edge];
                cluster
                    .net
                    .revive_link(cluster.hosts[a].ip(), cluster.hosts[b].ip());
                edge_up[edge] = true;
            }
            Op::RestartHub => {
                if !edge_up.iter().all(|&u| u) {
                    continue; // see Op::RestartHub docs
                }
                // Pre-barrier: a *planned* restart drains a quiescent
                // node — wait for the mesh and queues to settle so the
                // hub's spools are acknowledged (in-memory spools do not
                // survive the restart).
                cluster.wait("pre-restart mesh", Duration::from_secs(15), |c| {
                    (0..N_BROKERS).all(|i| {
                        let s = c.node(i).stats();
                        s.connections >= c.baseline_connections(i)
                            && s.queued_frames == 0
                            && s.queued_bytes == 0
                    })
                })?;
                std::thread::sleep(Duration::from_millis(400)); // ack flush
                let node = cluster.nodes[HUB].take().expect("hub running");
                node.shutdown();
                // Drain the hub subscriber's old connection to EOF; the
                // graceful drain flushed every queued delivery into the
                // pipe before closing it.
                let drain_deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match stable[HUB].recv_unacked(Duration::from_millis(200)) {
                        Ok((_, event)) => {
                            received[HUB].push(event.value(0).unwrap().as_int().unwrap());
                        }
                        Err(ClientError::Timeout) => {
                            ensure!(
                                Instant::now() < drain_deadline,
                                "op {step}: hub connection never reached EOF after shutdown"
                            );
                        }
                        Err(_) => break, // EOF
                    }
                }
                cluster.boot_broker(HUB);
                // Reconnect the hub's subscriber. resume_from = 0: the
                // restarted broker's log is fresh, and the subscription
                // itself is restored by the neighbors' resync floods.
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match Client::connect_via(
                        &*cluster.client_host,
                        cluster.addrs[HUB],
                        stable_ids[HUB],
                        0,
                        Arc::clone(&registry),
                    ) {
                        Ok(c) => {
                            stable[HUB] = c;
                            break;
                        }
                        Err(e) => {
                            ensure!(
                                Instant::now() < deadline,
                                "op {step}: hub client reconnect failed: {e}"
                            );
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    }
                }
            }
            Op::CrashBroker => {
                let Some(cut) = cut else {
                    continue; // storage-less run: nothing to recover from
                };
                if !edge_up.iter().all(|&u| u) {
                    continue; // see Op::CrashBroker docs
                }
                // Pre-crash barrier. Unlike the graceful restart this is
                // not about the spools — those are durable now — but
                // about the hub subscriber's client delivery log, which
                // is volatile by design: drain it so the crash cannot
                // eat deliveries the flooding baseline requires.
                cluster.wait("pre-crash mesh", Duration::from_secs(15), |c| {
                    (0..N_BROKERS).all(|i| {
                        let s = c.node(i).stats();
                        s.connections >= c.baseline_connections(i)
                            && s.queued_frames == 0
                            && s.queued_bytes == 0
                    })
                })?;
                drain_into(
                    &mut stable[HUB],
                    &mut received[HUB],
                    published.len(),
                    "hub subscriber (pre-crash)",
                )?;
                std::thread::sleep(Duration::from_millis(400)); // ack flush
                let node = cluster.nodes[HUB].take().expect("hub running");
                node.crash();
                let storage = cluster.storage[HUB].clone().expect("durable cluster");
                storage.power_cut(cut);
                cluster.boot_broker(HUB);
                // The reboot must resume from durable state (same
                // incarnation, recovered spools and receive marks), not
                // boot fresh — to its neighbors the crash should look
                // like a long link stall, not a restart.
                ensure!(
                    cluster.node(HUB).stats().recoveries == 1,
                    "op {step}: rebooted hub did not recover its durable state"
                );
                // The crash severed the subscriber's connection with no
                // drain. Read the dead conn to EOF: after the pre-crash
                // drain nothing should surface, and anything that does
                // is a duplicate — push it into `received` so the
                // equivalence check flags it.
                let drain_deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match stable[HUB].recv_unacked(Duration::from_millis(200)) {
                        Ok((_, event)) => {
                            received[HUB].push(event.value(0).unwrap().as_int().unwrap());
                        }
                        Err(ClientError::Timeout) => {
                            ensure!(
                                Instant::now() < drain_deadline,
                                "op {step}: hub connection never reached EOF after crash"
                            );
                        }
                        Err(_) => break, // EOF
                    }
                }
                // Reconnect with resume_from = 0: client delivery logs
                // are volatile, so recovery rebuilt an empty one.
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match Client::connect_via(
                        &*cluster.client_host,
                        cluster.addrs[HUB],
                        stable_ids[HUB],
                        0,
                        Arc::clone(&registry),
                    ) {
                        Ok(c) => {
                            stable[HUB] = c;
                            break;
                        }
                        Err(e) => {
                            ensure!(
                                Instant::now() < deadline,
                                "op {step}: hub client reconnect failed: {e}"
                            );
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    }
                }
            }
            Op::Settle { ms } => std::thread::sleep(Duration::from_millis(ms)),
            // Repair ops belong to run_repair's redundant topology; on
            // the tree they would disconnect the graph, so the tree
            // model never schedules them.
            Op::PartitionLink { .. } | Op::HealLink { .. } => continue,
        }
    }

    // Phase C: heal, converge, probe, assert.
    for (edge, &(a, b)) in EDGES.iter().enumerate() {
        cluster
            .net
            .revive_link(cluster.hosts[a].ip(), cluster.hosts[b].ip());
        edge_up[edge] = true;
    }
    // Post-heal sentinel: the last pre-probe publish. Once every stable
    // subscriber has drained it (below), every tree edge has carried a
    // frame over a handshake-complete link — the probes that follow are
    // live-forwarded (and counted), not silently spooled into a
    // still-handshaking conn.
    let sentinel = 50;
    publisher
        .publish(&tick(&registry, sentinel))
        .map_err(|e| format!("sentinel publish failed: {e}"))?;
    published.push(sentinel);
    let live_subs = (N_BROKERS + churn_subs.iter().flatten().count()) as u64;
    cluster.wait("healed mesh", Duration::from_secs(30), |c| {
        (0..N_BROKERS).all(|i| c.node(i).stats().connections == c.baseline_connections(i))
    })?;
    // Routing-table convergence: every broker's network-wide view equals
    // the harness's live-subscription oracle — resurrections (tombstone
    // bugs) or lost SubAdds park this wait on the wrong count.
    cluster.wait("subscription convergence", Duration::from_secs(30), |c| {
        (0..N_BROKERS).all(|i| c.node(i).stats().subscriptions == live_subs)
    })?;
    cluster.wait("queue quiescence", Duration::from_secs(30), |c| {
        (0..N_BROKERS).all(|i| {
            let s = c.node(i).stats();
            s.queued_frames == 0 && s.queued_bytes == 0
        })
    })?;

    // Flooding-baseline equivalence for the schedule's publishes: each
    // stable subscriber sees exactly the published sequence, in publish
    // order. Draining these *before* the probe snapshot doubles as the
    // routing barrier — delivery at broker `i`'s subscriber proves
    // broker `i` finished dispatching (and counting) every scheduled
    // event, so the probe deltas below start from settled counters.
    for i in 0..N_BROKERS {
        drain_into(
            &mut stable[i],
            &mut received[i],
            published.len(),
            &format!("stable subscriber {i}"),
        )?;
        ensure!(
            received[i] == published,
            "stable subscriber {i} diverged from the flooding baseline:\n got {:?}\nwant {:?}",
            received[i],
            published
        );
    }

    // The oracle's view of the live subscription set.
    let mut oracle_live: HashMap<SubscriptionId, Subscription> = HashMap::new();
    let mut next_oracle_id = 1u32;
    let tick_schema = registry.get(schema).unwrap().clone();
    let mut add_oracle =
        |broker: BrokerId,
         client: ClientId,
         expr: &str,
         map: &mut HashMap<SubscriptionId, Subscription>| {
            let id = SubscriptionId::new(next_oracle_id);
            next_oracle_id += 1;
            map.insert(
                id,
                Subscription::new(
                    id,
                    SubscriberId::new(broker, client),
                    parse_predicate(&tick_schema, expr).unwrap(),
                ),
            );
        };
    for (i, &id) in stable_ids.iter().enumerate() {
        add_oracle(cluster.brokers[i], id, "n >= 0", &mut oracle_live);
    }
    for (j, sub) in churn_subs.iter().enumerate() {
        if let Some((_, below)) = sub {
            add_oracle(
                cluster.brokers[CHURN_BROKERS[j]],
                churner_ids[j],
                &format!("n < {below}"),
                &mut oracle_live,
            );
        }
    }

    // Probe phase: snapshot counters, publish probes 0..=5, compare the
    // per-broker forwarded/delivered deltas against the LinkSpace flood
    // oracle. Exact equality is the exactly-once-into-routing check: a
    // duplicate accepted into routing inflates a delta, a loss deflates
    // it.
    let before: Vec<_> = (0..N_BROKERS).map(|i| cluster.node(i).stats()).collect();
    let probes: Vec<i64> = (0..=5).collect();
    let mut expected_deltas = [(0u64, 0u64); N_BROKERS];
    for &p in &probes {
        let event = tick(&registry, p);
        for (i, d) in probe_flood(
            &cluster.fabric,
            &cluster.spaces,
            &cluster.brokers,
            &oracle_live,
            &event,
            cluster.tree,
        )
        .into_iter()
        .enumerate()
        {
            expected_deltas[i].0 += d.0;
            expected_deltas[i].1 += d.1;
        }
        publisher
            .publish(&event)
            .map_err(|e| format!("probe publish failed: {e}"))?;
    }

    // Every stable subscriber also sees every probe, in publish order,
    // with nothing interleaved (a late duplicate of a scheduled event
    // would land mid-probe-sequence and break the equality).
    let mut expected_stable = published.clone();
    expected_stable.extend(&probes);
    for i in 0..N_BROKERS {
        drain_into(
            &mut stable[i],
            &mut received[i],
            expected_stable.len(),
            &format!("stable subscriber {i}"),
        )?;
        ensure!(
            received[i] == expected_stable,
            "stable subscriber {i} diverged on the probe sequence:\n got {:?}\nwant {:?}",
            received[i],
            expected_stable
        );
    }
    // Live churners see exactly the probes below their threshold; dead
    // churners see nothing.
    for (j, churner) in churners.iter_mut().enumerate() {
        let expected: Vec<i64> = match churn_subs[j] {
            Some((_, below)) => probes.iter().copied().filter(|&p| p < below).collect(),
            None => Vec::new(),
        };
        let mut got = Vec::new();
        drain_into(churner, &mut got, expected.len(), &format!("churner {j}"))?;
        ensure!(
            got == expected,
            "churner {j} diverged from the predicate oracle: got {got:?} want {expected:?}"
        );
    }
    for (i, client) in stable.iter_mut().enumerate() {
        assert_quiet(client, &format!("stable subscriber {i}"))?;
    }
    for (j, client) in churners.iter_mut().enumerate() {
        assert_quiet(client, &format!("churner {j}"))?;
    }

    // Counter deltas vs the oracle flood.
    cluster.wait("probe quiescence", Duration::from_secs(10), |c| {
        (0..N_BROKERS).all(|i| {
            let s = c.node(i).stats();
            s.queued_frames == 0 && s.queued_bytes == 0
        })
    })?;
    for i in 0..N_BROKERS {
        let after = cluster.node(i).stats();
        let fwd = after.forwarded - before[i].forwarded;
        let del = after.delivered - before[i].delivered;
        ensure!(
            (fwd, del) == expected_deltas[i],
            "broker {i} probe counters diverged from the LinkSpace oracle: \
             forwarded/delivered got ({fwd}, {del}) want {:?}",
            expected_deltas[i]
        );
    }

    // Leak checks at quiescence.
    for i in 0..N_BROKERS {
        let s = cluster.node(i).stats();
        ensure!(
            s.dropped_spool_overflow == 0,
            "broker {i} dropped {} spooled frames",
            s.dropped_spool_overflow
        );
        ensure!(
            s.protocol_errors == 0,
            "broker {i} counted {} protocol errors",
            s.protocol_errors
        );
        ensure!(
            s.evicted_slow_consumers == 0 && s.peer_overflow_disconnects == 0,
            "broker {i} evicted connections under a workload that cannot overflow"
        );
    }

    // The trace: schedule + quiescent observables, all seed-derived.
    let mut trace = format!("seed={seed}\n");
    for op in ops {
        trace.push_str(&format!("{op:?}\n"));
    }
    trace.push_str(&format!("published={published:?}\n"));
    for (i, got) in received.iter().enumerate() {
        trace.push_str(&format!("stable{i}={got:?}\n"));
    }

    for node in cluster.nodes.iter_mut().filter_map(Option::take) {
        node.shutdown();
    }
    Ok(trace)
}

/// Quiescent-cut barrier for the repair model: waits for the mesh to
/// match the expected shape (baseline minus the dead edge's two
/// endpoint connections), drains every stable subscriber to the full
/// published sequence (asserting flooding-baseline equivalence *now*,
/// which localizes a divergence to the op that caused it), then lets
/// the cumulative acks flush so every spool is trimmed empty. A
/// partition or heal fired after this barrier flips the epoch with no
/// frame pending anywhere, which is what makes the model's claim
/// exactly-once rather than at-least-once (DESIGN.md §15).
fn repair_quiesce(
    cluster: &Cluster,
    stable: &mut [Client],
    received: &mut [Vec<i64>],
    published: &[i64],
    dead: Option<usize>,
    what: &str,
) -> Result<(), String> {
    cluster.wait(&format!("{what}: mesh"), Duration::from_secs(30), |c| {
        (0..N_BROKERS).all(|i| {
            let lost = dead.map_or(0, |e| {
                let (a, b) = REPAIR_EDGES[e];
                usize::from(a == i || b == i)
            });
            c.node(i).stats().connections == c.baseline_connections(i) - lost
        })
    })?;
    for i in 0..N_BROKERS {
        drain_into(
            &mut stable[i],
            &mut received[i],
            published.len(),
            &format!("{what}: stable subscriber {i}"),
        )?;
        ensure!(
            received[i] == published,
            "{what}: stable subscriber {i} diverged from the flooding baseline:\n \
             got {:?}\nwant {:?}",
            received[i],
            published
        );
    }
    std::thread::sleep(Duration::from_millis(400)); // ack flush → empty spools
    cluster.wait(
        &format!("{what}: queue quiescence"),
        Duration::from_secs(30),
        |c| {
            (0..N_BROKERS).all(|i| {
                let s = c.node(i).stats();
                s.queued_frames == 0 && s.queued_bytes == 0
            })
        },
    )?;
    Ok(())
}

/// Executes one repair schedule against a fresh storage-less cluster on
/// the redundant [`REPAIR_EDGES`] graph with repair escalation armed
/// (`repair_after = 2`) and returns the event trace. Partitions are
/// *permanent* until healed: instead of spooling across the outage, the
/// dead edge's dialer escalates its redial failures into a `LinkDown`
/// flood, every broker recomputes its spanning forest over the
/// surviving graph, and routing cuts over under a new topology epoch —
/// so the flooding-baseline delivery equivalence must hold *through*
/// the repair, and the probe oracle is computed over the repaired
/// fabric when a partition is active at probe time.
fn run_repair(seed: u64, ops: &[Op]) -> Result<String, String> {
    let (mut cluster, stable_ids, churner_ids, publisher_id) =
        Cluster::start_with(seed, false, &REPAIR_EDGES, 2);
    let registry = Arc::clone(&cluster.registry);
    let schema = SchemaId::new(0);

    // Phase A: stable match-all subscriber at every broker. The churner
    // clients connect but never subscribe — they exist so the cluster's
    // connection baseline is the same shape as the tree model's.
    let mut stable: Vec<Client> = stable_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let mut c = Client::connect_via(
                &*cluster.client_host,
                cluster.addrs[i],
                id,
                0,
                Arc::clone(&registry),
            )
            .unwrap();
            c.subscribe(schema, "n >= 0").unwrap();
            c
        })
        .collect();
    let _idle: Vec<Client> = churner_ids
        .iter()
        .zip(CHURN_BROKERS)
        .map(|(&id, b)| {
            Client::connect_via(
                &*cluster.client_host,
                cluster.addrs[b],
                id,
                0,
                Arc::clone(&registry),
            )
            .unwrap()
        })
        .collect();
    let mut publisher = Client::connect_via(
        &*cluster.client_host,
        cluster.addrs[0],
        publisher_id,
        0,
        Arc::clone(&registry),
    )
    .unwrap();
    cluster.wait("stable subscription flood", Duration::from_secs(10), |c| {
        (0..N_BROKERS).all(|i| c.node(i).stats().subscriptions >= N_BROKERS as u64)
    })?;
    cluster.wait("initial link mesh", Duration::from_secs(10), |c| {
        (0..N_BROKERS).all(|i| c.node(i).stats().connections >= c.baseline_connections(i))
    })?;

    // Phase B: the seeded schedule, with a harness-side mirror of the
    // link-state table: per-edge versions plus the active partition give
    // the expected topology epoch Σ(2·ver + down) every broker must
    // converge to after each flood.
    let mut published: Vec<i64> = Vec::new();
    let mut received: Vec<Vec<i64>> = vec![Vec::new(); N_BROKERS];
    let mut vers = [0u64; REPAIR_EDGES.len()];
    let mut dead: Option<usize> = None;
    let mut partitions = 0u32;
    let epoch_of = |vers: &[u64; REPAIR_EDGES.len()], dead: Option<usize>| -> u64 {
        vers.iter()
            .enumerate()
            .map(|(e, &v)| 2 * v + u64::from(dead == Some(e)))
            .sum()
    };
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Publish => {
                let value = VALUE_BASE + published.len() as i64;
                publisher
                    .publish(&tick(&registry, value))
                    .map_err(|e| format!("op {step}: publish failed: {e}"))?;
                published.push(value);
            }
            Op::PartitionLink { edge } => {
                if dead.is_some() {
                    continue; // see Op::PartitionLink docs
                }
                repair_quiesce(
                    &cluster,
                    &mut stable,
                    &mut received,
                    &published,
                    dead,
                    &format!("op {step} pre-partition"),
                )?;
                let (a, b) = REPAIR_EDGES[edge];
                cluster
                    .net
                    .kill_link(cluster.hosts[a].ip(), cluster.hosts[b].ip());
                vers[edge] += 1;
                dead = Some(edge);
                partitions += 1;
                let expected = epoch_of(&vers, dead);
                cluster.wait(
                    &format!("op {step}: LinkDown repair convergence (epoch {expected})"),
                    Duration::from_secs(30),
                    |c| (0..N_BROKERS).all(|i| c.node(i).stats().topology_epoch == expected),
                )?;
            }
            Op::HealLink { edge } => {
                if dead != Some(edge) {
                    continue; // see Op::HealLink docs
                }
                repair_quiesce(
                    &cluster,
                    &mut stable,
                    &mut received,
                    &published,
                    dead,
                    &format!("op {step} pre-heal"),
                )?;
                let (a, b) = REPAIR_EDGES[edge];
                cluster
                    .net
                    .revive_link(cluster.hosts[a].ip(), cluster.hosts[b].ip());
                vers[edge] += 1;
                dead = None;
                let expected = epoch_of(&vers, dead);
                cluster.wait(
                    &format!("op {step}: LinkUp repair convergence (epoch {expected})"),
                    Duration::from_secs(30),
                    |c| (0..N_BROKERS).all(|i| c.node(i).stats().topology_epoch == expected),
                )?;
            }
            Op::Settle { ms } => std::thread::sleep(Duration::from_millis(ms)),
            // Tree-model ops are never part of repair schedules.
            _ => continue,
        }
    }

    // Phase C: converge and probe *through* the repaired topology.
    repair_quiesce(
        &cluster,
        &mut stable,
        &mut received,
        &published,
        dead,
        "phase C",
    )?;
    cluster.wait("subscription convergence", Duration::from_secs(30), |c| {
        (0..N_BROKERS).all(|i| c.node(i).stats().subscriptions == N_BROKERS as u64)
    })?;

    // The probe oracle over the *surviving* graph: the same excluded-
    // edge recompute the brokers ran, so the expected per-broker deltas
    // follow the repaired trees when a partition is active.
    let excluded: Vec<(BrokerId, BrokerId)> = dead
        .iter()
        .map(|&e| {
            let (a, b) = REPAIR_EDGES[e];
            (cluster.brokers[a], cluster.brokers[b])
        })
        .collect();
    let oracle_fabric = cluster
        .fabric
        .rebuild_excluding(&excluded)
        .map_err(|e| format!("oracle fabric rebuild failed: {e}"))?;
    let oracle_spaces: Vec<LinkSpace> = cluster
        .brokers
        .iter()
        .map(|&b| LinkSpace::build(oracle_fabric.network(), oracle_fabric.forest(), b))
        .collect();
    let oracle_tree = oracle_fabric.tree_for(cluster.brokers[0]).unwrap();
    let mut oracle_live: HashMap<SubscriptionId, Subscription> = HashMap::new();
    let tick_schema = registry.get(schema).unwrap().clone();
    for (i, &id) in stable_ids.iter().enumerate() {
        let sid = SubscriptionId::new(1 + i as u32);
        oracle_live.insert(
            sid,
            Subscription::new(
                sid,
                SubscriberId::new(cluster.brokers[i], id),
                parse_predicate(&tick_schema, "n >= 0").unwrap(),
            ),
        );
    }

    let before: Vec<_> = (0..N_BROKERS).map(|i| cluster.node(i).stats()).collect();
    let probes: Vec<i64> = (0..=5).collect();
    let mut expected_deltas = [(0u64, 0u64); N_BROKERS];
    for &p in &probes {
        let event = tick(&registry, p);
        for (i, d) in probe_flood(
            &oracle_fabric,
            &oracle_spaces,
            &cluster.brokers,
            &oracle_live,
            &event,
            oracle_tree,
        )
        .into_iter()
        .enumerate()
        {
            expected_deltas[i].0 += d.0;
            expected_deltas[i].1 += d.1;
        }
        publisher
            .publish(&event)
            .map_err(|e| format!("probe publish failed: {e}"))?;
    }

    let mut expected_stable = published.clone();
    expected_stable.extend(&probes);
    for i in 0..N_BROKERS {
        drain_into(
            &mut stable[i],
            &mut received[i],
            expected_stable.len(),
            &format!("stable subscriber {i}"),
        )?;
        ensure!(
            received[i] == expected_stable,
            "stable subscriber {i} diverged on the probe sequence:\n got {:?}\nwant {:?}",
            received[i],
            expected_stable
        );
    }
    for (i, client) in stable.iter_mut().enumerate() {
        assert_quiet(client, &format!("stable subscriber {i}"))?;
    }

    cluster.wait("probe quiescence", Duration::from_secs(10), |c| {
        (0..N_BROKERS).all(|i| {
            let s = c.node(i).stats();
            s.queued_frames == 0 && s.queued_bytes == 0
        })
    })?;
    for i in 0..N_BROKERS {
        let after = cluster.node(i).stats();
        let fwd = after.forwarded - before[i].forwarded;
        let del = after.delivered - before[i].delivered;
        ensure!(
            (fwd, del) == expected_deltas[i],
            "broker {i} probe counters diverged from the repaired-fabric oracle: \
             forwarded/delivered got ({fwd}, {del}) want {:?}",
            expected_deltas[i]
        );
    }

    // Repair accounting: every partition was detected by the dead
    // edge's dialer (escalation, not an operator call), every broker
    // flipped at least once per flood, and the final epoch agrees with
    // the harness's link-state mirror everywhere.
    if partitions > 0 {
        let initiated: u64 = (0..N_BROKERS)
            .map(|i| cluster.node(i).stats().repairs_initiated)
            .sum();
        ensure!(
            initiated >= 1,
            "no broker escalated a dead link into a repair across {partitions} partitions"
        );
        for i in 0..N_BROKERS {
            let flips = cluster.node(i).stats().epoch_flips;
            ensure!(flips >= 1, "broker {i} never flipped its topology epoch");
        }
    }
    let final_epoch = epoch_of(&vers, dead);
    for i in 0..N_BROKERS {
        let e = cluster.node(i).stats().topology_epoch;
        ensure!(
            e == final_epoch,
            "broker {i} settled at epoch {e}, the link-state mirror says {final_epoch}"
        );
    }

    // Leak checks at quiescence.
    for i in 0..N_BROKERS {
        let s = cluster.node(i).stats();
        ensure!(
            s.dropped_spool_overflow == 0,
            "broker {i} dropped {} spooled frames",
            s.dropped_spool_overflow
        );
        ensure!(
            s.protocol_errors == 0,
            "broker {i} counted {} protocol errors",
            s.protocol_errors
        );
        ensure!(
            s.evicted_slow_consumers == 0 && s.peer_overflow_disconnects == 0,
            "broker {i} evicted connections under a workload that cannot overflow"
        );
    }

    let mut trace = format!("seed={seed} epoch={final_epoch}\n");
    for op in ops {
        trace.push_str(&format!("{op:?}\n"));
    }
    trace.push_str(&format!("published={published:?}\n"));
    for (i, got) in received.iter().enumerate() {
        trace.push_str(&format!("stable{i}={got:?}\n"));
    }

    for node in cluster.nodes.iter_mut().filter_map(Option::take) {
        node.shutdown();
    }
    Ok(trace)
}

/// Greedy ddmin-style shrinker: repeatedly removes chunks (halving down
/// to single ops) while the schedule keeps failing.
fn shrink(ops: &[Op], fails: impl Fn(&[Op]) -> Result<(), String>) -> Vec<Op> {
    let mut current = ops.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < current.len() {
            let mut candidate = current.clone();
            candidate.drain(start..(start + chunk).min(candidate.len()));
            if fails(&candidate).is_err() {
                current = candidate;
                shrunk = true;
            } else {
                start += chunk;
            }
        }
        if !shrunk && chunk == 1 {
            return current;
        }
        if !shrunk {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// The model test: one seeded schedule, full assertion suite, shrink on
/// failure. CI runs a matrix of seeds via `SIMNET_SEED`.
#[test]
fn seeded_cluster_model() {
    let seed = seed_from_env("SIMNET_SEED", 42);
    let ops = schedule(seed, 30);
    if let Err(err) = run_ops(seed, &ops) {
        let minimal = shrink(&ops, |o| run_ops(seed, o).map(|_| ()));
        let replay = run_ops(seed, &minimal).err().unwrap_or_default();
        panic!(
            "cluster model failed (seed {seed}): {err}\n\
             minimal failing schedule ({} ops): {minimal:#?}\n\
             minimal-schedule failure: {replay}\n\
             replay with SIMNET_SEED={seed}",
            minimal.len()
        );
    }
}

/// The crash model: same schedule machinery and assertion suite, but
/// the hub dies by power cut mid-schedule and reboots from its WAL and
/// snapshots. `SIMNET_CUT` selects the injected disk state (`torn-tail`
/// default, `lost-suffix`, `snapshot-torn`); CI runs the full
/// seed × mode matrix. The flooding-oracle equivalence, the probe
/// counter accounting, and the convergence/leak checks all still hold
/// across the crash — recovery that lost a committed frame, replayed a
/// torn record, or re-entered a dead sequence space would break one of
/// them.
#[test]
fn seeded_crash_model() {
    let seed = seed_from_env("SIMNET_SEED", 42);
    let cut = match std::env::var("SIMNET_CUT") {
        Ok(s) => PowerCut::parse(&s).unwrap_or_else(|| {
            panic!("unknown SIMNET_CUT {s:?} (torn-tail | lost-suffix | snapshot-torn)")
        }),
        Err(_) => PowerCut::TornTail,
    };
    let ops = crash_schedule(seed, 30);
    if let Err(err) = run_model(seed, &ops, Some(cut)) {
        let minimal = shrink(&ops, |o| run_model(seed, o, Some(cut)).map(|_| ()));
        let replay = run_model(seed, &minimal, Some(cut))
            .err()
            .unwrap_or_default();
        panic!(
            "crash model failed (seed {seed}, {cut:?}): {err}\n\
             minimal failing schedule ({} ops): {minimal:#?}\n\
             minimal-schedule failure: {replay}\n\
             replay with SIMNET_SEED={seed} SIMNET_CUT=<mode>",
            minimal.len()
        );
    }
}

/// The repair model: kill any single cycle edge of a redundant
/// 5-broker graph *permanently* and every matching subscriber must
/// still get every event exactly once into routing — the dead edge's
/// dialer escalates into a `LinkDown` flood, forests recompute over the
/// surviving graph, and routing cuts over under a new topology epoch
/// (DESIGN.md §15). The probe oracle runs over the repaired fabric, so
/// the exact forwarded/delivered accounting proves the cutover rather
/// than assuming it. CI runs the 8-seed matrix via `SIMNET_SEED`.
#[test]
fn seeded_repair_model() {
    let seed = seed_from_env("SIMNET_SEED", 42);
    let ops = repair_schedule(seed, 24);
    if let Err(err) = run_repair(seed, &ops) {
        let minimal = shrink(&ops, |o| run_repair(seed, o).map(|_| ()));
        let replay = run_repair(seed, &minimal).err().unwrap_or_default();
        panic!(
            "repair model failed (seed {seed}): {err}\n\
             minimal failing schedule ({} ops): {minimal:#?}\n\
             minimal-schedule failure: {replay}\n\
             replay with SIMNET_SEED={seed}",
            minimal.len()
        );
    }
}

/// Same seed ⇒ byte-identical event trace (schedule and quiescent
/// observables; see the module docs for what this does and does not
/// promise about interleavings).
#[test]
fn same_seed_reproduces_the_trace() {
    let seed = seed_from_env("SIMNET_SEED", 7);
    let ops = schedule(seed, 14);
    let first = run_ops(seed, &ops).expect("model run failed");
    let second = run_ops(seed, &ops).expect("model rerun failed");
    assert_eq!(first, second, "same seed must reproduce the event trace");
}

/// Different seeds explore different schedules (the jitter and op
/// streams actually vary): all 8 CI-matrix seeds must derive pairwise
/// distinct schedules.
#[test]
fn seeds_diverge() {
    let seeds = [1u64, 2, 3, 4, 5, 7, 42, 1234];
    let schedules: Vec<Vec<Op>> = seeds.iter().map(|&s| schedule(s, 30)).collect();
    for i in 0..schedules.len() {
        for j in i + 1..schedules.len() {
            assert_ne!(
                schedules[i], schedules[j],
                "seeds {} and {} derived identical schedules",
                seeds[i], seeds[j]
            );
        }
    }
}

/// The shrinker against an injected bug ("publishing after any link
/// kill crashes"): a long seeded schedule must reduce to ≤ 5 ops (the
/// kill and the publish, plus at most shrink-blocked stragglers).
#[test]
fn shrinker_reduces_injected_bug() {
    let buggy = |ops: &[Op]| -> Result<(), String> {
        let mut killed = false;
        for op in ops {
            match op {
                Op::KillLink { .. } => killed = true,
                Op::Publish if killed => return Err("injected: publish after kill".into()),
                _ => {}
            }
        }
        Ok(())
    };
    // Any seed whose 40-op schedule trips the bug will do; scan a few so
    // the fixture does not depend on one generator constant.
    let ops = (1..100)
        .map(|s| schedule(s, 40))
        .find(|ops| buggy(ops).is_err())
        .expect("some seed must produce a kill followed by a publish");
    let minimal = shrink(&ops, buggy);
    assert!(buggy(&minimal).is_err(), "shrunk schedule must still fail");
    assert!(
        minimal.len() <= 5,
        "shrinker left {} ops: {minimal:?}",
        minimal.len()
    );
}

/// Regression for the resync/match-cache interaction: a publish with no
/// subscribers caches an empty link set; after a link flap, a far-side
/// subscription arriving via *resync* (its original SubAdd flood was
/// lost to the outage) must invalidate that cache entry like any other
/// subscribe. Pre-fix symptom: the second publish hits the stale cached
/// empty set and the subscriber never hears it.
#[test]
fn resync_invalidates_match_cache() {
    let mut builder = NetworkBuilder::new();
    let a = builder.add_broker();
    let b = builder.add_broker();
    builder.connect(a, b, 5.0).unwrap();
    let sub_client = builder.add_client(a).unwrap();
    let pub_client = builder.add_client(b).unwrap();
    let fabric = RoutingFabric::new_all_roots(builder.build().unwrap()).unwrap();
    let registry = registry();

    let net = SimNet::new(1);
    let host_a = Arc::new(net.host());
    let host_b = Arc::new(net.host());
    let client_host = Arc::new(net.host());
    let start = |broker, host: &Arc<SimHost>, port| {
        let mut config = BrokerConfig::localhost(broker, fabric.clone(), Arc::clone(&registry));
        config.listen = SocketAddr::new(host.ip(), port);
        config.transport = Arc::clone(host) as Arc<dyn linkcast_broker::Transport>;
        config.heartbeat_interval = Duration::from_millis(100);
        config.match_cache_cap = 64;
        BrokerNode::start(config).unwrap()
    };
    let node_a = start(a, &host_a, 7201);
    let node_b = start(b, &host_b, 7202);
    node_b.connect_to_persistent(a, node_a.addr());
    let wait = |what: &str, done: &mut dyn FnMut() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    wait("initial link", &mut || {
        node_a.stats().connections >= 1 && node_b.stats().connections >= 1
    });

    let mut publisher = Client::connect_via(
        &*client_host,
        node_b.addr(),
        pub_client,
        0,
        Arc::clone(&registry),
    )
    .unwrap();
    // Publish with no subscribers anywhere: B's match cache stores the
    // empty link set for these attribute values.
    publisher.publish(&tick(&registry, 7)).unwrap();
    wait("first publish routed", &mut || {
        node_b.stats().published == 1
    });

    // Cut the link, subscribe at A (the SubAdd flood toward B is lost),
    // then heal: B learns the subscription only through the resync.
    net.kill_link(host_a.ip(), host_b.ip());
    // A had only the broker link (its subscriber connects below); B keeps
    // the publisher's client connection.
    wait("cut detected", &mut || {
        node_a.stats().connections == 0 && node_b.stats().connections == 1
    });
    let mut subscriber = Client::connect_via(
        &*client_host,
        node_a.addr(),
        sub_client,
        0,
        Arc::clone(&registry),
    )
    .unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    net.revive_link(host_a.ip(), host_b.ip());
    wait("resync converged", &mut || {
        node_b.stats().subscriptions == 1
    });

    // Same attribute values as the cached miss: a stale cache entry
    // would route this into the void.
    publisher.publish(&tick(&registry, 7)).unwrap();
    let (_, event) = subscriber
        .recv(Duration::from_secs(10))
        .expect("resync-learned subscription must invalidate the cached empty link set");
    assert_eq!(event.value(0).unwrap().as_int().unwrap(), 7);

    // The cache actually participated: the second publish had to flush a
    // generation.
    let counters = publisher.stats().unwrap();
    assert!(
        counters.match_cache_invalidations >= 1,
        "resync subscribe never invalidated the cache"
    );
    node_a.shutdown();
    node_b.shutdown();
}

/// Spool re-homing across a repair, end to end on a triangle: an event
/// spooled toward a dead direct neighbor must be re-forwarded down the
/// repaired tree (here the two-hop detour through the middle broker)
/// when the `LinkDown` flood flips the publisher's broker — not wait
/// forever for a redial that can never succeed. Pins the repair
/// counters along the way: the dead edge's dialer initiates exactly one
/// repair, every broker flips its epoch once, and the re-homing broker
/// counts the rerouted frame.
#[test]
fn repair_rehomes_spooled_frames_across_the_new_tree() {
    let mut builder = NetworkBuilder::new();
    let a = builder.add_broker();
    let b = builder.add_broker();
    let c = builder.add_broker();
    builder.connect(a, b, 5.0).unwrap();
    builder.connect(b, c, 5.0).unwrap();
    builder.connect(a, c, 5.0).unwrap();
    let pub_client = builder.add_client(a).unwrap();
    let sub_client = builder.add_client(c).unwrap();
    let fabric = RoutingFabric::new_all_roots(builder.build().unwrap()).unwrap();
    let registry = registry();

    let net = SimNet::new(3);
    let hosts: Vec<Arc<SimHost>> = (0..3).map(|_| Arc::new(net.host())).collect();
    let client_host = Arc::new(net.host());
    let start = |broker, host: &Arc<SimHost>, port| {
        let mut config = BrokerConfig::localhost(broker, fabric.clone(), Arc::clone(&registry));
        config.listen = SocketAddr::new(host.ip(), port);
        config.transport = Arc::clone(host) as Arc<dyn linkcast_broker::Transport>;
        config.gc_interval = Duration::from_millis(50);
        config.heartbeat_interval = Duration::from_millis(100);
        config.repair_after = 2;
        BrokerNode::start(config).unwrap()
    };
    let node_a = start(a, &hosts[0], 7301);
    let node_b = start(b, &hosts[1], 7302);
    let node_c = start(c, &hosts[2], 7303);
    // The higher-numbered endpoint of each edge supervises the dial, so
    // the (a, c) edge's failure detector lives at C.
    node_b.connect_to_persistent(a, node_a.addr());
    node_c.connect_to_persistent(b, node_b.addr());
    node_c.connect_to_persistent(a, node_a.addr());
    let wait = |what: &str, done: &mut dyn FnMut() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(15);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    wait("triangle mesh", &mut || {
        node_a.stats().connections >= 2
            && node_b.stats().connections >= 2
            && node_c.stats().connections >= 2
    });

    let mut publisher = Client::connect_via(
        &*client_host,
        node_a.addr(),
        pub_client,
        0,
        Arc::clone(&registry),
    )
    .unwrap();
    let mut subscriber = Client::connect_via(
        &*client_host,
        node_c.addr(),
        sub_client,
        0,
        Arc::clone(&registry),
    )
    .unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    wait("subscription flood", &mut || {
        node_a.stats().subscriptions == 1
            && node_b.stats().subscriptions == 1
            && node_c.stats().subscriptions == 1
    });

    // Baseline: A's publish tree reaches C over the direct edge.
    publisher.publish(&tick(&registry, 1)).unwrap();
    let (_, event) = subscriber.recv(Duration::from_secs(10)).unwrap();
    assert_eq!(event.value(0).unwrap().as_int().unwrap(), 1);
    // Let C's cumulative ack flush (GC cadence) so the baseline frame
    // is trimmed from A's spool — the cut below is then quiescent, and
    // re-homing cannot resend an already-delivered frame (DESIGN.md
    // §15's exactly-once-for-quiescent-cuts claim).
    std::thread::sleep(Duration::from_millis(400));

    // Kill the direct edge, then publish *before* the repair converges:
    // the frame spools at A toward the dead C.
    net.kill_link(hosts[0].ip(), hosts[2].ip());
    wait("cut detected", &mut || {
        node_a.stats().connections == 2 && node_c.stats().connections == 2
    });
    publisher.publish(&tick(&registry, 2)).unwrap();

    // C's dialer escalates into a LinkDown flood (via B); every broker
    // flips to the repaired forest, and A's flip re-homes the spooled
    // frame down the detour A → B → C.
    let (_, event) = subscriber
        .recv(Duration::from_secs(15))
        .expect("the repair must re-home the spooled frame down the new tree");
    assert_eq!(event.value(0).unwrap().as_int().unwrap(), 2);
    assert!(
        subscriber.recv(Duration::from_millis(300)).is_err(),
        "the re-homed frame must arrive exactly once"
    );

    // One LinkDown statement at version 1: scalar 2·1+1 = 3 everywhere.
    wait("epoch convergence", &mut || {
        [&node_a, &node_b, &node_c]
            .iter()
            .all(|n| n.stats().topology_epoch == 3)
    });
    let (sa, sb, sc) = (node_a.stats(), node_b.stats(), node_c.stats());
    assert_eq!(
        sc.repairs_initiated, 1,
        "the dead edge's dialer (C) initiates the repair"
    );
    assert_eq!(sa.repairs_initiated + sb.repairs_initiated, 0);
    assert!(
        sa.rerouted_frames >= 1,
        "A never re-homed the spooled frame"
    );
    for (name, s) in [("A", &sa), ("B", &sb), ("C", &sc)] {
        assert_eq!(s.epoch_flips, 1, "broker {name} must flip exactly once");
        assert_eq!(s.protocol_errors, 0, "broker {name} saw protocol errors");
    }
    node_a.shutdown();
    node_b.shutdown();
    node_c.shutdown();
}
