//! The cluster, crash and repair models, on the simulator (DESIGN.md
//! §12.3, §14.4, §15.5).
//!
//! Seeded schedules drive a five-broker tree (0–1, 1–2, 2–3, 1–4; broker 1
//! is the hub) through publishes, subscription churn, link kills and hub
//! restarts — or, for the crash model, power cuts under durable storage;
//! for the repair model, permanent partitions of a cycle. At quiescence a
//! run asserts flooding-baseline delivery equivalence, exactly-once into
//! routing (probe `forwarded`/`delivered` deltas against a [`LinkSpace`]
//! flood oracle, per broker), routing-table convergence, and zero counter
//! leaks. A failing schedule is shrunk to a minimal one; every run is a
//! function of its seed, and `SIMNET_SEED=<s> [SIMNET_CUT=<mode>] cargo
//! test --release -p linkcast-broker --lib <test>` replays it byte for
//! byte.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{LinkSpace, LinkTarget, RoutingFabric, TreeId};
use linkcast_types::{
    parse_predicate, BrokerId, ClientId, Event, LinkId, SchemaId, SubscriberId, Subscription,
    SubscriptionId, TritVec,
};

use super::{replay_seed, seeds, tick, Drawn, Lcg, Sim, Spec};
use crate::broker_core::{tests::Io, SNAPSHOT_EVERY};
use crate::storage::PowerCut;

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
/// Client indices: a stable subscriber per broker (client `i` at broker
/// `i`), then the churners, then the publisher at broker 0.
const CHURNER: usize = N_BROKERS;
const PUBLISHER: usize = CHURNER + CHURN_BROKERS.len();
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
/// still-down edges, so it is not no-op'd away), keeping every seed an
/// actual crash test. Ahead of the crash go `SNAPSHOT_EVERY` + 16
/// publishes: the hub checkpoints on the cadence and journals on, so its
/// recovery replays WAL records on top of that snapshot.
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
    let crash = ops.iter().position(|&op| op == Op::CrashBroker);
    let crash = crash.expect("a crash schedule crashes");
    let burst = std::iter::repeat_n(Op::Publish, SNAPSHOT_EVERY as usize + 16);
    ops.splice(crash..crash, burst);
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
) -> Vec<LinkId> {
    let mut yes = TritVec::no(space.width());
    for sub in live.values() {
        if sub.predicate().matches(event) {
            yes.parallel_words_in_place(space.leaf_vector(sub.subscriber().client).words());
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

/// The per-broker probe deltas the oracle expects, over `fabric`, for
/// `live`'s subscriptions and the probes `0..=5`.
fn expected_deltas(
    sim: &Sim,
    fabric: &RoutingFabric,
    live: &HashMap<SubscriptionId, Subscription>,
) -> Vec<(u64, u64)> {
    let spaces: Vec<LinkSpace> = (sim.brokers.iter())
        .map(|&b| LinkSpace::build(fabric.network(), fabric.forest(), b))
        .collect();
    let tree = fabric.tree_for(sim.brokers[0]).unwrap();
    let mut expected = vec![(0u64, 0u64); N_BROKERS];
    for p in PROBES {
        let event = tick(&sim.registry, p);
        let deltas = probe_flood(fabric, &spaces, &sim.brokers, live, &event, tree);
        for (e, d) in expected.iter_mut().zip(deltas) {
            e.0 += d.0;
            e.1 += d.1;
        }
    }
    expected
}

/// The probe values.
const PROBES: std::ops::RangeInclusive<i64> = 0..=5;

/// Which model a run is.
#[derive(Clone, Copy, Debug)]
enum Model {
    /// The tree, storage-less; the hub may restart gracefully.
    Cluster,
    /// The tree, every broker on durable storage; the hub may crash, its
    /// disk degraded by this power cut.
    Crash(PowerCut),
    /// The redundant graph, every broker escalating after 2 failed
    /// redials; cycle edges may be partitioned for good.
    Repair,
}

/// `model`'s cluster at `base`.
fn start(seed: u64, base: Instant, model: Model) -> Sim {
    let mut clients: Vec<usize> = (0..N_BROKERS).collect();
    clients.extend(CHURN_BROKERS);
    clients.push(0);
    let repair = matches!(model, Model::Repair);
    let edges: &[_] = if repair { &REPAIR_EDGES } else { &EDGES };
    let mut spec = Spec::new(seed, N_BROKERS, edges, &clients);
    spec.durable = matches!(model, Model::Crash(_));
    Sim::new(spec, base, |config| {
        config.match_cache_cap = 64;
        config.repair_after = if repair { 2 } else { 0 };
    })
}

/// Phase A: every client connects, a stable match-all subscriber at every
/// broker, barriered on the flood and the mesh.
fn connect_all(sim: &mut Sim) -> Result<(), String> {
    for j in 0..=PUBLISHER {
        sim.connect(j, 0);
    }
    for i in 0..N_BROKERS {
        sim.subscribe(i, "n >= 0")?;
    }
    let within = Duration::from_secs(10);
    sim.run_until("stable subscription flood", within, |s| {
        (0..N_BROKERS).all(|i| s.counts(i).subscriptions() >= N_BROKERS as u64)
    })?;
    sim.run_until("initial link mesh", within, Sim::meshed)
}

/// Runs until subscriber `j` holds `target` deliveries.
fn drain(sim: &mut Sim, j: usize, target: usize, who: &str) -> Result<(), String> {
    let waiting = format!("{who} to reach {target} events");
    sim.run_until(&waiting, Duration::from_secs(30), |s| s.holds(j, target))
}

/// Drains every stable subscriber to `want`'s length and checks it got
/// exactly `want`: flooding-baseline equivalence, in publish order.
fn baseline(sim: &mut Sim, want: &[i64], what: &str) -> Result<(), String> {
    for i in 0..N_BROKERS {
        drain(
            sim,
            i,
            want.len(),
            &format!("{what}: stable subscriber {i}"),
        )?;
        let got = sim.ticks_of(i);
        ensure!(
            got == want,
            "{what}: stable subscriber {i} diverged from the flooding baseline:\n \
             got {got:?}\nwant {want:?}"
        );
    }
    Ok(())
}

/// Lets 300 ms pass and checks nothing more reached `clients`, who hold
/// `held` deliveries each (duplicate / leak detector).
fn assert_quiet(sim: &mut Sim, held: &[(usize, usize)]) -> Result<(), String> {
    sim.run_for(Duration::from_millis(300));
    for &(j, n) in held {
        let got = sim.ticks_of(j);
        ensure!(
            got.len() == n,
            "client {j} received an extra event {:?} at quiescence",
            got.get(n)
        );
    }
    Ok(())
}

/// Every broker's counters checked for leaks at quiescence.
fn leak_checks(sim: &Sim) -> Result<(), String> {
    for i in 0..N_BROKERS {
        let s = sim.counts(i);
        let evicted = s.evicted_slow_consumers() + s.peer_overflow_disconnects();
        let (dropped, errors) = (s.dropped_spool_overflow(), s.protocol_errors());
        ensure!(
            (dropped, errors, evicted) == (0, 0, 0),
            "broker {i} dropped {dropped} spooled frames, counted {errors} protocol \
             errors, evicted {evicted} connections under a workload that cannot overflow"
        );
    }
    Ok(())
}

/// Publishes the probes and checks every broker's `(forwarded, delivered)`
/// deltas against `expected`: exact equality is the exactly-once-into-
/// routing check (a duplicate accepted into routing inflates a delta, a
/// loss deflates it). Every stable subscriber must see `published` and
/// then every probe, in order, with nothing interleaved.
fn probe(
    sim: &mut Sim,
    published: &[i64],
    expected: &[(u64, u64)],
    what: &str,
) -> Result<(), String> {
    let before: Vec<_> = (0..N_BROKERS).map(|i| sim.counts(i)).collect();
    for p in PROBES {
        let event = tick(&sim.registry, p);
        sim.publish(PUBLISHER, event);
    }
    let mut expected_stable = published.to_vec();
    expected_stable.extend(PROBES);
    baseline(sim, &expected_stable, "the probe sequence")?;
    sim.run_until("probe quiescence", Duration::from_secs(10), Sim::quiet)?;
    for i in 0..N_BROKERS {
        let after = sim.counts(i);
        let fwd = after.forwarded() - before[i].forwarded();
        let del = after.delivered() - before[i].delivered();
        ensure!(
            (fwd, del) == expected[i],
            "broker {i} probe counters diverged from the {what}: \
             forwarded/delivered got ({fwd}, {del}) want {:?}",
            expected[i]
        );
    }
    Ok(())
}

/// What one model run left behind.
struct Run {
    /// The schedule and the quiescent observables.
    trace: String,
    logs: Vec<Vec<Io>>,
    drawn: Drawn,
}

/// Executes one schedule of `model` against a fresh cluster started at
/// `base`. `Err` carries the first model violation.
///
/// On the repair model's redundant graph partitions are *permanent* until
/// healed: instead of spooling across the outage, the dead edge's dialer
/// escalates its redial failures into a `LinkDown` flood, every broker
/// recomputes its spanning forest over the surviving graph, and routing
/// cuts over under a new topology epoch — so the flooding-baseline
/// delivery equivalence must hold *through* the repair, and the probe
/// oracle is computed over the repaired fabric when a partition is active
/// at probe time.
fn run(seed: u64, ops: &[Op], model: Model, base: Instant) -> Result<Run, String> {
    let mut sim = start(seed, base, model);
    // Phase A. In the repair model the churners connect but never
    // subscribe: the cluster is the same shape as the tree model's.
    connect_all(&mut sim)?;
    let repair = matches!(model, Model::Repair);
    let barrier = |s: &Sim| s.meshed() && s.quiet();
    let secs = Duration::from_secs;

    // Phase B: the seeded schedule, with a harness-side mirror of the
    // link-state table: per-edge versions plus the active partition give
    // the expected topology epoch Σ(2·ver + down) every broker must
    // converge to after each flood.
    let mut published: Vec<i64> = Vec::new();
    let mut churn_subs: Vec<Option<(SubscriptionId, i64)>> = vec![None; CHURN_BROKERS.len()];
    let mut edge_up = [true; EDGES.len()];
    let mut vers = [0u64; REPAIR_EDGES.len()];
    let mut dead: Option<usize> = None;
    let mut partitions = 0u32;
    let epoch_of = |vers: &[u64; REPAIR_EDGES.len()], dead: Option<usize>| -> u64 {
        let edges = vers.iter().enumerate();
        edges
            .map(|(e, &v)| 2 * v + u64::from(dead == Some(e)))
            .sum()
    };
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Publish => {
                let value = VALUE_BASE + published.len() as i64;
                sim.publish(PUBLISHER, tick(&sim.registry, value));
                published.push(value);
            }
            Op::Subscribe { churner, below } => {
                if churn_subs[churner].is_none() {
                    let id = sim
                        .subscribe(CHURNER + churner, &format!("n < {below}"))
                        .map_err(|e| format!("op {step}: subscribe failed: {e}"))?;
                    churn_subs[churner] = Some((id, below));
                }
            }
            Op::Unsubscribe { churner } => {
                if let Some((id, _)) = churn_subs[churner].take() {
                    sim.unsubscribe(CHURNER + churner, id)
                        .map_err(|e| format!("op {step}: unsubscribe failed: {e}"))?;
                }
            }
            Op::KillLink { edge } => {
                sim.kill(edge);
                edge_up[edge] = false;
            }
            Op::ReviveLink { edge } => {
                sim.revive(edge);
                edge_up[edge] = true;
            }
            Op::RestartHub => {
                if !edge_up.iter().all(|&u| u) {
                    continue; // see Op::RestartHub docs
                }
                // Pre-barrier: a *planned* restart drains a quiescent
                // node — the mesh up and nothing in flight, then the acks
                // flushed, so the hub's spools are acknowledged (in-memory
                // spools do not survive the restart).
                sim.run_until("pre-restart mesh", secs(15), barrier)?;
                sim.run_for(Duration::from_millis(400));
                sim.restart(HUB);
                // The hub subscriber's old connection delivers what the
                // drain flushed into it, then closes.
                let closed = |s: &Sim| s.disconnected(HUB);
                let what = format!("op {step}: the hub's client EOF");
                sim.run_until(&what, secs(10), closed)?;
                // resume_from = 0: the restarted broker's log is fresh,
                // and the subscription itself is restored by the
                // neighbors' resync floods.
                sim.connect(HUB, 0);
            }
            Op::CrashBroker => {
                let Model::Crash(cut) = model else {
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
                sim.run_until("pre-crash mesh", secs(15), barrier)?;
                drain(&mut sim, HUB, published.len(), "hub subscriber (pre-crash)")?;
                sim.run_for(Duration::from_millis(400));
                sim.crash(HUB, cut);
                // The reboot must resume from durable state (same
                // incarnation, recovered spools and receive marks), not
                // boot fresh — to its neighbors the crash should look
                // like a long link stall, not a restart.
                ensure!(
                    sim.counts(HUB).recoveries() == 1,
                    "op {step}: rebooted hub did not recover its durable state"
                );
                // Reconnect with resume_from = 0: client delivery logs
                // are volatile, so recovery rebuilt an empty one.
                sim.connect(HUB, 0);
            }
            Op::Settle { ms } => sim.run_for(Duration::from_millis(ms)),
            Op::PartitionLink { edge } => {
                if dead.is_some() {
                    continue; // see Op::PartitionLink docs
                }
                repair_quiesce(&mut sim, &published, &format!("op {step} pre-partition"))?;
                sim.kill(edge);
                vers[edge] += 1;
                dead = Some(edge);
                partitions += 1;
                let expected = epoch_of(&vers, dead);
                let what = format!("op {step}: LinkDown repair convergence (epoch {expected})");
                sim.run_until(&what, secs(30), |s| {
                    (0..N_BROKERS).all(|i| s.epoch(i) == expected)
                })?;
            }
            Op::HealLink { edge } => {
                if dead != Some(edge) {
                    continue; // see Op::HealLink docs
                }
                repair_quiesce(&mut sim, &published, &format!("op {step} pre-heal"))?;
                sim.revive(edge);
                vers[edge] += 1;
                dead = None;
                let expected = epoch_of(&vers, dead);
                let what = format!("op {step}: LinkUp repair convergence (epoch {expected})");
                sim.run_until(&what, secs(30), |s| {
                    (0..N_BROKERS).all(|i| s.epoch(i) == expected)
                })?;
            }
        }
    }

    // Phase C: converge, probe, assert — on the repair model *through* the
    // repaired topology.
    let live_subs = (N_BROKERS + churn_subs.iter().flatten().count()) as u64;
    if repair {
        repair_quiesce(&mut sim, &published, "phase C")?;
    } else {
        sim.heal();
        // Post-heal sentinel: the last pre-probe publish. Once every
        // stable subscriber has drained it (below), every tree edge has
        // carried a frame over a handshake-complete link — the probes that
        // follow are live-forwarded (and counted), not silently spooled.
        let sentinel = 50;
        sim.publish(PUBLISHER, tick(&sim.registry, sentinel));
        published.push(sentinel);
        sim.run_until("healed mesh", secs(30), |s| {
            s.meshed() && (0..=PUBLISHER).all(|j| s.welcomed(j))
        })?;
    }
    // Routing-table convergence: every broker's network-wide view equals
    // the harness's live-subscription oracle — resurrections (tombstone
    // bugs) or lost SubAdds park this wait on the wrong count.
    sim.run_until("subscription convergence", secs(30), |s| {
        (0..N_BROKERS).all(|i| s.counts(i).subscriptions() == live_subs)
    })?;
    if !repair {
        sim.run_until("queue quiescence", secs(30), Sim::quiet)?;
        // Flooding-baseline equivalence for the schedule's publishes.
        // Draining these *before* the probe snapshot doubles as the routing
        // barrier — delivery at broker `i`'s subscriber proves broker `i`
        // finished dispatching (and counting) every scheduled event, so the
        // probe deltas start from settled counters.
        baseline(&mut sim, &published, "phase C")?;
    }

    // The oracle's view of the live subscription set, over the *surviving*
    // graph: the same excluded-edge recompute the brokers ran.
    let mut oracle_live: HashMap<SubscriptionId, Subscription> = HashMap::new();
    let schema = sim.registry.get(SchemaId::new(0)).unwrap().clone();
    let mut add_oracle = |broker: BrokerId, client: ClientId, expr: &str| {
        let id = SubscriptionId::new(oracle_live.len() as u32 + 1);
        let predicate = parse_predicate(&schema, expr).unwrap();
        let subscriber = SubscriberId::new(broker, client);
        oracle_live.insert(id, Subscription::new(id, subscriber, predicate));
    };
    for i in 0..N_BROKERS {
        add_oracle(sim.brokers[i], sim.clients[i].id, "n >= 0");
    }
    for (j, sub) in churn_subs.iter().enumerate() {
        if let Some((_, below)) = sub {
            let (broker, client) = (sim.brokers[CHURN_BROKERS[j]], sim.clients[CHURNER + j].id);
            add_oracle(broker, client, &format!("n < {below}"));
        }
    }
    let (fabric, oracle) = if repair {
        let dead = dead.map(|e| REPAIR_EDGES[e]);
        let excluded: Vec<(BrokerId, BrokerId)> = (dead.iter())
            .map(|&(a, b)| (sim.brokers[a], sim.brokers[b]))
            .collect();
        let fabric = sim.fabric.rebuild_excluding(&excluded);
        (fabric, "repaired-fabric oracle")
    } else {
        (Arc::clone(&sim.fabric), "LinkSpace oracle")
    };

    // Probe phase.
    let expected = expected_deltas(&sim, &fabric, &oracle_live);
    probe(&mut sim, &published, &expected, oracle)?;
    // Live churners see exactly the probes below their threshold; dead
    // churners see nothing.
    let mut held: Vec<(usize, usize)> = (0..N_BROKERS).map(|i| (i, published.len() + 6)).collect();
    for (j, sub) in churn_subs.iter().enumerate() {
        let expected: Vec<i64> = match sub {
            Some((_, below)) => PROBES.filter(|p| p < below).collect(),
            None => Vec::new(),
        };
        drain(
            &mut sim,
            CHURNER + j,
            expected.len(),
            &format!("churner {j}"),
        )?;
        let got = sim.ticks_of(CHURNER + j);
        ensure!(
            got == expected,
            "churner {j} diverged from the predicate oracle: got {got:?} want {expected:?}"
        );
        held.push((CHURNER + j, expected.len()));
    }
    assert_quiet(&mut sim, &held)?;

    // Repair accounting: every partition was detected by the dead edge's
    // dialer (its redial escalation), every broker flipped at
    // least once per flood, and the final epoch agrees with the harness's
    // link-state mirror everywhere.
    let mut trace = format!("seed={seed}\n");
    if repair {
        if partitions > 0 {
            let initiated: u64 = (0..N_BROKERS)
                .map(|i| sim.counts(i).repairs_initiated())
                .sum();
            ensure!(
                initiated >= 1,
                "no broker escalated a dead link into a repair across {partitions} partitions"
            );
            for i in 0..N_BROKERS {
                let flips = sim.counts(i).epoch_flips();
                ensure!(flips >= 1, "broker {i} never flipped its topology epoch");
            }
        }
        let final_epoch = epoch_of(&vers, dead);
        for i in 0..N_BROKERS {
            let e = sim.epoch(i);
            ensure!(
                e == final_epoch,
                "broker {i} settled at epoch {e}, the link-state mirror says {final_epoch}"
            );
        }
        trace = format!("seed={seed} epoch={final_epoch}\n");
    }
    leak_checks(&sim)?;

    // The trace: schedule + quiescent observables, all seed-derived.
    for op in ops {
        trace.push_str(&format!("{op:?}\n"));
    }
    trace.push_str(&format!("published={published:?}\n"));
    for i in 0..N_BROKERS {
        trace.push_str(&format!("stable{i}={:?}\n", sim.ticks_of(i)));
    }
    Ok(Run {
        trace,
        logs: sim.logs(),
        drawn: sim.drawn(),
    })
}

/// Quiescent-cut barrier for the repair model: waits for the mesh to
/// match the expected shape (every live edge established, the dead one
/// disconnected at both ends), drains every stable subscriber to the full
/// published sequence (asserting flooding-baseline equivalence *now*,
/// which localizes a divergence to the op that caused it), then lets the
/// cumulative acks flush so every spool is trimmed empty. A partition or
/// heal fired after this barrier flips the epoch with no frame pending
/// anywhere, which is what makes the model's claim exactly-once rather
/// than at-least-once (DESIGN.md §15).
fn repair_quiesce(sim: &mut Sim, published: &[i64], what: &str) -> Result<(), String> {
    let secs = Duration::from_secs;
    sim.run_until(&format!("{what}: mesh"), secs(30), Sim::meshed)?;
    baseline(sim, published, what)?;
    sim.run_for(Duration::from_millis(400)); // ack flush → empty spools
    sim.run_until(&format!("{what}: queue quiescence"), secs(30), Sim::quiet)
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

/// Runs `model` over each seed's `len`-op schedule and returns the faults
/// the runs drew; a failing schedule is shrunk and reported with the
/// command that replays it.
fn check(model: Model, schedule: fn(u64, usize) -> Vec<Op>, len: usize) -> Drawn {
    let mut drawn = Drawn::default();
    for seed in seeds() {
        let ops = schedule(seed, len);
        let run = |ops: &[Op]| run(seed, ops, model, Instant::now());
        let err = match run(&ops) {
            Ok(run) => {
                drawn.add(&run.drawn);
                continue;
            }
            Err(err) => err,
        };
        let minimal = shrink(&ops, |o| run(o).map(|_| ()));
        let again = run(&minimal).err().unwrap_or_default();
        let cut = if matches!(model, Model::Crash(_)) {
            " SIMNET_CUT=<mode>"
        } else {
            ""
        };
        panic!(
            "{model:?} model failed (seed {seed}): {err}\n\
             minimal failing schedule ({} ops): {minimal:#?}\n\
             minimal-schedule failure: {again}\n\
             replay with SIMNET_SEED={seed}{cut} cargo test -p linkcast-broker --lib",
            minimal.len()
        );
    }
    drawn
}

/// The model test: seeded schedules, full assertion suite, shrink on
/// failure.
#[test]
fn seeded_cluster_model() {
    let drawn = check(Model::Cluster, schedule, 30);
    // The schedules cut links, retransmit, restart the hub and land
    // frames on one link ahead of frames sent earlier on another.
    let missing = drawn.missing(&["cut", "retransmit", "restart", "overtake"]);
    assert!(missing.is_empty(), "never drawn: {missing:?} in {drawn:?}");
}

/// The crash model: same schedule machinery and assertion suite, but
/// the hub dies by power cut mid-schedule and reboots from its WAL and
/// snapshots, under each injected disk state (`SIMNET_CUT` narrows them to
/// one: `torn-tail`, `lost-suffix`, `snapshot-torn`). The flooding-oracle
/// equivalence, the probe counter accounting, and the convergence/leak
/// checks all still hold across the crash — recovery that lost a committed
/// frame, replayed a torn record, or re-entered a dead sequence space would
/// break one of them. Under every cut the hub has checkpointed on the
/// cadence and recovers WAL records on top of a snapshot.
#[test]
fn seeded_crash_model() {
    let cuts = match std::env::var("SIMNET_CUT") {
        Ok(s) => vec![PowerCut::parse(&s).unwrap_or_else(|| {
            panic!("unknown SIMNET_CUT {s:?} (torn-tail | lost-suffix | snapshot-torn)")
        })],
        Err(_) => vec![
            PowerCut::TornTail,
            PowerCut::LostSuffix,
            PowerCut::SnapshotTorn,
        ],
    };
    for cut in cuts {
        let drawn = check(Model::Crash(cut), crash_schedule, 30);
        let missing = drawn.missing(&["cut", "recovery", "suffix replay", "checkpoint"]);
        assert!(
            missing.is_empty(),
            "{cut:?}: never drawn: {missing:?} in {drawn:?}"
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
/// than assuming it.
#[test]
fn seeded_repair_model() {
    let drawn = check(Model::Repair, repair_schedule, 24);
    let missing = drawn.missing(&["cut", "escalation"]);
    assert!(missing.is_empty(), "never drawn: {missing:?} in {drawn:?}");
}

/// Same seed ⇒ the same run, byte for byte: the trace (schedule and
/// quiescent observables) and every core's `Io` log, with the second run
/// started from another base instant.
#[test]
fn same_seed_reproduces_the_trace() {
    let seed = replay_seed().unwrap_or(7);
    let ops = schedule(seed, 14);
    let t0 = Instant::now();
    let first = run(seed, &ops, Model::Cluster, t0).expect("model run failed");
    let later = t0 + Duration::from_secs(3600);
    let second = run(seed, &ops, Model::Cluster, later).expect("model rerun failed");
    assert_eq!(
        first.trace, second.trace,
        "same seed must reproduce the event trace"
    );
    for (core, (a, b)) in first.logs.iter().zip(&second.logs).enumerate() {
        let diverged = a.iter().zip(b).position(|(x, y)| x != y);
        assert_eq!(diverged, None, "core {core} diverges on replay");
        assert_eq!(a.len(), b.len(), "core {core} log length");
    }
}

/// Different seeds explore different schedules: all 8 release seeds must
/// derive pairwise distinct schedules.
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
fn resync_invalidates_match_cache() -> Result<(), String> {
    const SUBSCRIBER: usize = 0;
    const PUBLISHER: usize = 1;
    let spec = Spec::new(1, 2, &[(0, 1)], &[0, 1]);
    let mut sim = Sim::new(spec, Instant::now(), |config| config.match_cache_cap = 64);
    let within = Duration::from_secs(10);
    sim.run_until("initial link", within, |s| s.established(0))?;
    sim.connect(PUBLISHER, 0);
    // Publish with no subscribers anywhere: B's match cache stores the
    // empty link set for these attribute values.
    sim.publish(PUBLISHER, tick(&sim.registry, 7));
    let routed = |s: &Sim| s.counts(1).published() == 1;
    sim.run_until("first publish routed", within, routed)?;

    // Cut the link, subscribe at A (the SubAdd flood toward B is lost),
    // then heal: B learns the subscription only through the resync.
    sim.kill(0);
    sim.run_until("cut detected", within, Sim::meshed)?;
    sim.connect(SUBSCRIBER, 0);
    sim.subscribe(SUBSCRIBER, "n >= 0")?;
    sim.revive(0);
    let resynced = |s: &Sim| s.counts(1).subscriptions() == 1;
    sim.run_until("resync converged", within, resynced)?;

    // Same attribute values as the cached miss: a stale cache entry
    // would route this into the void.
    sim.publish(PUBLISHER, tick(&sim.registry, 7));
    let what = "the delivery a resync-learned subscription gets past the cached empty link set";
    sim.run_until(what, within, |s| s.holds(SUBSCRIBER, 1))?;
    assert_eq!(sim.ticks_of(SUBSCRIBER), [7]);

    // The cache actually participated: the second publish had to flush a
    // generation.
    let invalidations = sim.counts(1).match_cache_invalidations();
    assert!(
        invalidations >= 1,
        "resync subscribe never invalidated the cache"
    );
    Ok(())
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
fn repair_rehomes_spooled_frames_across_the_new_tree() -> Result<(), String> {
    const PUBLISHER: usize = 0;
    const SUBSCRIBER: usize = 1;
    const DIRECT: usize = 2;
    // The higher-numbered endpoint of each edge supervises the dial, so
    // the (a, c) edge's failure detector lives at C.
    let spec = Spec::new(3, 3, &[(0, 1), (1, 2), (0, 2)], &[0, 2]);
    let mut sim = Sim::new(spec, Instant::now(), |config| config.repair_after = 2);
    let within = Duration::from_secs(15);
    sim.run_until("triangle mesh", within, Sim::meshed)?;
    sim.connect(PUBLISHER, 0);
    sim.connect(SUBSCRIBER, 0);
    sim.subscribe(SUBSCRIBER, "n >= 0")?;
    let flooded = |s: &Sim| (0..3).all(|i| s.counts(i).subscriptions() == 1);
    sim.run_until("subscription flood", within, flooded)?;

    // Baseline: A's publish tree reaches C over the direct edge.
    sim.publish(PUBLISHER, tick(&sim.registry, 1));
    sim.run_until("the baseline delivery", within, |s| s.holds(SUBSCRIBER, 1))?;
    assert_eq!(sim.ticks_of(SUBSCRIBER), [1]);
    // Let C's cumulative ack flush (GC cadence) so the baseline frame
    // is trimmed from A's spool — the cut below is then quiescent, and
    // re-homing cannot resend an already-delivered frame (DESIGN.md
    // §15's exactly-once-for-quiescent-cuts claim).
    sim.run_for(Duration::from_millis(400));

    // Kill the direct edge, then publish *before* the repair converges:
    // the frame spools at A toward the dead C.
    sim.kill(DIRECT);
    sim.run_until("cut detected", within, Sim::meshed)?;
    sim.publish(PUBLISHER, tick(&sim.registry, 2));

    // C's dialer escalates into a LinkDown flood (via B); every broker
    // flips to the repaired forest, and A's flip re-homes the spooled
    // frame down the detour A → B → C.
    let what = "the spooled frame, re-homed down the new tree";
    sim.run_until(what, within, |s| s.holds(SUBSCRIBER, 2))?;
    sim.run_for(Duration::from_millis(300));
    let once = "the re-homed frame must arrive exactly once";
    assert_eq!(sim.ticks_of(SUBSCRIBER), [1, 2], "{once}");

    // One LinkDown statement at version 1: scalar 2·1+1 = 3 everywhere.
    sim.run_until("epoch convergence", within, |s| {
        (0..3).all(|i| s.epoch(i) == 3)
    })?;
    let (sa, sb, sc) = (sim.counts(0), sim.counts(1), sim.counts(2));
    let initiated = "the dead edge's dialer (C) initiates the repair";
    assert_eq!(sc.repairs_initiated(), 1, "{initiated}");
    assert_eq!(sa.repairs_initiated() + sb.repairs_initiated(), 0);
    assert!(
        sa.rerouted_frames() >= 1,
        "A never re-homed the spooled frame"
    );
    for (name, s) in [("A", &sa), ("B", &sb), ("C", &sc)] {
        assert_eq!(s.epoch_flips(), 1, "broker {name} must flip exactly once");
        assert_eq!(s.protocol_errors(), 0, "broker {name} saw protocol errors");
    }
    Ok(())
}

/// A broker cut off second keeps serving its own subscribers: brokers
/// 0–2, 1–2 and 2–3, one client at broker 3. Cutting 0–2 and then 2–3
/// leaves brokers 0 and 3 each alone, two one-broker trees of the same
/// shape; broker 3 must still route down its own tree, the one rooted at
/// it, and hand its client the event that client publishes.
#[test]
fn a_broker_cut_off_second_still_delivers_to_its_own_client() -> Result<(), String> {
    const CLIENT: usize = 0;
    const LONE: usize = 3;
    let spec = Spec::new(5, 4, &[(0, 2), (1, 2), (2, 3)], &[LONE]);
    let mut sim = Sim::new(spec, Instant::now(), |config| config.repair_after = 2);
    let within = Duration::from_secs(15);
    sim.run_until("star mesh", within, Sim::meshed)?;
    sim.connect(CLIENT, 0);
    sim.subscribe(CLIENT, "n >= 0")?;
    for (edge, what) in [
        (0, "the first cut repaired"),
        (2, "the second cut repaired"),
    ] {
        let before = sim.epoch(LONE);
        sim.kill(edge);
        sim.run_until(what, within, |s| s.epoch(LONE) != before)?;
    }
    sim.publish(CLIENT, tick(&sim.registry, 1));
    let what = "the delivery of its own publish to a client of a cut-off broker";
    sim.run_until(what, within, |s| s.holds(CLIENT, 1))?;
    sim.run_for(Duration::from_millis(300));
    assert_eq!(sim.ticks_of(CLIENT), [1]);
    Ok(())
}
