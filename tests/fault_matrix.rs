//! The fault matrix: flooding-baseline equivalence under every
//! [`FaultPlan`].
//!
//! One leg per plan (kill, half-open stall, partial writes, tag-byte
//! corruption, delayed frames) runs the same seeded scenario: a
//! three-broker chain B0–B1–B2 with both links behind [`FaultLink`]
//! proxies, a match-all subscriber at every broker, and a publisher at B0.
//! Each cycle injects the plan's fault on a seeded victim link, publishes
//! through the wound, heals, and publishes into the healing window. The
//! oracle is flooding: every subscriber must end with exactly the
//! published sequence — nothing lost (the per-link spool retransmits after
//! teardown), nothing duplicated into routing (the receive window dedups)
//! — plus per-plan counters proving the intended failure path actually
//! fired (liveness teardowns for the stall, protocol errors for the
//! corruption, retransmissions for the kill).
//!
//! `FAULT_SEED` selects the schedule seed (default 7) so CI can run a
//! fixed matrix.

mod fault;

use std::sync::Arc;
use std::time::{Duration, Instant};

use fault::{await_subscriptions, registry, seed_from_env, tick, Fault, FaultLink, FaultPlan, Lcg};
use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client, ClientToBroker};
use linkcast_types::{BrokerId, ClientId, SchemaId};

/// Heartbeat/liveness settings shared by every leg: fast enough that a
/// stalled link is detected within one cycle, slow enough that healthy
/// (merely delayed or dribbled) links never trip.
const HEARTBEAT: Duration = Duration::from_millis(100);
const LIVENESS: Duration = Duration::from_millis(600);

fn run_plan(plan: FaultPlan) {
    run_plan_with_cache(plan, 0);
}

/// `run_plan` with each broker's match-result cache set to `cache_cap`
/// entries (0 = disabled, the default everywhere else in the matrix). The
/// cached leg proves the generation-invalidated cache cannot corrupt
/// routing under link faults: the flooding-baseline oracle is unchanged.
fn run_plan_with_cache(plan: FaultPlan, cache_cap: usize) {
    let mut rng = Lcg::new(seed_from_env("FAULT_SEED", 7));
    let mut net = NetworkBuilder::new();
    let brokers: Vec<BrokerId> = (0..3).map(|_| net.add_broker()).collect();
    net.connect(brokers[0], brokers[1], 5.0).unwrap();
    net.connect(brokers[1], brokers[2], 5.0).unwrap();
    let clients: Vec<ClientId> = brokers
        .iter()
        .map(|&b| net.add_client(b).unwrap())
        .collect();
    let publisher_client = net.add_client(brokers[0]).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = registry();

    let nodes: Vec<BrokerNode> = brokers
        .iter()
        .map(|&b| {
            let mut config = BrokerConfig::localhost(b, fabric.clone(), Arc::clone(&registry));
            config.gc_interval = Duration::from_millis(50);
            config.heartbeat_interval = HEARTBEAT;
            config.liveness_timeout = LIVENESS;
            // A stalled link also swallows the redial handshake, so keep
            // the supervisor's give-up-and-backoff loop tight.
            config.link_handshake_timeout = Duration::from_millis(500);
            config.match_cache_cap = cache_cap;
            BrokerNode::start(config).unwrap()
        })
        .collect();

    // Each topology link goes through its own fault proxy; the higher-id
    // broker supervises the dial.
    let links = [
        FaultLink::start(nodes[0].addr()),
        FaultLink::start(nodes[1].addr()),
    ];
    nodes[1].connect_to_persistent(brokers[0], links[0].addr());
    nodes[2].connect_to_persistent(brokers[1], links[1].addr());

    // A match-all subscriber at every broker: the oracle is flooding.
    let mut subscribers: Vec<Client> = clients
        .iter()
        .zip(&nodes)
        .map(|(&c, node)| {
            let mut client = Client::connect(node.addr(), c, 0, Arc::clone(&registry)).unwrap();
            client.subscribe(SchemaId::new(0), "n >= 0").unwrap();
            client
        })
        .collect();
    await_subscriptions(&nodes.iter().collect::<Vec<_>>(), 3);

    let mut publisher =
        Client::connect(nodes[0].addr(), publisher_client, 0, Arc::clone(&registry)).unwrap();

    // Fault cycles: wound one link, publish through the wound, heal,
    // publish into the healing window, repeat.
    let mut published = Vec::new();
    let mut next = 0i64;
    for _ in 0..4 {
        let victim = &links[rng.below(2) as usize];
        plan.inject(victim, &mut rng);
        let batch = 10 + rng.below(11) as i64;
        for _ in 0..batch {
            publisher.publish(&tick(&registry, next)).unwrap();
            published.push(next);
            next += 1;
        }
        // Disruptive plans need the failure detected (EOF for the kill,
        // undecodable frame for the corruption, liveness timeout for the
        // stall — the slowest) before healing is meaningful.
        let wound_open = if plan.fault == Fault::Stall {
            LIVENESS + Duration::from_millis(300)
        } else {
            Duration::from_millis(50 + rng.below(150))
        };
        std::thread::sleep(wound_open);
        plan.heal(victim);
        // Some publishes land in the healing window.
        let after = rng.below(8) as i64;
        for _ in 0..after {
            publisher.publish(&tick(&registry, next)).unwrap();
            published.push(next);
            next += 1;
        }
        std::thread::sleep(Duration::from_millis(rng.below(100)));
    }

    // Convergence: every subscriber sees exactly the published set, in
    // order (per-client logs are sequenced), with no duplicates.
    let deadline = Instant::now() + Duration::from_secs(60);
    for (i, subscriber) in subscribers.iter_mut().enumerate() {
        let mut got = Vec::new();
        while got.len() < published.len() {
            match subscriber.recv(deadline.saturating_duration_since(Instant::now())) {
                Ok((_, event)) => got.push(event.value(0).unwrap().as_int().unwrap()),
                Err(e) => panic!(
                    "[{}] subscriber {i} stalled at {}/{} events: {e}",
                    plan.name,
                    got.len(),
                    published.len()
                ),
            }
        }
        assert_eq!(
            got, published,
            "[{}] subscriber {i} must see the exact flooding baseline",
            plan.name
        );
        // Nothing extra arrives: no duplicate survived the dedup window.
        assert!(
            subscriber.recv(Duration::from_millis(300)).is_err(),
            "[{}] subscriber {i} received a duplicate",
            plan.name
        );
    }

    // Per-plan proof that the intended failure path fired, and that the
    // overload machinery stayed out of the way.
    let sum = |f: fn(&linkcast_broker::BrokerStats) -> u64| -> u64 {
        nodes.iter().map(|n| f(&n.stats())).sum()
    };
    match plan.fault {
        Fault::Kill => {
            assert!(
                sum(|s| s.retransmitted) > 0,
                "cut links must force spool retransmissions"
            );
        }
        Fault::Stall => {
            assert!(
                sum(|s| s.liveness_timeouts) > 0,
                "a half-open link is invisible to EOF detection; only the \
                 liveness sweep can have torn it down"
            );
            assert!(
                sum(|s| s.retransmitted) > 0,
                "the liveness teardown must trigger spool retransmission"
            );
        }
        Fault::Corrupt => {
            assert!(
                sum(|s| s.protocol_errors) > 0,
                "a corrupted tag byte must surface as a protocol error"
            );
        }
        Fault::PartialWrite | Fault::Delay => {
            // Degraded-but-working links must not be torn down at all.
            assert_eq!(
                sum(|s| s.liveness_timeouts),
                0,
                "slow frames are not silence; liveness must not fire"
            );
        }
    }
    assert_eq!(
        sum(|s| s.dropped_spool_overflow),
        0,
        "spools must not overflow in this workload"
    );
    assert_eq!(
        sum(|s| s.evicted_slow_consumers),
        0,
        "no client was slow; eviction must not fire"
    );
    if cache_cap > 0 {
        assert!(
            sum(|s| s.match_cache_misses) > 0,
            "[{}] the enabled match cache was never consulted",
            plan.name
        );
    }
}

#[test]
fn chain_survives_killed_links() {
    run_plan(FaultPlan {
        name: "kill",
        fault: Fault::Kill,
    });
}

#[test]
fn chain_survives_half_open_stalls() {
    run_plan(FaultPlan {
        name: "stall",
        fault: Fault::Stall,
    });
}

#[test]
fn chain_survives_partial_writes() {
    run_plan(FaultPlan {
        name: "partial-write",
        fault: Fault::PartialWrite,
    });
}

#[test]
fn chain_survives_corrupted_frames() {
    run_plan(FaultPlan {
        name: "corrupt",
        fault: Fault::Corrupt,
    });
}

#[test]
fn chain_survives_delayed_frames() {
    run_plan(FaultPlan {
        name: "delay",
        fault: Fault::Delay,
    });
}

/// One matrix leg re-run with the match-result cache enabled: link faults
/// plus subscription-generation invalidation must still reproduce the
/// exact flooding baseline.
#[test]
fn chain_survives_killed_links_with_match_cache() {
    run_plan_with_cache(
        FaultPlan {
            name: "kill+cache",
            fault: Fault::Kill,
        },
        1024,
    );
}

/// Payload corruption (not tag corruption): a `Forward` frame whose
/// *event body* is scrambled decodes past the tag dispatch and fails in
/// the event parser. The receiver must count a protocol error and drop
/// the peer without acking or advancing its receive window, so the
/// sender's spool replays the original, uncorrupted frame on redial —
/// the subscriber sees the exact sequence, no loss, no duplicate.
#[test]
fn corrupted_payload_is_rejected_and_replayed_from_the_spool() {
    let mut net = NetworkBuilder::new();
    let a = net.add_broker(); // acceptor: hosts the subscriber
    let b = net.add_broker(); // dialer: hosts the publisher
    net.connect(a, b, 5.0).unwrap();
    let sub_client = net.add_client(a).unwrap();
    let pub_client = net.add_client(b).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = registry();

    let start = |broker| {
        let mut config = BrokerConfig::localhost(broker, fabric.clone(), Arc::clone(&registry));
        config.gc_interval = Duration::from_millis(50);
        config.heartbeat_interval = HEARTBEAT;
        config.liveness_timeout = LIVENESS;
        config.link_handshake_timeout = Duration::from_millis(500);
        BrokerNode::start(config).unwrap()
    };
    let node_a = start(a);
    let node_b = start(b);
    let link = FaultLink::start(node_a.addr());
    node_b.connect_to_persistent(a, link.addr());

    let mut subscriber =
        Client::connect(node_a.addr(), sub_client, 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    await_subscriptions(&[&node_a, &node_b], 1);

    let mut publisher =
        Client::connect(node_b.addr(), pub_client, 0, Arc::clone(&registry)).unwrap();

    // One event crosses the healthy link, establishing sequence state.
    publisher.publish(&tick(&registry, 0)).unwrap();
    let (_, event) = subscriber.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(event.value(0).unwrap().as_int().unwrap(), 0);

    // Arm the one-shot body corruption on B→A, then publish through it:
    // the first Forward (value 1) arrives with a scrambled event body.
    link.forward().corrupt_next_payload();
    for n in 1..=4 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }

    // A must notice in the event parser and hang up on the peer.
    let deadline = Instant::now() + Duration::from_secs(10);
    while node_a.stats().protocol_errors == 0 {
        assert!(
            Instant::now() < deadline,
            "a corrupted Forward body never surfaced as a protocol error"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        node_a.stats().protocol_errors,
        1,
        "the one-shot corruption must count exactly one protocol error"
    );

    // The redial's spool replay must deliver the original frame (the
    // corruption lived on the wire, not in the spool) and everything
    // behind it, exactly once each.
    for expected in 1..=4 {
        let (_, event) = subscriber
            .recv(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("event {expected} never arrived after the redial: {e}"));
        assert_eq!(event.value(0).unwrap().as_int().unwrap(), expected);
    }
    assert!(
        subscriber.recv(Duration::from_millis(300)).is_err(),
        "duplicate delivered after the corruption recovery"
    );
    assert!(
        node_b.stats().retransmitted > 0,
        "the rejected frame must have been replayed from the spool"
    );
}

/// The half-open detection bound (tentpole acceptance): a stalled — not
/// closed — broker link must be torn down by the liveness sweep within the
/// configured timeout (plus scheduling slack), the spool must retain the
/// outage window, and the redial must restore the exact flooding baseline.
///
/// Two inputs: an idle acceptor, whose engine sleeps until its heartbeat
/// deadline, and a busy one, where a local publisher keeps the engine's
/// mailbox non-empty for the whole stall — the engine owns its timers, so
/// it must look at them between commands too, not only when a wait times
/// out.
#[test]
fn half_open_link_detected_within_liveness_timeout() {
    half_open_link_is_detected(false);
    half_open_link_is_detected(true);
}

fn half_open_link_is_detected(busy: bool) {
    let mut net = NetworkBuilder::new();
    let a = net.add_broker(); // acceptor: hosts the subscriber
    let b = net.add_broker(); // dialer: hosts the publisher
    net.connect(a, b, 5.0).unwrap();
    let sub_client = net.add_client(a).unwrap();
    let pub_client = net.add_client(b).unwrap();
    let busy_client = net.add_client(a).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let registry = registry();

    let start = |broker| {
        let mut config = BrokerConfig::localhost(broker, fabric.clone(), Arc::clone(&registry));
        config.gc_interval = Duration::from_millis(50);
        config.heartbeat_interval = HEARTBEAT;
        config.liveness_timeout = LIVENESS;
        config.link_handshake_timeout = Duration::from_millis(500);
        BrokerNode::start(config).unwrap()
    };
    let node_a = start(a);
    let node_b = start(b);
    let link = FaultLink::start(node_a.addr());
    node_b.connect_to_persistent(a, link.addr());

    let mut subscriber =
        Client::connect(node_a.addr(), sub_client, 0, Arc::clone(&registry)).unwrap();
    subscriber.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    await_subscriptions(&[&node_a, &node_b], 1);

    let mut publisher =
        Client::connect(node_b.addr(), pub_client, 0, Arc::clone(&registry)).unwrap();

    // One event crosses the healthy link, establishing sequence state.
    publisher.publish(&tick(&registry, 0)).unwrap();
    let (_, event) = subscriber.recv(Duration::from_secs(5)).unwrap();
    assert_eq!(event.value(0).unwrap().as_int().unwrap(), 0);

    // Freeze the dialer→acceptor direction: B's frames (and its Pong
    // replies to A's pings) black-hole while both sockets stay open. No
    // EOF will ever arrive — only A's liveness sweep can notice.
    link.forward().stall(true);
    let stalled_at = Instant::now();

    // Publish into the half-open window: spooled at B, undeliverable.
    for n in 1..=4 {
        publisher.publish(&tick(&registry, n)).unwrap();
    }

    // A must tear the link down within the liveness timeout. The idle
    // bound is deliberately loose (2× the timeout) to absorb scheduler
    // jitter in CI while still proving detection is prompt. The busy bound
    // is the timeout plus two timer periods: a timer that waited for the
    // mailbox to drain would not fire before the publisher below stops,
    // and it stops only at detection or at the bound.
    let detection_deadline = stalled_at
        + if busy {
            LIVENESS + 2 * HEARTBEAT
        } else {
            2 * LIVENESS
        };
    let detected = || node_a.stats().liveness_timeouts > 0;
    std::thread::scope(|scope| {
        if busy {
            scope.spawn(|| {
                // Events nobody subscribes to (`n < 0`): they cost A's
                // engine a match each and reach no one. Up to 16 384 wait
                // in the mailbox — some tens of milliseconds of work, so it
                // stays non-empty while this thread is off the CPU, and
                // bounded.
                let local = node_a.open_local();
                local.send(&ClientToBroker::Hello {
                    client: busy_client,
                    resume_from: 0,
                });
                let noise = ClientToBroker::Publish {
                    event: tick(&registry, -1),
                };
                let (mut sent, mut done) = (0, 0);
                while !detected() && Instant::now() < detection_deadline {
                    if sent < done + 16_384 {
                        local.send(&noise);
                        sent += 1;
                    } else {
                        done = node_a.stats().published;
                    }
                }
            });
        }
        while !detected() {
            assert!(
                Instant::now() < detection_deadline,
                "half-open link not torn down by {:?} after the stall (busy: {busy})",
                detection_deadline - stalled_at
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    // Heal: the supervisor's redial completes a fresh handshake and the
    // spool replays the outage window. Exact baseline, no duplicates.
    link.heal();
    for expected in 1..=4 {
        let (_, event) = subscriber
            .recv(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("event {expected} never arrived after the heal: {e}"));
        assert_eq!(event.value(0).unwrap().as_int().unwrap(), expected);
    }
    assert!(
        subscriber.recv(Duration::from_millis(300)).is_err(),
        "duplicate delivered after the half-open recovery"
    );
    assert!(
        node_b.stats().retransmitted > 0,
        "the outage window must have come from the spool"
    );
}
