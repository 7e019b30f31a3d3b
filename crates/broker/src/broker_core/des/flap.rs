//! Broker links that flap, on the simulator: the spool retransmits what a
//! cut link missed, the receive window drops what crossed twice, and the
//! tombstone filter keeps an unsubscribe dead across the resync. The
//! socket-level faults (partial writes, corruption, a busy mailbox) stay
//! on TCP, in `tests/fault_matrix.rs`.

use std::time::{Duration, Instant};

use super::{seeds, tick, Lcg, Sim, Spec};

/// A chain of `brokers`, `clients` homed as given.
fn chain(seed: u64, brokers: usize, clients: &[usize]) -> Sim {
    let edges: Vec<(usize, usize)> = (1..brokers).map(|b| (b - 1, b)).collect();
    let spec = Spec::new(seed, brokers, &edges, clients);
    Sim::new(spec, Instant::now(), |_| {})
}

const WITHIN: Duration = Duration::from_secs(10);

/// A three-broker chain B0–B1–B2 whose links are cut and healed over and
/// over while events are published. A match-all subscriber at every broker
/// must still see exactly the flooding-baseline set: no event lost to a
/// down link, none duplicated by the retransmissions.
#[test]
fn chain_survives_link_flaps() -> Result<(), String> {
    for seed in seeds() {
        let mut rng = Lcg::new(seed);
        // A subscriber at each broker, then the publisher at B0.
        let mut sim = chain(seed, 3, &[0, 1, 2, 0]);
        let publisher = 3;
        for i in 0..=publisher {
            sim.connect(i, 0);
        }
        for i in 0..3 {
            sim.subscribe(i, "n >= 0")?;
        }
        let flooded = |s: &Sim| (0..3).all(|i| s.counts(i).subscriptions() == 3);
        sim.run_until("subscription flood", WITHIN, flooded)?;

        // Flap cycles: cut one link, publish through the wound, heal, repeat.
        let mut published = Vec::new();
        let mut publish = |sim: &mut Sim, n: u64| {
            for _ in 0..n {
                let next = published.len() as i64;
                sim.publish(publisher, tick(&sim.registry, next));
                published.push(next);
            }
        };
        for _ in 0..6 {
            let victim = rng.below(2) as usize;
            sim.kill(victim);
            publish(&mut sim, 20 + rng.below(21));
            sim.run_for(Duration::from_millis(50 + rng.below(150)));
            sim.revive(victim);
            // Some cycles also publish into the healing window.
            publish(&mut sim, rng.below(10));
            sim.run_for(Duration::from_millis(rng.below(100)));
        }

        // Convergence: every subscriber sees exactly the published set, in
        // order (per-client logs are sequenced), with no duplicates.
        for i in 0..3 {
            let what = format!("seed {seed}: subscriber {i}'s events");
            let all = |s: &Sim| s.holds(i, published.len());
            sim.run_until(&what, Duration::from_secs(60), all)?;
        }
        // Nothing extra arrives: no duplicate survived the dedup window.
        sim.run_for(Duration::from_millis(300));
        for i in 0..3 {
            let exact = format!("seed {seed}: subscriber {i} must see the exact set");
            assert_eq!(sim.ticks_of(i), published, "{exact}");
        }

        // The flaps actually exercised the spool path.
        let retransmitted: u64 = (0..3).map(|i| sim.counts(i).retransmitted()).sum();
        let forced = format!("seed {seed}: link flaps must force spool retransmissions");
        assert!(retransmitted > 0, "{forced}");
        let overflowed: u64 = (0..3).map(|i| sim.counts(i).dropped_spool_overflow()).sum();
        assert_eq!(overflowed, 0, "spools must not overflow in this workload");
    }
    Ok(())
}

/// The resurrection regression: a `SubRemove` that floods while the link
/// is down is lost, and before the tombstone filter the reconnect resync
/// would re-install — and re-flood — the dead subscription. Subscribe,
/// cut the link, unsubscribe, heal, then publish a matching event at the
/// far broker: it must not reach the unsubscribed client.
#[test]
fn unsubscribe_survives_link_flap() -> Result<(), String> {
    const SUBSCRIBER: usize = 0;
    const PUBLISHER: usize = 1;
    let (a, b) = (0, 1);
    let mut sim = chain(1, 2, &[a, b]);
    sim.connect(SUBSCRIBER, 0);
    let sub_id = sim.subscribe(SUBSCRIBER, "n >= 0")?;
    // The subscription floods to B.
    let flooded = |s: &Sim| s.counts(b).subscriptions() >= 1;
    sim.run_until("subscription flood", WITHIN, flooded)?;

    // Cut the link, then unsubscribe: the SubRemove flood toward B is lost.
    sim.kill(0);
    sim.run_until("A noticing the cut link", WITHIN, Sim::meshed)?;
    sim.unsubscribe(SUBSCRIBER, sub_id)?;
    assert_eq!(sim.counts(a).subscriptions(), 0);

    // Heal; the supervisor redials and both sides resync. B still resyncs
    // the stale subscription back, but A's tombstone filters it — and
    // answers with the removal B missed.
    sim.revive(0);
    sim.run_until("the link back up", WITHIN, |s| s.established(0))?;
    // Give the resync traffic time to land (a resurrection would show up
    // as a subscription reappearing at A).
    sim.run_for(Duration::from_millis(300));
    let resurrected = "resync resurrected the unsubscribed subscription";
    assert_eq!(sim.counts(a).subscriptions(), 0, "{resurrected}");
    let stale = "B still holds the subscription removed while the link was down";
    assert_eq!(sim.counts(b).subscriptions(), 0, "{stale}");

    // Publishing a matching event at B must not reach the dead client.
    sim.connect(PUBLISHER, 0);
    sim.publish(PUBLISHER, tick(&sim.registry, 7));
    sim.run_for(Duration::from_secs(1));
    let dead = "event delivered to an unsubscribed client";
    assert!(!sim.holds(SUBSCRIBER, 1), "{dead}");
    assert_eq!(
        sim.counts(a).delivered(),
        0,
        "nothing may reach A's clients"
    );
    Ok(())
}

/// The dialer-side reconnect window: frames dispatched after a redial but
/// before the peer's `Hello` reply arrives must stay spool-only. If they
/// went out directly (with fresh, higher sequence numbers), the receiver
/// would accept them first and its cumulative dedup would then drop the
/// retransmitted backlog as duplicates — silently losing every event
/// published while the link was down. A stalled acceptor→dialer direction
/// holds that window open while the dialer keeps publishing through it.
#[test]
fn dialer_reconnect_window_loses_no_events() -> Result<(), String> {
    const SUBSCRIBER: usize = 0;
    const PUBLISHER: usize = 1;
    // A (0) accepts and hosts the subscriber; B (1) dials and publishes.
    let mut sim = chain(1, 2, &[0, 1]);
    sim.connect(SUBSCRIBER, 0);
    sim.subscribe(SUBSCRIBER, "n >= 0")?;
    let flooded = |s: &Sim| s.counts(1).subscriptions() == 1;
    sim.run_until("subscription flood", WITHIN, flooded)?;
    sim.connect(PUBLISHER, 0);

    // One event crosses the healthy link, establishing sequence state.
    sim.publish(PUBLISHER, tick(&sim.registry, 0));
    sim.run_until("event 0", WITHIN, |s| s.holds(SUBSCRIBER, 1))?;
    assert_eq!(sim.ticks_of(SUBSCRIBER), [0]);

    // Cut the link; B publishes into the outage (spooled, unsendable).
    sim.kill(0);
    sim.run_until("B noticing the cut link", WITHIN, Sim::meshed)?;
    for n in 1..=3 {
        sim.publish(PUBLISHER, tick(&sim.registry, n));
    }

    // Heal, but stall A's replies: B's redial succeeds and its core
    // processes the new conn while A's Hello answer is held.
    sim.stall(0, false, true);
    sim.revive(0);
    let redialled = |s: &Sim| s.link(1, 0).and_then(crate::link::Link::conn).is_some();
    sim.run_until("the redial", WITHIN, redialled)?;
    // Publish into the held-open reconnect window.
    sim.run_for(Duration::from_millis(100));
    for n in 4..=6 {
        sim.publish(PUBLISHER, tick(&sim.registry, n));
    }
    sim.run_for(Duration::from_millis(100));
    sim.stall(0, false, false);

    // Everything arrives, in order: the outage backlog (1..=3) must not be
    // dedup-dropped behind the window publishes (4..=6).
    sim.run_until("events 1..=6", WITHIN, |s| s.holds(SUBSCRIBER, 7))?;
    sim.run_for(Duration::from_millis(300));
    let once = "the backlog and the window publishes arrive once each, in order";
    assert_eq!(
        sim.ticks_of(SUBSCRIBER),
        (0..=6).collect::<Vec<_>>(),
        "{once}"
    );
    Ok(())
}

/// A cumulative `FwdAck` names no sender lifetime, so one sent on a
/// redialled link before the peer's `Hello` may count frames of the peer's
/// previous life: the new one would trim frames of its own that nobody
/// received. B owes A's old life an ack when A restarts; while A's `Hello`
/// to B is held, B's GC pass comes due, and A's new life spools three
/// events. A cut then drops what was in flight: only what A still spools
/// can reach B, and it must be all three.
#[test]
fn an_ack_before_the_peers_hello_trims_nothing() -> Result<(), String> {
    const PUBLISHER: usize = 0;
    const SUBSCRIBER: usize = 1;
    // A (0) accepts and publishes; B (1) dials and subscribes.
    let mut sim = chain(1, 2, &[0, 1]);
    sim.connect(PUBLISHER, 0);
    sim.connect(SUBSCRIBER, 0);
    sim.subscribe(SUBSCRIBER, "n >= 0")?;
    let subscribed = |s: &Sim| s.counts(0).subscriptions() == 1;
    sim.run_until("subscription flood", WITHIN, subscribed)?;
    for n in 1..=3 {
        sim.publish(PUBLISHER, tick(&sim.registry, n));
    }
    sim.run_until("events 1..=3", WITHIN, |s| s.holds(SUBSCRIBER, 3))?;

    // A restarts with its Hello to B held; B redials, greets A and resyncs
    // its subscription — still owing A's old life the ack for 1..=3.
    sim.stall(0, false, true);
    sim.restart(0);
    let owing = |s: &Sim| {
        let link = s.link(1, 0).expect("B knows A");
        let (_, durable, acked, _) = link.window();
        link.conn().is_some() && link.established().is_none() && durable > acked
    };
    sim.run_until("B redialled, owing an ack", WITHIN, owing)?;
    sim.run_until("A's new life subscribed", WITHIN, subscribed)?;
    sim.connect(PUBLISHER, 0);
    for n in 4..=6 {
        sim.publish(PUBLISHER, tick(&sim.registry, n));
    }
    // B's GC pass comes due before the handshake deadline.
    sim.run_for(Duration::from_millis(1100));
    sim.kill(0);
    sim.heal();
    let what = "events 4..=6, which an ack sent ahead of the Hello must not trim";
    sim.run_until(what, WITHIN, |s| s.holds(SUBSCRIBER, 6))?;
    sim.run_for(Duration::from_millis(300));
    assert_eq!(sim.ticks_of(SUBSCRIBER), (1..=6).collect::<Vec<_>>());
    Ok(())
}
