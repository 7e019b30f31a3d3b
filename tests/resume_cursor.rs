//! Client `resume_from` cursor edge cases against one broker over TCP.
//!
//! The hello handshake carries the last sequence number the client
//! safely processed; the broker clamps it into its delivery log
//! (`AckLog::ack` is monotonic and bounded by `last_seq`) and echoes the
//! cursor it actually resumed from in the `Welcome`
//! ([`Client::resumed_from`]). Three edges matter:
//!
//! - a cursor sitting **exactly on the trim boundary** replays precisely
//!   the unacknowledged suffix, nothing lost, nothing duplicated;
//! - a **stale** cursor (below the boundary) cannot resurrect trimmed
//!   events — the echo reports the real floor so the client knows which
//!   deliveries no replay covers;
//! - a cursor **beyond the log head** (e.g. a client that over-counted,
//!   or kept a cursor across a broker wipe) clamps down instead of
//!   poisoning the sequence space;
//! - after a broker **crash-recovery** the delivery log is rebuilt empty
//!   (client logs are volatile by design — DESIGN.md §14): a pre-crash
//!   cursor clamps to 0, deliveries restart at sequence 1, and the
//!   subscription itself survives via the recovered snapshot.

mod fault;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use fault::{registry, tick};
use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{
    BrokerConfig, BrokerNode, Client, ClientError, PowerCut, SimStorage, Storage,
};
use linkcast_types::{BrokerId, ClientId, SchemaId, SchemaRegistry};

struct Rig {
    node: Option<BrokerNode>,
    /// The first boot's address, which every reboot binds again.
    addr: SocketAddr,
    registry: Arc<SchemaRegistry>,
    broker: BrokerId,
    subscriber: ClientId,
    publisher: ClientId,
    storage: Option<Arc<SimStorage>>,
    fabric: Arc<RoutingFabric>,
}

impl Rig {
    /// One broker, one subscriber, one publisher, optional durable
    /// storage.
    fn start(durable: bool) -> Rig {
        let mut builder = NetworkBuilder::new();
        let broker = builder.add_broker();
        let subscriber = builder.add_client(broker).unwrap();
        let publisher = builder.add_client(broker).unwrap();
        let fabric = RoutingFabric::new_all_roots(builder.build().unwrap()).unwrap();
        let mut rig = Rig {
            node: None,
            // Port 0 until the first boot picks one.
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            registry: registry(),
            broker,
            subscriber,
            publisher,
            storage: durable.then(|| Arc::new(SimStorage::new())),
            fabric,
        };
        rig.boot();
        rig
    }

    fn boot(&mut self) {
        let mut config = BrokerConfig::localhost(
            self.broker,
            Arc::clone(&self.fabric),
            Arc::clone(&self.registry),
        );
        config.listen = self.addr;
        config.storage = self.storage.clone().map(|s| s as Arc<dyn Storage>);
        let node = BrokerNode::start(config).unwrap();
        self.addr = node.addr();
        self.node = Some(node);
    }

    fn node(&self) -> &BrokerNode {
        self.node.as_ref().expect("broker running")
    }

    fn connect(&self, id: ClientId, resume_from: u64) -> Client {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(self.addr, id, resume_from, Arc::clone(&self.registry)) {
                Ok(c) => return c,
                Err(e) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "client connect failed: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }
}

/// Publishes `values` and asserts the subscriber got them as `expected`
/// `(seq, value)` pairs.
fn expect_deliveries(client: &mut Client, expected: &[(u64, i64)]) {
    for &(seq, value) in expected {
        let (got_seq, event) = client
            .recv_unacked(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("waiting for seq {seq}: {e}"));
        assert_eq!(
            (got_seq, event.value(0).unwrap().as_int().unwrap()),
            (seq, value)
        );
    }
}

/// Asserts nothing further arrives (replay-duplicate detector).
fn expect_quiet(client: &mut Client) {
    match client.recv_unacked(Duration::from_millis(300)) {
        Ok((seq, _)) => panic!("unexpected delivery at seq {seq}"),
        Err(ClientError::Timeout) => {}
        Err(e) => panic!("expected quiet, got {e}"),
    }
}

#[test]
fn resume_at_trim_boundary_replays_exactly_the_unacked_suffix() {
    let rig = Rig::start(false);
    let mut sub = rig.connect(rig.subscriber, 0);
    sub.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    let mut publisher = rig.connect(rig.publisher, 0);
    for n in [10, 11, 12] {
        publisher.publish(&tick(&rig.registry, n)).unwrap();
    }
    expect_deliveries(&mut sub, &[(1, 10), (2, 11), (3, 12)]);
    sub.ack(2).unwrap();
    // Drop the session: the ack lands first (one stream), and two GC
    // passes (250 ms apart) trim the acknowledged prefix (seqs 1–2) from
    // the retained log within the wait.
    drop(sub);
    std::thread::sleep(Duration::from_millis(600));

    // Cursor exactly on the trim boundary: replay is precisely seq 3.
    let mut sub = rig.connect(rig.subscriber, 2);
    assert_eq!(sub.resumed_from(), 2);
    expect_deliveries(&mut sub, &[(3, 12)]);
    expect_quiet(&mut sub);
    drop(sub);

    // A stale cursor below the boundary cannot resurrect trimmed events:
    // the ack floor is monotonic, and the echo reports the real floor so
    // the client knows seqs 1–2 are not coming back.
    let mut sub = rig.connect(rig.subscriber, 0);
    assert_eq!(sub.resumed_from(), 2);
    expect_deliveries(&mut sub, &[(3, 12)]);
    expect_quiet(&mut sub);
    rig.node.unwrap().shutdown();
}

#[test]
fn resume_beyond_the_log_head_clamps_instead_of_poisoning_the_sequence() {
    let rig = Rig::start(false);
    let mut sub = rig.connect(rig.subscriber, 0);
    sub.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    let mut publisher = rig.connect(rig.publisher, 0);
    for n in [20, 21] {
        publisher.publish(&tick(&rig.registry, n)).unwrap();
    }
    expect_deliveries(&mut sub, &[(1, 20), (2, 21)]);
    drop(sub);

    // An overshooting cursor (claims to have processed seq 999 of a log
    // whose head is 2) clamps to the head: the whole log counts acked,
    // nothing replays, and the echo reports where the session really is.
    let mut sub = rig.connect(rig.subscriber, 999);
    assert_eq!(sub.resumed_from(), 2);
    expect_quiet(&mut sub);

    // The sequence space is intact — the next delivery is 3, not 1000.
    publisher.publish(&tick(&rig.registry, 22)).unwrap();
    expect_deliveries(&mut sub, &[(3, 22)]);
    rig.node.unwrap().shutdown();
}

#[test]
fn crash_recovery_voids_the_cursor_but_keeps_the_subscription() {
    let mut rig = Rig::start(true);
    let mut sub = rig.connect(rig.subscriber, 0);
    sub.subscribe(SchemaId::new(0), "n >= 0").unwrap();
    let mut publisher = rig.connect(rig.publisher, 0);
    for n in [30, 31] {
        publisher.publish(&tick(&rig.registry, n)).unwrap();
    }
    expect_deliveries(&mut sub, &[(1, 30), (2, 31)]);
    drop(sub);
    drop(publisher);

    // Power cut. The broker's control state (subscription table, id
    // allocator, incarnation) recovers from its snapshot; the client
    // delivery log does not — it is volatile by design.
    rig.node.take().unwrap().crash();
    rig.storage.as_ref().unwrap().power_cut(PowerCut::TornTail);
    rig.boot();
    assert_eq!(rig.node().stats().recoveries, 1);

    // The pre-crash cursor overshoots the rebuilt (empty) log: it clamps
    // to 0 and the echo says so — the client learns its resume point is
    // void rather than silently waiting at seq 3 forever.
    let mut sub = rig.connect(rig.subscriber, 2);
    assert_eq!(sub.resumed_from(), 0);
    expect_quiet(&mut sub);

    // The subscription survived recovery (no neighbor existed to resync
    // it back): a fresh publish is matched and delivered, restarting the
    // volatile sequence space at 1.
    let mut publisher = rig.connect(rig.publisher, 0);
    publisher.publish(&tick(&rig.registry, 32)).unwrap();
    expect_deliveries(&mut sub, &[(1, 32)]);
    expect_quiet(&mut sub);
    rig.node.unwrap().shutdown();
}
