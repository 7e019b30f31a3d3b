//! The broker's thread inventory, pinned (DESIGN.md §7): an idle node is
//! its engine, its acceptor and its sender pool; every accepted connection
//! and every supervised link adds exactly one thread; `shutdown()` leaves
//! none behind. A helper thread that only relays a clock edge or a channel
//! message (as the GC and heartbeat tickers and the two outbox forwarders
//! did) fails this test rather than showing up as a benchmark re-anchor.
//!
//! One test, so the process holds no other test's threads.
#![cfg(target_os = "linux")]

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_types::{EventSchema, SchemaRegistry, ValueKind};

/// The longest a TCP reader sits in one `read` before it looks at the
/// shutdown flag (`tcp.rs`).
const READER_POLL_QUANTUM: Duration = Duration::from_millis(200);

/// Every thread of this process: `(tid, name)`, the name as the kernel
/// keeps it (15 bytes at most).
fn threads() -> Vec<(u32, String)> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| {
            let tid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
            // A thread can exit between the listing and the read.
            let name = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            Some((tid, name.trim_end().to_owned()))
        })
        .collect()
}

/// Waits until the threads started since `baseline` are exactly
/// `expected` (sorted; a reader is `reader` whatever its connection), and
/// fails with what is there instead once `within` has passed.
fn await_threads(baseline: &HashSet<u32>, expected: &[&str], within: Duration) {
    let deadline = Instant::now() + within;
    loop {
        let mut names: Vec<String> = threads()
            .into_iter()
            .filter(|(tid, _)| !baseline.contains(tid))
            .map(|(_, name)| {
                if name.starts_with("reader-") {
                    "reader".to_owned()
                } else {
                    name
                }
            })
            .collect();
        names.sort();
        if names == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "threads beside the baseline: {names:?}, expected {expected:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_broker_is_four_kinds_of_thread() {
    let mut registry = SchemaRegistry::new();
    registry
        .register(
            EventSchema::builder("ticks")
                .attribute("n", ValueKind::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
    let registry = Arc::new(registry);
    let mut net = NetworkBuilder::new();
    let a = net.add_broker();
    let b = net.add_broker();
    net.connect(a, b, 5.0).unwrap();
    let client = net.add_client(a).unwrap();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let start = |broker| {
        BrokerNode::start(BrokerConfig::localhost(
            broker,
            fabric.clone(),
            Arc::clone(&registry),
        ))
        .unwrap()
    };
    let baseline: HashSet<u32> = threads().into_iter().map(|(tid, _)| tid).collect();
    let soon = Duration::from_secs(5);

    // Idle: the engine, the acceptor, the sender pool (two by default).
    let node_a = start(a);
    let idle = ["acceptor", "broker-B0", "sender-0", "sender-1"];
    await_threads(&baseline, &idle, soon);

    // An accepted connection is one reader; an in-process one is none.
    let connected = Client::connect(node_a.addr(), client, 0, Arc::clone(&registry)).unwrap();
    let local = node_a.open_local();
    let with_client = ["acceptor", "broker-B0", "reader", "sender-0", "sender-1"];
    await_threads(&baseline, &with_client, soon);

    // A supervised link is one thread at the dialer (it reads the link
    // itself) and one reader at the acceptor.
    let node_b = start(b);
    node_b.connect_to_persistent(a, node_a.addr());
    let linked = [
        "acceptor",
        "acceptor",
        "broker-B0",
        "broker-B1",
        "link-B1-B0",
        "reader",
        "reader",
        "sender-0",
        "sender-0",
        "sender-1",
        "sender-1",
    ];
    await_threads(&baseline, &linked, soon);

    // Nothing outlives `shutdown()` by more than a reader's poll.
    drop(connected);
    drop(local);
    node_b.shutdown();
    node_a.shutdown();
    await_threads(&baseline, &[], READER_POLL_QUANTUM);
}
