//! **§4.2 throughput**: "the current implementation of the broker can
//! deliver upto 14,000 events/sec" (200 MHz Pentium Pro, 16 Mb token ring).
//!
//! This harness measures the Rust prototype two ways:
//!
//! 1. in-process (no kernel): the broker engine's intrinsic pipeline rate;
//! 2. over loopback TCP with the full wire protocol.
//!
//! Run with: `cargo run --release -p linkcast-bench --bin throughput_prototype`

use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client, ClientToBroker};
use linkcast_types::{Event, SchemaId, SchemaRegistry, Value};
use linkcast_workload::WorkloadConfig;

fn main() {
    let mut wconfig = WorkloadConfig::chart1();
    wconfig.attributes = 3; // the paper's trade-sized events
    wconfig.values_per_attribute = 5;
    wconfig.factoring_levels = 1;

    // One broker, one subscriber that takes everything, one publisher.
    let mut b = NetworkBuilder::new();
    let b0 = b.add_broker();
    let subscriber = b.add_client(b0).unwrap();
    let publisher = b.add_client(b0).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let mut registry = SchemaRegistry::new();
    registry.register(wconfig.schema()).unwrap();
    let registry = Arc::new(registry);

    let config = BrokerConfig::localhost(b0, fabric, Arc::clone(&registry));
    let node = BrokerNode::start(config).unwrap();
    let schema = registry.get(SchemaId::new(0)).unwrap().clone();

    // --- In-process pipeline ---
    let sub_conn = node.open_local();
    sub_conn.send(&ClientToBroker::Hello {
        client: subscriber,
        resume_from: 0,
    });
    sub_conn.recv(Duration::from_secs(2)).unwrap(); // welcome
    sub_conn.send(&ClientToBroker::Subscribe {
        schema: SchemaId::new(0),
        expression: "a0 >= 0".into(),
    });
    sub_conn.recv(Duration::from_secs(2)).unwrap(); // suback

    let pub_conn = node.open_local();
    pub_conn.send(&ClientToBroker::Hello {
        client: publisher,
        resume_from: 0,
    });
    pub_conn.recv(Duration::from_secs(2)).unwrap(); // welcome

    let event = Event::from_values(&schema, [Value::Int(1), Value::Int(2), Value::Int(3)]).unwrap();
    let n = 200_000u64;
    let start = Instant::now();
    for _ in 0..n {
        pub_conn.send(&ClientToBroker::Publish {
            event: event.clone(),
        });
    }
    // Drain all deliveries.
    let mut received = 0u64;
    while received < n {
        sub_conn.recv(Duration::from_secs(10)).expect("delivery");
        received += 1;
    }
    let inproc = n as f64 / start.elapsed().as_secs_f64();

    // --- Loopback TCP ---
    let mut tcp_sub = Client::connect(node.addr(), subscriber, 0, Arc::clone(&registry)).unwrap();
    // The in-process subscription is still active; reuse it.
    let mut tcp_pub = Client::connect(node.addr(), publisher, 0, Arc::clone(&registry)).unwrap();
    // Skip the replayed backlog from the first phase.
    while let Ok((seq, _)) = tcp_sub.recv(Duration::from_millis(500)) {
        if seq >= n {
            break;
        }
    }
    let n_tcp = 50_000u64;
    let start = Instant::now();
    let publisher_thread = std::thread::spawn(move || {
        for _ in 0..n_tcp {
            tcp_pub.publish(&event).unwrap();
        }
        tcp_pub
    });
    let mut received = 0u64;
    while received < n_tcp {
        tcp_sub.recv(Duration::from_secs(10)).expect("tcp delivery");
        received += 1;
    }
    let tcp = n_tcp as f64 / start.elapsed().as_secs_f64();
    publisher_thread.join().unwrap();

    println!("\nBroker prototype throughput (single broker, 1 publisher, 1 subscriber)");
    println!("=====================================================================");
    println!("in-process pipeline: {inproc:>10.0} events/sec ({n} events)");
    println!("loopback TCP:        {tcp:>10.0} events/sec ({n_tcp} events)");
    println!(
        "\nPaper: \"the current implementation of the broker can deliver upto\n\
         14,000 events/sec\" on a 200 MHz Pentium Pro over 16 Mb token ring.\n\
         Expect orders of magnitude more here; the shape claim — transport and\n\
         network costs outweigh matching cost — holds if TCP is well below the\n\
         in-process rate."
    );
    node.shutdown();
}
