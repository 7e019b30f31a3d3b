//! WAN simulation: run the paper's Figure 6 network (39 brokers, 390
//! subscribing clients, publishers P1–P3) under the Chart 1 workload and
//! print per-broker load, latency, and traffic — for both link matching and
//! flooding.
//!
//! Every broker is a real broker core stepped in virtual time; flooding is
//! a workload in which every client subscribes to everything.
//!
//! Run with: `cargo run --release --example wan_simulation`

use linkcast_sim::{publications, topology39, SimConfig, Simulation};
use linkcast_workload::{EventGenerator, SubscriptionGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = topology39::build()?;
    let wconfig = WorkloadConfig::chart1();
    let schema = wconfig.schema();
    let subscriptions = 3_000;
    let rate = 100.0;

    println!("Figure 6 network: 39 brokers, 390 clients, {subscriptions} subscriptions");
    println!("aggregate publish rate {rate} events/s, 500 events\n");

    let generator = SubscriptionGenerator::new(&wconfig, 42);
    let mut rng = StdRng::seed_from_u64(42);
    let subs = topology39::random_subscriptions(&world, &generator, subscriptions, &mut rng);
    let mut link_matching = Simulation::link_matching(world.fabric.clone(), &schema, &subs)?;
    let mut flooding = Simulation::flooding(world.fabric.clone(), &schema)?;

    let events = EventGenerator::new(&wconfig, 42);
    let config = SimConfig::default().with_rate(rate).with_events(500);
    let schedule = publications(&world.publishers, &events, &config);

    for sim in [&mut link_matching, &mut flooding] {
        let report = sim.run(&schedule, &config);
        println!("=== {} ===", report.protocol);
        println!("  events published:     {}", report.published);
        println!("  client deliveries:    {}", report.deliveries);
        println!("  broker-link frames:   {}", report.broker_messages);
        println!("  total matching steps: {}", report.total_steps);
        println!("  mean latency:         {:.1} ms", report.mean_latency_ms());
        println!(
            "  p99 latency:          {:.1} ms",
            report.latency_percentile_ms(0.99)
        );
        println!(
            "  max utilization:      {:.1}%",
            report.max_utilization() * 100.0
        );
        println!(
            "  overloaded brokers:   {}",
            if report.overloaded.is_empty() {
                "none".to_string()
            } else {
                format!("{:?}", report.overloaded)
            }
        );
        let mut loads = report.loads.clone();
        loads.sort_by(|a, b| b.utilization.total_cmp(&a.utilization));
        println!("  five busiest brokers:");
        for l in loads.iter().take(5) {
            println!(
                "    {}: {:>6} services, {:>5.1}% busy, max queue {}",
                l.broker,
                l.processed,
                l.utilization * 100.0,
                l.max_queue
            );
        }
        println!("  five hottest links:");
        for ((from, to), count) in report.hottest_links(5) {
            println!("    {from} -> {to}: {count} frames");
        }
        println!();
    }
    Ok(())
}
