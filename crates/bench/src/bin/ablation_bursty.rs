//! **Ablation A4 — bursty loads** (§6 future work): "since many
//! publish/subscribe applications exhibit peak activity periods, we are
//! examining how our protocol performs with bursty message loads."
//!
//! Runs the Figure 6 network at a fixed mean rate under Poisson arrivals
//! and under increasingly bursty trains, comparing queue depth and latency.
//!
//! Every broker is a real broker core in virtual time, charged §4.1's
//! per-step service time.
//!
//! Run with: `cargo run --release -p linkcast-bench --bin ablation_bursty`

use linkcast_bench::print_table;
use linkcast_sim::{publications, topology39, ArrivalKind, CostModel, SimConfig, Simulation};
use linkcast_workload::{EventGenerator, SubscriptionGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let wconfig = WorkloadConfig::chart1();
    let schema = wconfig.schema();
    let world = topology39::build().expect("figure 6 builds");
    let generator = SubscriptionGenerator::new(&wconfig, 29);
    let mut rng = StdRng::seed_from_u64(29);
    let subs = topology39::random_subscriptions(&world, &generator, 2_000, &mut rng);
    let mut sim = Simulation::link_matching(world.fabric.clone(), &schema, &subs).unwrap();
    let events = EventGenerator::new(&wconfig, 29);
    let publishers = world.all_publishers();

    let mut base = SimConfig::default().with_events(1_000).with_rate(1_000.0);
    base.costs = CostModel {
        base_us: 200.0,
        step_us: 12.0,
        send_us: 50.0,
    };

    let shapes = [
        ("Poisson".to_string(), ArrivalKind::Poisson),
        (
            "bursts of 5".to_string(),
            ArrivalKind::Bursty {
                burst_size: 5,
                intra_gap_s: 0.0002,
            },
        ),
        (
            "bursts of 20".to_string(),
            ArrivalKind::Bursty {
                burst_size: 20,
                intra_gap_s: 0.0002,
            },
        ),
        (
            "bursts of 50".to_string(),
            ArrivalKind::Bursty {
                burst_size: 50,
                intra_gap_s: 0.0002,
            },
        ),
    ];
    let (mut rows, mut queues) = (Vec::new(), Vec::new());
    for (name, arrivals) in shapes {
        let config = base.clone().with_arrivals(arrivals);
        let report = sim.run(&publications(&publishers, &events, &config), &config);
        let max_queue = report.loads.iter().map(|l| l.max_queue).max().unwrap_or(0);
        queues.push(max_queue);
        rows.push((
            name,
            vec![
                format!("{max_queue}"),
                format!("{:.1}", report.mean_latency_ms()),
                format!("{:.1}", report.latency_percentile_ms(0.99)),
                format!("{}", if report.is_overloaded() { "yes" } else { "no" }),
            ],
        ));
    }
    print_table(
        "Ablation A4: bursty vs Poisson arrivals (1,000 ev/s mean, 2,000 subscriptions)",
        "arrival shape",
        &["max queue", "mean lat (ms)", "p99 lat (ms)", "overloaded"],
        &rows,
    );
    println!(
        "\nModel: 39 broker cores in virtual time, 200/12/50 µs per step, one\n\
         cluster for every shape (each run drains before the next).\n\
         Same mean rate, different shape: bursts deepen broker queues and fatten\n\
         the latency tail — the sensitivity the paper flags as future work.\n\
         Shape: the queue deepens with every larger burst: {}.",
        queues.windows(2).all(|w| w[1] > w[0])
    );
}
