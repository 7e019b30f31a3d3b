//! Simulation-level integration: the Figure 6 network under the paper's
//! workloads, checking the qualitative results behind Charts 1 and 2.

use linkcast::{ContentRouter, FloodingRouter};
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_sim::{
    find_saturation_rate, topology39, FloodingSim, LinkMatchingSim, SimConfig, Simulation,
};
use linkcast_workload::{EventGenerator, SubscriptionGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chart1_small() -> WorkloadConfig {
    // The paper's Chart 1 parameters, with factoring kept (2 levels).
    WorkloadConfig::chart1()
}

fn pst_options(w: &WorkloadConfig) -> PstOptions {
    PstOptions::default().with_factoring(w.factoring_levels)
}

#[test]
fn figure6_simulation_runs_and_delivers() {
    let world = topology39::build().unwrap();
    let wconfig = chart1_small();
    let schema = wconfig.schema();
    let mut router =
        ContentRouter::new(world.fabric.clone(), schema, pst_options(&wconfig)).unwrap();
    let generator = SubscriptionGenerator::new(&wconfig, 42);
    let mut rng = StdRng::seed_from_u64(42);
    topology39::subscribe_random(&mut router, &world, &generator, 1000, &mut rng).unwrap();

    let events = EventGenerator::new(&wconfig, 42);
    let protocol = LinkMatchingSim(router);
    let config = SimConfig::default().with_rate(50.0).with_events(200);
    let report = Simulation::new(&protocol, world.publishers.clone(), &events, config).run();

    assert_eq!(report.published, 200);
    assert!(!report.is_overloaded(), "50 ev/s must be sustainable");
    assert!(report.deliveries > 0, "locality-matched events must arrive");
    // WAN latency: any delivery crossing the network pays at least the
    // 1 ms client hops.
    assert!(report.mean_latency_ms() >= 2.0);
}

/// The headline of Chart 1: flooding saturates at a much lower publish rate
/// than link matching when subscriptions are selective.
#[test]
fn flooding_saturates_before_link_matching() {
    let world = topology39::build().unwrap();
    let wconfig = chart1_small();
    let schema = wconfig.schema();
    // At low subscription counts events stay regional and the gap is wide
    // (the paper's own caveat: "In the case where events are distributed
    // quite widely, the difference is not as great" — the chart1 bench
    // binary sweeps the full range).
    let subscriptions = 500;

    let mut lm =
        ContentRouter::new(world.fabric.clone(), schema.clone(), pst_options(&wconfig)).unwrap();
    let mut fl =
        FloodingRouter::new(world.fabric.clone(), schema.clone(), pst_options(&wconfig)).unwrap();
    let generator = SubscriptionGenerator::new(&wconfig, 7);
    let mut rng = StdRng::seed_from_u64(7);
    topology39::subscribe_random(&mut lm, &world, &generator, subscriptions, &mut rng).unwrap();
    let generator2 = SubscriptionGenerator::new(&wconfig, 7);
    let mut rng2 = StdRng::seed_from_u64(7);
    topology39::subscribe_random(&mut fl, &world, &generator2, subscriptions, &mut rng2).unwrap();

    let events = EventGenerator::new(&wconfig, 7);
    // Paper-era service costs: a 200 MHz broker spends on the order of a
    // millisecond per event (Chart 3), which is what pushes Chart 1's
    // saturation points down to tens–hundreds of events per second.
    let mut base = SimConfig::default().with_events(500);
    base.costs = linkcast_sim::CostModel {
        base_us: 200.0,
        step_us: 12.0,
        send_us: 50.0,
    };

    // Publishers everywhere (P1-P3 plus the paper's background load), so
    // neither protocol is bottlenecked artificially at three entry brokers.
    let publishers = world.all_publishers();
    let lm_protocol = LinkMatchingSim(lm);
    let lm_rate = find_saturation_rate(
        &lm_protocol,
        &publishers,
        &events,
        &base,
        10.0,
        5_000.0,
        0.15,
    );
    let fl_protocol = FloodingSim::new(fl, world.fabric.clone());
    let fl_rate = find_saturation_rate(
        &fl_protocol,
        &publishers,
        &events,
        &base,
        10.0,
        5_000.0,
        0.15,
    );

    assert!(
        lm_rate > fl_rate * 1.5,
        "link matching ({lm_rate:.0}/s) should sustain well beyond flooding ({fl_rate:.0}/s)"
    );
}

/// The shape behind Chart 2: per delivered (event, subscriber) pair, the
/// matching steps summed over the brokers on the publisher→subscriber path
/// ("the sum of the times for all the partial matches at intermediate
/// brokers along the way from publisher to subscriber") stay comparable to
/// one centralized match for a few hops, growing with the hop count.
#[test]
fn link_matching_steps_stay_close_to_centralized() {
    let world = topology39::build().unwrap();
    let wconfig = WorkloadConfig::chart2();
    let schema = wconfig.schema();
    let mut router =
        ContentRouter::new(world.fabric.clone(), schema, pst_options(&wconfig)).unwrap();
    let generator = SubscriptionGenerator::new(&wconfig, 11);
    let mut rng = StdRng::seed_from_u64(11);
    topology39::subscribe_random(&mut router, &world, &generator, 4000, &mut rng).unwrap();

    let events = EventGenerator::new(&wconfig, 11);
    // per hop count: (deliveries, cumulative path steps)
    let mut by_hops: Vec<(u64, u64)> = vec![(0, 0); 10];
    let mut centralized = MatchStats::new();
    use linkcast::EventRouter;
    let network = world.fabric.network();
    for i in 0..300 {
        let publisher = world.publishers[i % world.publishers.len()];
        let event = events.generate(&mut rng, publisher.region);
        let delivery = router.publish(publisher.broker, &event).unwrap();
        let tree_id = world.fabric.tree_for(publisher.broker).unwrap();
        let tree = world.fabric.forest().tree(tree_id).unwrap();
        let steps_of: std::collections::HashMap<_, _> = delivery
            .per_hop
            .iter()
            .map(|h| (h.broker, h.steps))
            .collect();
        for client in &delivery.recipients {
            let home = network.home_broker(*client).unwrap();
            let path = tree
                .path_down(publisher.broker, home)
                .expect("recipients are downstream of the publisher");
            let hops = path.len() - 1;
            let path_steps: u64 = path
                .iter()
                .map(|b| steps_of.get(b).copied().unwrap_or(0))
                .sum();
            let bucket = hops.min(by_hops.len() - 1);
            by_hops[bucket].0 += 1;
            by_hops[bucket].1 += path_steps;
        }
        router.centralized_match(publisher.broker, &event, &mut centralized);
    }
    let central_avg = centralized.steps as f64 / centralized.events as f64;
    let mut seen_any = false;
    for (hops, (deliveries, steps)) in by_hops.iter().enumerate() {
        if *deliveries == 0 {
            continue;
        }
        seen_any = true;
        let avg = *steps as f64 / *deliveries as f64;
        // The paper finds parity up to ~4 hops; allow slack for our
        // different absolute step counts while keeping the shape.
        if hops <= 4 {
            assert!(
                avg <= central_avg * 3.0,
                "hops={hops}: path steps {avg:.1} vs centralized {central_avg:.1}"
            );
        }
    }
    assert!(seen_any, "the workload must deliver something");
}

/// Locality of interest: regional events mostly stay in-region, so the
/// intercontinental links carry fewer copies than the regional ones.
#[test]
fn locality_reduces_intercontinental_traffic() {
    let world = topology39::build().unwrap();
    let wconfig = chart1_small();
    let schema = wconfig.schema();
    let mut router =
        ContentRouter::new(world.fabric.clone(), schema, pst_options(&wconfig)).unwrap();
    let generator = SubscriptionGenerator::new(&wconfig, 5);
    let mut rng = StdRng::seed_from_u64(5);
    topology39::subscribe_random(&mut router, &world, &generator, 3000, &mut rng).unwrap();

    let events = EventGenerator::new(&wconfig, 5);
    use linkcast::EventRouter;
    // Publish only from P1 (region 0) and count deliveries per region.
    let mut local = 0u64;
    let mut remote = 0u64;
    for _ in 0..400 {
        let event = events.generate(&mut rng, 0);
        let delivery = router.publish(world.publishers[0].broker, &event).unwrap();
        for client in &delivery.recipients {
            let home = world.fabric.network().home_broker(*client).unwrap();
            if world.region_of(home) == 0 {
                local += 1;
            } else {
                remote += 1;
            }
        }
    }
    assert!(local > 0, "regional events should match regional interest");
    assert!(
        local > remote,
        "locality: in-region deliveries ({local}) should dominate cross-region ({remote})"
    );
}

/// The network-loading view: under link matching the intercontinental
/// root-to-root links carry far fewer copies than under flooding.
#[test]
fn intercontinental_links_carry_less_under_link_matching() {
    let world = topology39::build().unwrap();
    let wconfig = chart1_small();
    let schema = wconfig.schema();
    // Selective enough that most events stay regional.
    let subscriptions = 600;

    let mut lm =
        ContentRouter::new(world.fabric.clone(), schema.clone(), pst_options(&wconfig)).unwrap();
    let g1 = SubscriptionGenerator::new(&wconfig, 3);
    let mut r1 = StdRng::seed_from_u64(3);
    topology39::subscribe_random(&mut lm, &world, &g1, subscriptions, &mut r1).unwrap();
    let mut fl =
        FloodingRouter::new(world.fabric.clone(), schema.clone(), pst_options(&wconfig)).unwrap();
    let g2 = SubscriptionGenerator::new(&wconfig, 3);
    let mut r2 = StdRng::seed_from_u64(3);
    topology39::subscribe_random(&mut fl, &world, &g2, subscriptions, &mut r2).unwrap();

    let events = EventGenerator::new(&wconfig, 3);
    let config = SimConfig::default().with_rate(100.0).with_events(300);
    let lm_report = Simulation::new(
        &LinkMatchingSim(lm),
        world.publishers.clone(),
        &events,
        config.clone(),
    )
    .run();
    let fl_report = Simulation::new(
        &FloodingSim::new(fl, world.fabric.clone()),
        world.publishers.clone(),
        &events,
        config,
    )
    .run();

    // The three roots are brokers 0, 13, 26; count copies over the root
    // mesh in both directions.
    let roots = [world.brokers[0], world.brokers[13], world.brokers[26]];
    let intercontinental = |report: &linkcast_sim::SimReport| -> u64 {
        report
            .link_loads
            .iter()
            .filter(|((from, to), _)| roots.contains(from) && roots.contains(to))
            .map(|(_, count)| *count)
            .sum()
    };
    let lm_count = intercontinental(&lm_report);
    let fl_count = intercontinental(&fl_report);
    assert!(fl_count > 0, "flooding must cross the root mesh");
    assert!(
        lm_count * 2 < fl_count,
        "link matching ({lm_count}) should spare the intercontinental links vs flooding ({fl_count})"
    );
}

/// The paper's §4.1 argument for accepting extra matching steps on long
/// paths: "the extra processing time for link matching (of the order of
/// much less than 1ms) is insignificant compared to network latency (of
/// the order of tens of ms)". Latency must be dominated by hop delays.
#[test]
fn latency_is_dominated_by_wan_delays_not_matching() {
    let world = topology39::build().unwrap();
    let wconfig = chart1_small();
    let schema = wconfig.schema();
    let mut router =
        ContentRouter::new(world.fabric.clone(), schema, pst_options(&wconfig)).unwrap();
    let generator = SubscriptionGenerator::new(&wconfig, 21);
    let mut rng = StdRng::seed_from_u64(21);
    topology39::subscribe_random(&mut router, &world, &generator, 2000, &mut rng).unwrap();
    let events = EventGenerator::new(&wconfig, 21);
    let protocol = LinkMatchingSim(router);
    // Fast modern broker (tens of µs per event) vs one 10x slower: if
    // processing mattered, latency would shift visibly.
    let fast = SimConfig::default().with_rate(50.0).with_events(400);
    let mut slow = fast.clone();
    slow.costs = linkcast_sim::CostModel {
        base_us: 500.0,
        step_us: 30.0,
        send_us: 200.0,
    };
    let fast_report = Simulation::new(&protocol, world.publishers.clone(), &events, fast).run();
    let slow_report = Simulation::new(&protocol, world.publishers.clone(), &events, slow).run();
    assert_eq!(fast_report.deliveries, slow_report.deliveries);

    // Deliveries sit at WAN scale: at least the 10 ms minimum link delay
    // plus the two 1 ms client hops for anything that traveled.
    assert!(fast_report
        .latencies_us
        .iter()
        .all(|&(hops, l)| hops == 0 || l >= 12_000));
    // 10x the processing cost moves mean latency by only a few percent:
    // the network, not matching, dominates.
    let fast_ms = fast_report.mean_latency_ms();
    let slow_ms = slow_report.mean_latency_ms();
    assert!(
        slow_ms < fast_ms * 1.15,
        "10x processing cost should be invisible at WAN scale: {fast_ms:.1} -> {slow_ms:.1} ms"
    );
    // And the per-hop breakdown is available for the report.
    assert!(fast_report.latency_by_hops().len() >= 2);
}

/// Cross-layer validation: the simulator's queueing/timing machinery must
/// not change *what* is delivered — replaying the exact published events
/// through the router directly yields the same delivery and traffic
/// totals.
#[test]
fn simulator_deliveries_match_direct_routing() {
    let world = topology39::build().unwrap();
    let wconfig = chart1_small();
    let schema = wconfig.schema();
    let mut router =
        ContentRouter::new(world.fabric.clone(), schema, pst_options(&wconfig)).unwrap();
    let generator = SubscriptionGenerator::new(&wconfig, 33);
    let mut rng = StdRng::seed_from_u64(33);
    topology39::subscribe_random(&mut router, &world, &generator, 1500, &mut rng).unwrap();
    let events = EventGenerator::new(&wconfig, 33);

    let mut config = SimConfig::default().with_rate(80.0).with_events(250);
    config.record_events = true;
    let protocol = LinkMatchingSim(router);
    let report = Simulation::new(&protocol, world.publishers.clone(), &events, config).run();
    assert_eq!(report.published_events.len(), 250);

    use linkcast::EventRouter;
    let mut expected_deliveries = 0u64;
    let mut expected_broker_messages = 0u64;
    for (broker, event) in &report.published_events {
        // `LinkMatchingSim` wraps the router we built; re-publish through a
        // fresh reference route (publish() is &self, the subscription set
        // is unchanged).
        let d = protocol.0.publish(*broker, event).unwrap();
        expected_deliveries += d.client_messages;
        expected_broker_messages += d.broker_messages;
    }
    assert_eq!(report.deliveries, expected_deliveries);
    assert_eq!(report.broker_messages, expected_broker_messages);
}
