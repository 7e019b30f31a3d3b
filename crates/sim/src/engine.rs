//! The discrete-event simulation loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use linkcast::LinkTarget;
use linkcast_matching::MatchStats;
use linkcast_types::{BrokerId, Event, LinkId};
use linkcast_workload::{ArrivalProcess, BurstyProcess, EventGenerator, PoissonProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{ArrivalKind, BrokerLoad, SimConfig, SimProtocol, SimReport};

/// A publisher's arrival process, instantiated from [`ArrivalKind`].
#[derive(Debug, Clone, Copy)]
enum Process {
    Poisson(PoissonProcess),
    Bursty(BurstyProcess),
}

impl Process {
    fn new(kind: ArrivalKind, rate: f64) -> Self {
        match kind {
            ArrivalKind::Poisson => Process::Poisson(PoissonProcess::new(rate)),
            ArrivalKind::Bursty {
                burst_size,
                intra_gap_s,
            } => Process::Bursty(BurstyProcess::new(rate, burst_size, intra_gap_s)),
        }
    }

    fn next_gap<R: rand::Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        match self {
            Process::Poisson(p) => p.next_gap(rng),
            Process::Bursty(p) => p.next_gap(rng),
        }
    }
}

/// A publisher definition: where it publishes from, and whose regional
/// value distribution its events follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publisher {
    /// The broker the publishing client is attached to.
    pub broker: BrokerId,
    /// Locality region for event-value generation.
    pub region: usize,
}

#[derive(Debug)]
struct Message {
    event: Event,
    tree: linkcast::TreeId,
    published_at: u64,
    /// Broker hops traveled so far.
    hops: u32,
}

#[derive(Debug)]
enum Action {
    /// A publisher emits its next event.
    Publish { publisher: usize },
    /// A message copy arrives at a broker's input queue.
    Arrive { broker: u32, message: usize },
    /// A broker finishes servicing a message and dispatches the copies.
    Complete {
        broker: u32,
        message: usize,
        links: Vec<LinkId>,
    },
    /// The overload probe: sample every broker's backlog.
    Probe,
}

#[derive(Debug, Default)]
struct BrokerState {
    queue: VecDeque<usize>,
    busy: bool,
    busy_us: f64,
    processed: u64,
    max_queue: usize,
    probe_backlog: usize,
}

/// One simulation run: a protocol, a set of publishers, and a workload.
///
/// # Example
///
/// See the `wan_simulation` example and the `chart1_saturation` bench
/// binary; the unit tests below run a miniature network end to end.
pub struct Simulation<'a, P: SimProtocol> {
    protocol: &'a P,
    publishers: Vec<Publisher>,
    generator: &'a EventGenerator,
    config: SimConfig,
}

impl<'a, P: SimProtocol> Simulation<'a, P> {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if `publishers` is empty.
    pub fn new(
        protocol: &'a P,
        publishers: Vec<Publisher>,
        generator: &'a EventGenerator,
        config: SimConfig,
    ) -> Self {
        assert!(!publishers.is_empty(), "at least one publisher required");
        Simulation {
            protocol,
            publishers,
            generator,
            config,
        }
    }

    /// Runs the simulation to completion (all published events drained) and
    /// reports loads, latencies, and overload status.
    pub fn run(&mut self) -> SimReport {
        let network = self.protocol.fabric().network();
        let n = network.broker_count();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut brokers: Vec<BrokerState> = (0..n).map(|_| BrokerState::default()).collect();
        let mut messages: Vec<Message> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut actions: Vec<Action> = Vec::new();
        let mut seq = 0u64;

        let schedule = |heap: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
                        actions: &mut Vec<Action>,
                        seq: &mut u64,
                        time: u64,
                        action: Action| {
            actions.push(action);
            heap.push(Reverse((time, *seq, actions.len() - 1)));
            *seq += 1;
        };

        // Each publisher contributes an equal share of the aggregate rate.
        let per_rate = self.config.publish_rate / self.publishers.len() as f64;
        let mut processes: Vec<Process> = self
            .publishers
            .iter()
            .map(|_| Process::new(self.config.arrivals, per_rate))
            .collect();
        for (i, process) in processes.iter_mut().enumerate() {
            let gap = (process.next_gap(&mut rng) * 1e6) as u64;
            schedule(
                &mut heap,
                &mut actions,
                &mut seq,
                gap,
                Action::Publish { publisher: i },
            );
        }

        let client_hop_us = (self.config.client_hop_ms * 1000.0) as u64;
        let mut published = 0usize;
        let mut deliveries = 0u64;
        let mut broker_messages = 0u64;
        let mut link_loads: std::collections::HashMap<(BrokerId, BrokerId), u64> =
            std::collections::HashMap::new();
        let mut total_steps = 0u64;
        let mut latencies: Vec<(u32, u64)> = Vec::new();
        let mut published_events: Vec<(BrokerId, Event)> = Vec::new();
        let mut last_time = 0u64;
        let mut publish_window_end = 0u64;
        let mut probed = false;

        while let Some(Reverse((time, _, idx))) = heap.pop() {
            last_time = last_time.max(time);
            // Taking the action out avoids cloning link lists.
            let action = std::mem::replace(&mut actions[idx], Action::Probe);
            match action {
                Action::Publish { publisher } => {
                    if published >= self.config.events {
                        continue;
                    }
                    published += 1;
                    let p = self.publishers[publisher];
                    let event = self.generator.generate(&mut rng, p.region);
                    let tree = self
                        .protocol
                        .fabric()
                        .tree_for(p.broker)
                        .expect("publisher brokers have trees");
                    if self.config.record_events {
                        published_events.push((p.broker, event.clone()));
                    }
                    messages.push(Message {
                        event,
                        tree,
                        published_at: time,
                        hops: 0,
                    });
                    let arrive_at = time + client_hop_us;
                    schedule(
                        &mut heap,
                        &mut actions,
                        &mut seq,
                        arrive_at,
                        Action::Arrive {
                            broker: p.broker.raw(),
                            message: messages.len() - 1,
                        },
                    );
                    if published < self.config.events {
                        let gap = (processes[publisher].next_gap(&mut rng) * 1e6) as u64;
                        schedule(
                            &mut heap,
                            &mut actions,
                            &mut seq,
                            time + gap.max(1),
                            Action::Publish { publisher },
                        );
                    } else {
                        publish_window_end = time;
                        let probe_at = time + (self.config.drain_s * 1e6) as u64;
                        schedule(&mut heap, &mut actions, &mut seq, probe_at, Action::Probe);
                    }
                }
                Action::Arrive { broker, message } => {
                    let state = &mut brokers[broker as usize];
                    state.queue.push_back(message);
                    state.max_queue = state.max_queue.max(state.queue.len());
                    if !state.busy {
                        Self::start_service(
                            self.protocol,
                            &self.config,
                            &mut brokers,
                            &messages,
                            broker,
                            time,
                            &mut total_steps,
                            |t, a| schedule(&mut heap, &mut actions, &mut seq, t, a),
                        );
                    }
                }
                Action::Complete {
                    broker,
                    message,
                    links,
                } => {
                    let msg_tree = messages[message].tree;
                    let published_at = messages[message].published_at;
                    let hops = messages[message].hops;
                    for link in links {
                        match network.link_target(BrokerId::new(broker), link) {
                            LinkTarget::Broker(next) => {
                                broker_messages += 1;
                                *link_loads.entry((BrokerId::new(broker), next)).or_insert(0) += 1;
                                let delay_us = (network
                                    .delay(BrokerId::new(broker), next)
                                    .expect("links have delays")
                                    * 1000.0) as u64;
                                // A forwarded copy shares event and tree.
                                messages.push(Message {
                                    event: messages[message].event.clone(),
                                    tree: msg_tree,
                                    published_at,
                                    hops: hops + 1,
                                });
                                schedule(
                                    &mut heap,
                                    &mut actions,
                                    &mut seq,
                                    time + delay_us,
                                    Action::Arrive {
                                        broker: next.raw(),
                                        message: messages.len() - 1,
                                    },
                                );
                            }
                            LinkTarget::Client(_) => {
                                deliveries += 1;
                                latencies.push((hops, time + client_hop_us - published_at));
                            }
                        }
                    }
                    brokers[broker as usize].busy = false;
                    if !brokers[broker as usize].queue.is_empty() {
                        Self::start_service(
                            self.protocol,
                            &self.config,
                            &mut brokers,
                            &messages,
                            broker,
                            time,
                            &mut total_steps,
                            |t, a| schedule(&mut heap, &mut actions, &mut seq, t, a),
                        );
                    }
                }
                Action::Probe => {
                    if !probed {
                        probed = true;
                        for state in brokers.iter_mut() {
                            state.probe_backlog = state.queue.len() + usize::from(state.busy);
                        }
                    }
                }
            }
        }

        // If the probe never fired with content (everything drained first),
        // backlogs are zero — exactly what "not overloaded" means.
        let window = publish_window_end.max(1) as f64;
        let loads: Vec<BrokerLoad> = brokers
            .iter()
            .enumerate()
            .map(|(i, s)| BrokerLoad {
                broker: BrokerId::new(i as u32),
                processed: s.processed,
                busy_us: s.busy_us,
                max_queue: s.max_queue,
                probe_backlog: s.probe_backlog,
                utilization: s.busy_us / window,
            })
            .collect();
        let overloaded = loads
            .iter()
            .filter(|l| l.max_queue > self.config.overload_backlog)
            .map(|l| l.broker)
            .collect();
        let mut link_loads: Vec<((BrokerId, BrokerId), u64)> = link_loads.into_iter().collect();
        link_loads.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        SimReport {
            protocol: self.protocol.name(),
            duration_us: last_time,
            published,
            deliveries,
            broker_messages,
            latencies_us: latencies,
            total_steps,
            loads,
            overloaded,
            link_loads,
            published_events,
        }
    }

    /// Pops the head of `broker`'s queue, runs the protocol's routing for
    /// it, and schedules the completion after the modeled service time.
    #[allow(
        clippy::too_many_arguments,
        reason = "takes the run loop's state piece by piece, which the loop holds borrowed apart"
    )]
    fn start_service(
        protocol: &P,
        config: &SimConfig,
        brokers: &mut [BrokerState],
        messages: &[Message],
        broker: u32,
        time: u64,
        total_steps: &mut u64,
        mut schedule: impl FnMut(u64, Action),
    ) {
        let state = &mut brokers[broker as usize];
        let Some(message) = state.queue.pop_front() else {
            return;
        };
        let msg = &messages[message];
        let mut stats = MatchStats::new();
        let links = protocol.route(BrokerId::new(broker), &msg.event, msg.tree, &mut stats);
        *total_steps += stats.steps;
        let service = config.costs.service_us(stats.steps, links.len());
        state.busy = true;
        state.busy_us += service;
        state.processed += 1;
        schedule(
            time + (service.max(1.0)) as u64,
            Action::Complete {
                broker,
                message,
                links,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FloodingSim, LinkMatchingSim};
    use linkcast::{ContentRouter, EventRouter, FloodingRouter, NetworkBuilder, RoutingFabric};
    use linkcast_matching::PstOptions;
    use linkcast_types::{AttrTest, Predicate, Value};
    use linkcast_workload::WorkloadConfig;

    fn tiny_world() -> (
        std::sync::Arc<RoutingFabric>,
        Vec<BrokerId>,
        Vec<linkcast_types::ClientId>,
        WorkloadConfig,
    ) {
        let mut b = NetworkBuilder::new();
        let brokers = b.add_brokers(3);
        b.connect(brokers[0], brokers[1], 5.0).unwrap();
        b.connect(brokers[1], brokers[2], 5.0).unwrap();
        let mut clients = Vec::new();
        for &broker in &brokers {
            clients.extend(b.add_clients(broker, 2).unwrap());
        }
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
        let mut config = WorkloadConfig::chart1();
        config.attributes = 3;
        config.values_per_attribute = 3;
        config.factoring_levels = 0;
        config.regions = 3;
        (fabric, brokers, clients, config)
    }

    fn subscribe_all(
        router: &mut impl EventRouter,
        schema: &linkcast_types::EventSchema,
        clients: &[linkcast_types::ClientId],
    ) {
        // Every client subscribes to a0 = (its index mod 3).
        for (i, &client) in clients.iter().enumerate() {
            let p = Predicate::from_tests(
                schema,
                [
                    AttrTest::Eq(Value::Int((i % 3) as i64)),
                    AttrTest::Any,
                    AttrTest::Any,
                ],
            )
            .unwrap();
            router.subscribe(client, p).unwrap();
        }
    }

    #[test]
    fn low_rate_run_drains_without_overload() {
        let (fabric, brokers, clients, wconfig) = tiny_world();
        let schema = wconfig.schema();
        let mut router =
            ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
        subscribe_all(&mut router, &schema, &clients);
        let protocol = LinkMatchingSim(router);
        let generator = EventGenerator::new(&wconfig, 1);
        let publishers = vec![Publisher {
            broker: brokers[0],
            region: 0,
        }];
        let mut sim = Simulation::new(
            &protocol,
            publishers,
            &generator,
            SimConfig::default().with_rate(100.0).with_events(100),
        );
        let report = sim.run();
        assert_eq!(report.published, 100);
        assert!(
            !report.is_overloaded(),
            "overloaded: {:?}",
            report.overloaded
        );
        assert!(report.deliveries > 0, "some events should match someone");
        assert!(report.duration_us > 0);
        assert!(report.total_steps > 0);
        assert_eq!(report.protocol, "link-matching");
        // Latency is at least two client hops (1 ms each).
        assert!(report.latencies_us.iter().all(|&(_, l)| l >= 2_000));
    }

    #[test]
    fn absurd_rate_overloads_brokers() {
        let (fabric, brokers, clients, wconfig) = tiny_world();
        let schema = wconfig.schema();
        let mut router =
            ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
        subscribe_all(&mut router, &schema, &clients);
        let protocol = LinkMatchingSim(router);
        let generator = EventGenerator::new(&wconfig, 1);
        let publishers = vec![Publisher {
            broker: brokers[0],
            region: 0,
        }];
        // 1M events/sec against a ~100 µs service time must back up.
        let mut sim = Simulation::new(
            &protocol,
            publishers,
            &generator,
            SimConfig::default()
                .with_rate(1_000_000.0)
                .with_events(2_000),
        );
        let report = sim.run();
        assert!(report.is_overloaded());
        assert!(report.max_utilization() > 0.9);
    }

    #[test]
    fn flooding_sends_more_broker_messages_than_link_matching() {
        let (fabric, brokers, clients, wconfig) = tiny_world();
        let schema = wconfig.schema();
        let options = PstOptions::default();
        let mut lm = ContentRouter::new(fabric.clone(), schema.clone(), options.clone()).unwrap();
        let mut fl = FloodingRouter::new(fabric.clone(), schema.clone(), options).unwrap();
        // Only one selective subscriber, local to the publisher's broker:
        // link matching keeps traffic local, flooding covers the tree.
        let p = Predicate::from_tests(
            &schema,
            [AttrTest::Eq(Value::Int(0)), AttrTest::Any, AttrTest::Any],
        )
        .unwrap();
        lm.subscribe(clients[0], p.clone()).unwrap();
        fl.subscribe(clients[0], p).unwrap();

        let generator = EventGenerator::new(&wconfig, 1);
        let publishers = vec![Publisher {
            broker: brokers[0],
            region: 0,
        }];
        let config = SimConfig::default().with_rate(50.0).with_events(50);

        let lm_protocol = LinkMatchingSim(lm);
        let report_lm =
            Simulation::new(&lm_protocol, publishers.clone(), &generator, config.clone()).run();
        let fl_protocol = FloodingSim::new(fl, fabric.clone());
        let report_fl = Simulation::new(&fl_protocol, publishers, &generator, config).run();

        // Flooding pushes a copy to every client and lets clients filter;
        // link matching delivers only to the matching subscriber.
        assert!(report_fl.deliveries > report_lm.deliveries);
        assert_eq!(
            report_fl.deliveries,
            6 * 50,
            "every client gets every event"
        );
        assert_eq!(report_lm.broker_messages, 0, "all interest is local");
        assert_eq!(
            report_fl.broker_messages,
            2 * 50,
            "flooding uses every edge"
        );
    }

    #[test]
    fn latencies_reflect_hop_delays() {
        // Two brokers joined by a 50 ms link: every remote delivery pays
        // publisher client hop (1 ms) + 50 ms + subscriber client hop (1 ms)
        // plus queueing/service.
        let mut b = NetworkBuilder::new();
        let brokers = b.add_brokers(2);
        b.connect(brokers[0], brokers[1], 50.0).unwrap();
        let client = b.add_client(brokers[1]).unwrap();
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
        let mut wconfig = WorkloadConfig::chart1();
        wconfig.attributes = 3;
        wconfig.values_per_attribute = 3;
        wconfig.factoring_levels = 0;
        let schema = wconfig.schema();
        let mut router =
            ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
        router
            .subscribe(
                client,
                Predicate::from_tests(&schema, vec![AttrTest::Any; 3]).unwrap(),
            )
            .unwrap();
        let protocol = LinkMatchingSim(router);
        let generator = EventGenerator::new(&wconfig, 2);
        let publishers = vec![Publisher {
            broker: brokers[0],
            region: 0,
        }];
        let report = Simulation::new(
            &protocol,
            publishers,
            &generator,
            SimConfig::default().with_rate(50.0).with_events(50),
        )
        .run();
        assert_eq!(report.deliveries, 50);
        for &(hops, l) in &report.latencies_us {
            assert_eq!(hops, 1, "one broker hop on the two-broker line");
            assert!(l >= 52_000, "latency {l} µs below the physical floor");
            assert!(l < 60_000, "latency {l} µs implausibly high at low load");
        }
        let by_hops = report.latency_by_hops();
        assert_eq!(by_hops.len(), 1);
        assert_eq!(by_hops[0].0, 1);
        assert_eq!(by_hops[0].1, 50);
    }

    #[test]
    fn bursty_arrivals_deepen_queues_at_equal_mean_rate() {
        let (fabric, brokers, clients, wconfig) = tiny_world();
        let schema = wconfig.schema();
        let mut router =
            ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
        subscribe_all(&mut router, &schema, &clients);
        let protocol = LinkMatchingSim(router);
        let generator = EventGenerator::new(&wconfig, 1);
        let publishers = vec![Publisher {
            broker: brokers[0],
            region: 0,
        }];
        let base = SimConfig::default().with_rate(2_000.0).with_events(600);
        let poisson =
            Simulation::new(&protocol, publishers.clone(), &generator, base.clone()).run();
        let bursty = Simulation::new(
            &protocol,
            publishers,
            &generator,
            base.with_arrivals(crate::ArrivalKind::Bursty {
                burst_size: 40,
                intra_gap_s: 0.00001,
            }),
        )
        .run();
        let max_q = |r: &crate::SimReport| r.loads.iter().map(|l| l.max_queue).max().unwrap();
        assert!(
            max_q(&bursty) > 2 * max_q(&poisson),
            "bursts should deepen queues: {} vs {}",
            max_q(&bursty),
            max_q(&poisson)
        );
    }

    #[test]
    fn identical_seeds_reproduce_reports() {
        let (fabric, brokers, clients, wconfig) = tiny_world();
        let schema = wconfig.schema();
        let mut router =
            ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
        subscribe_all(&mut router, &schema, &clients);
        let protocol = LinkMatchingSim(router);
        let generator = EventGenerator::new(&wconfig, 1);
        let publishers = vec![Publisher {
            broker: brokers[2],
            region: 2,
        }];
        let config = SimConfig::default()
            .with_rate(200.0)
            .with_events(60)
            .with_seed(9);
        let a = Simulation::new(&protocol, publishers.clone(), &generator, config.clone()).run();
        let b = Simulation::new(&protocol, publishers, &generator, config).run();
        assert_eq!(a.duration_us, b.duration_us);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.latencies_us, b.latencies_us);
        assert_eq!(a.broker_messages, b.broker_messages);
    }
}
