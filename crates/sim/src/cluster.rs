//! The §4.1 experiments on a cluster of real broker cores, stepped in
//! virtual time by [`linkcast_broker::sim`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::RoutingFabric;
use linkcast_broker::sim::{Sim, Spec};
use linkcast_types::{
    BrokerId, ClientId, Event, EventSchema, Predicate, SchemaRegistry, Value, ValueKind,
};
use linkcast_workload::{ArrivalProcess, BurstyProcess, EventGenerator, PoissonProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{ArrivalKind, BrokerLoad, SimConfig, SimReport, OVERLOAD_BACKLOG};

/// How long a drained run must deliver nothing: longer than any path's
/// hop delays, so no event is still on its way.
const DRAIN_WINDOW: Duration = Duration::from_secs(1);
/// The virtual time a run's queues may take to empty.
const DRAIN_LIMIT: Duration = Duration::from_secs(3600);

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

/// One event to publish.
#[derive(Debug, Clone)]
pub struct Publication {
    /// When, from the start of the run.
    pub at: Duration,
    /// The publishing client's broker.
    pub broker: BrokerId,
    /// The event, in the workload's schema.
    pub event: Event,
}

/// `config.events` publications from `publishers`, each at an equal share
/// of `config.publish_rate` and spaced by `config.arrivals`, in time order;
/// a function of `config.seed`. Times are whole microseconds; each
/// publication draws its event, then its publisher's next gap.
///
/// # Panics
///
/// Panics if `publishers` is empty.
pub fn publications(
    publishers: &[Publisher],
    generator: &EventGenerator,
    config: &SimConfig,
) -> Vec<Publication> {
    assert!(!publishers.is_empty(), "at least one publisher required");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let rate = config.publish_rate / publishers.len() as f64;
    let mut processes: Vec<Process> = (publishers.iter())
        .map(|_| Process::new(config.arrivals, rate))
        .collect();
    let mut gap_us = |i: usize, rng: &mut StdRng| (processes[i].next_gap(rng) * 1e6) as u64;
    // Each publisher's next publication, as (µs, order drawn): ties go to
    // the earlier draw.
    let mut next: Vec<(u64, usize)> = (0..publishers.len())
        .map(|i| (gap_us(i, &mut rng), i))
        .collect();
    let mut drawn = publishers.len();
    (0..config.events)
        .map(|k| {
            let (i, &(at, _)) = (next.iter().enumerate())
                .min_by_key(|&(_, &key)| key)
                .expect("one publisher or more");
            let Publisher { broker, region } = publishers[i];
            let event = generator.generate(&mut rng, region);
            if k + 1 < config.events {
                next[i] = (at + gap_us(i, &mut rng).max(1), drawn);
                drawn += 1;
            }
            let at = Duration::from_micros(at);
            Publication { at, broker, event }
        })
        .collect()
}

/// `workload` with an `id: int` attribute appended.
fn with_id(workload: &EventSchema) -> Result<EventSchema, String> {
    let defs = workload.attributes().iter().cloned();
    let builder = defs.fold(EventSchema::builder(workload.name()), |b, def| {
        b.attribute_def(def)
    });
    let id = builder.attribute("id", ValueKind::Int);
    let factored = id.factored(workload.factored().len());
    factored.build().map_err(|e| e.to_string())
}

/// One broker core per broker of a routing fabric, one client per client,
/// and a workload's subscriptions installed, in virtual time.
///
/// The cores serve the workload's schema with one attribute appended, an
/// `id` no subscription tests: it names each published event, so every
/// delivery is matched to its own publication. Subscriptions leave it `*`,
/// and a level every subscription leaves `*` is skipped by the walk, so it
/// costs no matching step. The cores factor what the workload's schema
/// declares factored, as every other tree over it does.
///
/// # Example
///
/// See the `wan_simulation` example and the `chart1_saturation` bench
/// binary; the unit tests below run miniature networks end to end.
pub struct Simulation {
    sim: Sim,
    fabric: Arc<RoutingFabric>,
    protocol: &'static str,
    /// The cores' schema: the workload's plus `id`.
    schema: EventSchema,
    /// The next publication's `id`.
    next_id: i64,
}

impl Simulation {
    /// Link matching: `subscriptions` (each client with its predicate over
    /// `schema`) installed at every core.
    ///
    /// # Errors
    ///
    /// A subscription a broker refuses, or a cluster that does not settle.
    pub fn link_matching(
        fabric: Arc<RoutingFabric>,
        schema: &EventSchema,
        subscriptions: &[(ClientId, Predicate)],
    ) -> Result<Self, String> {
        let mut sim = Simulation::boot(fabric, schema, "link-matching")?;
        for (client, predicate) in subscriptions {
            sim.subscribe(*client, predicate)?;
        }
        sim.settle(subscriptions.len())?;
        Ok(sim)
    }

    /// The flooding baseline, as a workload: every client subscribes to
    /// every event and filters for itself, so each event crosses every
    /// spanning-tree link and reaches every client.
    ///
    /// # Errors
    ///
    /// A cluster that does not settle.
    pub fn flooding(fabric: Arc<RoutingFabric>, schema: &EventSchema) -> Result<Self, String> {
        let mut sim = Simulation::boot(fabric, schema, "flooding")?;
        let clients: Vec<ClientId> = sim.fabric.network().clients().collect();
        for &client in &clients {
            sim.subscribe(client, &Predicate::match_all(schema))?;
        }
        sim.settle(clients.len())?;
        Ok(sim)
    }

    /// Boots the cluster, connects every client and waits for every link.
    fn boot(
        fabric: Arc<RoutingFabric>,
        workload: &EventSchema,
        protocol: &'static str,
    ) -> Result<Self, String> {
        let schema = with_id(workload)?;
        let mut registry = SchemaRegistry::new();
        registry
            .register(schema.clone())
            .map_err(|e| e.to_string())?;
        let spec = Spec::from_fabric(Arc::clone(&fabric), Arc::new(registry));
        // §4.1's brokers match every event: no result cache.
        let mut sim = Sim::new(spec, Instant::now(), |c| c.match_cache_cap = 0);
        let clients = fabric.network().client_count();
        for j in 0..clients {
            sim.connect(j, 0);
        }
        let up = |s: &Sim| s.meshed() && (0..clients).all(|j| s.welcomed(j));
        sim.run_until("every link and client", Duration::from_secs(60), up)?;
        Ok(Simulation {
            sim,
            fabric,
            protocol,
            schema,
            next_id: 0,
        })
    }

    fn subscribe(&mut self, client: ClientId, predicate: &Predicate) -> Result<(), String> {
        // The workload's attributes lead the cores' schema, by name.
        let text = predicate.display_with(&self.schema);
        self.sim.subscribe(client.index(), &text).map(drop)
    }

    /// Runs until every core holds all `count` subscriptions.
    fn settle(&mut self, count: usize) -> Result<(), String> {
        let brokers = self.fabric.network().broker_count();
        let count = count as u64;
        let all = |s: &Sim| (0..brokers).all(|n| s.counts(n).subscriptions() == count);
        self.sim.run_until(
            "every subscription everywhere",
            Duration::from_secs(600),
            all,
        )
    }

    /// Publishes `publications` on time, each from the first client of its
    /// broker, under `config`'s costs, and runs until the cluster has
    /// drained: every queue empty, then a second of virtual time that
    /// delivers nothing.
    ///
    /// # Panics
    ///
    /// If a publication's broker has no client.
    pub fn run(&mut self, publications: &[Publication], config: &SimConfig) -> SimReport {
        self.sim.set_costs(config.costs);
        self.sim.take_loads();
        let before = self.sim.forwards();
        let start = self.sim.now();
        let network = self.fabric.network();
        let mut published = HashMap::new();
        for p in publications {
            self.sim
                .run_for((start + p.at).saturating_sub(self.sim.now()));
            let id = self.next_id;
            self.next_id += 1;
            published.insert(id, (self.sim.now(), p.broker));
            let mut values = p.event.values().to_vec();
            values.push(Value::Int(id));
            let event = Event::from_values(&self.schema, values).expect("a workload event");
            let client = network.clients_of(p.broker)[0];
            self.sim.publish(client.index(), event);
        }
        let window = (self.sim.now() - start).as_secs_f64().max(1e-6);
        let (mut latencies_us, mut last) = (Vec::new(), self.sim.now());
        let (fabric, mut hops) = (Arc::clone(&self.fabric), HashMap::new());
        let mut hops_between = |from: BrokerId, home: BrokerId| -> u32 {
            *hops.entry((from, home)).or_insert_with(|| {
                let tree = fabric.tree_for(from).expect("publishers root trees");
                let tree = fabric.forest().tree(tree).expect("a tree of the forest");
                tree.path_down(from, home).map_or(0, |p| p.len() as u32 - 1)
            })
        };
        let brokers = network.broker_count();
        let idle = |s: &Sim| (0..brokers).all(|n| s.backlog(n) == 0);
        loop {
            let drained = self.sim.run_until("every queue empty", DRAIN_LIMIT, idle);
            drained.expect("a finite run drains");
            self.sim.run_for(DRAIN_WINDOW);
            let landed = latencies_us.len();
            for j in 0..network.client_count() {
                let home = network.home_broker(ClientId::new(j as u32));
                let home = home.expect("every client has a broker");
                for (at, event) in self.sim.take_deliveries(j) {
                    let Some(&Value::Int(id)) = event.values().last() else {
                        continue;
                    };
                    let Some(&(sent, from)) = published.get(&id) else {
                        continue;
                    };
                    let hops = hops_between(from, home);
                    latencies_us.push((hops, (at - sent).as_micros() as u64));
                    last = last.max(at);
                }
            }
            if latencies_us.len() == landed {
                break;
            }
        }
        let loads = self.sim.take_loads();
        let total_steps = loads.iter().map(|l| l.steps).sum();
        let loads: Vec<BrokerLoad> = (loads.into_iter().enumerate())
            .map(|(n, load)| BrokerLoad {
                broker: BrokerId::new(n as u32),
                processed: load.services,
                busy_us: load.busy.as_secs_f64() * 1e6,
                max_queue: load.max_queue,
                utilization: load.busy.as_secs_f64() / window,
            })
            .collect();
        let overloaded = (loads.iter())
            .filter(|l| l.max_queue > OVERLOAD_BACKLOG)
            .map(|l| l.broker)
            .collect();
        let mut link_loads: Vec<((BrokerId, BrokerId), u64)> = (self.sim.forwards().into_iter())
            .zip(before)
            .map(|((edge, after), (_, before))| (edge, after - before))
            .filter(|&(_, n)| n > 0)
            .collect();
        link_loads.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        SimReport {
            protocol: self.protocol,
            duration_us: (last - start).as_micros() as u64,
            published: publications.len(),
            deliveries: latencies_us.len() as u64,
            broker_messages: link_loads.iter().map(|(_, n)| n).sum(),
            latencies_us,
            total_steps,
            loads,
            overloaded,
            link_loads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrivalKind;
    use linkcast::NetworkBuilder;
    use linkcast_types::{AttrTest, Predicate};
    use linkcast_workload::WorkloadConfig;

    /// A three-broker line, two clients per broker, and a 3×3 workload.
    fn tiny_world() -> (Arc<RoutingFabric>, Vec<ClientId>, WorkloadConfig) {
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
        (fabric, clients, config)
    }

    /// Every client subscribes to `a0 = (its index mod 3)`.
    fn by_index(schema: &EventSchema, clients: &[ClientId]) -> Vec<(ClientId, Predicate)> {
        let test = |i: usize| AttrTest::Eq(Value::Int((i % 3) as i64));
        let tests = |i| [test(i), AttrTest::Any, AttrTest::Any];
        let predicate = |i| Predicate::from_tests(schema, tests(i)).unwrap();
        (clients.iter().enumerate())
            .map(|(i, &c)| (c, predicate(i)))
            .collect()
    }

    fn from(broker: u32, region: usize) -> [Publisher; 1] {
        let broker = BrokerId::new(broker);
        [Publisher { broker, region }]
    }

    /// `publications` and `run` in one call.
    fn run(
        sim: &mut Simulation,
        publishers: &[Publisher],
        w: &WorkloadConfig,
        config: SimConfig,
    ) -> SimReport {
        let generator = EventGenerator::new(w, 1);
        sim.run(&publications(publishers, &generator, &config), &config)
    }

    #[test]
    fn low_rate_run_drains_without_overload() {
        let (fabric, clients, w) = tiny_world();
        let schema = w.schema();
        let subscriptions = by_index(&schema, &clients);
        let mut sim = Simulation::link_matching(fabric, &schema, &subscriptions).unwrap();
        let config = SimConfig::default().with_rate(100.0).with_events(100);
        let report = run(&mut sim, &from(0, 0), &w, config);
        assert_eq!(report.published, 100);
        let overloaded = &report.overloaded;
        assert!(!report.is_overloaded(), "overloaded: {overloaded:?}");
        assert!(report.deliveries > 0, "some events should match someone");
        assert!(report.duration_us > 0);
        assert!(report.total_steps > 0);
        assert_eq!(report.protocol, "link-matching");
        // Latency is at least two client hops (1 ms each).
        assert!(report.latencies_us.iter().all(|&(_, l)| l >= 2_000));
    }

    #[test]
    fn absurd_rate_overloads_brokers() {
        let (fabric, clients, w) = tiny_world();
        let schema = w.schema();
        let subscriptions = by_index(&schema, &clients);
        let mut sim = Simulation::link_matching(fabric, &schema, &subscriptions).unwrap();
        // 1M events/sec against a ~100 µs service time must back up.
        let config = SimConfig::default()
            .with_rate(1_000_000.0)
            .with_events(2_000);
        let report = run(&mut sim, &from(0, 0), &w, config);
        assert!(report.is_overloaded());
        assert!(report.max_utilization() > 0.9);
    }

    #[test]
    fn flooding_sends_more_broker_messages_than_link_matching() {
        let (fabric, clients, w) = tiny_world();
        let schema = w.schema();
        // Only one selective subscriber, local to the publisher's broker:
        // link matching keeps traffic local, flooding covers the tree.
        let only = by_index(&schema, &clients[..1]);
        let mut lm = Simulation::link_matching(Arc::clone(&fabric), &schema, &only).unwrap();
        let mut fl = Simulation::flooding(fabric, &schema).unwrap();
        let config = SimConfig::default().with_rate(50.0).with_events(50);
        let report_lm = run(&mut lm, &from(0, 0), &w, config.clone());
        let report_fl = run(&mut fl, &from(0, 0), &w, config);

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
        b.add_client(brokers[0]).unwrap();
        let client = b.add_client(brokers[1]).unwrap();
        let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
        let (_, _, w) = tiny_world();
        let schema = w.schema();
        let all = [(client, Predicate::match_all(&schema))];
        let mut sim = Simulation::link_matching(fabric, &schema, &all).unwrap();
        let config = SimConfig::default().with_rate(50.0).with_events(50);
        let report = run(&mut sim, &from(0, 0), &w, config);
        assert_eq!(report.deliveries, 50);
        for &(hops, l) in &report.latencies_us {
            assert_eq!(hops, 1, "one broker hop on the two-broker line");
            assert!(l >= 52_000, "latency {l} µs below the physical floor");
            assert!(l < 60_000, "latency {l} µs implausibly high at low load");
        }
        assert_eq!(
            report.latency_by_hops(),
            [(1, 50, report.mean_latency_ms())]
        );
    }

    #[test]
    fn bursty_arrivals_deepen_queues_at_equal_mean_rate() {
        let (fabric, clients, w) = tiny_world();
        let schema = w.schema();
        let subscriptions = by_index(&schema, &clients);
        let mut sim = Simulation::link_matching(fabric, &schema, &subscriptions).unwrap();
        let base = SimConfig::default().with_rate(2_000.0).with_events(600);
        let poisson = run(&mut sim, &from(0, 0), &w, base.clone());
        let bursts = ArrivalKind::Bursty {
            burst_size: 40,
            intra_gap_s: 0.00001,
        };
        let bursty = run(&mut sim, &from(0, 0), &w, base.with_arrivals(bursts));
        let max_q = |r: &SimReport| r.loads.iter().map(|l| l.max_queue).max().unwrap();
        let (b, p) = (max_q(&bursty), max_q(&poisson));
        assert!(b > 2 * p, "bursts should deepen queues: {b} vs {p}");
    }

    /// The `id` the cores' schema appends moves no step count and no link:
    /// a broker's engine walks Chart 1's table the same with it as without.
    #[test]
    fn an_id_no_subscription_tests_moves_no_step_count() {
        use linkcast::{MatchCache, RouteScratch};
        use linkcast_broker::MatchingEngine;
        use linkcast_matching::MatchStats;
        use linkcast_types::{SchemaId, SubscriberId, Subscription, SubscriptionId};
        use linkcast_workload::SubscriptionGenerator;

        let world = crate::topology39::build().unwrap();
        let w = WorkloadConfig::chart1();
        let workload = w.schema();
        let generator = SubscriptionGenerator::new(&w, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let subs = crate::topology39::random_subscriptions(&world, &generator, 500, &mut rng);
        let publisher = world.publishers[0].broker;
        let tree = world.fabric.tree_for(publisher).unwrap();
        let engine = |schema: &EventSchema| {
            let mut registry = SchemaRegistry::new();
            registry.register(schema.clone()).unwrap();
            let registry = Arc::new(registry);
            let mut e = MatchingEngine::new(publisher, &world.fabric, registry).unwrap();
            for (n, (client, predicate)) in subs.iter().enumerate() {
                let text = predicate.display_with(&workload);
                let parsed = e.parse_subscription(SchemaId::new(0), &text).unwrap();
                let home = world.fabric.network().home_broker(*client).unwrap();
                let (id, who) = (
                    SubscriptionId::new(n as u32),
                    SubscriberId::new(home, *client),
                );
                e.subscribe(SchemaId::new(0), Subscription::new(id, who, parsed))
                    .unwrap();
            }
            e
        };
        let identified = with_id(&workload).unwrap();
        let (bare, named) = (engine(&workload), engine(&identified));
        let (mut cache, mut scratch) = (MatchCache::new(0), RouteScratch::new());
        let mut walk = |e: &MatchingEngine, event: &Event| {
            let (mut stats, mut links) = (MatchStats::new(), Vec::new());
            e.route_cached(
                event,
                tree,
                &mut cache,
                &mut scratch,
                &mut stats,
                &mut links,
            );
            (stats.steps, links)
        };
        let events = EventGenerator::new(&w, 5);
        let mut steps = 0;
        for id in 0..200 {
            let event = events.generate(&mut rng, 0);
            let mut values = event.values().to_vec();
            values.push(Value::Int(id));
            let with = Event::from_values(&identified, values).unwrap();
            let (bare_steps, bare_links) = walk(&bare, &event);
            assert_eq!(walk(&named, &with), (bare_steps, bare_links), "event {id}");
            steps += bare_steps;
        }
        assert!(steps > 0, "the walks took steps");
    }

    #[test]
    fn identical_seeds_reproduce_reports() {
        let (fabric, clients, w) = tiny_world();
        let schema = w.schema();
        let subscriptions = by_index(&schema, &clients);
        let config = SimConfig::default()
            .with_rate(200.0)
            .with_events(60)
            .with_seed(9);
        let once = || {
            let fabric = Arc::clone(&fabric);
            let mut sim = Simulation::link_matching(fabric, &schema, &subscriptions).unwrap();
            run(&mut sim, &from(2, 2), &w, config.clone())
        };
        let (a, b) = (once(), once());
        assert_eq!(a.duration_us, b.duration_us);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.latencies_us, b.latencies_us);
        assert_eq!(a.link_loads, b.link_loads);
    }
}
