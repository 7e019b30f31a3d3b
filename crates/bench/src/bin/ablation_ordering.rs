//! **Ablation A1 — attribute ordering** (§2): "performance seems to be
//! better if the attributes near the root are chosen to have the fewest
//! number of subscriptions labeled with a `*`."
//!
//! Sweeps the ordering policy crossed with trivial test elimination (§2.1
//! optimization 2) on a workload where half the attributes are almost
//! always `*` and half are almost always constrained. The interesting,
//! honest finding: the fewest-stars-first heuristic *partitions* the
//! subscription set early (more sharing lost, more nodes), so **without**
//! star-chain skipping it can lose to the opposite order; combined with
//! trivial test elimination — as in the paper's implementation — it is the
//! clear winner.
//!
//! The "observed" rows let a broker's engine choose: a `LinkMatchEngine`
//! holding the same subscriptions (32 clients behind one broker, the
//! publisher behind another) is fed the events until its order adaptation
//! (DESIGN.md §11.2) has left the order alone for four checks running, and
//! the order it settled in is then measured like every other row. The lines
//! under the table say how it got there — rebuilds, and rebuilds taken back
//! because the walk did not get cheaper — and what the link-matching walk
//! itself cost before and after.
//!
//! Run with: `cargo run --release -p linkcast-bench --bin ablation_ordering`

use linkcast::{LinkMatchEngine, LinkSpace, NetworkBuilder, RouteScratch, RoutingFabric};
use linkcast_bench::print_table;
use linkcast_matching::{MatchStats, Matcher, OrderPolicy, Pst, PstOptions};
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, SubscriberId, Subscription,
    SubscriptionId, Value, ValueKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ATTRS: usize = 8;
const VALUES: i64 = 8;

fn main() {
    let mut b = EventSchema::builder("skewed");
    for i in 0..ATTRS {
        b = b.attribute_with_domain(format!("a{i}"), ValueKind::Int, (0..VALUES).map(Value::Int));
    }
    let schema = b.build().unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    // Even attributes: almost always don't-care. Odd: almost always
    // constrained.
    let probs: Vec<f64> = (0..ATTRS)
        .map(|a| if a % 2 == 0 { 0.03 } else { 0.85 })
        .collect();
    let subs: Vec<Subscription> = (0..5_000)
        .map(|i| {
            let tests: Vec<AttrTest> = (0..ATTRS)
                .map(|a| {
                    if rng.random_bool(probs[a]) {
                        AttrTest::Eq(Value::Int(rng.random_range(0..VALUES)))
                    } else {
                        AttrTest::Any
                    }
                })
                .collect();
            Subscription::new(
                SubscriptionId::new(i),
                SubscriberId::new(BrokerId::new(0), ClientId::new(i)),
                Predicate::from_tests(&schema, tests).unwrap(),
            )
        })
        .collect();
    let events: Vec<Event> = (0..2_000)
        .map(|_| {
            Event::from_values(
                &schema,
                (0..ATTRS).map(|_| Value::Int(rng.random_range(0..VALUES))),
            )
            .unwrap()
        })
        .collect();

    // Derive the heuristic order and its exact reverse from the actual
    // star statistics.
    let mut stars = [0usize; ATTRS];
    for s in &subs {
        for (i, t) in s.predicate().tests().iter().enumerate() {
            if t.is_wildcard() {
                stars[i] += 1;
            }
        }
    }
    let mut fewest: Vec<usize> = (0..ATTRS).collect();
    fewest.sort_by_key(|&a| stars[a]);
    let most: Vec<usize> = fewest.iter().rev().copied().collect();

    let (observed, observed_tte) = (
        observe(&schema, &subs, &events, false),
        observe(&schema, &subs, &events, true),
    );
    let configs: Vec<(&str, OrderPolicy, bool)> = vec![
        ("schema order", OrderPolicy::Schema, false),
        ("schema order + TTE", OrderPolicy::Schema, true),
        (
            "fewest-stars-first",
            OrderPolicy::Explicit(fewest.clone()),
            false,
        ),
        (
            "fewest-stars-first + TTE (paper)",
            OrderPolicy::Explicit(fewest),
            true,
        ),
        (
            "most-stars-first",
            OrderPolicy::Explicit(most.clone()),
            false,
        ),
        ("most-stars-first + TTE", OrderPolicy::Explicit(most), true),
        (
            "observed",
            OrderPolicy::Explicit(observed.order.clone()),
            false,
        ),
        (
            "observed + TTE",
            OrderPolicy::Explicit(observed_tte.order.clone()),
            true,
        ),
    ];
    let mut rows = Vec::new();
    let mut reference: Option<Vec<Vec<SubscriptionId>>> = None;
    for (name, order, tte) in configs {
        let pst = Pst::build(
            schema.clone(),
            subs.iter().cloned(),
            PstOptions::default()
                .with_order(order)
                .with_trivial_test_elimination(tte),
        )
        .unwrap();
        let mut stats = MatchStats::new();
        let results: Vec<_> = events
            .iter()
            .map(|e| pst.matches_with_stats(e, &mut stats))
            .collect();
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(r, &results, "configurations must agree on matches"),
        }
        rows.push((
            name.to_string(),
            vec![
                format!("{:.1}", stats.steps as f64 / stats.events as f64),
                format!("{}", pst.expanded_node_count()),
                format!("{}", pst.node_count()),
            ],
        ));
    }
    print_table(
        "Ablation A1: attribute ordering x trivial test elimination (5,000 subscriptions)",
        "configuration",
        &["steps/event", "tree nodes", "kept as"],
        &rows,
    );
    for (name, seen) in [("observed", &observed), ("observed + TTE", &observed_tte)] {
        println!(
            "{name}: settled in {:?} after {} walked events, {} rebuilds of which {} \
             taken back; link-matching walk {:.1} -> {:.1} steps/event; modelled cost \
             {:.2} against {:.2} for {:?}, which would walk {:.1}",
            seen.order,
            seen.walked,
            seen.rebuilds,
            seen.reverts,
            seen.steps_before,
            seen.steps_after,
            seen.cost,
            seen.proposed_cost,
            seen.proposed,
            seen.steps_proposed
        );
    }
    println!(
        "\nPaper heuristic (fewest `*` near the root) + trivial test elimination is\n\
         the winning configuration. Note the interaction: early partitioning by\n\
         selective attributes duplicates `*`-chains across subtrees, so the\n\
         heuristic *needs* chain skipping to pay off."
    );
}

/// Where a broker's engine ends up when it orders the attributes itself.
#[derive(Default)]
struct Observed {
    /// The order it settled in.
    order: Vec<usize>,
    walked: usize,
    rebuilds: usize,
    /// Rebuilds that went back to the order before, the first interval
    /// under the new one having walked no fewer steps.
    reverts: usize,
    /// Arena steps per event over the first and over the last pass.
    steps_before: f64,
    steps_after: f64,
    /// What the last evidence made of the settled order, and of the order
    /// it would have liked better.
    cost: f64,
    proposed_cost: f64,
    proposed: Vec<usize>,
    /// Arena steps per event of an engine built in `proposed`.
    steps_proposed: f64,
}

fn observe(schema: &EventSchema, subs: &[Subscription], events: &[Event], tte: bool) -> Observed {
    let mut net = NetworkBuilder::new();
    let brokers = net.add_brokers(2);
    net.connect(brokers[0], brokers[1], 5.0).unwrap();
    let home = brokers[1];
    let clients: Vec<_> = (0..32).map(|_| net.add_client(home).unwrap()).collect();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();
    let tree = fabric.tree_for(brokers[0]).unwrap();
    let local = subs.iter().enumerate().map(|(i, sub)| {
        let subscriber = SubscriberId::new(home, clients[i % clients.len()]);
        Subscription::new(sub.id(), subscriber, sub.predicate().clone())
    });
    let mut engine = LinkMatchEngine::with_subscriptions(
        home,
        schema.clone(),
        PstOptions::default().with_trivial_test_elimination(tte),
        LinkSpace::build(fabric.network(), fabric.forest(), home),
        local,
    )
    .unwrap();

    let mut scratch = RouteScratch::new();
    let mut links = Vec::new();
    let mut seen = Observed::default();
    let mut replaced: Option<Vec<usize>> = None;
    let mut quiet_checks = 0;
    while quiet_checks < 4 {
        let mut pass = MatchStats::new();
        for event in events {
            engine.match_links_into(event, tree, &mut scratch, &mut pass, &mut links);
            seen.walked += 1;
            let due = scratch.order_check_due();
            if due {
                let report = engine.order_report(&scratch);
                (seen.cost, seen.proposed_cost) = (report.current_cost, report.proposed_cost);
                seen.proposed = report.proposed;
            }
            let before = engine.pst().order().to_vec();
            if engine.adapt_order(&mut scratch) {
                seen.rebuilds += 1;
                quiet_checks = 0;
                let went_back = replaced.as_deref() == Some(engine.pst().order());
                seen.reverts += usize::from(went_back);
                replaced = (!went_back).then_some(before);
            } else if due {
                quiet_checks += 1;
                replaced = None;
            }
        }
        if seen.walked == events.len() {
            seen.steps_before = pass.steps_per_event();
        }
        seen.steps_after = pass.steps_per_event();
    }
    seen.order = engine.pst().order().to_vec();

    // What the walk would cost in the order the evidence liked better —
    // what the factor-of-two rule passed up, or was right to.
    let subscriptions: Vec<_> = engine.pst().subscriptions().cloned().collect();
    let liked = LinkMatchEngine::with_subscriptions(
        home,
        schema.clone(),
        (engine.pst().options().clone()).with_order(OrderPolicy::Explicit(seen.proposed.clone())),
        LinkSpace::build(fabric.network(), fabric.forest(), home),
        subscriptions,
    )
    .unwrap();
    let mut pass = MatchStats::new();
    for event in events {
        liked.match_links_into(event, tree, &mut scratch, &mut pass, &mut links);
    }
    seen.steps_proposed = pass.steps_per_event();
    seen
}
