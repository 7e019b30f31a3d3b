//! Subscription audit: use the covering relation (SIENA-style, from the
//! paper's related work) to find which subscriptions another one subsumes
//! — then look at what the broker's match-time arena makes of the table,
//! and at the reasons it gives for the order it tests attributes in.
//!
//! Run with: `cargo run --example subscription_audit`

use linkcast::matching::MatchStats;
use linkcast::matching::PstOptions;
use linkcast::types::{
    parse_predicate, BrokerId, ClientId, Event, EventSchema, SubscriberId, Subscription,
    SubscriptionId, Value, ValueKind,
};
use linkcast::{LinkMatchEngine, LinkSpace, NetworkBuilder, RouteScratch, SpanningForest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = EventSchema::builder("trades")
        .attribute("issue", ValueKind::Str)
        .attribute("price", ValueKind::Dollar)
        .attribute("volume", ValueKind::Int)
        .build()?;

    // A trading desk has accumulated subscriptions over time; several are
    // subsumed by broader ones registered later.
    let desk = SubscriberId::new(BrokerId::new(0), ClientId::new(0));
    let expressions = [
        r#"issue = "IBM" & price < 120.00 & volume > 1000"#, // narrow
        r#"issue = "IBM" & price < 150.00"#,                 // covers the line above
        r#"issue = "IBM""#,                                  // covers both above
        r#"volume > 500000"#,                                // independent
        r#"issue = "GE" & volume > 1000"#,                   // independent
        r#"issue = "GE" & volume > 5000"#,                   // covered by the previous line
        r#"issue = "HP" & price < 40.00 & volume > 2000"#,   // independent, alone under "HP"
    ];
    let subscriptions: Vec<Subscription> = expressions
        .iter()
        .enumerate()
        .map(|(i, expr)| {
            Ok::<_, Box<dyn std::error::Error>>(Subscription::new(
                SubscriptionId::new(i as u32),
                desk,
                parse_predicate(&schema, expr)?,
            ))
        })
        .collect::<Result<_, _>>()?;

    println!("registered subscriptions:");
    for (sub, expr) in subscriptions.iter().zip(&expressions) {
        println!("  {}: {}", sub.id(), expr);
    }

    // Pairwise covering report.
    println!("\ncovering relations found:");
    for a in &subscriptions {
        for b in &subscriptions {
            if a.id() != b.id() && a.predicate().covers(b.predicate()) {
                println!("  {} covers {}", a.id(), b.id());
            }
        }
    }

    // A broker's engine flattens the annotated tree into an arena and folds
    // every single-choice run — nodes with one way on and nothing new to
    // say about any link — into one node with a prefix of tests. Here the
    // "HP" subscription's `price` node is one: its `volume` node decides.
    let mut net = NetworkBuilder::new();
    let (edge, core) = (net.add_broker(), net.add_broker());
    net.connect(edge, core, 5.0)?;
    net.add_client(edge)?; // the desk
    let network = net.build()?;
    let forest = SpanningForest::compute(&network);
    let mut engine = LinkMatchEngine::with_subscriptions(
        core,
        schema.clone(),
        PstOptions::default(),
        LinkSpace::build(&network, &forest, core),
        subscriptions,
    )?;
    let arena = engine.arena().summary();
    println!("\nmatch arena: {arena:?}");
    assert_eq!(arena.covered_nodes, engine.pst().expanded_node_count());
    assert_eq!((arena.runs, arena.prefix_tests), (1, 1));

    // The engine counts what its walks test, and between events asks
    // whether another attribute order would have cost less. A day of
    // small-lot trades in four issues: every `volume` test fails, so the
    // evidence asks for `volume` first — but six of the seven
    // subscriptions hang off one `issue` lookup already, and the modelled
    // gain stays under the factor of two a rebuild has to promise.
    let tree = forest.tree_for_root(core).expect("rooted at core");
    let mut scratch = RouteScratch::new();
    let (mut stats, mut links) = (MatchStats::new(), Vec::new());
    for i in 0..255i64 {
        let issue = ["IBM", "GE", "HP", "MSFT"][i as usize % 4];
        let values = [
            Value::str(issue),
            Value::dollar(100 + i % 60, 0),
            Value::Int(100 + i),
        ];
        let event = Event::from_values(&schema, values)?;
        engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut links);
        assert!(
            !engine.adapt_order(&mut scratch),
            "no check before 256 walks"
        );
    }
    let report = engine.order_report(&scratch);
    println!("\nattribute order after {} walked events:", report.walks);
    for level in &report.levels {
        let name = schema.attribute(level.attribute).map_or("?", |a| a.name());
        println!(
            "  level {}: {name:<6} constrained by {}, {}/{} tests held, survival {:.2}",
            level.position, level.constrained, level.passed, level.tested, level.survival
        );
    }
    println!(
        "  modelled cost {:.2}; {:.2} in the order {:?}: {}",
        report.current_cost,
        report.proposed_cost,
        report.proposed,
        if report.worth_rebuilding() {
            "rebuild"
        } else {
            "stay"
        }
    );
    Ok(())
}
