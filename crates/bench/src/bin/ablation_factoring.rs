//! **Ablation A2 — factoring levels** (§2.1): "Some search steps can be
//! avoided, at the cost of increased space, by factoring out certain
//! attributes ... A separate subtree is built for each possible value."
//!
//! Sweeps 0–3 factored attributes on the Chart 1 workload, one schema per
//! level (a schema declares what its trees factor), and reports the
//! time/space trade-off: matching steps per event vs tree nodes. The two
//! "PSG" columns read the parallel search *graph* (§2.1's DAG) off the
//! same tree: its nodes are the tree's once identical subtrees are shared
//! ([`shared_node_count`]), and its walk enters every node the tree's
//! does, plus the `*`-only nodes the tree's trivial test elimination
//! skips ([`MatchStats::skipped`]).
//!
//! Run with: `cargo run --release -p linkcast-bench --bin ablation_factoring`

use linkcast_bench::{print_table, shared_node_count, standalone_subscriptions};
use linkcast_matching::{MatchStats, Matcher, Pst, PstOptions};
use linkcast_workload::{EventGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let wconfig = WorkloadConfig::chart1();
    let mut rng = StdRng::seed_from_u64(17);
    let (_, subs) = standalone_subscriptions(&wconfig, 8_000, 17, &mut rng);
    let events_gen = EventGenerator::new(&wconfig, 17);
    let events: Vec<_> = (0..2_000)
        .map(|i| events_gen.generate(&mut rng, i % wconfig.regions))
        .collect();

    let mut rows = Vec::new();
    let mut reference: Option<Vec<Vec<linkcast_types::SubscriptionId>>> = None;
    for factoring in 0..=3 {
        let schema = WorkloadConfig {
            factoring_levels: factoring,
            ..wconfig.clone()
        }
        .schema();
        let pst = Pst::build(schema, subs.iter().cloned(), PstOptions::default()).unwrap();
        let mut stats = MatchStats::new();
        let results: Vec<_> = events
            .iter()
            .map(|e| pst.matches_with_stats(e, &mut stats))
            .collect();
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(r, &results, "factoring must not change matches"),
        }
        let per_event = |steps: u64| format!("{:.1}", steps as f64 / stats.events as f64);
        rows.push((
            factoring.to_string(),
            vec![
                per_event(stats.steps),
                format!("{}", pst.expanded_node_count()),
                format!("{}", pst.node_count()),
                format!("{}", pst.roots().count()),
                per_event(stats.steps + stats.skipped),
                format!("{}", shared_node_count(&pst)),
            ],
        ));
    }
    print_table(
        "Ablation A2: factoring levels (8,000 subscriptions, Chart 1 workload)",
        "factored attrs",
        &[
            "steps/event",
            "tree nodes",
            "kept as",
            "subtrees",
            "PSG steps",
            "PSG nodes",
        ],
        &rows,
    );
    println!(
        "\nPaper trade-off: each factored level replaces search steps with a table\n\
         lookup (steps/event drops) while replicating `*` subscriptions across\n\
         value subtrees (node count grows). Sharing identical subtrees, as the\n\
         parallel search graph does (the paper's DAG remark in §2.1), folds the\n\
         replicas back together: PSG nodes barely grow with factoring.\n\
         Sharing does not cut steps — each event enters exactly one factored\n\
         subtree — and the graph walk enters the `*`-only nodes the tree's\n\
         trivial-test elimination skips, so PSG steps are the tree's without it."
    );
}
