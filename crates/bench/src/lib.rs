//! Shared scaffolding for the chart-regeneration binaries and Criterion
//! benches.
//!
//! One binary per paper artifact (see `DESIGN.md` §4 for the experiment
//! index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `chart1_saturation` | Chart 1 — saturation publish rate vs subscriptions |
//! | `chart2_matching_steps` | Chart 2 — matching steps, LM 1–6 hops vs centralized |
//! | `chart3_matching_time` | Chart 3 — matching time vs subscriptions |
//! | `throughput_prototype` | §4.2 — broker events/second |
//! | `ablation_ordering` | §2 attribute-ordering heuristic |
//! | `ablation_factoring` | §2.1 factoring levels |
//! | `ablation_virtual_links` | §3.2 footnote 1 |
//! | `ablation_bursty` | §6 bursty loads |
//!
//! Chart 3's two baseline matchers live here too, off the library's
//! shipped path: [`NaiveMatcher`] (a linear scan) and [`GatingMatcher`]
//! (Hanson et al.'s gating-test index), and so does A2's measure of the
//! search graph, [`shared_node_count`].

mod gating;
mod naive;
mod psg;

pub use gating::GatingMatcher;
pub use naive::NaiveMatcher;
pub use psg::shared_node_count;

use linkcast_types::{BrokerId, ClientId, EventSchema, SubscriberId, Subscription, SubscriptionId};
use linkcast_workload::{SubscriptionGenerator, WorkloadConfig};
use rand::Rng;

/// Renders a table of (x, series...) rows with aligned columns — every
/// chart binary prints the same shape the paper plots.
pub fn print_table(title: &str, x_label: &str, series: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
    let mut widths: Vec<usize> = Vec::with_capacity(series.len() + 1);
    widths.push(
        rows.iter()
            .map(|(x, _)| x.len())
            .chain([x_label.len()])
            .max()
            .unwrap_or(8),
    );
    for (i, s) in series.iter().enumerate() {
        widths.push(
            rows.iter()
                .map(|(_, cells)| cells.get(i).map_or(0, String::len))
                .chain([s.len()])
                .max()
                .unwrap_or(8),
        );
    }
    print!("{:>w$}", x_label, w = widths[0]);
    for (i, s) in series.iter().enumerate() {
        print!("  {:>w$}", s, w = widths[i + 1]);
    }
    println!();
    for (x, cells) in rows {
        print!("{:>w$}", x, w = widths[0]);
        for (i, c) in cells.iter().enumerate() {
            print!("  {:>w$}", c, w = widths[i + 1]);
        }
        println!();
    }
}

/// Generates `count` subscriptions against the workload's schema for a
/// stand-alone (single-broker) matcher: all subscribers are nominal clients
/// of broker 0.
pub fn standalone_subscriptions(
    config: &WorkloadConfig,
    count: usize,
    seed: u64,
    rng: &mut impl Rng,
) -> (EventSchema, Vec<Subscription>) {
    let generator = SubscriptionGenerator::new(config, seed);
    let schema = generator.schema().clone();
    let subs = (0..count)
        .map(|i| {
            let region = i % config.regions;
            let predicate = generator.generate_predicate(rng, region);
            Subscription::new(
                SubscriptionId::new(i as u32),
                SubscriberId::new(BrokerId::new(0), ClientId::new((i % 100) as u32)),
                predicate,
            )
        })
        .collect();
    (schema, subs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standalone_subscriptions_fit_schema() {
        let config = WorkloadConfig::chart2();
        let mut rng = StdRng::seed_from_u64(1);
        let (schema, subs) = standalone_subscriptions(&config, 50, 1, &mut rng);
        assert_eq!(subs.len(), 50);
        for s in &subs {
            assert_eq!(s.predicate().tests().len(), schema.arity());
        }
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "Demo",
            "x",
            &["a", "b"],
            &[
                ("1".into(), vec!["10".into(), "20".into()]),
                ("2".into(), vec!["30".into(), "40".into()]),
            ],
        );
    }
}
