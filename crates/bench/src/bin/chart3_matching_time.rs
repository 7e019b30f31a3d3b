//! **Chart 3 — Performance of matching**: "brokers can perform matching
//! very quickly, at the rate of about 4ms for 25,000 subscribers" (on a
//! 200 MHz Pentium Pro). Average wall-clock matching time per event as the
//! subscription count grows to 30,000, for the PST and the two baseline
//! matchers.
//!
//! The absolute numbers on modern hardware are far smaller; the shape —
//! sublinear growth for the PST, linear for the naive scan — is the result.
//!
//! Run with: `cargo run --release -p linkcast-bench --bin chart3_matching_time`

use std::time::Instant;

use linkcast_bench::{print_table, standalone_subscriptions, GatingMatcher, NaiveMatcher};
use linkcast_matching::{Matcher, Pst, PstOptions};
use linkcast_workload::{EventGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let wconfig = WorkloadConfig::chart1();
    let events_gen = EventGenerator::new(&wconfig, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let trials = 2_000;

    let sub_counts = [1000usize, 5000, 10000, 15000, 20000, 25000, 30000];
    let mut rows = Vec::new();
    for &subs in &sub_counts {
        let (schema, subscriptions) = standalone_subscriptions(&wconfig, subs, 3, &mut rng);
        let pst = Pst::build(
            schema.clone(),
            subscriptions.iter().cloned(),
            PstOptions::default(),
        )
        .unwrap();
        let mut naive = NaiveMatcher::new(schema.clone());
        let mut gating = GatingMatcher::new(schema.clone());
        for s in &subscriptions {
            naive.insert(s.clone()).unwrap();
            gating.insert(s.clone()).unwrap();
        }
        let events: Vec<_> = (0..trials)
            .map(|i| events_gen.generate(&mut rng, i % wconfig.regions))
            .collect();

        // Warm and validate: all three matchers agree.
        for e in events.iter().take(50) {
            assert_eq!(pst.matches(e), naive.matches(e));
            assert_eq!(pst.matches(e), gating.matches(e));
        }

        let time_per_event = |matcher: &dyn Matcher| -> f64 {
            let start = Instant::now();
            let mut found = 0usize;
            for e in &events {
                found += matcher.matches(e).len();
            }
            std::hint::black_box(found);
            start.elapsed().as_secs_f64() * 1e3 / trials as f64
        };
        let pst_ms = time_per_event(&pst);
        let naive_ms = time_per_event(&naive);
        let gating_ms = time_per_event(&gating);

        rows.push((
            subs.to_string(),
            vec![
                format!("{:.4}", pst_ms),
                format!("{:.4}", gating_ms),
                format!("{:.4}", naive_ms),
                format!("{:.1}x", naive_ms / pst_ms),
            ],
        ));
        eprintln!("subs={subs} done");
    }

    print_table(
        "Chart 3: average matching time per event (ms)",
        "subscriptions",
        &["PST", "gating [9]", "naive scan", "naive/PST"],
        &rows,
    );
    println!(
        "\nPaper: ~4 ms at 25,000 subscribers on 1999 hardware, growing sublinearly.\n\
         The PST column should grow far slower than the subscription count; the\n\
         naive column grows linearly."
    );
}
