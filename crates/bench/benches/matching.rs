//! Criterion bench behind Chart 3: single-broker matching latency for the
//! PST vs the naive and gating baselines, across subscription counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use linkcast_bench::{standalone_subscriptions, GatingMatcher, NaiveMatcher};
use linkcast_matching::{Matcher, Pst, PstOptions};
use linkcast_workload::{EventGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_matching(c: &mut Criterion) {
    let wconfig = WorkloadConfig::chart1();
    let events_gen = EventGenerator::new(&wconfig, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let events: Vec<_> = (0..256)
        .map(|i| events_gen.generate(&mut rng, i % wconfig.regions))
        .collect();

    let mut group = c.benchmark_group("matching");
    group.sample_size(12);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for subs in [1_000usize, 10_000, 25_000] {
        let (schema, subscriptions) = standalone_subscriptions(&wconfig, subs, 3, &mut rng);
        let pst = Pst::build(
            schema.clone(),
            subscriptions.iter().cloned(),
            PstOptions::default(),
        )
        .unwrap();
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::new("pst", subs), &events, |b, events| {
            b.iter(|| {
                let mut total = 0usize;
                for e in events {
                    total += pst.matches(black_box(e)).len();
                }
                total
            })
        });
        let mut gating = GatingMatcher::new(schema.clone());
        for s in &subscriptions {
            gating.insert(s.clone()).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("gating", subs), &events, |b, events| {
            b.iter(|| {
                let mut total = 0usize;
                for e in events {
                    total += gating.matches(black_box(e)).len();
                }
                total
            })
        });
        // The naive scan at 25k subscriptions is slow; bench it only at the
        // smaller sizes to keep the suite fast.
        if subs <= 10_000 {
            let mut naive = NaiveMatcher::new(schema.clone());
            for s in &subscriptions {
                naive.insert(s.clone()).unwrap();
            }
            group.bench_with_input(BenchmarkId::new("naive", subs), &events, |b, events| {
                b.iter(|| {
                    let mut total = 0usize;
                    for e in events {
                        total += naive.matches(black_box(e)).len();
                    }
                    total
                })
            });
        }
    }
    group.finish();
}

fn bench_insertion(c: &mut Criterion) {
    let wconfig = WorkloadConfig::chart1();
    let mut rng = StdRng::seed_from_u64(5);
    let (schema, subscriptions) = standalone_subscriptions(&wconfig, 5_000, 5, &mut rng);

    let mut group = c.benchmark_group("pst_build");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("build_5000", |b| {
        b.iter(|| {
            Pst::build(
                schema.clone(),
                subscriptions.iter().cloned(),
                PstOptions::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_matching, bench_insertion);
criterion_main!(benches);
