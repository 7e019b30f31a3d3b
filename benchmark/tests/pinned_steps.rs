//! Matching steps per event, broker by broker, for seed 1 — pinned.
//!
//! `match_steps_per_event` is the one end-to-end metric that must repeat
//! *exactly*, and it does only while the table install is deterministic:
//! when decoys were installed concurrently at several brokers, each broker
//! inserted them in flood-arrival order and the sum flipped between 16393
//! and ~26600 from run to run. These constants make a regression to a racy
//! install (in the harness) or a change in tree shape (in the matcher)
//! fail loudly instead of reading as noise.
//!
//! The benchmark run itself does not compare against these numbers — a
//! matcher change that legitimately lowers them must still be measurable —
//! it only requires that its own set-ups agree with one another. Whoever
//! changes the walk re-pins them here in a benchmark-only change.
//!
//! Building a 2048-chain table is slow unoptimised, so `Cargo.toml` has
//! the test profile optimise: a plain `cargo test` runs all three pins.

use linkcast_benchmark::inputs::{self, Spec};
use linkcast_benchmark::rig::{Cluster, Env, BROKERS};
use linkcast_benchmark::run::{probe, PROBE_EVENTS};

/// Steps per event at A, B, C for seed 1.
const RELAY_STEPS: [u64; BROKERS] = [3, 3, 3];
const MATCH_STEPS: [u64; BROKERS] = [5461, 5466, 5466];

fn steps_per_event(spec: Spec) -> [u64; BROKERS] {
    // Under benchmark/out/ (git-ignored), unique per test: the durable
    // workload's WALs go there.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{}", std::process::id(), spec.name));
    let env = Env::unpinned(&out);
    let mut cluster = Cluster::build(spec, 1, &env, None).expect("cluster builds");
    let fingerprint = probe(&mut cluster, &inputs::volumes(&spec, 1)).expect("probe events arrive");
    let baseline = linkcast_benchmark::procfs::thread_ids().len();
    cluster.teardown(baseline);
    let _ = std::fs::remove_dir_all(&out);
    fingerprint.map(|(steps, events)| {
        assert_eq!(
            events, PROBE_EVENTS,
            "every broker matches every probe event once"
        );
        assert_eq!(
            steps % events,
            0,
            "every probe event costs a broker the same walk"
        );
        steps / events
    })
}

#[test]
fn relay_steps_are_pinned() {
    assert_eq!(steps_per_event(inputs::spec("relay").unwrap()), RELAY_STEPS);
}

#[test]
fn durable_walks_the_same_table_as_relay() {
    assert_eq!(
        steps_per_event(inputs::spec("durable").unwrap()),
        RELAY_STEPS
    );
}

#[test]
fn match_steps_are_pinned_and_repeat() {
    let spec = inputs::spec("match").unwrap();
    assert_eq!(steps_per_event(spec), MATCH_STEPS);
    assert_eq!(
        steps_per_event(spec),
        MATCH_STEPS,
        "a second build of the same inputs"
    );
}
