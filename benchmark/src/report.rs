//! The metric registry (names, units, directions, bounds — the same list
//! `BENCHMARK.json` declares) and the two output formats: one
//! `metric <workload> <name> <value> <unit>` line per metric for people
//! and the self-check, and the final one-line JSON object for the driver.

use crate::run::{Metric, Outcome};

/// An end-to-end metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, one row per metric per workload: the ones a
/// later change is gated on.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "match_steps_per_event",
        unit: "steps",
        higher_is_better: false,
        bound: 0.02,
    },
];

/// The chain's timed end-to-end figures. They are what a user of the
/// chain sees, but ten runs of one binary spread them 9-60 % on the
/// reference host (README, "Self-check"), past any bound worth gating on,
/// so they are reported with every run and never gated.
pub const REPORTED: [&str; 3] = [
    "chain.goodput_eps",
    "chain.cpu_us_per_event",
    "chain.lat_p50_us",
];

/// Per-layer metrics: `(name, unit, higher is better)`. Layer = crate or
/// module; `chain.*` is the whole chain ([`REPORTED`]), `gen.*` the load
/// generator's own health, reported so a number can be distrusted when
/// the generator, not the system, was late.
pub const PER_LAYER: [(&str, &str, bool); 51] = [
    ("chain.goodput_eps", "1/s", true),
    ("chain.cpu_us_per_event", "us", false),
    ("chain.lat_p50_us", "us", false),
    ("types.event_encode_ns", "ns", false),
    ("types.event_decode_ns", "ns", false),
    ("types.predicate_parse_ns", "ns", false),
    ("matching.pst_insert_ns", "ns", false),
    ("matching.pst_remove_ns", "ns", false),
    ("core.route_ns", "ns", false),
    ("core.route_steps", "steps", false),
    ("core.arena_nodes", "count", false),
    ("core.cache_hit_ns", "ns", false),
    ("core.subscribe_ns", "ns", false),
    ("core.unsubscribe_ns", "ns", false),
    ("core.cache_hit_ratio", "ratio", true),
    ("core.cache_invalidations_per_kevent", "count", false),
    ("core.route_cpu_share_pct", "%", false),
    ("broker.protocol.publish_decode_ns", "ns", false),
    ("broker.protocol.forward_codec_ns", "ns", false),
    ("broker.protocol.deliver_encode_ns", "ns", false),
    ("broker.log.append_ack_ns", "ns", false),
    ("broker.storage.device_sync_us", "us", false),
    ("broker.storage.appends_per_event", "count", false),
    ("broker.storage.snapshots_per_kevent", "count", false),
    ("broker.storage.append_ns", "ns", false),
    ("broker.storage.sync_ns", "ns", false),
    ("broker.storage.snapshot_ns", "ns", false),
    ("broker.storage.syncs_per_event", "count", false),
    ("broker.storage.bytes_per_event", "bytes", false),
    ("broker.storage.cpu_share_pct", "%", false),
    ("broker.spooled_per_event", "count", false),
    ("broker.retransmitted", "count", false),
    ("broker.spool_overflow_drops", "count", false),
    ("broker.queued_frames_p50", "count", false),
    ("broker.queued_frames_max", "count", false),
    ("broker.ctx_switches_per_event", "count", false),
    ("broker.threads", "count", false),
    ("broker.rss_mb", "MiB", false),
    ("broker.transport.write_ns", "ns", false),
    ("broker.transport.frames_per_write", "count", true),
    ("broker.transport.writes_per_event", "count", false),
    ("broker.transport.reads_per_event", "count", false),
    ("broker.transport.bytes_per_event", "bytes", false),
    ("broker.unexplained_us", "us", false),
    ("gen.trace_overhead_pct", "%", false),
    ("gen.lat_p90_us", "us", false),
    ("gen.lat_p99_us", "us", false),
    ("gen.late_p99_us", "us", false),
    ("gen.late_max_us", "us", false),
    ("gen.cpu_us_per_event", "us", false),
    ("gen.window_iqr_pct", "%", false),
];

/// Unit of a metric, by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, u, _)| *u)
        })
        .unwrap_or("?")
}

/// A measured number as JSON: every digit `f64` carries, and 0 in place
/// of a non-finite value JSON cannot express.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints one line per metric.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for (name, value) in metrics {
        println!(
            "metric {workload} {name} {} {}",
            json_number(*value),
            unit_of(name)
        );
    }
}

/// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// With `trace` the metrics are every per-layer metric (0 for one this
/// run did not measure), without it every end-to-end metric.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let row = |set: &[Metric], name: &str, unit: &str| -> String {
        let value = set
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        )
    };
    let body: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| row(&outcome.per_layer, name, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| row(&outcome.end_to_end, m.name, m.unit))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this registry is what
    /// the binary prints. They must name the same metrics with the same
    /// units, directions and bounds.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let (end_to_end, per_layer) = text
            .split_once("\"per_layer\"")
            .expect("per_layer follows end_to_end");
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(end_to_end.contains(&row), "end_to_end lacks {row}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let row =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(per_layer.contains(&row), "per_layer lacks {row}");
        }
        assert_eq!(
            per_layer.matches("\"name\"").count(),
            PER_LAYER.len(),
            "BENCHMARK.json lists per-layer metrics the binary does not print"
        );
        for spec in crate::inputs::WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\", \"why\":", spec.name)),
                "workloads lacks {}",
                spec.name
            );
            let rates = format!("W={} R={} B={}", spec.window, spec.rate, spec.burst);
            assert!(text.contains(&rates), "{}: why lacks {rates}", spec.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: vec![("setup_s", 0.25), ("match_steps_per_event", f64::NAN)],
            per_layer: vec![("core.route_ns", 12.5)],
            ..Outcome::default()
        };
        let line = result_line(&outcome, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"match_steps_per_event\": {\"value\": 0, \"unit\": \"steps\"}"));
        assert!(!line.contains("core.route_ns"));
        let traced = result_line(&outcome, true);
        assert!(traced.contains("\"core.route_ns\": {\"value\": 12.5, \"unit\": \"ns\"}"));
        assert!(!traced.contains("setup_s"));
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
