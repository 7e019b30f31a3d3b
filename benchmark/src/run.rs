//! One workload, start to finish: set-up (several times, timed), closed
//! loop, open loop, drain, oracle, metrics.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{spawn_receiver, CpuProbe, OpenLoop, Publisher, ReceiverReport, Shared, Snapshot};
use crate::inputs::{self, EventFactory, Spec};
use crate::layers;
use crate::procfs;
use crate::rig::{Cluster, Counters, Env, BROKERS};
use crate::stats::{iqr_share, median, percentile, sorted, window_rates};
use crate::trace::{Kind, Phase, Tracer};

/// Events the main thread pushes through each freshly built cluster
/// before anything is measured. Their matching cost, broker by broker, is
/// the table's fingerprint: equal inputs must give equal fingerprints, or
/// the install was not deterministic.
pub const PROBE_EVENTS: u64 = 32;
/// Length of one closed-loop measurement window, seconds. Goodput and CPU
/// per event are medians over the windows, so a host stall that spoils a
/// minority of them does not move the result.
pub const WINDOW_S: f64 = 1.0;
/// Unmeasured lead-in of the closed and of the open loop, seconds.
const LEAD_IN_S: f64 = 1.5;
/// How long the final drain may take before missing events count as failed.
const DRAIN: Duration = Duration::from_secs(10);

/// How long each phase of a run lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Clusters built (and timed); all but the last are torn down at once.
    pub setups: usize,
    /// Closed loop: unmeasured lead-in, seconds.
    pub closed_warm_s: f64,
    /// Closed loop: measured windows of [`WINDOW_S`] (untraced).
    pub closed_windows: usize,
    /// Closed loop: further measured windows with tracing on (`--trace 1`).
    pub traced_windows: usize,
    /// Open loop: unmeasured lead-in, seconds.
    pub open_warm_s: f64,
    /// Open loop: measured seconds.
    pub open_s: f64,
    /// `--trace 1`: per-layer microbenchmarks and wrappers on.
    pub trace: bool,
}

impl Plan {
    /// The plan for `--seconds seconds`: the time the chain spends under
    /// load — both lead-ins included — adds up to `seconds`, five ninths of
    /// the measured part closed loop, the rest open loop.
    pub fn new(seconds: u64, trace: bool, quick: bool) -> Plan {
        if quick {
            return Plan {
                setups: 1,
                closed_warm_s: 0.5,
                closed_windows: 2,
                traced_windows: 0,
                open_warm_s: 0.5,
                open_s: 2.0,
                trace,
            };
        }
        let measured = (seconds as f64 - 2.0 * LEAD_IN_S).max(2.0);
        let closed = (measured * 5.0 / 9.0).round().max(1.0);
        let open_s = (measured - closed).max(1.0);
        // A traced run measures a third of its closed loop with the
        // wrappers idle (the overhead baseline) and the rest, like the
        // whole open loop, with them recording.
        let untraced = if trace {
            (closed / 3.0).round().max(1.0)
        } else {
            closed
        };
        Plan {
            setups: if trace { 1 } else { 3 },
            closed_warm_s: LEAD_IN_S,
            closed_windows: (untraced / WINDOW_S) as usize,
            traced_windows: ((closed - untraced) / WINDOW_S) as usize,
            open_warm_s: LEAD_IN_S,
            open_s,
            trace,
        }
    }
}

/// A metric value with its name.
pub type Metric = (&'static str, f64);

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every oracle check passed.
    pub correct: bool,
    /// Events published in measured phases.
    pub attempted: u64,
    /// Events not delivered exactly once, in order, before the drain
    /// deadline (all of them, if any other oracle check failed).
    pub failed: u64,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer and generator-health metrics measured in this run (all of
    /// them on a `--trace 1` run; those that need neither wrappers nor
    /// microbenchmarks otherwise).
    pub per_layer: Vec<Metric>,
    /// Oracle violations, for the log.
    pub violations: Vec<String>,
    /// Latency sample size behind `lat_p50_us`.
    pub latency_samples: usize,
    /// Spans written to the trace file (`--trace 1`).
    pub spans_written: usize,
}

/// Per-broker `(steps, events matched)` after the probe events.
pub type Fingerprint = [(u64, u64); BROKERS];

/// Pushes [`PROBE_EVENTS`] through a fresh cluster from the calling
/// thread and returns the matching cost they incurred at each broker.
///
/// # Errors
///
/// Publish/receive failures or a probe event that never arrives.
pub fn probe(cluster: &mut Cluster, volumes: &[i64]) -> Result<Fingerprint, String> {
    let factory = EventFactory::new(&cluster.registry);
    let subscriber = cluster
        .subscriber
        .as_mut()
        .ok_or("probe needs the subscriber")?;
    for i in 0..PROBE_EVENTS {
        let event = factory.event(volumes[i as usize % volumes.len()], i as i64 - 1_000_000);
        cluster
            .publisher
            .publish(&event)
            .map_err(|e| format!("probe publish failed: {e}"))?;
    }
    let mut last = 0;
    for _ in 0..PROBE_EVENTS {
        let (seq, _) = subscriber
            .recv_unacked(Duration::from_secs(10))
            .map_err(|e| format!("probe event lost: {e}"))?;
        last = seq;
    }
    subscriber.ack(last).map_err(|e| e.to_string())?;
    let counters = cluster.counters();
    let mut fp = [(0, 0); BROKERS];
    for (slot, m) in fp.iter_mut().zip(counters.matching.iter()) {
        *slot = (m.steps, m.events);
    }
    Ok(fp)
}

fn delta(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Events delivered per second in each window between boundary snapshots.
fn delivery_rates(snapshots: &[Snapshot]) -> Vec<f64> {
    let points: Vec<(u64, u64)> = snapshots
        .iter()
        .map(|s| (s.t_ns as u64, s.delivered))
        .collect();
    window_rates(&points)
}

/// Σ over brokers of matching steps per event that walked the tree
/// (events answered by the match cache walk nothing and are left out of
/// the divisor; `core.cache_hit_ratio` says how many those were). Each
/// broker's quotient is taken on its own counters, so events still in
/// flight at a boundary cannot smear it: where every walk costs a broker
/// the same steps, the sum repeats exactly.
fn steps_per_event(first: &Counters, last: &Counters) -> f64 {
    first
        .matching
        .iter()
        .zip(last.matching.iter())
        .map(|(a, b)| {
            let walked = delta(a.events, b.events) - delta(a.cache_hits, b.cache_hits);
            ratio(delta(a.steps, b.steps), walked)
        })
        .sum()
}

/// Runs `spec` once.
///
/// # Errors
///
/// Harness failures that leave nothing to report (a cluster that cannot
/// be built, a publisher that cannot publish). Wrong *outputs* are not
/// errors: they come back as `correct = false` with the failed count.
pub fn run_workload(spec: Spec, seed: u64, plan: &Plan, env: &Env) -> Result<Outcome, String> {
    let volumes = inputs::volumes(&spec, seed);
    let baseline_threads = procfs::thread_ids().len();
    let tracer = plan.trace.then(Tracer::new);
    let mut violations: Vec<String> = Vec::new();

    // ---- set-up, several times ---------------------------------------------
    let mut setup_s: Vec<f64> = Vec::with_capacity(plan.setups);
    let mut fingerprints: Vec<Fingerprint> = Vec::with_capacity(plan.setups);
    let mut cluster = None;
    for i in 0..plan.setups {
        env.enter_sut_core();
        let last = i + 1 == plan.setups;
        let start = Instant::now();
        let mut built = Cluster::build(spec, seed, env, tracer.as_ref().filter(|_| last))?;
        setup_s.push(start.elapsed().as_secs_f64());
        fingerprints.push(probe(&mut built, &volumes)?);
        if last {
            cluster = Some(built);
        } else {
            built.teardown(baseline_threads);
        }
    }
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        violations.push(format!(
            "identical inputs built different tables: probe cost {fingerprints:?}"
        ));
    }
    let mut cluster = cluster.ok_or("plan asks for no set-up")?;

    // ---- generator -----------------------------------------------------------
    let shared = Arc::new(Shared::default());
    shared.delivered.store(PROBE_EVENTS, Ordering::Release);
    let sample_capacity = (spec.rate as f64 * plan.open_s) as usize + spec.burst as usize;
    let receiver = spawn_receiver(
        cluster.subscriber.take().ok_or("subscriber missing")?,
        cluster.churn.take(),
        spec,
        PROBE_EVENTS + 1,
        Arc::clone(&shared),
        env.clone(),
        sample_capacity,
        tracer.clone(),
    );
    while shared.receiver_tid.load(Ordering::Acquire) == 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    env.enter_gen_core();
    let probe_cpu = CpuProbe::new(&shared);
    let mut publisher = Publisher::new(
        &mut cluster,
        volumes,
        Arc::clone(&shared),
        probe_cpu,
        tracer.clone(),
    );
    publisher.published = PROBE_EVENTS;

    let phases = drive(&mut publisher, &spec, plan, tracer.as_deref(), &probe_cpu);
    let drained = publisher.drain(DRAIN);
    let published = publisher.published;
    let publisher_checksum = publisher.checksum;
    drop(publisher);
    shared.stop.store(true, Ordering::Release);
    let report: ReceiverReport = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_string())?;
    let final_counters = cluster.counters();
    let stray = cluster.stray_decoy_frames();

    // ---- oracle ---------------------------------------------------------------
    let phases = match phases {
        Ok(p) => p,
        Err(e) => {
            cluster.teardown(baseline_threads);
            return Err(e);
        }
    };
    if let Err(e) = drained {
        violations.push(e);
    }
    if let Some(e) = &report.error {
        violations.push(e.clone());
    }
    let delivered = report.delivered;
    if delivered != published {
        violations.push(format!("{published} published, {delivered} delivered"));
    }
    if report.order_violations > 0 {
        violations.push(format!(
            "{} deliveries duplicated, skipped or out of order",
            report.order_violations
        ));
    }
    // Both checksums start after the probe events.
    if delivered == published && report.checksum != publisher_checksum {
        violations.push("delivered events differ from published events".into());
    }
    if stray > 0 {
        violations.push(format!("{stray} events delivered to decoy subscribers"));
    }
    if let Some(churn) = &report.churn {
        if churn.violations > 0 {
            violations.push(format!(
                "churn client saw {} deliveries or errors",
                churn.violations
            ));
        }
        let expected = delivered / spec.churn_every - PROBE_EVENTS / spec.churn_every;
        if churn.steps != expected {
            violations.push(format!(
                "{} churn pairs for {delivered} deliveries, expected {expected}",
                churn.steps
            ));
        }
    }
    for (name, value) in [
        ("retransmitted", final_counters.retransmitted),
        (
            "dropped_spool_overflow",
            final_counters.dropped_spool_overflow,
        ),
        ("errors", final_counters.errors),
        ("protocol_errors", final_counters.protocol_errors),
    ] {
        if value != 0 {
            violations.push(format!("broker counter {name} = {value}, expected 0"));
        }
    }
    if phases.open.backlog_at_end >= spec.rate {
        violations.push(format!(
            "open loop ended {} events behind (>= 1 s at {}/s): rate not sustained",
            phases.open.backlog_at_end, spec.rate
        ));
    }

    // ---- metrics ----------------------------------------------------------------
    let closed = &phases.closed;
    let first = closed.first().ok_or("no closed-loop snapshot")?;
    let last = closed.last().ok_or("no closed-loop snapshot")?;
    let events = delta(first.delivered, last.delivered);
    let rates = delivery_rates(closed);
    let goodput = median(&rates);
    let per_window = |f: &dyn Fn(&Snapshot, &Snapshot) -> f64| -> Vec<f64> {
        closed.windows(2).map(|w| f(&w[0], &w[1])).collect()
    };
    let cpu_us = median(&per_window(&|a, b| {
        ratio(
            delta(a.sut_cpu_ns, b.sut_cpu_ns) / 1000.0,
            delta(a.delivered, b.delivered),
        )
    }));
    let gen_cpu_us = median(&per_window(&|a, b| {
        ratio(
            delta(a.gen_cpu_ns, b.gen_cpu_ns) / 1000.0,
            delta(a.delivered, b.delivered),
        )
    }));
    let latencies_us = sorted(
        report
            .latencies_ns
            .iter()
            .map(|&ns| ns as f64 / 1000.0)
            .collect(),
    );
    let lat_p50 = percentile(&latencies_us, 50.0);
    let late_us = sorted(
        phases
            .open
            .lateness
            .late_ns
            .iter()
            .map(|&ns| ns as f64 / 1000.0)
            .collect(),
    );
    let steps = steps_per_event(&first.counters, &last.counters);

    let mut outcome = Outcome {
        latency_samples: latencies_us.len(),
        ..Outcome::default()
    };
    outcome.end_to_end = vec![
        ("setup_s", median(&setup_s)),
        ("match_steps_per_event", steps),
    ];

    let fc = &first.counters;
    let lc = &last.counters;
    let hits = delta(
        fc.match_sum(|m| m.cache_hits),
        lc.match_sum(|m| m.cache_hits),
    );
    let misses = delta(
        fc.match_sum(|m| m.cache_misses),
        lc.match_sum(|m| m.cache_misses),
    );
    let queued = sorted(
        closed
            .iter()
            .map(|s| s.counters.queued_frames as f64)
            .collect(),
    );
    let mut layer: Vec<Metric> = vec![
        ("chain.goodput_eps", goodput),
        ("chain.cpu_us_per_event", cpu_us),
        ("chain.lat_p50_us", lat_p50),
        ("core.cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "core.cache_invalidations_per_kevent",
            ratio(
                delta(
                    fc.match_sum(|m| m.cache_invalidations),
                    lc.match_sum(|m| m.cache_invalidations),
                ) * 1000.0,
                events,
            ),
        ),
        (
            "broker.storage.appends_per_event",
            ratio(delta(fc.wal_appends, lc.wal_appends), events),
        ),
        (
            "broker.storage.snapshots_per_kevent",
            ratio(
                delta(fc.snapshot_writes, lc.snapshot_writes) * 1000.0,
                events,
            ),
        ),
        (
            "broker.spooled_per_event",
            ratio(delta(fc.spooled, lc.spooled), events),
        ),
        ("broker.retransmitted", final_counters.retransmitted as f64),
        (
            "broker.spool_overflow_drops",
            final_counters.dropped_spool_overflow as f64,
        ),
        ("broker.queued_frames_p50", percentile(&queued, 50.0)),
        ("broker.queued_frames_max", percentile(&queued, 100.0)),
        (
            "broker.ctx_switches_per_event",
            ratio(delta(phases.ctx_switches.0, phases.ctx_switches.1), events),
        ),
        ("broker.threads", phases.sut_threads as f64),
        ("broker.rss_mb", phases.rss_mb),
        ("gen.lat_p90_us", percentile(&latencies_us, 90.0)),
        ("gen.lat_p99_us", percentile(&latencies_us, 99.0)),
        ("gen.late_p99_us", percentile(&late_us, 99.0)),
        ("gen.late_max_us", percentile(&late_us, 100.0)),
        ("gen.cpu_us_per_event", gen_cpu_us),
        ("gen.window_iqr_pct", iqr_share(&rates) * 100.0),
    ];

    // ---- teardown, then what only a traced run can measure ---------------------
    cluster.teardown(baseline_threads);
    if let (Some(tracer), Some(traced)) = (tracer.as_ref(), phases.traced.as_ref()) {
        env.enter_sut_core();
        let direct = layers::measure(&spec, seed, &env.out_dir)?;
        let value = |name: &str| -> f64 {
            direct
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let t_first = traced.snapshots.first().ok_or("no traced snapshot")?;
        let t_last = traced.snapshots.last().ok_or("no traced snapshot")?;
        let t_events = delta(t_first.delivered, t_last.delivered);
        let totals = |kind| tracer.totals(&traced.phase, kind);
        let (write, read) = (totals(Kind::Write), totals(Kind::Read));
        let (append, sync, snapshot) = (
            totals(Kind::Append),
            totals(Kind::Sync),
            totals(Kind::Snapshot),
        );
        let traced_rates = delivery_rates(&traced.snapshots);
        let open_write = phases
            .open_phase
            .map_or(0.0, |p| tracer.totals(&p, Kind::Write).mean_ns());
        let hop_ns = value("broker.protocol.publish_decode_ns")
            + value("core.route_ns")
            + value("broker.protocol.deliver_encode_ns")
            + value("broker.log.append_ack_ns");
        let route_share = ratio(
            BROKERS as f64 * value("core.route_ns") / 1000.0 * 100.0,
            cpu_us,
        );
        layer.extend(direct.iter().copied());
        layer.extend([
            ("broker.transport.write_ns", write.mean_ns()),
            (
                "broker.transport.frames_per_write",
                ratio(write.frames as f64, write.calls as f64),
            ),
            (
                "broker.transport.writes_per_event",
                ratio(write.calls as f64, t_events),
            ),
            (
                "broker.transport.reads_per_event",
                ratio(read.calls as f64, t_events),
            ),
            (
                "broker.transport.bytes_per_event",
                ratio(write.bytes as f64, t_events),
            ),
            ("broker.storage.append_ns", append.mean_ns()),
            ("broker.storage.sync_ns", sync.mean_ns()),
            ("broker.storage.snapshot_ns", snapshot.mean_ns()),
            (
                "broker.storage.syncs_per_event",
                ratio(sync.calls as f64, t_events),
            ),
            (
                "broker.storage.bytes_per_event",
                ratio((append.bytes + snapshot.bytes) as f64, t_events),
            ),
            (
                // Time inside `Storage` calls (any device wait included)
                // as a share of the SUT's CPU time.
                "broker.storage.cpu_share_pct",
                ratio(
                    (append.ns + sync.ns + snapshot.ns) as f64 * 100.0,
                    delta(t_first.sut_cpu_ns, t_last.sut_cpu_ns),
                ),
            ),
            ("core.route_cpu_share_pct", route_share),
            (
                "broker.unexplained_us",
                lat_p50 - BROKERS as f64 * (hop_ns + open_write) / 1000.0,
            ),
            (
                "gen.trace_overhead_pct",
                (1.0 - ratio(median(&traced_rates), median(&rates))) * 100.0,
            ),
        ]);
        let path = env.out_dir.join(format!("trace-{}.json", spec.name));
        outcome.spans_written = tracer
            .write_json(&path, spec.name)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    outcome.per_layer = layer;

    // ---- verdict ----------------------------------------------------------------
    let measured_closed = last.published - first.published;
    let measured_traced = phases.traced.as_ref().map_or(0, |t| {
        t.snapshots.last().map_or(0, |l| l.published)
            - t.snapshots.first().map_or(0, |f| f.published)
    });
    outcome.attempted = (measured_closed + measured_traced + phases.open.sent).max(1);
    let lost = published.saturating_sub(delivered) + report.order_violations;
    outcome.correct = violations.is_empty();
    // A violation that is not a countable loss (a stray decoy delivery, a
    // retransmit, an unsustained rate) voids the whole run.
    outcome.failed = match (outcome.correct, lost) {
        (true, _) => 0,
        (false, 0) => outcome.attempted,
        (false, lost) => lost.min(outcome.attempted),
    };
    outcome.violations = violations;
    Ok(outcome)
}

/// The traced stretch of a `--trace 1` closed loop.
struct Traced {
    phase: Phase,
    snapshots: Vec<Snapshot>,
}

/// What the measured phases produced.
struct Phases {
    closed: Vec<Snapshot>,
    traced: Option<Traced>,
    open: OpenLoop,
    open_phase: Option<Phase>,
    /// SUT context switches at the start and the end of the closed loop.
    ctx_switches: (u64, u64),
    sut_threads: usize,
    rss_mb: f64,
}

fn drive(
    publisher: &mut Publisher<'_>,
    spec: &Spec,
    plan: &Plan,
    tracer: Option<&Tracer>,
    cpu: &CpuProbe,
) -> Result<Phases, String> {
    // Lead-in, then the untraced windows.
    let lead = publisher.closed_loop(spec, plan.closed_warm_s, 0, WINDOW_S)?;
    drop(lead);
    let ctx_start = cpu.sut_ctx_switches();
    let closed = publisher.closed_loop(spec, 0.0, plan.closed_windows, WINDOW_S)?;
    let ctx_end = cpu.sut_ctx_switches();
    let sut_threads = cpu.sut_threads();
    let rss_mb = procfs::rss_mb();

    let traced = match tracer {
        Some(tracer) if plan.traced_windows > 0 => {
            let phase = tracer.begin_phase("closed", true);
            let snapshots = publisher.closed_loop(spec, 0.0, plan.traced_windows, WINDOW_S)?;
            tracer.end_phase(phase);
            Some(Traced { phase, snapshots })
        }
        _ => None,
    };
    publisher.drain(DRAIN)?;

    let open_phase = tracer.map(|t| t.begin_phase("open", true));
    let open = publisher.open_loop(spec, plan.open_warm_s, plan.open_s)?;
    if let (Some(tracer), Some(phase)) = (tracer, open_phase) {
        tracer.end_phase(phase);
    }
    Ok(Phases {
        closed,
        traced,
        open,
        open_phase,
        ctx_switches: (ctx_start, ctx_end),
        sut_threads,
        rss_mb,
    })
}
