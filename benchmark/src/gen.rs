//! The load generator: this process's two threads and two TCP
//! connections. The publisher (the main thread, a `Client` on A) runs the
//! closed and the open loop; the receiver (one spawned thread, a `Client`
//! on C) counts, checks and time-stamps deliveries and — on the `churn`
//! workload — issues one mutation pair per 64 deliveries, so the ratio of
//! events to mutations is exact however fast the brokers run.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use linkcast_broker::{Client, ClientError};

use crate::inputs::{self, EventFactory, Spec, TS_ATTR, VOLUME_ATTR};
use crate::procfs;
use crate::rig::{ChurnClient, Cluster, Counters, Env};
use crate::schedule::{now_ns, sleep_until, Lateness, Schedule};
use crate::trace::{Kind, Tracer};

/// The subscriber acknowledges cumulatively, once per this many deliveries.
pub const ACK_EVERY: u64 = 64;
/// One event in this many gets `gen.publish` / `gen.deliver` spans.
pub const SPAN_EVERY: u64 = 64;
/// The publisher's nap while the closed-loop window is full (never spins).
const WINDOW_FULL_NAP: Duration = Duration::from_micros(200);
/// No delivery for this long means the run is wedged, not slow.
const STALL_NS: i64 = 10_000_000_000;

/// State shared by the two generator threads.
#[derive(Debug, Default)]
pub struct Shared {
    /// Events delivered to the subscriber since the cluster started.
    pub delivered: AtomicU64,
    /// Tells the receiver to stop at its next read timeout.
    pub stop: AtomicBool,
    /// Deliveries stamped within `[sample_from, sample_to)` get their
    /// latency recorded (the open loop's measured interval).
    pub sample_from: AtomicI64,
    /// See `sample_from`.
    pub sample_to: AtomicI64,
    /// The receiver's kernel thread id, for CPU accounting (0 until known).
    pub receiver_tid: AtomicU32,
}

/// What the receiver thread saw, returned when it stops.
pub struct ReceiverReport {
    /// Events received.
    pub delivered: u64,
    /// Deliveries whose broker sequence number was not the next one, or
    /// whose stamp did not increase: a duplicate, a gap or a reordering.
    pub order_violations: u64,
    /// Order-sensitive checksum over every `(ts, volume)` received.
    pub checksum: u64,
    /// Receipt time minus due time, ns, of every event due in the sampled
    /// interval.
    pub latencies_ns: Vec<u64>,
    /// The churn client, handed back for the final accounting.
    pub churn: Option<ChurnClient>,
    /// A transport or protocol failure that ended the thread early.
    pub error: Option<String>,
}

/// Spawns the receiver. `next_seq` is the first delivery sequence number
/// it should see; `sample_capacity` bounds the latency sample.
#[allow(clippy::too_many_arguments)] // one call site; each argument is a distinct piece of the thread's state
pub fn spawn_receiver(
    mut subscriber: Client,
    mut churn: Option<ChurnClient>,
    spec: Spec,
    mut next_seq: u64,
    shared: Arc<Shared>,
    env: Env,
    sample_capacity: usize,
    tracer: Option<Arc<Tracer>>,
) -> JoinHandle<ReceiverReport> {
    std::thread::Builder::new()
        .name("gen-receiver".into())
        .spawn(move || {
            env.enter_gen_core();
            shared
                .receiver_tid
                .store(procfs::current_tid().unwrap_or(0), Ordering::Release);
            let label: Arc<str> = Arc::from("gen.subscriber");
            let mut report = ReceiverReport {
                delivered: shared.delivered.load(Ordering::Acquire),
                order_violations: 0,
                checksum: 0,
                latencies_ns: Vec::with_capacity(sample_capacity),
                churn: None,
                error: None,
            };
            let mut last_ts = i64::MIN;
            let mut last_seq = next_seq.saturating_sub(1);
            loop {
                match subscriber.recv_unacked(Duration::from_millis(20)) {
                    Ok((seq, event)) => {
                        let now = now_ns();
                        let ts = inputs::int_attr(&event, TS_ATTR).unwrap_or(i64::MIN);
                        let volume = inputs::int_attr(&event, VOLUME_ATTR).unwrap_or(i64::MIN);
                        if seq != next_seq || ts <= last_ts {
                            report.order_violations += 1;
                        }
                        next_seq = seq + 1;
                        last_seq = seq;
                        last_ts = ts;
                        report.checksum = inputs::fold_checksum(report.checksum, ts, volume);
                        if ts >= shared.sample_from.load(Ordering::Relaxed)
                            && ts < shared.sample_to.load(Ordering::Relaxed)
                            && report.latencies_ns.len() < sample_capacity
                        {
                            report.latencies_ns.push((now - ts).max(0) as u64);
                        }
                        report.delivered += 1;
                        shared.delivered.store(report.delivered, Ordering::Release);
                        if seq.is_multiple_of(ACK_EVERY) {
                            if let Err(e) = subscriber.ack(seq) {
                                report.error = Some(format!("ack failed: {e}"));
                                break;
                            }
                        }
                        if spec.churn_every > 0 && report.delivered.is_multiple_of(spec.churn_every)
                        {
                            if let Some(churn) = churn.as_mut() {
                                churn.step();
                            }
                        }
                        if report.delivered.is_multiple_of(SPAN_EVERY) {
                            if let Some(tracer) = tracer.as_ref() {
                                tracer.record(Kind::GenDeliver, &label, ts, now, now_ns(), 1, 0);
                            }
                        }
                    }
                    Err(ClientError::Timeout) => {
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    Err(e) => {
                        report.error = Some(format!("subscriber failed: {e}"));
                        break;
                    }
                }
            }
            let _ = subscriber.ack(last_seq);
            if let Some(churn) = churn.as_mut() {
                churn.drain_acks();
            }
            report.churn = churn;
            report
        })
        .expect("the OS can spawn one more thread")
}

/// CPU accounting split by the generator's two thread ids.
#[derive(Debug, Clone, Copy)]
pub struct CpuProbe {
    main_tid: u32,
    receiver_tid: u32,
}

impl CpuProbe {
    /// A probe treating the calling thread and the receiver as "generator"
    /// and every other thread of the process as "system under test".
    pub fn new(shared: &Shared) -> Self {
        CpuProbe {
            main_tid: procfs::current_tid().unwrap_or(0),
            receiver_tid: shared.receiver_tid.load(Ordering::Acquire),
        }
    }

    fn is_gen(&self, tid: u32) -> bool {
        tid == self.main_tid || tid == self.receiver_tid
    }

    /// Σ run-ns of every thread except the two generator threads, and of
    /// those two: `(system under test, generator)`.
    pub fn cpu_ns(&self) -> (u64, u64) {
        procfs::cpu_ns_split(|tid| self.is_gen(tid))
    }

    /// Σ context switches of the SUT threads.
    pub fn sut_ctx_switches(&self) -> u64 {
        procfs::ctx_switches(|tid| !self.is_gen(tid))
    }

    /// Live SUT threads.
    pub fn sut_threads(&self) -> usize {
        procfs::thread_ids()
            .into_iter()
            .filter(|&t| !self.is_gen(t))
            .count()
    }
}

/// Cumulative readings at one instant (a window boundary).
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// When, ns on the run clock.
    pub t_ns: i64,
    /// Events delivered so far.
    pub delivered: u64,
    /// Events published so far.
    pub published: u64,
    /// Σ run-ns of the SUT threads.
    pub sut_cpu_ns: u64,
    /// Σ run-ns of the generator threads.
    pub gen_cpu_ns: u64,
    /// Broker counters, summed.
    pub counters: Counters,
}

/// The publisher half of the generator.
pub struct Publisher<'a> {
    cluster: &'a mut Cluster,
    factory: EventFactory,
    volumes: Vec<i64>,
    cursor: usize,
    last_ts: i64,
    shared: Arc<Shared>,
    probe: CpuProbe,
    tracer: Option<Arc<Tracer>>,
    label: Arc<str>,
    /// Events published since the cluster started.
    pub published: u64,
    /// Order-sensitive checksum over every `(ts, volume)` published.
    pub checksum: u64,
}

impl<'a> Publisher<'a> {
    /// A publisher over `cluster`'s connection to A, cycling `volumes`.
    pub fn new(
        cluster: &'a mut Cluster,
        volumes: Vec<i64>,
        shared: Arc<Shared>,
        probe: CpuProbe,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        Publisher {
            factory: EventFactory::new(&cluster.registry),
            cluster,
            volumes,
            cursor: 0,
            last_ts: now_ns(),
            shared,
            probe,
            tracer,
            label: Arc::from("gen.publisher"),
            published: 0,
            checksum: 0,
        }
    }

    /// Events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.shared.delivered.load(Ordering::Acquire)
    }

    /// Publishes one event stamped `due_ns` (bumped by a nanosecond where
    /// needed to keep stamps strictly increasing, which is what lets the
    /// receiver detect duplicates and reordering).
    fn publish(&mut self, due_ns: i64) -> Result<(), String> {
        let ts = due_ns.max(self.last_ts + 1);
        self.last_ts = ts;
        let volume = self.volumes[self.cursor];
        self.cursor = (self.cursor + 1) % self.volumes.len();
        let event = self.factory.event(volume, ts);
        let sampled = (self.published + 1).is_multiple_of(SPAN_EVERY) && self.tracer.is_some();
        let start = if sampled { now_ns() } else { 0 };
        self.cluster
            .publisher
            .publish(&event)
            .map_err(|e| format!("publish failed: {e}"))?;
        self.published += 1;
        self.checksum = inputs::fold_checksum(self.checksum, ts, volume);
        if sampled {
            if let Some(tracer) = self.tracer.as_ref() {
                tracer.record(Kind::GenPublish, &self.label, ts, start, now_ns(), 1, 0);
            }
        }
        Ok(())
    }

    /// Reads every cumulative counter once.
    pub fn snapshot(&self) -> Snapshot {
        let (t_ns, delivered) = (now_ns(), self.delivered());
        let (sut_cpu_ns, gen_cpu_ns) = self.probe.cpu_ns();
        Snapshot {
            t_ns,
            delivered,
            published: self.published,
            sut_cpu_ns,
            gen_cpu_ns,
            counters: self.cluster.counters(),
        }
    }

    /// Waits until everything published has been delivered.
    ///
    /// # Errors
    ///
    /// The shortfall, if `timeout` passes first.
    pub fn drain(&self, timeout: Duration) -> Result<(), String> {
        let deadline = now_ns() + timeout.as_nanos() as i64;
        while self.delivered() < self.published {
            if now_ns() >= deadline {
                return Err(format!(
                    "{} of {} events undelivered after {timeout:?}",
                    self.published - self.delivered(),
                    self.published
                ));
            }
            std::thread::sleep(WINDOW_FULL_NAP);
        }
        Ok(())
    }

    /// Closed loop: keeps `spec.window` events in flight for `warm_s`
    /// seconds unmeasured, then through `windows` windows of `window_s`
    /// seconds. Returns the `windows + 1` boundary snapshots.
    ///
    /// # Errors
    ///
    /// A publish failure or a stall.
    pub fn closed_loop(
        &mut self,
        spec: &Spec,
        warm_s: f64,
        windows: usize,
        window_s: f64,
    ) -> Result<Vec<Snapshot>, String> {
        let window_ns = (window_s * 1e9) as i64;
        let mut boundary = now_ns() + (warm_s * 1e9) as i64;
        let mut snapshots = Vec::with_capacity(windows + 1);
        let mut last_progress = (self.delivered(), now_ns());
        loop {
            let now = now_ns();
            if now >= boundary {
                snapshots.push(self.snapshot());
                if snapshots.len() == windows + 1 {
                    return Ok(snapshots);
                }
                boundary += window_ns;
            }
            let delivered = self.delivered();
            if delivered != last_progress.0 {
                last_progress = (delivered, now);
            } else if now - last_progress.1 > STALL_NS {
                return Err(format!(
                    "closed loop stalled: {} published, {delivered} delivered",
                    self.published
                ));
            }
            let room = spec.window.saturating_sub(self.published - delivered);
            if room == 0 {
                std::thread::sleep(WINDOW_FULL_NAP);
                continue;
            }
            for _ in 0..room.min(32) {
                self.publish(now_ns())?;
            }
        }
    }

    /// Open loop: bursts of `spec.burst` events on the absolute schedule
    /// `spec.rate` fixes, `warm_s` seconds unmeasured then `measured_s`
    /// measured. Never skips a burst and never waits for deliveries.
    ///
    /// # Errors
    ///
    /// A publish failure.
    pub fn open_loop(
        &mut self,
        spec: &Spec,
        warm_s: f64,
        measured_s: f64,
    ) -> Result<OpenLoop, String> {
        let schedule = Schedule {
            start_ns: now_ns() + 2_000_000,
            rate: spec.rate,
            burst: spec.burst,
        };
        let warm_bursts = schedule.bursts_in(warm_s);
        let measured_bursts = schedule.bursts_in(measured_s).max(1);
        self.shared
            .sample_from
            .store(schedule.due_ns(warm_bursts), Ordering::Relaxed);
        self.shared.sample_to.store(
            schedule.due_ns(warm_bursts + measured_bursts),
            Ordering::Relaxed,
        );
        let mut lateness = Lateness::with_capacity(measured_bursts as usize);
        for k in 0..warm_bursts + measured_bursts {
            let due = schedule.due_ns(k);
            sleep_until(due);
            if k >= warm_bursts {
                lateness.record(due, now_ns());
            }
            for _ in 0..spec.burst {
                self.publish(due)?;
            }
        }
        Ok(OpenLoop {
            lateness,
            sent: measured_bursts * spec.burst,
            backlog_at_end: self.published - self.delivered(),
        })
    }
}

/// What the open loop measured, besides the receiver's latency sample.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// How late each measured burst was sent.
    pub lateness: Lateness,
    /// Events offered in the measured interval.
    pub sent: u64,
    /// Events published but not yet delivered when the last burst went
    /// out; at a sustainable rate this stays far below one second's worth.
    pub backlog_at_end: u64,
}
